"""Benchmark of the `graphlets` command line, measured from outside.

    python3 bench/run.py --workload report --seed 1 --seconds 50 --trace 0

Run from the root of a source checkout.  Each timed run is one fresh
`python3 -m graphlets.cli <command>` process, started only after the
previous one ended (a closed loop with one client), because a user's CLI
process always starts with cold in-process caches.  The inputs are several
corpora generated from --seed with the checkout's own `graphlets synth`; the
timed processes take them in turn.  The command under test sees only the
generated files.

--trace 0 prints every end-to-end metric; --trace 1 runs the command on the
first corpus twice untraced and twice under bench/tracer.py and prints every
per-layer metric.
The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  See bench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
DEADLINE_S = 150.0  # stop starting child processes after this long
# The reference task's time on the development host (2 vCPUs, Python 3.11,
# numpy 2.4) in a quiet period.  End-to-end times are scaled to that speed;
# see calibration().
REFERENCE_S = 0.45
STAGES = ("input", "input_pre", "input_pre_trainer", "validation")
# The acceptance suite allows 0.02 above the Bayes ceiling on 20,000
# graphlets; these corpora are about 60 times smaller, so the test split is
# far noisier.
BAL_ACC_SLACK = 0.1
TOL = 1e-9
# The default preset's planted compute mix per operator group.
COST_MIX = {
    "data_ingestion": 0.22,
    "data_analysis_validation": 0.20,
    "data_preprocessing": 0.10,
    "training": 0.30,
    "model_analysis_validation": 0.15,
    "deployment": 0.03,
}
OPERATOR_GROUP = {
    "example_gen": "data_ingestion",
    "statistics_gen": "data_analysis_validation",
    "schema_gen": "data_analysis_validation",
    "example_validator": "data_analysis_validation",
    "transform": "data_preprocessing",
    "tuner": "data_preprocessing",
    "custom": "data_preprocessing",
    "trainer": "training",
    "evaluator": "model_analysis_validation",
    "model_validator": "model_analysis_validation",
    "pusher": "deployment",
}


@dataclass(frozen=True)
class Workload:
    """One command on generated corpora; bench/README.md says why each."""

    command: str
    corpora: int  # corpora per run, each generated from its own seed
    pipelines: int  # per corpus
    graphlets: tuple[int, int]  # graphlets per pipeline, low and high
    churn: float  # share of data spans with one feature renamed


WORKLOADS = {
    "report": Workload("report", 6, 32, (10, 10), 0.0),
    "stats_churn": Workload("stats", 4, 64, (10, 10), 0.3),
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "graphlets_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "passed_runs": "fraction",
}
QUALITY = ("bal_acc_validation", "bal_acc_input", "waste_elim_validation")


class BenchError(Exception):
    """The benchmark cannot run here (no checkout, bad arguments)."""


@dataclass
class Child:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int


def run_child(argv: list[str], env: dict, timeout: float) -> Child:
    """Run one process to completion; resources come from its own wait4."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(max(timeout, 1.0), proc.kill)
    killer.start()
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stderr.close()
    if proc.returncode != 0:
        sys.stderr.write(f"exit {proc.returncode}: {' '.join(argv)}\n{stderr.decode(errors='replace')[-2000:]}\n")
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, proc.returncode)


def digests(directory: Path) -> dict[str, str]:
    """sha256 of every file under ``directory``, keyed by relative path."""
    return {
        str(p.relative_to(directory)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.rglob("*")) if p.is_file()
    }


def combined(files: dict[str, str]) -> str:
    return hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest()


def churn_corpus(corpus: Path, share: float, seed: int) -> int:
    """Rename one feature in a seeded ``share`` of data spans; returns the count.

    The new name is unique within its span, so the corpus still validates,
    but consecutive spans no longer align by name and reach the simplex.
    """
    rng = random.Random(seed)
    renamed = 0
    for path in sorted(corpus.glob("*.ndjson")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for i, line in enumerate(lines):
            if '"data_span"' not in line or rng.random() >= share:
                continue
            record = json.loads(line)
            features = record["properties"]["span_stats"]["features"]
            names = {f["name"] for f in features}
            feature = features[rng.randrange(len(features))]
            new = feature["name"] + "_r"
            while new in names:
                new += "_r"
            feature["name"] = new
            lines[i] = json.dumps(record, sort_keys=True)
            renamed += 1
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return renamed


def read_table(path: Path) -> list[list[str]]:
    """Rows of a graphlets TSV table, without the version line and header."""
    lines = path.read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# graphlets-table"):
        raise ValueError(f"{path.name}: missing table version line")
    return [line.split("\t") for line in lines[2:]]


def truth_of(corpus: Path) -> dict:
    return json.loads((corpus / "truth.json").read_text(encoding="utf-8"))


def check_report(out: Path, truth: dict) -> dict[str, float]:
    """Planted-truth checks of a report; returns its quality metrics."""
    stages = {row[0]: row for row in read_table(out / "stages.tsv")}
    if tuple(stages) != STAGES:
        raise ValueError(f"stages.tsv has stages {list(stages)}, expected {list(STAGES)}")
    bal_val = float(stages["validation"][1])
    ceiling = truth["bayes_balanced_accuracy"] + BAL_ACC_SLACK
    if not 0.5 < bal_val <= ceiling:
        raise ValueError(f"bal_acc_validation {bal_val} outside (0.5, {ceiling}]")
    elim = float(stages["validation"][3])
    curve = [(float(r[1]), float(r[2])) for r in read_table(out / "curve_validation.tsv")]
    from_curve = 1.0 - min(w for w, fresh in curve if fresh >= 0.999 - 1e-12)
    if not (0.0 <= elim <= 1.0 and abs(elim - from_curve) <= TOL):
        raise ValueError(f"waste_elim_validation {elim} does not match its curve ({from_curve})")
    return {
        "bal_acc_validation": bal_val,
        "bal_acc_input": float(stages["input"][1]),
        "waste_elim_validation": elim,
    }


def check_cost_mix(fractions: dict[str, float]) -> None:
    worst = max(abs(fractions.get(g, 0.0) - f) for g, f in COST_MIX.items())
    if set(fractions) - set(COST_MIX) or worst > TOL:
        raise ValueError(f"cost mix {fractions} differs from the planted {COST_MIX}")


def check_stats(out: Path) -> dict[str, float]:
    check_cost_mix({g: float(f) for g, f in read_table(out / "cost_breakdown.tsv")})
    return {}


def check_generated(out: Path, w: Workload) -> None:
    """Planted-truth checks of a corpus written by `graphlets synth`."""
    truth = truth_of(out)
    per_pipeline: dict[str, int] = {}
    for entry in truth["entries"]:
        per_pipeline[entry["pipeline_id"]] = per_pipeline.get(entry["pipeline_id"], 0) + 1
    lo, hi = w.graphlets
    if len(per_pipeline) != w.pipelines or not all(lo <= n <= hi for n in per_pipeline.values()):
        raise ValueError(f"truth.json: {len(per_pipeline)} pipelines, expected {w.pipelines} "
                         f"with {lo}..{hi} graphlets each")
    costs: dict[str, float] = {}
    for path in sorted(out.glob("*.ndjson")):
        for line in path.read_text(encoding="utf-8").splitlines():
            if '"execution"' in line:
                record = json.loads(line)
                group = OPERATOR_GROUP[record["operator"]]
                costs[group] = costs.get(group, 0.0) + record["cpu_cost"]
    total = sum(costs.values())
    check_cost_mix({g: c / total for g, c in costs.items()})


def git_revision(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def environment(root: Path, graphlets_file: str) -> dict:
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ[k] for k in sorted(os.environ)
                         if k.endswith("_NUM_THREADS") or k.startswith("OPENBLAS")},
        "git_revision": git_revision(root),
        "graphlets_module": graphlets_file,
        "system_wide_tracing": False,
        "measured_with": "os.wait4 rusage of each child; time.perf_counter wall time",
        "loop": "closed, one client, one fresh process per run",
    }


def median(values):
    return statistics.median(values) if values else 0.0


@dataclass
class Corpus:
    index: int
    seed: int  # of `graphlets synth` and of the command under test
    path: Path
    truth: dict


class Bench:
    def __init__(self, args, w: Workload, root: Path):
        self.args = args
        self.w = w
        self.root = root
        self.start = time.monotonic()
        self.work = root / ".bench_work" / args.workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else []))
        self.runs: list[dict] = []
        self.setup_times: list[float] = []
        self.reference_times: list[float] = []
        self.corpora: list[Corpus] = []
        self.input_failure: str | None = None
        self.input_layers: dict[str, float] = {}

    def remaining(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def cli(self, seed: int, *argv: str) -> list[str]:
        """Arguments of one `graphlets` command, without the interpreter."""
        return [*argv, "--seed", str(seed)]

    def run_cli(self, argv: list[str], timeout: float, trace_file: Path | None = None) -> Child:
        """Run one `graphlets` command, under bench/tracer.py if ``trace_file``."""
        runner = [str(BENCH_DIR / "tracer.py"), str(trace_file)] if trace_file else ["-m", "graphlets.cli"]
        return run_child([sys.executable, *runner, *argv], self.env, timeout)

    def probe(self) -> str:
        """Check the child imports graphlets from this checkout; return its path."""
        out = subprocess.run(
            [sys.executable, "-c", "import graphlets.cli as c; print(c.__file__)"],
            env=self.env, capture_output=True, text=True, timeout=60,
        )
        module = Path(out.stdout.strip() or ".").resolve()
        if out.returncode != 0 or not module.is_relative_to(self.root / "src"):
            raise BenchError(f"graphlets.cli does not import from {self.root / 'src'}: "
                             f"{out.stderr.strip()[-500:]}")
        return str(module.relative_to(self.root))

    def setup_probe(self) -> None:
        """Time a fresh interpreter importing the CLI and loading its config."""
        argv = [sys.executable, "-c",
                "import graphlets.cli as c; c.load_config(None, seed=%d)" % self.args.seed]
        child = run_child(argv, self.env, 60)
        if child.code != 0:
            raise BenchError("interpreter set-up probe failed")
        self.setup_times.append(child.wall_s)

    def reference_probe(self) -> None:
        """Time bench/reference.py, a fixed task that imports nothing of graphlets."""
        child = run_child([sys.executable, str(BENCH_DIR / "reference.py")], dict(os.environ), 60)
        if child.code != 0:
            raise BenchError("reference task failed")
        self.reference_times.append(child.wall_s)

    def make_inputs(self) -> list[dict]:
        """Generate the workload's corpora from the seed; one with --trace 1.

        Corpus i is generated with seed 100 * --seed + i.  Taking the timed
        processes from several corpora in turn averages out how much work
        one seed's corpus happens to need.
        """
        count = 1 if self.args.trace else self.w.corpora
        return [self.make_input(i, 100 * self.args.seed + i) for i in range(count)]

    def make_input(self, index: int, seed: int) -> dict:
        """Generate one input corpus and check it.

        No workload times `graphlets synth`, so with --trace 1 the generation
        runs under the tracer and gives the synth layer's metrics.  A corpus
        that fails its planted-truth check or `graphlets validate` fails
        every run of the workload.
        """
        path = self.work / f"input{index}"
        trace_file = self.work / "trace_input.json" if self.args.trace else None
        lo, hi = self.w.graphlets
        synth = self.cli(seed, "synth", "--out", str(path), "--preset", "default",
                         "--pipelines", str(self.w.pipelines), "--graphlets", f"{lo}:{hi}")
        if self.run_cli(synth, self.remaining(), trace_file).code != 0:
            raise RuntimeError("input generation failed")
        if trace_file:
            self.input_layers = json.loads(trace_file.read_text(encoding="utf-8"))["metrics"]
        try:
            check_generated(path, self.w)
        except (ValueError, KeyError, OSError) as exc:
            self.input_failure = self.input_failure or f"generated input {index}: {exc}"
        renamed = churn_corpus(path, self.w.churn, seed) if self.w.churn else 0
        if self.run_cli(self.cli(seed, "validate", "--corpus", str(path)), self.remaining()).code != 0:
            self.input_failure = (self.input_failure
                                  or f"generated input {index}: graphlets validate rejects it")
        corpus = Corpus(index, seed, path, truth_of(path))
        self.corpora.append(corpus)
        return {"seed": seed, "corpus_sha256": combined(digests(path)), "spans_renamed": renamed,
                "graphlets": len(corpus.truth["entries"]),
                "bayes_balanced_accuracy": corpus.truth["bayes_balanced_accuracy"],
                "oracle_elimination": corpus.truth["oracle_elimination"]}

    def run_once(self, corpus: Corpus, traced: bool = False) -> dict:
        i = len(self.runs)
        out = self.work / f"out{i}"
        trace_file = self.work / f"trace{i}.json"
        argv = self.cli(corpus.seed, self.w.command, "--corpus", str(corpus.path), "--out", str(out))
        child = self.run_cli(argv, self.remaining() + 20, trace_file if traced else None)
        run = {"corpus": corpus.index, "traced": traced, "wall_s": child.wall_s, "cpu_s": child.cpu_s,
               "peak_rss_mb": child.peak_rss_mb, "exit_code": child.code,
               "out": out, "files": digests(out) if out.exists() else {}}
        run["sha256"] = combined(run["files"])
        if traced and child.code == 0:
            run["layers"] = json.loads(trace_file.read_text(encoding="utf-8"))["metrics"]
        self.runs.append(run)
        return run

    def measure(self) -> None:
        """Fresh command processes, one after another and on each corpus in
        turn, for --seconds, and at least one per corpus.

        A set-up probe and a reference probe follow every timed process, so
        that all three samples cover the same stretch of time."""
        t0 = time.monotonic()
        while True:
            run = self.run_once(self.corpora[len(self.runs) % len(self.corpora)])
            self.setup_probe()
            self.reference_probe()
            elapsed = time.monotonic() - t0
            step = elapsed / len(self.runs)
            done = len(self.runs) >= len(self.corpora)
            if run["exit_code"] != 0 or (done and elapsed + step > self.args.seconds):
                break
            if done and step > self.remaining():
                break

    def check(self) -> dict:
        """Check every run; a failed run exited nonzero, failed a planted-truth
        check, or wrote bytes that differ from the other runs on its corpus.
        Returns the first corpus's quality metrics."""
        qualities: list[dict[str, float]] = []
        for corpus in self.corpora:
            runs = [r for r in self.runs if r["corpus"] == corpus.index]
            shas = [r["sha256"] for r in runs if r["exit_code"] == 0]
            reference = max(shas, key=shas.count) if shas else None
            verdict = None
            if shas:
                out = next(r for r in runs if r["sha256"] == reference)["out"]
                try:
                    qualities.append(self.check_output(out, corpus.truth))
                except (ValueError, KeyError, OSError) as exc:
                    verdict = f"planted-truth check on corpus {corpus.index}: {exc}"
            for run in runs:
                if run["exit_code"] != 0:
                    run["failure"] = f"exit code {run['exit_code']}"
                elif run["sha256"] != reference:
                    run["failure"] = "output bytes differ from the other runs on its corpus"
                elif self.input_failure or verdict:
                    run["failure"] = self.input_failure or verdict
        return qualities[0] if qualities else {}

    def check_output(self, out: Path, truth: dict) -> dict[str, float]:
        if self.w.command == "report":
            return check_report(out, truth)
        return check_stats(out)

    def graphlets(self) -> int:
        """Graphlets per corpus; every corpus of a workload has as many."""
        return len(self.corpora[0].truth["entries"])


def per_corpus_mean(runs: list[dict], key: str) -> float:
    """Mean over the corpora of each corpus's mean, so that every corpus
    weighs the same however many runs it got."""
    by_corpus: dict[int, list[float]] = {}
    for r in runs:
        by_corpus.setdefault(r["corpus"], []).append(r[key])
    return statistics.fmean(statistics.fmean(v) for v in by_corpus.values())


def calibration(bench: Bench) -> float:
    """REFERENCE_S over the reference task's mean time in this run.

    On a shared host every process slows alike, by a quarter and more, in
    phases that last minutes: longer than a run, so no statistic of one run's
    processes can average them out.  The reference task shares the
    phases and none of the program's code.  Scaling by it reports times at
    the development host's speed, so runs made in a fast and a slow phase
    agree.  The raw times are printed with every run.
    """
    return REFERENCE_S / statistics.fmean(bench.reference_times)


def end_to_end(bench: Bench) -> dict[str, float]:
    """Means over the timed runs, except the medians of peak RSS and set-up;
    times are scaled to the reference speed.

    Within a run the noise comes in phases of 10 to 30 s that slow every
    process alike.  The mean weighs the phases by their duration, where a
    median of short runs jumps from one phase to the other.
    """
    runs = bench.runs
    ok = [r for r in runs if "failure" not in r] or runs
    scale = calibration(bench)
    wall = scale * per_corpus_mean(ok, "wall_s")
    return {
        "wall_s": wall,
        "graphlets_per_s": bench.graphlets() / wall,
        "cpu_s": scale * per_corpus_mean(ok, "cpu_s"),
        "peak_rss_mb": median([r["peak_rss_mb"] for r in ok]),
        "setup_s": scale * median(bench.setup_times),
        "passed_runs": sum("failure" not in r for r in runs) / len(runs),
    }


def per_layer(bench: Bench, quality: dict[str, float]) -> dict[str, float]:
    """Median of each layer metric over the traced runs, the synth layer from
    the traced input generation, the report's policy quality (0 on workloads
    that train no policy), and the tracing overhead: median traced minus
    median untraced wall time."""
    traced = [r for r in bench.runs if r["traced"] and "layers" in r]
    plain = [r for r in bench.runs if not r["traced"] and r["exit_code"] == 0]
    if not traced:
        return {}
    metrics = {k: median([r["layers"][k] for r in traced]) for k in traced[0]["layers"]}
    metrics.update({k: v for k, v in bench.input_layers.items() if k.startswith("synth.")})
    for name in QUALITY:
        metrics[f"policy.{name}"] = quality.get(name, 0.0)
    metrics["tracing.overhead_s"] = (
        median([r["wall_s"] for r in traced]) - median([r["wall_s"] for r in plain]) if plain else 0.0)
    return metrics


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd().resolve()
    if not (root / "src" / "graphlets" / "cli.py").is_file():
        print(f"error: {root} is not a graphlets source checkout (no src/graphlets/cli.py)",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    bench = Bench(args, w, root)
    try:
        info = {"workload": args.workload, "seed": args.seed, "command": w.command,
                "environment": environment(root, bench.probe())}
        info["input"] = bench.make_inputs()
        if args.trace:
            for _ in range(2):
                bench.run_once(bench.corpora[0])
                bench.run_once(bench.corpora[0], traced=True)
        else:
            bench.measure()
        quality = bench.check()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        values = per_layer(bench, quality)
        units = {}
    else:
        values = end_to_end(bench)
        units = END_TO_END_UNITS
    failed = sum("failure" in r for r in bench.runs)
    info["graphlets"] = bench.graphlets()
    info["runs"] = [{k: v for k, v in r.items() if k not in ("out", "layers")}
                    for r in bench.runs]
    info["setup_s_raw"] = bench.setup_times
    info["reference_s_raw"] = bench.reference_times
    (bench.work / "record.json").write_text(json.dumps(info, indent=1, default=str) + "\n")
    for r in bench.runs:
        shutil.rmtree(r["out"], ignore_errors=True)

    for r in info["runs"]:
        status = r.get("failure", "ok")
        print(f"run corpus={r['corpus']} traced={int(r['traced'])} wall_s={r['wall_s']:.3f} cpu_s={r['cpu_s']:.3f} "
              f"peak_rss_mb={r['peak_rss_mb']:.1f} sha256={r['sha256'][:16]} {status}")
    print(f"failed_runs={failed}/{len(bench.runs)} graphlets_per_corpus={info['graphlets']}")
    for corpus in info["input"]:
        print("input=" + json.dumps(corpus))
    if not args.trace:
        print(f"setup_s_raw={json.dumps(bench.setup_times)}")
        print(f"reference_s_raw={json.dumps(bench.reference_times)} scale={calibration(bench)}")
    print("environment=" + json.dumps(info["environment"], sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(bench.runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units.get(k, layer_unit(k))} for k, v in values.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("bytes_per_s"):
        return "bytes/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_share") or name.split(".")[-1] in QUALITY:
        return "fraction"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
