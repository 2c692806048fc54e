"""Run one `graphlets` CLI command with spans recorded around its layers.

    python3 bench/tracer.py TRACE.json <graphlets arguments...>

The command runs exactly as `python -m graphlets.cli <arguments>` would,
except that the public function of each layer is replaced, in every module
namespace that holds it, by a wrapper that records a span: name, start, end
and the enclosing span.  The program's sources are not modified.  When the
command ends the spans, per-name totals (calls, inclusive and self time) and
layer counts are written to TRACE.json, and the command's exit code is
returned.

Only this process is observed (time.perf_counter); no system-wide tracing is
used.  Functions that run per span pair are kept as totals only, so memory
stays bounded on large corpora.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from pathlib import Path

# (defining module, function name).  A name missing from its module (say,
# after a refactor) is skipped and its metrics read 0.
TRACED = [
    ("cli", "main"),
    ("trace", "load_corpus"),
    ("trace", "index_trace"),
    ("workflow", "validate_corpus"),
    ("workflow", "prepare_ml_corpus"),
    ("workflow", "policy_report"),
    ("segmentation", "segment_corpus"),
    ("segmentation", "filter_warmstart"),
    ("features", "featurize_corpus"),
    ("similarity", "sequence_sim"),
    ("similarity", "span_sim"),
    ("similarity", "canonicalize"),
    ("transport", "transport_cost"),
    ("forest", "split_corpus"),
    ("forest", "fit"),
    ("forest", "scores"),
    ("policy", "sweep"),
    ("policy", "heuristic_baselines"),
    ("analytics", "pipeline_stats"),
    ("analytics", "cost_breakdown"),
    ("analytics", "cadence_stats"),
    ("analytics", "similarity_table"),
    ("analytics", "drift_code_table"),
    ("synth", "generate"),
]

# Called once per span pair or feature: totals only, no span records.
HOT = {"sequence_sim", "span_sim", "canonicalize", "transport_cost"}


def dir_bytes(path) -> int:
    root = Path(path)
    if root.is_file():
        return root.stat().st_size
    return sum(p.stat().st_size for p in root.rglob("*") if p.is_file())


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.totals: dict[str, list] = {}  # name -> [calls, inclusive s, self s]
        self.counts: dict[str, float] = {}
        self.pairs: set[tuple[int, int]] = set()
        self._stack: list[list] = []  # [span id, name, start, child s]
        self._next_id = 0

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(self, name: str, fn, record: bool, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1][0] if self._stack else -1
            span_id = -1
            if record:
                span_id, self._next_id = self._next_id, self._next_id + 1
            frame = [span_id if record else parent, name, time.perf_counter(), 0.0]
            self._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame[2]
                if self._stack:
                    self._stack[-1][3] += duration
                total = self.totals.setdefault(name, [0, 0.0, 0.0])
                total[0] += 1
                total[1] += duration
                total[2] += duration - frame[3]
                if record:
                    self.spans.append((span_id, parent, name, frame[2], end))
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced


def _records(tracer, args, kwargs, traces) -> None:
    tracer.count("trace.records", sum(
        len(t.artifacts) + len(t.executions) + len(t.edges) for t in traces))


def _segments(tracer, args, kwargs, corpus) -> None:
    tracer.count("segmentation.graphlets", sum(len(gs) for _, gs in corpus))


def _warmstart(tracer, args, kwargs, kept) -> None:
    tracer.count("segmentation.warmstart_dropped", len(args[0]) - len(kept))


def _features(tracer, args, kwargs, feats) -> None:
    tracer.count("features.rows", len(feats.y))
    tracer.counts["features.columns"] = max(tracer.counts.get("features.columns", 0), len(feats.names))


def _span_pair(tracer, args, kwargs, _) -> None:
    a, b = id(args[0]), id(args[1])
    tracer.pairs.add((a, b) if a <= b else (b, a))


def _forest(tracer, args, kwargs, forest) -> None:
    tracer.count("forest.trees", len(forest.trees))
    tracer.count("forest.nodes", sum(len(t.feature) for t in forest.trees))


def _curve(tracer, args, kwargs, curve) -> None:
    tracer.count("policy.curve_points", len(curve.points))


def _generated(tracer, args, kwargs, truth) -> None:
    tracer.count("synth.graphlets", len(truth.entries))
    out = args[1] if len(args) > 1 else kwargs["out_dir"]
    tracer.count("synth.bytes_written", dir_bytes(out))


OBSERVERS = {
    "load_corpus": _records,
    "segment_corpus": _segments,
    "filter_warmstart": _warmstart,
    "featurize_corpus": _features,
    "span_sim": _span_pair,
    "fit": _forest,
    "sweep": _curve,
    "generate": _generated,
}


def install(tracer: Tracer):
    """Wrap every traced function wherever the loaded package binds it.

    Returns the wrapped ``graphlets.cli.main``.
    """
    cli = importlib.import_module("graphlets.cli")
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "graphlets" or n.startswith("graphlets."))]
    for module_name, name in TRACED:
        fn = getattr(sys.modules.get(f"graphlets.{module_name}"), name, None)
        if fn is None:
            continue
        wrapped = tracer.wrap(name, fn, record=name not in HOT, observe=OBSERVERS.get(name))
        for module in modules:
            if getattr(module, name, None) is fn:
                setattr(module, name, wrapped)
    return cli.main


def layer_metrics(tracer: Tracer, out_dir: str | None) -> dict[str, float]:
    """The per-layer metrics of one traced command."""

    def calls(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[0]

    def inclusive(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[1]

    def self_s(name):
        return tracer.totals.get(name, [0, 0.0, 0.0])[2]

    def ratio(a, b):
        return a / b if b else 0.0

    c = tracer.counts
    records = c.get("trace.records", 0)
    pairs = len(tracer.pairs)
    synth_bytes = c.get("synth.bytes_written", 0)
    return {
        "trace.load_s": inclusive("load_corpus"),
        "trace.records": records,
        "trace.records_per_s": ratio(records, inclusive("load_corpus")),
        "trace.validate_s": inclusive("validate_corpus"),
        "trace.index_calls": calls("index_trace"),
        "trace.index_s": inclusive("index_trace"),
        "segmentation.segment_s": inclusive("segment_corpus"),
        "segmentation.graphlets": c.get("segmentation.graphlets", 0),
        "segmentation.warmstart_dropped": c.get("segmentation.warmstart_dropped", 0),
        "similarity.sequence_sim_calls": calls("sequence_sim"),
        "similarity.sequence_sim_s": inclusive("sequence_sim"),
        "similarity.span_sim_calls": calls("span_sim"),
        "similarity.span_pairs_distinct": pairs,
        "similarity.canonicalize_calls": calls("canonicalize"),
        "similarity.canonicalize_s": inclusive("canonicalize"),
        "transport.solves": calls("transport_cost"),
        "transport.solve_s": inclusive("transport_cost"),
        "transport.solve_share": ratio(calls("transport_cost"), pairs),
        "features.featurize_s": inclusive("featurize_corpus"),
        "features.rows": c.get("features.rows", 0),
        "features.columns": c.get("features.columns", 0),
        "forest.split_s": inclusive("split_corpus"),
        "forest.fit_s": inclusive("fit"),
        "forest.trees": c.get("forest.trees", 0),
        "forest.nodes": c.get("forest.nodes", 0),
        "forest.score_s": inclusive("scores"),
        "policy.sweep_s": inclusive("sweep"),
        "policy.curve_points": c.get("policy.curve_points", 0),
        "policy.heuristics_s": inclusive("heuristic_baselines"),
        "workflow.prepare_s": inclusive("prepare_ml_corpus"),
        "workflow.policy_report_self_s": self_s("policy_report"),
        "analytics.pipeline_stats_calls": calls("pipeline_stats"),
        "analytics.pipeline_stats_s": inclusive("pipeline_stats"),
        "analytics.cost_breakdown_s": inclusive("cost_breakdown"),
        "analytics.cadence_s": inclusive("cadence_stats"),
        "analytics.similarity_table_s": inclusive("similarity_table"),
        "analytics.drift_code_s": inclusive("drift_code_table"),
        "synth.generate_s": inclusive("generate"),
        "synth.graphlets": c.get("synth.graphlets", 0),
        "synth.bytes_written": synth_bytes,
        "synth.bytes_per_s": ratio(synth_bytes, inclusive("generate")),
        "cli.self_s": self_s("main"),
        "cli.bytes_written": dir_bytes(out_dir) if out_dir and Path(out_dir).exists() else 0,
    }


def _out_arg(argv: list[str]) -> str | None:
    return argv[argv.index("--out") + 1] if "--out" in argv[:-1] else None


def main() -> int:
    if len(sys.argv) < 3:
        print("usage: tracer.py TRACE.json <graphlets arguments...>", file=sys.stderr)
        return 2
    trace_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli_main = install(tracer)
    code = cli_main(argv)
    payload = {
        "argv": argv,
        "exit_code": code,
        "system_wide_tracing": False,
        "metrics": layer_metrics(tracer, _out_arg(argv)),
        "totals": {name: {"calls": t[0], "inclusive_s": t[1], "self_s": t[2]}
                   for name, t in sorted(tracer.totals.items())},
        "spans": [{"id": i, "parent": p, "name": n, "start": s, "end": e}
                  for i, p, n, s, e in tracer.spans],
    }
    Path(trace_path).write_text(json.dumps(payload) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
