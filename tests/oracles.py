"""Independent reference implementations used only to check the library.

These deliberately favor obviousness over speed: the segmentation oracle
re-scans every edge until nothing changes, the warmstart oracle scans every
edge once, the shape oracle walks a graphlet one node at a time with degrees
counted over the edge pairs, the graphlet-walk oracle derives each of a
graphlet's costs, shape, push label and inputs in its own walk, the cycle
oracle runs Kahn's
algorithm over the edge pairs, the transport oracle enumerates
integer contingency tables, the sweep oracle rebuilds each confusion set
from scratch, the split oracle scores one candidate feature at a time, the
fit oracle grows each tree recursively around it, the score oracle walks one
tree at a time, the hash oracle projects one distribution at a time, the
canonicalization oracle lays out one feature at a time in scalar arithmetic,
the span-similarity oracle signs, orients and solves one span pair at a
time and reads each square certificate off a permutation's cells, the
graphlet-similarity oracle compares one graphlet pair at a time through it,
the parse oracle decodes one record at a time through ``json.loads``, the
feature-check oracle tests every histogram and count entry one at a time, and
the corpus oracles (featurization, cost breakdown, cadence) take a whole
corpus as one list and build every row or sum in a single loop over it.

The rest are test-side counterparts of the library's writers and samplers:
a trace serializer for parse round trips, a corpus loader that holds every
trace of a directory in one list, a truth-file reader, a Monte-Carlo
sampler of the planted push process, the pipeline generator with every
operator run written out by hand, and the optimal plan behind
``transport_cost``.
"""

from __future__ import annotations

import functools
import json
import math
from collections import Counter
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

from graphlets import forest, transport
from graphlets.config import STAGES, ForestConfig
from graphlets.features import (
    ARCH_VOCAB_CAP,
    POST_TRAINER_KINDS,
    PRE_TRAINER_KINDS,
    TRAINER_KINDS,
    CorpusFeatures,
    Featurizer,
)
from graphlets.segmentation import Graphlet, StopSet
from graphlets.similarity import (
    BINS,
    CanonicalDistribution,
    LshParams,
    SimWeights,
    _canonical_bins,
    hash_distributions,
    jaccard,
)
from graphlets.synth import (
    ARCHITECTURES,
    _MS_MIN,
    GenConfig,
    PlantedTruth,
    TruthEntry,
    _PipelineState,
)
from graphlets.trace import (
    Analyzer,
    Artifact,
    ArtifactType,
    EdgeRole,
    ExecutionState,
    Execution,
    FeatureKind,
    FeatureStats,
    ModelType,
    MS_PER_HOUR,
    OPERATOR_GROUPS,
    OperatorGroup,
    OperatorKind,
    SpanStats,
    Trace,
    TraceParseError,
    parse_trace_file,
)


def edge_pairs(trace: Trace) -> list[tuple[str, str]]:
    """The trace's edges as sorted ``(src, dst)`` pairs, read off ``children``."""
    return sorted((src, dst) for src, dsts in trace.children.items() for dst in dsts)


def naive_graphlet_nodes(trace: Trace, anchor: str, stop: StopSet) -> frozenset[str]:
    """Iterate the two membership rules over the full edge list to fixpoint."""
    nodes = {anchor}
    edges = edge_pairs(trace)
    changed = True
    while changed:
        changed = False
        for src, dst in edges:
            if dst in nodes and src not in nodes:
                ex = trace.executions.get(src)
                blocked = (
                    ex is not None and ex.operator is OperatorKind.TRAINER and src != anchor
                )
                if not blocked:
                    nodes.add(src)
                    changed = True
            if src in nodes and dst not in nodes:
                ex = trace.executions.get(dst)
                blocked = ex is not None and ex.operator in stop.kinds and dst != anchor
                if not blocked:
                    nodes.add(dst)
                    changed = True
    return frozenset(nodes)


def has_warmstart(trace: Trace) -> bool:
    """True iff some edge runs from a model artifact into a trainer execution."""
    model_ids = {
        a.id for a in trace.artifacts.values() if a.artifact_type is ArtifactType.MODEL
    }
    trainer_ids = {
        e.id for e in trace.executions.values() if e.operator is OperatorKind.TRAINER
    }
    for src, dst in edge_pairs(trace):
        if dst in trainer_ids and src in model_ids:
            return True
    return False


def loop_shape_features(
    g: Graphlet, trace: Trace, kinds: tuple[OperatorKind, ...]
) -> list[float]:
    """Execution count and mean in/out degree per operator kind, one graphlet
    node at a time; zeros when a kind is absent from the graphlet."""
    pairs = edge_pairs(trace)
    fan_in = Counter(dst for _, dst in pairs)
    fan_out = Counter(src for src, _ in pairs)
    per_kind: dict[OperatorKind, list[tuple[int, int]]] = {}
    for node in g.nodes:
        ex = trace.executions.get(node)
        if ex is None or ex.operator not in kinds:
            continue
        per_kind.setdefault(ex.operator, []).append((fan_in[node], fan_out[node]))
    values: list[float] = []
    for kind in kinds:
        rows = per_kind.get(kind, [])
        count = len(rows)
        values.append(float(count))
        values.append(sum(r[0] for r in rows) / count if count else 0.0)
        values.append(sum(r[1] for r in rows) / count if count else 0.0)
    return values


_PRODUCES = {
    OperatorKind.EXAMPLE_GEN: ArtifactType.DATA_SPAN,
    OperatorKind.STATISTICS_GEN: ArtifactType.STATISTICS,
    OperatorKind.SCHEMA_GEN: ArtifactType.SCHEMA,
    OperatorKind.EXAMPLE_VALIDATOR: ArtifactType.OTHER,
    OperatorKind.TRANSFORM: ArtifactType.TRANSFORM_GRAPH,
    OperatorKind.TRAINER: ArtifactType.MODEL,
    OperatorKind.TUNER: ArtifactType.OTHER,
    OperatorKind.EVALUATOR: ArtifactType.EVAL_RESULT,
    OperatorKind.MODEL_VALIDATOR: ArtifactType.OTHER,
    OperatorKind.PUSHER: ArtifactType.PUSH_RESULT,
    OperatorKind.CUSTOM: ArtifactType.OTHER,
}

_KIND_WEIGHTS = [
    (OperatorKind.EXAMPLE_GEN, 0.18),
    (OperatorKind.STATISTICS_GEN, 0.12),
    (OperatorKind.SCHEMA_GEN, 0.06),
    (OperatorKind.EXAMPLE_VALIDATOR, 0.06),
    (OperatorKind.TRANSFORM, 0.14),
    (OperatorKind.TRAINER, 0.18),
    (OperatorKind.TUNER, 0.04),
    (OperatorKind.EVALUATOR, 0.08),
    (OperatorKind.MODEL_VALIDATOR, 0.05),
    (OperatorKind.PUSHER, 0.06),
    (OperatorKind.CUSTOM, 0.03),
]

_TINY_SPAN = SpanStats(
    features=(
        FeatureStats(name="x", kind=FeatureKind.NUMERICAL, numerical_hist=(0.1,) * 10),
    )
)


def reference_feature_check(f: FeatureStats) -> list[str]:
    """``FeatureStats.check`` with every histogram and count rule tested
    element by element, in message order."""
    bad = []
    if not f.name:
        bad.append("feature with empty name")
    if f.kind is FeatureKind.NUMERICAL:
        if f.numerical_hist is None:
            bad.append(f"numerical feature {f.name!r} missing histogram")
        else:
            if len(f.numerical_hist) != 10:
                bad.append(f"feature {f.name!r} histogram must have 10 bins")
            if not all(math.isfinite(b) for b in f.numerical_hist):
                bad.append(f"feature {f.name!r} histogram has non-finite mass")
            elif any(b < 0 for b in f.numerical_hist):
                bad.append(f"feature {f.name!r} histogram has negative mass")
            elif abs(sum(f.numerical_hist) - 1.0) > 1e-9:
                bad.append(f"feature {f.name!r} histogram mass != 1")
        if f.cat_top10 is not None or f.cat_unique is not None or f.cat_total is not None:
            bad.append(f"numerical feature {f.name!r} carries categorical fields")
    else:
        if f.numerical_hist is not None:
            bad.append(f"categorical feature {f.name!r} carries a histogram")
        if f.cat_top10 is None or f.cat_unique is None or f.cat_total is None:
            bad.append(f"categorical feature {f.name!r} missing count fields")
        elif f.cat_unique <= 0 or f.cat_total <= 0:
            bad.append(f"feature {f.name!r} has non-positive unique/total counts")
        elif any(c <= 0 for c in f.cat_top10):
            bad.append(f"feature {f.name!r} has non-positive top-term counts")
        else:
            top_sum = sum(f.cat_top10)
            if top_sum > f.cat_total:
                bad.append(f"feature {f.name!r} top-term counts exceed total")
            elif top_sum < f.cat_total and len(f.cat_top10) == f.cat_unique:
                bad.append(f"feature {f.name!r} top-term counts do not cover the total")
            if len(f.cat_top10) > min(10, f.cat_unique):
                bad.append(f"feature {f.name!r} has too many top-term counts")
            if f.cat_unique > f.cat_total:
                bad.append(f"feature {f.name!r} unique count exceeds total")
    return bad


def reference_find_cycle(trace: Trace) -> str | None:
    """The least node id left once Kahn's algorithm, run over the edge list
    with every edge whose endpoints both exist, has peeled off every node
    that no cycle reaches; None if the graph is acyclic."""
    children: dict[str, list[str]] = {}
    indeg: dict[str, int] = {n: 0 for n in (*trace.artifacts, *trace.executions)}
    for src, dst in edge_pairs(trace):
        if src in indeg and dst in indeg:
            children.setdefault(src, []).append(dst)
            indeg[dst] += 1
    queue = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while queue:
        node = queue.pop()
        seen += 1
        for child in children.get(node, ()):
            indeg[child] -= 1
            if indeg[child] == 0:
                queue.append(child)
    if seen == len(indeg):
        return None
    return min(n for n, d in indeg.items() if d > 0)


def loop_graphlet_walks(trace: Trace, nodes: frozenset[str], anchor: str) -> dict[str, Any]:
    """A graphlet's derived fields, each from its own walk: per-group costs
    over the sorted nodes, the shape with degrees counted over the edge
    list, the push label, and the anchor's input spans and warmstart flag."""
    pairs = edge_pairs(trace)
    fan_in = Counter(dst for _, dst in pairs)
    fan_out = Counter(src for src, _ in pairs)
    costs: dict[OperatorGroup, float] = {}
    for node in sorted(nodes):
        ex = trace.executions.get(node)
        if ex is not None:
            costs[ex.group] = costs.get(ex.group, 0.0) + ex.cpu_cost
    shape: dict[OperatorKind, tuple[int, int, int]] = {}
    for node in nodes:
        ex = trace.executions.get(node)
        if ex is not None:
            count, ins, outs = shape.get(ex.operator, (0, 0, 0))
            shape[ex.operator] = (count + 1, ins + fan_in[node], outs + fan_out[node])
    pushed = any(
        node in trace.executions
        and trace.executions[node].operator is OperatorKind.PUSHER
        and trace.executions[node].state is ExecutionState.COMPLETE
        for node in nodes
    )
    inputs = [trace.artifacts[src] for src, dst in pairs
              if dst == anchor and src in trace.artifacts]
    spans = sorted(
        (a for a in inputs if a.artifact_type is ArtifactType.DATA_SPAN),
        key=lambda a: (a.created_at, a.id),
    )
    return {
        "costs": costs,
        "shape": shape,
        "pushed": pushed,
        "input_spans": tuple(a.id for a in spans),
        "warmstart": any(a.artifact_type is ArtifactType.MODEL for a in inputs),
    }


def random_trace(rng: np.random.Generator, max_execs: int = 60) -> Trace:
    """Random valid bipartite DAG with at least one trainer execution."""
    artifacts, executions, edges = random_trace_parts(rng, max_execs)
    return Trace(pipeline_id="rand", artifacts=artifacts, executions=executions, edges=edges)


def random_trace_parts(
    rng: np.random.Generator, max_execs: int = 60
) -> tuple[dict[str, Artifact], dict[str, Execution], set[tuple[str, str]]]:
    """``random_trace``'s nodes, each dict sorted by id, and its ``(src, dst)``
    edge pairs.

    Edges always flow from earlier nodes to later executions, so the result
    is acyclic by construction; warmstart-style model-into-trainer edges
    arise naturally because trainers produce model artifacts that later
    executions may consume.
    """
    kinds = [k for k, _ in _KIND_WEIGHTS]
    weights = np.array([w for _, w in _KIND_WEIGHTS])
    weights = weights / weights.sum()
    n_exec = int(rng.integers(3, max_execs + 1))
    artifacts: dict[str, Artifact] = {}
    executions: dict[str, Execution] = {}
    edges: set[tuple[str, str]] = set()
    clock = 1000
    trainer_at = int(rng.integers(0, n_exec))
    for i in range(n_exec):
        kind = kinds[int(rng.choice(len(kinds), p=weights))]
        if i == trainer_at:
            kind = OperatorKind.TRAINER
        ex_id = f"e{i:03d}"
        start = clock
        clock += int(rng.integers(1, 50))
        end = clock
        executions[ex_id] = Execution(
            id=ex_id,
            operator=kind,
            pipeline_id="rand",
            start_at=start,
            end_at=end,
            state=ExecutionState.FAILED if rng.random() < 0.08 else ExecutionState.COMPLETE,
            cpu_cost=float(rng.random() * 4.0),
            code_version=f"v{int(rng.integers(0, 3))}",
            model_type=ModelType.DNN if kind is OperatorKind.TRAINER else None,
            analyzers=None,
        )
        if artifacts:
            pool = list(artifacts)
            n_in = int(rng.integers(0, min(3, len(pool)) + 1))
            for src in rng.choice(pool, size=n_in, replace=False):
                edges.add((str(src), ex_id))
        n_out = int(rng.integers(1, 3))
        for j in range(n_out):
            art_id = f"a{i:03d}_{j}"
            a_type = _PRODUCES[kind] if j == 0 else ArtifactType.OTHER
            clock += 1
            artifacts[art_id] = Artifact(
                id=art_id,
                artifact_type=a_type,
                created_at=clock,
                pipeline_id="rand",
                span_stats=_TINY_SPAN if a_type is ArtifactType.DATA_SPAN else None,
            )
            edges.add((ex_id, art_id))
    return dict(sorted(artifacts.items())), dict(sorted(executions.items())), edges


def brute_transport_cost(cost: np.ndarray) -> float:
    """Minimum transport cost by enumerating integer tables with row sums m
    and column sums n; exact because such a vertex solution always exists."""
    n, m = cost.shape
    best = [np.inf]
    alloc = [[0] * m for _ in range(n)]

    def fill_row(i: int, col_rem: list[int]) -> None:
        if i == n:
            if all(c == 0 for c in col_rem):
                total = sum(
                    alloc[r][c] * cost[r][c] for r in range(n) for c in range(m)
                )
                best[0] = min(best[0], total)
            return

        def fill_cell(j: int, rem: int) -> None:
            if j == m:
                if rem == 0:
                    fill_row(i + 1, [col_rem[k] - alloc[i][k] for k in range(m)])
                return
            for q in range(min(rem, col_rem[j]) + 1):
                alloc[i][j] = q
                fill_cell(j + 1, rem - q)
            alloc[i][j] = 0

        fill_cell(0, m)

    fill_row(0, [n] * m)
    return best[0] / (n * m)


def brute_assignment_cost(cost: np.ndarray) -> float:
    """For n == m, the optimum is an assignment; try every permutation."""
    import itertools

    n = cost.shape[0]
    return min(
        sum(cost[i, p[i]] for i in range(n)) / n for p in itertools.permutations(range(n))
    )


def brute_span_sim_square(cost: np.ndarray) -> float:
    return 1.0 - brute_assignment_cost(cost)


def brute_confusion(records, threshold):
    tp = fp = fn = tn = 0
    fp_cost = 0.0
    for r in records:
        run = r.score >= threshold
        if r.label and run:
            tp += 1
        elif r.label:
            fn += 1
        elif run:
            fp += 1
            fp_cost += r.unpushed_cost
        else:
            tn += 1
    return tp, fp, fn, tn, fp_cost


def jensen_shannon(p: np.ndarray, q: np.ndarray) -> float:
    def entropy(x):
        x = x[x > 0]
        return float(-(x * np.log(x)).sum())

    m = (p + q) / 2.0
    return entropy(m) - (entropy(p) + entropy(q)) / 2.0


def scalar_lsh_hash(bins, params: LshParams) -> tuple[int, ...]:
    """Hash of one distribution: component j is floor((a_j . sqrt(d) + b_j) / w)."""
    directions, offsets = params.projections
    root = np.sqrt(np.asarray(bins, dtype=float))
    values = np.floor((directions @ root + offsets) / params.w)
    return tuple(int(x) for x in values)


def scalar_canonicalize(f: FeatureStats) -> CanonicalDistribution:
    """One feature's 10-cell distribution, cell by cell in scalar arithmetic.

    Categorical features are laid out over N bins of width 1/N (the sorted
    top-term frequencies, then the leftover mass as one uniform block), and
    each bin's mass is split over the cells it overlaps.
    """
    tol = 1e-9
    if f.kind is FeatureKind.NUMERICAL:
        if f.numerical_hist is None or len(f.numerical_hist) != BINS:
            raise ValueError(f"feature {f.name!r}: histogram must have {BINS} bins")
        return CanonicalDistribution(bins=tuple(float(x) for x in f.numerical_hist))

    if f.cat_unique is None or f.cat_top10 is None or f.cat_total is None:
        raise ValueError(f"feature {f.name!r}: missing categorical counts")
    n_unique, total = f.cat_unique, f.cat_total
    if n_unique <= 0:
        raise ValueError(f"feature {f.name!r}: unique term count must be positive")
    if total <= 0:
        raise ValueError(f"feature {f.name!r}: total count must be positive")

    top = sorted((c / total for c in f.cat_top10), reverse=True)
    top_mass = sum(top)
    rest_bins = n_unique - len(top)
    rest_mass = 1.0 - top_mass
    if rest_bins == 0 and abs(rest_mass) > tol:
        raise ValueError(f"feature {f.name!r}: top-term counts do not cover the total")
    if rest_mass < -tol:
        raise ValueError(f"feature {f.name!r}: top-term mass exceeds 1")

    if n_unique == BINS:
        tail = [max(rest_mass, 0.0) / rest_bins] * rest_bins if rest_bins else []
        return CanonicalDistribution(bins=tuple(top + tail))

    cells = np.zeros(BINS)
    width = 1.0 / n_unique

    def spread(lo: float, hi: float, mass: float) -> None:
        if mass <= 0.0 or hi <= lo:
            return
        density = mass / (hi - lo)
        first = min(int(lo * BINS), BINS - 1)
        last = min(int(np.nextafter(hi, 0.0) * BINS), BINS - 1)
        for c in range(first, last + 1):
            overlap = min(hi, (c + 1) / BINS) - max(lo, c / BINS)
            if overlap > 0:
                cells[c] += density * overlap

    for i, mass in enumerate(top):
        spread(i * width, (i + 1) * width, mass)
    if rest_bins > 0:
        spread(len(top) * width, 1.0, rest_mass)

    out = cells.sum()
    if abs(out - 1.0) > tol:
        raise ValueError(f"feature {f.name!r}: mass not conserved ({out})")
    cells /= out
    return CanonicalDistribution(bins=tuple(float(x) for x in cells))


def loop_best_split(
    XT: np.ndarray, y: np.ndarray, idx: np.ndarray, n1: int, feats: np.ndarray,
    min_leaf: int, w0: float, w1: float,
) -> tuple[int, float] | None:
    """Best split of rows ``idx`` over the sorted candidate features ``feats``,
    scanning them one by one.

    It keeps the first strictly better score, so ties go to the lower feature
    index, then the lower threshold.
    """
    n = len(idx)
    best: tuple[float, int, float] | None = None
    yi = y[idx]
    for f in feats:
        vals = XT[f, idx]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        cum1 = np.cumsum(yi[order])
        cut = np.nonzero(sv[1:] != sv[:-1])[0]
        if len(cut) == 0:
            continue
        keep = (cut + 1 >= min_leaf) & (n - cut - 1 >= min_leaf)
        cut = cut[keep]
        if len(cut) == 0:
            continue
        nl1 = cum1[cut]
        nl0 = cut + 1 - nl1
        nr1 = n1 - nl1
        nr0 = (n - n1) - nl0
        wl = w1 * nl1 + w0 * nl0
        wr = w1 * nr1 + w0 * nr0
        score_arr = (wl - ((w1 * nl1) ** 2 + (w0 * nl0) ** 2) / wl) + (
            wr - ((w1 * nr1) ** 2 + (w0 * nr0) ** 2) / wr
        )
        k = int(np.argmin(score_arr))
        cand = float(score_arr[k])
        if best is None or cand < best[0]:
            pos = int(cut[k])
            below, above = float(sv[pos]), float(sv[pos + 1])
            mid = (below + above) / 2.0
            if not math.isfinite(mid):  # the sum overflowed
                mid = below / 2.0 + above / 2.0
            best = (cand, int(f), mid)
    if best is None:
        return None
    return best[1], best[2]


def reference_fit(
    X: np.ndarray, y: np.ndarray, cfg: ForestConfig, feature_names=None
) -> forest.Forest:
    """``forest.fit`` rebuilt recursively around ``loop_best_split``.

    It shares no tree-building code with the library: each node counts its
    own rows and positives, the rows split by ``value <= threshold``, a split
    numbers both children before growing either, and one tree grows fully
    before the next, visiting node, left subtree, right subtree: the order in
    which each tree draws its nodes' candidate features from its own
    generator.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=bool)
    n, d = X.shape
    n1 = int(y.sum())
    w1 = n / (2.0 * n1) if n1 else 1.0
    w0 = n / (2.0 * (n - n1)) if n - n1 else 1.0
    mtry = math.isqrt(d - 1) + 1  # ceil(sqrt(d))
    XT = X.T.copy()
    trees = []
    for t in range(cfg.n_trees):
        rng = np.random.default_rng(forest.splitmix64(cfg.seed + t))
        sample = rng.integers(0, n, size=n)
        nodes: list[dict[str, Any]] = []

        def leaf(idx: np.ndarray) -> int:
            pos = w1 * int(y[idx].sum())
            neg = w0 * int((~y[idx]).sum())
            nodes.append({"feature": -1, "threshold": 0.0, "left": -1, "right": -1,
                          "fraction": pos / (pos + neg) if pos + neg > 0 else 0.0,
                          "count": len(idx)})
            return len(nodes) - 1

        def grow(node: int, idx: np.ndarray, depth: int) -> None:
            pure = y[idx].all() or not y[idx].any()
            if depth >= cfg.max_depth or pure or len(idx) < 2 * cfg.min_leaf:
                return
            feats = np.sort(rng.choice(d, size=min(mtry, d), replace=False))
            split = loop_best_split(XT, y, idx, int(y[idx].sum()), feats, cfg.min_leaf, w0, w1)
            if split is None:
                return
            f, thr = split
            mask = X[idx, f] <= thr
            # Both children get their ids before either subtree grows.
            left, right = leaf(idx[mask]), leaf(idx[~mask])
            nodes[node].update(feature=f, threshold=thr, left=left, right=right)
            grow(left, idx[mask], depth + 1)
            grow(right, idx[~mask], depth + 1)

        grow(leaf(sample), sample, 0)
        trees.append(forest._checked_tree({key: [nd[key] for nd in nodes] for key in nodes[0]}, d))
    names = None if feature_names is None else tuple(feature_names)
    return forest.Forest(cfg, trees, d, (w0, w1), names)


def loop_scores(model: forest.Forest, X: np.ndarray) -> np.ndarray:
    """``forest.scores`` one tree at a time: walk every row down the tree,
    then add that tree's leaf fractions to the running total."""
    X = np.asarray(X, dtype=float)
    total = np.zeros(len(X))
    for tree in model.trees:
        node = np.zeros(len(X), dtype=np.int64)
        active = tree.feature[node] >= 0
        while active.any():
            rows = np.nonzero(active)[0]
            cur = node[rows]
            go_left = X[rows, tree.feature[cur]] <= tree.threshold[cur]
            node[rows] = np.where(go_left, tree.left[cur], tree.right[cur])
            active = tree.feature[node] >= 0
        total += tree.fraction[node]
    return total / len(model.trees)


def span_stats_payload(stats: SpanStats) -> dict[str, Any]:
    feats = []
    for f in stats.features:
        if f.kind is FeatureKind.NUMERICAL:
            hist = list(f.numerical_hist or ())
            feats.append({"name": f.name, "type": f.kind.value, "hist": hist})
        else:
            feats.append(
                {
                    "name": f.name,
                    "type": f.kind.value,
                    "top10": list(f.cat_top10 or ()),
                    "unique": f.cat_unique,
                    "total": f.cat_total,
                }
            )
    return {"features": feats}


def load_traces(directory: str | Path) -> list[Trace]:
    """Every trace file of a corpus directory parsed, in file name order,
    into one list; the first malformed file raises."""
    return [parse_trace_file(path) for path in sorted(Path(directory).glob("*.ndjson"))]


def serialize_trace(trace: Trace) -> Iterator[str]:
    """Yield the trace as newline-delimited records in a canonical order."""
    for art in trace.artifacts.values():
        props: dict[str, Any] = {}
        if art.span_stats is not None:
            props["span_stats"] = span_stats_payload(art.span_stats)
        record = {
            "kind": "artifact",
            "id": art.id,
            "type": art.artifact_type.value,
            "created_at": art.created_at,
            "pipeline_id": art.pipeline_id,
            "properties": props,
        }
        yield json.dumps(record, sort_keys=True)
    for ex in trace.executions.values():
        props = {}
        if ex.code_version is not None:
            props["code_version"] = ex.code_version
        if ex.model_type is not None:
            props["model_type"] = ex.model_type.value
        if ex.architecture is not None:
            props["architecture"] = ex.architecture
        if ex.analyzers is not None:
            props["analyzers"] = [a.value for a in ex.analyzers]
        record = {
            "kind": "execution",
            "id": ex.id,
            "operator": ex.operator.value,
            "pipeline_id": ex.pipeline_id,
            "start_at": ex.start_at,
            "end_at": ex.end_at,
            "state": ex.state.value,
            "cpu_cost": ex.cpu_cost,
            "properties": props,
        }
        yield json.dumps(record, sort_keys=True)
    for src, dst in edge_pairs(trace):
        role = EdgeRole.INPUT if src in trace.artifacts else EdgeRole.OUTPUT
        yield json.dumps(
            {"kind": "edge", "from": src, "to": dst, "role": role.value}, sort_keys=True
        )



def _ref_enum(value: Any, enum_cls: type, what: str, line: int) -> Any:
    try:
        return enum_cls(value)
    except (ValueError, KeyError):
        raise TraceParseError(f"unknown {what}: {value!r}", line) from None


def _ref_timestamp(record: dict[str, Any], key: str, line: int) -> int:
    value = record.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceParseError(f"missing or non-integer timestamp {key!r}", line)
    if not -(2**63) <= value < 2**63:
        raise TraceParseError(f"timestamp {key!r} is out of signed 64-bit range", line)
    return value


def _ref_span_stats(payload: Any, line: int) -> SpanStats:
    if not isinstance(payload, dict):
        raise TraceParseError("span_stats must be an object", line)
    raw = payload.get("features")
    if not isinstance(raw, list):
        raise TraceParseError("span_stats must contain a feature list", line)
    feats = []
    for entry in raw:
        if not isinstance(entry, dict) or "name" not in entry or "type" not in entry:
            raise TraceParseError("span_stats feature missing name/type", line)
        kind = _ref_enum(entry["type"], FeatureKind, "feature type", line)
        if kind is FeatureKind.NUMERICAL:
            hist = entry.get("hist")
            if not isinstance(hist, list):
                raise TraceParseError(f"numerical feature {entry['name']!r} missing hist", line)
            try:
                numerical_hist = tuple(float(x) for x in hist)
            except (TypeError, ValueError, OverflowError):
                raise TraceParseError(
                    f"numerical feature {entry['name']!r} hist must hold numbers", line
                ) from None
            feats.append(
                FeatureStats(name=str(entry["name"]), kind=kind, numerical_hist=numerical_hist)
            )
        else:
            try:
                feats.append(
                    FeatureStats(
                        name=str(entry["name"]),
                        kind=kind,
                        cat_top10=tuple(int(c) for c in entry["top10"]),
                        cat_unique=int(entry["unique"]),
                        cat_total=int(entry["total"]),
                    )
                )
            except (KeyError, TypeError, ValueError, OverflowError):
                raise TraceParseError(
                    f"categorical feature {entry.get('name')!r} missing top10/unique/total", line
                ) from None
    return SpanStats(features=tuple(feats))


def _ref_artifact(record: dict[str, Any], line: int) -> Artifact:
    node_id = record.get("id")
    if not node_id or not isinstance(node_id, str):
        raise TraceParseError("artifact missing id", line)
    props = record.get("properties") or {}
    if not isinstance(props, dict):
        raise TraceParseError("artifact properties must be an object", line)
    stats = None
    if "span_stats" in props and props["span_stats"] is not None:
        stats = _ref_span_stats(props["span_stats"], line)
    return Artifact(
        id=node_id,
        artifact_type=_ref_enum(record.get("type"), ArtifactType, "artifact type", line),
        created_at=_ref_timestamp(record, "created_at", line),
        pipeline_id=str(record.get("pipeline_id", "")),
        span_stats=stats,
    )


def _ref_execution(record: dict[str, Any], line: int) -> Execution:
    node_id = record.get("id")
    if not node_id or not isinstance(node_id, str):
        raise TraceParseError("execution missing id", line)
    props = record.get("properties") or {}
    if not isinstance(props, dict):
        raise TraceParseError("execution properties must be an object", line)
    cost = record.get("cpu_cost", 0.0)
    if not isinstance(cost, (int, float)) or isinstance(cost, bool):
        raise TraceParseError("cpu_cost must be a number", line)
    try:
        cost = float(cost)
    except OverflowError:
        raise TraceParseError("cpu_cost is out of float range", line) from None
    model_type = props.get("model_type")
    analyzers = props.get("analyzers")
    if analyzers is not None and not isinstance(analyzers, list):
        raise TraceParseError("analyzers must be a list", line)
    return Execution(
        id=node_id,
        operator=_ref_enum(record.get("operator"), OperatorKind, "operator", line),
        pipeline_id=str(record.get("pipeline_id", "")),
        start_at=_ref_timestamp(record, "start_at", line),
        end_at=_ref_timestamp(record, "end_at", line),
        state=_ref_enum(record.get("state"), ExecutionState, "execution state", line),
        cpu_cost=cost,
        code_version=None if props.get("code_version") is None else str(props["code_version"]),
        model_type=None
        if model_type is None
        else _ref_enum(model_type, ModelType, "model type", line),
        architecture=None if props.get("architecture") is None else str(props["architecture"]),
        analyzers=None
        if analyzers is None
        else tuple(_ref_enum(a, Analyzer, "analyzer", line) for a in analyzers),
    )


def reference_parse_trace(lines: Iterable[str]) -> Trace:
    """``parse_trace`` one record at a time: each line through ``json.loads``,
    each enum looked up by calling its class, each edge a ``(src, dst, role)``
    tuple checked in file order, its pair deduplicated in a set.

    Unlike the library it coerces ill-typed fields: a non-string
    ``pipeline_id``, feature name, ``code_version`` or ``architecture`` goes
    through ``str``, counts through ``int``, histogram entries through
    ``float``, and a falsy non-object ``properties`` reads as ``{}``.
    """
    artifacts: dict[str, Artifact] = {}
    executions: dict[str, Execution] = {}
    raw_edges: list[tuple[str, str, EdgeRole, int]] = []
    pipeline_id: str | None = None

    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text:
            continue
        try:
            record = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise TraceParseError(f"invalid JSON ({getattr(exc, 'msg', exc)})", line_no) from None
        if not isinstance(record, dict):
            raise TraceParseError("record must be a JSON object", line_no)
        kind = record.get("kind")
        if kind == "artifact":
            node = _ref_artifact(record, line_no)
        elif kind == "execution":
            node = _ref_execution(record, line_no)
        elif kind == "edge":
            src, dst = record.get("from"), record.get("to")
            if not isinstance(src, str) or not isinstance(dst, str):
                raise TraceParseError("edge missing from/to", line_no)
            role = _ref_enum(record.get("role"), EdgeRole, "edge role", line_no)
            raw_edges.append((src, dst, role, line_no))
            continue
        else:
            raise TraceParseError(f"unknown record kind: {kind!r}", line_no)

        if node.id in artifacts or node.id in executions:
            raise TraceParseError(f"duplicate node id {node.id!r}", line_no)
        if pipeline_id is None:
            pipeline_id = node.pipeline_id
        elif node.pipeline_id != pipeline_id:
            raise TraceParseError(
                f"conflicting pipeline_id {node.pipeline_id!r} (file is {pipeline_id!r})", line_no
            )
        if kind == "artifact":
            artifacts[node.id] = node
        else:
            executions[node.id] = node

    edges: set[tuple[str, str]] = set()
    for src, dst, role, line_no in raw_edges:
        for endpoint in (src, dst):
            if endpoint not in artifacts and endpoint not in executions:
                raise TraceParseError(f"edge endpoint {endpoint!r} does not exist", line_no)
        if role is EdgeRole.INPUT:
            ok = src in artifacts and dst in executions
        else:
            ok = src in executions and dst in artifacts
        if not ok:
            raise TraceParseError(
                f"edge {src!r}->{dst!r} role violates bipartite orientation", line_no
            )
        edges.add((src, dst))

    if pipeline_id is None:
        raise TraceParseError("no node records")
    return Trace(
        pipeline_id=pipeline_id,
        artifacts=dict(sorted(artifacts.items())),
        executions=dict(sorted(executions.items())),
        edges=edges,
    )

def load_truth(path: str | Path) -> PlantedTruth:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if payload.get("format") != "graphlets-truth-v1":
        raise ValueError("unrecognized truth file format")
    entries = [
        TruthEntry(
            pipeline_id=e["pipeline_id"],
            anchor=e["anchor"],
            p=float(e["p"]),
            label=bool(e["label"]),
            cost=float(e["cost"]),
            warmstart=bool(e["warmstart"]),
        )
        for e in payload["entries"]
    ]
    return PlantedTruth(
        entries=entries,
        bayes_balanced_accuracy=float(payload["bayes_balanced_accuracy"]),
        oracle_elimination=float(payload["oracle_elimination"]),
        push_rate=float(payload["push_rate"]),
    )


def sample_latent_probabilities(cfg: GenConfig, n: int, seed: int = 0) -> np.ndarray:
    """Monte-Carlo draws from the planted push process, without building
    traces; used to cross-check corpus-derived Bayes references.

    The window drift/richness exposures are binomial means, matching the
    i.i.d. per-span flags the trace generator plants.
    """
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0xBA1E5, seed])
    push = cfg.push
    mix_names = sorted(cfg.model_mix)
    mix_probs = np.array([cfg.model_mix[k] for k in mix_names])
    types = rng.choice(len(mix_names), size=n, p=mix_probs / mix_probs.sum())
    windows = rng.choice(
        [cfg.window - 1, cfg.window, cfg.window + 1], size=n, p=[0.2, 0.6, 0.2]
    )
    windows = np.maximum(1, windows)
    exposure = rng.binomial(windows, cfg.drift_rate) / windows
    rich_exposure = rng.binomial(windows, cfg.rich_rate) / windows
    code_changed = (rng.random(n) > cfg.code_stability).astype(float)
    has_val = rng.random(n) < push.validator_rate

    base = np.array([push.base_logit[name] for name in mix_names])
    logit = base[types]
    logit = logit + push.signal * (
        push.drift_weight * exposure
        + push.rich_weight * rich_exposure
        + push.size_weight * (windows - cfg.window)
    )
    logit = logit + push.code_weight * code_changed
    if push.hard_validator_gate:
        p = np.where(has_val, 1.0 / (1.0 + np.exp(-logit)), 0.0)
    else:
        logit = np.where(has_val, logit, logit + push.no_validator_shift)
        p = 1.0 / (1.0 + np.exp(-logit))
    return p


class _RefPipelineBuild:
    """All records of one generated pipeline plus its planted truth rows."""

    def __init__(self, pipeline_id: str):
        self.pipeline_id = pipeline_id
        self.records: list[dict[str, Any]] = []
        # execution id -> (group, raw cost); costs get calibrated corpus-wide.
        self.exec_costs: dict[str, tuple[OperatorGroup, float]] = {}
        # anchor -> (p, label, member execution ids)
        self.graphlets: list[tuple[str, float, bool, list[str]]] = []
        self.warmstart: bool = False

    def artifact(self, node_id: str, a_type: str, created_at: int, stats=None) -> str:
        props: dict[str, Any] = {}
        if stats is not None:
            props["span_stats"] = {"features": stats}
        self.records.append(
            {
                "kind": "artifact",
                "id": node_id,
                "type": a_type,
                "created_at": created_at,
                "pipeline_id": self.pipeline_id,
                "properties": props,
            }
        )
        return node_id

    def execution(
        self,
        node_id: str,
        operator: str,
        start_at: int,
        end_at: int,
        raw_cost: float,
        state: str = "complete",
        **props: Any,
    ) -> str:
        self.records.append(
            {
                "kind": "execution",
                "id": node_id,
                "operator": operator,
                "pipeline_id": self.pipeline_id,
                "start_at": start_at,
                "end_at": end_at,
                "state": state,
                "cpu_cost": raw_cost,
                "properties": {k: v for k, v in props.items() if v is not None},
            }
        )
        self.exec_costs[node_id] = (OPERATOR_GROUPS[OperatorKind(operator)], raw_cost)
        return node_id

    def edge(self, src: str, dst: str, role: str) -> None:
        self.records.append({"kind": "edge", "from": src, "to": dst, "role": role})


def reference_gen_pipeline(cfg: GenConfig, idx: int) -> _RefPipelineBuild:
    """The pipeline generator as it was before each operator run became one
    ``_PipelineBuild.run`` call: every run writes its execution, artifact and
    edges by hand.  ``synth._gen_pipeline`` must give the same records, costs,
    graphlets and warmstart flag, so every corpus byte stays the same."""
    rng = np.random.default_rng([cfg.seed & 0xFFFFFFFFFFFFFFFF, 0x5EED, idx])
    pid = f"pipe{idx:04d}"
    build = _RefPipelineBuild(pid)

    mix_names = sorted(cfg.model_mix)
    mix_probs = np.array([cfg.model_mix[k] for k in mix_names])
    model_type = str(rng.choice(mix_names, p=mix_probs / mix_probs.sum()))
    architecture = (
        str(rng.choice(ARCHITECTURES)) if model_type in ("dnn", "dnn_linear") else None
    )
    build.warmstart = bool(rng.random() < cfg.warmstart_fraction)
    lo, hi = cfg.graphlets_per_pipeline
    n_graphlets = int(rng.integers(lo, hi + 1))
    state = _PipelineState(rng, cfg)

    cursor = 1_600_000_000_000 + idx * MS_PER_HOUR
    code_version = 0
    prev_code = 0
    spans: list[str] = []
    drift_flags: list[bool] = []
    rich_flags: list[bool] = []
    # per-span analysis executions, for graphlet cost accounting
    span_exec_ids: list[list[str]] = []
    prev_model: str | None = None
    prev_post_execs: list[str] = []

    def cost(mult: float = 1.0) -> float:
        return float(rng.gamma(6.0) / 6.0) * mult

    for t in range(n_graphlets):
        tag = f"{t:04d}"
        drifted = bool(rng.random() < cfg.drift_rate)
        rich = bool(rng.random() < cfg.rich_rate)
        state.step(drifted)

        eg_start = cursor
        eg_end = eg_start + int(rng.integers(5, 30)) * _MS_MIN
        eg = build.execution(f"{pid}-eg-{tag}", "example_gen", eg_start, eg_end, cost())
        span = build.artifact(f"{pid}-span-{tag}", "data_span", eg_end, stats=state.span_features())
        build.edge(eg, span, "output")

        sg_end = eg_end + int(rng.integers(2, 12)) * _MS_MIN
        sg = build.execution(f"{pid}-sg-{tag}", "statistics_gen", eg_end, sg_end, cost())
        stats_art = build.artifact(f"{pid}-stats-{tag}", "statistics", sg_end)
        build.edge(span, sg, "input")
        build.edge(sg, stats_art, "output")

        span_execs = [eg, sg]
        if rich:
            sc_end = sg_end + int(rng.integers(1, 6)) * _MS_MIN
            sc = build.execution(f"{pid}-scg-{tag}", "schema_gen", sg_end, sc_end, cost())
            schema_art = build.artifact(f"{pid}-schema-{tag}", "schema", sc_end)
            build.edge(stats_art, sc, "input")
            build.edge(sc, schema_art, "output")
            xv_end = sc_end + int(rng.integers(1, 6)) * _MS_MIN
            xv = build.execution(f"{pid}-exv-{tag}", "example_validator", sc_end, xv_end, cost())
            anomalies = build.artifact(f"{pid}-anom-{tag}", "other", xv_end)
            build.edge(stats_art, xv, "input")
            build.edge(schema_art, xv, "input")
            build.edge(xv, anomalies, "output")
            span_execs += [sc, xv]

        spans.append(span)
        drift_flags.append(drifted)
        rich_flags.append(rich)
        span_exec_ids.append(span_execs)

        window_draw = int(rng.choice([cfg.window - 1, cfg.window, cfg.window + 1], p=[0.2, 0.6, 0.2]))
        length = max(1, min(window_draw, t + 1))
        window_idx = range(t - length + 1, t + 1)
        window_spans = spans[t - length + 1 : t + 1]

        tf_start = sg_end
        tf_end = tf_start + int(rng.integers(10, 60)) * _MS_MIN
        analyzer_pool = ["vocabulary", "min", "max", "mean", "variance", "custom"]
        n_analyzers = int(rng.integers(1, 5))
        analyzers = sorted(rng.choice(analyzer_pool, size=n_analyzers, replace=False).tolist())
        tf = build.execution(
            f"{pid}-tf-{tag}", "transform", tf_start, tf_end, cost(), analyzers=analyzers
        )
        tg = build.artifact(f"{pid}-tg-{tag}", "transform_graph", tf_end)
        for s in window_spans:
            build.edge(s, tf, "input")
        build.edge(tf, tg, "output")

        if rng.random() > cfg.code_stability:
            code_version += 1
        code_changed = 1.0 if (t > 0 and code_version != prev_code) else 0.0
        prev_code = code_version

        has_validators = bool(rng.random() < cfg.push.validator_rate)
        exposure = float(np.mean([drift_flags[i] for i in window_idx]))
        rich_exposure = float(np.mean([rich_flags[i] for i in window_idx]))
        p = cfg.push.probability(
            model_type=model_type,
            drift_exposure=exposure,
            rich_exposure=rich_exposure,
            size=float(length - cfg.window),
            code_changed=code_changed,
            has_validators=has_validators,
        )
        label = bool(rng.random() < p)

        tr_start = tf_end
        tr_end = tr_start + int(rng.lognormal(np.log(4.0), 0.5) * MS_PER_HOUR)
        trainer = build.execution(
            f"{pid}-tr-{tag}",
            "trainer",
            tr_start,
            tr_end,
            cost(1.0 if label else 1.15),
            model_type=model_type,
            architecture=architecture,
            code_version=f"v{code_version}",
        )
        model_art = build.artifact(f"{pid}-model-{tag}", "model", tr_end)
        for s in window_spans:
            build.edge(s, trainer, "input")
        build.edge(tg, trainer, "input")
        if build.warmstart and prev_model is not None:
            build.edge(prev_model, trainer, "input")
        build.edge(trainer, model_art, "output")

        members = [tf, trainer]
        for i in window_idx:
            members += span_exec_ids[i]
        if build.warmstart and prev_model is not None:
            # Consuming the previous model drags its post-trainer executions in.
            members += prev_post_execs

        post_execs: list[str] = []
        end_of_graphlet = tr_end
        if has_validators:
            ev_end = tr_end + int(rng.integers(5, 25)) * _MS_MIN
            ev = build.execution(f"{pid}-ev-{tag}", "evaluator", tr_end, ev_end, cost())
            eval_art = build.artifact(f"{pid}-eval-{tag}", "eval_result", ev_end)
            build.edge(model_art, ev, "input")
            build.edge(ev, eval_art, "output")
            mv_end = ev_end + int(rng.integers(1, 10)) * _MS_MIN
            mv = build.execution(f"{pid}-mv-{tag}", "model_validator", ev_end, mv_end, cost())
            blessing = build.artifact(f"{pid}-bless-{tag}", "other", mv_end)
            build.edge(eval_art, mv, "input")
            build.edge(mv, blessing, "output")
            post_execs += [ev, mv]
            end_of_graphlet = mv_end

        if label:
            push_end = end_of_graphlet + int(rng.integers(1, 6)) * _MS_MIN
            push = build.execution(
                f"{pid}-push-{tag}", "pusher", end_of_graphlet, push_end, cost()
            )
            push_art = build.artifact(f"{pid}-pushres-{tag}", "push_result", push_end)
            build.edge(model_art, push, "input")
            build.edge(push, push_art, "output")
            post_execs.append(push)
            end_of_graphlet = push_end
        elif has_validators and rng.random() < cfg.failed_pusher_rate:
            push_end = end_of_graphlet + int(rng.integers(1, 6)) * _MS_MIN
            push = build.execution(
                f"{pid}-push-{tag}", "pusher", end_of_graphlet, push_end, cost(),
                state="failed",
            )
            build.edge(model_art, push, "input")
            post_execs.append(push)
            end_of_graphlet = push_end

        members += post_execs
        build.graphlets.append((trainer, p, label, members))

        prev_model = model_art
        prev_post_execs = post_execs
        gap = int(rng.lognormal(np.log(14.0), 0.6) * MS_PER_HOUR)
        cursor = end_of_graphlet + gap

    return build



def transport_plan(cost: np.ndarray) -> tuple[np.ndarray, float]:
    """Optimal plan (row sums 1/n, column sums 1/m) and its cost, from the
    library's simplex; a single row or column splits uniformly."""
    cost = transport._check(cost)
    n, m = cost.shape
    if n == 1 or m == 1:
        return np.full((n, m), 1.0 / (n * m)), float(cost.mean())
    flow, total = transport._solve(cost)
    plan = np.zeros((n, m))
    for (i, j), q in flow.items():
        plan[i, j] = q / (n * m)
    return plan, total / (n * m)


def loop_transport_cost(cost: np.ndarray) -> float:
    """Minimum transport cost of one problem, a square certificate read off
    a permutation: the row argmins if distinct, else a perfect matching on
    row-minimum cells, else one on column-minimum cells, costed as the mean
    of its cells in row order.  Without one, the library's simplex runs."""
    cost = transport._check(cost)
    n, m = cost.shape
    if n == 1 or m == 1:
        return float(cost.mean())
    if n == m:
        perm = cost.argmin(axis=1)
        if len(set(perm.tolist())) < n:
            perm = transport._perfect_matching(cost == cost.min(axis=1, keepdims=True))
        if perm is None:
            perm = transport._perfect_matching(cost == cost.min(axis=0))
        if perm is not None:
            return float(cost[np.arange(n), perm].mean())
    _, total = transport._solve(cost)
    return total / (n * m)


def certify_transport(cost: np.ndarray, flow: dict[tuple[int, int], int], total: float) -> None:
    """Assert that ``flow`` is an optimal basic plan of ``cost`` at the
    solver's integer scale (row sums m, column sums n) and ``total`` its cost.

    The potentials come from the basic cells alone, by a linear solve with
    ``u[0] = 0``, so nothing of the solver's walk is reused.  Dual
    feasibility in every cell plus a dual value equal to ``total`` proves
    the plan optimal at any size (weak duality)."""
    n, m = cost.shape
    assert all(type(q) is int and q >= 0 for q in flow.values()), flow
    plan = np.zeros((n, m), dtype=np.int64)
    for (i, j), q in flow.items():
        plan[i, j] = q
    assert (plan.sum(axis=1) == m).all() and (plan.sum(axis=0) == n).all()
    assert len(flow) == n + m - 1
    system = np.zeros((n + m, n + m))
    rhs = np.zeros(n + m)
    for row, (i, j) in enumerate(flow):
        system[row, i] = system[row, n + j] = 1.0
        rhs[row] = cost[i, j]
    system[-1, 0] = 1.0  # u[0] = 0; singular unless the basis spans a tree
    pot = np.linalg.solve(system, rhs)
    u, v = pot[:n], pot[n:]
    assert (cost - u[:, None] - v[None, :] >= -1e-9).all()
    assert abs(u.sum() / n + v.sum() / m - total / (n * m)) <= 1e-9


# The reference simplex's pricing tolerance, the solver's ``_EPS``.
_REF_EPS = 1e-11


def _ref_northwest_basis(n: int, m: int) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]]]:
    supply = [m] * n
    demand = [n] * m
    flow: dict[tuple[int, int], int] = {}
    basis: list[tuple[int, int]] = []
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        flow[(i, j)] = q
        basis.append((i, j))
        supply[i] -= q
        demand[j] -= q
        if i == n - 1 and j == m - 1:
            break
        if supply[i] == 0 and demand[j] == 0:
            # Degenerate step: advance one index only, leaving a zero-flow
            # basic cell so the basis stays a spanning tree.
            if j < m - 1:
                j += 1
            else:
                i += 1
        elif supply[i] == 0:
            i += 1
        else:
            j += 1
    return flow, basis


def _ref_potentials(basis: list[tuple[int, int]], cost: np.ndarray, n: int, m: int):
    row_adj: list[list[int]] = [[] for _ in range(n)]
    col_adj: list[list[int]] = [[] for _ in range(m)]
    for i, j in basis:
        row_adj[i].append(j)
        col_adj[j].append(i)
    u = np.full(n, np.nan)
    v = np.full(m, np.nan)
    u[0] = 0.0
    stack: list[tuple[str, int]] = [("r", 0)]
    while stack:
        side, k = stack.pop()
        if side == "r":
            for j in row_adj[k]:
                if np.isnan(v[j]):
                    v[j] = cost[k, j] - u[k]
                    stack.append(("c", j))
        else:
            for i in col_adj[k]:
                if np.isnan(u[i]):
                    u[i] = cost[i, k] - v[k]
                    stack.append(("r", i))
    if np.isnan(u).any() or np.isnan(v).any():
        raise transport.TransportError("basis graph is not a spanning tree")
    return u, v


def _ref_entering(cost, u, v, basis, bland: bool):
    reduced = cost - u[:, None] - v[None, :]
    for i, j in basis:
        reduced[i, j] = 0.0
    if bland:
        rows, cols = np.nonzero(reduced < -_REF_EPS)
        if len(rows) == 0:
            return None
        return int(rows[0]), int(cols[0])
    k = int(np.argmin(reduced))
    i, j = divmod(k, reduced.shape[1])
    if reduced[i, j] >= -_REF_EPS:
        return None
    return i, j


def _ref_cycle(basis: list[tuple[int, int]], enter: tuple[int, int]) -> list[tuple[int, int]]:
    """Unique alternating cycle formed by the entering cell and the basis tree."""
    row_adj: dict[int, list[int]] = {}
    col_adj: dict[int, list[int]] = {}
    for i, j in basis:
        row_adj.setdefault(i, []).append(j)
        col_adj.setdefault(j, []).append(i)
    start, goal = enter
    # BFS from row `start` to column `goal` over basis edges.
    parent: dict[tuple[str, int], tuple[str, int]] = {}
    frontier: list[tuple[str, int]] = [("r", start)]
    seen = {("r", start)}
    found = False
    while frontier and not found:
        nxt: list[tuple[str, int]] = []
        for side, k in frontier:
            neighbors = row_adj.get(k, ()) if side == "r" else col_adj.get(k, ())
            other = "c" if side == "r" else "r"
            for nb in neighbors:
                node = (other, nb)
                if node in seen:
                    continue
                seen.add(node)
                parent[node] = (side, k)
                if node == ("c", goal):
                    found = True
                    break
                nxt.append(node)
            if found:
                break
        frontier = nxt
    if not found:
        raise transport.TransportError("entering cell is disconnected from the basis tree")
    path_nodes = [("c", goal)]
    while path_nodes[-1] != ("r", start):
        path_nodes.append(parent[path_nodes[-1]])
    path_nodes.reverse()
    cells = []
    for a, b in zip(path_nodes, path_nodes[1:]):
        (sa, ka), (sb, kb) = a, b
        cells.append((ka, kb) if sa == "r" else (kb, ka))
    return [enter] + cells[::-1]


def reference_solve(cost: np.ndarray) -> tuple[dict[tuple[int, int], int], float]:
    """The transportation simplex as it was before it kept its tree: each
    pivot rebuilds the potentials from the basis list and finds the cycle by
    a BFS over the whole basis.  ``transport._solve`` must return the same
    flow items in the same order and a bit-identical total."""
    n, m = cost.shape
    flow, basis = _ref_northwest_basis(n, m)
    bland_after = 2 * n * m + 16
    max_pivots = 50 * n * m + 1000
    for pivot in range(max_pivots):
        u, v = _ref_potentials(basis, cost, n, m)
        enter = _ref_entering(cost, u, v, basis, bland=pivot > bland_after)
        if enter is None:
            total = sum(q * float(cost[i, j]) for (i, j), q in flow.items() if q)
            return flow, total
        cycle = _ref_cycle(basis, enter)
        givers = cycle[1::2]
        theta = min(flow[c] for c in givers)
        leave = next(c for c in givers if flow[c] == theta)
        flow[enter] = 0
        for idx, cell in enumerate(cycle):
            flow[cell] += theta if idx % 2 == 0 else -theta
        basis = [c for c in basis if c != leave] + [enter]
        del flow[leave]
    raise transport.TransportError(f"no convergence after {max_pivots} pivots")


def loop_span_sim(d1: SpanStats, d2: SpanStats, params: LshParams, weights: SimWeights) -> float:
    """``span_sim`` one pair at a time: each span hashed on its own, the
    pair put in the order of its (names, kinds, hashes) keys, and its cost
    matrix filled cell by cell."""
    if not d1.features or not d2.features:
        return 0.0
    if max(len(d1.features), len(d2.features)) > transport.MAX_SIDE:
        raise ValueError(f"span feature count exceeds {transport.MAX_SIDE}")
    keys = []
    for d in (d1, d2):
        hashes = hash_distributions(_canonical_bins(d.features), params).tolist()
        keys.append((tuple(f.name for f in d.features), tuple(f.kind.value for f in d.features),
                     tuple(map(tuple, hashes))))
    if keys[0] > keys[1]:
        keys.reverse()
    (names1, kinds1, hashes1), (names2, kinds2, hashes2) = keys
    cost = np.array([
        [1.0 - (weights.alpha * float(h1 == h2) + weights.beta * float(n1 == n2))
         if k1 == k2 else 1.0
         for n2, k2, h2 in zip(names2, kinds2, hashes2)]
        for n1, k1, h1 in zip(names1, kinds1, hashes1)
    ])
    return min(1.0, max(0.0, 1.0 - loop_transport_cost(cost)))


def loop_graphlet_similarities(
    trace: Trace, pairs, params: LshParams, weights: SimWeights
) -> list[tuple[float, float, float]]:
    """``graphlet_similarities`` with nothing batched: each pair aligns its two
    graphlets' spans and takes every span pair through ``loop_span_sim``,
    memoized by span ids."""
    def spans(x: Graphlet) -> list[str]:
        return [s for s in x.input_spans if trace.artifacts[s].span_stats is not None]

    @functools.cache
    def span_sim(x: str, y: str) -> float:
        stats = trace.artifacts
        return loop_span_sim(stats[x].span_stats, stats[y].span_stats, params, weights)

    results = []
    for g, prev in pairs:
        a, b = spans(g), spans(prev)
        dataset = 0.0
        if a and b:
            dataset = sum(span_sim(a[i], b[i]) for i in range(min(len(a), len(b))))
            dataset /= max(len(a), len(b))
        code = 1.0 if g.trainer_code_version == prev.trainer_code_version else 0.0
        results.append((jaccard(g, prev), dataset, code))
    return results


Corpus = list[tuple[Trace, list[Graphlet]]]


def _reference_row(
    featurizer: Featurizer, g: Graphlet, trace: Trace, predecessors: list[Graphlet]
) -> list[float]:
    """One validation-stage row in schema order, the model one-hots first."""
    row = [1.0 if g.model_type is mt else 0.0 for mt in ModelType]
    hot = [0.0] * (len(featurizer.arch_vocab) + 1)
    if g.architecture:
        if g.architecture in featurizer.arch_vocab:
            hot[featurizer.arch_vocab.index(g.architecture)] = 1.0
        else:
            hot[-1] = 1.0
    row += hot
    row += featurizer.history_features(loop_graphlet_similarities(
        trace, [(g, p) for p in predecessors], featurizer.lsh, featurizer.weights))
    for kinds in (PRE_TRAINER_KINDS, TRAINER_KINDS, POST_TRAINER_KINDS):
        row += featurizer.shape_features(g, kinds)
    return row


def reference_arch_vocab(corpus: Corpus) -> tuple[str, ...]:
    """The architecture vocabulary counted over a list-held corpus."""
    counts: dict[str, int] = {}
    for _, graphlets in corpus:
        for g in graphlets:
            if g.architecture:
                counts[g.architecture] = counts.get(g.architecture, 0) + 1
    keep = sorted(counts, key=lambda a: (-counts[a], a))[:ARCH_VOCAB_CAP]
    return tuple(sorted(keep))


def reference_featurize(corpus: Corpus, featurizer: Featurizer) -> CorpusFeatures:
    """Every graphlet of a list-held corpus featurized row by row, whole
    rows (model columns included) built while each trace is at hand."""
    rows: list[list[float]] = []
    labels: list[bool] = []
    costs: dict = {stage: [] for stage in STAGES}
    pipeline_ids: list[str] = []
    anchors: list[str] = []
    model_types: list[str] = []
    total_costs: list[float] = []
    for trace, graphlets in corpus:
        for pos, g in enumerate(graphlets):
            predecessors = graphlets[max(0, pos - featurizer.window.w): pos][::-1]
            rows.append(_reference_row(featurizer, g, trace, predecessors))
            labels.append(g.pushed)
            for stage in STAGES:
                costs[stage].append(featurizer.stage_cost(g, stage))
            pipeline_ids.append(g.pipeline_id)
            anchors.append(g.anchor)
            model_types.append(g.model_type.value)
            total_costs.append(g.total_cost)
    X = np.asarray(rows, dtype=float) if rows else np.zeros((0, len(featurizer.full_names())))
    return CorpusFeatures(
        featurizer=featurizer,
        names=featurizer.full_names(),
        X=X,
        y=np.asarray(labels, dtype=bool),
        stage_costs={stage: np.asarray(v, dtype=float) for stage, v in costs.items()},
        pipeline_ids=pipeline_ids,
        anchors=anchors,
        model_types=model_types,
        total_costs=total_costs,
    )


def reference_cost_breakdown(traces: Iterable[Trace]) -> dict[OperatorGroup, float]:
    """Fraction of total compute per operator group, summed over every
    execution of every trace in one loop."""
    totals: dict[OperatorGroup, float] = {}
    for trace in traces:
        for ex in trace.executions.values():
            totals[ex.group] = totals.get(ex.group, 0.0) + ex.cpu_cost
    grand = sum(totals.values())
    if grand <= 0.0:
        raise ValueError("corpus has no compute cost to break down")
    return {group: cost / grand for group, cost in totals.items()}


def reference_cadence_stats(corpus: Corpus) -> dict[str, Any]:
    """Every ``CadenceStats`` measurement of a list-held corpus, by name."""
    stats: dict[str, Any] = {
        "hours_between_all": [],
        "hours_between_pushed": [],
        "graphlets_between_pushes": [],
        "duration_hours": [],
        "trainer_cpu_by_label": {"pushed": [], "unpushed": []},
    }
    type_counts: dict[ModelType, list[int]] = {}
    for trace, graphlets in corpus:
        for a, b in zip(graphlets, graphlets[1:]):
            stats["hours_between_all"].append((b.trainer_end_at - a.trainer_end_at) / MS_PER_HOUR)
        pushed = [g for g in graphlets if g.pushed]
        for a, b in zip(pushed, pushed[1:]):
            stats["hours_between_pushed"].append(
                (b.trainer_end_at - a.trainer_end_at) / MS_PER_HOUR
            )
        positions = [i for i, g in enumerate(graphlets) if g.pushed]
        for p, q in zip(positions, positions[1:]):
            stats["graphlets_between_pushes"].append(q - p - 1)
        for g in graphlets:
            starts = [trace.executions[n].start_at for n in g.nodes if n in trace.executions]
            if starts:
                stats["duration_hours"].append((g.trainer_end_at - min(starts)) / MS_PER_HOUR)
            label = "pushed" if g.pushed else "unpushed"
            stats["trainer_cpu_by_label"][label].append(trace.executions[g.anchor].cpu_cost)
            seen = type_counts.setdefault(g.model_type, [0, 0])
            seen[0] += 1
            seen[1] += int(g.pushed)
    stats["push_rate_by_model_type"] = {
        mt: pushed / total for mt, (total, pushed) in sorted(type_counts.items()) if total
    }
    return stats
