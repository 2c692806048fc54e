"""Exact optimal transport between uniform marginals.

Solves min_P sum_ij P_ij * C_ij over plans P with row sums 1/n and column
sums 1/m.

Square problems first try a certificate.  Every row ships 1/n, so any plan
costs at least the mean of the row minima, and likewise of the column
minima.  A permutation whose cells all attain their row minimum (or all
their column minimum) meets that lower bound and is therefore optimal.  If
the row-minimum cells admit a perfect matching (Kuhn's augmenting paths),
the cost is the mean of the row minima in row order, whichever matching is
found; otherwise, if the column-minimum cells do, it is the mean of that
matching's cells in row order.

Otherwise the classic transportation simplex runs (northwest-corner start,
potentials, cycle pivots).  Marginals are scaled to integers internally
(supply m per row, demand n per column) so flows stay exact; only the costs
are floating point.

``transport_costs`` takes a block of same-shape problems.  One-row and
one-column problems are plain means.  In a square block, one greedy pass
over the rows (each takes its first row-minimum column not yet taken) runs
for every problem at once; where it completes, a row-minimum matching exists
and the cost is the mean of the row minima.  This covers distinct row
argmins.  Every other problem goes to ``transport_cost`` alone.  Each result
is bit for bit what ``transport_cost`` returns for that matrix.

Cost matrices larger than ``MAX_SIDE`` (256) on either side are rejected:
span feature sets beyond that size are outside this library's operating
range and should fail loudly rather than silently degrade.  Validation
rejects such a span first (``SpanStats.check`` reads the same bound).
"""

from __future__ import annotations

import numpy as np

__all__ = ["TransportError", "transport_cost", "transport_costs"]

MAX_SIDE = 256
_EPS = 1e-11


class TransportError(RuntimeError):
    """The solver failed to converge; balanced uniform marginals are always
    feasible, so this indicates a defect rather than a bad input."""


def _northwest_basis(n: int, m: int) -> tuple[dict[tuple[int, int], int], list[tuple[int, int]]]:
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


def _potentials(basis: list[tuple[int, int]], cost: np.ndarray, n: int, m: int):
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
        raise TransportError("basis graph is not a spanning tree")
    return u, v


def _entering(cost, u, v, basis, bland: bool):
    reduced = cost - u[:, None] - v[None, :]
    for i, j in basis:
        reduced[i, j] = 0.0
    if bland:
        rows, cols = np.nonzero(reduced < -_EPS)
        if len(rows) == 0:
            return None
        return int(rows[0]), int(cols[0])
    k = int(np.argmin(reduced))
    i, j = divmod(k, reduced.shape[1])
    if reduced[i, j] >= -_EPS:
        return None
    return i, j


def _cycle(basis: list[tuple[int, int]], enter: tuple[int, int]) -> list[tuple[int, int]]:
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
        raise TransportError("entering cell is disconnected from the basis tree")
    path_nodes = [("c", goal)]
    while path_nodes[-1] != ("r", start):
        path_nodes.append(parent[path_nodes[-1]])
    path_nodes.reverse()
    cells = []
    for a, b in zip(path_nodes, path_nodes[1:]):
        (sa, ka), (sb, kb) = a, b
        cells.append((ka, kb) if sa == "r" else (kb, ka))
    return [enter] + cells[::-1]


def _solve(cost: np.ndarray) -> tuple[dict[tuple[int, int], int], float]:
    n, m = cost.shape
    flow, basis = _northwest_basis(n, m)
    bland_after = 2 * n * m + 16
    max_pivots = 50 * n * m + 1000
    for pivot in range(max_pivots):
        u, v = _potentials(basis, cost, n, m)
        enter = _entering(cost, u, v, basis, bland=pivot > bland_after)
        if enter is None:
            total = sum(q * float(cost[i, j]) for (i, j), q in flow.items() if q)
            return flow, total
        cycle = _cycle(basis, enter)
        givers = cycle[1::2]
        theta = min(flow[c] for c in givers)
        leave = next(c for c in givers if flow[c] == theta)
        flow[enter] = 0
        for idx, cell in enumerate(cycle):
            flow[cell] += theta if idx % 2 == 0 else -theta
        basis = [c for c in basis if c != leave] + [enter]
        del flow[leave]
    raise TransportError(f"no convergence after {max_pivots} pivots")


def _perfect_matching(tight: np.ndarray) -> np.ndarray | None:
    """Column of each row in a perfect matching on the True cells of a square
    boolean matrix, or None; Kuhn's augmenting paths, searched iteratively."""
    n = tight.shape[0]
    if not tight.any(axis=0).all() or not tight.any(axis=1).all():
        return None
    adj: list[list[int]] = [[] for _ in range(n)]
    rows, cols = np.nonzero(tight)
    for row, col in zip(rows.tolist(), cols.tolist()):
        adj[row].append(col)
    row_of = [-1] * n  # column -> matched row
    col_of = [-1] * n  # row -> matched column
    for root in range(n):
        via = [-1] * n  # column -> the row whose search reached it
        stack = [iter(adj[root])]
        rows = [root]
        free = -1
        while stack and free < 0:
            for col in stack[-1]:
                if via[col] < 0:
                    via[col] = rows[-1]
                    if row_of[col] < 0:
                        free = col
                    else:
                        rows.append(row_of[col])
                        stack.append(iter(adj[row_of[col]]))
                    break
            else:
                stack.pop()
                rows.pop()
        if free < 0:
            return None
        while free >= 0:  # flip the path back to the root
            row = via[free]
            row_of[free], col_of[row], free = row, free, col_of[row]
    return np.array(col_of)


def _greedy_matched(tight: np.ndarray) -> np.ndarray:
    """For each square boolean matrix of a block, whether taking its rows in
    order, each on its first True column not yet taken, matches every row."""
    p, n, _ = tight.shape
    problems = np.arange(p)
    free = np.ones((p, n), dtype=bool)
    matched = np.ones(p, dtype=bool)
    for row in range(n):
        open_cells = tight[:, row] & free
        col = open_cells.argmax(axis=1)
        matched &= open_cells[problems, col]
        free[problems, col] = False
    return matched


def _check(cost: np.ndarray, ndim: int = 2) -> np.ndarray:
    """``cost`` as floats: ``ndim`` axes, the last two a non-empty matrix."""
    cost = np.asarray(cost, dtype=float)
    if cost.ndim != ndim or cost.shape[-2] == 0 or cost.shape[-1] == 0:
        raise ValueError(f"cost matrix must be non-empty and {ndim}-dimensional")
    n, m = cost.shape[-2:]
    if n > MAX_SIDE or m > MAX_SIDE:
        raise ValueError(f"cost matrix side exceeds {MAX_SIDE}: {n}x{m}")
    if not np.isfinite(cost).all():
        raise ValueError("cost matrix contains non-finite entries")
    return cost


def transport_cost(cost: np.ndarray) -> float:
    """Exact minimum transport cost between uniform marginals 1/n and 1/m."""
    cost = _check(cost)
    n, m = cost.shape
    if n == 1 or m == 1:
        return float(cost.mean())
    if n == m:
        row_min = cost.min(axis=1)
        if _perfect_matching(cost == row_min[:, None]) is not None:
            return float(row_min.mean())
        perm = _perfect_matching(cost == cost.min(axis=0))
        if perm is not None:
            return float(cost[np.arange(n), perm].mean())
    _, total = _solve(cost)
    return total / (n * m)


def transport_costs(costs: np.ndarray) -> np.ndarray:
    """``transport_cost`` of each matrix of a (problems, n, m) block."""
    costs = _check(costs, ndim=3)
    p, n, m = costs.shape
    if n == 1 or m == 1:
        return costs.reshape(p, n * m).mean(axis=1)
    if n == m:
        row_min = costs.min(axis=2)
        out = row_min.mean(axis=1)
        rest = np.flatnonzero(~_greedy_matched(costs == row_min[:, :, None]))
    else:
        out = np.empty(p)
        rest = np.arange(p)
    for k in rest.tolist():
        out[k] = transport_cost(costs[k])
    return out
