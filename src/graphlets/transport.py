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

Otherwise the classic transportation simplex runs from the northwest
corner, with the flow dict's keys as its basis.  Each pivot walks the basis
tree once, for the potentials and each node's parent and depth, and finds
the entering cell's cycle by walking both its ends up to their common
ancestor (Ahuja, Magnanti and Orlin, *Network Flows*, ch. 11).  Marginals
are scaled to integers internally (supply m per row, demand n per column)
so flows stay exact; only the costs are floating point.

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


def _northwest_flow(n: int, m: int) -> dict[tuple[int, int], int]:
    """The northwest-corner start: each basic cell's flow, in basis order."""
    supply = [m] * n
    demand = [n] * m
    flow: dict[tuple[int, int], int] = {}
    i = j = 0
    while True:
        q = min(supply[i], demand[j])
        flow[(i, j)] = q
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
    return flow


def _tree(basis, cost_rows: list[list[float]], n: int, m: int):
    """Potentials ``u``, ``v`` of the basis tree rooted at row 0, with each
    node's ``parent`` and ``depth``; rows are nodes ``0..n-1``, columns
    ``n..n+m-1``.  A potential is summed along its node's tree path, so the
    walk's order cannot change its bits."""
    adj: list[list[tuple[int, float]]] = [[] for _ in range(n + m)]
    for i, j in basis:
        adj[i].append((n + j, cost_rows[i][j]))
        adj[n + j].append((i, cost_rows[i][j]))
    pot = [0.0] * (n + m)
    parent = [-1] * (n + m)
    depth = [-1] * (n + m)
    depth[0] = 0
    stack = [0]
    while stack:
        k = stack.pop()
        for nb, c in adj[k]:
            if depth[nb] < 0:
                parent[nb] = k
                depth[nb] = depth[k] + 1
                pot[nb] = c - pot[k]
                stack.append(nb)
    if -1 in depth:
        raise TransportError("basis graph is not a spanning tree")
    return np.array(pot[:n]), np.array(pot[n:]), parent, depth


def _entering(cost, u, v, basis, bland: bool):
    reduced = cost - u[:, None] - v[None, :]
    reduced[tuple(zip(*basis))] = 0.0
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


def _cycle(parent: list[int], depth: list[int], enter: tuple[int, int], n: int):
    """The entering cell, then the tree path from its column back to its
    row: both ends walk up to their common ancestor."""
    a, b = n + enter[1], enter[0]
    head: list[tuple[int, int]] = []
    tail: list[tuple[int, int]] = []
    while a != b:
        if depth[a] >= depth[b]:
            head.append((min(a, parent[a]), max(a, parent[a]) - n))
            a = parent[a]
        else:
            tail.append((min(b, parent[b]), max(b, parent[b]) - n))
            b = parent[b]
    return [enter] + head + tail[::-1]


def _solve(cost: np.ndarray) -> tuple[dict[tuple[int, int], int], float]:
    """The optimal basic flows, keyed by cell in basis order, and their
    total cost at the integer scale."""
    n, m = cost.shape
    cost_rows = cost.tolist()
    flow = _northwest_flow(n, m)
    bland_after = 2 * n * m + 16
    max_pivots = 50 * n * m + 1000
    for pivot in range(max_pivots):
        u, v, parent, depth = _tree(flow, cost_rows, n, m)
        enter = _entering(cost, u, v, flow, bland=pivot > bland_after)
        if enter is None:
            total = sum(q * cost_rows[i][j] for (i, j), q in flow.items() if q)
            return flow, total
        cycle = _cycle(parent, depth, enter, n)
        givers = cycle[1::2]
        theta = min(flow[c] for c in givers)
        leave = next(c for c in givers if flow[c] == theta)
        flow[enter] = 0
        for idx, cell in enumerate(cycle):
            flow[cell] += theta if idx % 2 == 0 else -theta
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
