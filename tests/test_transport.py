from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    brute_assignment_cost,
    brute_transport_cost,
    loop_transport_cost,
    transport_plan,
)

from graphlets import transport
from graphlets.transport import transport_cost, transport_costs


def test_rejects_empty_and_oversized():
    with pytest.raises(ValueError):
        transport_cost(np.zeros((0, 3)))
    with pytest.raises(ValueError):
        transport_cost(np.zeros((257, 2)))
    with pytest.raises(ValueError):
        transport_cost(np.array([[np.nan]]))


def test_single_row_splits_uniformly():
    cost = np.array([[0.2, 0.8]])
    assert transport_cost(cost) == pytest.approx(0.5)


def test_zero_diagonal_is_free():
    n = 6
    cost = 1.0 - np.eye(n)
    assert transport_cost(cost) == pytest.approx(0.0, abs=1e-12)


def test_matches_brute_force_for_all_small_shapes():
    rng = np.random.default_rng(123)
    for n in range(1, 5):
        for m in range(1, 5):
            for _ in range(12):
                cost = rng.random((n, m))
                assert transport_cost(cost) == pytest.approx(
                    brute_transport_cost(cost), abs=1e-9
                )


def test_matches_brute_force_on_tied_costs():
    # the metric's cost matrices only take a handful of values, which makes
    # the simplex maximally degenerate
    rng = np.random.default_rng(5)
    levels = np.array([0.0, 0.5, 0.5, 1.0])
    for n in range(2, 5):
        for m in range(2, 5):
            for _ in range(15):
                cost = rng.choice(levels, size=(n, m))
                assert transport_cost(cost) == pytest.approx(
                    brute_transport_cost(cost), abs=1e-9
                )


def _brute_square(cost: np.ndarray) -> float:
    # Table enumeration gets slow beyond 3 x 3; a square optimum is always
    # attained at a permutation (Birkhoff), so larger sides use the
    # assignment oracle.
    n = cost.shape[0]
    return brute_transport_cost(cost) if n <= 3 else brute_assignment_cost(cost)


def test_square_matches_brute_force_on_levels_and_floats():
    rng = np.random.default_rng(11)
    for n in range(2, 7):
        for _ in range(30):
            # At the metric's default weights every cost is 0, 1/2 or 1:
            # every plan sum is exact, so the value is too.
            tied = rng.choice(np.array([0.0, 0.5, 1.0]), size=(n, n))
            assert transport_cost(tied) == _brute_square(tied)
            floats = rng.random((n, n))
            assert transport_cost(floats) == pytest.approx(_brute_square(floats), abs=1e-12)


def test_perfect_matching_agrees_with_permutation_search():
    rng = np.random.default_rng(13)
    for _ in range(400):
        n = int(rng.integers(2, 7))
        tight = rng.random((n, n)) < rng.uniform(0.15, 0.6)
        exists = any(
            all(tight[i, p[i]] for i in range(n)) for p in itertools.permutations(range(n))
        )
        match = transport._perfect_matching(tight)
        assert (match is not None) == exists
        if match is not None:
            assert sorted(match.tolist()) == list(range(n))
            assert tight[np.arange(n), match].all()


def _counting_solve(monkeypatch) -> list:
    calls = []
    solve = transport._solve

    def counted(cost):
        calls.append(cost.shape)
        return solve(cost)

    monkeypatch.setattr(transport, "_solve", counted)
    return calls


@pytest.mark.parametrize(
    "cost, value",
    [
        ([[0.0, 1.0, 1.0], [1.0, 0.0, 1.0], [1.0, 1.0, 0.0]], 0.0),  # row argmins
        ([[0.0, 0.0], [0.0, 1.0]], 0.0),  # a matching on the row-minimum cells
        ([[0.0, 1.0], [0.0, 5.0]], 0.5),  # only on the column-minimum cells
    ],
)
def test_square_tight_matching_skips_the_simplex(cost, value, monkeypatch):
    calls = _counting_solve(monkeypatch)
    cost = np.array(cost)
    assert transport_cost(cost) == value == brute_transport_cost(cost)
    assert calls == []


def test_square_without_tight_matching_runs_the_simplex(monkeypatch):
    # Rows 0 and 1 both have their minimum only in column 0; columns 1 and 2
    # both have theirs only in row 2.  Neither set of cells holds a
    # permutation, so no lower bound is met and the simplex must decide.
    calls = _counting_solve(monkeypatch)
    cost = np.array([[0.0, 5.0, 5.0], [0.0, 5.0, 5.0], [3.0, 1.0, 1.0]])
    assert transport_cost(cost) == pytest.approx(2.0, abs=1e-12)
    assert transport_cost(cost) == pytest.approx(brute_transport_cost(cost), abs=1e-12)
    assert calls == [(3, 3), (3, 3)]


def test_plan_satisfies_marginals():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n, m = int(rng.integers(1, 40)), int(rng.integers(1, 40))
        plan, value = transport_plan(rng.random((n, m)))
        assert np.allclose(plan.sum(axis=1), 1.0 / n, atol=1e-12)
        assert np.allclose(plan.sum(axis=0), 1.0 / m, atol=1e-12)
        assert plan.min() >= 0.0
        assert value >= 0.0


def test_large_instance_runs():
    rng = np.random.default_rng(1)
    cost = rng.random((120, 80))
    value = transport_cost(cost)
    assert 0.0 <= value <= 1.0


# -- transport_costs: blocks of one shape --------------------------------------


@st.composite
def cost_blocks(draw):
    """A (problems, n, m) block on the metric's tied levels or on floats."""
    n = draw(st.integers(1, 5))
    m = draw(st.sampled_from([n, n, draw(st.integers(1, 5))]))
    p = draw(st.integers(1, 6))
    levels = draw(st.sampled_from([(0.0, 0.5, 1.0), (0.0, 0.3, 0.7, 1.0), None]))
    if levels is None:
        cell = st.floats(0.0, 1.0, allow_nan=False)
    else:
        cell = st.sampled_from(levels)
    cells = draw(st.lists(cell, min_size=p * n * m, max_size=p * n * m))
    return np.array(cells).reshape(p, n, m)


@settings(max_examples=300, deadline=None)
@given(cost_blocks())
def test_block_matches_per_problem_oracle_bitwise(block):
    got = transport_costs(block)
    expected = np.array([loop_transport_cost(c) for c in block])
    assert got.tobytes() == expected.tobytes()
    assert got.tobytes() == np.array([transport_cost(c) for c in block]).tobytes()
    n, m = block.shape[1:]
    for c, value in zip(block, got):
        brute = brute_transport_cost(c) if n * m <= 9 else (
            brute_assignment_cost(c) if n == m else None)
        if brute is not None:
            assert value == pytest.approx(brute, abs=1e-12)


def _counted(monkeypatch, name):
    calls = []
    fn = getattr(transport, name)

    def wrapper(*args):
        result = fn(*args)
        calls.append(result is not None)
        return result

    monkeypatch.setattr(transport, name, wrapper)
    return calls


def test_block_takes_each_certificate_in_turn(monkeypatch):
    block = np.array([
        [[0.0, 1.0], [1.0, 0.5]],  # distinct row argmins: settled in bulk
        [[0.5, 1.0], [0.5, 0.5]],  # argmins collide, the greedy pass still matches
        [[0.5, 0.5], [0.5, 1.0]],  # the greedy pass fails; Kuhn finds a row matching
        [[0.5, 1.0], [0.5, 1.0]],  # only a column-minimum matching
    ])
    three = np.array([[[0.0, 0.5, 1.0], [0.5, 1.0, 1.0], [0.5, 1.0, 1.0]]])  # neither
    matchings = _counted(monkeypatch, "_perfect_matching")
    solves = _counted(monkeypatch, "_solve")
    assert transport_costs(block).tolist() == [0.25, 0.5, 0.5, 0.75]
    assert matchings == [True, False, True]  # pair 2: row; pair 3: row, then column
    assert solves == []
    assert transport_costs(three).tolist() == [brute_assignment_cost(three[0])]
    assert matchings[3:] == [False, False] and solves == [True]


def test_block_sends_unequal_sides_to_the_simplex(monkeypatch):
    solves = _counted(monkeypatch, "_solve")
    rng = np.random.default_rng(3)
    block = rng.choice(np.array([0.0, 0.5, 1.0]), size=(4, 2, 3))
    got = transport_costs(block)
    assert len(solves) == 4
    assert got.tolist() == [brute_transport_cost(c) for c in block]
    one_row = rng.random((3, 1, 4))
    one_col = rng.random((3, 4, 1))
    assert transport_costs(one_row).tolist() == [float(c.mean()) for c in one_row]
    assert transport_costs(one_col).tolist() == [float(c.mean()) for c in one_col]
    assert len(solves) == 4


def test_block_rejects_what_one_problem_rejects():
    for bad in (np.zeros((2, 0, 3)), np.zeros((1, 257, 257)), np.full((1, 2, 2), np.inf),
                np.zeros((2, 2))):
        with pytest.raises(ValueError):
            transport_costs(bad)
