"""Property-based checks of the assignment and exact redistribution solvers
against their brute-force oracles."""

from fractions import Fraction

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from parcost import (AssignmentProblem, CostMatrix, DrpInstance,  # noqa: E402
                     TransferMatrix, drp_brute, drp_cost, drp_solve_approx,
                     drp_solve_exact, lap_brute, lap_solve, ratio_bound)


@st.composite
def assignment_problems(draw, max_p=7):
    """Square matrices with many tied optima: integer weights in a range of
    0 to 3 (so all-zero matrices too) or fractions with mixed denominators."""
    p = draw(st.integers(1, max_p))
    top = draw(st.integers(0, 3))
    if draw(st.booleans()):
        weight = st.integers(0, top)
    else:
        weight = st.builds(Fraction, st.integers(0, top), st.sampled_from((1, 2, 3)))
    return AssignmentProblem([[draw(weight) for _ in range(p)] for _ in range(p)])


@settings(max_examples=300, deadline=None)
@given(assignment_problems())
def test_lap_solve_matches_brute_mapping_and_cost(prob):
    assert lap_solve(prob) == lap_brute(prob)


@st.composite
def drp_instances(draw, max_p=7):
    """Small instances biased towards ties: link costs in [1, 3] or all equal,
    and some rows and columns carrying no mass at all."""
    p = draw(st.integers(2, max_p))
    empty_rows = draw(st.sets(st.integers(0, p - 1), max_size=p))
    empty_cols = draw(st.sets(st.integers(0, p - 1), max_size=p))
    mass = st.integers(0, draw(st.sampled_from((1, 2, 20))))
    transfer = [[0 if i in empty_rows or j in empty_cols else draw(mass)
                 for j in range(p)] for i in range(p)]
    if draw(st.booleans()):
        link = st.just(draw(st.integers(1, 3)))
    else:
        link = st.integers(1, 3)
    cost = [[0 if i == j else draw(link) for j in range(p)] for i in range(p)]
    return DrpInstance(TransferMatrix(transfer), CostMatrix(cost))


@settings(max_examples=150, deadline=None)
@given(drp_instances())
def test_exact_matches_brute_mapping_and_cost(inst):
    assert drp_solve_exact(inst) == drp_brute(inst)


@settings(deadline=None)
@given(drp_instances(max_p=12))
def test_exact_cost_is_the_mappings_cost(inst):
    assignment, cost = drp_solve_exact(inst)
    assert cost == drp_cost(inst.transfer, inst.cost, assignment)


@settings(deadline=None)
@given(drp_instances(max_p=12))
def test_exact_le_approx_le_bound_times_exact(inst):
    _, exact = drp_solve_exact(inst)
    _, approx = drp_solve_approx(inst)
    assert exact <= approx <= ratio_bound(inst.cost) * exact
