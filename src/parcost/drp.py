"""The data redistribution problem: exact and approximate solvers, ratio
bound, and the reduction from tours of a complete bipartite graph.

The objective decomposes per virtual machine, so the exact solver is one
linear assignment problem, solved by the Hungarian method in O(p^3); the
p! enumeration survives only as the guarded oracle ``drp_brute``. The
approximation ignores the cost matrix entirely, solves the unit-cost
assignment surrogate on the transfer matrix alone, and reports that
assignment's true cost; its cost is never less than the optimum and, when
local data is free, never more than max/min link cost times the optimum.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from operator import mul

from .constants import ORACLE_LIMIT
from .core import (Assignment, CostMatrix, DrpInstance, Rational, TransferMatrix,
                   TspFbInstance, as_exact, drp_cost)
from .errors import GuardError, InstanceError

# The solvers and drp_brute import lap in their bodies, so reduce-tspfb does
# not load it.

DEFAULT_TOUR_LIMIT = 6


def _assignment_weights(inst: DrpInstance) -> list[list[Rational]]:
    """Collapse the objective per virtual machine, in ``lap``'s layout.

    w[k][j] = sum_i transfer[i][j] * cost[i][k], the dot product of transfer
    column j and cost column k, is the cost of hosting virtual machine j on
    physical machine k, so any assignment's total cost is just
    sum_j w[mapping[j]][j].
    """
    columns = list(zip(*inst.transfer.entries))
    return [[sum(map(mul, column, costs)) for column in columns]
            for costs in zip(*inst.cost.entries)]


def drp_solve_exact(inst: DrpInstance) -> tuple[Assignment, Rational]:
    """Minimum-cost assignment, lexicographically smallest among optima.

    The collapsed weights turn the problem into a linear assignment
    problem, solved by the Hungarian method in O(p^3) with the same
    tie-break as ``drp_brute``.
    """
    from .lap import AssignmentProblem, lap_solve

    return lap_solve(AssignmentProblem(_assignment_weights(inst)))


def drp_solve_approx(inst: DrpInstance) -> tuple[Assignment, Rational]:
    """Polynomial approximation: assignment from the unit-cost surrogate.

    Solves the linear assignment problem built from the transfer matrix
    alone and prices the resulting assignment with the real cost matrix.
    """
    from .lap import drp_to_lap, lap_solve

    assignment, _ = lap_solve(drp_to_lap(inst.transfer))
    return assignment, drp_cost(inst.transfer, inst.cost, assignment)


def ratio_bound(cost: CostMatrix) -> Rational | None:
    """Worst-case approximation factor: max over min off-diagonal cost, or
    None where local data is not free (a diagonal entry is not zero)."""
    if any(row[i] for i, row in enumerate(cost.entries)):
        return None
    off = cost.off_diagonal()
    return as_exact(Fraction(max(off), min(off)))


def _tour_columns(n: int) -> tuple[tuple[int, int], ...]:
    """Column pair carrying mass in each row of the reduction's transfer matrix.

    The pairs describe a bipartite position graph (rows vs columns) that must
    form one alternating cycle through all 2n positions; that is what makes
    every assignment of the reduced instance trace a Hamiltonian tour.

    Odd n steps by two, which visits every position exactly once. Even n
    needs the two end rows rewired: row 1 bridges the descending odd chain
    into column 2, and row 2 must bridge column 1 to column 4 -- pairing
    row 2 with column n instead would give column n three incident rows and
    column 4 none for n >= 6. At n = 4 both wirings coincide.
    """
    if n % 2 == 1:
        return tuple((1 + (i + 1) % n, 1 + (i - 1) % n) for i in range(1, n + 1))
    pairs: list[tuple[int, int]] = []
    for i in range(1, n + 1):
        if i == 1:
            pairs.append((2, n - 1))
        elif i == 2:
            pairs.append((1, 4))
        elif i % 2 == 1:
            pairs.append((i, i - 2))
        else:
            pairs.append((i, 2 if i == n else i + 2))
    return tuple(pairs)


def tspfb_to_drp(tour: TspFbInstance) -> DrpInstance:
    """Encode a bipartite tour instance as a redistribution instance.

    The transfer matrix is 0/1 with exactly two ones per row and per column,
    arranged as a single alternating cycle; the cost matrix is the weight
    matrix verbatim, positive diagonal included. Every assignment of the
    result traces a Hamiltonian tour whose weight equals the assignment's
    cost.
    """
    n = tour.n
    if n < 3:
        raise InstanceError(f"the reduction needs n >= 3, got n={n}")
    transfer = [[0] * n for _ in range(n)]
    column_degree = [0] * n
    for i, (a, b) in enumerate(_tour_columns(n)):
        transfer[i][a - 1] = 1
        transfer[i][b - 1] = 1
        column_degree[a - 1] += 1
        column_degree[b - 1] += 1
    assert all(d == 2 for d in column_degree), "position graph must be 2-regular"
    cost = CostMatrix(tour.weights)
    return DrpInstance(TransferMatrix(tuple(tuple(r) for r in transfer)), cost)


def drp_brute(inst: DrpInstance,
              max_p: int = ORACLE_LIMIT) -> tuple[Assignment, Rational]:
    """Exhaustive minimum over all p! assignments; oracle for drp_solve_exact.

    ``lap_brute`` enumerates the collapsed weights in lexicographic mapping
    order with strict improvement, so the returned mapping is the smallest
    optimal one. The guard is checked here, before the O(p^3) collapse.
    """
    p = inst.p
    if p > max_p:
        raise GuardError(
            f"p={p} exceeds the exhaustive-search guard {max_p} (p! enumeration)")
    from .lap import AssignmentProblem, lap_brute

    return lap_brute(AssignmentProblem(_assignment_weights(inst)), max_p)


def tspfb_brute(tour: TspFbInstance,
                max_n: int = DEFAULT_TOUR_LIMIT) -> Rational:
    """Minimum weight over all Hamiltonian cycles of K_{n,n}, by enumeration.

    Cycles alternate sides, so each is a pair of vertex orders: left vertices
    with vertex 1 pinned first (cycles are rotation-invariant) and right
    vertices in the gaps. Enumerates n! * (n-1)! sequences.
    """
    n = tour.n
    if n > max_n:
        raise GuardError(
            f"n={n} exceeds the tour enumeration guard {max_n} (n!*(n-1)! cycles)")
    w = tour.weights
    best: Rational | None = None
    for left_rest in permutations(range(2, n + 1)):
        left = (1,) + left_rest
        for right in permutations(range(1, n + 1)):
            weight: Rational = 0
            for k in range(n):
                weight += w[left[k] - 1][right[k] - 1]
                weight += w[left[(k + 1) % n] - 1][right[k] - 1]
            if best is None or weight < best:
                best = weight
    assert best is not None
    return as_exact(best)
