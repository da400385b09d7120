"""Exact linear assignment on a square weight matrix, plus a brute-force oracle.

Both solvers share one tie-break rule: among all minimum-cost assignments
they return the lexicographically smallest mapping, so equivalence tests can
compare mappings and not just costs. The polynomial solver runs the Hungarian
method once on the plain integer weights, then enforces the rule from the
optimal duals: every optimal assignment uses only tight edges, and a column-
by-column pass over them picks the lexicographically smallest one.
"""

from __future__ import annotations

import math
from itertools import permutations
from typing import Sequence

from .constants import ORACLE_LIMIT
from .core import (Assignment, Rational, TransferMatrix, Value,
                   _check_non_negative, _exact_square, as_exact)
from .errors import GuardError, InstanceError


class AssignmentProblem(Value):
    """A p-by-p matrix of non-negative weights.

    ``weights[i-1][j-1]`` is the cost of hosting virtual machine j on
    physical machine i; an assignment's cost is the sum of its p chosen
    entries, one per column.
    """

    __slots__ = _fields = ("weights",)

    def __init__(self, weights: Sequence[Sequence[Rational]]) -> None:
        weights = _exact_square(weights, "assignment problem", min_p=1)
        _check_non_negative(weights, "weights")
        super().__init__(weights)

    @property
    def p(self) -> int:
        return len(self.weights)


def assignment_cost(prob: AssignmentProblem, assignment: Assignment) -> Rational:
    """Sum of weights[mapping[j]][j] over all columns j."""
    if assignment.p != prob.p:
        raise InstanceError(
            f"dimension mismatch: problem p={prob.p}, assignment p={assignment.p}")
    return as_exact(sum(prob.weights[assignment.mapping[j] - 1][j]
                        for j in range(prob.p)))


def _integer_weights(weights: Sequence[Sequence[Rational]]) -> Sequence[Sequence[int]]:
    """Scale a rational matrix by the LCM of denominators to integers."""
    scale = math.lcm(*{value.denominator for row in weights for value in row})
    if scale == 1:
        return weights
    return [[int(value * scale) for value in row] for row in weights]


def _hungarian(cost: Sequence[Sequence[int]]) -> tuple[list[int], list[int], list[int]]:
    """Shortest-augmenting-path Hungarian method on an integer matrix.

    Returns ``(col_to_row, u, v)``: the row matched to each column (0-based)
    and optimal duals with ``cost[i][j] >= u[i] + v[j]`` everywhere and
    equality on every matched edge. O(p^3) steps on plain Python integers.

    The start is the reduction of Jonker and Volgenant (Computing, 1987):
    ``v[j]`` is column j's minimum, and the column takes the first row that
    attains it if that row is still free; each row left unmatched then gets
    ``u[i]`` as its smallest reduced cost and takes the first free column
    tight on it. The duals are feasible and every matched edge is tight, so
    only the rows still unmatched need an augmenting phase.

    Each phase adds one row and grows a Dijkstra tree over the columns. The
    dual updates of a phase are deferred: ``minv`` holds reduced distances
    offset by ``dist``, the length of the tree so far, and every column that
    joins the tree records ``dist`` at that moment, so only the free columns
    are scanned per step and the tree's duals are settled once at the end.
    """
    n = len(cost)
    inf = math.inf
    u = [0] * n
    v = [0] * (n + 1)  # column n is each phase's root
    match = [-1] * (n + 1)  # match[j] = row currently assigned to column j
    way = [0] * (n + 1)
    taken = [False] * n  # taken[i]: row i is matched
    for j, column in enumerate(zip(*cost)):
        v[j] = low = min(column)
        i = column.index(low)
        if not taken[i]:
            taken[i] = True
            match[j] = i
    unmatched = []
    for i, row in enumerate(cost):
        if taken[i]:
            continue
        reduced = [c - w for c, w in zip(row, v)]
        u[i] = low = min(reduced)
        j = next((j for j, r in enumerate(reduced) if r == low and match[j] < 0), -1)
        if j < 0:
            unmatched.append(i)
        else:
            match[j] = i
    for i in unmatched:
        match[n] = i
        j0 = n
        dist = 0
        minv = [inf] * n
        free = list(range(n))
        tree: list[tuple[int, int]] = []
        while True:
            tree.append((j0, dist))
            i0 = match[j0]
            row = cost[i0]
            base = dist - u[i0]
            low = inf
            j1 = -1
            for j in free:
                m = minv[j]
                cur = row[j] - v[j] + base
                if cur < m:
                    minv[j] = m = cur
                    way[j] = j0
                if m < low:
                    low = m
                    j1 = j
            dist = low
            free.remove(j1)
            j0 = j1
            if match[j0] < 0:
                break
        for j, joined in tree:
            u[match[j]] += dist - joined
            v[j] -= dist - joined
        while j0 != n:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return match[:n], u, v[:n]


def _lex_smallest(cost: Sequence[Sequence[int]], col_to_row: list[int],
                  u: list[int], v: list[int]) -> list[int]:
    """The lexicographically smallest optimal matching, from one optimal one.

    By complementary slackness the optimal matchings are exactly the perfect
    matchings on the tight edges, ``cost[r][c] == u[r] + v[c]``. Columns are
    fixed in order; column j trades its row r0 for a smaller tight row r held
    by a later column when that column can reach r0 by an alternating path
    of tight edges through later columns. One reverse search from r0 finds
    every row that can be freed this way.
    """
    n = len(cost)
    row_of = list(col_to_row)
    col_of = [0] * n
    for c, r in enumerate(row_of):
        col_of[r] = c
    takers: list[list[int]] | None = None  # takers[r]: columns tight on row r
    for j in range(n):
        r0 = row_of[j]
        vj = v[j]
        wanted = [r for r in range(r0)
                  if col_of[r] > j and cost[r][j] == u[r] + vj]
        if not wanted:
            continue
        if takers is None:
            takers = [[c for c in range(n) if row[c] == ur + v[c]]
                      for row, ur in zip(cost, u)]
        first = wanted[0]
        freed = {r0: r0}  # freed[r] = the row r's column takes instead
        queue = [r0]
        for r_taken in queue:
            for c in takers[r_taken]:
                r = row_of[c]
                if c > j and r not in freed:
                    freed[r] = r_taken
                    queue.append(r)
            if first in freed:
                break
        best = next((r for r in wanted if r in freed), r0)
        # j takes best; each column on the path takes the row that freed its
        # own, and the last one takes r0
        c, r = j, best
        while c != -1:
            nxt = col_of[r] if r != r0 else -1
            row_of[c] = r
            col_of[r] = c
            c, r = nxt, freed[r]
    return row_of


def lap_solve(prob: AssignmentProblem) -> tuple[Assignment, Rational]:
    """Minimum-cost assignment with the lexicographically smallest mapping.

    The weights are scaled to integers and solved once by the Hungarian
    method. Its optimal duals mark the tight edges, on which every optimal
    assignment lies, and ``_lex_smallest`` walks the columns in order to
    pick the smallest row each can keep among them.
    """
    ints = _integer_weights(prob.weights)
    col_to_row = _lex_smallest(ints, *_hungarian(ints))
    assignment = Assignment(tuple(r + 1 for r in col_to_row))
    return assignment, assignment_cost(prob, assignment)


def lap_brute(prob: AssignmentProblem,
              max_p: int = ORACLE_LIMIT) -> tuple[Assignment, Rational]:
    """Exhaustive minimum over all p! assignments; oracle for lap_solve.

    Permutations are generated in lexicographic order and only strictly
    better costs replace the incumbent, which realizes the same tie-break
    as lap_solve.
    """
    p = prob.p
    if p > max_p:
        raise GuardError(
            f"p={p} exceeds the brute-force guard {max_p} (p! enumeration)")
    best_mapping: tuple[int, ...] | None = None
    best_cost: Rational = 0
    for perm in permutations(range(1, p + 1)):
        cost = sum(prob.weights[perm[j] - 1][j] for j in range(p))
        if best_mapping is None or cost < best_cost:
            best_mapping = perm
            best_cost = cost
    assert best_mapping is not None
    return Assignment(best_mapping), as_exact(best_cost)


def drp_to_lap(transfer: TransferMatrix) -> AssignmentProblem:
    """Build the assignment surrogate that prices every move at unit cost.

    weights[i][j] = colsum_j - transfer[i][j]: assigning virtual machine j to
    physical machine i leaves exactly that much of column j's mass on other
    machines, so minimizing the assignment cost minimizes the total volume
    that has to move at all. Weights are non-negative by construction.
    """
    sums = transfer.column_sums()
    return AssignmentProblem([[s - t for s, t in zip(sums, row)]
                              for row in transfer.entries])
