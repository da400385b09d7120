"""Joint splitter/assignment optimization for distributed sorting.

The exact solver enumerates every splitter set and every assignment behind a
work guard; the approximation takes equal-rank splitters and solves the
redistribution subproblem with the unit-cost assignment surrogate.
"""

from __future__ import annotations

from itertools import accumulate, combinations, permutations
from math import comb, factorial, inf

from .constants import DEFAULT_WORK_GUARD
from .core import (Assignment, GopInstance, GopSolution, SortInstance,
                   derive_transfer_and_load, sort_io_term)
from .errors import GuardError


def gop_solve_exact(g: GopInstance,
                    work_guard: int = DEFAULT_WORK_GUARD) -> GopSolution:
    """Global minimum over all splitter sets and assignments.

    Splitter sets are drawn from the instance's elements in ascending
    lexicographic order and assignments in lexicographic mapping order;
    only strict improvements replace the incumbent, so ties resolve to the
    smallest splitter sequence and then the smallest mapping. A splitter set
    whose IO term plus its cheapest-host communication cannot beat the
    incumbent is skipped without trying its assignments.
    """
    inst, cost = g.inst, g.cost
    n, p = inst.n, inst.p
    work = comb(n, p - 1) * factorial(p)
    if work > work_guard:
        raise GuardError(
            f"C({n},{p - 1})*{p}! = {work} exceeds the work guard {work_guard}")
    values = inst.values()
    owner = {value: i for i, subset in enumerate(inst.subsets) for value in subset}
    # prefix[k][x]: cost of sending the x smallest elements to machine k, so
    # hosting the interval of ranks a..b-1 on k costs prefix[k][b] - prefix[k][a]
    prefix = [list(accumulate((cost.entries[owner[value]][k] for value in values),
                              initial=0))
              for k in range(p)]
    perms = list(permutations(range(p)))
    # the incumbent's total is a local and its solution is built once, after
    # the loop: a GopSolution per improvement, or a property read per
    # mapping, would slow the loop
    best_total = inf
    for ranks in combinations(range(n), p - 1):
        cuts = (0, *(t + 1 for t in ranks), n)
        bounds = tuple(zip(cuts, cuts[1:]))
        io = sort_io_term([b - a for a, b in bounds])
        # float() and + io are monotone, so no mapping beats the incumbent
        # strictly when every interval on its cheapest host does not
        if io >= best_total:
            continue
        weights = [[w[b] - w[a] for w in prefix] for a, b in bounds]
        if float(sum(map(min, weights))) + io >= best_total:
            continue
        for perm in perms:
            comm = sum(map(list.__getitem__, weights, perm))
            total = float(comm) + io
            if total < best_total:
                best_total = total
                best = ranks, perm, comm, io
    ranks, perm, comm, io = best
    return GopSolution(tuple(values[t] for t in ranks),
                       Assignment(tuple(k + 1 for k in perm)), comm, io)


def equal_splitters(inst: SortInstance) -> tuple[int, ...]:
    """Splitters at the p-quantile ranks of the globally sorted data.

    Splitter k is the element of rank floor(k*n/p), 1-indexed; a sort
    instance has n >= p, so the ranks are distinct and at least k and the
    result is strictly ascending.
    """
    n, p = inst.n, inst.p
    values = inst.values()
    return tuple(values[(k * n) // p - 1] for k in range(1, p))


def gop_solve_approx(g: GopInstance, exact_assignment: bool = False) -> GopSolution:
    """Equal-rank splitters plus the surrogate-assignment redistribution plan.

    With ``exact_assignment=True`` the embedded redistribution subproblem is
    solved exactly instead (an extension for comparison runs; the default
    matches the plain approximation). Polynomial time either way: both
    subproblem solvers are O(p^3) assignment solves.
    """
    # imported here, so that gop-exact loads neither drp nor lap
    from .drp import DrpInstance, drp_solve_approx, drp_solve_exact

    inst, cost = g.inst, g.cost
    splitters = equal_splitters(inst)
    transfer, loads = derive_transfer_and_load(inst, splitters)
    sub = DrpInstance(transfer, cost)
    if exact_assignment:
        assignment, comm = drp_solve_exact(sub)
    else:
        assignment, comm = drp_solve_approx(sub)
    return GopSolution(splitters, assignment, comm, sort_io_term(loads))
