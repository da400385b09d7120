"""Joint splitter/assignment optimization for distributed sorting.

The exact solver enumerates every splitter set and every assignment behind a
work guard, pricing the splitter sets a block at a time as columns; the
approximation takes equal-rank splitters and solves the redistribution
subproblem with the unit-cost assignment surrogate.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, compress, islice, permutations, repeat
from math import comb, factorial, inf
from operator import add, sub

from .constants import DEFAULT_WORK_GUARD
from .core import (Assignment, GopInstance, GopSolution, SortInstance, _equal_rank,
                   _interval_counts, sort_io_term)
from .errors import GuardError

# splitter sets are priced this many at a time, so the columns take
# O(p^2 * _BLOCK) memory whatever the guard admits
_BLOCK = 256


def gop_solve_exact(g: GopInstance,
                    work_guard: int = DEFAULT_WORK_GUARD) -> GopSolution:
    """Global minimum over all splitter sets and assignments.

    Splitter sets are drawn from the instance's elements in ascending
    lexicographic order and assignments in lexicographic mapping order;
    ties resolve to the smallest splitter sequence and then the smallest
    mapping, the first optimum of that enumeration.

    The sets are priced in blocks of ``_BLOCK``, as columns with one entry
    per set: each interval's cost on each host, a difference of two
    per-host prefix sums, and the IO term, looked up by the largest
    interval. A set whose IO term plus its cheapest-host communication
    cannot beat the incumbent of the earlier blocks is dropped. Each mapping
    then adds p columns and takes the first minimum of ``float(comm) + io``.
    The incumbent is the least (total, rank tuple, permutation): both tuples
    compare in the order ``combinations`` and ``permutations`` yield them,
    so the tuple order is the enumeration's tie-break.
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
    # sort_io_term is the term of the largest load, as L*log2(L) grows with L
    io_of = [sort_io_term((load,)) for load in range(n + 1)]
    perms = list(permutations(range(p)))
    sets = combinations(range(n), p - 1)
    best = (inf,)
    while block := list(islice(sets, _BLOCK)):
        # cuts[i][s]: how many elements lie left of set s's cut i
        cuts = [[t + 1 for t in ranks] for ranks in zip(*block)]
        sizes = [cuts[0], *(map(sub, b, a) for a, b in zip(cuts, cuts[1:])),
                 map(n.__sub__, cuts[-1])]
        io = list(map(io_of.__getitem__, map(max, *sizes)))
        # weights[k][j][s]: cost of set s's interval j on host k
        weights = []
        for w in prefix:
            at = [list(map(w.__getitem__, c)) for c in cuts]
            weights.append([at[0], *(list(map(sub, b, a)) for a, b in zip(at, at[1:])),
                            list(map(sub, repeat(w[n]), at[-1]))])
        if best[0] < inf:
            # float() and + io are monotone, so no mapping beats the
            # incumbent strictly when every interval on its cheapest host
            # does not
            cheapest = (map(min, *column) for column in zip(*weights))
            bound = map(add, map(float, map(sum, zip(*cheapest))), io)
            keep = [total < best[0] for total in bound]
            if not any(keep):
                continue
            block = list(compress(block, keep))
            io = list(compress(io, keep))
            weights = [[list(compress(column, keep)) for column in host]
                       for host in weights]
        for perm in perms:
            comm = weights[perm[0]][0]
            for j in range(1, p):
                comm = map(add, comm, weights[perm[j]][j])
            totals = list(map(add, map(float, comm), io))
            low = min(totals)
            best = min(best, (low, block[totals.index(low)], perm))
    _, ranks, perm = best
    cuts = (0, *(t + 1 for t in ranks), n)
    bounds = tuple(zip(cuts, cuts[1:]))
    comm = sum(prefix[k][b] - prefix[k][a] for (a, b), k in zip(bounds, perm))
    return GopSolution(tuple(values[t] for t in ranks),
                       Assignment(tuple(k + 1 for k in perm)), comm,
                       sort_io_term([b - a for a, b in bounds]))


def equal_splitters(inst: SortInstance) -> tuple[int, ...]:
    """Splitters at the p-quantile ranks of the globally sorted data: the
    equal-rank rule on all n >= p elements, so strictly ascending."""
    return _equal_rank(inst.values(), inst.p)


def gop_solve_approx(g: GopInstance, exact_assignment: bool = False) -> GopSolution:
    """Equal-rank splitters plus the surrogate-assignment redistribution plan.

    With ``exact_assignment=True`` the embedded redistribution subproblem is
    solved exactly instead (an extension for comparison runs; the default
    matches the plain approximation). Polynomial time either way: both
    subproblem solvers are O(p^3) assignment solves. Both ``equal_splitters``
    and the ``_interval_counts`` are taken from each machine's sorted run.
    """
    # imported here, so that gop-exact loads neither drp nor lap
    from .drp import DrpInstance, drp_solve_approx, drp_solve_exact

    runs = list(map(sorted, g.inst.subsets))
    splitters = _equal_rank(sorted(chain.from_iterable(runs)), g.p)
    transfer, loads = _interval_counts(runs, splitters)
    solve = drp_solve_exact if exact_assignment else drp_solve_approx
    assignment, comm = solve(DrpInstance(transfer, g.cost))
    return GopSolution(splitters, assignment, comm, sort_io_term(loads))
