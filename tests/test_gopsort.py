import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from parcost import (Assignment, CostMatrix, GopInstance, GuardError, InstanceError,
                     SortInstance, derive_transfer_and_load, drp_to_lap,
                     equal_splitters, gop_objective, gop_solve_approx, gop_solve_exact,
                     lap_solve, ratio_bound)
from parcost import gopsort
from parcost.bench import gen_gop
from test_acceptance import _oracle_gop

UNIT2 = CostMatrix([[0, 1], [1, 0]])


class TestExact:
    def test_balanced_data(self):
        s = gop_solve_exact(GopInstance(SortInstance(((1, 2), (3, 4))), UNIT2))
        assert s.splitters == (2,)
        assert s.assignment.mapping == (1, 2)
        assert s.total_cost == 2.0

    def test_reversed_data_swaps_roles(self):
        s = gop_solve_exact(GopInstance(SortInstance(((3, 4), (1, 2))), UNIT2))
        assert s.splitters == (2,)
        assert s.assignment.mapping == (2, 1)
        assert s.total_cost == 2.0

    def test_pre_placed_lower_half_keeps_identity(self):
        s = gop_solve_exact(GopInstance(SortInstance(((1, 2, 3), (7, 8, 9))), UNIT2))
        assert s.assignment.mapping == (1, 2)
        assert s.comm_cost == 0

    def test_work_guard(self):
        g = gen_gop(30, 3, seed=1)
        with pytest.raises(GuardError):
            gop_solve_exact(g)
        gop_solve_exact(g, work_guard=10 ** 6)

    def test_whole_comm_cost_is_an_int_like_gop_objectives(self):
        # the interval costs 1/2 + 3/2 sum to a Fraction with denominator 1
        cost = CostMatrix([[0, Fraction(1, 2)], [Fraction(3, 2), 0]])
        g = GopInstance(SortInstance(((1, 4), (2, 3))), cost)
        s = gop_solve_exact(g)
        assert type(s.comm_cost) is int and s.comm_cost == 2
        assert repr(s) == repr(gop_objective(g, s.splitters, s.assignment))

    def test_rejects_fewer_elements_than_machines(self):
        c3 = CostMatrix([[0 if i == j else 1 for j in range(3)] for i in range(3)])
        with pytest.raises(InstanceError, match="n=2, p=3"):
            gop_solve_exact(GopInstance(SortInstance(((1,), (2,), ())), c3))


LINKS = {
    "int": lambda rng: rng.randint(1, 10),
    "fraction": lambda rng: Fraction(rng.randint(1, 9), rng.randint(1, 4)),
    # sums of these differ from their floats, so float totals can tie
    # where the exact communication costs do not
    "float": lambda rng: rng.choice((0.1, 0.2, 0.3, 0.7, 1.5)),
    "two": lambda rng: rng.randint(1, 2),
}


def _link_costs(rng: random.Random, p: int, kind: str) -> CostMatrix:
    if kind == "uniform":  # every link costs the same
        link = rng.randint(1, 3)
        return CostMatrix([[0 if i == j else link for j in range(p)] for i in range(p)])
    return CostMatrix([[0 if i == j else LINKS[kind](rng) for j in range(p)]
                       for i in range(p)])


def _assert_matches_oracle(g: GopInstance) -> None:
    solution = gop_solve_exact(g, work_guard=10 ** 9)
    assert ((solution.total_cost, solution.splitters, solution.assignment.mapping)
            == _oracle_gop(g.inst, g.cost.entries))
    # the reported costs are the objective of the reported choice
    assert solution == gop_objective(g, solution.splitters, solution.assignment)


class TestColumns:
    """The exact solver prices splitter sets in blocks of columns; the
    enumerating oracle must agree on the total, the splitters and the
    mapping, ties included."""

    @pytest.mark.parametrize("kind", ["int", "fraction", "float", "two", "uniform"])
    @pytest.mark.parametrize("p", [2, 3, 4, 5])
    def test_matches_oracle(self, p, kind):
        rng = random.Random(f"{p}{kind}")
        max_n = {2: 24, 3: 12, 4: 9, 5: 7}[p]
        for _ in range(6 if p < 5 else 3):
            g = gen_gop(rng.randint(p, max_n), p, seed=rng.randrange(2 ** 32))
            _assert_matches_oracle(GopInstance(g.inst, _link_costs(rng, p, kind)))

    def test_spans_several_default_blocks(self):
        g = gen_gop(20, 4, seed=1)
        assert math.comb(20, 3) > 4 * gopsort._BLOCK
        _assert_matches_oracle(g)

    def test_ties_that_straddle_block_edges(self, monkeypatch):
        cases = []
        # values dealt round-robin onto machines with uniform links tie often
        for p, sizes in ((2, range(4, 12)), (3, range(5, 12)), (4, range(6, 9))):
            for n in sizes:
                inst = SortInstance([[v for v in range(1, n + 1) if v % p == i]
                                     for i in range(p)])
                cases.append(GopInstance(inst, _link_costs(random.Random(0), p, "uniform")))
        for p, n in ((3, 8), (4, 7)):
            for seed in range(12):
                rng = random.Random(seed)
                g = gen_gop(n, p, seed=seed)
                cases.append(GopInstance(g.inst, _link_costs(rng, p, ("uniform", "two")[seed % 2])))
        # each case's positions of the optimal sets
        optimal = []
        for g in cases:
            p = g.inst.p
            totals = {}
            for position, splitters in enumerate(combinations(g.inst.values(), p - 1)):
                for perm in permutations(range(1, p + 1)):
                    total = gop_objective(g, splitters, Assignment(perm)).total_cost
                    totals.setdefault(total, set()).add(position)
            optimal.append(totals[min(totals)])
        # at 1, each set is a block of its own, so the incumbent settles
        # every tie between sets; 18 of the 42 cases straddle at 3, 21 at 1
        for block, least in ((3, 15), (1, 18)):
            monkeypatch.setattr(gopsort, "_BLOCK", block)
            for g in cases:
                _assert_matches_oracle(g)
            straddled = sum(len({position // block for position in positions}) > 1
                            for positions in optimal)
            assert straddled >= least


class TestEqualSplitters:
    def test_exact_division(self):
        assert equal_splitters(SortInstance(((1, 2), (3, 4)))) == (2,)

    def test_quartiles(self):
        inst = SortInstance(((1, 2, 3, 4), (5, 6), (7,), (8,)))
        assert equal_splitters(inst) == (2, 4, 6)

    def test_floor_rank_when_uneven(self):
        inst = SortInstance(((10, 30, 50), (20, 40)))
        # rank floor(5/2) = 2 in the sorted order (10,20,30,40,50)
        assert equal_splitters(inst) == (20,)

    def test_too_few_elements(self):
        with pytest.raises(InstanceError, match="n=1, p=3"):
            equal_splitters(SortInstance(((1,), (), ())))


class TestApprox:
    def test_matches_exact_on_balanced_instance(self):
        g = GopInstance(SortInstance(((1, 2), (3, 4))), UNIT2)
        assert gop_solve_approx(g) == gop_solve_exact(g)

    def test_never_beats_exact(self):
        rng = random.Random(61)
        for _ in range(60):
            g = gen_gop(rng.randint(4, 12), 2, seed=rng.randrange(2 ** 32))
            exact = gop_solve_exact(g, work_guard=10 ** 6)
            approx = gop_solve_approx(g)
            assert exact.total_cost <= approx.total_cost + 1e-9

    def test_equal_split_io_term(self):
        rng = random.Random(67)
        for _ in range(40):
            p = rng.choice((2, 4))
            n = p * rng.randint(2, 8)
            g = gen_gop(n, p, seed=rng.randrange(2 ** 32))
            approx = gop_solve_approx(g)
            share = n // p
            assert approx.io_cost == share * math.log2(share)

    def test_ratio_bound_with_precondition(self):
        # only asserted where p * 2^p <= n
        rng = random.Random(71)
        for _ in range(40):
            r = rng.choice((1, 3, 10))
            n = rng.randint(8, 13)
            g = gen_gop(n, 2, seed=rng.randrange(2 ** 32), cost_high=max(r, 1))
            exact = gop_solve_exact(g, work_guard=10 ** 6)
            approx = gop_solve_approx(g)
            bound = max(float(ratio_bound(g.cost)), 2.0)
            assert approx.total_cost <= bound * exact.total_cost + 1e-9

    def test_printed_bound_fails_on_seed_277(self):
        # max(r, 2) is not a sound bound: equal-rank splitters ignore where
        # the data lives, so the approximation's comm has no bound in OPT
        # (README, "The GOP bound is false as stated")
        g = gen_gop(4, 3, seed=277)
        assert g.cost.entries == ((0, 10, 8), (5, 0, 10), (10, 10, 0))
        assert g.inst.subsets == ((6, 3), (12,), (14,))
        exact = gop_solve_exact(g)
        approx = gop_solve_approx(g)
        assert (exact.splitters, exact.comm_cost, exact.total_cost) == ((6, 12), 0, 2.0)
        assert (approx.splitters, approx.comm_cost, approx.total_cost) == ((3, 6), 20, 22.0)
        bound = max(ratio_bound(g.cost), 2)
        assert bound == 2
        assert approx.total_cost == 11 * exact.total_cost > bound * exact.total_cost

    def test_exact_assignment_extension_helps_or_ties(self):
        rng = random.Random(73)
        instances = [gen_gop(rng.randint(6, 12), 2, seed=rng.randrange(2 ** 32),
                             cost_high=9) for _ in range(30)]
        # p = 12 is past the 10-machine limit of the brute-force oracle
        instances.append(gen_gop(48, 12, seed=4, cost_high=9))
        for g in instances:
            plain = gop_solve_approx(g)
            refined = gop_solve_approx(g, exact_assignment=True)
            assert refined.total_cost <= plain.total_cost + 1e-9
            assert refined.splitters == plain.splitters


class TestSurrogateSpread:
    def test_unit_cost_lap_spread_is_bounded(self):
        # with unit off-diagonal costs, any two splitter choices give
        # surrogate optima within (p-1)/p * n of each other
        rng = random.Random(79)
        for _ in range(20):
            n = rng.randint(4, 12)
            g = gen_gop(n, 2, seed=rng.randrange(2 ** 32))
            costs = []
            for splitters in combinations(g.inst.values(), 1):
                transfer, _ = derive_transfer_and_load(g.inst, splitters)
                _, cost = lap_solve(drp_to_lap(transfer))
                costs.append(cost)
            assert max(costs) - min(costs) <= Fraction(n, 2)
