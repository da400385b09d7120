import random

import pytest

from parcost import (Assignment, CostMatrix, DrpInstance, GuardError,
                     InstanceError, TransferMatrix, TspFbInstance, drp_brute,
                     drp_cost, drp_solve_approx, drp_solve_exact,
                     ratio_bound, tspfb_brute, tspfb_to_drp)
from parcost.bench import gen_drp, gen_tspfb
from parcost.drp import _tour_columns

UNIT2 = CostMatrix([[0, 1], [1, 0]])


class TestExact:
    def test_swap_beats_identity(self):
        inst = DrpInstance(TransferMatrix([[0, 5], [3, 0]]), UNIT2)
        a, cost = drp_solve_exact(inst)
        assert a.mapping == (2, 1)
        assert cost == 0

    def test_diagonal_transfer_stays_put(self):
        inst = DrpInstance(TransferMatrix([[4, 0], [0, 9]]),
                           CostMatrix([[0, 7], [2, 0]]))
        a, cost = drp_solve_exact(inst)
        assert a.mapping == (1, 2)
        assert cost == 0

    def test_reversed_data_reversal_permutation(self):
        # anti-diagonal volumes, uniform costs: reversing the machine order
        # moves nothing
        t = TransferMatrix([[0, 0, 2], [0, 3, 0], [4, 0, 0]])
        c = CostMatrix([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        a, cost = drp_solve_exact(DrpInstance(t, c))
        assert cost == 0
        assert a.mapping == (3, 2, 1)

    def test_guard(self):
        # only the p! oracle is guarded; the assignment solver takes p = 11
        p = 11
        t = TransferMatrix([[1] * p for _ in range(p)])
        c = CostMatrix([[0 if i == j else 1 for j in range(p)] for i in range(p)])
        inst = DrpInstance(t, c)
        with pytest.raises(GuardError):
            drp_brute(inst)
        a, cost = drp_solve_exact(inst)
        assert a.mapping == tuple(range(1, p + 1))  # every plan ties; smallest wins
        assert cost == p * (p - 1)

    def test_large_p_beats_approx(self):
        inst = gen_drp(40, 1, 10, 20, seed=3)
        a, cost = drp_solve_exact(inst)
        assert sorted(a.mapping) == list(range(1, 41))
        assert cost == drp_cost(inst.transfer, inst.cost, a)
        assert cost <= drp_solve_approx(inst)[1]

    def test_monotone_in_cost_entry(self):
        rng = random.Random(41)
        for _ in range(30):
            inst = gen_drp(3, 1, 5, 9, seed=rng.randrange(2 ** 32))
            _, base = drp_solve_exact(inst)
            i, j = rng.randrange(3), rng.randrange(3)
            if i == j:
                continue
            bumped = [list(row) for row in inst.cost.entries]
            bumped[i][j] += rng.randint(1, 5)
            _, higher = drp_solve_exact(DrpInstance(inst.transfer, CostMatrix(bumped)))
            assert higher >= base


class TestApprox:
    def test_diagonal_transfer(self):
        inst = DrpInstance(TransferMatrix([[4, 0], [0, 9]]),
                           CostMatrix([[0, 7], [2, 0]]))
        a, cost = drp_solve_approx(inst)
        assert a.mapping == (1, 2)
        assert cost == 0
        assert drp_solve_exact(inst)[1] == cost

    def test_ignores_costs_yet_finds_zero_plan(self):
        inst = DrpInstance(TransferMatrix([[0, 5], [3, 0]]),
                           CostMatrix([[0, 9], [1, 0]]))
        a, cost = drp_solve_approx(inst)
        assert a.mapping == (2, 1)
        assert cost == 0

    def test_reports_true_cost(self):
        rng = random.Random(43)
        for _ in range(40):
            inst = gen_drp(rng.randint(2, 5), 1, 9, 9, seed=rng.randrange(2 ** 32))
            a, cost = drp_solve_approx(inst)
            assert cost == drp_cost(inst.transfer, inst.cost, a)

    def test_ratio_bound_holds_and_never_beats_exact(self):
        rng = random.Random(47)
        for _ in range(120):
            r = rng.choice((1, 3, 10))
            inst = gen_drp(rng.randint(2, 6), 1, r, 12, seed=rng.randrange(2 ** 32))
            _, exact = drp_solve_exact(inst)
            _, approx = drp_solve_approx(inst)
            assert exact <= approx <= ratio_bound(inst.cost) * exact


class TestRatioBound:
    def test_uniform(self):
        assert ratio_bound(CostMatrix([[0, 3], [3, 0]])) == 1

    def test_extremes(self):
        c = CostMatrix([[0, 1, 2], [9, 0, 5], [4, 3, 0]])
        assert ratio_bound(c) == 9

    def test_none_when_local_data_is_not_free(self):
        # the library takes the cost matrix the CLI takes, with the figures
        # test_drp_approx_has_no_bound_where_local_data_costs pins: the
        # approximation pays 1000 against an optimum of 10, so no max/min
        # bound holds
        cost = CostMatrix([[100, 1], [1, 100]])
        inst = DrpInstance(TransferMatrix([[5, 0], [0, 5]]), cost)
        assert drp_solve_exact(inst) == (Assignment((2, 1)), 10)
        assert drp_solve_approx(inst)[1] == 1000
        assert ratio_bound(cost) is None
        assert ratio_bound(CostMatrix([[0, 3], [1, 0]])) == 3

    def test_at_least_one(self):
        rng = random.Random(53)
        for _ in range(40):
            inst = gen_drp(rng.randint(2, 6), 1, 9, 5, seed=rng.randrange(2 ** 32))
            assert ratio_bound(inst.cost) >= 1


def _single_alternating_cycle(n) -> bool:
    """Walk the row/column position graph and check one 2n-cycle covers it."""
    pairs = _tour_columns(n)
    col_rows = {c: [] for c in range(1, n + 1)}
    for row, (a, b) in enumerate(pairs, start=1):
        if a == b:
            return False
        col_rows[a].append(row)
        col_rows[b].append(row)
    if any(len(rows) != 2 for rows in col_rows.values()):
        return False
    seen_rows, seen_cols = set(), set()
    col, row = 1, col_rows[1][0]
    for _ in range(2 * n):
        seen_cols.add(col)
        seen_rows.add(row)
        a, b = pairs[row - 1]
        col = b if col == a else a
        r1, r2 = col_rows[col]
        row = r2 if row == r1 else r1
    return seen_rows == set(range(1, n + 1)) and seen_cols == set(range(1, n + 1))


class TestReduction:
    def test_odd_rule_n3(self):
        inst = tspfb_to_drp(TspFbInstance([[1, 2, 3], [4, 5, 6], [7, 8, 9]]))
        expected_cols = {i: {1 + (i + 1) % 3, 1 + (i - 1) % 3} for i in (1, 2, 3)}
        for i in (1, 2, 3):
            cols = {j for j in (1, 2, 3) if inst.transfer.amount(i, j) == 1}
            assert cols == expected_cols[i]

    def test_even_rule_n4_end_rows(self):
        tour = gen_tspfb(4, seed=0)
        inst = tspfb_to_drp(tour)
        row1 = {j for j in range(1, 5) if inst.transfer.amount(1, j) == 1}
        row2 = {j for j in range(1, 5) if inst.transfer.amount(2, j) == 1}
        assert row1 == {2, 3}  # columns 2 and n-1
        assert row2 == {1, 4}  # columns 1 and n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_rows_sum_to_two_and_cycle(self, n):
        inst = tspfb_to_drp(gen_tspfb(n, seed=n))
        for i in range(1, n + 1):
            assert sum(inst.transfer.amount(i, j) for j in range(1, n + 1)) == 2
        assert _single_alternating_cycle(n)

    def test_cost_matrix_is_weight_matrix_verbatim(self):
        tour = gen_tspfb(5, seed=9)
        inst = tspfb_to_drp(tour)
        assert inst.cost.entries == tour.weights

    def test_rejects_small_n(self):
        with pytest.raises(InstanceError, match="n >= 3"):
            tspfb_to_drp(TspFbInstance([[1, 2], [3, 4]]))

    @pytest.mark.parametrize("rows, message", [
        ([[1, 0], [2, 1]], "[1][2] must be positive off the diagonal, got 0"),
        ([[1, 2], [-3, 1]], "[2][1] must be positive off the diagonal, got -3"),
        ([[1, 2], [3, -1]], "[2][2] is negative: -1"),
    ])
    def test_weights_follow_the_relaxed_cost_rule(self, rows, message):
        with pytest.raises(InstanceError) as tour:
            TspFbInstance(rows)
        assert str(tour.value) == "weights" + message
        with pytest.raises(InstanceError) as cost:
            CostMatrix(rows)
        assert str(cost.value) == "cost" + message


class TestTourBrute:
    def test_k22_single_cycle(self):
        assert tspfb_brute(TspFbInstance([[1, 2], [3, 4]])) == 10

    def test_uniform_weights(self):
        for n in (2, 3, 4):
            c = 5
            tour = TspFbInstance([[c] * n for _ in range(n)])
            assert tspfb_brute(tour) == 2 * n * c

    def test_guard(self):
        with pytest.raises(GuardError):
            tspfb_brute(gen_tspfb(7, seed=1))
        with pytest.raises(GuardError):
            tspfb_brute(gen_tspfb(5, seed=1), max_n=4)
        tspfb_brute(gen_tspfb(5, seed=1), max_n=5)

    def test_n3_equivalence_always(self):
        # with three vertices a side there is a single cyclic visiting order,
        # so the reduced instance spans every tour and the optima coincide
        for seed in range(25):
            tour = gen_tspfb(3, seed=seed)
            _, cost = drp_solve_exact(tspfb_to_drp(tour))
            assert cost == tspfb_brute(tour)

    def test_frozen_n4_equality_instance(self):
        # a verified instance whose best tour happens to use the visiting
        # order the reduction realizes; equality is instance-dependent at
        # n >= 4 (see test below)
        tour = TspFbInstance(((15, 18, 15, 15), (17, 19, 7, 6),
                              (17, 16, 20, 6), (4, 15, 10, 5)))
        _, cost = drp_solve_exact(tspfb_to_drp(tour))
        assert cost == tspfb_brute(tour) == 82

    def test_reduced_optimum_never_beats_tour_optimum(self):
        # every assignment of the reduced instance traces some tour, so its
        # optimum can only sit at or above the unrestricted tour optimum
        for n in (4, 5):
            for seed in range(10):
                tour = gen_tspfb(n, seed=seed)
                _, cost = drp_solve_exact(tspfb_to_drp(tour))
                assert cost >= tspfb_brute(tour)
