import math
import random
from fractions import Fraction
from itertools import permutations

import pytest

from parcost import (Assignment, AssignmentProblem, GuardError, InstanceError,
                     TransferMatrix, assignment_cost, drp_to_lap, lap_brute,
                     lap_solve)
from parcost.bench import gen_drp
from parcost.lap import _hungarian, _integer_weights


def random_problem(rng, p, top=15):
    return AssignmentProblem([[rng.randint(0, top) for _ in range(p)]
                              for _ in range(p)])


# Reference oracle: the former solver, which made the optimum unique before
# the Hungarian method ran by folding a base-p positional code into weights
# scaled by p^p. Independent of lap_solve's tight-edge tie-break, and fast
# enough for p in the hundreds where lap_brute cannot go.

def _oracle_integer_weights(weights):
    scale = 1
    for row in weights:
        for value in row:
            if isinstance(value, Fraction):
                scale = scale * value.denominator // math.gcd(scale, value.denominator)
    return [[int(value * scale) for value in row] for row in weights]


def _oracle_hungarian(cost):
    n = len(cost)
    big = 1 + sum(sum(row) for row in cost)
    u = [0] * (n + 1)
    v = [0] * (n + 1)
    match = [0] * (n + 1)  # match[j] = row currently assigned to column j
    way = [0] * (n + 1)
    for i in range(1, n + 1):
        match[0] = i
        j0 = 0
        minv = [big] * (n + 1)
        used = [False] * (n + 1)
        while True:
            used[j0] = True
            i0 = match[j0]
            delta = big
            j1 = 0
            row = cost[i0 - 1]
            for j in range(1, n + 1):
                if used[j]:
                    continue
                cur = row[j - 1] - u[i0] - v[j]
                if cur < minv[j]:
                    minv[j] = cur
                    way[j] = j0
                if minv[j] < delta:
                    delta = minv[j]
                    j1 = j
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += delta
                    v[j] -= delta
                else:
                    minv[j] -= delta
            j0 = j1
            if match[j0] == 0:
                break
        while j0:
            j1 = way[j0]
            match[j0] = match[j1]
            j0 = j1
    return [match[j] for j in range(1, n + 1)]


def encoded_lap_solve(prob):
    p = prob.p
    ints = _oracle_integer_weights(prob.weights)
    radix = p ** p
    place = [p ** (p - 1 - j) for j in range(p)]
    encoded = [[ints[i][j] * radix + i * place[j] for j in range(p)]
               for i in range(p)]
    col_to_row = _oracle_hungarian(encoded)
    assignment = Assignment(tuple(col_to_row))
    return assignment, assignment_cost(prob, assignment)


class TestLapSolve:
    def test_zero_diagonal_prefers_identity(self):
        prob = AssignmentProblem([[0, 1, 1], [1, 0, 1], [1, 1, 0]])
        a, cost = lap_solve(prob)
        assert a.mapping == (1, 2, 3)
        assert cost == 0

    def test_three_by_three_oracle_value(self):
        # brute-forced over all 6 permutations: unique optimum
        prob = AssignmentProblem([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        a, cost = lap_solve(prob)
        assert cost == 5
        assert a.mapping == (2, 1, 3)

    def test_single_machine(self):
        a, cost = lap_solve(AssignmentProblem([[7]]))
        assert a.mapping == (1,)
        assert cost == 7

    def test_fractional_weights(self):
        prob = AssignmentProblem([[Fraction(1, 3), Fraction(1, 2)],
                                  [Fraction(1, 4), Fraction(2, 3)]])
        a, cost = lap_solve(prob)
        b, brute_cost = lap_brute(prob)
        assert cost == brute_cost
        assert a.mapping == b.mapping

    def test_lexicographic_tie_break(self):
        # every assignment costs 2: the lexicographically smallest must win
        prob = AssignmentProblem([[1, 1], [1, 1]])
        a, cost = lap_solve(prob)
        assert a.mapping == (1, 2)
        assert cost == 2


class TestTieBreakAtScale:
    """lap_solve against the encoded oracle on tie-heavy matrices too large
    for lap_brute: the tight-edge pass must pick the same optimum."""

    @pytest.mark.parametrize("p", [20, 60, 120])
    @pytest.mark.parametrize("top", [1, 2])
    def test_small_range_weights(self, p, top):
        rng = random.Random(p * 10 + top)
        prob = random_problem(rng, p, top=top)
        assert lap_solve(prob) == encoded_lap_solve(prob)

    @pytest.mark.parametrize("p", [20, 60, 120])
    def test_all_equal_matrix_gives_identity(self, p):
        prob = AssignmentProblem([[3] * p for _ in range(p)])
        identity = (Assignment(tuple(range(1, p + 1))), 3 * p)
        assert lap_solve(prob) == identity == encoded_lap_solve(prob)

    @pytest.mark.parametrize("p", [20, 60, 120])
    def test_mixed_denominator_fractions(self, p):
        rng = random.Random(p)
        prob = AssignmentProblem([[Fraction(rng.randint(0, 3), rng.choice((1, 2, 3, 4)))
                                   for _ in range(p)] for _ in range(p)])
        assert lap_solve(prob) == encoded_lap_solve(prob)

    def test_oracle_agrees_with_brute(self):
        rng = random.Random(41)
        for _ in range(100):
            prob = random_problem(rng, rng.randint(1, 6), top=rng.choice((0, 1, 3)))
            assert encoded_lap_solve(prob) == lap_brute(prob)


def surrogate(p, seed):
    return drp_to_lap(gen_drp(p, 1, 10, 20, seed).transfer)


class TestDualCertificate:
    """_hungarian's contract, whatever the start: a perfect matching and
    duals with cost >= u + v everywhere and equality on every matched edge,
    which together prove the matching optimal."""

    @staticmethod
    def assert_certified(cost):
        n = len(cost)
        col_to_row, u, v = _hungarian(cost)
        assert sorted(col_to_row) == list(range(n))
        for i, row in enumerate(cost):
            for j, c in enumerate(row):
                assert c >= u[i] + v[j]
        for j, i in enumerate(col_to_row):
            assert cost[i][j] == u[i] + v[j]

    def test_single_machine(self):
        self.assert_certified([[7]])

    @pytest.mark.parametrize("p", [2, 5, 40])
    def test_all_equal(self, p):
        self.assert_certified([[3] * p for _ in range(p)])

    @pytest.mark.parametrize("p", [2, 5, 40])
    def test_column_minima_all_in_one_row(self, p):
        # the column reduction can match one column only, so the row
        # reduction and the augmenting phases do the rest
        rng = random.Random(p)
        cost = [[rng.randint(1, 9) for _ in range(p)] for _ in range(p)]
        cost[p // 2] = [0] * p
        self.assert_certified(cost)

    @pytest.mark.parametrize("p", [3, 30])
    def test_fraction_scaled_weights(self, p):
        rng = random.Random(p)
        weights = [[Fraction(rng.randint(0, 5), rng.choice((1, 2, 3, 7)))
                    for _ in range(p)] for _ in range(p)]
        self.assert_certified(_integer_weights(weights))

    def test_random_small(self):
        rng = random.Random(43)
        for _ in range(200):
            p = rng.randint(1, 8)
            top = rng.choice((0, 1, 3, 50))
            self.assert_certified([[rng.randint(0, top) for _ in range(p)]
                                   for _ in range(p)])

    def test_surrogate_at_scale(self):
        self.assert_certified(surrogate(150, 1).weights)


def test_surrogate_at_scale_matches_encoded_oracle():
    prob = surrogate(150, 1)
    assert lap_solve(prob) == encoded_lap_solve(prob)


class TestLapBrute:
    def test_guard(self):
        prob = AssignmentProblem([[0] * 11 for _ in range(11)])
        with pytest.raises(GuardError):
            lap_brute(prob)
        small = AssignmentProblem([[0] * 4 for _ in range(4)])
        with pytest.raises(GuardError):
            lap_brute(small, max_p=3)
        lap_brute(small, max_p=4)  # overridable in both directions

    def test_agrees_with_solver_on_examples(self):
        for weights in ([[0, 1], [1, 0]], [[4, 1, 3], [2, 0, 5], [3, 2, 2]], [[7]]):
            prob = AssignmentProblem(weights)
            assert lap_solve(prob) == lap_brute(prob)

    def test_randomized_equivalence_6x6(self):
        rng = random.Random(23)
        for _ in range(200):
            prob = random_problem(rng, 6)
            a1, c1 = lap_solve(prob)
            a2, c2 = lap_brute(prob)
            assert c1 == c2
            assert a1.mapping == a2.mapping

    def test_row_permutation_symmetry(self):
        rng = random.Random(29)
        for _ in range(30):
            p = rng.randint(2, 5)
            prob = random_problem(rng, p)
            sigma = list(range(1, p + 1))
            rng.shuffle(sigma)
            moved = [[0] * p for _ in range(p)]
            for i in range(p):
                moved[sigma[i] - 1] = list(prob.weights[i])
            prob2 = AssignmentProblem(moved)
            a1, c1 = lap_brute(prob)
            _, c2 = lap_brute(prob2)
            assert c1 == c2
            relabeled = Assignment(tuple(sigma[m - 1] for m in a1.mapping))
            assert assignment_cost(prob2, relabeled) == c2

    def test_assignment_cost_refuses_another_size(self):
        prob = AssignmentProblem([[4, 1, 3], [2, 0, 5], [3, 2, 2]])
        assert assignment_cost(prob, Assignment((2, 1, 3))) == 5
        with pytest.raises(InstanceError,
                           match="^dimension mismatch: problem p=3, assignment p=2$"):
            assignment_cost(prob, Assignment((2, 1)))


class TestDrpToLap:
    def test_column_sum_construction(self):
        prob = drp_to_lap(TransferMatrix([[0, 5], [3, 0]]))
        assert prob.weights == ((3, 0), (0, 5))

    def test_diagonal_transfer_solves_to_identity(self):
        prob = drp_to_lap(TransferMatrix([[4, 0], [0, 9]]))
        a, cost = lap_solve(prob)
        assert a.mapping == (1, 2)
        assert cost == 0

    def test_uniform_transfer_makes_all_assignments_equal(self):
        p, t = 3, 5
        prob = drp_to_lap(TransferMatrix([[t] * p for _ in range(p)]))
        costs = {assignment_cost(prob, Assignment(perm))
                 for perm in permutations(range(1, p + 1))}
        assert costs == {(p - 1) * p * t}

    def test_surrogate_counts_moved_mass(self):
        # sum_j (colsum_j - T[a_j][j]) equals the volume priced at unit cost
        rng = random.Random(31)
        for _ in range(50):
            p = rng.randint(2, 5)
            t = [[rng.randint(0, 9) for _ in range(p)] for _ in range(p)]
            transfer = TransferMatrix(t)
            prob = drp_to_lap(transfer)
            mapping = list(range(1, p + 1))
            rng.shuffle(mapping)
            a = Assignment(tuple(mapping))
            moved = sum(t[i][j] for i in range(p) for j in range(p)
                        if a.mapping[j] != i + 1)
            assert assignment_cost(prob, a) == moved

    def test_column_shift_keeps_argmin_set(self):
        rng = random.Random(37)
        for _ in range(25):
            p = rng.randint(2, 4)
            base = random_problem(rng, p, top=8)
            col = rng.randrange(p)
            delta = rng.randint(1, 9)
            shifted = [[base.weights[i][j] + (delta if j == col else 0)
                        for j in range(p)] for i in range(p)]
            prob2 = AssignmentProblem(shifted)

            def argmin_set(prob):
                costs = {perm: assignment_cost(prob, Assignment(perm))
                         for perm in permutations(range(1, p + 1))}
                best = min(costs.values())
                return {perm for perm, c in costs.items() if c == best}

            assert argmin_set(base) == argmin_set(prob2)

    def test_rejects_negative_weights(self):
        with pytest.raises(InstanceError):
            AssignmentProblem([[0, -1], [1, 0]])
