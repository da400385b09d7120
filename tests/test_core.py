import json
import random
import re
import tracemalloc
from collections import defaultdict
from enum import IntEnum
from fractions import Fraction

import pytest

from parcost import (Assignment, AssignmentProblem, CostMatrix, GopInstance,
                     GopSolution, Graph, InstanceError, SortInstance, TransferMatrix,
                     as_exact, core, derive_transfer_and_load, drp_cost, gop_objective,
                     sort_io_term)
from parcost.bench import gen_gop, gen_graph
from parcost.core import gop_from_json, gop_to_json, graph_from_json, graph_to_json


def test_as_exact_variants():
    assert as_exact(3) == 3 and isinstance(as_exact(3), int)
    assert as_exact(Fraction(4, 2)) == 2 and isinstance(as_exact(Fraction(4, 2)), int)
    assert as_exact(0.5) == Fraction(1, 2)
    assert as_exact("1/3") == Fraction(1, 3)
    assert as_exact("4/2") == 2 and isinstance(as_exact("4/2"), int)
    with pytest.raises(InstanceError):
        as_exact(float("inf"))
    with pytest.raises(InstanceError):
        as_exact("7")
    with pytest.raises(InstanceError):
        as_exact(True)
    with pytest.raises(InstanceError, match="^unsupported numeric type: list$"):
        as_exact([1])


class TestCostMatrix:
    def test_valid(self):
        c = CostMatrix([[0, 1], [2, 0]])
        assert c.p == 2
        assert c.cost(1, 2) == 1
        assert c.cost(2, 1) == 2
        assert c.off_diagonal() == (1, 2)

    def test_rejects_nonzero_diagonal(self):
        # the zero diagonal is the GOP model's rule, so GopInstance holds it,
        # and a diagonal fault is named before a machine-count mismatch
        cost = CostMatrix([[0, 1], [1, 3]])
        message = r"^cost\[2\]\[2\] must be 0 on the diagonal, got 3$"
        with pytest.raises(InstanceError, match=message):
            GopInstance(SortInstance(((1, 2), (3, 4))), cost)
        with pytest.raises(InstanceError, match=message):
            GopInstance(SortInstance(((1,), (2,), (3,))), cost)

    def test_rejects_negative(self):
        with pytest.raises(InstanceError, match=r"cost\[1\]\[2\]"):
            CostMatrix([[0, -1], [1, 0]])

    def test_rejects_off_diagonal_zero(self):
        with pytest.raises(InstanceError, match="positive off the diagonal"):
            CostMatrix([[0, 0], [1, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(InstanceError):
            CostMatrix([[0, 1, 2], [1, 0, 2]])

    def test_rejects_single_machine(self):
        with pytest.raises(InstanceError):
            CostMatrix([[0]])

    def test_relaxed_diagonal_for_reductions(self):
        c = CostMatrix([[3, 1], [1, 4]])
        assert c.cost(1, 1) == 3


class TestTransferMatrix:
    def test_valid(self):
        t = TransferMatrix([[0, 5], [3, 0]])
        assert t.column_sums() == (3, 5)
        assert t.total_mass == 8
        assert t.amount(1, 2) == 5

    def test_rejects_negative(self):
        with pytest.raises(InstanceError, match=r"transfer\[2\]\[1\]"):
            TransferMatrix([[0, 5], [-3, 0]])


class TestAssignment:
    def test_identity(self):
        a = Assignment.identity(3)
        assert a.mapping == (1, 2, 3)
        assert a.host(2) == 2

    @pytest.mark.parametrize("mapping", [(1, 1), (0, 1), (2, 3), ()])
    def test_rejects_non_bijection(self, mapping):
        with pytest.raises(InstanceError):
            Assignment(mapping)

    @pytest.mark.parametrize("mapping, entry", [
        ((2.0, 1.0), "2.0"), ((Fraction(2), Fraction(1)), "Fraction(2, 1)"),
        ((True, 2), "True"), ((1, "2"), "'2'")])
    def test_rejects_entries_that_are_not_ints(self, mapping, entry):
        with pytest.raises(InstanceError, match=rf": entry {re.escape(entry)} is not an integer"):
            Assignment(mapping)

    def test_int_subclasses_other_than_bool_pass(self):
        class Host(IntEnum):
            FIRST = 1
            SECOND = 2
        assert Assignment((Host.SECOND, Host.FIRST)) == Assignment((2, 1))


def first_error(make, *args):
    try:
        make(*args)
    except InstanceError as exc:
        return str(exc)
    return None


def entry_by_entry(rows):
    """The first cost-matrix error in row-major order, entry by entry."""
    for i, row in enumerate(rows):
        for j, value in enumerate(row):
            if i == j and value < 0:
                return f"cost[{i + 1}][{j + 1}] is negative: {value}"
            if i != j and value <= 0:
                return f"cost[{i + 1}][{j + 1}] must be positive off the diagonal, got {value}"
    return None


class TestFirstBadEntryIsNamed:
    """The validators check whole rows at once; a failing row must still name
    the first bad entry in row-major order, as an entry-by-entry scan does."""

    def test_cost_matrix(self):
        rng = random.Random(47)
        for _ in range(400):
            p = rng.randint(2, 5)
            rows = [[rng.choice((0, 1, 2, -1, Fraction(1, 2))) for _ in range(p)]
                    for _ in range(p)]
            assert first_error(CostMatrix, rows) == entry_by_entry(rows)
            # rows the cost rule accepts: GopInstance names the first
            # nonzero diagonal entry
            rows = [[rng.choice((0, 0, 1, Fraction(1, 2))) if i == j
                     else rng.choice((1, 2, Fraction(1, 2))) for j in range(p)]
                    for i in range(p)]
            inst = SortInstance(tuple((k,) for k in range(p)))
            bad = [k for k in range(p) if rows[k][k] != 0]
            expected = (f"cost[{bad[0] + 1}][{bad[0] + 1}] must be 0 on the diagonal, "
                        f"got {rows[bad[0]][bad[0]]}" if bad else None)
            assert first_error(GopInstance, inst, CostMatrix(rows)) == expected

    @pytest.mark.parametrize("make, name", [(TransferMatrix, "transfer"),
                                            (AssignmentProblem, "weights")])
    def test_negative_entries(self, make, name):
        rng = random.Random(53)
        for _ in range(200):
            p = rng.randint(1, 5)
            rows = [[rng.choice((0, 3, -1, Fraction(-1, 3))) for _ in range(p)]
                    for _ in range(p)]
            bad = [(i, j) for i in range(p) for j in range(p) if rows[i][j] < 0]
            expected = (f"{name}[{bad[0][0] + 1}][{bad[0][1] + 1}] is negative: "
                        f"{rows[bad[0][0]][bad[0][1]]}" if bad else None)
            assert first_error(make, rows) == expected

    def test_mixed_rows_convert_entry_by_entry(self):
        m = TransferMatrix([[1, 0.5], [Fraction(4, 2), 3]])
        assert m.entries == ((1, Fraction(1, 2)), (2, 3))
        assert type(m.entries[1][0]) is int
        with pytest.raises(InstanceError, match="booleans"):
            TransferMatrix([[1, True], [0, 1]])


class TestSortInstance:
    def test_basic(self):
        inst = SortInstance(((3, 1), (2,)))
        assert inst.p == 2
        assert inst.n == 3
        assert inst.values() == (1, 2, 3)

    def test_rejects_duplicates(self):
        with pytest.raises(InstanceError, match="duplicate element 2"):
            SortInstance(((1, 2), (2, 3)))

    def test_rejects_single_machine(self):
        with pytest.raises(InstanceError):
            SortInstance(((1, 2),))

    def test_rejects_non_integers(self):
        with pytest.raises(InstanceError):
            SortInstance(((1.5, 2), (3,)))

    def test_names_the_first_bad_element(self):
        assert (first_error(SortInstance, ((1, 2), (3, True), (2, "x")))
                == "subset 2 holds a non-integer value: True")
        assert (first_error(SortInstance, ((1, 2), (3, 4), (4, 1)))
                == "duplicate element 4 (subset 3); elements must be distinct")

    def test_int_subclasses_other_than_bool_pass(self):
        Rank = IntEnum("Rank", "LOW HIGH")
        assert SortInstance(((Rank.LOW, 5), (Rank.HIGH,))).n == 3

    def test_negative_values(self):
        assert SortInstance(((-5, 0), (-1, 3))).values() == (-5, -1, 0, 3)
        assert (first_error(SortInstance, ((-5, -1), (0, -5)))
                == "duplicate element -5 (subset 2); elements must be distinct")

    def test_duplicates_in_different_subsets(self):
        assert (first_error(SortInstance, ((1, 9), (4,), (2, 9)))
                == "duplicate element 9 (subset 3); elements must be distinct")
        assert (first_error(SortInstance, ((7,), (3, 5), (), (5, 7)))
                == "duplicate element 5 (subset 4); elements must be distinct")

    def test_marks_serve_spans_up_to_32_values_an_element(self, monkeypatch):
        sizes = bytearray_sizes(monkeypatch)
        # n = 3: [-10, 85] holds 96 = 32 * 3 values, [-10, 86] one more
        for hi, expected in ((85, [96]), (86, [])):
            sizes.clear()
            assert SortInstance(((-10, 0), (hi,))).n == 3
            assert sizes == expected
            sizes.clear()
            assert (first_error(SortInstance, ((-10, hi), (hi,)))
                    == f"duplicate element {hi} (subset 2); elements must be distinct")
            assert sizes == expected

    def test_values_near_10_to_the_30(self, monkeypatch):
        sizes = bytearray_sizes(monkeypatch)
        big = 10 ** 30
        assert SortInstance(((big, -big), (big + 1,))).n == 3
        assert (first_error(SortInstance, ((big, -big), (big + 1, big)))
                == f"duplicate element {big} (subset 2); elements must be distinct")
        assert sizes == []
        # a narrow span takes the marks wherever it lies
        assert SortInstance(((big, big + 2), (big + 1,))).n == 3
        assert sizes == [3]

    def test_gop_from_json_holds_no_set_of_the_values(self):
        # CPython 3.11.7: 6.8 MB with a set of the 10^5 values, 1.8 MB with marks
        data = json.loads(json.dumps(gop_to_json(gen_gop(10 ** 5, 4, 1))))
        assert traced_peak(gop_from_json, data) <= 3 * 10 ** 6


class TestGraphDuplicateMarks:
    def test_the_bitmap_serves_up_to_512_keys_an_edge(self, monkeypatch):
        sizes = bytearray_sizes(monkeypatch)
        # width 32: 32**2 == 512 * 2 keys take 128 bytes; width 33 the dict
        for n, expected in ((31, [128]), (32, [])):
            sizes.clear()
            assert Graph(n, ((1, n, 1), (2, 3, 1))).n_edges == 2
            assert sizes == expected
            sizes.clear()
            assert (first_error(Graph, n, ((1, n, 1), (n, 1, 1)))
                    == f"duplicate undirected edge ({n},1)")
            assert sizes == expected

    def test_a_wide_graph_keeps_only_the_marked_bytes(self, monkeypatch):
        made = []

        def recording(factory):
            made.append(defaultdict(factory))
            return made[-1]

        monkeypatch.setattr(core, "defaultdict", recording)
        n = 10 ** 30
        edges = ((1, n, 1), (n - 1, 2, 1), (2, 3, 1))
        assert Graph(n, edges).edges == edges
        expected = defaultdict(int)
        for u, v, _ in edges:
            key = min(u, v) * (n + 1) + max(u, v)
            expected[key >> 3] |= 1 << (key & 7)
        assert made == [expected] and all(made[0].values())

    def test_duplicates_on_the_edge_bits_of_a_byte_and_the_largest_key(self):
        n = 10
        complete = [(u, v, u + v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        assert Graph(n, complete).edges == tuple(complete)
        # keys u * 11 + v: 16 is bit 0 of byte 2, 15 bit 7 of byte 1, and
        # 109 = (n - 1) * (n + 1) + n the largest
        for u, v, key in ((1, 5, 16), (1, 4, 15), (9, 10, 109)):
            assert u * (n + 1) + v == key
            assert (first_error(Graph, n, complete + [(v, u, 1)])
                    == f"duplicate undirected edge ({v},{u})")
            assert (first_error(Graph, n, [(u, v, 1), (2, 3, 1), (u, v, 2)])
                    == f"duplicate undirected edge ({u},{v})")

    def test_graph_from_json_holds_no_set_of_the_keys(self):
        # CPython 3.11.7: 14.0 MB with a set of the 92,681 keys, 8.0 MB with
        # the bitmap, most of it the edge tuples of the graph itself
        data = json.loads(json.dumps(graph_to_json(gen_graph(2048, 92681, 1))))
        assert traced_peak(graph_from_json, data) <= 9 * 10 ** 6


class TestGraphKeepsPlainEdges:
    def test_a_plain_int_tuple_is_kept(self):
        edges = ((1, 2, 5), (2, 3, 10 ** 30))
        graph = Graph(3, edges)
        assert all(kept is given for kept, given in zip(graph.edges, edges, strict=True))

    def test_any_other_edge_is_built_anew(self):
        class Edge(tuple):
            pass

        class Weight(IntEnum):
            TWO = 2

        given = [[1, 2, 5], Edge((2, 3, 4)), (3, 4, Fraction(6, 3)), (1, 4, 0.5),
                 (1, 3, Weight.TWO)]
        graph = Graph(4, given)
        assert graph.edges == ((1, 2, 5), (2, 3, 4), (3, 4, 2), (1, 4, Fraction(1, 2)),
                               (1, 3, 2))
        for kept, edge in zip(graph.edges, given, strict=True):
            assert type(kept) is tuple and kept is not edge
        assert type(graph.edges[2][2]) is int and graph.edges[4][2] is Weight.TWO


def bytearray_sizes(monkeypatch) -> list[int]:
    """The sizes of the bytearrays ``core`` makes, recorded as it makes them."""
    sizes = []

    def recording(size):
        sizes.append(size)
        return bytearray(size)

    monkeypatch.setattr(core, "bytearray", recording, raising=False)
    return sizes


def traced_peak(build, *args) -> int:
    """The peak bytes ``tracemalloc`` sees while ``build(*args)`` runs."""
    tracemalloc.start()
    try:
        build(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


UNIT_COST = CostMatrix([[0, 1], [1, 0]])


class TestDrpCost:
    def test_identity_moves_everything(self):
        t = TransferMatrix([[0, 5], [3, 0]])
        assert drp_cost(t, UNIT_COST, Assignment.identity(2)) == 8

    def test_swap_moves_nothing(self):
        t = TransferMatrix([[0, 5], [3, 0]])
        assert drp_cost(t, UNIT_COST, Assignment((2, 1))) == 0

    def test_diagonal_transfer_is_free(self):
        t = TransferMatrix([[4, 0], [0, 9]])
        c = CostMatrix([[0, 7], [2, 0]])
        assert drp_cost(t, c, Assignment.identity(2)) == 0

    def test_dimension_mismatch(self):
        t = TransferMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        with pytest.raises(InstanceError, match="dimension mismatch"):
            drp_cost(t, UNIT_COST, Assignment.identity(3))

    def test_zero_when_every_destination_is_its_holder(self):
        rng = random.Random(7)
        for _ in range(50):
            p = rng.randint(2, 5)
            perm = list(range(1, p + 1))
            rng.shuffle(perm)
            # put column j's mass only on the machine that will host it
            t = [[0] * p for _ in range(p)]
            for j in range(p):
                t[perm[j] - 1][j] = rng.randint(0, 9)
            c = [[0 if i == j else rng.randint(1, 9) for j in range(p)]
                 for i in range(p)]
            assert drp_cost(TransferMatrix(t), CostMatrix(c), Assignment(tuple(perm))) == 0

    def test_permutation_covariance(self):
        rng = random.Random(11)
        for _ in range(50):
            p = rng.randint(2, 5)
            t = [[rng.randint(0, 9) for _ in range(p)] for _ in range(p)]
            c = [[0 if i == j else rng.randint(1, 9) for j in range(p)]
                 for i in range(p)]
            mapping = list(range(1, p + 1))
            rng.shuffle(mapping)
            sigma = list(range(1, p + 1))
            rng.shuffle(sigma)
            t2 = [[0] * p for _ in range(p)]
            c2 = [[0] * p for _ in range(p)]
            for i in range(p):
                for j in range(p):
                    t2[sigma[i] - 1][j] = t[i][j]
                    c2[sigma[i] - 1][sigma[j] - 1] = c[i][j]
            relabeled = Assignment(tuple(sigma[m - 1] for m in mapping))
            base = drp_cost(TransferMatrix(t), CostMatrix(c), Assignment(tuple(mapping)))
            moved = drp_cost(TransferMatrix(t2), CostMatrix(c2), relabeled)
            assert base == moved

    def test_cost_scaling_is_linear(self):
        rng = random.Random(13)
        for _ in range(30):
            p = rng.randint(2, 4)
            t = [[rng.randint(0, 9) for _ in range(p)] for _ in range(p)]
            c = [[0 if i == j else rng.randint(1, 9) for j in range(p)]
                 for i in range(p)]
            lam = Fraction(rng.randint(1, 12), rng.randint(1, 4))
            scaled = [[v * lam for v in row] for row in c]
            mapping = list(range(1, p + 1))
            rng.shuffle(mapping)
            a = Assignment(tuple(mapping))
            assert (drp_cost(TransferMatrix(t), CostMatrix(scaled), a)
                    == lam * drp_cost(TransferMatrix(t), CostMatrix(c), a))


class TestDerive:
    def test_split_in_place(self):
        t, loads = derive_transfer_and_load(SortInstance(((1, 2), (3, 4))), (2,))
        assert t.entries == ((2, 0), (0, 2))
        assert loads == (2, 2)

    def test_split_reversed_data(self):
        t, loads = derive_transfer_and_load(SortInstance(((3, 4), (1, 2))), (2,))
        assert t.entries == ((0, 2), (2, 0))
        assert loads == (2, 2)

    def test_top_splitters_load_shape(self):
        # splitters at the p-1 largest elements: the first interval keeps
        # everything up to and including the smallest splitter, the last
        # half-open interval above the maximum is empty
        inst = SortInstance(((1, 2, 3), (4, 5, 6), (7, 8), (9, 10)))
        _, loads = derive_transfer_and_load(inst, (8, 9, 10))
        assert loads == (8, 1, 1, 0)
        assert sum(loads) == inst.n

    def test_loads_conserve_elements(self):
        rng = random.Random(17)
        for _ in range(40):
            p = rng.randint(2, 4)
            n = rng.randint(p, 20)
            values = rng.sample(range(1, 200), n)
            subsets = [[] for _ in range(p)]
            for v in values:
                subsets[rng.randrange(p)].append(v)
            inst = SortInstance(tuple(map(tuple, subsets)))
            splitters = tuple(sorted(rng.sample(range(1, 200), p - 1)))
            transfer, loads = derive_transfer_and_load(inst, splitters)
            assert sum(loads) == n
            assert loads == transfer.column_sums()

    def test_rejects_bad_splitters(self):
        inst = SortInstance(((1, 2), (3, 4)))
        with pytest.raises(InstanceError, match="ascending"):
            derive_transfer_and_load(SortInstance(((1,), (2,), (3,))), (3, 2))
        with pytest.raises(InstanceError, match="expected 1 splitters"):
            derive_transfer_and_load(inst, (1, 2))


class TestSortIoTerm:
    def test_small_loads_cost_nothing(self):
        assert sort_io_term((0, 1)) == 0.0

    def test_single_load(self):
        assert sort_io_term((4,)) == 8.0


def test_gop_solution_holds_to_the_splitter_rule():
    for splitters in ((), (1, 2)):
        with pytest.raises(InstanceError,
                           match=f"expected 1 splitters for p=2, got {len(splitters)}"):
            GopSolution(splitters, Assignment.identity(2), 0, 0.0)
    with pytest.raises(InstanceError, match="not strictly ascending"):
        GopSolution((2, 1), Assignment.identity(3), 0, 0.0)


class TestGopObjective:
    def test_balanced_identity(self):
        s = gop_objective(GopInstance(SortInstance(((1, 2), (3, 4))), UNIT_COST), (2,),
                          Assignment.identity(2))
        assert s.comm_cost == 0
        assert s.io_cost == 2.0
        assert s.total_cost == 2.0

    def test_reversed_data_fixed_by_swap(self):
        s = gop_objective(GopInstance(SortInstance(((3, 4), (1, 2))), UNIT_COST), (2,),
                          Assignment((2, 1)))
        assert s.comm_cost == 0
        assert s.total_cost == 2.0

    def test_single_interval_costs_n_log_n(self):
        inst = SortInstance(((1, 2, 3, 4), (5, 6, 7, 8)))
        s = gop_objective(GopInstance(inst, UNIT_COST), (8,), Assignment.identity(2))
        assert s.io_cost == 8 * 3.0  # n log2 n with n = 8

    @pytest.mark.parametrize("splitters", [(2.0,), (Fraction(2),), (True,)])
    def test_rejects_splitters_that_are_not_ints(self, splitters):
        g = GopInstance(SortInstance(((1, 2), (3, 4))), UNIT_COST)
        with pytest.raises(InstanceError, match="is not an integer"):
            gop_objective(g, splitters, Assignment.identity(2))
        with pytest.raises(InstanceError, match="is not an integer"):
            GopSolution(splitters, Assignment.identity(2), 0, 0.0)

    def test_rejects_foreign_splitter(self):
        with pytest.raises(InstanceError, match="not an element"):
            gop_objective(GopInstance(SortInstance(((1, 2), (3, 4))), UNIT_COST), (5,),
                          Assignment.identity(2))
