import heapq
import math
from bisect import bisect_left
from fractions import Fraction

import pytest

from parcost import iosim
from parcost import (CostMatrix, GopInstance, Graph, InstanceError, IoOptimality,
                     IoReport, ParameterError, SortInstance, TransferMatrix,
                     classify_io_optimality, equal_splitters, io_sort_count, kruskal_serial_io,
                     mm_parallel_io_model, mm_serial_run, nowicki_partition_io,
                     terasort_simulate)
from parcost.bench import gen_gop, gen_graph
from parcost.core import as_exact, derive_transfer_and_load, drp_cost
from parcost.errors import GuardError
from parcost.iosim import (MIN_EPSILON, FractionalMatchingState, Phase, _apportion,
                           _as_epsilon, _iteration_limit)


# Test-only oracle of the interval counts: each record is bisected into its
# interval (s_{j-1}, s_j] on its own, as the package counted before it
# bisected sorted runs, and the loads are the counts' column sums.

def per_record_counts(inst: SortInstance, splitters) -> tuple[TransferMatrix, tuple[int, ...]]:
    p = inst.p
    counts = [[0] * p for _ in range(p)]
    for i, subset in enumerate(inst.subsets):
        for value in subset:
            counts[i][bisect_left(splitters, value)] += 1
    return TransferMatrix(counts), tuple(map(sum, zip(*counts)))


# Test-only oracles: the matching runs as first written, summing every
# vertex's incident Fraction weights afresh on each iteration.

def fraction_mm_serial_run(graph: Graph, epsilon) -> tuple[FractionalMatchingState, IoReport]:
    eps = _as_epsilon(epsilon)
    n = graph.n_vertices
    m = graph.n_edges
    threshold = 1 - 2 * eps
    boost = Fraction(1, 1) / (1 - eps)
    x: list[Fraction] = [Fraction(1, n)] * m
    edge_frozen = [False] * m
    frozen_vertices: set[int] = set()
    incident: dict[int, list[int]] = {v: [] for v in range(1, n + 1)}
    for k, (u, v, _) in enumerate(graph.edges):
        incident[u].append(k)
        incident[v].append(k)

    phases: list[Phase] = []
    load_history: list[Fraction] = []
    limit = _iteration_limit(n, eps)
    iteration = 0
    while not all(edge_frozen):
        iteration += 1
        if iteration > limit:
            raise RuntimeError("matching run failed to terminate within its bound")
        active_now = m - sum(edge_frozen)
        # freeze pass, on the weights as they stand at the scan
        newly = [v for v in range(1, n + 1)
                 if v not in frozen_vertices
                 and sum(x[k] for k in incident[v]) >= threshold]
        for v in newly:
            frozen_vertices.add(v)
            for k in incident[v]:
                edge_frozen[k] = True
        # boost pass on the survivors
        for k in range(m):
            if not edge_frozen[k]:
                x[k] *= boost
        phases.append((f"iteration {iteration}", active_now, 0))
        load_history.append(max(sum(x[k] for k in incident[v])
                                for v in range(1, n + 1)))

    state = FractionalMatchingState(
        x=tuple(as_exact(v) for v in x),
        frozen_vertices=frozenset(frozen_vertices),
        epsilon=eps,
    )
    extras = {"max_vertex_load_per_iteration": tuple(load_history)}
    return state, IoReport(phases, extras)


def fraction_mm_parallel_io_model(graph: Graph, epsilon) -> IoReport:
    eps = _as_epsilon(epsilon)
    n = graph.n_vertices
    threshold = 1 - 2 * eps
    boost = Fraction(1, 1) / (1 - eps)
    weight: dict[frozenset[int], Fraction] = {
        frozenset((u, v)): Fraction(1, n) for u, v, _ in graph.edges}
    frozen_vertices: set[int] = set()
    frozen_pairs: set[frozenset[int]] = set()

    def active_pairs() -> list[frozenset[int]]:
        return [frozenset((u, v)) for u, v, _ in graph.edges
                if u not in frozen_vertices and v not in frozen_vertices]

    phases: list[Phase] = []
    limit = _iteration_limit(n, eps)
    iteration = 0
    while len(frozen_pairs) < graph.n_edges:
        iteration += 1
        if iteration > limit:
            raise RuntimeError("matching model failed to terminate within its bound")
        phases.append((f"iteration {iteration}", len(active_pairs()), 0))
        loads = {v: Fraction(0) for v in range(1, n + 1)}
        for u, v, _ in graph.edges:
            w = weight[frozenset((u, v))]
            loads[u] += w
            loads[v] += w
        for v in range(1, n + 1):
            if v not in frozen_vertices and loads[v] >= threshold:
                frozen_vertices.add(v)
        for u, v, _ in graph.edges:
            pair = frozenset((u, v))
            if pair not in frozen_pairs and (u in frozen_vertices or v in frozen_vertices):
                frozen_pairs.add(pair)
        for pair in active_pairs():
            weight[pair] *= boost
    return IoReport(phases)


# Test-only oracle: TeraSort as first written, pushing every record through
# its receiver's buffer, sorting each spilled run and heap-merging the runs.

def buffer_terasort_simulate(
        g: GopInstance, memory: int) -> tuple[tuple[tuple[int, ...], ...], IoReport]:
    inst, cost = g.inst, g.cost
    p, n = inst.p, inst.n
    sample_size = min(memory, n)
    if sample_size < p:
        raise InstanceError(
            f"main memory {memory} cannot hold one sample record per machine (p={p})")

    local = [tuple(sorted(s)) for s in inst.subsets]
    quotas = _apportion(sample_size, [len(s) for s in local])
    sample: list[int] = []
    for data, quota in zip(local, quotas):
        if quota:
            sample.extend(data[(2 * k + 1) * len(data) // (2 * quota)]
                          for k in range(quota))
    sample.sort()
    splitters = tuple(sample[(k * sample_size) // p - 1] for k in range(1, p))

    io_sample = sample_size
    comm_sample = sum(quotas[i] * cost.cost(i + 1, 1) for i in range(p) if i != 0)
    comm_broadcast = sum((p - 1) * cost.cost(1, j) for j in range(2, p + 1))
    phase1: Phase = ("sample-and-split", io_sample,
                     as_exact(comm_sample + comm_broadcast))

    transfer, _ = per_record_counts(inst, splitters)
    comm_shuffle = sum(transfer.amount(i, j) * cost.cost(i, j)
                       for i in range(1, p + 1) for j in range(1, p + 1))
    spills = 0
    buffers: list[list[int]] = [[] for _ in range(p)]
    runs: list[list[tuple[int, ...]]] = [[] for _ in range(p)]
    for src in range(p):
        for value in local[src]:
            dest = bisect_left(splitters, value)
            buf = buffers[dest]
            if len(buf) == memory:
                runs[dest].append(tuple(sorted(buf)))
                spills += memory
                buf.clear()
            buf.append(value)
    phase2: Phase = ("redistribute", spills, as_exact(comm_shuffle))

    io_merge = 0
    outputs: list[tuple[int, ...]] = []
    for j in range(p):
        io_merge += sum(len(run) for run in runs[j])
        outputs.append(tuple(heapq.merge(*runs[j], sorted(buffers[j]))))
    phase3: Phase = ("local-merge", io_merge, 0)

    report = IoReport(
        (phase1, phase2, phase3),
        extras={"splitters": splitters, "sample_size": sample_size},
    )
    return tuple(outputs), report


def assert_matching_runs_match_oracles(graph: Graph, epsilon) -> None:
    state, report = mm_serial_run(graph, epsilon)
    expected_state, expected = fraction_mm_serial_run(graph, epsilon)
    assert state.x == expected_state.x
    assert state.frozen_vertices == expected_state.frozen_vertices
    assert report.phases == expected.phases
    assert report.extras == expected.extras
    # repr-identical, not just equal: a Fraction(1, 1) must not become 1
    assert repr((state, report)) == repr((expected_state, expected))
    assert (mm_parallel_io_model(graph, epsilon).phases
            == fraction_mm_parallel_io_model(graph, epsilon).phases)


def oracle_graphs() -> list[Graph]:
    """Single edge, stars, paths, complete graphs, graphs with isolated
    vertices and random graphs up to n = 200."""
    graphs = [Graph(2, ((1, 2, 1),))]
    for n in range(3, 11):
        graphs.append(Graph(n, tuple((1, v, 1) for v in range(2, n + 1))))
        graphs.append(Graph(n, tuple((v, v + 1, 1) for v in range(1, n))))
    for n in range(3, 9):
        graphs.append(Graph(n, tuple((u, v, 1) for u in range(1, n + 1)
                                     for v in range(u + 1, n + 1))))
        # the same complete graph and a path, each beside isolated vertices
        graphs.append(Graph(n + 3, tuple((u, v, 1) for u in range(2, n + 1)
                                         for v in range(u + 1, n + 1))))
        graphs.append(Graph(2 * n, tuple((v, v + 2, 1) for v in range(1, n, 2))))
    for seed in range(75):
        n = 2 + seed % 39
        graphs.append(gen_graph(n, min(n * (n - 1) // 2, 1 + seed % 3 * n), seed))
    for n in (100, 200):
        graphs.append(gen_graph(n, 2 * n, n))
    return graphs


@pytest.mark.parametrize("epsilon", [Fraction(1, 10), Fraction(1, 7),
                                     Fraction(3, 10), Fraction(49, 100)])
def test_matching_runs_match_fraction_oracles(epsilon):
    graphs = oracle_graphs()
    assert len(graphs) >= 100
    for graph in graphs:
        assert_matching_runs_match_oracles(graph, epsilon)


@pytest.mark.parametrize("epsilon", [Fraction(1, 10), Fraction(1, 7),
                                     Fraction(3, 10), Fraction(49, 100)])
def test_last_recorded_load_is_the_final_maximum_vertex_load(epsilon):
    # sim-mm prints this entry as the run's max_vertex_load
    for graph in oracle_graphs():
        state, report = mm_serial_run(graph, epsilon)
        loads = [Fraction(0)] * (graph.n_vertices + 1)
        for (u, v, _), x in zip(graph.edges, state.x):
            loads[u] += x
            loads[v] += x
        assert Fraction(report.extras["max_vertex_load_per_iteration"][-1]) == max(loads)


class TestIoSortCount:
    def test_empty(self):
        assert io_sort_count(0, 16) == 0

    def test_fits_in_memory(self):
        for records, memory in ((8, 16), (1, 2), (16, 16)):
            assert io_sort_count(records, memory) == records

    def test_multi_pass(self):
        assert io_sort_count(1000, 10) == 3000

    def test_exact_power_boundary(self):
        assert io_sort_count(100, 10) == 200
        assert io_sort_count(101, 10) == 303

    def test_monotone(self):
        for m in (2, 5, 30):
            prev = 0
            for n in range(0, 200, 7):
                cur = io_sort_count(n, m)
                assert cur >= prev
                prev = cur
        for n in (50, 500):
            prev = io_sort_count(n, 2)
            for m in (3, 5, 10, 100, 1000):
                cur = io_sort_count(n, m)
                assert cur <= prev
                prev = cur

    def test_rejects_bad_parameters(self):
        with pytest.raises(ParameterError):
            io_sort_count(-1, 10)
        with pytest.raises(ParameterError):
            io_sort_count(10, 1)


class TestKruskalSerialIo:
    def test_empty(self):
        assert kruskal_serial_io(0, 10) == 0

    def test_model_value(self):
        assert kruskal_serial_io(1000, 10) == 4000

    def test_all_in_memory_is_two_scans(self):
        assert kruskal_serial_io(500, 500) == 1000

    def test_checks_as_the_sort_does(self):
        # no edge count is exempt from the memory check, 0 included
        with pytest.raises(ParameterError, match="memory must be >= 2, got 1"):
            kruskal_serial_io(0, 1)
        with pytest.raises(ParameterError, match="record count must be >= 0, got -1"):
            kruskal_serial_io(-1, 10)


class TestGraph:
    def test_rejects_duplicates_and_loops(self):
        with pytest.raises(InstanceError, match="duplicate"):
            Graph(3, ((1, 2, 1), (2, 1, 4)))
        with pytest.raises(InstanceError, match="self-loop"):
            Graph(3, ((2, 2, 1),))
        with pytest.raises(InstanceError, match="out of range"):
            Graph(3, ((1, 4, 1),))

    def test_vertices_must_be_ints(self):
        for n in (3.0, "3", True):
            with pytest.raises(InstanceError, match="n_vertices must be an integer"):
                Graph(n, ((1, 2, 1),))
        for edge in ((1.5, 2, 1), (1, 2.0, 1), (True, 2, 1), ("1", 2, 1)):
            with pytest.raises(InstanceError, match="edge 2 endpoints .* integers"):
                Graph(3, ((2, 3, 1), edge))


class TestNowickiPartition:
    def test_single_group_reads_each_edge_once(self):
        g = gen_graph(8, 8, seed=2)
        report = nowicki_partition_io(g)
        assert report.extras["groups"] == 1
        assert report.total_io == 8

    def test_star_graph(self):
        star = Graph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)))
        report = nowicki_partition_io(star)
        assert report.extras["groups"] == 1
        assert report.total_io == 3

    def test_random_graph_within_factor_four_of_analytic(self):
        g = gen_graph(100, 2000, seed=5)
        report = nowicki_partition_io(g)
        analytic = report.extras["analytic_io"]
        assert analytic == 2000 * 20
        assert analytic / 4 <= report.total_io <= 4 * analytic

    def test_bucket_accounting(self):
        # the phase list recomputed from scratch: pair (i, j), i <= j, scans
        # every edge whose smaller endpoint group is i
        graphs = [
            gen_graph(10, 10, seed=4),                             # m <= n
            Graph(12, tuple((1, v, 1) for v in range(2, 13))),      # a star
            Graph(12, tuple((u, v, 1) for u in range(1, 13)         # K_12 less an edge
                            for v in range(u + 1, 13) if (u, v) != (3, 7))),
            *(gen_graph(n, m, seed=9)
              for n, m in ((30, 120), (64, 512), (100, 1500), (256, 2048))),
            gen_graph(9, 10, seed=4),                              # two groups, n = m - 1
            Graph(10 ** 30, ((1, 2, 1), (10 ** 30 - 1, 10 ** 30, 1), (5, 10 ** 30, 1))),
            Graph(30, tuple((v, u, w) for u, v, w                  # larger endpoint first
                            in gen_graph(30, 120, seed=9).edges)),
        ]
        group_counts = []
        for g in graphs:
            n = g.n_vertices
            groups = math.ceil(g.n_edges / n)
            # vertex x is in group (x - 1) * groups // n, computed per
            # endpoint so that n = 10^30 needs no table
            bucket_sizes = [sum(min((u - 1) * groups // n, (v - 1) * groups // n) == i
                                for u, v, _ in g.edges)
                            for i in range(groups)]
            report = nowicki_partition_io(g)
            assert report.phases == tuple(
                (f"scan[{i + 1},{j + 1}]", bucket_sizes[i], 0)
                for i in range(groups) for j in range(i, groups))
            assert report.total_io == sum(size * (groups - i)
                                          for i, size in enumerate(bucket_sizes))
            assert report.extras == {"analytic_io": g.n_edges * groups,
                                     "groups": groups}
            group_counts.append(groups)
        assert group_counts == [1, 1, 6, 4, 8, 15, 8, 2, 1, 4]

    def test_rejects_empty_graph_and_bad_memory(self):
        # the graph refuses to be empty; the model takes no memory, which
        # kruskal_serial_io's sort checks
        with pytest.raises(InstanceError, match="graph has no edges"):
            nowicki_partition_io(Graph(4, ()))


class TestMatchingRuns:
    def test_single_edge_trace(self):
        g = Graph(2, ((1, 2, 1),))
        state, report = mm_serial_run(g, Fraction(1, 10))
        assert len(report.phases) == 6
        assert all(io == 1 for _, io, _ in report.phases)
        assert report.total_io == 6
        # weight after five boosts of 10/9 from 1/2
        assert state.x[0] == Fraction(50000, 59049)
        assert state.frozen_vertices == frozenset((1, 2))

    def test_single_edge_immediate_freeze(self):
        g = Graph(2, ((1, 2, 1),))
        state, report = mm_serial_run(g, Fraction(3, 10))
        assert len(report.phases) == 1
        assert report.total_io == 1
        assert state.x[0] == Fraction(1, 2)

    def test_epsilon_range(self):
        g = Graph(2, ((1, 2, 1),))
        for bad in (0, Fraction(1, 2), 1):
            with pytest.raises(ParameterError):
                mm_serial_run(g, bad)
        mm_serial_run(g, Fraction(49, 100))

    def test_epsilon_below_the_floor_is_refused_before_the_run(self):
        # 1/10**4 would build a table of about 7,000 integers of 90k bits,
        # and 1/10**400 made the iteration cap divide by zero
        g = Graph(2, ((1, 2, 1),))
        assert MIN_EPSILON == Fraction(1, 100)
        for run in (mm_serial_run, mm_parallel_io_model):
            run(g, MIN_EPSILON)
            for epsilon in (Fraction(99, 10_000), Fraction(1, 10 ** 4), Fraction(1, 10 ** 400)):
                with pytest.raises(ParameterError, match="epsilon must be at least 1/100"):
                    run(g, epsilon)

    def test_triangle_loads_never_exceed_one(self):
        g = Graph(3, ((1, 2, 1), (2, 3, 1), (1, 3, 1)))
        state, report = mm_serial_run(g, Fraction(1, 10))
        for load in report.extras["max_vertex_load_per_iteration"]:
            assert load <= 1
        for v in (1, 2, 3):
            assert state.vertex_load(g, v) <= 1

    def test_active_counts_never_increase(self):
        g = gen_graph(20, 40, seed=3)
        _, report = mm_serial_run(g, Fraction(1, 10))
        ios = [io for _, io, _ in report.phases]
        assert all(a >= b for a, b in zip(ios, ios[1:]))

    def test_parallel_model_matches_serial(self):
        for n, m, seed in ((10, 15, 1), (25, 60, 2), (40, 100, 3)):
            g = gen_graph(n, m, seed=seed)
            _, serial = mm_serial_run(g, Fraction(1, 10))
            parallel = fraction_mm_parallel_io_model(g, Fraction(1, 10))
            assert serial.phases == parallel.phases
            assert serial.total_io == parallel.total_io

    def test_termination_bound(self):
        for n, m, seed in ((30, 60, 4), (60, 120, 5)):
            g = gen_graph(n, m, seed=seed)
            _, report = mm_serial_run(g, Fraction(1, 10))
            bound = math.ceil(math.log(n) / math.log(10 / 9)) + 1
            assert len(report.phases) <= bound


def uniform_cost(p):
    return CostMatrix([[0 if i == j else 1 for j in range(p)] for i in range(p)])


class TestTerasort:
    def test_everything_fits_in_memory(self):
        inst = SortInstance((tuple(range(1, 9)), tuple(range(9, 17))))
        outputs, report = terasort_simulate(GopInstance(inst, uniform_cost(2)), 16)
        labels = [label for label, _, _ in report.phases]
        assert labels == ["sample-and-split", "redistribute", "local-merge"]
        assert report.phases[0][1] == 16      # whole input sampled
        assert report.phases[1][1] == 0       # nothing spills
        assert report.phases[2][1] == 0       # nothing to reread
        flat = [v for out in outputs for v in out]
        assert flat == sorted(flat)

    def test_pre_partitioned_input_sends_nothing(self):
        # machine i already owns the i-th quarter; the full-data sample puts
        # the splitters exactly on the block boundaries
        blocks = tuple(tuple(range(1 + 8 * i, 9 + 8 * i)) for i in range(4))
        inst = SortInstance(blocks)
        _, report = terasort_simulate(GopInstance(inst, uniform_cost(4)), 32)
        assert report.phases[1][2] == 0  # redistribution communication

    def test_output_sorted_and_conserved(self):
        g = gen_gop(5000, 4, seed=12)
        outputs, report = terasort_simulate(g, 100)
        flat = [v for out in outputs for v in out]
        assert flat == sorted(g.inst.values())
        assert report.total_io >= 0

    def test_spill_accounting(self):
        # phase 2 writes and phase 3 rereads count the same spilled records
        g = gen_gop(2000, 2, seed=13)
        _, report = terasort_simulate(g, 64)
        assert report.phases[1][1] == report.phases[2][1]
        assert report.phases[1][1] > 0

    def test_determinism(self):
        g = gen_gop(1000, 3, seed=14)
        assert terasort_simulate(g, 50) == terasort_simulate(g, 50)

    def test_dimension_mismatch(self):
        # the instance and its cluster's costs come together, checked once
        g = gen_gop(100, 3, seed=15)
        with pytest.raises(InstanceError, match="dimension mismatch"):
            GopInstance(g.inst, uniform_cost(4))

    def test_full_sample_splits_like_the_approximation(self):
        # a sample of all n records gets the approximation's equal-rank splitters
        for p in (2, 3, 4):
            for seed in range(4):
                g = gen_gop(30 + 7 * seed, p, seed)
                for memory in (g.n, g.n + 5):
                    _, report = terasort_simulate(g, memory)
                    assert report.extras["splitters"] == equal_splitters(g.inst)

    def test_memory_too_small_for_sampling(self):
        g = GopInstance(SortInstance(((1, 2), (3, 4), (5, 6), (7, 8))), uniform_cost(4))
        for memory in (3, 1, 0):
            with pytest.raises(InstanceError, match=f"main memory {memory} cannot hold"):
                terasort_simulate(g, memory)


def terasort_oracle_cases():
    """A grid of n, M and p on random instances and on the same records all
    held by machine 1: M = 2, M = p (the smallest memory that holds the
    sample), M < n, M = n and M > n."""
    for p in (2, 3, 4, 5):
        for n in (p, 9, 40, 150, 500):
            g = gen_gop(n, p, seed=10 * n + p)
            lopsided = GopInstance(SortInstance((g.inst.values(), *((),) * (p - 1))),
                                   g.cost)
            for memory in sorted({2, p, 3, 8, n // 4, n - 1, n, n + 1, 3 * n}):
                if memory >= p:
                    yield g, memory
                    yield lopsided, memory


def test_terasort_matches_buffer_oracle():
    covered = set()
    for g, memory in terasort_oracle_cases():
        outputs, report = terasort_simulate(g, memory)
        assert (outputs, report) == buffer_terasort_simulate(g, memory)
        inst = g.inst
        received = [len(out) for out in outputs]
        # each splitter interval holds its splitter and the last one holds
        # the top sample record, so no receiver ever gets 0 records
        assert min(received) >= 1
        covered.update(
            name for name, hit in (
                ("M = 2", memory == 2), ("M = p", memory == inst.p),
                ("M = n", memory == inst.n), ("M > n", memory > inst.n),
                ("an empty machine", not all(inst.subsets)),
                ("c = kM", any(c >= memory and c % memory == 0 for c in received)),
                ("c = kM + 1", any(c > memory and c % memory == 1 for c in received)),
            ) if hit)
    assert covered == {"M = 2", "M = p", "M = n", "M > n", "an empty machine",
                       "c = kM", "c = kM + 1"}


def test_terasort_counts_each_run_like_derive_transfer_and_load(monkeypatch):
    # terasort_simulate and derive_transfer_and_load both count through
    # core._interval_counts, so each is held to the per-record oracle: the
    # transfer matrix TeraSort prices and the loads it cuts the outputs at
    # must be its counts. The splitters are sample records, so values equal
    # to a splitter are always covered.
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    priced = []

    def recording_drp_cost(transfer, cost, assignment):
        priced.append(transfer)
        return drp_cost(transfer, cost, assignment)

    monkeypatch.setattr(iosim, "drp_cost", recording_drp_cost)

    @st.composite
    def cases(draw):
        p = draw(st.integers(2, 6))
        values = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=p, max_size=200,
                               unique=True))
        owners = draw(st.lists(st.integers(0, p - 1), min_size=len(values),
                               max_size=len(values)))
        subsets = tuple(tuple(v for v, owner in zip(values, owners) if owner == i)
                        for i in range(p))
        costs = [[0 if i == j else draw(st.integers(1, 9)) for j in range(p)]
                 for i in range(p)]
        memory = draw(st.integers(p, 2 * len(values)))
        return GopInstance(SortInstance(subsets), CostMatrix(costs)), memory

    @hypothesis.settings(max_examples=300, deadline=None)
    @hypothesis.given(cases())
    def check(case):
        g, memory = case
        priced.clear()
        outputs, report = terasort_simulate(g, memory)
        splitters = report.extras["splitters"]
        transfer, loads = per_record_counts(g.inst, splitters)
        assert priced == [transfer]
        assert derive_transfer_and_load(g.inst, splitters) == (transfer, loads)
        assert tuple(map(len, outputs)) == loads
        assert report.phases[1][1] == sum(memory * ((c - 1) // memory) for c in loads if c)

    check()


class TestIoReport:
    def test_from_phases(self):
        # the totals are derived from the phases and cannot be set
        report = IoReport((("a", 2, 1), ("b", 3, Fraction(1, 2))))
        assert report.total_io == 5
        assert report.total_comm == Fraction(3, 2)
        assert IoReport((("a", 1, Fraction(1, 2)), ("b", 0, Fraction(1, 2)))).total_comm == 1
        for name in ("total_io", "total_comm"):
            with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
                setattr(report, name, 0)

    @pytest.mark.parametrize("io", [2.7, 3.0, "3", True, Fraction(3)])
    def test_io_counters_must_be_plain_ints(self, io):
        with pytest.raises(InstanceError, match="non-integer IO counter"):
            IoReport((("a", io, 0),))

    def test_negative_counters_are_named(self):
        for phase in (("a", -1, 0), ("a", 1, -1)):
            with pytest.raises(InstanceError, match="phase 'a' has a negative counter"):
                IoReport((phase,))


class TestClassifier:
    def test_super_needs_strictly_less_everywhere(self):
        pairs = [(10, 5, 10), (20, 12, 20), (40, 30, 41)]
        assert classify_io_optimality(pairs) is IoOptimality.SUPER

    def test_constant_ratio_is_optimal(self):
        pairs = [(10, 10, 10), (20, 20, 20), (40, 40, 40)]
        assert classify_io_optimality(pairs) is IoOptimality.OPTIMAL

    def test_growing_ratio_is_non(self):
        pairs = [(10, 13, 10), (20, 36, 20), (40, 110, 40)]
        assert classify_io_optimality(pairs) is IoOptimality.NON

    def test_mixed_is_inconclusive(self):
        pairs = [(10, 13, 10), (20, 10, 20), (40, 110, 40)]
        assert classify_io_optimality(pairs) is IoOptimality.INCONCLUSIVE

    def test_slow_growth_under_bound_is_inconclusive(self):
        pairs = [(10, 20, 10), (20, 42, 20), (40, 88, 40)]
        assert classify_io_optimality(pairs) is IoOptimality.INCONCLUSIVE

    def test_point_guard(self):
        with pytest.raises(GuardError):
            classify_io_optimality([(10, 1, 2), (20, 1, 2)])

    def test_rejects_unsorted_sizes(self):
        with pytest.raises(ParameterError):
            classify_io_optimality([(10, 1, 2), (10, 1, 2), (20, 1, 2)])

    @pytest.mark.parametrize("parallel, serial", [(-1, 2), (1, 0)])
    def test_rejects_bad_counters(self, parallel, serial):
        with pytest.raises(ParameterError, match="^size 20: counters must satisfy "
                                                 "parallel >= 0 and serial > 0$"):
            classify_io_optimality([(10, 1, 2), (20, parallel, serial), (40, 1, 2)])
