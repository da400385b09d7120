import heapq
import math
from bisect import bisect_left
from fractions import Fraction

import pytest

from parcost import (CostMatrix, ExternalMemoryConfig, Graph, InstanceError,
                     IoOptimality, IoReport, ParameterError, SortInstance,
                     classify_io_optimality, io_sort_count, kruskal_serial_io,
                     mm_parallel_io_model, mm_serial_run, nowicki_partition_io,
                     terasort_simulate)
from parcost.bench import gen_gop, gen_graph
from parcost.core import as_exact, derive_transfer_and_load
from parcost.errors import GuardError
from parcost.iosim import (FractionalMatchingState, Phase, _apportion,
                           _as_epsilon, _iteration_limit)


# Test-only oracles: the matching runs as first written, summing every
# vertex's incident Fraction weights afresh on each iteration.

def fraction_mm_serial_run(graph: Graph, epsilon) -> tuple[FractionalMatchingState, IoReport]:
    eps = _as_epsilon(epsilon)
    if graph.n_edges == 0:
        raise InstanceError("graph has no edges")
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
        frozen_edges=frozenset(k for k in range(m) if edge_frozen[k]),
        epsilon=eps,
    )
    extras = {"max_vertex_load_per_iteration": tuple(load_history)}
    return state, IoReport.from_phases(phases, extras)


def fraction_mm_parallel_io_model(graph: Graph, epsilon) -> IoReport:
    eps = _as_epsilon(epsilon)
    if graph.n_edges == 0:
        raise InstanceError("graph has no edges")
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
    return IoReport.from_phases(phases)


# Test-only oracle: TeraSort as first written, pushing every record through
# its receiver's buffer, sorting each spilled run and heap-merging the runs.

def buffer_terasort_simulate(
        inst: SortInstance, cfg: ExternalMemoryConfig,
        cost: CostMatrix) -> tuple[tuple[tuple[int, ...], ...], IoReport]:
    p = inst.p
    if cfg.machines != p or cost.p != p:
        raise InstanceError(
            f"dimension mismatch: instance p={p}, config machines={cfg.machines}, "
            f"cost p={cost.p}")
    n = inst.n
    if n == 0:
        raise InstanceError("no records to sort")
    memory = cfg.main_memory
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

    transfer, _ = derive_transfer_and_load(inst, splitters)
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

    report = IoReport.from_phases(
        (phase1, phase2, phase3),
        extras={"splitters": splitters, "sample_size": sample_size},
    )
    return tuple(outputs), report


def assert_matching_runs_match_oracles(graph: Graph, epsilon) -> None:
    state, report = mm_serial_run(graph, epsilon)
    expected_state, expected = fraction_mm_serial_run(graph, epsilon)
    assert state.x == expected_state.x
    assert state.frozen_vertices == expected_state.frozen_vertices
    assert state.frozen_edges == expected_state.frozen_edges
    assert report.phases == expected.phases
    assert report.extras == expected.extras
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
        assert io_sort_count(8, 16) == 8

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
        report = nowicki_partition_io(g, 8)
        assert report.extras["groups"] == 1
        assert report.total_io == 8

    def test_star_graph(self):
        star = Graph(4, ((1, 2, 1), (1, 3, 1), (1, 4, 1)))
        report = nowicki_partition_io(star, 4)
        assert report.extras["groups"] == 1
        assert report.total_io == 3

    def test_random_graph_within_factor_four_of_analytic(self):
        g = gen_graph(100, 2000, seed=5)
        report = nowicki_partition_io(g, 100)
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
        ]
        group_counts = []
        for g in graphs:
            groups = math.ceil(g.n_edges / g.n_vertices)
            group = {v: (v - 1) * groups // g.n_vertices
                     for v in range(1, g.n_vertices + 1)}
            bucket_sizes = [sum(min(group[u], group[v]) == i for u, v, _ in g.edges)
                            for i in range(groups)]
            report = nowicki_partition_io(g, g.n_vertices)
            assert report.phases == tuple(
                (f"scan[{i + 1},{j + 1}]", bucket_sizes[i], 0)
                for i in range(groups) for j in range(i, groups))
            assert report.total_io == sum(size * (groups - i)
                                          for i, size in enumerate(bucket_sizes))
            assert report.extras == {"analytic_io": g.n_edges * groups,
                                     "groups": groups}
            group_counts.append(groups)
        assert group_counts == [1, 1, 6, 4, 8, 15, 8]

    def test_rejects_empty_graph_and_bad_memory(self):
        with pytest.raises(ParameterError):
            nowicki_partition_io(gen_graph(4, 3, seed=1), 1)
        with pytest.raises(InstanceError):
            nowicki_partition_io(Graph(4, ()), 4)


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
            parallel = mm_parallel_io_model(g, Fraction(1, 10))
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
        outputs, report = terasort_simulate(
            inst, ExternalMemoryConfig(16, 2), uniform_cost(2))
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
        _, report = terasort_simulate(
            inst, ExternalMemoryConfig(32, 4), uniform_cost(4))
        assert report.phases[1][2] == 0  # redistribution communication

    def test_output_sorted_and_conserved(self):
        g = gen_gop(5000, 4, seed=12)
        outputs, report = terasort_simulate(
            g.inst, ExternalMemoryConfig(100, 4), g.cost)
        flat = [v for out in outputs for v in out]
        assert flat == sorted(g.inst.values())
        assert report.total_io >= 0

    def test_spill_accounting(self):
        # phase 2 writes and phase 3 rereads count the same spilled records
        g = gen_gop(2000, 2, seed=13)
        _, report = terasort_simulate(
            g.inst, ExternalMemoryConfig(64, 2), g.cost)
        assert report.phases[1][1] == report.phases[2][1]
        assert report.phases[1][1] > 0

    def test_determinism(self):
        g = gen_gop(1000, 3, seed=14)
        cfg = ExternalMemoryConfig(50, 3)
        assert (terasort_simulate(g.inst, cfg, g.cost)
                == terasort_simulate(g.inst, cfg, g.cost))

    def test_dimension_mismatch(self):
        g = gen_gop(100, 3, seed=15)
        with pytest.raises(InstanceError, match="dimension mismatch"):
            terasort_simulate(g.inst, ExternalMemoryConfig(50, 4), g.cost)

    def test_memory_too_small_for_sampling(self):
        inst = SortInstance(((1, 2), (3, 4), (5, 6), (7, 8)))
        with pytest.raises(InstanceError, match="sample"):
            terasort_simulate(inst, ExternalMemoryConfig(3, 4), uniform_cost(4))


def terasort_oracle_cases():
    """A grid of n, M and p on random instances and on the same records all
    held by machine 1: M = 2, M = p (the smallest memory that holds the
    sample), M < n, M = n and M > n."""
    for p in (2, 3, 4, 5):
        for n in (p, 9, 40, 150, 500):
            g = gen_gop(n, p, seed=10 * n + p)
            lopsided = SortInstance((g.inst.values(), *((),) * (p - 1)))
            for memory in sorted({2, p, 3, 8, n // 4, n - 1, n, n + 1, 3 * n}):
                if memory >= p:
                    cfg = ExternalMemoryConfig(memory, p)
                    yield g.inst, cfg, g.cost
                    yield lopsided, cfg, g.cost


def test_terasort_matches_buffer_oracle():
    covered = set()
    for inst, cfg, cost in terasort_oracle_cases():
        outputs, report = terasort_simulate(inst, cfg, cost)
        assert (outputs, report) == buffer_terasort_simulate(inst, cfg, cost)
        memory = cfg.main_memory
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


class TestIoReport:
    def test_totals_must_match(self):
        with pytest.raises(InstanceError):
            IoReport((("a", 2, 0),), total_io=3, total_comm=0)
        with pytest.raises(InstanceError):
            IoReport((("a", 2, 5),), total_io=2, total_comm=4)

    def test_from_phases(self):
        report = IoReport.from_phases((("a", 2, 1), ("b", 3, Fraction(1, 2))))
        assert report.total_io == 5
        assert report.total_comm == Fraction(3, 2)


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
