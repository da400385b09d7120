"""Property-based checks of the assignment, exact redistribution and exact
splitter solvers against their brute-force oracles, of the collapsed
redistribution weights against their definition and the scatter loop they
replaced, of the sorting-IO term against its definition, of the matching
runs against their Fraction oracles and of the serial run against its
cached form, of the IO simulators' invariants, of the interval counts of
``derive_transfer_and_load`` and ``gop_solve_approx`` against the
per-record count they replaced, of the instance JSON round
trip, of ``bench._sample_range`` against ``Random.sample``, of ``Graph``'s
edge checks against the tuple-keyed and the set-keyed loops they replaced,
of ``SortInstance``'s element checks against a loop over a set of the
elements and of the CLI's graph parse against the plain ``json.loads``."""

import argparse
import io
import json
import math
import random
import sys
from fractions import Fraction
from itertools import permutations

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from parcost import (Assignment, AssignmentProblem, CostMatrix, DrpInstance,  # noqa: E402
                     GopInstance, Graph, InstanceError, IoReport, SortInstance, TransferMatrix, TspFbInstance, drp_brute, drp_cost, drp_solve_approx,
                     drp_solve_exact, gop_objective, gop_solve_approx, gop_solve_exact,
                     GopSolution, derive_transfer_and_load, equal_splitters,
                     lap_brute, lap_solve, ratio_bound, sort_io_term, terasort_simulate,
                     tspfb_to_drp)
from parcost.bench import (_sample_range, drp_from_json, drp_to_json,  # noqa: E402
                           dumps_canonical, gen_tspfb, gop_from_json, gop_to_json,
                           graph_from_json, graph_to_json, tspfb_from_json,
                           tspfb_to_json)
from parcost.cli import _read_json  # noqa: E402
from parcost.core import as_exact  # noqa: E402
from parcost.drp import _assignment_weights  # noqa: E402
from parcost.iosim import (FractionalMatchingState, _as_epsilon,  # noqa: E402
                           _iteration_limit, mm_serial_run)
from test_acceptance import _oracle_gop  # noqa: E402
from test_iosim import (assert_matching_runs_match_oracles,  # noqa: E402
                        buffer_terasort_simulate, per_record_counts)


@st.composite
def assignment_problems(draw, max_p=7):
    """Square matrices with many tied optima: integer weights in a range of
    0 to 3 (so all-zero matrices too) or fractions with mixed denominators."""
    p = draw(st.integers(1, max_p))
    top = draw(st.integers(0, 3))
    if draw(st.booleans()):
        weight = st.integers(0, top)
    else:
        weight = st.builds(Fraction, st.integers(0, top), st.sampled_from((1, 2, 3)))
    return AssignmentProblem([[draw(weight) for _ in range(p)] for _ in range(p)])


@settings(max_examples=300, deadline=None)
@given(assignment_problems())
def test_lap_solve_matches_brute_mapping_and_cost(prob):
    assert lap_solve(prob) == lap_brute(prob)


@st.composite
def drp_instances(draw, max_p=7):
    """Small instances biased towards ties: link costs in [1, 3] or all equal,
    and some rows and columns carrying no mass at all."""
    p = draw(st.integers(2, max_p))
    empty_rows = draw(st.sets(st.integers(0, p - 1), max_size=p))
    empty_cols = draw(st.sets(st.integers(0, p - 1), max_size=p))
    mass = st.integers(0, draw(st.sampled_from((1, 2, 20))))
    transfer = [[0 if i in empty_rows or j in empty_cols else draw(mass)
                 for j in range(p)] for i in range(p)]
    if draw(st.booleans()):
        link = st.just(draw(st.integers(1, 3)))
    else:
        link = st.integers(1, 3)
    cost = [[0 if i == j else draw(link) for j in range(p)] for i in range(p)]
    return DrpInstance(TransferMatrix(transfer), CostMatrix(cost))


@settings(max_examples=150, deadline=None)
@given(drp_instances())
def test_exact_matches_brute_mapping_and_cost(inst):
    assert drp_solve_exact(inst) == drp_brute(inst)


@settings(max_examples=100, deadline=None)
@given(drp_instances(max_p=5))
def test_collapsed_weights_price_every_mapping_as_drp_cost(inst):
    # drp_brute and drp_solve_exact both solve on the collapse
    w = _assignment_weights(inst)
    for mapping in permutations(range(1, inst.p + 1)):
        assert (sum(w[k - 1][j] for j, k in enumerate(mapping))
                == drp_cost(inst.transfer, inst.cost, Assignment(mapping)))


@example([])
@example([0, 1, 1])
@given(st.lists(st.one_of(st.integers(0, 2), st.integers(0, 10 ** 9)), max_size=8))
def test_sort_io_term_is_the_max_over_all_loads(loads):
    assert sort_io_term(loads) == max(
        (load * math.log2(load) if load > 1 else 0.0 for load in loads), default=0.0)


@settings(deadline=None)
@given(drp_instances(max_p=12))
def test_exact_cost_is_the_mappings_cost(inst):
    assignment, cost = drp_solve_exact(inst)
    assert cost == drp_cost(inst.transfer, inst.cost, assignment)


@settings(deadline=None)
@given(drp_instances(max_p=12))
def test_exact_le_approx_le_bound_times_exact(inst):
    _, exact = drp_solve_exact(inst)
    _, approx = drp_solve_approx(inst)
    assert exact <= approx <= ratio_bound(inst.cost) * exact


@st.composite
def tied_gop_instances(draw):
    """Sort instances whose splitter sets tie often: uniform link costs, or
    costs of 1 and 2, and values that are consecutive or nearly so."""
    p = draw(st.integers(2, 4))
    n = draw(st.integers(p, 9))
    values = draw(st.lists(st.integers(1, n + 2), min_size=n, max_size=n, unique=True))
    owners = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    subsets = tuple(tuple(v for v, o in zip(values, owners) if o == i)
                    for i in range(p))
    if draw(st.booleans()):
        link = st.just(draw(st.integers(1, 3)))
    else:
        link = st.integers(1, 2)
    cost = [[0 if i == j else draw(link) for j in range(p)] for i in range(p)]
    return GopInstance(SortInstance(subsets), CostMatrix(cost))


@settings(max_examples=150, deadline=None)
@given(tied_gop_instances())
def test_gop_exact_matches_oracle_under_ties(g):
    # the skipped splitter sets must not change which tie wins
    solution = gop_solve_exact(g, work_guard=10 ** 6)
    assert ((solution.total_cost, solution.splitters, solution.assignment.mapping)
            == _oracle_gop(g.inst, g.cost.entries))


@st.composite
def fraction_gop_instances(draw):
    """Sort instances with n <= 8 on p <= 3 machines and Fraction link costs
    of small denominators, so that many interval sums are whole."""
    p = draw(st.integers(2, 3))
    n = draw(st.integers(p, 8))
    values = draw(st.lists(st.integers(1, 20), min_size=n, max_size=n, unique=True))
    owners = draw(st.lists(st.integers(0, p - 1), min_size=n, max_size=n))
    subsets = tuple(tuple(v for v, o in zip(values, owners) if o == i)
                    for i in range(p))
    link = st.builds(Fraction, st.integers(1, 6), st.integers(1, 3))
    cost = [[0 if i == j else draw(link) for j in range(p)] for i in range(p)]
    return GopInstance(SortInstance(subsets), CostMatrix(cost))


@settings(max_examples=150, deadline=None)
@given(fraction_gop_instances())
def test_every_gop_comm_cost_is_an_int_exactly_when_whole(g):
    solutions = [gop_solve_exact(g), gop_solve_approx(g),
                 gop_solve_approx(g, exact_assignment=True)]
    solutions += [gop_objective(g, s.splitters, s.assignment) for s in solutions]
    for s in solutions:
        assert (type(s.comm_cost) is int) == (s.comm_cost.denominator == 1), s


@st.composite
def graphs(draw, max_n=9):
    """Small simple graphs with at least one edge, possibly with isolated
    vertices."""
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return Graph(n, tuple((u, v, 1) for u, v in chosen))


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(1, 49).map(lambda a: Fraction(a, 100)))
def test_matching_runs_match_fraction_oracles(graph, epsilon):
    assert_matching_runs_match_oracles(graph, epsilon)


@st.composite
def terasort_runs(draw):
    """Distinct values spread over p machines, some possibly empty, with a
    main memory from the smallest allowed (p records) up to more than n."""
    p = draw(st.integers(2, 5))
    values = draw(st.lists(st.integers(-500, 500), min_size=p, max_size=80,
                           unique=True))
    owners = draw(st.lists(st.integers(0, p - 1), min_size=len(values),
                           max_size=len(values)))
    subsets = tuple(tuple(v for v, o in zip(values, owners) if o == i)
                    for i in range(p))
    memory = draw(st.integers(max(p, 2), len(values) + 5))
    cost = [[0 if i == j else draw(st.integers(1, 9)) for j in range(p)]
            for i in range(p)]
    return GopInstance(SortInstance(subsets), CostMatrix(cost)), memory


@settings(deadline=None)
@given(terasort_runs())
def test_terasort_output_is_a_sorted_permutation(run):
    g, memory = run
    outputs, report = terasort_simulate(g, memory)
    flat = [v for out in outputs for v in out]
    assert flat == sorted(flat)
    assert sorted(flat) == sorted(v for s in g.inst.subsets for v in s)
    assert (outputs, report) == buffer_terasort_simulate(g, memory)


@st.composite
def counted_gop_instances(draw):
    """p 2-6 machines, some possibly empty, holding up to 200 distinct ints
    with negatives, and p - 1 strictly ascending splitters drawn from the
    elements and from the ints around them."""
    p = draw(st.integers(2, 6))
    values = draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=p, max_size=200,
                           unique=True))
    owners = draw(st.lists(st.integers(0, p - 1), min_size=len(values),
                           max_size=len(values)))
    subsets = tuple(tuple(v for v, o in zip(values, owners) if o == i)
                    for i in range(p))
    cost = [[0 if i == j else draw(st.integers(1, 9)) for j in range(p)]
            for i in range(p)]
    splitter = st.one_of(st.sampled_from(values), st.integers(-10 ** 6 - 2, 10 ** 6 + 2))
    splitters = draw(st.lists(splitter, min_size=p - 1, max_size=p - 1, unique=True))
    return GopInstance(SortInstance(subsets), CostMatrix(cost)), tuple(sorted(splitters))


@settings(max_examples=300, deadline=None)
@given(counted_gop_instances())
def test_derive_transfer_and_load_is_the_per_record_count(case):
    g, splitters = case
    assert derive_transfer_and_load(g.inst, splitters) == per_record_counts(g.inst, splitters)


@settings(max_examples=150, deadline=None)
@given(counted_gop_instances(), st.booleans())
def test_gop_solve_approx_is_equal_splitters_then_per_record_counts(case, exact_assignment):
    # the approximation as composed before it counted on sorted runs
    g, _ = case
    splitters = equal_splitters(g.inst)
    transfer, loads = per_record_counts(g.inst, splitters)
    solve = drp_solve_exact if exact_assignment else drp_solve_approx
    assignment, comm = solve(DrpInstance(transfer, g.cost))
    assert (gop_solve_approx(g, exact_assignment=exact_assignment)
            == GopSolution(splitters, assignment, comm, sort_io_term(loads)))


phase_lists = st.lists(st.tuples(
    st.text(max_size=3), st.integers(0, 10 ** 6),
    st.one_of(st.integers(0, 10 ** 6),
              st.fractions(min_value=0, max_denominator=12))), max_size=8)


@given(phase_lists)
def test_io_report_totals_are_the_phase_sums(phases):
    report = IoReport(phases)
    assert report.total_io == sum(io for _, io, _ in phases)
    assert report.total_comm == sum(comm for _, _, comm in phases)
    assert report.phases == tuple(phases)


# Entries that JSON cannot hold as a number without loss (1/3), that it can
# (0.5, 0.1 as the binary fraction it denotes), subnormal and integral floats,
# and fractions too large for a float.
non_negative = st.one_of(
    st.integers(0, 10 ** 20),
    st.fractions(min_value=0, max_denominator=10 ** 6),
    st.floats(min_value=0, allow_infinity=False),
    st.builds(Fraction, st.integers(10 ** 320, 10 ** 330), st.integers(1, 99)))
positive = non_negative.filter(lambda x: x > 0)


@st.composite
def json_instances(draw, max_p=4):
    """One instance of each of the four kinds, with mixed numeric entries."""
    p = draw(st.integers(2, max_p))
    square = [[draw(non_negative if i == j else positive) for j in range(p)]
              for i in range(p)]
    cost = CostMatrix([[0 if i == j else x for j, x in enumerate(row)]
                       for i, row in enumerate(square)])
    transfer = TransferMatrix([[draw(non_negative) for _ in range(p)] for _ in range(p)])
    values = draw(st.lists(st.integers(-50, 50), min_size=p, max_size=12, unique=True))
    subsets = tuple(tuple(values[i::p]) for i in range(p))
    pairs = [(u, v) for u in range(1, p + 2) for v in range(u + 1, p + 2)]
    edges = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
    return (
        (DrpInstance(transfer, cost), drp_to_json, drp_from_json),
        (GopInstance(SortInstance(subsets), cost), gop_to_json, gop_from_json),
        (Graph(p + 1, tuple((u, v, draw(non_negative)) for u, v in edges)),
         graph_to_json, graph_from_json),
        (TspFbInstance(square), tspfb_to_json, tspfb_from_json),
    )


@settings(deadline=None)
@given(json_instances())
def test_instance_json_round_trip_is_exact(instances):
    for inst, to_json, from_json in instances:
        assert from_json(json.loads(dumps_canonical(to_json(inst)))) == inst


def scatter_weights(inst):
    """The collapse as a loop that scatters each nonzero volume over its
    column: w[k][j] += transfer[i][j] * cost[i][k]."""
    p = inst.p
    w = [[0] * p for _ in range(p)]
    for row_t, row_c in zip(inst.transfer.entries, inst.cost.entries):
        for j, volume in enumerate(row_t):
            if volume:
                for k in range(p):
                    w[k][j] += volume * row_c[k]
    return w


@settings(max_examples=200, deadline=None)
@given(st.one_of(
    drp_instances(),
    json_instances().map(lambda instances: instances[0][0]),
    st.builds(lambda n, seed: tspfb_to_drp(gen_tspfb(n, seed)),
              st.integers(3, 9), st.integers(0, 2 ** 32 - 1))))
def test_collapsed_weights_are_the_scattered_sums(inst):
    # zero rows and columns, Fractions and floats, and the sparse 0/1
    # transfers of reduced tours, whose costs have positive diagonals
    assert _assignment_weights(inst) == scatter_weights(inst)


@settings(max_examples=300, deadline=None)
@given(st.data(), st.integers(0, 2 ** 64 - 1))
def test_sample_range_is_sample_on_a_range(data, seed):
    # sizes to 3000 reach both branches: k <= 5 takes the set above size
    # 21, and k = 100 takes the pool up to 1045
    size = data.draw(st.integers(0, 3000), label="size")
    k = data.draw(st.integers(0, min(size, 400)), label="k")
    ours, theirs = random.Random(seed), random.Random(seed)
    assert _sample_range(ours, size, k) == theirs.sample(range(1, size + 1), k)
    assert ours.getstate() == theirs.getstate()


def tuple_key_edge_check(n_vertices, edges):
    """``Graph``'s endpoint and duplicate checks as they were, keyed by
    (u, v) tuples: the first refusal's message, or None."""
    seen = set()
    for k, (u, v, _) in enumerate(edges):
        if not (1 <= u <= n_vertices) or not (1 <= v <= n_vertices):
            return f"edge {k + 1} endpoints ({u},{v}) out of range 1..{n_vertices}"
        if u == v:
            return f"edge {k + 1} is a self-loop at {u}"
        key = (u, v) if u < v else (v, u)
        if key in seen:
            return f"duplicate undirected edge ({u},{v})"
        seen.add(key)
    return None


@st.composite
def edge_lists(draw):
    """A vertex count up to 10^30 and up to 8 edges: mostly new edges with
    endpoints near 1 or near n_vertices, and some repeated, reversed,
    self-loop and out-of-range ones."""
    n = draw(st.one_of(st.integers(1, 6), st.integers(1, 10 ** 30)))
    vertex = st.one_of(st.integers(1, min(n, 7)), st.integers(max(1, n - 2), n))
    kinds = ("new", "new", "new", "repeat", "reverse", "self-loop", "out-of-range")
    edges = []
    for _ in range(draw(st.integers(1, 8))):
        how = draw(st.sampled_from(kinds if edges else ("new", "out-of-range")))
        if how in ("new", "out-of-range"):
            u, v = draw(vertex), draw(vertex)
            if how == "out-of-range":
                u, v = draw(st.permutations((u, draw(st.sampled_from((0, -1, n + 1))))))
        else:
            u, v, _ = draw(st.sampled_from(edges))
            if how == "reverse":
                u, v = v, u
            elif how == "self-loop":
                v = u
        edges.append((u, v, draw(st.integers(1, 9))))
    return n, edges


@settings(max_examples=400, deadline=None)
@given(edge_lists())
@example((3, [(1, 3, 1), (3, 1, 2)]))
@example((10 ** 30, [(10 ** 30 - 1, 10 ** 30, 1), (1, 2, 1), (10 ** 30, 10 ** 30 - 1, 1)]))
@example((4, [(1, 4, 1), (2, 0, 1)]))
@example((6, [(1, 6, 1), (2, 3, 1), (3, 4, 1)]))
# n up to 6 takes the bitmap, as n = 31 with two edges does; n = 32 with
# two edges, and n near 10^30, take the set
@example((31, [(1, 31, 1), (31, 1, 1)]))
@example((32, [(1, 32, 1), (32, 1, 1)]))
def test_graph_refuses_as_the_tuple_keyed_check_did(case):
    n, edges = case
    expected = tuple_key_edge_check(n, edges)
    try:
        graph = Graph(n, edges)
    except InstanceError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert graph.edges == tuple(edges)


def set_keyed_element_check(subsets):
    """``SortInstance``'s size, type and distinctness checks as one loop
    over a set of the elements: the first refusal's message, or None."""
    n, p = sum(map(len, subsets)), len(subsets)
    if n < p:
        return f"need at least one element per machine: n={n}, p={p}"
    seen = set()
    for i, subset in enumerate(subsets):
        for value in subset:
            if isinstance(value, bool) or not isinstance(value, int):
                return f"subset {i + 1} holds a non-integer value: {value!r}"
            if value in seen:
                return f"duplicate element {value} (subset {i + 1}); elements must be distinct"
            seen.add(value)
    return None


@st.composite
def element_lists(draw):
    """2 to 4 subsets holding up to 12 elements: mostly new integers around
    0, -10^6 or +-10^30, spread so that [min, max] falls on either side of
    32 values an element, and some repeated and non-integer ones."""
    base = draw(st.sampled_from((0, -10 ** 6, 10 ** 30, -10 ** 30)))
    spread = draw(st.sampled_from((4, 32, 200, 10 ** 31)))
    new = st.integers(base - spread, base + spread)
    subsets = [[] for _ in range(draw(st.integers(2, 4)))]
    values = []
    for _ in range(draw(st.integers(0, 12))):
        how = draw(st.sampled_from(("new", "new", "new", "repeat", "non-integer")
                                   if values else ("new",)))
        if how == "new":
            value = draw(new)
        elif how == "repeat":
            value = draw(st.sampled_from(values))
        else:
            value = draw(st.sampled_from((True, 2.0, 2.5, "3", None)))
        values.append(value)
        subsets[draw(st.integers(0, len(subsets) - 1))].append(value)
    return tuple(map(tuple, subsets))


@settings(max_examples=400, deadline=None)
@given(element_lists())
@example(((1,), (64,)))
@example(((1,), (65,)))
@example(((1, 96), (96,)))
@example(((-10 ** 30, 5), (10 ** 30, 5)))
def test_sort_instance_refuses_as_the_set_keyed_check_did(subsets):
    expected = set_keyed_element_check(subsets)
    try:
        inst = SortInstance(subsets)
    except InstanceError as exc:
        assert str(exc) == expected
    else:
        assert expected is None
        assert inst.subsets == subsets


# int spellings as JSON writes them, and "-0", which it never writes
ids = st.one_of(st.sampled_from(("1", "2", "3", "1000")), st.integers(1, 10 ** 30).map(str))
bad_ids = st.sampled_from(("0", "-0", "-1", str(-10 ** 30)))


@st.composite
def graph_texts(draw):
    """Graph JSON text whose endpoints are pairs from a pool of 2 to 6 int
    spellings, so that ids repeat, and sometimes a spelling of 0 or less.
    n is 10^30 or a spelling from the pool; weights are ints, floats or
    strings."""
    pool = (draw(st.lists(ids, min_size=2, max_size=6, unique=True))
            + draw(st.lists(bad_ids, max_size=1)))
    weight = st.one_of(
        ids, bad_ids,
        st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
        st.sampled_from(("1.5", "-0.0", "2e3", "1E-2", '"3/4"', '"-7/2"', '"4/2"',
                         '"1/0"', '"x"')))
    edges = ", ".join("[{}, {}, {}]".format(*draw(st.permutations(pool))[:2], draw(weight))
                      for _ in range(draw(st.integers(1, 6))))
    n = draw(st.one_of(st.just(str(10 ** 30)), st.sampled_from(pool)))
    return f'{{"n": {n}, "edges": [{edges}]}}'


def graph_or_refusal(data):
    try:
        return graph_from_json(data)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(graph_texts())
@example('{"n": 1000, "edges": [[1000, -0, 0], [0, 1000, -0]]}')
@example('{"n": 3, "edges": [[1, 2, 3], [2, 3, 1], [3, 1, 2]]}')
@example('{"n": 2, "edges": []}')
def test_graph_parse_is_the_plain_parse(text):
    stdin = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        parsed = _read_json(argparse.Namespace(input=None), "graph")
    finally:
        sys.stdin = stdin
    plain = json.loads(text)
    # every parse hands the loader each [u, v, w] edge list as a tuple
    plain["edges"] = [tuple(edge) for edge in plain["edges"]]
    assert parsed == plain and repr(parsed) == repr(plain)
    assert graph_or_refusal(parsed) == graph_or_refusal(plain)


def cached_mm_serial_run(graph, epsilon):
    """``mm_serial_run`` as it was with a cache of the live vertices and
    their loads, recomputed once after each boost, over the same integer
    scale: numerators over D = n * (b - a)^L for epsilon = a/b."""
    n = graph.n_vertices
    m = graph.n_edges
    eps = _as_epsilon(epsilon)
    a, b = eps.numerator, eps.denominator
    limit = _iteration_limit(n, eps)
    denominator = n * (b - a) ** limit
    scaled = [b ** c * (b - a) ** (limit - c) for c in range(limit + 1)]
    bar = -(-(b - 2 * a) * denominator // b)
    phases = []
    frozen_at = [None] * m
    frozen_sum = [0] * (n + 1)
    incident = [[] for _ in range(n + 1)]
    for k, (u, v, _) in enumerate(graph.edges):
        incident[u].append(k)
        incident[v].append(k)
    degree = [len(edges) for edges in incident]
    frozen_vertices = set()
    live = list(range(1, n + 1))
    w = scaled[0]
    loads = [degree[v] * w for v in live]
    frozen_max = 0
    load_history = []
    active = m
    while active:
        t = len(phases) + 1
        assert t <= limit
        phases.append((f"iteration {t}", active, 0))
        newly = [v for v, load in zip(live, loads) if load >= bar]
        for v in newly:
            for k in incident[v]:
                if frozen_at[k] is None:
                    frozen_at[k] = t - 1
                    active -= 1
                    for end in graph.edges[k][:2]:
                        frozen_sum[end] += w
                        degree[end] -= 1
            frozen_max = max(frozen_max, frozen_sum[v])
        if newly:
            frozen_vertices.update(newly)
            live = [v for v in live if v not in frozen_vertices]
        w = scaled[t]
        loads = [frozen_sum[v] + degree[v] * w for v in live]
        load_history.append(max([frozen_max, *loads]))
    weight = [as_exact(Fraction(value, denominator)) for value in scaled]
    state = FractionalMatchingState(x=tuple(weight[c] for c in frozen_at),
                                    frozen_vertices=frozenset(frozen_vertices),
                                    epsilon=eps)
    loads_seen = tuple(Fraction(load, denominator) for load in load_history)
    return state, IoReport(phases, {"max_vertex_load_per_iteration": loads_seen})


@st.composite
def matching_graphs(draw):
    """Graphs on up to 14 endpoints: random edges, often beside a star whose
    hub freezes first and so freezes every edge of its leaves from the other
    end, each edge written either way round, and up to 3 isolated vertices
    above the largest endpoint."""
    core = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(1, core + 1) for v in range(u + 1, core + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=12))
    leaves = draw(st.integers(0 if chosen else 1, 6))
    chosen += [(1, core + leaf) for leaf in range(1, leaves + 1)]
    edges = []
    for u, v in chosen:
        w = draw(st.integers(1, 9))
        edges.append((v, u, w) if draw(st.booleans()) else (u, v, w))
    return Graph(core + leaves + draw(st.integers(0, 3)), draw(st.permutations(edges)))


@settings(max_examples=300, deadline=None)
@given(matching_graphs(),
       st.sampled_from((Fraction(1, 100), Fraction(1, 10), Fraction(1, 7),
                        Fraction(3, 10), Fraction(49, 100), 0.3)))
@example(Graph(2, ((1, 2, 1),)), Fraction(1, 10))
@example(Graph(7, ((2, 1, 1), (1, 3, 1), (4, 1, 1), (1, 5, 1))), Fraction(1, 100))
def test_serial_matching_run_is_the_cached_run(graph, epsilon):
    assert repr(mm_serial_run(graph, epsilon)) == repr(cached_mm_serial_run(graph, epsilon))


def set_keyed_graph(n_vertices, edges):
    """``Graph``'s edge loop as it was, marking keys in a bitmap at most 512
    bits an edge and in a set of keys otherwise: the checked edges, or the
    first refusal's message."""
    width = n_vertices + 1
    marks = bytearray(width * width + 7 >> 3) if width * width <= 512 * len(edges) else None
    seen = set()
    checked = []
    for k, edge in enumerate(edges):
        if not isinstance(edge, (list, tuple)) or len(edge) != 3:
            return f"edge {k + 1} is not a [u, v, weight] list: {edge!r}"
        u, v, w = edge
        if type(u) is not int or type(v) is not int:
            return f"edge {k + 1} endpoints ({u!r},{v!r}) must be integers"
        if not (1 <= u <= n_vertices) or not (1 <= v <= n_vertices):
            return f"edge {k + 1} endpoints ({u},{v}) out of range 1..{n_vertices}"
        if u == v:
            return f"edge {k + 1} is a self-loop at {u}"
        key = u * width + v if u < v else v * width + u
        if marks is None:
            duplicate = key in seen
            seen.add(key)
        else:
            byte, bit = key >> 3, 1 << (key & 7)
            duplicate = marks[byte] & bit
            marks[byte] |= bit
        if duplicate:
            return f"duplicate undirected edge ({u},{v})"
        checked.append((u, v, w))
    return tuple(checked)


@st.composite
def graph_edge_lists(draw):
    """1 to 10 edges on n up to 10^30, with n often the largest that takes
    the bitmap or the least that does not: new edges, repeats of the first
    or the last edge either way round, and self-loops, out-of-range and
    non-int endpoints and malformed edges."""
    m = draw(st.integers(1, 10))
    # the largest n with (n + 1)**2 <= 512 * m
    rule = math.isqrt(512 * m) - 1
    n = draw(st.one_of(st.integers(1, 6), st.sampled_from((rule, rule + 1)),
                       st.integers(1, 10 ** 30)))
    vertex = st.one_of(st.integers(1, min(n, 40)), st.integers(max(1, n - 2), n))
    kinds = ("new", "new", "new", "first", "last", "self-loop", "out-of-range",
             "non-int", "malformed")
    edges = []
    for _ in range(m):
        how = draw(st.sampled_from(kinds if edges else kinds[:1] + kinds[-3:]))
        if how in ("first", "last"):
            u, v = edges[0 if how == "first" else -1][:2]
            if draw(st.booleans()):
                u, v = v, u
        else:
            u = draw(vertex)
            v = u if how == "self-loop" else draw(vertex)
        if how == "out-of-range":
            u, v = draw(st.permutations((u, draw(st.sampled_from((0, -1, n + 1))))))
        elif how == "non-int":
            u, v = draw(st.permutations((u, draw(st.sampled_from((True, 2.0, "3", None))))))
        edge = [u, v, draw(st.integers(1, 9))]
        edges.append(edge[:2] if how == "malformed" else tuple(edge))
    return n, edges


@settings(max_examples=500, deadline=None)
@given(graph_edge_lists())
# m = 1: n = 21 takes the bitmap and n = 22 the dict
@example((21, [(1, 21, 1), (21, 1, 2)]))
@example((22, [(22, 1, 1), (1, 22, 2)]))
# m = 2 and n = 32 take the dict: keys 35 and 43 share a byte
@example((32, [(1, 2, 1), (10, 1, 1)]))
@example((10 ** 30, [(1, 10 ** 30, 1), (2, 3, 1), (10 ** 30, 1, 1)]))
@example((10 ** 30, [(1, 2, 1), (3, 3, 1)]))
@example((5, [(1, 2, 1), (2, "3", 1)]))
def test_graph_checks_as_the_set_keyed_loop_did(case):
    n, edges = case
    expected = set_keyed_graph(n, edges)
    try:
        got = Graph(n, edges).edges
    except InstanceError as exc:
        got = str(exc)
    assert got == expected
