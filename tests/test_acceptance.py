"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as they
print. Criterion 3 is expected to fail for n in {4, 5}: the reduced
redistribution instance only spans tours that visit the left vertices in one
fixed cyclic order, so its optimum sits strictly above the unrestricted tour
optimum on most instances (see tests/test_drp.py for the always-true
directional inequality and the n=3 equivalence).
"""

import math
import random
import time
from fractions import Fraction
from itertools import combinations, permutations

from parcost import (AssignmentProblem, classify_io_optimality, derive_transfer_and_load,
                     drp_solve_approx, drp_solve_exact, drp_to_lap,
                     gop_solve_approx, gop_solve_exact,
                     io_sort_count, kruskal_serial_io, lap_brute, lap_solve,
                     mm_parallel_io_model, mm_serial_run, nowicki_partition_io,
                     terasort_simulate, tspfb_brute, tspfb_to_drp)
from parcost.bench import (dumps_canonical, drp_to_json, drp_from_json,
                           gen_drp, gen_gop, gen_graph, gen_tspfb,
                           gop_from_json, gop_to_json, graph_from_json,
                           graph_to_json, tspfb_from_json, tspfb_to_json)
from parcost.iosim import IoOptimality
from test_iosim import fraction_mm_parallel_io_model


def report(number: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number:02d}] {status} {label}{suffix}")


def test_criterion_01_lap_oracle_equivalence():
    start = time.time()
    rng = random.Random(101)
    mismatches = 0
    for k in range(500):
        p = 2 + k % 6
        prob = AssignmentProblem([[rng.randint(0, 20) for _ in range(p)]
                                  for _ in range(p)])
        a_fast, c_fast = lap_solve(prob)
        a_brute, c_brute = lap_brute(prob)
        if c_fast != c_brute or a_fast.mapping != a_brute.mapping:
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0 and elapsed < 10
    report(1, "assignment solver equals brute force with identical mappings",
           ok, f"500 instances, {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10


def test_criterion_02_approximation_ratio_bound():
    start = time.time()
    violations = 0
    for r in (1, 3, 10):
        for k in range(500):
            p = 2 + k % 6
            inst = gen_drp(p, 1, r, 20, seed=10_000 * r + k)
            _, exact = drp_solve_exact(inst)
            _, approx = drp_solve_approx(inst)
            if approx > r * exact or approx < exact:
                violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and elapsed < 30
    report(2, "redistribution approximation within max/min cost ratio",
           ok, f"1500 instances over r in {{1,3,10}}, {elapsed:.1f}s")
    assert violations == 0
    assert elapsed < 30


def test_criterion_03_reduction_equivalence():
    start = time.time()
    failures: dict[int, int] = {}
    for n in (3, 4, 5):
        bad = 0
        for trial in range(50):
            tour = gen_tspfb(n, seed=1000 * n + trial)
            _, reduced_cost = drp_solve_exact(tspfb_to_drp(tour))
            if reduced_cost != tspfb_brute(tour):
                bad += 1
        failures[n] = bad
    elapsed = time.time() - start
    ok = all(v == 0 for v in failures.values()) and elapsed < 60
    report(3, "reduction preserves the optimal tour weight exactly", ok,
           f"mismatches per n: {failures}, {elapsed:.1f}s")
    assert elapsed < 60
    assert all(v == 0 for v in failures.values()), (
        f"reduced-instance optimum differs from the tour optimum on "
        f"{failures} of 50 instances per n. The reduced instance pins left "
        f"vertex i to row i, so its assignments only realize tours with one "
        f"fixed left-side cyclic visiting order; for n >= 4 there are "
        f"(n-1)!/2 > 1 such orders and the unrestricted tour optimum "
        f"usually uses a different one. Equality holds for every instance "
        f"at n = 3 and the reduced optimum never beats the tour optimum "
        f"(tests/test_drp.py); exact equality for all n is not attainable "
        f"for this family of instances.")


def _oracle_gop(inst, cost_entries):
    """Independent brute evaluator: its own interval counting and scoring."""
    p = len(inst.subsets)
    values = sorted(v for s in inst.subsets for v in s)
    best = None
    for splitters in combinations(values, p - 1):
        bounds = (float("-inf"),) + splitters + (float("inf"),)
        counts = [[0] * p for _ in range(p)]
        for i, subset in enumerate(inst.subsets):
            for v in subset:
                for j in range(p):
                    if bounds[j] < v <= bounds[j + 1]:
                        counts[i][j] += 1
                        break
        loads = [sum(counts[i][j] for i in range(p)) for j in range(p)]
        io = 0.0
        for load in loads:
            if load > 1:
                io = max(io, load * math.log2(load))
        for perm in permutations(range(1, p + 1)):
            comm = 0
            for i in range(p):
                for j in range(p):
                    comm += counts[i][j] * cost_entries[i][perm[j] - 1]
            total = float(comm) + io
            if best is None or total < best[0]:
                best = (total, splitters, perm)
    return best


def test_criterion_04_gop_exact_vs_independent_oracle():
    start = time.time()
    rng = random.Random(404)
    mismatches = 0
    for _ in range(100):
        p = rng.choice((2, 3))
        n = rng.randint(max(p, 6), 12)
        g = gen_gop(n, p, seed=rng.randrange(2 ** 32))
        solver = gop_solve_exact(g, work_guard=10 ** 6)
        total, splitters, perm = _oracle_gop(g.inst, g.cost.entries)
        if (solver.total_cost != total or solver.splitters != splitters
                or solver.assignment.mapping != perm):
            mismatches += 1
    elapsed = time.time() - start
    ok = mismatches == 0
    report(4, "splitter/assignment optimum equals independent brute evaluator",
           ok, f"100 instances, {elapsed:.1f}s")
    assert mismatches == 0


def test_criterion_05_gop_approximation_ratio():
    start = time.time()
    violations = 0
    count = 0
    for r in (1, 3, 10):
        bound = max(r, 2)
        for k in range(34):
            n = 8 + k % 7
            g = gen_gop(n, 2, seed=777 + 100 * r + k, cost_high=r)
            exact = gop_solve_exact(g, work_guard=10 ** 6)
            approx = gop_solve_approx(g)
            count += 1
            if approx.total_cost > bound * exact.total_cost + 1e-9:
                violations += 1
        for k in range(34):
            n = 24 + k % 5
            g = gen_gop(n, 3, seed=888 + 100 * r + k, cost_high=r)
            exact = gop_solve_exact(g, work_guard=10 ** 6)
            approx = gop_solve_approx(g)
            count += 1
            if approx.total_cost > bound * exact.total_cost + 1e-9:
                violations += 1
    elapsed = time.time() - start
    ok = violations == 0 and count >= 200 and elapsed < 120
    report(5, "sorting-objective approximation within max(cost ratio, 2)",
           ok, f"{count} instances, {elapsed:.1f}s")
    assert violations == 0
    assert count >= 200
    assert elapsed < 120


def test_criterion_06_surrogate_cost_spread_bound():
    start = time.time()
    rng = random.Random(606)
    worst = Fraction(0)
    for _ in range(60):
        n = rng.randint(4, 12)
        g = gen_gop(n, 2, seed=rng.randrange(2 ** 32))
        costs = []
        for splitters in combinations(g.inst.values(), 1):
            transfer, _ = derive_transfer_and_load(g.inst, splitters)
            _, cost = lap_solve(drp_to_lap(transfer))
            costs.append(Fraction(cost))
        spread = max(costs) - min(costs)
        assert spread <= Fraction(n, 2), (n, spread)
        worst = max(worst, spread / Fraction(n, 2))
    elapsed = time.time() - start
    report(6, "unit-cost surrogate spread within (p-1)/p * n over all splitter pairs",
           True, f"worst spread/bound {float(worst):.2f}, {elapsed:.1f}s")


def test_criterion_07_terasort_beats_serial_model():
    start = time.time()
    n, p, memory = 100_000, 4, 1000
    g = gen_gop(n, p, seed=42)
    outputs, parallel = terasort_simulate(g, memory)
    serial = io_sort_count(n, memory)
    flat = [v for out in outputs for v in out]
    sorted_ok = flat == sorted(g.inst.values())
    elapsed = time.time() - start
    ok = parallel.total_io < serial and sorted_ok and elapsed < 30
    report(7, "distributed sort strictly under the serial IO model", ok,
           f"parallel {parallel.total_io} < serial {serial}, sorted={sorted_ok}, "
           f"{elapsed:.1f}s")
    assert parallel.total_io < serial
    assert sorted_ok
    assert elapsed < 30


def test_criterion_08_matching_io_optimality():
    start = time.time()
    epsilon = Fraction(1, 10)
    pairs = []
    all_equal = True
    loads_ok = True
    iterations_ok = True
    for n in (50, 100, 200):
        graph = gen_graph(n, 3 * n, seed=n)
        state, serial = mm_serial_run(graph, epsilon)
        parallel = mm_parallel_io_model(graph, epsilon)
        # the model is the serial run's phases, so the check is the
        # independent Fraction replay of the freeze/boost dynamics
        replay = fraction_mm_parallel_io_model(graph, epsilon)
        all_equal &= serial.phases == replay.phases == parallel.phases
        loads_ok &= all(state.vertex_load(graph, v) <= 1
                        for v in range(1, n + 1))
        bound = math.ceil(math.log(n) / math.log(float(1 / (1 - epsilon)))) + 1
        iterations_ok &= len(serial.phases) <= bound
        pairs.append((n, parallel.total_io, serial.total_io))
    classification = classify_io_optimality(pairs)
    elapsed = time.time() - start
    ok = (all_equal and loads_ok and iterations_ok
          and classification is IoOptimality.OPTIMAL)
    report(8, "matching model: identical IO profile, classified io-optimal", ok,
           f"classification {classification.value}, {elapsed:.1f}s")
    assert all_equal
    assert loads_ok
    assert iterations_ok
    assert classification is IoOptimality.OPTIMAL


def test_criterion_09_spanning_forest_non_optimality():
    start = time.time()
    pairs = []
    ratios = []
    analytic_ok = True
    for n in (32, 64, 128, 256):
        m = math.isqrt(n ** 3)
        graph = gen_graph(n, m, seed=n)
        parallel = nowicki_partition_io(graph)
        serial = kruskal_serial_io(m, n)
        analytic = parallel.extras["analytic_io"]
        analytic_ok &= analytic / 4 <= parallel.total_io <= 4 * analytic
        pairs.append((n, parallel.total_io, serial))
        ratios.append(Fraction(parallel.total_io, serial))
    growth = ratios[-1] / ratios[0]
    classification = classify_io_optimality(pairs)
    elapsed = time.time() - start
    ok = (analytic_ok and growth >= Fraction(3, 2)
          and classification is IoOptimality.NON and elapsed < 60)
    report(9, "edge-partition forest IO grows away from the serial model", ok,
           f"ratio growth x{float(growth):.2f}, classification "
           f"{classification.value}, {elapsed:.1f}s")
    assert analytic_ok
    assert growth >= Fraction(3, 2)
    assert classification is IoOptimality.NON
    assert elapsed < 60


def test_criterion_10_determinism_and_round_trips():
    # generators: identical objects and identical serialized bytes per seed
    gens_ok = True
    for build, to_json in ((lambda s: gen_drp(5, 1, 9, 20, seed=s), drp_to_json),
                           (lambda s: gen_gop(16, 3, seed=s), gop_to_json),
                           (lambda s: gen_graph(12, 30, seed=s), graph_to_json),
                           (lambda s: gen_tspfb(5, seed=s), tspfb_to_json)):
        first, second = build(97), build(97)
        gens_ok &= first == second
        gens_ok &= dumps_canonical(to_json(first)) == dumps_canonical(to_json(second))

    # simulations: equal reports on repeated runs
    g = gen_gop(3000, 3, seed=98)
    sims_ok = terasort_simulate(g, 128) == terasort_simulate(g, 128)
    graph = gen_graph(30, 80, seed=99)
    sims_ok &= (mm_serial_run(graph, Fraction(1, 10))
                == mm_serial_run(graph, Fraction(1, 10)))
    sims_ok &= nowicki_partition_io(graph) == nowicki_partition_io(graph)

    # JSON round-trips on every instance type
    drp = gen_drp(4, 1, 9, 15, seed=100)
    gop = gen_gop(14, 3, seed=101)
    grf = gen_graph(10, 20, seed=102)
    tour = gen_tspfb(5, seed=103)
    trips_ok = (drp_from_json(drp_to_json(drp)) == drp
                and gop_from_json(gop_to_json(gop)) == gop
                and graph_from_json(graph_to_json(grf)) == grf
                and tspfb_from_json(tspfb_to_json(tour)) == tour)

    ok = gens_ok and sims_ok and trips_ok
    report(10, "seeded determinism and JSON round-trip identity", ok,
           f"generators={gens_ok}, simulations={sims_ok}, round-trips={trips_ok}")
    assert gens_ok
    assert sims_ok
    assert trips_ok
