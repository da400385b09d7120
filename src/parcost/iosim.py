"""IO-counting models for sorting, spanning forests, and fractional
matching, plus the optimality classifier.

Counting conventions, applied identically on both sides of every comparison
so classifications stay model-fair:

* One IO = one record moved between a machine's main memory and its external
  memory; block size is ignored.
* ``io_sort_count(N, M)`` is the serial external-sort model N * k, with
  k >= 1 the least integer such that M^k >= N: one scan when the data fits.
  ``kruskal_serial_io(m, M)`` is ``io_sort_count(m, M) + m``.
* The simulators count; they do no work that the counters do not need. The
  TeraSort and edge-partition counters have closed forms in the per-receiver
  and per-bucket record counts. The matching run iterates, because each
  iteration's active-edge count depends on the freezes before it.
* Simulators are deterministic; two runs on equal inputs produce equal
  reports.
"""

from __future__ import annotations

import math
from enum import Enum
from fractions import Fraction
from itertools import accumulate, chain
from typing import Mapping, Sequence

from .core import (Assignment, GopInstance, Graph, Rational, Value, _as_epsilon,
                   _equal_rank, _interval_counts, as_exact, drp_cost)
from .errors import GuardError, InstanceError, ParameterError

Phase = tuple[str, int, Rational]


def _phase(phase: Phase) -> Phase:
    """A checked phase: str label, plain int IO (bool excluded), exact comm."""
    label, io, comm = phase
    label, comm = str(label), as_exact(comm)
    if type(io) is not int:
        raise InstanceError(f"phase {label!r} has a non-integer IO counter: {io!r}")
    if io < 0 or comm < 0:
        raise InstanceError(f"phase {label!r} has a negative counter")
    return label, io, comm


class IoReport(Value):
    """Per-phase IO and communication counters from one simulation run.

    ``total_io`` and ``total_comm`` are derived: the sums over the phases.
    ``extras`` carries auxiliary read-only figures (analytic cross-checks,
    per-iteration vertex loads) that are not part of the totals.
    """

    __slots__ = ("phases", "extras")
    _fields = ("phases", "total_io", "total_comm", "extras")

    def __init__(self, phases: Sequence[Phase],
                 extras: Mapping[str, object] | None = None) -> None:
        super().__init__(tuple(map(_phase, phases)), {} if extras is None else extras)

    @property
    def total_io(self) -> int:
        return sum(io for _, io, _ in self.phases)

    @property
    def total_comm(self) -> Rational:
        return as_exact(sum(comm for _, _, comm in self.phases))


class FractionalMatchingState(Value):
    """Final state of the multiplicative-boost fractional matching run.

    ``x`` is the per-edge weight, indexed like ``Graph.edges``; a finished
    run has frozen every edge. The frozen vertex set only ever grows while
    the run executes. Epsilon is kept exact so the freeze decisions are
    reproducible bit for bit.
    """

    __slots__ = _fields = ("x", "frozen_vertices", "epsilon")

    def __init__(self, x: tuple[Rational, ...], frozen_vertices: frozenset[int],
                 epsilon: Fraction) -> None:
        super().__init__(x, frozen_vertices, epsilon)

    def vertex_load(self, graph: Graph, v: int) -> Rational:
        """y_v: sum of x over edges incident to v."""
        return as_exact(sum(x for (a, b, _), x in zip(graph.edges, self.x)
                            if v in (a, b)))


def io_sort_count(records: int, memory: int) -> int:
    """Model cost of serially sorting ``records`` with ``memory`` capacity."""
    if records < 0:
        raise ParameterError(f"record count must be >= 0, got {records}")
    if memory < 2:
        raise ParameterError(f"memory must be >= 2, got {memory}")
    passes = 1
    reach = memory
    while reach < records:
        reach *= memory
        passes += 1
    return records * passes


def kruskal_serial_io(m: int, memory: int) -> int:
    """Serial spanning-tree IO model: sort the m edges, then scan them once."""
    return io_sort_count(m, memory) + m


def nowicki_partition_io(graph: Graph) -> IoReport:
    """Read count of the edge-partition phase of the constant-round
    spanning-forest algorithm.

    Vertices are split into ceil(m/n) equal groups. The edge list lives on
    external memory bucketed by the smaller endpoint group, so assembling the
    subproblem for a group pair (i, j), i <= j, scans bucket i in full: the
    phase ``scan[i,j]`` reads bucket i's size, and an edge in bucket i is read
    once per pair (i, j), j >= i. The model counts these reads and builds no
    per-pair forest. It takes no memory size: the group sizing, not memory,
    keeps each pair's subproblem small. One pass over the edges gives every
    bucket's size. ``extras['analytic_io']`` carries the closed-form ceiling
    m * ceil(m/n) for cross-checking; the counted total is m when there is a
    single group and grows toward the analytic value as the group count
    rises.
    """
    n = graph.n_vertices
    m = graph.n_edges
    groups = -(-m // n)
    if groups == 1:
        bucket_sizes = [m]
    else:
        # groups >= 2 means n < m, so this table of each vertex's group (entry
        # 0 unused) is no longer than the edge list. The group of a vertex is
        # monotone in it, so the smaller endpoint's group is the smaller group.
        group_of = [(x - 1) * groups // n for x in range(n + 1)]
        bucket_sizes = [0] * groups
        for u, v, _ in graph.edges:
            bucket_sizes[group_of[u if u < v else v]] += 1
    phases = [(f"scan[{i + 1},{j + 1}]", bucket_sizes[i], 0)
              for i in range(groups) for j in range(i, groups)]
    return IoReport(phases, {"analytic_io": m * groups, "groups": groups})


#: The least epsilon the matching run takes, checked before its iteration
#: cap L: L grows as 1/epsilon, and so does the bit length of its L + 1
#: integers.
MIN_EPSILON = Fraction(1, 100)


def _iteration_limit(n: int, eps: Fraction) -> int:
    """Iteration cap of a matching run on n vertices.

    Edge weights grow geometrically from 1/n, so a run ends within
    ceil(log_{1/(1-eps)} n) + 1 iterations; the slack of 8 only guards
    against an implementation bug.
    """
    return math.ceil(math.log(n) / math.log(float(1 / (1 - eps)))) + 8


def mm_serial_run(graph: Graph, epsilon) -> tuple[FractionalMatchingState, IoReport]:
    """Run the multiplicative-boost fractional matching to completion.

    Every edge starts at weight 1/n. Each iteration first freezes every
    vertex whose incident weight reaches 1 - 2*epsilon (together with all
    its edges), then multiplies the surviving edges by 1/(1 - epsilon). The
    iteration's IO count is the number of edges still active at its scan,
    which is how an adjacency-list layout on external memory behaves. The
    final weights satisfy y_v <= 1 at every vertex, and the per-iteration
    maximum load is recorded in ``extras``.

    All active edges share one weight ``w``, (1/n) * boost^t after t
    iterations. So the run keeps, per vertex, the sum of its frozen edges'
    weights and its count of active edges, and a vertex's load is
    ``frozen_sum + degree * w``. Freezing an edge moves ``w`` from each
    end's active part to its frozen part, so no load changes during a
    freeze pass, and a frozen vertex has degree 0. An edge's final weight
    is ``w`` at the moment it froze.

    The arithmetic is plain integers. With epsilon = a/b and L the
    iteration cap, every weight is a multiple of 1/D, D = n * (b - a)^L:
    an edge boosted c times weighs (1/n) * (b / (b - a))^c =
    b^c * (b - a)^(L - c) / D, so ``w`` after t boosts is ``scaled[t] / D``.
    The freeze bar is ceil((b - 2a) * D / b), the least numerator of a load
    that reaches 1 - 2*epsilon, so a freeze test on integer numerators is
    exact. The weights and loads it reports are built as Fractions at the
    end.
    """
    eps = _as_epsilon(epsilon)
    if eps < MIN_EPSILON:
        raise ParameterError(f"epsilon must be at least {MIN_EPSILON}, got {eps}")
    n = graph.n_vertices
    m = graph.n_edges
    a, b = eps.numerator, eps.denominator
    limit = _iteration_limit(n, eps)
    denominator = n * (b - a) ** limit
    scaled = [b ** c * (b - a) ** (limit - c) for c in range(limit + 1)]
    bar = -(-(b - 2 * a) * denominator // b)
    # frozen_at[k]: the iteration in which edge k froze, its count of boosts
    frozen_at: list[int | None] = [None] * m
    frozen_sum = [0] * (n + 1)
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (u, v, _) in enumerate(graph.edges):
        incident[u].append(k)
        incident[v].append(k)
    degree = [len(edges) for edges in incident]
    frozen_vertices: set[int] = set()
    w = scaled[0]

    phases: list[Phase] = []
    load_history: list[int] = []
    active = m
    while active:
        t = len(phases) + 1
        if t > limit:
            raise RuntimeError("matching run failed to terminate within its bound")
        phases.append((f"iteration {t}", active, 0))
        # freeze pass, on the weights as they stand at the scan
        for v in range(1, n + 1):
            if v not in frozen_vertices and frozen_sum[v] + degree[v] * w >= bar:
                frozen_vertices.add(v)
                for k in incident[v]:
                    if frozen_at[k] is None:
                        frozen_at[k] = t - 1
                        active -= 1
                        for end in graph.edges[k][:2]:
                            frozen_sum[end] += w
                            degree[end] -= 1
        w = scaled[t]
        # entry 0 stands for no vertex and is 0, below every load
        load_history.append(max([part + d * w for part, d in zip(frozen_sum, degree)]))

    weight = [as_exact(Fraction(value, denominator)) for value in scaled]
    state = FractionalMatchingState(
        x=tuple(weight[c] for c in frozen_at),
        frozen_vertices=frozenset(frozen_vertices),
        epsilon=eps,
    )
    # every load is positive, as the graph has an edge, so each is a Fraction
    loads_seen = tuple(Fraction(load, denominator) for load in load_history)
    return state, IoReport(phases, {"max_vertex_load_per_iteration": loads_seen})


def mm_parallel_io_model(graph: Graph, epsilon) -> IoReport:
    """IO profile of the parallelized matching: the serial run's phases.

    Round compression changes the scheduling but not the iteration count or
    the set of active edges, so the parallel IO sequence is the serial one.
    """
    return IoReport(mm_serial_run(graph, epsilon)[1].phases)


def _apportion(total: int, counts: Sequence[int]) -> list[int]:
    """Largest-remainder split of ``total`` proportional to ``counts``,
    which must not all be 0."""
    grand = sum(counts)
    base = [total * c // grand for c in counts]
    remainders = sorted(range(len(counts)),
                        key=lambda i: (-(total * counts[i] % grand), i))
    short = total - sum(base)
    for i in remainders[:short]:
        base[i] += 1
    return base


def terasort_simulate(g: GopInstance,
                      memory: int) -> tuple[tuple[tuple[int, ...], ...], IoReport]:
    """Three-phase distributed range-partition sort with exact counters.

    Each of the p machines of ``g`` holds M = ``memory`` records in main
    memory; external memory is unbounded. The sample must hold one record
    per machine, so M >= p is required.

    Phase 1 (sample-and-split): min(M, n) records are read from external
    memory, one IO each, apportioned over machines by local data size and
    picked at evenly spaced local ranks; all samples travel to machine 1,
    which broadcasts the p-1 splitters that the approximation's equal-rank
    rule picks from the sorted sample. Communication is priced by the
    cluster's cost matrix.

    Phase 2 (redistribute): every record goes to the machine owning its
    splitter interval (identity placement), priced by the cost matrix.
    Receivers buffer arrivals in main memory and flush a full buffer to
    external memory as one sorted run, one IO per spilled record; the final
    partial buffer stays in memory. A receiver of c >= 1 records flushes when
    record M+1, 2M+1, ... arrives, so it spills M * floor((c-1)/M) records.

    Phase 3 (local-merge): each machine merges its sorted runs with the
    in-memory remainder, one IO per spilled record reread, so the phase
    counts the same records as phase 2.

    No record is pushed through a buffer: the receivers' record counts are
    the splitter intervals' loads, and the per-machine outputs are the
    globally sorted data cut at those loads. The counts are
    ``core._interval_counts`` on each machine's sorted run.
    """
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
        sample.extend(data[(2 * k + 1) * len(data) // (2 * quota)]
                      for k in range(quota))
    sample.sort()
    splitters = _equal_rank(sample, p)

    comm_sample = sum(quotas[i] * cost.cost(i + 1, 1) for i in range(p) if i != 0)
    comm_broadcast = sum((p - 1) * cost.cost(1, j) for j in range(2, p + 1))
    phase1: Phase = ("sample-and-split", sample_size, comm_sample + comm_broadcast)

    transfer, loads = _interval_counts(local, splitters)
    comm_shuffle = drp_cost(transfer, cost, Assignment.identity(p))
    spills = sum(memory * ((c - 1) // memory) for c in loads if c)
    phase2: Phase = ("redistribute", spills, comm_shuffle)
    phase3: Phase = ("local-merge", spills, 0)

    # each machine's data is already sorted, so this sort only merges p runs
    values = tuple(sorted(chain.from_iterable(local)))
    cuts = (0, *accumulate(loads))
    outputs = tuple(values[a:b] for a, b in zip(cuts, cuts[1:]))

    report = IoReport(
        (phase1, phase2, phase3),
        extras={"splitters": splitters, "sample_size": sample_size},
    )
    return outputs, report


class IoOptimality(str, Enum):
    SUPER = "super-io-optimal"
    OPTIMAL = "io-optimal"
    NON = "non-io-optimal"
    INCONCLUSIVE = "inconclusive"


#: The thresholds of ``classify_io_optimality``.
IO_CONSTANT_BOUND = 8
IO_GROWTH_FACTOR = Fraction(3, 2)
IO_MIN_POINTS = 3


def classify_io_optimality(pairs: Sequence[tuple[int, int, int]]) -> IoOptimality:
    """Classify a (size, parallel_io, serial_io) sweep.

    SUPER when parallel IO is strictly below serial IO at every size;
    OPTIMAL when the parallel/serial ratio never exceeds ``IO_CONSTANT_BOUND``
    and does not grow end to end; NON when the ratio rises strictly at every
    step and by at least ``IO_GROWTH_FACTOR`` overall; INCONCLUSIVE otherwise.

    This is an empirical surrogate for an asymptotic property: finite sweeps
    cannot decide asymptotics, so the thresholds are explicit module
    constants and the sweep should be roughly geometric in size.
    """
    pairs = tuple(pairs)
    if len(pairs) < IO_MIN_POINTS:
        raise GuardError(
            f"need at least {IO_MIN_POINTS} sweep points, got {len(pairs)}")
    sizes = [s for s, _, _ in pairs]
    if any(a >= b for a, b in zip(sizes, sizes[1:])):
        raise ParameterError(f"sweep sizes must be strictly ascending, got {sizes}")
    for size, parallel, serial in pairs:
        if parallel < 0 or serial <= 0:
            raise ParameterError(
                f"size {size}: counters must satisfy parallel >= 0 and serial > 0")
    ratios = [Fraction(parallel, serial) for _, parallel, serial in pairs]
    if all(parallel < serial for _, parallel, serial in pairs):
        return IoOptimality.SUPER
    if max(ratios) <= IO_CONSTANT_BOUND and ratios[-1] <= ratios[0]:
        return IoOptimality.OPTIMAL
    if (all(a < b for a, b in zip(ratios, ratios[1:]))
            and ratios[-1] >= IO_GROWTH_FACTOR * ratios[0]):
        return IoOptimality.NON
    return IoOptimality.INCONCLUSIVE
