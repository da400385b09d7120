"""IO-counting models for sorting, spanning forests, and fractional
matching, plus the optimality classifier.

Counting conventions, applied identically on both sides of every comparison
so classifications stay model-fair:

* One IO = one record moved between a machine's main memory and its external
  memory; block size is ignored.
* ``io_sort_count(N, M)`` is the serial external-sort model: free for empty
  input, a single scan when the data fits in memory, and N * ceil(log_M N)
  otherwise.
* The simulators count; they do no work that the counters do not need. The
  TeraSort and edge-partition counters have closed forms in the per-receiver
  and per-bucket record counts. The matching runs iterate, because each
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

from .core import (CostMatrix, Rational, SortInstance, Value, _set, as_exact,
                   derive_transfer_and_load)
from .errors import GuardError, InstanceError, ParameterError

Phase = tuple[str, int, Rational]


class ExternalMemoryConfig(Value):
    """Main-memory capacity in records per machine; external memory is unbounded."""

    __slots__ = _fields = ("main_memory", "machines")

    def __init__(self, main_memory: int, machines: int) -> None:
        if main_memory < 2:
            raise ParameterError(f"main_memory must be >= 2, got {main_memory}")
        if machines < 1:
            raise ParameterError(f"machines must be >= 1, got {machines}")
        _set(self, "main_memory", main_memory)
        _set(self, "machines", machines)


class IoReport(Value):
    """Per-phase IO and communication counters from one simulation run.

    ``extras`` carries auxiliary read-only figures (analytic cross-checks,
    per-iteration vertex loads) that are not part of the totals.
    """

    __slots__ = _fields = ("phases", "total_io", "total_comm", "extras")

    def __init__(self, phases: Sequence[Phase], total_io: int, total_comm: Rational,
                 extras: Mapping[str, object] | None = None) -> None:
        phases = tuple((str(label), int(io), as_exact(comm))
                       for label, io, comm in phases)
        for label, io, comm in phases:
            if io < 0 or comm < 0:
                raise InstanceError(f"phase {label!r} has a negative counter")
        if total_io != sum(io for _, io, _ in phases):
            raise InstanceError("total_io must equal the sum of phase IO counters")
        if total_comm != sum(comm for _, _, comm in phases):
            raise InstanceError("total_comm must equal the sum of phase communication")
        _set(self, "phases", phases)
        _set(self, "total_io", total_io)
        _set(self, "total_comm", total_comm)
        _set(self, "extras", {} if extras is None else extras)

    @staticmethod
    def from_phases(phases: Sequence[Phase],
                    extras: Mapping[str, object] | None = None) -> "IoReport":
        phases = tuple(phases)
        total_io = sum(int(io) for _, io, _ in phases)
        total_comm = as_exact(sum(as_exact(c) for _, _, c in phases))
        return IoReport(phases, total_io, total_comm, extras or {})


class Graph(Value):
    """An undirected weighted graph on vertices 1..n_vertices."""

    __slots__ = _fields = ("n_vertices", "edges")

    def __init__(self, n_vertices: int,
                 edges: Sequence[tuple[int, int, Rational]]) -> None:
        # vertices are plain ints, bool excluded
        if type(n_vertices) is not int:
            raise InstanceError(f"n_vertices must be an integer, got {n_vertices!r}")
        if n_vertices < 1:
            raise InstanceError(f"n_vertices must be >= 1, got {n_vertices}")
        seen: set[tuple[int, int]] = set()
        checked = []
        for k, (u, v, w) in enumerate(edges):
            if type(u) is not int or type(v) is not int:
                raise InstanceError(
                    f"edge {k + 1} endpoints ({u!r},{v!r}) must be integers")
            if not (1 <= u <= n_vertices) or not (1 <= v <= n_vertices):
                raise InstanceError(
                    f"edge {k + 1} endpoints ({u},{v}) out of range 1..{n_vertices}")
            if u == v:
                raise InstanceError(f"edge {k + 1} is a self-loop at {u}")
            key = (u, v) if u < v else (v, u)
            if key in seen:
                raise InstanceError(f"duplicate undirected edge ({u},{v})")
            seen.add(key)
            checked.append((u, v, as_exact(w)))
        _set(self, "n_vertices", n_vertices)
        _set(self, "edges", tuple(checked))

    @property
    def n_edges(self) -> int:
        return len(self.edges)


class FractionalMatchingState(Value):
    """Final state of the multiplicative-boost fractional matching run.

    ``x`` is the per-edge weight, indexed like ``Graph.edges``; the frozen
    sets only ever grow while the run executes. Epsilon is kept exact so the
    freeze decisions are reproducible bit for bit.
    """

    __slots__ = _fields = ("x", "frozen_vertices", "frozen_edges", "epsilon")

    def __init__(self, x: tuple[Rational, ...], frozen_vertices: frozenset[int],
                 frozen_edges: frozenset[int], epsilon: Fraction) -> None:
        if not 0 < epsilon < Fraction(1, 2):
            raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
        _set(self, "x", x)
        _set(self, "frozen_vertices", frozen_vertices)
        _set(self, "frozen_edges", frozen_edges)
        _set(self, "epsilon", epsilon)

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
    if records == 0:
        return 0
    if records <= memory:
        return records
    passes = 1
    reach = memory
    while reach < records:
        reach *= memory
        passes += 1
    return records * passes


def kruskal_serial_io(m: int, memory: int) -> int:
    """Serial spanning-tree IO model: sort the m edges, then scan them once."""
    if m < 0:
        raise ParameterError(f"edge count must be >= 0, got {m}")
    if m == 0:
        return 0
    return io_sort_count(m, memory) + m


def nowicki_partition_io(graph: Graph, memory: int) -> IoReport:
    """Read count of the edge-partition phase of the constant-round
    spanning-forest algorithm.

    Vertices are split into ceil(m/n) equal groups. The edge list lives on
    external memory bucketed by the smaller endpoint group, so assembling the
    subproblem for a group pair (i, j), i <= j, scans bucket i in full: the
    phase ``scan[i,j]`` reads bucket i's size, and an edge in bucket i is read
    once per pair (i, j), j >= i. The model counts these reads and builds no
    per-pair forest; ``memory`` is only validated, since the group sizing,
    not memory, keeps each pair's subproblem small. One pass over the edges
    gives every bucket's size. ``extras['analytic_io']`` carries the
    closed-form ceiling m * ceil(m/n) for cross-checking; the counted total
    is m when there is a single group and grows toward the analytic value as
    the group count rises.
    """
    if memory < 2:
        raise ParameterError(f"memory must be >= 2, got {memory}")
    n = graph.n_vertices
    m = graph.n_edges
    if m == 0:
        raise InstanceError("graph has no edges")
    groups = -(-m // n)
    # the group of a vertex is monotone in it, so the smaller endpoint's
    # group is the smaller group
    bucket_sizes = [0] * groups
    for u, v, _ in graph.edges:
        bucket_sizes[(min(u, v) - 1) * groups // n] += 1
    phases = [(f"scan[{i + 1},{j + 1}]", bucket_sizes[i], 0)
              for i in range(groups) for j in range(i, groups)]
    return IoReport.from_phases(phases, {"analytic_io": m * groups, "groups": groups})


def _as_epsilon(epsilon) -> Fraction:
    eps = as_exact(epsilon)
    eps = Fraction(eps)
    if not 0 < eps < Fraction(1, 2):
        raise ParameterError(f"epsilon must lie in (0, 1/2), got {epsilon}")
    return eps


def _iteration_limit(n: int, eps: Fraction) -> int:
    """Iteration cap of a matching run on n vertices.

    Edge weights grow geometrically from 1/n, so a run ends within
    ceil(log_{1/(1-eps)} n) + 1 iterations; the slack of 8 only guards
    against an implementation bug.
    """
    return math.ceil(math.log(n) / math.log(float(1 / (1 - eps)))) + 8 if n > 1 else 8


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
    ``frozen_sum + degree * w``, exact. Both values change only when an edge
    freezes, O(m) Fraction additions over the whole run. After each boost
    the loads of the vertices not yet frozen are computed once, one
    multiply-add each, and serve both the iteration's maximum load and the
    next freeze test. An edge's final weight is ``w`` at the moment it froze.
    """
    eps = _as_epsilon(epsilon)
    if graph.n_edges == 0:
        raise InstanceError("graph has no edges")
    n = graph.n_vertices
    m = graph.n_edges
    threshold = 1 - 2 * eps
    boost = Fraction(1, 1) / (1 - eps)
    w = Fraction(1, n)
    x: list[Fraction | None] = [None] * m
    frozen_sum: list[Rational] = [0] * (n + 1)
    incident: list[list[int]] = [[] for _ in range(n + 1)]
    for k, (u, v, _) in enumerate(graph.edges):
        incident[u].append(k)
        incident[v].append(k)
    degree = [len(edges) for edges in incident]
    frozen_vertices: set[int] = set()
    live = list(range(1, n + 1))
    loads = [degree[v] * w for v in live]
    # a frozen vertex has no active edge left, so its load stays put
    frozen_max: Rational = 0

    phases: list[Phase] = []
    load_history: list[Rational] = []
    limit = _iteration_limit(n, eps)
    active = m
    while active:
        if len(phases) == limit:
            raise RuntimeError("matching run failed to terminate within its bound")
        phases.append((f"iteration {len(phases) + 1}", active, 0))
        # freeze pass, on the weights as they stand at the scan
        newly = [v for v, load in zip(live, loads) if load >= threshold]
        for v in newly:
            for k in incident[v]:
                if x[k] is None:
                    x[k] = w
                    active -= 1
                    for end in graph.edges[k][:2]:
                        frozen_sum[end] += w
                        degree[end] -= 1
            frozen_max = max(frozen_max, frozen_sum[v])
        if newly:
            frozen_vertices.update(newly)
            live = [v for v in live if v not in frozen_vertices]
        w *= boost
        # the next freeze pass sees the same weights, so it reuses these loads
        loads = [frozen_sum[v] + degree[v] * w for v in live]
        load_history.append(max([frozen_max, *loads]))

    state = FractionalMatchingState(
        x=tuple(as_exact(v) for v in x),
        frozen_vertices=frozenset(frozen_vertices),
        frozen_edges=frozenset(range(m)),
        epsilon=eps,
    )
    extras = {"max_vertex_load_per_iteration": tuple(load_history)}
    return state, IoReport.from_phases(phases, extras)


def mm_parallel_io_model(graph: Graph, epsilon) -> IoReport:
    """IO profile of the parallelized matching: identical per-iteration counts.

    Round compression changes the scheduling but not the iteration count or
    the set of active edges, so the parallel IO sequence equals the serial
    one. This model replays the same freeze/boost dynamics but recomputes the
    active-edge count each iteration by scanning the edge list against the
    frozen-vertex set, independently of the serial run's edge bookkeeping;
    it stays a separate replay so that comparing the two (acceptance
    criterion 08) checks one against the other.

    Its arithmetic is plain integers. With epsilon = a/b and L the iteration
    cap, every weight is a multiple of 1/D, D = n * (b - a)^L: an edge
    boosted c times weighs (1/n) * (b / (b - a))^c = b^c * (b - a)^(L - c) / D.
    Each iteration sums these numerators per vertex over the whole edge
    list, and load >= 1 - 2*epsilon becomes load_numerator * b >=
    (b - 2a) * D, still exact.
    """
    eps = _as_epsilon(epsilon)
    if graph.n_edges == 0:
        raise InstanceError("graph has no edges")
    n = graph.n_vertices
    a, b = eps.numerator, eps.denominator
    limit = _iteration_limit(n, eps)
    scaled = [b ** c * (b - a) ** (limit - c) for c in range(limit + 1)]
    bar = (b - 2 * a) * n * (b - a) ** limit
    ends = [(u, v) for u, v, _ in graph.edges]
    boosts = [0] * len(ends)
    frozen = [False] * (n + 1)

    phases: list[Phase] = []
    while True:
        active = [k for k, (u, v) in enumerate(ends) if not (frozen[u] or frozen[v])]
        if not active:
            break
        if len(phases) == limit:
            raise RuntimeError("matching model failed to terminate within its bound")
        phases.append((f"iteration {len(phases) + 1}", len(active), 0))
        loads = [0] * (n + 1)
        for (u, v), c in zip(ends, boosts):
            loads[u] += scaled[c]
            loads[v] += scaled[c]
        for v in range(1, n + 1):
            if loads[v] * b >= bar:
                frozen[v] = True
        for k in active:
            u, v = ends[k]
            if not (frozen[u] or frozen[v]):
                boosts[k] += 1
    return IoReport.from_phases(phases)


def _apportion(total: int, counts: Sequence[int]) -> list[int]:
    """Largest-remainder split of ``total`` proportional to ``counts``."""
    grand = sum(counts)
    if grand == 0:
        return [0] * len(counts)
    base = [total * c // grand for c in counts]
    remainders = sorted(range(len(counts)),
                        key=lambda i: (-(total * counts[i] % grand), i))
    short = total - sum(base)
    for i in remainders[:short]:
        base[i] += 1
    return base


def terasort_simulate(inst: SortInstance, cfg: ExternalMemoryConfig,
                      cost: CostMatrix) -> tuple[tuple[tuple[int, ...], ...], IoReport]:
    """Three-phase distributed range-partition sort with exact counters.

    Phase 1 (sample-and-split): min(M, n) records are read from external
    memory, one IO each, apportioned over machines by local data size and
    picked at evenly spaced local ranks; all samples travel to machine 1,
    which broadcasts the p-1 equal-rank sample splitters. Communication is
    priced by the cost matrix.

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
    globally sorted data cut at those loads.
    """
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

    transfer, loads = derive_transfer_and_load(inst, splitters)
    comm_shuffle = sum(transfer.amount(i, j) * cost.cost(i, j)
                       for i in range(1, p + 1) for j in range(1, p + 1))
    spills = sum(memory * ((c - 1) // memory) for c in loads if c)
    phase2: Phase = ("redistribute", spills, as_exact(comm_shuffle))
    phase3: Phase = ("local-merge", spills, 0)

    # each machine's data is already sorted, so this sort only merges p runs
    values = tuple(sorted(chain.from_iterable(local)))
    cuts = (0, *accumulate(loads))
    outputs = tuple(values[a:b] for a, b in zip(cuts, cuts[1:]))

    report = IoReport.from_phases(
        (phase1, phase2, phase3),
        extras={"splitters": splitters, "sample_size": sample_size},
    )
    return outputs, report


class IoOptimality(str, Enum):
    SUPER = "super-io-optimal"
    OPTIMAL = "io-optimal"
    NON = "non-io-optimal"
    INCONCLUSIVE = "inconclusive"


def classify_io_optimality(pairs: Sequence[tuple[int, int, int]],
                           constant_bound: Rational = 8,
                           growth_factor: Rational = Fraction(3, 2),
                           min_points: int = 3) -> IoOptimality:
    """Classify a (size, parallel_io, serial_io) sweep.

    SUPER when parallel IO is strictly below serial IO at every size;
    OPTIMAL when the parallel/serial ratio never exceeds ``constant_bound``
    and does not grow end to end; NON when the ratio rises strictly at every
    step and by at least ``growth_factor`` overall; INCONCLUSIVE otherwise.

    This is an empirical surrogate for an asymptotic property: finite sweeps
    cannot decide asymptotics, so the thresholds are explicit configuration
    and the sweep should be roughly geometric in size.
    """
    pairs = tuple(pairs)
    if len(pairs) < min_points:
        raise GuardError(
            f"need at least {min_points} sweep points, got {len(pairs)}")
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
    if max(ratios) <= constant_bound and ratios[-1] <= ratios[0]:
        return IoOptimality.OPTIMAL
    if (all(a < b for a, b in zip(ratios, ratios[1:]))
            and ratios[-1] >= growth_factor * ratios[0]):
        return IoOptimality.NON
    return IoOptimality.INCONCLUSIVE
