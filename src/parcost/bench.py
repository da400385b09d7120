"""Instance generators and the sweep harness.

Generators are deterministic per seed (Mersenne Twister with stable integer
draws), and sweeps render CSV with '.' decimals, ',' separators, and a
header row. A gop-ratio row whose exact solve exceeds the work guard is
marked skipped instead of aborting the run, and a sweep's rows are shared
among forked workers, one per usable CPU. The instance JSON codecs are
``core``'s, re-exported here under their names.
"""

from __future__ import annotations

import marshal
import math
import os
import random
import threading
from fractions import Fraction
from itertools import islice, repeat
from typing import BinaryIO, Callable, Iterator, Sequence

from .constants import DEFAULT_EPSILON, DEFAULT_MEMORY, DEFAULT_WORK_GUARD, SWEEP_KINDS
from .core import (FLOAT_TOLERANCE, CostMatrix, DrpInstance, GopInstance, Graph,
                   SortInstance, TransferMatrix, TspFbInstance, Value, _as_epsilon)
from .core import (drp_from_json, drp_to_json, dumps_canonical, gop_from_json,
                   gop_to_json, graph_from_json, graph_to_json, tspfb_from_json,
                   tspfb_to_json)
from .errors import GuardError, ParameterError

# The solvers and simulators are imported where they are used, so that a
# process loads only what its command runs.

# generated values lie in 1..GOP_VALUE_SPAN * n, weights in 1..*_WEIGHT_MAX
GOP_VALUE_SPAN = 10
GRAPH_WEIGHT_MAX = 100
TSPFB_WEIGHT_MAX = 20
DEFAULT_COST_LOW = 1  # generated link costs lie in [COST_LOW, COST_HIGH]
DEFAULT_COST_HIGH = 10
DEFAULT_MASS_MAX = 20  # generated transfer volumes lie in [0, MASS_MAX]


def _is_int(value) -> bool:
    """The integer rule of a seed, a size, a count and an int knob: an int
    that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _check_ints(**fields) -> None:
    """Refuse the first field that breaks the integer rule, by name. ``gen_drp``,
    which a drp-ratio row calls, first tests that every field's type is int,
    and calls this only if one is not, so such a row pays a type test a field."""
    for name, value in fields.items():
        if not _is_int(value):
            raise ParameterError(f"{name} must be an integer, got {value!r}")


def _read_knobs(kind: str, knobs: dict, given: dict) -> dict:
    for name, value in given.items():
        if value is not None and name not in knobs:
            raise ParameterError(f"{kind} does not read {name}; it reads {', '.join(knobs)}")
    return {name: default if given[name] is None else given[name]
            for name, default in knobs.items()}


def _check_seed(seed: int) -> None:
    """The seed rule: a 64-bit unsigned integer."""
    if not (_is_int(seed) and 0 <= seed < 2 ** 64):
        raise ParameterError(f"seed must be a 64-bit unsigned integer, got {seed}")


def _rng(seed: int) -> random.Random:
    _check_seed(seed)
    return random.Random(seed)


def _below(rng: random.Random, n: int) -> Iterator[int]:
    """The values successive ``rng.randrange(n)`` calls would return.

    Drawn as CPython's ``Random`` draws them: ``getrandbits(k)`` with
    k = n.bit_length(), drawn again while it is >= n. The generators'
    instances rest on that algorithm; the sweep CSV pins and the
    benchmark's golden hashes would show a change. n < 1 is refused, as
    ``getrandbits(0)`` returns 0 forever. ``_sample_range`` repeats the rule
    inline, as a call per draw doubles ``gen_gop``'s time; change both.
    """
    if n < 1:
        raise ParameterError(f"cannot draw below {n}")
    return filter(n.__gt__, map(rng.getrandbits, repeat(n.bit_length())))


def _sample_range(rng: random.Random, size: int, k: int) -> list[int]:
    """What ``rng.sample(range(1, size + 1), k)`` returns, leaving ``rng``
    in the same state, without the size-long pool list CPython's ``sample``
    copies the range into.

    The branch is ``sample``'s own rule: the pool when ``size`` is at most
    ``setsize``, else a set of the drawn indices, for which ``sample`` is
    called, as it builds no list. The pool branch is the partial
    Fisher-Yates shuffle ``sample`` runs (Durstenfeld, CACM 7(7), 1964),
    over a zero-filled machine-int ``array``: slot j reads 0 while it still
    holds j + 1, until a draw fills it with the last value still in the
    pool. Slots take 4 bytes (typecode ``"i"``), 8 (``"q"``) when ``size``
    is 2**31 or more; the pool branch reaches that size only at k >=
    357,913,942 (3k >= 4**15), so the ``"q"`` case is not tested. ``array``
    is imported here, so that a process that draws no pool never loads it,
    a shared library. Each index is drawn by
    ``_below``'s rule, repeated inline. ``gen_gop``'s values rest on this
    being ``sample`` draw for draw; the sweep CSV pins and the benchmark's
    golden hashes would show a change.
    """
    if not 0 <= k <= size:
        raise ValueError("Sample larger than population or is negative")
    setsize = 21
    if k > 5:
        setsize += 4 ** math.ceil(math.log(k * 3, 4))
    if size > setsize:
        return rng.sample(range(1, size + 1), k)
    from array import array

    getrandbits = rng.getrandbits
    pool = array("i", bytes(4 * size)) if size < 2 ** 31 else array("q", bytes(8 * size))
    result = []
    for m in range(size, size - k, -1):
        bits = m.bit_length()
        j = getrandbits(bits)
        while j >= m:
            j = getrandbits(bits)
        result.append(pool[j] or j + 1)
        pool[j] = pool[m - 1] or m
    return result


def gen_drp(p: int, cost_low: int, cost_high: int, mass_max: int,
            seed: int) -> DrpInstance:
    """Random instance: integer off-diagonal costs in [cost_low, cost_high],
    integer transfer volumes in [0, mass_max]."""
    if not (type(p) is type(cost_low) is type(cost_high) is type(mass_max) is int):
        _check_ints(p=p, cost_low=cost_low, cost_high=cost_high, mass_max=mass_max)
    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    _check_cost_range(cost_low, cost_high)
    if mass_max < 1:
        raise ParameterError(f"mass_max must be >= 1, got {mass_max}")
    rng = _rng(seed)
    cost = _random_costs(rng, p, cost_low, cost_high)
    masses = _below(rng, mass_max + 1)
    return DrpInstance(TransferMatrix(tuple(tuple(islice(masses, p)) for _ in range(p))),
                       cost)


def gen_gop(n: int, p: int, seed: int, cost_low: int = DEFAULT_COST_LOW,
            cost_high: int = DEFAULT_COST_HIGH) -> GopInstance:
    """n distinct integers spread uniformly over p machines, random cluster costs."""
    _check_ints(n=n, p=p, cost_low=cost_low, cost_high=cost_high)
    SortInstance.check_sizes(n, p)
    _check_cost_range(cost_low, cost_high)
    rng = _rng(seed)
    values = _sample_range(rng, GOP_VALUE_SPAN * n, n)
    subsets: list[list[int]] = [[] for _ in range(p)]
    for value, owner in zip(values, _below(rng, p)):
        subsets[owner].append(value)
    return GopInstance(SortInstance(subsets), _random_costs(rng, p, cost_low, cost_high))


def _check_cost_range(cost_low: int, cost_high: int) -> None:
    if not 0 < cost_low <= cost_high:
        raise ParameterError(
            f"need 0 < cost_low <= cost_high, got [{cost_low}, {cost_high}]")


def _random_costs(rng: random.Random, p: int, cost_low: int, cost_high: int) -> CostMatrix:
    """Zero diagonal, integer off-diagonal link costs in [cost_low, cost_high],
    drawn row by row."""
    links = map(cost_low.__add__, _below(rng, cost_high - cost_low + 1))
    rows = []
    for i in range(p):
        row = list(islice(links, p - 1))
        row.insert(i, 0)
        rows.append(row)
    return CostMatrix(rows)


def gen_graph(n: int, m: int, seed: int) -> Graph:
    """Simple random graph with m edges and positive integer weights.
    ``Graph`` refuses n < 1 and m = 0."""
    _check_ints(n=n, m=m)
    limit = max(n, 0) * (n - 1) // 2
    if not 0 <= m <= limit:
        raise ParameterError(f"m={m} infeasible for n={n} (max {limit})")
    rng = _rng(seed)
    if 3 * m <= limit:
        # sparse: rejection sampling avoids materializing all pairs
        chosen = list(islice(_distinct_pairs(rng, n), m))
    else:
        all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = rng.sample(all_pairs, m)
    weights = map((1).__add__, _below(rng, GRAPH_WEIGHT_MAX))
    return Graph(n, tuple((u, v, w) for (u, v), w in zip(chosen, weights)))


def _distinct_pairs(rng: random.Random, n: int) -> Iterator[tuple[int, int]]:
    """Vertex pairs u < v in 1..n, each new one once, from two draws per try;
    a try that repeats a vertex or a pair is dropped."""
    ends = map((1).__add__, _below(rng, n))
    seen: set[tuple[int, int]] = set()
    for u, v in zip(ends, ends):
        pair = (u, v) if u < v else (v, u)
        if u != v and pair not in seen:
            seen.add(pair)
            yield pair


def gen_tspfb(n: int, seed: int) -> TspFbInstance:
    """Random bipartite tour instance with positive integer weights."""
    _check_ints(n=n)
    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    weights = map((1).__add__, _below(_rng(seed), TSPFB_WEIGHT_MAX))
    return TspFbInstance(tuple(tuple(islice(weights, n)) for _ in range(n)))


# --- sweeps ----------------------------------------------------------------

class SweepSpec(Value):
    """What to sweep and how: kind, ascending sizes, trials per size, seed,
    and the model knobs the kind reads. The kind's ``_SWEEPS`` row is the one
    home of those knobs, their defaults and its least size. A spec holds each
    knob its kind reads, at the value given or that default, and None for the
    rest, which are refused if set. ``guard`` is gop-ratio's work guard."""

    __slots__ = _fields = ("kind", "sizes", "trials", "seed", "cost_low",
                           "cost_high", "mass_max", "p", "memory", "epsilon",
                           "edge_factor", "guard")

    def __init__(self, kind: str, sizes: Sequence[int], trials: int = 1, seed: int = 0,
                 cost_low: int | None = None, cost_high: int | None = None,
                 mass_max: int | None = None, p: int | None = None,
                 memory: int | None = None, epsilon: Fraction | str | None = None,
                 edge_factor: int | None = None, guard: int | None = None) -> None:
        if kind not in SWEEP_KINDS:
            raise ParameterError(
                f"unknown sweep kind {kind!r}; expected one of {', '.join(SWEEP_KINDS)}")
        knobs, least = _SWEEPS[kind][2:]
        given = dict(zip(self.__slots__[4:], (cost_low, cost_high, mass_max, p, memory,
                                                epsilon, edge_factor, guard)))
        settings = _read_knobs(kind, knobs, given)
        _check_ints(**{name: value for name, value in given.items()
                       if value is not None and name != "epsilon"})
        cost_low, cost_high, mass_max, p, memory, epsilon, edge_factor, guard = map(
            settings.get, given)
        if epsilon is not None:
            epsilon = _as_epsilon(epsilon)
        sizes = tuple(sizes)
        if not all(map(_is_int, sizes)):
            raise ParameterError(f"sizes must be integers, got {sizes}")
        _check_ints(trials=trials)
        if not sizes or any(a >= b for a, b in zip(sizes, sizes[1:])):
            raise ParameterError(f"sizes must be non-empty and ascending, got {sizes}")
        if trials < 1:
            raise ParameterError(f"trials must be >= 1, got {trials}")
        if guard is not None and guard < 1:
            raise ParameterError(f"guard must be >= 1, got {guard}")
        if p is not None and p < 2:
            raise ParameterError(f"p must be >= 2, got {p}")
        if memory is not None and memory < 2:
            raise ParameterError(f"memory must be >= 2, got {memory}")
        if edge_factor is not None and edge_factor < 1:
            raise ParameterError(f"edge_factor must be >= 1, got {edge_factor}")
        _check_seed(seed)
        least = p if least is None else least
        if sizes[0] < least:
            raise ParameterError(f"sizes must be >= {least} for {kind}, got {sizes}")
        super().__init__(kind, sizes, trials, seed, cost_low, cost_high, mass_max, p,
                         memory, epsilon, edge_factor, guard)


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, (Fraction, float)):
        return repr(float(value))
    return str(value)


def row_seed(seed: int, size: int, trial: int) -> int:
    """The generator seed of a sweep row: one per (sweep seed, size, trial)."""
    return (seed * 1_000_003 + size * 1009 + trial) % (2 ** 64)


def run_sweep(spec: SweepSpec) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Run the sweep and return (header, rows) of stringified cells.

    One row per (size, trial) in deterministic order, then a summary row
    holding the maximum ratio and, for IO sweeps, the classification.
    A gop-ratio row over the work guard is marked ``skipped`` and the sweep
    continues; when every row is skipped, so is the summary, its ratio
    blank.

    Rows are independent, so k processes share them: row (size, trial) runs
    on worker ``trial % k``, with k the usable CPUs but at most
    ``spec.trials``. Worker 0 is this process and the others are forked
    children (see ``_forked_shares``); the rows are merged back in (size,
    trial) order, so the result does not depend on k. k is 1 where the
    platform has no ``os.fork`` or another thread is alive, since a forked
    child holds only the calling thread and would inherit any lock another
    thread held.
    """
    header, measure, knobs = _SWEEPS[spec.kind][:3]
    # the knobs a row prints, as gop-ratio's p
    shown = {name: getattr(spec, name) for name in knobs if name in header}
    io_sweep = "classification" in header

    def share(worker: int, k: int) -> Iterator[tuple]:
        """Worker's rows in (size, trial) order as (cells, ratio, parallel
        IO, serial IO). The ratio is a float, which keeps the summary's
        maximum since ``float`` never reverses an order; None if skipped."""
        for size in spec.sizes:
            for trial in range(worker, spec.trials, k):
                row = {**shown, header[0]: size, "trial": trial}
                seed = row_seed(spec.seed, size, trial)
                try:
                    row.update(measure(spec, size, seed))
                except GuardError:
                    row["status"] = "skipped"
                    ratio = None
                else:
                    row["status"] = "ok"
                    if io_sweep:
                        row["ratio"] = Fraction(row["parallel_io"], row["serial_io"])
                    ratio = float(row["ratio"])
                yield (tuple(_fmt(row.get(column)) for column in header), ratio,
                       row.get("parallel_io", 0), row.get("serial_io", 0))

    k = min(_usable_cpus(), spec.trials)
    shares = None
    if k > 1 and hasattr(os, "fork") and threading.active_count() == 1:
        shares = _forked_shares(share, k)
    if shares is None:
        k, shares = 1, [share(0, 1)]
    streams = list(map(iter, shares))
    rows = []
    ratios = []
    per_size: list[tuple[int, int, int]] = []
    for size in spec.sizes:
        par_total = ser_total = 0
        for trial in range(spec.trials):
            cells, ratio, parallel_io, serial_io = next(streams[trial % k])
            rows.append(cells)
            if ratio is not None:
                ratios.append(ratio)
            par_total += parallel_io
            ser_total += serial_io
        per_size.append((size, par_total, ser_total))
    summary = {**shown, header[0]: "all", "trial": "summary",
               "status": "ok" if ratios else "skipped", "ratio": max(ratios, default=None)}
    if io_sweep:
        from .iosim import IoOptimality, classify_io_optimality

        summary["ratio"] = max(Fraction(a, b) for _, a, b in per_size)
        try:
            summary["classification"] = classify_io_optimality(per_size).value
        except (GuardError, ParameterError):
            summary["classification"] = IoOptimality.INCONCLUSIVE.value
    rows.append(tuple(_fmt(summary.get(column)) for column in header))
    return header, tuple(rows)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one, else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_shares(share: Callable[[int, int], Iterator[tuple]],
                   k: int) -> list[list] | None:
    """The k workers' rows: ``share(0, k)`` run here and ``share(1, k)`` ..
    ``share(k - 1, k)`` each in a forked child, which sends its rows back
    over a pipe with ``marshal``. Worker 0's first row runs before the
    forks, so the children inherit the modules the rows load.

    None if a fork failed or any worker raised: the caller then runs every
    row here, so an error is the one the serial loop meets first, with its
    message and exit code. Every child is reaped before this returns or
    raises.
    """
    children = []  # (pid, read end of its pipe)
    statuses = []
    try:
        try:
            mine = share(0, k)
            rows = [next(mine)]
            for worker in range(1, k):
                children.append(_fork_worker(share, worker, k))
            rows.extend(mine)
        except Exception:  # rerun serially, which raises the serial error
            return None
        payloads = [pipe.read() for _, pipe in children]
    finally:
        for pid, pipe in children:
            pipe.close()
            statuses.append(os.waitpid(pid, 0)[1])
    if any(statuses):
        return None
    return [rows, *map(marshal.loads, payloads)]


def _fork_worker(share: Callable[[int, int], Iterator[tuple]], worker: int,
                 k: int) -> tuple[int, BinaryIO]:
    """Fork a child that sends ``share(worker, k)`` down a pipe; return its
    pid and the pipe's read end. The child leaves with ``os._exit``, 0 if
    it sent every row, so it runs none of the parent's cleanup and flushes
    none of its buffers."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            with open(write_end, "wb") as pipe:
                pipe.write(marshal.dumps(list(share(worker, k))))
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    return pid, open(read_end, "rb")


def sweep_to_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    """The header and each row, cells joined by commas, a line each: the
    bytes ``csv.writer`` writes, as no cell needs quoting. A cell is a column
    name, ``_fmt`` of an int, a float, a bool or None, or a fixed word
    (``ok``, ``skipped``, ``all``, ``summary``, a classification), so none
    holds a comma, a quote or a line break, and every row has several cells."""
    return "".join(",".join(line) + "\n" for line in (header, *rows))


# A sweep kind's measure function builds one instance for a size and trial
# seed, reading its knobs from the spec, and returns its cells by column
# name; run_sweep adds the size, trial, status and summary cells, for IO
# kinds each row's ratio, and each knob named like a column.

def _measure_drp_ratio(spec: SweepSpec, p: int, seed: int) -> dict:
    from .drp import drp_solve_approx, drp_solve_exact, ratio_bound

    inst = gen_drp(p, spec.cost_low, spec.cost_high, spec.mass_max, seed)
    _, exact = drp_solve_exact(inst)
    _, approx = drp_solve_approx(inst)
    bound = ratio_bound(inst.cost)
    ratio = Fraction(1) if exact == 0 else Fraction(approx, exact)
    return {"exact_cost": exact, "approx_cost": approx, "ratio": ratio,
            "bound": bound, "within_bound": ratio <= bound}


def _measure_gop_ratio(spec: SweepSpec, n: int, seed: int) -> dict:
    from .drp import ratio_bound
    from .gopsort import gop_solve_approx, gop_solve_exact

    g = gen_gop(n, spec.p, seed, spec.cost_low, spec.cost_high)
    exact = gop_solve_exact(g, work_guard=spec.guard).total_cost
    approx = gop_solve_approx(g).total_cost
    bound = max(float(ratio_bound(g.cost)), 2.0)
    ratio = 1.0 if exact == 0 else approx / exact
    return {"exact_total": exact, "approx_total": approx, "ratio": ratio,
            "bound": bound, "within_bound": ratio <= bound + FLOAT_TOLERANCE}


def _measure_terasort(spec: SweepSpec, n: int, seed: int) -> dict:
    from .iosim import io_sort_count, terasort_simulate

    g = gen_gop(n, spec.p, seed, spec.cost_low, spec.cost_high)
    _, report = terasort_simulate(g, spec.memory)
    return {"parallel_io": report.total_io, "serial_io": io_sort_count(n, spec.memory)}


def _measure_mst(spec: SweepSpec, n: int, seed: int) -> dict:
    from .iosim import kruskal_serial_io, nowicki_partition_io

    m = math.isqrt(n ** 3)  # floor(n^1.5)
    memory = n if spec.memory is None else spec.memory
    report = nowicki_partition_io(gen_graph(n, m, seed))
    return {"m": m, "parallel_io": report.total_io,
            "analytic_io": report.extras["analytic_io"],
            "serial_io": kruskal_serial_io(m, memory)}


def _measure_mm(spec: SweepSpec, n: int, seed: int) -> dict:
    from .iosim import mm_serial_run

    m = min(n * (n - 1) // 2, spec.edge_factor * n)
    _, report = mm_serial_run(gen_graph(n, m, seed), spec.epsilon)
    # the parallel profile is the run's phases: iosim.mm_parallel_io_model's rule
    return {"m": m, "iterations": len(report.phases),
            "parallel_io": report.total_io, "serial_io": report.total_io}


# kind -> (header, measure, the knobs the kind reads with their defaults,
# its least size), in constants.SWEEP_KINDS order. A kind that reads p takes
# sizes from its p up, so its least size is None; mst-io's floor(n^1.5)
# edges first fit a simple graph at n = 6, and its memory None means each
# row's vertex count.
_SWEEPS = {
    "drp-ratio": (("p", "trial", "status", "exact_cost", "approx_cost",
                   "ratio", "bound", "within_bound"), _measure_drp_ratio,
                  {"cost_low": DEFAULT_COST_LOW, "cost_high": DEFAULT_COST_HIGH,
                   "mass_max": DEFAULT_MASS_MAX}, 2),
    "gop-ratio": (("n", "p", "trial", "status", "exact_total", "approx_total",
                   "ratio", "bound", "within_bound"), _measure_gop_ratio,
                  {"p": 2, "guard": DEFAULT_WORK_GUARD, "cost_low": DEFAULT_COST_LOW,
                   "cost_high": DEFAULT_COST_HIGH}, None),
    "terasort-io": (("n", "trial", "status", "parallel_io", "serial_io", "ratio",
                     "classification"), _measure_terasort,
                    {"p": 4, "memory": DEFAULT_MEMORY, "cost_low": DEFAULT_COST_LOW,
                     "cost_high": DEFAULT_COST_HIGH}, None),
    "mst-io": (("n", "m", "trial", "status", "parallel_io", "analytic_io",
                "serial_io", "ratio", "classification"), _measure_mst,
               {"memory": None}, 6),
    "mm-io": (("n", "m", "trial", "status", "iterations", "parallel_io",
               "serial_io", "ratio", "classification"), _measure_mm,
              {"epsilon": DEFAULT_EPSILON, "edge_factor": 4}, 2),
}

# instance kind -> the knobs `gen --kind` hands gen_<kind>, with their defaults
_GENS = {
    "drp": {"p": 4, "cost_low": DEFAULT_COST_LOW, "cost_high": DEFAULT_COST_HIGH,
            "mass_max": DEFAULT_MASS_MAX},
    "gop": {"n": 16, "p": 4, "cost_low": DEFAULT_COST_LOW, "cost_high": DEFAULT_COST_HIGH},
    "graph": {"n": 16, "m": 32},
    "tspfb": {"n": 16},
}
