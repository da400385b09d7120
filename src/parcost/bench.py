"""Instance generators, JSON serialization, and the sweep harness.

Generators are deterministic per seed (Mersenne Twister with stable integer
draws), JSON is the canonical on-disk instance format, and sweeps render CSV
with '.' decimals, ',' separators, and a header row. A gop-ratio row whose
exact solve exceeds the work guard is marked skipped instead of aborting
the run.
"""

from __future__ import annotations

import io
import json
import math
import random
from fractions import Fraction
from typing import TYPE_CHECKING, Mapping, Sequence

from .constants import DEFAULT_WORK_GUARD, SWEEP_KINDS
from .core import (FLOAT_TOLERANCE, CostMatrix, GopInstance, Rational,
                   SortInstance, TransferMatrix, Value, _set, as_exact)
from .errors import GuardError, InstanceError, ParameterError

# The solvers, simulators and the drp and iosim instance types are imported
# where they are used, so that a process loads only what its command runs.
if TYPE_CHECKING:
    from .drp import DrpInstance, TspFbInstance
    from .iosim import Graph


class Seed(Value):
    """A 64-bit unsigned RNG seed."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: int) -> None:
        if not 0 <= value < 2 ** 64:
            raise ParameterError(f"seed must be a 64-bit unsigned integer, got {value}")
        _set(self, "value", value)


def _rng(seed: int | Seed) -> random.Random:
    if isinstance(seed, Seed):
        seed = seed.value
    Seed(seed)
    return random.Random(seed)


def gen_drp(p: int, cost_low: int, cost_high: int, mass_max: int,
            seed: int | Seed) -> DrpInstance:
    """Random instance: integer off-diagonal costs in [cost_low, cost_high],
    integer transfer volumes in [0, mass_max]."""
    from .drp import DrpInstance

    if p < 2:
        raise ParameterError(f"p must be >= 2, got {p}")
    if not 0 < cost_low <= cost_high:
        raise ParameterError(
            f"need 0 < cost_low <= cost_high, got [{cost_low}, {cost_high}]")
    if mass_max < 1:
        raise ParameterError(f"mass_max must be >= 1, got {mass_max}")
    rng = _rng(seed)
    cost = [[0 if i == j else rng.randint(cost_low, cost_high)
             for j in range(p)] for i in range(p)]
    transfer = [[rng.randint(0, mass_max) for _ in range(p)] for _ in range(p)]
    return DrpInstance(TransferMatrix(tuple(map(tuple, transfer))),
                       CostMatrix(tuple(map(tuple, cost))))


def gen_gop(n: int, p: int, seed: int | Seed, cost_low: int = 1,
            cost_high: int = 10, value_span: int = 10) -> GopInstance:
    """n distinct integers spread uniformly over p machines, random cluster costs."""
    if p < 2 or n < p:
        raise ParameterError(f"need n >= p >= 2, got n={n}, p={p}")
    rng = _rng(seed)
    values = rng.sample(range(1, value_span * n + 1), n)
    subsets: list[list[int]] = [[] for _ in range(p)]
    for value in values:
        subsets[rng.randrange(p)].append(value)
    cost = [[0 if i == j else rng.randint(cost_low, cost_high)
             for j in range(p)] for i in range(p)]
    return GopInstance(SortInstance(tuple(map(tuple, subsets))),
                       CostMatrix(tuple(map(tuple, cost))))


def gen_graph(n: int, m: int, seed: int | Seed, weight_max: int = 100) -> Graph:
    """Simple random graph with m edges and positive integer weights."""
    from .iosim import Graph

    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    limit = n * (n - 1) // 2
    if not 1 <= m <= limit:
        raise ParameterError(f"m={m} infeasible for n={n} (max {limit})")
    rng = _rng(seed)
    if 3 * m <= limit:
        # sparse: rejection sampling avoids materializing all pairs
        seen: set[tuple[int, int]] = set()
        chosen = []
        while len(chosen) < m:
            u = rng.randint(1, n)
            v = rng.randint(1, n)
            if u == v:
                continue
            pair = (u, v) if u < v else (v, u)
            if pair in seen:
                continue
            seen.add(pair)
            chosen.append(pair)
    else:
        all_pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
        chosen = rng.sample(all_pairs, m)
    return Graph(n, tuple((u, v, rng.randint(1, weight_max)) for u, v in chosen))


def gen_tspfb(n: int, seed: int | Seed, weight_max: int = 20) -> TspFbInstance:
    """Random bipartite tour instance with positive integer weights."""
    from .drp import TspFbInstance

    if n < 2:
        raise ParameterError(f"n must be >= 2, got {n}")
    if weight_max < 1:
        raise ParameterError(f"weight_max must be >= 1, got {weight_max}")
    rng = _rng(seed)
    return TspFbInstance(tuple(tuple(rng.randint(1, weight_max) for _ in range(n))
                               for _ in range(n)))


# --- JSON serialization ---------------------------------------------------

def _num_out(value: Rational) -> int | float:
    value = as_exact(value)
    return value if isinstance(value, int) else float(value)


def _matrix_out(entries) -> list[list[int | float]]:
    return [[_num_out(v) for v in row] for row in entries]


def drp_to_json(inst: DrpInstance) -> dict:
    return {"p": inst.p,
            "transfer": _matrix_out(inst.transfer.entries),
            "cost": _matrix_out(inst.cost.entries)}


def drp_from_json(data: Mapping) -> DrpInstance:
    from .drp import DrpInstance

    _require(data, ("p", "transfer", "cost"), "redistribution instance")
    # the loader tolerates positive diagonals so that reduced tour instances
    # (whose weights land on the diagonal too) survive a JSON round trip
    inst = DrpInstance(TransferMatrix(tuple(map(tuple, data["transfer"]))),
                       CostMatrix(tuple(map(tuple, data["cost"])),
                                  allow_nonzero_diagonal=True))
    if inst.p != data["p"]:
        raise InstanceError(f"field p={data['p']} disagrees with matrix size {inst.p}")
    return inst


def gop_to_json(g: GopInstance) -> dict:
    return {"p": g.p,
            "subsets": [list(s) for s in g.inst.subsets],
            "cost": _matrix_out(g.cost.entries)}


def gop_from_json(data: Mapping) -> GopInstance:
    _require(data, ("p", "subsets", "cost"), "sorting instance")
    g = GopInstance(SortInstance(tuple(tuple(s) for s in data["subsets"])),
                    CostMatrix(tuple(map(tuple, data["cost"]))))
    if g.p != data["p"]:
        raise InstanceError(f"field p={data['p']} disagrees with subset count {g.p}")
    return g


def graph_to_json(graph: Graph) -> dict:
    return {"n": graph.n_vertices,
            "edges": [[u, v, _num_out(w)] for u, v, w in graph.edges]}


def graph_from_json(data: Mapping) -> Graph:
    from .iosim import Graph

    _require(data, ("n", "edges"), "graph")
    return Graph(data["n"], tuple((u, v, w) for u, v, w in data["edges"]))


def tspfb_to_json(tour: TspFbInstance) -> dict:
    return {"n": tour.n, "weights": _matrix_out(tour.weights)}


def tspfb_from_json(data: Mapping) -> TspFbInstance:
    from .drp import TspFbInstance

    _require(data, ("n", "weights"), "bipartite tour instance")
    tour = TspFbInstance(tuple(map(tuple, data["weights"])))
    if tour.n != data["n"]:
        raise InstanceError(f"field n={data['n']} disagrees with matrix size {tour.n}")
    return tour


def _require(data: Mapping, keys: Sequence[str], what: str) -> None:
    if not isinstance(data, Mapping):
        raise InstanceError(f"{what} must be a JSON object")
    for key in keys:
        if key not in data:
            raise InstanceError(f"{what} is missing the {key!r} field")


def dumps_canonical(data: object) -> str:
    """Stable byte-for-byte JSON rendering (sorted keys, compact, newline)."""
    return json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"


# --- sweeps ----------------------------------------------------------------

class SweepSpec(Value):
    """What to sweep and how: kind, ascending sizes, trials per size, seed,
    and the model knobs the kind needs. ``guard`` is gop-ratio's work guard;
    None means the default."""

    __slots__ = _fields = ("kind", "sizes", "trials", "seed", "cost_low",
                           "cost_high", "mass_max", "p", "memory", "epsilon",
                           "edge_factor", "guard")

    def __init__(self, kind: str, sizes: Sequence[int], trials: int = 1,
                 seed: int = 0, cost_low: int = 1, cost_high: int = 10,
                 mass_max: int = 20, p: int | None = None,
                 memory: int | None = None, epsilon: Fraction = Fraction(1, 10),
                 edge_factor: int = 4, guard: int | None = None) -> None:
        if kind not in SWEEP_KINDS:
            raise ParameterError(
                f"unknown sweep kind {kind!r}; expected one of {', '.join(SWEEP_KINDS)}")
        sizes = tuple(sizes)
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
        Seed(seed)
        _set(self, "kind", kind)
        _set(self, "sizes", sizes)
        _set(self, "trials", trials)
        _set(self, "seed", seed)
        _set(self, "cost_low", cost_low)
        _set(self, "cost_high", cost_high)
        _set(self, "mass_max", mass_max)
        _set(self, "p", p)
        _set(self, "memory", memory)
        _set(self, "epsilon", epsilon)
        _set(self, "edge_factor", edge_factor)
        _set(self, "guard", guard)


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


def _trial_seed(spec: SweepSpec, size: int, trial: int) -> int:
    return (spec.seed * 1_000_003 + size * 1009 + trial) % (2 ** 64)


def run_sweep(spec: SweepSpec) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Run the sweep and return (header, rows) of stringified cells.

    One row per (size, trial) in deterministic order, then a summary row
    holding the maximum ratio and, for IO sweeps, the classification.
    A gop-ratio row over the work guard is marked ``skipped`` and the sweep
    continues.
    """
    runner = {
        "drp-ratio": _sweep_drp_ratio,
        "gop-ratio": _sweep_gop_ratio,
        "terasort-io": _sweep_terasort,
        "mst-io": _sweep_mst,
        "mm-io": _sweep_mm,
    }[spec.kind]
    return runner(spec)


def sweep_to_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _sweep_drp_ratio(spec: SweepSpec):
    from .drp import drp_solve_approx, drp_solve_exact, ratio_bound

    header = ("p", "trial", "status", "exact_cost", "approx_cost",
              "ratio", "bound", "within_bound")
    rows = []
    max_ratio = Fraction(0)
    for p in spec.sizes:
        for trial in range(spec.trials):
            seed = _trial_seed(spec, p, trial)
            inst = gen_drp(p, spec.cost_low, spec.cost_high, spec.mass_max, seed)
            _, exact = drp_solve_exact(inst)
            _, approx = drp_solve_approx(inst)
            bound = ratio_bound(inst.cost)
            ratio = Fraction(1) if exact == 0 else Fraction(approx) / Fraction(exact)
            max_ratio = max(max_ratio, ratio)
            rows.append((_fmt(p), _fmt(trial), "ok", _fmt(exact), _fmt(approx),
                         _fmt(ratio), _fmt(bound), _fmt(ratio <= bound)))
    rows.append(("all", "summary", "ok", "", "", _fmt(max_ratio), "", ""))
    return header, tuple(rows)


def _sweep_gop_ratio(spec: SweepSpec):
    from .drp import ratio_bound
    from .gopsort import gop_solve_approx, gop_solve_exact

    header = ("n", "p", "trial", "status", "exact_total", "approx_total",
              "ratio", "bound", "within_bound")
    p = spec.p or 2
    rows = []
    max_ratio = 0.0
    for n in spec.sizes:
        for trial in range(spec.trials):
            seed = _trial_seed(spec, n, trial)
            try:
                g = gen_gop(n, p, seed, spec.cost_low, spec.cost_high)
                exact = gop_solve_exact(g, work_guard=spec.guard or DEFAULT_WORK_GUARD)
                approx = gop_solve_approx(g)
            except GuardError:
                rows.append((_fmt(n), _fmt(p), _fmt(trial), "skipped",
                             "", "", "", "", ""))
                continue
            bound = max(float(ratio_bound(g.cost)), 2.0)
            ratio = (1.0 if exact.total_cost == 0
                     else approx.total_cost / exact.total_cost)
            max_ratio = max(max_ratio, ratio)
            rows.append((_fmt(n), _fmt(p), _fmt(trial), "ok",
                         _fmt(exact.total_cost), _fmt(approx.total_cost),
                         _fmt(ratio), _fmt(bound), _fmt(ratio <= bound + FLOAT_TOLERANCE)))
    rows.append(("all", _fmt(p), "summary", "ok", "", "", _fmt(max_ratio), "", ""))
    return header, tuple(rows)


def _sweep_terasort(spec: SweepSpec):
    from .iosim import ExternalMemoryConfig, io_sort_count, terasort_simulate

    header = ("n", "trial", "status", "parallel_io", "serial_io", "ratio",
              "classification")
    p = spec.p or 4
    memory = 1000 if spec.memory is None else spec.memory
    rows = []
    per_size: list[tuple[int, int, int]] = []
    for n in spec.sizes:
        par_total = ser_total = 0
        for trial in range(spec.trials):
            seed = _trial_seed(spec, n, trial)
            g = gen_gop(n, p, seed, spec.cost_low, spec.cost_high)
            _, report = terasort_simulate(
                g.inst, ExternalMemoryConfig(memory, p), g.cost)
            serial = io_sort_count(n, memory)
            par_total += report.total_io
            ser_total += serial
            rows.append((_fmt(n), _fmt(trial), "ok", _fmt(report.total_io),
                         _fmt(serial), _fmt(Fraction(report.total_io, serial)), ""))
        per_size.append((n, par_total, ser_total))
    label = _classify_label(per_size)
    rows.append(("all", "summary", "ok", "", "",
                 _fmt(max(Fraction(a, b) for _, a, b in per_size)), label))
    return header, tuple(rows)


def _sweep_mst(spec: SweepSpec):
    from .iosim import kruskal_serial_io, nowicki_partition_io

    header = ("n", "m", "trial", "status", "parallel_io", "analytic_io",
              "serial_io", "ratio", "classification")
    rows = []
    per_size: list[tuple[int, int, int]] = []
    for n in spec.sizes:
        m = math.isqrt(n ** 3)  # floor(n^1.5)
        memory = n if spec.memory is None else spec.memory
        par_total = ser_total = 0
        for trial in range(spec.trials):
            seed = _trial_seed(spec, n, trial)
            graph = gen_graph(n, m, seed)
            report = nowicki_partition_io(graph, memory)
            serial = kruskal_serial_io(m, memory)
            par_total += report.total_io
            ser_total += serial
            rows.append((_fmt(n), _fmt(m), _fmt(trial), "ok",
                         _fmt(report.total_io), _fmt(report.extras["analytic_io"]),
                         _fmt(serial), _fmt(Fraction(report.total_io, serial)), ""))
        per_size.append((n, par_total, ser_total))
    label = _classify_label(per_size)
    rows.append(("all", "", "summary", "ok", "", "", "",
                 _fmt(max(Fraction(a, b) for _, a, b in per_size)), label))
    return header, tuple(rows)


def _sweep_mm(spec: SweepSpec):
    from .iosim import mm_parallel_io_model, mm_serial_run

    header = ("n", "m", "trial", "status", "iterations", "parallel_io",
              "serial_io", "ratio", "classification")
    rows = []
    per_size: list[tuple[int, int, int]] = []
    for n in spec.sizes:
        m = min(n * (n - 1) // 2, spec.edge_factor * n)
        par_total = ser_total = 0
        for trial in range(spec.trials):
            seed = _trial_seed(spec, n, trial)
            graph = gen_graph(n, m, seed)
            _, serial_report = mm_serial_run(graph, spec.epsilon)
            parallel_report = mm_parallel_io_model(graph, spec.epsilon)
            par_total += parallel_report.total_io
            ser_total += serial_report.total_io
            rows.append((_fmt(n), _fmt(m), _fmt(trial), "ok",
                         _fmt(len(serial_report.phases)),
                         _fmt(parallel_report.total_io),
                         _fmt(serial_report.total_io),
                         _fmt(Fraction(parallel_report.total_io,
                                       serial_report.total_io)), ""))
        per_size.append((n, par_total, ser_total))
    label = _classify_label(per_size)
    rows.append(("all", "", "summary", "ok", "", "", "",
                 _fmt(max(Fraction(a, b) for _, a, b in per_size)), label))
    return header, tuple(rows)


def _classify_label(per_size: Sequence[tuple[int, int, int]]) -> str:
    from .iosim import IoOptimality, classify_io_optimality

    try:
        return classify_io_optimality(per_size).value
    except (GuardError, ParameterError):
        return IoOptimality.INCONCLUSIVE.value
