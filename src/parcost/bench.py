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
import re
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
    _check_cost_range(cost_low, cost_high)
    if mass_max < 1:
        raise ParameterError(f"mass_max must be >= 1, got {mass_max}")
    rng = _rng(seed)
    cost = _random_costs(rng, p, cost_low, cost_high)
    transfer = [[rng.randint(0, mass_max) for _ in range(p)] for _ in range(p)]
    return DrpInstance(TransferMatrix(tuple(map(tuple, transfer))), cost)


def gen_gop(n: int, p: int, seed: int | Seed, cost_low: int = 1,
            cost_high: int = 10, value_span: int = 10) -> GopInstance:
    """n distinct integers spread uniformly over p machines, random cluster costs."""
    if p < 2 or n < p:
        raise ParameterError(f"need n >= p >= 2, got n={n}, p={p}")
    _check_cost_range(cost_low, cost_high)
    rng = _rng(seed)
    values = rng.sample(range(1, value_span * n + 1), n)
    subsets: list[list[int]] = [[] for _ in range(p)]
    for value in values:
        subsets[rng.randrange(p)].append(value)
    return GopInstance(SortInstance(tuple(map(tuple, subsets))),
                       _random_costs(rng, p, cost_low, cost_high))


def _check_cost_range(cost_low: int, cost_high: int) -> None:
    if not 0 < cost_low <= cost_high:
        raise ParameterError(
            f"need 0 < cost_low <= cost_high, got [{cost_low}, {cost_high}]")


def _random_costs(rng: random.Random, p: int, cost_low: int, cost_high: int) -> CostMatrix:
    """Zero diagonal, integer off-diagonal link costs in [cost_low, cost_high]."""
    return CostMatrix(tuple(tuple(0 if i == j else rng.randint(cost_low, cost_high)
                                  for j in range(p)) for i in range(p)))


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

def _exact_out(value: Rational) -> int | float | str:
    """An instance entry as JSON that reads back as the same number: an int,
    a float when it equals the value exactly, or else the string "num/den"."""
    value = as_exact(value)
    if isinstance(value, int):
        return value
    try:
        if float(value) == value:
            return float(value)
    except OverflowError:
        pass
    return f"{value.numerator}/{value.denominator}"


def _exact_in(value: object) -> object:
    """The inverse of _exact_out: a "num/den" string becomes its Fraction; any
    other string is refused, and numbers pass on to the instance checks."""
    if not isinstance(value, str):
        return value
    if re.fullmatch(r"-?[0-9]+/0*[1-9][0-9]*", value) is None:
        raise InstanceError(f"a numeric string must read \"num/den\", got {value!r}")
    return Fraction(value)


def _matrix_out(entries) -> list[list[int | float | str]]:
    return [[_exact_out(v) for v in row] for row in entries]


def _matrix_in(rows) -> object:
    # a row without strings passes on as is, which keeps large loads cheap;
    # the matrix constructors check the shape and name a bad row
    if not isinstance(rows, list):
        return rows
    return [list(map(_exact_in, row)) if isinstance(row, list) and str in map(type, row)
            else row for row in rows]


def drp_to_json(inst: DrpInstance) -> dict:
    return {"p": inst.p,
            "transfer": _matrix_out(inst.transfer.entries),
            "cost": _matrix_out(inst.cost.entries)}


def drp_from_json(data: Mapping) -> DrpInstance:
    from .drp import DrpInstance

    _require(data, ("p", "transfer", "cost"), "redistribution instance")
    # the loader tolerates positive diagonals so that reduced tour instances
    # (whose weights land on the diagonal too) survive a JSON round trip
    inst = DrpInstance(TransferMatrix(_matrix_in(data["transfer"])),
                       CostMatrix(_matrix_in(data["cost"]), allow_nonzero_diagonal=True))
    if inst.p != data["p"]:
        raise InstanceError(f"field p={data['p']} disagrees with matrix size {inst.p}")
    return inst


def gop_to_json(g: GopInstance) -> dict:
    return {"p": g.p,
            "subsets": [list(s) for s in g.inst.subsets],
            "cost": _matrix_out(g.cost.entries)}


def gop_from_json(data: Mapping) -> GopInstance:
    _require(data, ("p", "subsets", "cost"), "sorting instance")
    g = GopInstance(SortInstance(data["subsets"]),
                    CostMatrix(_matrix_in(data["cost"])))
    if g.p != data["p"]:
        raise InstanceError(f"field p={data['p']} disagrees with subset count {g.p}")
    return g


def graph_to_json(graph: Graph) -> dict:
    return {"n": graph.n_vertices,
            "edges": [[u, v, _exact_out(w)] for u, v, w in graph.edges]}


def graph_from_json(data: Mapping) -> Graph:
    from .iosim import Graph

    _require(data, ("n", "edges"), "graph")
    edges = data["edges"]
    if not isinstance(edges, list):
        raise InstanceError(f"graph edges must be a list, got {edges!r}")
    # only a string weight needs reading ("num/den"); Graph checks the rest
    checked = []
    for k, edge in enumerate(edges):
        if type(edge) is not list or len(edge) != 3:
            raise InstanceError(f"edge {k + 1} is not a [u, v, weight] list: {edge!r}")
        u, v, w = edge
        checked.append((u, v, _exact_in(w) if type(w) is str else w))
    return Graph(data["n"], checked)


def tspfb_to_json(tour: TspFbInstance) -> dict:
    return {"n": tour.n, "weights": _matrix_out(tour.weights)}


def tspfb_from_json(data: Mapping) -> TspFbInstance:
    from .drp import TspFbInstance

    _require(data, ("n", "weights"), "bipartite tour instance")
    tour = TspFbInstance(_matrix_in(data["weights"]))
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


def run_sweep(spec: SweepSpec) -> tuple[tuple[str, ...], tuple[tuple[str, ...], ...]]:
    """Run the sweep and return (header, rows) of stringified cells.

    One row per (size, trial) in deterministic order, then a summary row
    holding the maximum ratio and, for IO sweeps, the classification.
    A gop-ratio row over the work guard is marked ``skipped`` and the sweep
    continues.
    """
    header, defaults, measure = _SWEEPS[spec.kind]
    settings = {name: default if getattr(spec, name) is None else getattr(spec, name)
                for name, default in defaults.items()}
    io_sweep = "classification" in header
    rows = []
    max_ratio = 0.0
    per_size: list[tuple[int, int, int]] = []
    for size in spec.sizes:
        par_total = ser_total = 0
        for trial in range(spec.trials):
            row = {**settings, header[0]: size, "trial": trial}
            seed = (spec.seed * 1_000_003 + size * 1009 + trial) % (2 ** 64)
            try:
                row.update(measure(spec, size, seed, **settings))
            except GuardError:
                row["status"] = "skipped"
            else:
                row["status"] = "ok"
                if io_sweep:
                    par_total += row["parallel_io"]
                    ser_total += row["serial_io"]
                    row["ratio"] = Fraction(row["parallel_io"], row["serial_io"])
                max_ratio = max(max_ratio, row["ratio"])
            rows.append(tuple(_fmt(row.get(column)) for column in header))
        per_size.append((size, par_total, ser_total))
    summary = {**settings, header[0]: "all", "trial": "summary", "status": "ok",
               "ratio": max_ratio}
    if io_sweep:
        from .iosim import IoOptimality, classify_io_optimality

        summary["ratio"] = max(Fraction(a, b) for _, a, b in per_size)
        try:
            summary["classification"] = classify_io_optimality(per_size).value
        except (GuardError, ParameterError):
            summary["classification"] = IoOptimality.INCONCLUSIVE.value
    rows.append(tuple(_fmt(summary.get(column)) for column in header))
    return header, tuple(rows)


def sweep_to_csv(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    import csv

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


# A sweep kind's measure function builds one instance for a size and trial
# seed and returns its cells by column name; run_sweep adds the size, trial,
# status and summary cells, and for IO kinds each row's ratio. The spec
# fields a kind defaults are resolved once per sweep and passed to every
# measure call; one named like a column is printed in every row.

def _measure_drp_ratio(spec: SweepSpec, p: int, seed: int) -> dict:
    from .drp import drp_solve_approx, drp_solve_exact, ratio_bound

    inst = gen_drp(p, spec.cost_low, spec.cost_high, spec.mass_max, seed)
    _, exact = drp_solve_exact(inst)
    _, approx = drp_solve_approx(inst)
    bound = ratio_bound(inst.cost)
    ratio = Fraction(1) if exact == 0 else Fraction(approx) / Fraction(exact)
    return {"exact_cost": exact, "approx_cost": approx, "ratio": ratio,
            "bound": bound, "within_bound": ratio <= bound}


def _measure_gop_ratio(spec: SweepSpec, n: int, seed: int, p: int, guard: int) -> dict:
    from .drp import ratio_bound
    from .gopsort import gop_solve_approx, gop_solve_exact

    g = gen_gop(n, p, seed, spec.cost_low, spec.cost_high)
    exact = gop_solve_exact(g, work_guard=guard).total_cost
    approx = gop_solve_approx(g).total_cost
    bound = max(float(ratio_bound(g.cost)), 2.0)
    ratio = 1.0 if exact == 0 else approx / exact
    return {"exact_total": exact, "approx_total": approx, "ratio": ratio,
            "bound": bound, "within_bound": ratio <= bound + FLOAT_TOLERANCE}


def _measure_terasort(spec: SweepSpec, n: int, seed: int, p: int, memory: int) -> dict:
    from .iosim import ExternalMemoryConfig, io_sort_count, terasort_simulate

    g = gen_gop(n, p, seed, spec.cost_low, spec.cost_high)
    _, report = terasort_simulate(g.inst, ExternalMemoryConfig(memory, p), g.cost)
    return {"parallel_io": report.total_io, "serial_io": io_sort_count(n, memory)}


def _measure_mst(spec: SweepSpec, n: int, seed: int) -> dict:
    from .iosim import kruskal_serial_io, nowicki_partition_io

    m = math.isqrt(n ** 3)  # floor(n^1.5)
    memory = n if spec.memory is None else spec.memory
    report = nowicki_partition_io(gen_graph(n, m, seed), memory)
    return {"m": m, "parallel_io": report.total_io,
            "analytic_io": report.extras["analytic_io"],
            "serial_io": kruskal_serial_io(m, memory)}


def _measure_mm(spec: SweepSpec, n: int, seed: int) -> dict:
    from .iosim import mm_parallel_io_model, mm_serial_run

    m = min(n * (n - 1) // 2, spec.edge_factor * n)
    graph = gen_graph(n, m, seed)
    _, serial_report = mm_serial_run(graph, spec.epsilon)
    return {"m": m, "iterations": len(serial_report.phases),
            "parallel_io": mm_parallel_io_model(graph, spec.epsilon).total_io,
            "serial_io": serial_report.total_io}


# kind -> (header, spec field defaults, measure), in constants.SWEEP_KINDS order
_SWEEPS = {
    "drp-ratio": (("p", "trial", "status", "exact_cost", "approx_cost",
                   "ratio", "bound", "within_bound"),
                  {}, _measure_drp_ratio),
    "gop-ratio": (("n", "p", "trial", "status", "exact_total", "approx_total",
                   "ratio", "bound", "within_bound"),
                  {"p": 2, "guard": DEFAULT_WORK_GUARD}, _measure_gop_ratio),
    "terasort-io": (("n", "trial", "status", "parallel_io", "serial_io", "ratio",
                     "classification"),
                    {"p": 4, "memory": 1000}, _measure_terasort),
    "mst-io": (("n", "m", "trial", "status", "parallel_io", "analytic_io",
                "serial_io", "ratio", "classification"),
               {}, _measure_mst),
    "mm-io": (("n", "m", "trial", "status", "iterations", "parallel_io",
               "serial_io", "ratio", "classification"),
              {}, _measure_mm),
}
