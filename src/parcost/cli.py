"""Command-line entry point.

Every subcommand reads instance JSON from --input (or stdin), writes result
JSON (or CSV for sweeps) to --output (or stdout), and keeps stdout free of
anything but the result so invocations compose in shell pipelines. Exit
codes: 0 success, 1 guard/infeasible, 2 bad input.
"""

from __future__ import annotations

import argparse
import gc
import json
import sys
from itertools import chain

from .constants import (DEFAULT_COST_HIGH, DEFAULT_COST_LOW, DEFAULT_EPSILON,
                        DEFAULT_MASS_MAX, DEFAULT_MEMORY, DEFAULT_WORK_GUARD, SWEEP_KINDS)
from .errors import GuardError, InstanceError, ParameterError

# A handler returns its result, a JSON value or CSV text, for main to write.
# It imports the codecs, solvers and simulators it uses in its body, so a
# process loads only its own command's modules.

# instance kind -> the fields that tell its JSON layout apart; each kind has
# a loader core.{kind}_from_json and a writer core.{kind}_to_json
_KINDS = {"drp": ("transfer", "cost"), "gop": ("subsets", "cost"),
          "graph": ("edges", "n"), "tspfb": ("weights", "n")}


class _Ints(dict):
    """Each JSON int spelling's int, made on its first lookup."""

    def __missing__(self, spelling: str) -> int:
        value = self[spelling] = int(spelling)
        return value


def _read_json(args, kind: str | None) -> object:
    """The file's JSON as ``core.{kind}_from_json`` takes it. A graph names
    each vertex id about 2m/n times, so its parse makes one int per spelling.
    Each ``[u, v, w]`` list under ``"edges"`` becomes a tuple in place, once
    the text is dropped, so each list is freed as the tuple ``Graph`` keeps
    is made; a list of another length stays, for its error message."""
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    data = json.loads(text, parse_int=_Ints().__getitem__ if kind == "graph" else None)
    del text
    edges = data.get("edges") if isinstance(data, dict) else None
    if type(edges) is list:
        for k, edge in enumerate(edges):
            if type(edge) is list and len(edge) == 3:
                edges[k] = tuple(edge)
    return data


def _load(args, kind: str) -> object:
    # looked up on each call, so that a wrapped loader is the one run
    from . import core

    return getattr(core, f"{kind}_from_json")(_read_json(args, kind))


def _num_out(value) -> int | float:
    return value if isinstance(value, int) else float(value)


def _solution_json(solution) -> dict:
    return {
        "splitters": list(solution.splitters),
        "mapping": list(solution.assignment.mapping),
        "comm_cost": _num_out(solution.comm_cost),
        "io_cost": solution.io_cost,
        "total_cost": solution.total_cost,
    }


def _report_json(report) -> dict:
    return {
        "phases": [{"label": label, "io_ops": io, "comm_amount": _num_out(comm)}
                   for label, io, comm in report.phases],
        "total_io": report.total_io,
        "total_comm": _num_out(report.total_comm),
    }


def _cmd_drp_exact(args) -> dict:
    from .drp import drp_solve_exact

    assignment, cost = drp_solve_exact(_load(args, "drp"))
    return {"mapping": list(assignment.mapping), "cost": _num_out(cost)}


def _cmd_drp_approx(args) -> dict:
    from .drp import drp_solve_approx, ratio_bound

    inst = _load(args, "drp")
    assignment, cost = drp_solve_approx(inst)
    bound = ratio_bound(inst.cost)
    return {"mapping": list(assignment.mapping), "cost": _num_out(cost),
            "ratio_bound": None if bound is None else _num_out(bound)}


def _cmd_gop_exact(args) -> dict:
    from .gopsort import gop_solve_exact

    return _solution_json(gop_solve_exact(_load(args, "gop"), work_guard=args.guard))


def _cmd_gop_approx(args) -> dict:
    from .gopsort import gop_solve_approx

    return _solution_json(gop_solve_approx(_load(args, "gop"),
                                           exact_assignment=args.exact_assignment))


def _cmd_reduce_tspfb(args) -> dict:
    from .core import drp_to_json
    from .drp import tspfb_to_drp

    return drp_to_json(tspfb_to_drp(_load(args, "tspfb")))


def _cmd_sim_terasort(args) -> dict:
    from .iosim import io_sort_count, terasort_simulate

    g = _load(args, "gop")
    outputs, report = terasort_simulate(g, args.memory)
    flat = list(chain.from_iterable(outputs))
    result = _report_json(report)
    result["sorted"] = flat == sorted(flat)
    result["serial_io"] = io_sort_count(g.n, args.memory)
    if args.with_output:
        result["output"] = [list(out) for out in outputs]
    return result


def _cmd_sim_mm(args) -> dict:
    from .iosim import mm_serial_run

    state, report = mm_serial_run(_load(args, "graph"), args.epsilon)
    # the parallel profile is the run's phases: iosim.mm_parallel_io_model's rule
    profile = _report_json(report)
    return {
        "iterations": len(report.phases),
        "serial": profile,
        "parallel": profile,
        "frozen_vertices": sorted(state.frozen_vertices),
        # the last entry is the maximum vertex load after the final iteration
        "max_vertex_load": float(report.extras["max_vertex_load_per_iteration"][-1]),
    }


def _cmd_sim_mst_io(args) -> dict:
    from .iosim import kruskal_serial_io, nowicki_partition_io

    graph = _load(args, "graph")
    memory = args.memory if args.memory is not None else graph.n_vertices
    report = nowicki_partition_io(graph)
    serial = kruskal_serial_io(graph.n_edges, memory)
    return {
        "parallel_io": report.total_io,
        "analytic_io": report.extras["analytic_io"],
        "serial_io": serial,
        "ratio": report.total_io / serial,
    }


def _cmd_sweep(args) -> dict | str:
    from .bench import SweepSpec, run_sweep, sweep_to_csv

    # SweepSpec holds the defaults; sizes convert first, so their error wins
    spec = {name: value for name in SweepSpec._fields
            if (value := getattr(args, name)) is not None}
    try:
        spec["sizes"] = tuple(int(s) for s in args.sizes.split(","))
    except ValueError:  # text such as "2,x" names no integer
        raise ParameterError(
            f"sizes must be comma-separated integers, got {args.sizes!r}") from None
    header, rows = run_sweep(SweepSpec(**spec))
    if args.format == "json":
        return {"header": list(header), "rows": [list(r) for r in rows]}
    return sweep_to_csv(header, rows)


def _cmd_gen(args) -> dict:
    from . import bench, core

    if args.kind == "drp":
        inst = bench.gen_drp(args.p, args.cost_low, args.cost_high, args.mass_max, args.seed)
    elif args.kind == "gop":
        inst = bench.gen_gop(args.n, args.p, args.seed, args.cost_low, args.cost_high)
    elif args.kind == "graph":
        inst = bench.gen_graph(args.n, args.m, args.seed)
    else:
        inst = bench.gen_tspfb(args.n, args.seed)
    return getattr(core, f"{args.kind}_to_json")(inst)


def _cmd_validate(args) -> dict:
    from . import core

    if args.kind is not None:  # its loader names the field a file lacks
        _load(args, args.kind)
        return {"valid": True, "kind": args.kind}
    data = _read_json(args, None)
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    for kind, fields in _KINDS.items():
        if all(k in data for k in fields):
            getattr(core, f"{kind}_from_json")(data)
            return {"valid": True, "kind": kind}
    raise InstanceError(
        "unrecognized instance layout; expected transfer/cost, subsets/cost, "
        "n/edges, or n/weights fields")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:  # text such as "abc" or "2.5" names no integer
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _command(subs, name: str, handler, help: str, instance: bool = True):
    """Add a subcommand run by `handler`, with --input and --output if `instance`."""
    sub = subs.add_parser(name, help=help)
    if instance:
        sub.add_argument("--input", help="instance JSON file ('-' or omitted: stdin)")
        sub.add_argument("--output", help="result file ('-' or omitted: stdout)")
    sub.set_defaults(handler=handler)
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcost",
        description="Solvers and IO simulators for redistribution planning "
                    "on clusters with non-uniform link costs.")
    subs = parser.add_subparsers(dest="command", required=True)

    _command(subs, "drp-exact", _cmd_drp_exact,
             "exact redistribution optimum (Hungarian method, O(p^3))")
    _command(subs, "drp-approx", _cmd_drp_approx, "assignment-surrogate approximation")

    sub = _command(subs, "gop-exact", _cmd_gop_exact,
                   "exhaustive splitter+assignment optimum")
    sub.add_argument("--guard", type=_positive_int, default=DEFAULT_WORK_GUARD,
                     help="work cap on C(n,p-1)*p! (default %(default)s)")

    sub = _command(subs, "gop-approx", _cmd_gop_approx,
                   "equal splitters + surrogate assignment")
    sub.add_argument("--exact-assignment", action="store_true",
                     help="solve the redistribution subproblem exactly (extension)")

    _command(subs, "reduce-tspfb", _cmd_reduce_tspfb,
             "encode a bipartite tour instance as a redistribution instance")

    sub = _command(subs, "sim-terasort", _cmd_sim_terasort, "three-phase range-partition sort")
    sub.add_argument("--memory", type=int, default=DEFAULT_MEMORY,
                     help="main-memory records per machine (default %(default)s)")
    sub.add_argument("--with-output", action="store_true",
                     help="include the sorted records in the result")

    sub = _command(subs, "sim-mm", _cmd_sim_mm, "fractional matching IO profile")
    sub.add_argument("--epsilon", default=DEFAULT_EPSILON,
                     help="boost parameter in (0, 1/2), e.g. 0.1 or 1/10")

    sub = _command(subs, "sim-mst-io", _cmd_sim_mst_io, "edge-partition spanning-forest IO")
    sub.add_argument("--memory", type=int,
                     help="serial-model memory (default: vertex count)")

    sub = _command(subs, "sweep", _cmd_sweep, "cost/ratio tables over a size sweep",
                   instance=False)
    sub.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    sub.add_argument("--sizes", required=True,
                     help="comma-separated ascending sizes, e.g. 64,256,1024")
    sub.add_argument("--trials", type=int)
    sub.add_argument("--seed", type=int)
    sub.add_argument("--cost-low", type=int)
    sub.add_argument("--cost-high", type=int)
    sub.add_argument("--mass-max", type=int)
    sub.add_argument("--p", type=int, help="machine count where the kind needs one")
    sub.add_argument("--memory", type=int)
    sub.add_argument("--epsilon")
    sub.add_argument("--edge-factor", type=int)
    sub.add_argument("--guard", type=_positive_int,
                     help=f"gop-ratio work cap on C(n,p-1)*p! (default {DEFAULT_WORK_GUARD})")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--output")

    sub = _command(subs, "gen", _cmd_gen, "generate a random instance", instance=False)
    sub.add_argument("--kind", required=True, choices=tuple(_KINDS))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--p", type=int, default=4)
    sub.add_argument("--n", type=int, default=16)
    sub.add_argument("--m", type=int, default=32)
    sub.add_argument("--cost-low", type=int, default=DEFAULT_COST_LOW)
    sub.add_argument("--cost-high", type=int, default=DEFAULT_COST_HIGH)
    sub.add_argument("--mass-max", type=int, default=DEFAULT_MASS_MAX)
    sub.add_argument("--output")

    sub = _command(subs, "validate", _cmd_validate, "check an instance file's invariants")
    sub.add_argument("--kind", choices=tuple(_KINDS),
                     help="expected instance kind (default: sniff by fields)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        result = args.handler(args)
        if not isinstance(result, str):
            # looked up here, so that a wrapped writer is the one run
            from .core import dumps_canonical

            result = dumps_canonical(result)
        if args.output in (None, "-"):
            sys.stdout.write(result)
        else:
            with open(args.output, "w", encoding="utf-8") as handle:
                handle.write(result)
        return 0
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    # InstanceError and ParameterError are ValueErrors
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


# The process entry. A request builds only acyclic data: its cyclic garbage is
# the parser, 541 objects at any input size (tests/test_cli.py checks), so the
# collector is paused. Freezing takes the objects tracked at start-up out of
# every pass, the exit-time pass included, and a forked sweep worker never
# writes their GC headers (the fork recipe in gc.freeze's documentation).
def run() -> None:
    gc.freeze()
    gc.disable()
    raise SystemExit(main())


if __name__ == "__main__":
    run()
