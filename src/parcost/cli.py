"""Command-line entry point.

Every subcommand reads instance JSON from --input (or stdin), writes result
JSON (or CSV for sweeps) to --output (or stdout), and keeps stdout free of
anything but the result so invocations compose in shell pipelines. Exit
codes: 0 success, 1 guard/infeasible, 2 bad input.
"""

from __future__ import annotations

import argparse
import json
import sys

from .constants import DEFAULT_WORK_GUARD, SWEEP_KINDS
from .errors import GuardError, InstanceError, ParameterError

# Handlers import the codecs, solvers and simulators they use in their
# bodies, so a process loads only its own command's modules.


def _read_json(args) -> object:
    if args.input in (None, "-"):
        text = sys.stdin.read()
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            text = handle.read()
    return json.loads(text)


def _write(args, text: str) -> None:
    if getattr(args, "output", None) in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)


def _emit_json(args, data: object) -> None:
    from .bench import dumps_canonical

    _write(args, dumps_canonical(data))


def _solution_json(solution) -> dict:
    from .bench import _num_out

    return {
        "splitters": list(solution.splitters),
        "mapping": list(solution.assignment.mapping),
        "comm_cost": _num_out(solution.comm_cost),
        "io_cost": solution.io_cost,
        "total_cost": solution.total_cost,
    }


def _report_json(report) -> dict:
    from .bench import _num_out

    return {
        "phases": [{"label": label, "io_ops": io, "comm_amount": _num_out(comm)}
                   for label, io, comm in report.phases],
        "total_io": report.total_io,
        "total_comm": _num_out(report.total_comm),
    }


def _cmd_drp_exact(args) -> int:
    from .bench import _num_out, drp_from_json
    from .drp import drp_solve_exact

    inst = drp_from_json(_read_json(args))
    assignment, cost = drp_solve_exact(inst)
    _emit_json(args, {"mapping": list(assignment.mapping), "cost": _num_out(cost)})
    return 0


def _cmd_drp_approx(args) -> int:
    from .bench import _num_out, drp_from_json
    from .drp import drp_solve_approx, ratio_bound

    inst = drp_from_json(_read_json(args))
    assignment, cost = drp_solve_approx(inst)
    _emit_json(args, {"mapping": list(assignment.mapping), "cost": _num_out(cost),
                      "ratio_bound": _num_out(ratio_bound(inst.cost))})
    return 0


def _cmd_gop_exact(args) -> int:
    from .bench import gop_from_json
    from .gopsort import gop_solve_exact

    g = gop_from_json(_read_json(args))
    solution = gop_solve_exact(g, work_guard=args.guard)
    _emit_json(args, _solution_json(solution))
    return 0


def _cmd_gop_approx(args) -> int:
    from .bench import gop_from_json
    from .gopsort import gop_solve_approx

    g = gop_from_json(_read_json(args))
    solution = gop_solve_approx(g, exact_assignment=args.exact_assignment)
    _emit_json(args, _solution_json(solution))
    return 0


def _cmd_reduce_tspfb(args) -> int:
    from .bench import drp_to_json, tspfb_from_json
    from .drp import tspfb_to_drp

    tour = tspfb_from_json(_read_json(args))
    _emit_json(args, drp_to_json(tspfb_to_drp(tour)))
    return 0


def _cmd_sim_terasort(args) -> int:
    from .bench import gop_from_json
    from .iosim import ExternalMemoryConfig, io_sort_count, terasort_simulate

    g = gop_from_json(_read_json(args))
    cfg = ExternalMemoryConfig(args.memory, g.p)
    outputs, report = terasort_simulate(g.inst, cfg, g.cost)
    flat = [v for out in outputs for v in out]
    result = _report_json(report)
    result["sorted"] = flat == sorted(flat)
    result["serial_io"] = io_sort_count(g.n, args.memory)
    if args.with_output:
        result["output"] = [list(out) for out in outputs]
    _emit_json(args, result)
    return 0


def _cmd_sim_mm(args) -> int:
    from fractions import Fraction

    from .bench import graph_from_json
    from .iosim import mm_parallel_io_model, mm_serial_run

    graph = graph_from_json(_read_json(args))
    epsilon = Fraction(args.epsilon)
    state, serial_report = mm_serial_run(graph, epsilon)
    parallel_report = mm_parallel_io_model(graph, epsilon)
    loads = [0] * (graph.n_vertices + 1)
    for (u, v, _), x in zip(graph.edges, state.x):
        loads[u] += x
        loads[v] += x
    _emit_json(args, {
        "iterations": len(serial_report.phases),
        "serial": _report_json(serial_report),
        "parallel": _report_json(parallel_report),
        "frozen_vertices": sorted(state.frozen_vertices),
        # float is monotone, so this is the max of the per-vertex floats
        "max_vertex_load": float(max(loads[1:])),
    })
    return 0


def _cmd_sim_mst_io(args) -> int:
    from .bench import graph_from_json
    from .iosim import kruskal_serial_io, nowicki_partition_io

    graph = graph_from_json(_read_json(args))
    memory = args.memory if args.memory is not None else graph.n_vertices
    report = nowicki_partition_io(graph, memory)
    serial = kruskal_serial_io(graph.n_edges, memory)
    _emit_json(args, {
        "parallel_io": report.total_io,
        "analytic_io": report.extras["analytic_io"],
        "serial_io": serial,
        "ratio": report.total_io / serial,
    })
    return 0


def _cmd_sweep(args) -> int:
    from fractions import Fraction

    from .bench import SweepSpec, run_sweep, sweep_to_csv

    spec = SweepSpec(
        kind=args.kind,
        sizes=tuple(int(s) for s in args.sizes.split(",")),
        trials=args.trials,
        seed=args.seed,
        cost_low=args.cost_low,
        cost_high=args.cost_high,
        mass_max=args.mass_max,
        p=args.p,
        memory=args.memory,
        epsilon=Fraction(args.epsilon),
        edge_factor=args.edge_factor,
        guard=args.guard,
    )
    header, rows = run_sweep(spec)
    if args.format == "json":
        _emit_json(args, {"header": list(header), "rows": [list(r) for r in rows]})
    else:
        _write(args, sweep_to_csv(header, rows))
    return 0


def _cmd_gen(args) -> int:
    from . import bench

    if args.kind == "drp":
        data = bench.drp_to_json(bench.gen_drp(args.p, args.cost_low, args.cost_high,
                                               args.mass_max, args.seed))
    elif args.kind == "gop":
        data = bench.gop_to_json(bench.gen_gop(args.n, args.p, args.seed,
                                               args.cost_low, args.cost_high))
    elif args.kind == "graph":
        data = bench.graph_to_json(bench.gen_graph(args.n, args.m, args.seed))
    else:
        data = bench.tspfb_to_json(bench.gen_tspfb(args.n, args.seed))
    _emit_json(args, data)
    return 0


# each loader imports only the instance type of its own layout
_SNIFFERS = (
    ("drp", ("transfer", "cost"), "drp_from_json"),
    ("gop", ("subsets", "cost"), "gop_from_json"),
    ("graph", ("edges", "n"), "graph_from_json"),
    ("tspfb", ("weights", "n"), "tspfb_from_json"),
)


def _cmd_validate(args) -> int:
    from . import bench

    data = _read_json(args)
    if not isinstance(data, dict):
        raise InstanceError("instance file must hold a JSON object")
    for kind, keys, loader in _SNIFFERS:
        if args.kind in (None, kind) and all(k in data for k in keys):
            getattr(bench, loader)(data)
            _emit_json(args, {"valid": True, "kind": kind})
            return 0
    raise InstanceError(
        "unrecognized instance layout; expected transfer/cost, subsets/cost, "
        "n/edges, or n/weights fields")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def _add_io_flags(sub, output=True) -> None:
    sub.add_argument("--input", help="instance JSON file ('-' or omitted: stdin)")
    if output:
        sub.add_argument("--output", help="result file ('-' or omitted: stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="parcost",
        description="Solvers and IO simulators for redistribution planning "
                    "on clusters with non-uniform link costs.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("drp-exact",
                          help="exact redistribution optimum (Hungarian method, O(p^3))")
    _add_io_flags(sub)
    sub.set_defaults(handler=_cmd_drp_exact)

    sub = subs.add_parser("drp-approx", help="assignment-surrogate approximation")
    _add_io_flags(sub)
    sub.set_defaults(handler=_cmd_drp_approx)

    sub = subs.add_parser("gop-exact", help="exhaustive splitter+assignment optimum")
    _add_io_flags(sub)
    sub.add_argument("--guard", type=_positive_int, default=DEFAULT_WORK_GUARD,
                     help="work cap on C(n,p-1)*p! (default %(default)s)")
    sub.set_defaults(handler=_cmd_gop_exact)

    sub = subs.add_parser("gop-approx", help="equal splitters + surrogate assignment")
    _add_io_flags(sub)
    sub.add_argument("--exact-assignment", action="store_true",
                     help="solve the redistribution subproblem exactly (extension)")
    sub.set_defaults(handler=_cmd_gop_approx)

    sub = subs.add_parser("reduce-tspfb",
                          help="encode a bipartite tour instance as a "
                               "redistribution instance")
    _add_io_flags(sub)
    sub.set_defaults(handler=_cmd_reduce_tspfb)

    sub = subs.add_parser("sim-terasort", help="three-phase range-partition sort")
    _add_io_flags(sub)
    sub.add_argument("--memory", type=int, default=1000,
                     help="main-memory records per machine (default 1000)")
    sub.add_argument("--with-output", action="store_true",
                     help="include the sorted records in the result")
    sub.set_defaults(handler=_cmd_sim_terasort)

    sub = subs.add_parser("sim-mm", help="fractional matching IO profile")
    _add_io_flags(sub)
    sub.add_argument("--epsilon", default="1/10",
                     help="boost parameter in (0, 1/2), e.g. 0.1 or 1/10")
    sub.set_defaults(handler=_cmd_sim_mm)

    sub = subs.add_parser("sim-mst-io", help="edge-partition spanning-forest IO")
    _add_io_flags(sub)
    sub.add_argument("--memory", type=int,
                     help="serial-model memory (default: vertex count)")
    sub.set_defaults(handler=_cmd_sim_mst_io)

    sub = subs.add_parser("sweep", help="cost/ratio tables over a size sweep")
    sub.add_argument("--kind", required=True, choices=SWEEP_KINDS)
    sub.add_argument("--sizes", required=True,
                     help="comma-separated ascending sizes, e.g. 64,256,1024")
    sub.add_argument("--trials", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--cost-low", type=int, default=1)
    sub.add_argument("--cost-high", type=int, default=10)
    sub.add_argument("--mass-max", type=int, default=20)
    sub.add_argument("--p", type=int, help="machine count where the kind needs one")
    sub.add_argument("--memory", type=int)
    sub.add_argument("--epsilon", default="1/10")
    sub.add_argument("--edge-factor", type=int, default=4)
    sub.add_argument("--guard", type=_positive_int,
                     help=f"gop-ratio work cap on C(n,p-1)*p! (default {DEFAULT_WORK_GUARD})")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--csv", dest="format", action="store_const", const="csv",
                     help="force CSV output (the default)")
    sub.add_argument("--output")
    sub.set_defaults(handler=_cmd_sweep)

    sub = subs.add_parser("gen", help="generate a random instance")
    sub.add_argument("--kind", required=True, choices=("drp", "gop", "graph", "tspfb"))
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--p", type=int, default=4)
    sub.add_argument("--n", type=int, default=16)
    sub.add_argument("--m", type=int, default=32)
    sub.add_argument("--cost-low", type=int, default=1)
    sub.add_argument("--cost-high", type=int, default=10)
    sub.add_argument("--mass-max", type=int, default=20)
    sub.add_argument("--output")
    sub.set_defaults(handler=_cmd_gen)

    sub = subs.add_parser("validate", help="check an instance file's invariants")
    _add_io_flags(sub)
    sub.add_argument("--kind", choices=("drp", "gop", "graph", "tspfb"),
                     help="expected instance kind (default: sniff by fields)")
    sub.set_defaults(handler=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except GuardError as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}",
              file=sys.stderr)
        return 2
    except (InstanceError, ParameterError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
