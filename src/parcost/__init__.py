"""parcost: redistribution planning and IO accounting for small clusters.

Exact and approximate solvers for data-placement problems on clusters with
non-uniform link costs, IO-counting simulators for distributed sorting,
spanning forests, and fractional matching, plus generators, serialization,
and a sweep harness. All types are immutable values and all operations are
pure functions, safe to call concurrently.

The names below load on first use (PEP 562), so importing the package, or
one of its modules, loads no solver or simulator it does not reach.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "core": ("Assignment", "CostMatrix", "DrpInstance", "GopInstance", "GopSolution",
             "Graph", "Rational", "SortInstance", "TransferMatrix", "TspFbInstance",
             "as_exact", "derive_transfer_and_load", "drp_cost", "gop_objective",
             "sort_io_term"),
    "drp": ("drp_brute", "drp_solve_approx", "drp_solve_exact", "ratio_bound",
            "tspfb_brute", "tspfb_to_drp"),
    "errors": ("GuardError", "InstanceError", "ParameterError"),
    "gopsort": ("equal_splitters", "gop_solve_approx", "gop_solve_exact"),
    "iosim": ("FractionalMatchingState", "IoOptimality", "IoReport",
              "classify_io_optimality", "io_sort_count", "kruskal_serial_io",
              "mm_parallel_io_model", "mm_serial_run", "nowicki_partition_io",
              "terasort_simulate"),
    "lap": ("AssignmentProblem", "assignment_cost", "drp_to_lap", "lap_brute",
            "lap_solve"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
