"""parcost: redistribution planning and IO accounting for small clusters.

Exact and approximate solvers for data-placement problems on clusters with
non-uniform link costs, IO-counting simulators for distributed sorting,
spanning forests, and fractional matching, plus generators, serialization,
and a sweep harness. All types are immutable values and all operations are
pure functions, safe to call concurrently.
"""

from .core import (Assignment, CostMatrix, GopSolution, Rational, SortInstance,
                   TransferMatrix, as_exact, derive_transfer_and_load, drp_cost,
                   gop_objective, sort_io_term)
from .drp import (DrpInstance, TspFbInstance, drp_brute, drp_solve_approx,
                  drp_solve_exact, ratio_bound, tspfb_brute, tspfb_to_drp)
from .errors import GuardError, InstanceError, ParameterError
from .gopsort import (GopInstance, equal_splitters, gop_solve_approx,
                      gop_solve_exact)
from .iosim import (ExternalMemoryConfig, FractionalMatchingState, Graph,
                    IoOptimality, IoReport, classify_io_optimality,
                    io_sort_count, kruskal_serial_io, mm_parallel_io_model,
                    mm_serial_run, nowicki_partition_io, terasort_simulate)
from .lap import (AssignmentProblem, assignment_cost, drp_to_lap, lap_brute,
                  lap_solve)

__version__ = "0.1.0"

__all__ = [
    "Assignment", "AssignmentProblem", "CostMatrix", "DrpInstance",
    "ExternalMemoryConfig", "FractionalMatchingState", "GopInstance",
    "GopSolution", "Graph", "GuardError", "InstanceError", "IoOptimality",
    "IoReport", "ParameterError", "Rational", "SortInstance", "TransferMatrix",
    "TspFbInstance", "as_exact", "assignment_cost", "classify_io_optimality",
    "derive_transfer_and_load", "drp_brute", "drp_cost", "drp_solve_approx",
    "drp_solve_exact", "drp_to_lap", "equal_splitters", "gop_objective",
    "gop_solve_approx", "gop_solve_exact", "io_sort_count",
    "kruskal_serial_io", "lap_brute", "lap_solve", "mm_parallel_io_model",
    "mm_serial_run", "nowicki_partition_io", "ratio_bound", "sort_io_term",
    "terasort_simulate", "tspfb_brute", "tspfb_to_drp",
]
