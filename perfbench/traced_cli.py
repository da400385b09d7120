"""Traced stand-in for ``python -m parcost.cli``: same argv, same stdout.

Wraps the public functions listed in TRACED at every parcost module that
binds them, so calls between modules are recorded too, then runs
``parcost.cli.main``. Each call becomes a span [name, start, end, parent];
spans stay in memory and are written, with the request id, to the file
named by PERFBENCH_SPANS when the process exits.

Usage: PERFBENCH_SPANS=out.json PERFBENCH_REQUEST=id \
       PYTHONPATH=src python perfbench/traced_cli.py <parcost argv...>
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from time import perf_counter

TRACED = {
    "cli": ("main",),
    "bench": ("drp_from_json", "gop_from_json", "graph_from_json", "tspfb_from_json",
              "dumps_canonical", "run_sweep", "sweep_to_csv",
              "gen_drp", "gen_gop", "gen_graph"),
    "core": ("drp_cost", "derive_transfer_and_load", "sort_io_term"),
    "drp": ("drp_solve_exact", "drp_solve_approx", "ratio_bound", "tspfb_to_drp"),
    "lap": ("lap_solve", "drp_to_lap"),
    "gopsort": ("gop_solve_exact", "gop_solve_approx"),
    "iosim": ("terasort_simulate", "mm_serial_run", "mm_parallel_io_model",
              "nowicki_partition_io", "FractionalMatchingState.vertex_load"),
}

SPAN_NAMES = tuple(f"{module}.{name}" for module, names in TRACED.items() for name in names)


def _wrap(name: str, fn, spans: list, stack: list):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
        stack.append(len(spans))
        spans.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            span[2] = perf_counter()
            stack.pop()
    return traced


def install(spans: list) -> None:
    """Replace every binding of each TRACED function with a span recorder."""
    stack: list[int] = []
    modules = {m: importlib.import_module(f"parcost.{m}") for m in TRACED}
    bindings = [m for key, m in sys.modules.items()
                if key == "parcost" or key.startswith("parcost.")]
    for module_name, names in TRACED.items():
        module = modules[module_name]
        for name in names:
            label = f"{module_name}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(module, cls_name)
                setattr(cls, method, _wrap(label, getattr(cls, method), spans, stack))
                continue
            original = getattr(module, name)
            wrapper = _wrap(label, original, spans, stack)
            for bound in bindings:
                for attr, value in list(vars(bound).items()):
                    if value is original:
                        setattr(bound, attr, wrapper)


def main(argv: list[str]) -> int:
    spans: list = []
    install(spans)
    cli = sys.modules["parcost.cli"]
    try:
        return cli.main(argv)
    finally:
        with open(os.environ["PERFBENCH_SPANS"], "w", encoding="utf-8") as handle:
            json.dump({"request": os.environ.get("PERFBENCH_REQUEST", ""),
                       "spans": spans}, handle, separators=(",", ":"))


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
