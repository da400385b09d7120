"""Per-layer in-process timings of a parent commit and the working tree.

    python3 scripts/bench_layers.py --parent REV --out FILE.json

Run from the repository root. The parent is ``git archive REV`` unpacked in
a temporary directory; the change is the working tree. Each sample is a
fresh ``python3`` process with the tree's ``src`` on ``PYTHONPATH``: it
builds the layer's input untimed, times one run of the layer with
``time.perf_counter``, and reports the seconds, a SHA-256 of the result's
``repr``, whether every parcost module had cached bytecode when it started,
how many processes ran the layer (1 + the children it forked), its own
peak RSS (``ru_maxrss``, set-up included) and the layer's own peak under
``tracemalloc``, taken in one more untimed call after the RSS is read. The
K samples of a layer alternate between the trees, the parent first on even
rounds. The record keeps every sample, each side's median and quartiles,
and whether both sides' results hashed alike. Standard library only.

The sweep layers time the seed-1 plan-small sweeps, row by row or whole
through ``run_sweep``: the sizes come from ``perfbench/workloads.py`` and
the per-row seeds from the working tree's ``bench.row_seed``, computed once
here and handed to every sample on stdin with the sweeps' ``SweepSpec``
arguments, so both trees time the same instances. One more times io-sim's
seed-1 ``terasort-io`` sweep whole, from its own ``SweepSpec`` arguments.

The ``cli.run`` layers time a whole request process instead: one fresh
``python -m parcost.cli``, on a file written untimed or running a sweep,
its stdout hashed.
Their peak RSS and ``tracemalloc`` figures are the sampling process's own,
not the request's.
"""

from __future__ import annotations

import argparse
import atexit
import hashlib
import importlib.util
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# samples per side and layer
K = 7


def _plan_small_sweeps() -> dict[str, dict]:
    """plan-small's seed-1 sweeps ``gop-ratio --p 3 --trials 40`` and
    ``drp-ratio --sizes 2,3,4,5,6 --trials 200``: each one's ``SweepSpec``
    arguments and the (size, seed) of its rows, from the working tree."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from parcost.bench import row_seed
    from workloads import GOP_RATIO_SIZES

    specs = {"gop-ratio": {"sizes": [int(n) for n in GOP_RATIO_SIZES.split(",")],
                           "trials": 40, "seed": 1, "p": 3},
             "drp-ratio": {"sizes": [2, 3, 4, 5, 6], "trials": 200, "seed": 1}}
    return {kind: {"spec": spec,
                   "rows": [(size, row_seed(spec["seed"], size, trial))
                            for size in spec["sizes"] for trial in range(spec["trials"])]}
            for kind, spec in specs.items()}


def _gop_ratio_rows(name):
    """``gopsort.name`` on each row of plan-small's gop-ratio sweep. ``drp``,
    which ``gop_solve_approx`` imports on its first call, is imported untimed."""
    def setup(sweeps):
        from parcost import drp, gopsort  # noqa: F401
        from parcost.bench import gen_gop

        solve = getattr(gopsort, name)
        instances = [gen_gop(n, 3, seed) for n, seed in sweeps["gop-ratio"]["rows"]]
        return lambda: [solve(g) for g in instances]
    return setup


def _derive_n1e5(_sweeps):
    from parcost.bench import gen_gop
    from parcost.core import derive_transfer_and_load
    from parcost.gopsort import equal_splitters

    inst = gen_gop(10 ** 5, 4, 1).inst
    splitters = equal_splitters(inst)
    return lambda: derive_transfer_and_load(inst, splitters)


def _gen_drp_rows(sweeps):
    from parcost.bench import SweepSpec, gen_drp

    drp = sweeps["drp-ratio"]["rows"]
    spec = SweepSpec("drp-ratio", (2,))
    return lambda: [gen_drp(p, spec.cost_low, spec.cost_high, spec.mass_max, seed)
                    for p, seed in drp]


def _drp_ratio_rows(sweeps):
    from parcost.bench import SweepSpec, _measure_drp_ratio

    drp = sweeps["drp-ratio"]["rows"]
    spec = SweepSpec("drp-ratio", **sweeps["drp-ratio"]["spec"])
    return lambda: [_measure_drp_ratio(spec, p, seed) for p, seed in drp]


def _sweep(kind, **spec):
    """``run_sweep(SweepSpec(kind, **spec))``; without ``spec``, plan-small's
    sweep of that kind."""
    def setup(sweeps):
        from parcost.bench import SweepSpec, run_sweep

        sweep = SweepSpec(kind, **(spec or sweeps[kind]["spec"]))
        return lambda: run_sweep(sweep)
    return setup


def _on(make, module, name, *args):
    """Builds ``make(bench)`` untimed; the layer is ``module.name(it, *args)``."""
    def setup(_sweeps):
        from parcost import bench

        function = getattr(importlib.import_module(f"parcost.{module}"), name)
        data = make(bench)
        return lambda: function(data, *args)
    return setup


def _call(module, name, *args):
    def setup(_sweeps):
        function = getattr(importlib.import_module(f"parcost.{module}"), name)
        return lambda: function(*args)
    return setup


def _collapse(make, times=1):
    def setup(_sweeps):
        from parcost import bench, drp

        inst = make(bench, drp)
        return lambda: [drp._assignment_weights(inst) for _ in range(times)]
    return setup


def _report_json_mst2048(_sweeps):
    from parcost.bench import gen_graph
    from parcost.cli import _report_json
    from parcost.iosim import nowicki_partition_io

    report = nowicki_partition_io(gen_graph(2048, 92681, 1))
    return lambda: _report_json(report)


def _gen_file(name, *gen_args):
    """Path of a file that a ``parcost gen`` child writes, so that the
    sample's own peak RSS is not the generator's."""
    scratch = tempfile.TemporaryDirectory()
    atexit.register(scratch.cleanup)
    path = str(Path(scratch.name) / name)
    subprocess.run([sys.executable, "-m", "parcost.cli", "gen", *gen_args, "--output", path],
                   check=True)
    return path


def _load_mst2048(_sweeps):
    from parcost import cli

    args = argparse.Namespace(input=_gen_file(
        "mst2048.json", "--kind", "graph", "--n", "2048", "--m", "92681", "--seed", "1"))
    return lambda: cli._load(args, "graph")


def _request(*argv):
    """One fresh ``python -m parcost.cli *argv``, its stdout the result."""
    def setup(_sweeps):
        command = [sys.executable, "-m", "parcost.cli", *argv]
        return lambda: subprocess.run(command, check=True, capture_output=True).stdout
    return setup


def _process(command, name, *gen_args, flags=()):
    """``_request(command, "--input", FILE, *flags)`` on a file ``gen`` writes
    untimed."""
    def setup(sweeps):
        return _request(command, "--input", _gen_file(name, *gen_args), *flags)(sweeps)
    return setup


def _sweep_csv(kind):
    """``sweep_to_csv`` on plan-small's sweep of that kind, run untimed."""
    def setup(sweeps):
        from parcost.bench import SweepSpec, run_sweep, sweep_to_csv

        header, rows = run_sweep(SweepSpec(kind, **sweeps[kind]["spec"]))
        return lambda: sweep_to_csv(header, rows)
    return setup


def _from_json(kind, make):
    def setup(_sweeps):
        from parcost import bench, core

        data = json.loads(json.dumps(getattr(core, f"{kind}_to_json")(make(bench))))
        load = getattr(core, f"{kind}_from_json")
        return lambda: load(data)
    return setup


# layer -> (what one sample runs, setup returning the timed callable)
LAYERS = {
    "gopsort.gop_solve_exact:gop-ratio-rows": (
        "gop_solve_exact on the 320 rows of the seed-1 p=3 gop-ratio sweep",
        _gop_ratio_rows("gop_solve_exact")),
    "gopsort.gop_solve_approx:gop-ratio-rows": (
        "gop_solve_approx on the 320 rows of the seed-1 p=3 gop-ratio sweep",
        _gop_ratio_rows("gop_solve_approx")),
    "gopsort.gop_solve_exact:n40-p4": (
        "gop_solve_exact(gen_gop(40, 4, 1))",
        _on(lambda bench: bench.gen_gop(40, 4, 1), "gopsort", "gop_solve_exact", 10 ** 9)),
    "gopsort.gop_solve_exact:n60-p3": (
        "gop_solve_exact(gen_gop(60, 3, 1))",
        _on(lambda bench: bench.gen_gop(60, 3, 1), "gopsort", "gop_solve_exact", 10 ** 9)),
    "gopsort.gop_solve_exact:n20-p5": (
        "gop_solve_exact(gen_gop(20, 5, 1))",
        _on(lambda bench: bench.gen_gop(20, 5, 1), "gopsort", "gop_solve_exact", 10 ** 9)),
    "gopsort.gop_solve_approx:n1e5-p4": (
        "gop_solve_approx(gen_gop(10**5, 4, 1))",
        _on(lambda bench: bench.gen_gop(10 ** 5, 4, 1), "gopsort", "gop_solve_approx")),
    "core.derive_transfer_and_load:n1e5-p4": (
        "derive_transfer_and_load(gen_gop(10**5, 4, 1).inst) at its equal_splitters",
        _derive_n1e5),
    "cli.run:gop-approx-gop1e5": (
        "one fresh python -m parcost.cli gop-approx on gen --kind gop --n 100000 --p 4 "
        "--seed 1", _process("gop-approx", "gop1e5.json",
                             "--kind", "gop", "--n", "100000", "--p", "4", "--seed", "1")),
    "iosim.terasort_simulate:n1e5-p4": (
        "terasort_simulate(gen_gop(10**5, 4, 1), 1000)",
        _on(lambda bench: bench.gen_gop(10 ** 5, 4, 1), "iosim", "terasort_simulate", 1000)),
    "drp._assignment_weights:p9": (
        "_assignment_weights(gen_drp(9, 1, 10, 20, 1)), 1000 times",
        _collapse(lambda bench, _drp: bench.gen_drp(9, 1, 10, 20, 1), 1000)),
    "drp._assignment_weights:p200": (
        "_assignment_weights(gen_drp(200, 1, 10, 20, 1))",
        _collapse(lambda bench, _drp: bench.gen_drp(200, 1, 10, 20, 1))),
    "drp._assignment_weights:tour-n50": (
        "_assignment_weights(tspfb_to_drp(gen_tspfb(50, 1))), sparse 0/1 transfers",
        _collapse(lambda bench, drp: drp.tspfb_to_drp(bench.gen_tspfb(50, 1)))),
    "bench.gen_drp:drp-ratio-rows": (
        "gen_drp for the 1000 rows of the seed-1 drp-ratio sweep, p 2-6", _gen_drp_rows),
    "bench.gen_gop:n1e6-p4": ("gen_gop(10**6, 4, 1)", _call("bench", "gen_gop", 10 ** 6, 4, 1)),
    "bench.gen_gop:n1e5-p4": ("gen_gop(10**5, 4, 1)", _call("bench", "gen_gop", 10 ** 5, 4, 1)),
    "bench.gen_graph:n2048-m92681": (
        "gen_graph(2048, 92681, 1)", _call("bench", "gen_graph", 2048, 92681, 1)),
    "core.graph_from_json:mst2048": (
        "graph_from_json on the parsed JSON of gen_graph(2048, 92681, 1)",
        _from_json("graph", lambda bench: bench.gen_graph(2048, 92681, 1))),
    "core.Graph:sparse": (
        "graph_from_json on the parsed JSON of gen_graph(10**6, 10**4, 1), which "
        "marks its edges in the dict",
        _from_json("graph", lambda bench: bench.gen_graph(10 ** 6, 10 ** 4, 1))),
    "cli._load:mst2048": (
        "cli._load of gen_graph(2048, 92681, 1)'s JSON file, text to Graph", _load_mst2048),
    "cli.run:drp-exact-p9": (
        "one fresh python -m parcost.cli drp-exact on gen --kind drp --p 9 --seed 1",
        _process("drp-exact", "drp9.json", "--kind", "drp", "--p", "9", "--seed", "1")),
    # plan-large's median group: a small solve, or a file read, behind the start
    "cli.run:drp-approx-p9": (
        "one fresh python -m parcost.cli drp-approx on gen --kind drp --p 9 --seed 1",
        _process("drp-approx", "drp9.json", "--kind", "drp", "--p", "9", "--seed", "1")),
    "cli.run:gop-exact-gop60": (
        "one fresh python -m parcost.cli gop-exact --guard 237120 on gen --kind gop "
        "--n 60 --p 3 --seed 1",
        _process("gop-exact", "gop60.json", "--kind", "gop", "--n", "60", "--p", "3",
                 "--seed", "1", flags=("--guard", "237120"))),
    "cli.run:validate-drp200": (
        "one fresh python -m parcost.cli validate on gen --kind drp --p 200 --seed 1",
        _process("validate", "drp200.json", "--kind", "drp", "--p", "200", "--seed", "1")),
    "cli.run:mst2048": (
        "one fresh python -m parcost.cli sim-mst-io on gen_graph(2048, 92681, 1)'s file",
        _process("sim-mst-io", "mst2048.json",
                 "--kind", "graph", "--n", "2048", "--m", "92681", "--seed", "1")),
    "iosim.nowicki_partition_io:mst2048": (
        "nowicki_partition_io(gen_graph(2048, 92681, 1))",
        _on(lambda bench: bench.gen_graph(2048, 92681, 1), "iosim", "nowicki_partition_io")),
    "core.drp_from_json:drp200": (
        "drp_from_json on the parsed JSON of gen_drp(200, 1, 10, 20, 1)",
        _from_json("drp", lambda bench: bench.gen_drp(200, 1, 10, 20, 1))),
    "core.gop_from_json:n1e5": (
        "gop_from_json on the parsed JSON of gen_gop(10**5, 4, 1)",
        _from_json("gop", lambda bench: bench.gen_gop(10 ** 5, 4, 1))),
    "bench.gen_tspfb:n300": ("gen_tspfb(300, 1)", _call("bench", "gen_tspfb", 300, 1)),
    "iosim.mm_serial_run:mm300": (
        "mm_serial_run(gen_graph(300, 1200, 1), 1/10)",
        _on(lambda bench: bench.gen_graph(300, 1200, 1), "iosim", "mm_serial_run",
            Fraction(1, 10))),
    "iosim.mm_parallel_io_model:mm300": (
        "mm_parallel_io_model(gen_graph(300, 1200, 1), 1/10)",
        _on(lambda bench: bench.gen_graph(300, 1200, 1), "iosim", "mm_parallel_io_model",
            Fraction(1, 10))),
    "cli.run:sim-mm-mm300": (
        "one fresh python -m parcost.cli sim-mm on gen --kind graph --n 300 --m 1200 --seed 1",
        _process("sim-mm", "mm300.json",
                 "--kind", "graph", "--n", "300", "--m", "1200", "--seed", "1")),
    "cli.run:sweep-mm-io": (
        "one fresh python -m parcost.cli sweep --kind mm-io --sizes 50,100,200 --seed 1",
        _request("sweep", "--kind", "mm-io", "--sizes", "50,100,200", "--seed", "1")),
    "cli._report_json:mst2048": (
        "_report_json(nowicki_partition_io(gen_graph(2048, 92681, 1))), 1081 phases",
        _report_json_mst2048),
    "bench.drp-ratio-row:p2-6": (
        "the 1000 rows of the seed-1 drp-ratio sweep, p 2-6 (generate, both "
        "solves, bound, ratio)", _drp_ratio_rows),
    "bench.run_sweep:drp-ratio-p2-6": (
        "run_sweep on the seed-1 drp-ratio sweep, p 2-6, 200 trials", _sweep("drp-ratio")),
    "bench.sweep_to_csv:drp-ratio-p2-6": (
        "sweep_to_csv on the 1001-row table of the seed-1 drp-ratio sweep, p 2-6, "
        "200 trials", _sweep_csv("drp-ratio")),
    "cli.run:sweep-drp-ratio": (
        "one fresh python -m parcost.cli sweep --kind drp-ratio --sizes 2,3,4,5,6 "
        "--trials 200 --seed 1",
        _request("sweep", "--kind", "drp-ratio", "--sizes", "2,3,4,5,6", "--trials", "200",
                 "--seed", "1")),
    "bench.run_sweep:gop-ratio-p3": (
        "run_sweep on the seed-1 p=3 gop-ratio sweep, 40 trials", _sweep("gop-ratio")),
    "bench.run_sweep:terasort-io": (
        "run_sweep on io-sim's seed-1 terasort-io sweep, sizes 1000,10000,100000",
        _sweep("terasort-io", sizes=(1000, 10 ** 4, 10 ** 5), seed=1)),
}


def _worker(layer: str) -> None:
    spec = importlib.util.find_spec("parcost")
    package = Path(spec.origin).parent
    cached = all(os.path.exists(importlib.util.cache_from_source(str(path)))
                 for path in package.glob("*.py"))
    run = LAYERS[layer][1](json.load(sys.stdin))
    children = []
    fork = os.fork

    def counted_fork():
        pid = fork()
        if pid:
            children.append(pid)
        return pid

    os.fork = counted_fork
    start = time.perf_counter()
    result = run()
    seconds = time.perf_counter() - start
    digest = hashlib.sha256(repr(result).encode()).hexdigest()
    processes = 1 + len(children)
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tracemalloc.start()
    try:
        run()
        traced_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    print(json.dumps({"seconds": seconds, "sha256": digest, "bytecode_cached": cached,
                      "processes": processes, "maxrss_kb": maxrss_kb,
                      "tracemalloc_peak_bytes": traced_peak}))


def _sample(tree: Path, layer: str, sweeps: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(tree / "src")}
    out = subprocess.run([sys.executable, __file__, "--worker", layer], env=env, input=sweeps,
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def _summary(samples: list[dict]) -> dict:
    seconds = [s["seconds"] for s in samples]
    q1, _, q3 = statistics.quantiles(seconds, n=4)
    return {"median_s": statistics.median(seconds), "q1_s": q1, "q3_s": q3,
            "samples_s": seconds,
            "sha256": sorted({s["sha256"] for s in samples}),
            "bytecode_cached": sorted({s["bytecode_cached"] for s in samples}),
            "processes": sorted({s["processes"] for s in samples}),
            "median_maxrss_kb": statistics.median(s["maxrss_kb"] for s in samples),
            "samples_maxrss_kb": [s["maxrss_kb"] for s in samples],
            "median_tracemalloc_peak_bytes": statistics.median(
                s["tracemalloc_peak_bytes"] for s in samples)}


def _export(rev: str, into: Path) -> str:
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)
    return commit


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD", help="git revision to compare against")
    parser.add_argument("--out", default="BENCH.json")
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        _worker(args.worker)
        return
    sweeps = json.dumps(_plan_small_sweeps())
    with tempfile.TemporaryDirectory() as scratch:
        commit = _export(args.parent, Path(scratch))
        trees = {"parent": Path(scratch), "change": ROOT}
        layers = {}
        for layer in LAYERS:
            samples = {"parent": [], "change": []}
            for i in range(K):
                for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                    samples[side].append(_sample(trees[side], layer, sweeps))
            record = {side: _summary(samples[side]) for side in samples}
            record["what"] = LAYERS[layer][0]
            record["same_result"] = record["parent"]["sha256"] == record["change"]["sha256"]
            record["parent_over_change"] = (record["parent"]["median_s"]
                                            / record["change"]["median_s"])
            layers[layer] = record
            print(f"{layer}: {record['parent']['median_s']:.4f} -> "
                  f"{record['change']['median_s']:.4f} s, "
                  f"{record['parent']['median_maxrss_kb'] / 1024:.1f} -> "
                  f"{record['change']['median_maxrss_kb'] / 1024:.1f} MB, traced "
                  f"{record['parent']['median_tracemalloc_peak_bytes'] / 1e6:.2f} -> "
                  f"{record['change']['median_tracemalloc_peak_bytes'] / 1e6:.2f} MB, "
                  f"same result: {record['same_result']}", file=sys.stderr)
    dirty = subprocess.run(["git", "status", "--porcelain", "--", "src"], cwd=ROOT,
                           capture_output=True, text=True).stdout != ""
    record = {
        "what": "per-layer in-process medians, one fresh process per sample",
        "command": " ".join(["python3", "scripts/bench_layers.py", *sys.argv[1:]]),
        "k": K,
        "parent": commit,
        "change": "working tree" + (" (src differs from HEAD)" if dirty else ""),
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {os.cpu_count()} cpus, {platform.system()}",
        "dont_write_bytecode": sys.flags.dont_write_bytecode,
        "layers": layers,
    }
    Path(args.out).write_text(json.dumps(record, indent=2) + "\n")


if __name__ == "__main__":
    main()
