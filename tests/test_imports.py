"""What a process imports: the package loads its names on first use, and
each subcommand loads only the modules it runs. Module sets are checked in
child processes, so the test session's own imports do not count."""

import functools
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import parcost

SRC = Path(parcost.__file__).resolve().parent.parent
SUBMODULES = ("bench", "core", "drp", "gopsort", "iosim", "lap")
TRACED_CLI = Path(__file__).resolve().parent.parent / "perfbench" / "traced_cli.py"
CODECS = ("drp_from_json", "drp_to_json", "gop_from_json", "gop_to_json",
          "graph_from_json", "graph_to_json", "tspfb_from_json", "tspfb_to_json",
          "dumps_canonical")

# Runs argv through the CLI (or, with no argv, only builds the parser) and
# prints the exit code and the loaded module names as JSON.
CHILD = """
import io, json, sys
real, sys.stdout = sys.stdout, io.StringIO()
from parcost.cli import build_parser, main
code = 0
if len(sys.argv) > 1:
    code = main(sys.argv[1:])
else:
    build_parser()
real.write(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

INSTANCES = {
    "drp": {"p": 2, "transfer": [[0, 5], [3, 0]], "cost": [[0, 1], [1, 0]]},
    "gop": {"p": 2, "subsets": [[3, 4], [1, 2]], "cost": [[0, 1], [1, 0]]},
    "graph": {"n": 3, "edges": [[1, 2, 1], [2, 3, 2]]},
    "tspfb": {"n": 3, "weights": [[1, 2, 3], [2, 1, 2], [3, 2, 1]]},
}


def child_modules(*argv, code="") -> set[str]:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    proc = subprocess.run([sys.executable, "-c", code or CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    return set(result["modules"])


def loaded(modules: set[str]) -> set[str]:
    return {name for name in SUBMODULES if f"parcost.{name}" in modules}


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("instances")
    paths = {}
    for kind, data in INSTANCES.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_text(json.dumps(data))
    return {kind: str(path) for kind, path in paths.items()}


def test_noop_start_loads_no_solver_and_no_dataclasses():
    modules = child_modules()
    assert {m for m in modules if m.startswith("parcost")} == {
        "parcost", "parcost.cli", "parcost.constants", "parcost.errors"}
    # constants holds the defaults as ints and text, so no number module loads
    assert not modules & {"dataclasses", "inspect", "fractions", "decimal"}


@pytest.mark.parametrize("command", ["drp-exact", "drp-approx"])
def test_drp_commands_load_no_sorting_or_simulator(files, command):
    modules = child_modules(command, "--input", files["drp"])
    assert loaded(modules) == {"core", "drp", "lap"}
    assert "dataclasses" not in modules and "inspect" not in modules


def test_reduce_tspfb_loads_no_assignment_solver(files):
    # the reduction builds a drp instance and runs no solver
    assert loaded(child_modules("reduce-tspfb", "--input", files["tspfb"])) == {
        "core", "drp"}


@pytest.mark.parametrize("command, kind", [
    ("sim-terasort", "gop"), ("sim-mm", "graph"), ("sim-mst-io", "graph")])
def test_simulators_load_no_solver(files, command, kind):
    assert loaded(child_modules(command, "--input", files[kind])) == {"core", "iosim"}


def test_gop_exact_loads_neither_simulator_nor_assignment_solver(files):
    assert loaded(child_modules("gop-exact", "--input", files["gop"])) == {
        "core", "gopsort"}


def test_gop_approx_loads_no_simulator(files):
    assert loaded(child_modules("gop-approx", "--input", files["gop"])) == {
        "core", "drp", "gopsort", "lap"}


@pytest.mark.parametrize("kind, expected", [
    ("drp", {"core"}),
    ("gop", {"core"}),
    ("graph", {"core"}),
    ("tspfb", {"core"}),
])
def test_validate_loads_only_the_matched_loader(files, kind, expected):
    assert loaded(child_modules("validate", "--input", files[kind])) == expected


@pytest.mark.parametrize("kind", ["drp", "gop", "graph", "tspfb"])
def test_gen_loads_no_solver_or_simulator(kind):
    assert loaded(child_modules("gen", "--kind", kind, "--n", "6", "--m", "5")) == {
        "bench", "core"}


def test_drp_ratio_sweep_loads_no_sorting_or_simulator():
    assert loaded(child_modules("sweep", "--kind", "drp-ratio", "--sizes", "2,3")) == {
        "bench", "core", "drp", "lap"}


@pytest.mark.parametrize("kind, size", [
    ("drp-ratio", "2"), ("gop-ratio", "4"), ("terasort-io", "100"), ("mst-io", "16"),
    ("mm-io", "8")])
def test_csv_sweep_loads_no_csv_module(kind, size):
    # a sweep's CSV is its cells joined by commas, as no cell needs quoting
    assert "csv" not in child_modules("sweep", "--kind", kind, "--sizes", size)


def test_bare_package_import_loads_no_submodule():
    code = ("import json, sys; import parcost; "
            "print(json.dumps({'code': 0, 'modules': sorted(sys.modules)}))")
    modules = child_modules(code=code)
    assert {m for m in modules if m.startswith("parcost")} == {"parcost"}


def test_package_attribute_loads_only_its_module():
    code = ("import json, sys; import parcost; parcost.drp_solve_exact; "
            "print(json.dumps({'code': 0, 'modules': sorted(sys.modules)}))")
    assert loaded(child_modules(code=code)) == {"core", "drp"}


def test_every_exported_name_is_the_defining_modules_object():
    assert len(parcost.__all__) == 42
    for name in parcost.__all__:
        obj = getattr(parcost, name)
        home = getattr(obj, "__module__", "")
        if not home.startswith("parcost."):
            home = "parcost.core"  # Rational, a typing alias
        assert getattr(importlib.import_module(home), name) is obj, name


def test_traced_names_resolve_and_bench_codecs_are_cores():
    # the benchmark's tracer wraps these by name; a rename would break only it
    spec = importlib.util.spec_from_file_location("traced_cli", TRACED_CLI)
    traced_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(traced_cli)
    for module_name, names in traced_cli.TRACED.items():
        module = importlib.import_module(f"parcost.{module_name}")
        for name in names:
            assert callable(functools.reduce(getattr, name.split("."), module)), name
    bench, core = (importlib.import_module(f"parcost.{m}") for m in ("bench", "core"))
    for name in CODECS:
        assert getattr(bench, name) is getattr(core, name), name


def test_star_import_binds_every_exported_name():
    namespace: dict = {}
    exec("from parcost import *", namespace)
    assert set(parcost.__all__) <= set(namespace)
    assert namespace["drp_solve_exact"] is parcost.drp.drp_solve_exact
    assert namespace["GopInstance"] is parcost.gopsort.GopInstance


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        parcost.not_a_name
    with pytest.raises(ImportError):
        exec("from parcost import not_a_name", {})


def test_version_and_dir():
    assert parcost.__version__ == "0.1.0"
    assert set(parcost.__all__) | {"__version__"} <= set(dir(parcost))
