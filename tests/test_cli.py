import argparse
import contextlib
import gc
import hashlib
import importlib
import importlib.util
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from parcost import cli
from parcost.cli import build_parser, main

DRP_EXAMPLE = {"p": 2, "transfer": [[0, 5], [3, 0]], "cost": [[0, 1], [1, 0]]}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


class TestSolverCommands:
    def test_drp_exact_example(self, tmp_path, capsys):
        path = write_json(tmp_path, "t2.json", DRP_EXAMPLE)
        code, out, _ = run_cli(capsys, "drp-exact", "--input", path)
        assert code == 0
        assert json.loads(out) == {"mapping": [2, 1], "cost": 0}

    def test_drp_approx_reports_bound(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json",
                          {"p": 2, "transfer": [[0, 5], [3, 0]],
                           "cost": [[0, 9], [1, 0]]})
        code, out, _ = run_cli(capsys, "drp-approx", "--input", path)
        assert code == 0
        assert json.loads(out) == {"mapping": [2, 1], "cost": 0, "ratio_bound": 9}

    def test_drp_approx_has_no_bound_where_local_data_costs(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json",
                          {"p": 2, "transfer": [[5, 0], [0, 5]],
                           "cost": [[100, 1], [1, 100]]})
        assert run_cli(capsys, "drp-approx", "--input", path) == (
            0, '{"cost":1000,"mapping":[1,2],"ratio_bound":null}\n', "")
        assert run_cli(capsys, "drp-exact", "--input", path) == (
            0, '{"cost":10,"mapping":[2,1]}\n', "")

    def test_result_numbers_stay_floats(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json",
                          {"p": 2, "transfer": [["1/3", 1], [2, "2/3"]],
                           "cost": [[0, 10], [3, 0]]})
        code, out, _ = run_cli(capsys, "drp-approx", "--input", path)
        assert code == 0
        # result fields are plain JSON numbers: 16/3 and 10/3 print as floats
        assert out == ('{"cost":5.333333333333333,"mapping":[2,1],'
                       '"ratio_bound":3.3333333333333335}\n')

    def test_gop_exact(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json",
                          {"p": 2, "subsets": [[3, 4], [1, 2]],
                           "cost": [[0, 1], [1, 0]]})
        code, out, _ = run_cli(capsys, "gop-exact", "--input", path)
        assert code == 0
        result = json.loads(out)
        assert result["splitters"] == [2]
        assert result["mapping"] == [2, 1]
        assert result["total_cost"] == 2.0

    def test_gop_exact_prints_a_whole_rational_comm_cost_as_an_int(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"p": 2, "subsets": [[1, 4], [2, 3]],
                                               "cost": [[0, "1/2"], ["3/2", 0]]})
        assert run_cli(capsys, "gop-exact", "--input", path) == (
            0, '{"comm_cost":2,"io_cost":2.0,"mapping":[1,2],"splitters":[2],'
               '"total_cost":4.0}\n', "")

    def test_reduce_then_solve_pipeline(self, tmp_path, capsys):
        tour = write_json(tmp_path, "tour.json",
                          {"n": 3, "weights": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
        code, out, _ = run_cli(capsys, "reduce-tspfb", "--input", tour)
        assert code == 0
        reduced = write_json(tmp_path, "reduced.json", json.loads(out))
        code, out, _ = run_cli(capsys, "drp-exact", "--input", reduced)
        assert code == 0
        assert json.loads(out)["cost"] == 30  # equals the brute tour optimum

    def test_guard_exit_code(self, tmp_path, capsys):
        # C(30,2)*3! = 2610 exceeds gop-exact's default work guard of 1000
        gop = {"p": 3, "subsets": [list(range(k, 31, 3)) for k in (1, 2, 3)],
               "cost": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}
        code, _, err = run_cli(capsys, "gop-exact",
                               "--input", write_json(tmp_path, "gop.json", gop))
        assert code == 1
        assert "guard" in err
        # drp-exact has no guard left: p = 12 is past the old p! limit of 10
        p = 12
        inst = {"p": p,
                "transfer": [[1] * p for _ in range(p)],
                "cost": [[0 if i == j else 1 for j in range(p)] for i in range(p)]}
        path = write_json(tmp_path, "big.json", inst)
        code, out, _ = run_cli(capsys, "drp-exact", "--input", path)
        assert code == 0
        assert json.loads(out) == {"mapping": list(range(1, p + 1)), "cost": p * (p - 1)}

    def test_non_positive_guard_is_bad_input(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json",
                          {"p": 2, "subsets": [[3, 4], [1, 2]],
                           "cost": [[0, 1], [1, 0]]})
        for guard in ("0", "-5", "abc", "2.5"):
            message = f"argument --guard: must be a positive integer, got '{guard}'\n"
            code, out, err = run_cli(capsys, "gop-exact", "--input", path,
                                     "--guard", guard)
            assert (code, out) == (2, "")
            assert err.endswith(message)
            code, out, err = run_cli(capsys, "sweep", "--kind", "gop-ratio",
                                     "--sizes", "4", f"--guard={guard}")
            assert (code, out) == (2, "")
            assert err.endswith(message)

    def test_sweep_memory_below_two_is_bad_input(self, capsys):
        for kind in ("terasort-io", "mst-io"):
            for memory in ("0", "1"):
                code, out, err = run_cli(capsys, "sweep", "--kind", kind,
                                         "--sizes", "64", "--memory", memory)
                assert (code, out) == (2, "")
                assert f"memory must be >= 2, got {memory}" in err

    def test_sweep_p_below_two_is_bad_input(self, capsys):
        for kind in ("gop-ratio", "terasort-io"):
            for p in ("0", "1"):
                code, out, err = run_cli(capsys, "sweep", "--kind", kind,
                                         "--sizes", "1000", "--p", p)
                assert (code, out) == (2, "")
                assert f"p must be >= 2, got {p}" in err

    def test_sweep_edge_factor_below_one_is_bad_input(self, capsys):
        for edge_factor in ("0", "-1"):
            assert run_cli(capsys, "sweep", "--kind", "mm-io", "--sizes", "8",
                           "--edge-factor", edge_factor) == (
                2, "", f"invalid input: edge_factor must be >= 1, got {edge_factor}\n")

    def test_sweep_size_below_the_kinds_least_is_bad_input(self, capsys):
        for kind, sizes, flags, message in (
                ("mm-io", "1", (), "sizes must be >= 2 for mm-io, got (1,)"),
                ("mst-io", "5,6", (), "sizes must be >= 6 for mst-io, got (5, 6)"),
                ("terasort-io", "2,8", ("--p", "3"),
                 "sizes must be >= 3 for terasort-io, got (2, 8)")):
            assert run_cli(capsys, "sweep", "--kind", kind, "--sizes", sizes, *flags) == (
                2, "", f"invalid input: {message}\n")


class TestSimCommands:
    def test_sim_terasort(self, tmp_path, capsys):
        data = {"p": 2, "subsets": [[5, 3, 8, 1], [7, 2, 6, 4]],
                "cost": [[0, 1], [1, 0]]}
        path = write_json(tmp_path, "s.json", data)
        code, out, _ = run_cli(capsys, "sim-terasort", "--input", path,
                               "--memory", "8", "--with-output")
        assert code == 0
        result = json.loads(out)
        assert result["sorted"] is True
        assert [v for block in result["output"] for v in block] == list(range(1, 9))
        assert len(result["phases"]) == 3
        # the sample needs one record per machine, the only memory rule
        assert run_cli(capsys, "sim-terasort", "--input", path, "--memory", "1") == (
            2, "", "invalid input: main memory 1 cannot hold one sample record per "
                   "machine (p=2)\n")

    def test_sim_mm(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json",
                          {"n": 2, "edges": [[1, 2, 1]]})
        code, out, _ = run_cli(capsys, "sim-mm", "--input", path,
                               "--epsilon", "1/10")
        assert code == 0
        result = json.loads(out)
        assert result["iterations"] == 6
        assert result["serial"]["total_io"] == 6
        assert result["parallel"]["total_io"] == 6
        assert result["max_vertex_load"] <= 1

    def test_sim_mm_refuses_an_epsilon_below_the_floor(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"n": 2, "edges": [[1, 2, 1]]})
        for epsilon, shown in (("0.0001", "1/10000"), ("1e-400", f"1/{10 ** 400}")):
            assert run_cli(capsys, "sim-mm", "--input", path, "--epsilon", epsilon) == (
                2, "", f"invalid input: epsilon must be at least 1/100, got {shown}\n")
        code, out, err = run_cli(capsys, "sweep", "--kind", "mm-io", "--sizes", "8",
                                 "--epsilon", "1/1000")
        assert (code, out) == (2, "")
        assert err == "invalid input: epsilon must be at least 1/100, got 1/1000\n"
        assert run_cli(capsys, "sim-mm", "--input", path, "--epsilon", "1/100")[0] == 0

    def test_an_epsilon_with_a_zero_denominator_breaks_the_epsilon_rule(self, tmp_path,
                                                                         capsys):
        path = write_json(tmp_path, "g.json", {"n": 2, "edges": [[1, 2, 1]]})
        for epsilon in ("1/0", "0/0"):
            expected = (2, "", f"invalid input: epsilon must lie in (0, 1/2), got {epsilon}\n")
            assert run_cli(capsys, "sim-mm", "--input", path, "--epsilon", epsilon) == expected
            assert run_cli(capsys, "sweep", "--kind", "mm-io", "--sizes", "8",
                           "--epsilon", epsilon) == expected

    def test_an_epsilon_that_names_no_number_breaks_the_epsilon_rule(self, tmp_path, capsys):
        path = write_json(tmp_path, "g.json", {"n": 2, "edges": [[1, 2, 1]]})
        for epsilon in ("abc", "nan", "inf", ""):
            expected = (2, "", f"invalid input: epsilon must lie in (0, 1/2), got {epsilon}\n")
            assert run_cli(capsys, "sim-mm", "--input", path, "--epsilon", epsilon) == expected
            assert run_cli(capsys, "sweep", "--kind", "mm-io", "--sizes", "8",
                           "--epsilon", epsilon) == expected

    def test_sim_mst_io(self, tmp_path, capsys):
        edges = [[u, v, 1 + ((u * 7 + v) % 5)]
                 for u in range(1, 13) for v in range(u + 1, 13)]
        path = write_json(tmp_path, "g.json", {"n": 12, "edges": edges})
        code, out, _ = run_cli(capsys, "sim-mst-io", "--input", path)
        assert code == 0
        result = json.loads(out)
        assert result["parallel_io"] > 0
        assert result["analytic_io"] >= result["parallel_io"]
        # the serial model's sort owns the memory rule
        assert run_cli(capsys, "sim-mst-io", "--input", path, "--memory", "1") == (
            2, "", "invalid input: memory must be >= 2, got 1\n")

    def test_an_int_past_the_digit_limit_is_bad_input(self, tmp_path, capsys):
        # a graph file's ints are made by int() one spelling at a time, which
        # refuses as the plain parse of every other file does
        path = tmp_path / "g.json"
        path.write_text('{"n": 2, "edges": [[1, 2, %s]]}' % ("7" * 5000))
        for argv in (("sim-mst-io",), ("validate", "--kind", "graph"), ("validate",)):
            assert run_cli(capsys, *argv, "--input", str(path)) == (
                2, "", "invalid input: Exceeds the limit (4300 digits) for integer string "
                       "conversion: value has 5000 digits; use sys.set_int_max_str_digits() "
                       "to increase the limit\n"), argv

    def test_graph_files_parse_one_int_per_spelling(self, tmp_path, monkeypatch, capsys):
        from parcost import cli

        path = write_json(tmp_path, "g.json",
                          {"n": 1001, "edges": [[1000, 1001, 1000], [1001, 999, 7]]})
        data = cli._read_json(argparse.Namespace(input=path), "graph")
        (a, b, w), (c, _, _) = data["edges"]
        assert a is w and b is c is data["n"]
        # graph loads and validate --kind graph take that parse; validate
        # without a kind, which may read any kind, takes the plain one
        kinds = []
        read_json = cli._read_json
        monkeypatch.setattr(cli, "_read_json",
                            lambda args, kind: kinds.append(kind) or read_json(args, kind))
        for argv in (("sim-mst-io",), ("sim-mm",), ("validate", "--kind", "graph"),
                     ("validate",)):
            assert run_cli(capsys, *argv, "--input", path)[0] == 0, argv
        assert kinds == ["graph", "graph", "graph", None]

    def test_graph_file_load_peaks_below_its_bound(self, tmp_path):
        from parcost.bench import gen_graph
        from parcost.cli import _load
        from parcost.core import dumps_canonical, graph_to_json
        from test_core import traced_peak

        path = tmp_path / "g.json"
        path.write_text(dumps_canonical(graph_to_json(gen_graph(2048, 92681, 1))))
        # CPython 3.11.7, file text to Graph: 21.5 MB when json made an int
        # for each of the 185,362 endpoint mentions, 17.0 MB with one int
        # per spelling, 10.4 MB once Graph keeps the loader's edge tuples
        args = argparse.Namespace(input=str(path))
        assert traced_peak(_load, args, "graph") <= 11 * 10 ** 6

    def test_graph_loads_hand_graph_their_edges_as_tuples(self, tmp_path, monkeypatch,
                                                          capsys):
        from parcost import core

        path = write_json(tmp_path, "g.json", {"n": 3, "edges": [[1, 2, 5], [2, 3, 7]]})
        seen = []
        graph_from_json = core.graph_from_json

        def recording(data):
            graph = graph_from_json(data)
            seen.append((data["edges"], graph.edges))
            return graph

        monkeypatch.setattr(core, "graph_from_json", recording)
        for argv in (("validate",), ("validate", "--kind", "graph"), ("sim-mm",),
                     ("sim-mst-io",)):
            assert run_cli(capsys, *argv, "--input", path)[0] == 0, argv
        # each list was replaced by a tuple in place, and Graph kept the tuple
        assert len(seen) == 4
        for given, kept in seen:
            assert given == [(1, 2, 5), (2, 3, 7)]
            assert all(a is b for a, b in zip(given, kept, strict=True))

    @pytest.mark.parametrize("edge", ([2, 3], [2, 3, 1, 4]), ids=("two", "four"))
    def test_an_edge_list_not_of_three_keeps_its_list_spelling(self, edge, tmp_path,
                                                                capsys):
        path = write_json(tmp_path, "g.json", {"n": 3, "edges": [[1, 2, 1], edge]})
        message = f"invalid input: edge 2 is not a [u, v, weight] list: {edge!r}\n"
        for argv in (("validate",), ("validate", "--kind", "graph"), ("sim-mm",),
                     ("sim-mst-io",)):
            assert run_cli(capsys, *argv, "--input", path) == (2, "", message), argv


class TestSweepAndGen:
    def test_mst_sweep_csv_ends_with_non(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "mst-io",
                               "--sizes", "64,256,1024,4096")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,m,trial,status")
        assert lines[-1].endswith("non-io-optimal")

    def test_sweep_leaves_unset_flags_to_sweepspec(self, capsys):
        argv = ["sweep", "--kind", "drp-ratio", "--sizes", "2,3"]
        args = build_parser().parse_args(argv)
        assert all(getattr(args, name) is None
                   for name in ("trials", "seed", "cost_low", "cost_high", "mass_max",
                                "epsilon", "edge_factor"))
        # the defaults of the knobs drp-ratio reads, spelled out
        spelled = ["--trials", "1", "--seed", "0", "--cost-low", "1", "--cost-high", "10",
                   "--mass-max", "20"]
        short = run_cli(capsys, *argv)
        assert short[0] == 0 and short[1].startswith("p,trial,status")
        assert run_cli(capsys, *argv, *spelled) == short
        # a knob the kind does not read is refused, even at its default
        assert run_cli(capsys, *argv, "--epsilon", "1/10") == (
            2, "", "invalid input: drp-ratio does not read epsilon; "
                   "it reads cost_low, cost_high, mass_max\n")

    def test_sweep_refuses_an_epsilon_out_of_range_whatever_the_kind(self, capsys):
        # mm-io reads epsilon and refuses one out of range; drp-ratio reads
        # none, so it refuses any
        assert run_cli(capsys, "sweep", "--kind", "mm-io", "--sizes", "2",
                       "--epsilon", "0.9") == (
            2, "", "invalid input: epsilon must lie in (0, 1/2), got 9/10\n")
        assert run_cli(capsys, "sweep", "--kind", "drp-ratio", "--sizes", "2",
                       "--epsilon", "0.9") == (
            2, "", "invalid input: drp-ratio does not read epsilon; "
                   "it reads cost_low, cost_high, mass_max\n")

    def test_sweep_refuses_a_knob_its_kind_does_not_read(self, capsys):
        for kind, flag, value, knob in (
                ("drp-ratio", "--p", "9", "p"), ("drp-ratio", "--memory", "50", "memory"),
                ("drp-ratio", "--edge-factor", "3", "edge_factor"),
                ("gop-ratio", "--memory", "50", "memory"),
                ("terasort-io", "--guard", "5", "guard"),
                ("mst-io", "--cost-low", "2", "cost_low"),
                ("mm-io", "--p", "7", "p"), ("mm-io", "--guard", "3", "guard")):
            code, out, err = run_cli(capsys, "sweep", "--kind", kind, "--sizes", "8",
                                     flag, value)
            assert (code, out) == (2, ""), (kind, flag)
            assert err.startswith(f"invalid input: {kind} does not read {knob}; "), err

    def test_sweep_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "drp-ratio",
                               "--sizes", "2,3", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["header"][0] == "p"
        assert data["rows"][-1][1] == "summary"

    def test_gen_roundtrips_through_validate(self, tmp_path, capsys):
        for kind in ("drp", "gop", "graph", "tspfb"):
            code, out, _ = run_cli(capsys, "gen", "--kind", kind, "--seed", "4")
            assert code == 0
            path = write_json(tmp_path, f"{kind}.json", json.loads(out))
            code, out, _ = run_cli(capsys, "validate", "--input", path)
            assert code == 0
            assert json.loads(out) == {"valid": True, "kind": kind}

    def test_gen_rejects_bad_cost_ranges(self, capsys):
        # a [0, 1] range draws only 1s on some seeds (3 and 6 for gop), so
        # the range itself is refused, whatever the seed
        for kind, size in (("drp", ()), ("gop", ("--n", "4"))):
            for low, high in (("0", "1"), ("5", "2")):
                for seed in range(8):
                    code, out, err = run_cli(capsys, "gen", "--kind", kind, "--p", "2",
                                             *size, "--cost-low", low,
                                             "--cost-high", high, "--seed", str(seed))
                    assert (code, out) == (2, "")
                    assert f"need 0 < cost_low <= cost_high, got [{low}, {high}]" in err

    def test_gen_leaves_instance_rules_to_the_instance_types(self, capsys):
        # SortInstance's and Graph's own messages; gen checks SortInstance's
        # size rules before it draws, so --p 10**9 allocates nothing
        for argv, message in (
                (("--kind", "gop", "--n", "2", "--p", "3"),
                 "need at least one element per machine: n=2, p=3"),
                (("--kind", "gop", "--n", "0"), "need at least one element per machine: n=0, p=4"),
                (("--kind", "gop", "--p", "1"), "a sort instance needs p > 1 machines, got p=1"),
                (("--kind", "gop", "--p", "0"), "a sort instance needs p > 1 machines, got p=0"),
                (("--kind", "gop", "--n", "-1"), "need at least one element per machine: n=-1, p=4"),
                (("--kind", "graph", "--n", "3", "--m", "0"), "graph has no edges"),
                (("--kind", "graph", "--n", "1", "--m", "0"), "graph has no edges"),
                (("--kind", "graph", "--n", "0", "--m", "0"), "n_vertices must be >= 1, got 0")):
            assert run_cli(capsys, "gen", *argv) == (2, "", f"invalid input: {message}\n")

    def test_gen_refusals_name_the_bad_value(self, capsys):
        # what a generator cannot draw is refused before any draw: no raw
        # error from random, and no endless redraw
        for kind, flag, value in (("gop", "--p", "-2"), ("gop", "--p", "1000000000"),
                                  ("gop", "--n", "-5"), ("graph", "--n", "-1"),
                                  ("graph", "--n", "1"), ("graph", "--m", "-1"),
                                  ("graph", "--m", "121"), ("drp", "--p", "0"),
                                  ("drp", "--p", "1"), ("drp", "--mass-max", "0"),
                                  ("tspfb", "--n", "0"), ("tspfb", "--n", "-1")):
            code, out, err = run_cli(capsys, "gen", "--kind", kind, flag, value)
            assert (code, out) == (2, "")
            assert err.startswith("invalid input: ")
            assert re.search(rf"(?<![\d-]){value}(?!\d)", err), err

    def test_gen_is_deterministic(self, capsys):
        _, first, _ = run_cli(capsys, "gen", "--kind", "drp", "--seed", "9")
        _, second, _ = run_cli(capsys, "gen", "--kind", "drp", "--seed", "9")
        assert first == second


class TestErrorHandling:
    def test_validate_names_the_bad_entry(self, tmp_path, capsys):
        bad = {"p": 2, "transfer": [[0, 1], [1, 0]],
               "cost": [[0, -3], [1, 0]]}
        path = write_json(tmp_path, "bad.json", bad)
        code, _, err = run_cli(capsys, "validate", "--input", path)
        assert code == 2
        assert "cost[1][2]" in err
        # the loaders' other refusals, each reachable from an input file
        cost2, cost3 = [[0, 1], [1, 0]], [[0, 1, 1], [1, 0, 1], [1, 1, 0]]
        for command, data, message in (
                ("validate", {"p": 2, "transfer": cost2, "cost": cost3},
                 "dimension mismatch: transfer p=2, cost p=3"),
                ("validate", {"p": 2, "subsets": [[1], [2]], "cost": cost3},
                 "dimension mismatch: instance p=2, cost p=3"),
                ("drp-exact", [1, 2], "redistribution instance must be a JSON object"),
                ("validate", {"p": 2, "subsets": 5, "cost": cost2},
                 "subsets must be a list of lists, got 5")):
            path = write_json(tmp_path, "bad.json", data)
            assert run_cli(capsys, command, "--input", path) == (
                2, "", f"invalid input: {message}\n"), message

    def test_validate_kind_names_the_field_the_file_lacks(self, tmp_path, capsys):
        # validate --kind K reads the file with K's loader, as K's commands do
        for name, kind, message in (
                ("drp.json", "graph", "graph is missing the 'n' field"),
                ("tspfb.json", "graph", "graph is missing the 'edges' field"),
                ("drp.json", "gop", "sorting instance is missing the 'subsets' field"),
                ("graph.json", "tspfb",
                 "bipartite tour instance is missing the 'weights' field"),
                ("list.json", "drp", "redistribution instance must be a JSON object")):
            path = write_json(tmp_path, name, PIN_FILES[name])
            assert run_cli(capsys, "validate", "--input", path, "--kind", kind) == (
                2, "", f"invalid input: {message}\n"), (name, kind)

    def test_numeric_strings_must_be_num_den(self, tmp_path, capsys):
        path = write_json(tmp_path, "t.json", {"p": 2, "transfer": [[0, "0.5"], [3, 0]],
                                               "cost": [[0, 1], [1, 0]]})
        code, out, err = run_cli(capsys, "validate", "--input", path)
        assert (code, out) == (2, "")
        assert "num/den" in err

    def test_result_too_large_for_a_float_is_bad_input(self, tmp_path, capsys):
        # the ratio bound 3*10^400/7 is a fraction no JSON float can hold
        path = write_json(tmp_path, "t.json", {"p": 2, "transfer": [[0, 1], [1, 0]],
                                               "cost": [[0, 3 * 10 ** 400], [7, 0]]})
        code, out, err = run_cli(capsys, "drp-approx", "--input", path)
        assert (code, out) == (2, "")
        assert err.startswith("invalid input: ")

    def test_a_row_that_is_not_a_list_is_named(self, tmp_path, capsys):
        for data, named in (
                ({"p": 2, "transfer": [1, 2], "cost": [[0, 1], [1, 0]]},
                 "transfer matrix row 1 is not a list"),
                ({"p": 2, "transfer": [[0, 1], [1, 0]], "cost": [[0, 1], "10"]},
                 "cost matrix row 2 is not a list"),
                ({"p": 2, "transfer": 5, "cost": [[0, 1], [1, 0]]},
                 "transfer matrix must be a list of rows"),
                ({"p": 2, "subsets": [[1, 2], 3], "cost": [[0, 1], [1, 0]]},
                 "subset 2 is not a list")):
            path = write_json(tmp_path, "t.json", data)
            code, out, err = run_cli(capsys, "validate", "--input", path)
            assert (code, out) == (2, "")
            assert f"invalid input: {named}" in err

    def test_malformed_json_reports_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"p": 2,\n  "transfer": [[0, 1],\n}')
        code, _, err = run_cli(capsys, "validate", "--input", str(path))
        assert code == 2
        assert "line 3" in err and "column" in err

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "drp-exact", "--input", "/no/such/file.json")
        assert code == 2

    def test_output_bytes_are_reproducible(self, tmp_path, capsys):
        path = write_json(tmp_path, "t2.json", DRP_EXAMPLE)
        _, first, _ = run_cli(capsys, "drp-exact", "--input", path)
        _, second, _ = run_cli(capsys, "drp-exact", "--input", path)
        assert first == second


class TestProcessEntry:
    """``cli.run`` pauses the collector for the process's one request, on
    the premise that a request's only cyclic garbage is argparse's parser,
    which a request that ``_read_argv`` takes never builds."""

    def test_cyclic_garbage_is_the_parsers_at_every_input_size(self, tmp_path, capsys):
        from parcost import bench, core

        instances = {
            "graph20": ("graph", bench.gen_graph(20, 40, 1)),
            "graph500": ("graph", bench.gen_graph(500, 5000, 1)),
            "gop12": ("gop", bench.gen_gop(12, 3, 1)),
            "gop1e4": ("gop", bench.gen_gop(10 ** 4, 4, 1)),
            "drp3": ("drp", bench.gen_drp(3, 1, 10, 20, 1)),
            "drp60": ("drp", bench.gen_drp(60, 1, 10, 20, 1)),
        }
        paths = {name: write_json(tmp_path, f"{name}.json",
                                  getattr(core, f"{kind}_to_json")(inst))
                 for name, (kind, inst) in instances.items()}
        # the reader takes these, so no parser is built
        read = [
            *(("sim-mst-io", "--input", paths[name]) for name in ("graph20", "graph500")),
            *(("sim-terasort", "--input", paths[name]) for name in ("gop12", "gop1e4")),
            *(("drp-approx", "--input", paths[name]) for name in ("drp3", "drp60")),
            ("validate", "--input", paths["graph500"]),
            # n = 40 rows are over the guard and skipped
            ("sweep", "--kind", "gop-ratio", "--sizes", "4,40", "--p", "3",
             "--trials", "2", "--guard", "1000"),
            ("gop-exact", "--input", paths["gop1e4"], "--guard", "5"),
            ("drp-exact", "--input", str(tmp_path / "missing.json")),
        ]
        # argparse reads these spellings: "=", an abbreviation, a repeat
        parsed = [
            ("drp-approx", f"--input={paths['drp3']}"),
            ("sim-mst-io", "--in", paths["graph500"]),
            ("sweep", "--kind", "gop-ratio", "--sizes", "4,40", "--p", "3",
             "--trials", "2", "--guard=1000"),
            ("gop-exact", "--input", paths["gop12"], "--guard", "5", "--guard", "5"),
        ]
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            build_parser()
            parser_garbage = gc.collect()
            garbage = {}
            for argv in read + parsed:
                code = main(list(argv))
                capsys.readouterr()
                garbage[argv] = (code, gc.collect())
        finally:
            if was_enabled:
                gc.enable()
        assert parser_garbage > 0
        assert [code for code, _ in garbage.values()] == [0] * 8 + [1, 2] + [0, 0, 0, 1]
        assert {argv: count for argv, (_, count) in garbage.items()} == {
            **dict.fromkeys(read, 0), **dict.fromkeys(parsed, parser_garbage)}

    def test_run_hands_main_a_paused_collector_and_exits_with_its_code(self):
        code = """
import gc
from parcost import cli

def main():
    print(gc.isenabled(), gc.get_freeze_count() > 0)
    return 3

cli.main = main
cli.run()
"""
        src = Path(cli.__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(src), os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (3, "False True\n", "")

    def test_main_leaves_the_callers_collector_as_it_found_it(self, capsys):
        was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
        try:
            for pause in (False, True):
                gc.disable() if pause else gc.enable()
                for argv in (["gen", "--kind", "drp"], ["frobnicate"]):
                    main(argv)
                    assert (gc.isenabled(), gc.get_freeze_count()) == (not pause, frozen)
        finally:
            gc.enable() if was_enabled else gc.disable()
        capsys.readouterr()

    def test_the_console_script_is_run(self):
        pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
        assert 'parcost = "parcost.cli:run"' in pyproject.read_text().splitlines()
        assert callable(cli.run)


# --- byte pins ---------------------------------------------------------------
# SHA-256 of stdout, a NUL byte, stderr and, with --output FILE, the file,
# together with the exit code, for the program and every subcommand's help,
# one run of each subcommand and the error paths. A change to the command
# layer that alters a single byte of what a user sees fails here.

PIN_FILES = {
    "drp.json": {"p": 3, "transfer": [[0, "1/3", 7], [2, 0, 5], [6, 1, 0]],
                 "cost": [[0, 3, 8], [2, 0, 4], [5, 1, 0]]},
    "gop.json": {"p": 3, "subsets": [[9, 2, 14], [5, 11, 1], [7, 3, 12, 8]],
                 "cost": [[0, 2, 5], [3, 0, 1], [4, 6, 0]]},
    "guard.json": {"p": 3, "subsets": [list(range(k, 31, 3)) for k in (1, 2, 3)],
                   "cost": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]},
    "graph.json": {"n": 6, "edges": [[1, 2, 4], [1, 3, 1], [2, 3, 7], [3, 4, 2],
                                     [4, 5, 5], [5, 6, 3], [2, 6, "1/2"]]},
    "tspfb.json": {"n": 3, "weights": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]},
    "tspfb1.json": {"n": 1, "weights": [[1]]},
    "gopdiag.json": {"p": 2, "subsets": [[1, 2], [3, 4]], "cost": [[0, 1], [1, 3]]},
    "overflow.json": {"p": 2, "transfer": [[0, 1], [1, 0]],
                      "cost": [[0, 3 * 10 ** 400], [7, 0]]},
    "list.json": [1, 2],
}
BROKEN_JSON = '{"p": 2,\n  "transfer": [[0, 1],\n}'
SUBCOMMANDS = ("drp-exact", "drp-approx", "gop-exact", "gop-approx", "reduce-tspfb",
               "sim-terasort", "sim-mm", "sim-mst-io", "sweep", "gen", "validate")

# (argv, file fed to stdin or None, exit code, digest)
CLI_PINS = [
    # help
    (("--help",), None, 0,
     "7edcf34f75dd324baefaeed11cc5b7398d8f1407348f46e56ad26a017245083e"),
    (("drp-exact", "--help"), None, 0,
     "25f143e8b1995bde3699cf802b19451ec5d754e05733c382add78f1e9f45b76a"),
    (("drp-approx", "--help"), None, 0,
     "00fe6bc0ba3615e106a9703b40503e271357a9da8684587b1d44b10f6f87dc51"),
    (("gop-exact", "--help"), None, 0,
     "75862910ac3cbd5819f371e7d4cd849e586275523fd3f0fd6293547493e4e469"),
    (("gop-approx", "--help"), None, 0,
     "c27d3ad967c74b2e82406d8e630868a3980c17cba2d19faf86d708ca25a4b79f"),
    (("reduce-tspfb", "--help"), None, 0,
     "9a22bcb996f66162a0f09e743c26f970be0400d84314853c81edd0a5a8857a2a"),
    (("sim-terasort", "--help"), None, 0,
     "2b9e22606b27d9245ca19bafacdd5dc9a4e2df346d0ca06f0518603a34aff7cc"),
    (("sim-mm", "--help"), None, 0,
     "e87278d486853b360f692a3203a03c87e064550a64e3f7f9576c18609f5b2b9b"),
    (("sim-mst-io", "--help"), None, 0,
     "0432da586bce6580cd3a1c9a181283c70cc9929428ff314cb1572decd9314804"),
    (("sweep", "--help"), None, 0,
     "542e4ddfca4ed36ecf7752c022f15a348315bdaa1b4c002a7c41b6f9cb977e63"),
    (("gen", "--help"), None, 0,
     "98f1815fd5fc5552c8d03bea60121625e2951118761035ba9fe7953bce564007"),
    (("validate", "--help"), None, 0,
     "5cf41d7915f7ca9ca9151a32980033463272e922b0e5db76e97a63fa957d2435"),
    # one run of each subcommand
    (("drp-exact", "--input", "drp.json"), None, 0,
     "9b137c05e9c476d7247ba4c0d61cb00bf87cf5ede6aecd030b51bab12c20a8f4"),
    (("drp-approx", "--input", "drp.json"), None, 0,
     "15519f1e9f02538ff597e66d4c1eaa3ec890a63a534ca25d85cb31419d99a6d6"),
    (("gop-exact", "--input", "gop.json"), None, 0,
     "228c9a892823bef843c2d60747882de42ddd2501c6035252e42dd9b687c61cf4"),
    (("gop-exact", "--input", "gop.json", "--guard", "5000"), None, 0,
     "228c9a892823bef843c2d60747882de42ddd2501c6035252e42dd9b687c61cf4"),
    (("gop-approx", "--input", "gop.json"), None, 0,
     "83cc9cb650ad5f7c9bd5ee79827d3a076290a5c84c1f8c79be0f85af7efe5e3b"),
    (("gop-approx", "--input", "gop.json", "--exact-assignment"), None, 0,
     "83cc9cb650ad5f7c9bd5ee79827d3a076290a5c84c1f8c79be0f85af7efe5e3b"),
    (("reduce-tspfb", "--input", "tspfb.json"), None, 0,
     "7fe736765a5423689fef594f85c1d192d1cde6d9d9611e09cb6946f5bbc35c83"),
    (("sim-terasort", "--input", "gop.json"), None, 0,
     "4d41c83ce65cbfb3596cc62de1c3459de431db0cabd57720d5bfdc68937eb04e"),
    (("sim-terasort", "--input", "gop.json", "--memory", "4", "--with-output"), None, 0,
     "be789207b36651872e216eaaa7739144065121b28c5ebce9a28ab8d96eeb1b8e"),
    (("sim-mm", "--input", "graph.json"), None, 0,
     "5f53950909a5bb3c9ad6416532ca00ad4d3de0cb19e800425cd36e1a0808cd6a"),
    (("sim-mm", "--input", "graph.json", "--epsilon", "0.3"), None, 0,
     "2f0103b3ca38761410bb597b3a6ba2bd2e5ad535b0ab7f439caa9a0aecc97cae"),
    # epsilon in either spelling prints the same bytes
    (("sim-mm", "--input", "graph.json", "--epsilon", "3/10"), None, 0,
     "2f0103b3ca38761410bb597b3a6ba2bd2e5ad535b0ab7f439caa9a0aecc97cae"),
    (("sim-mst-io", "--input", "graph.json"), None, 0,
     "bbf3d46620a5e01629802384abc8c0de7159b160e8a11933c595b268c49c0bc9"),
    (("sim-mst-io", "--input", "graph.json", "--memory", "4"), None, 0,
     "bbf3d46620a5e01629802384abc8c0de7159b160e8a11933c595b268c49c0bc9"),
    (("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--trials", "2"), None, 0,
     "f2f8e95a91f3a682e6b696282cd04bb25fc375d32728bc1c7c5a3b7c77bdb41f"),
    (("sweep", "--kind", "mm-io", "--sizes", "8,16", "--seed", "3", "--format", "json"), None, 0,
     "adee19c8ac4e3ea132bfbd92d42b80e32c9369070e8295f49dcdeb66303ae365"),
    (("gen", "--kind", "drp", "--seed", "3"), None, 0,
     "3c0e104e447a4b85deaf39c4194426751ae9b75d907ae52925211ca19bd479c2"),
    (("gen", "--kind", "gop", "--seed", "3", "--n", "10", "--p", "3"), None, 0,
     "f922fcdccb5a73c475c2621b209c684568e695e754397943fb43c461fa2c9161"),
    (("gen", "--kind", "graph", "--seed", "3", "--n", "8", "--m", "12"), None, 0,
     "2a44c4c20824999e220cd9a4ab0ffab4237319bf9c55495246c84f6b2dcd544f"),
    (("gen", "--kind", "tspfb", "--seed", "3", "--n", "4"), None, 0,
     "9d78f4dbd3578cc919304bfd12a5f7ad65b8728467c6586ea95482164f805978"),
    (("validate", "--input", "drp.json"), None, 0,
     "4160e4a1ce4afdd185022f9940d25b59cb8d786ee82bca358c2d82a514df778e"),
    (("validate", "--input", "gop.json"), None, 0,
     "8737ef12aad3edf7022bf86deffaa3bc4509bbb87244538bf0bb9e67ddcad3d4"),
    (("validate", "--input", "graph.json", "--kind", "graph"), None, 0,
     "bf50cb04771afad55eae18b41a6d3fb2fd03de44a46923b7ba51ec45321aefd5"),
    (("validate", "--input", "tspfb.json"), None, 0,
     "bf50b452289e9d00f22fd1c49f4981c269fa46098f5c8510130ac6a804d955b2"),
    # --output FILE or '-', and stdin for a missing or '-' --input
    (("drp-exact", "--input", "drp.json", "--output", "-"), None, 0,
     "9b137c05e9c476d7247ba4c0d61cb00bf87cf5ede6aecd030b51bab12c20a8f4"),
    (("drp-exact", "--input", "drp.json", "--output", "out.json"), None, 0,
     "8391b729b5c34d1b4fa09bacc0a73fa3d3507f5c19177241a450985999d9d4ba"),
    (("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--output", "out.csv"), None, 0,
     "de523e6ffd8915b65f6e5849f8454d811e9709c534813f98ed9292a508dc4a24"),
    (("gen", "--kind", "graph", "--output", "out.json"), None, 0,
     "ee20f40027e84d113e25f6898a071da323340a20f7ac6dd317dc9a928c79d6d2"),
    (("drp-approx",), "drp.json", 0,
     "15519f1e9f02538ff597e66d4c1eaa3ec890a63a534ca25d85cb31419d99a6d6"),
    (("sim-mm", "--input", "-"), "graph.json", 0,
     "5f53950909a5bb3c9ad6416532ca00ad4d3de0cb19e800425cd36e1a0808cd6a"),
    (("validate",), "gop.json", 0,
     "8737ef12aad3edf7022bf86deffaa3bc4509bbb87244538bf0bb9e67ddcad3d4"),
    # the guard
    (("gop-exact", "--input", "guard.json"), None, 1,
     "0ee3d92cf0c4691925d5fed35174ba81922f621a2f37a55fa06ba67b600c40f5"),
    # bad input: malformed JSON, a missing file, bad flags, a float overflow
    (("validate", "--input", "broken.json"), None, 2,
     "d101933c339a5c317069a74e9639c245f60acfdd9ab03541ebcd7523911712e1"),
    (("drp-exact", "--input", "broken.json"), None, 2,
     "d101933c339a5c317069a74e9639c245f60acfdd9ab03541ebcd7523911712e1"),
    (("drp-exact", "--input", "missing.json"), None, 2,
     "2d505d7bde5402b351b0bc63477850dcf30d3b15606baf0e398f672042b26bc8"),
    (("validate", "--input", "list.json"), None, 2,
     "a3e838c1ce6dad94df8a3e110df7aacfc21511406a905df9b39db9fcaf23b738"),
    # --kind K loads with K's loader, which names the field the file lacks
    (("validate", "--input", "drp.json", "--kind", "gop"), None, 2,
     "4c79c51b2cbc4810705910a731ea001e03de46710c005310727e0b8bbd49e7e9"),
    # a size refusal names the matrix side
    (("validate", "--input", "tspfb1.json"), None, 2,
     "c37e4a12e7121fd7c622f69a9754640a8648526e08e3c52860727ab8b97fd613"),
    # a gop cost matrix needs a zero diagonal
    (("gop-exact", "--input", "gopdiag.json"), None, 2,
     "7c9ff2b5cec506dab6c24b548becc9a4b5778edcb0573b83b726808a0e15547b"),
    (("gop-exact", "--input", "gop.json", "--guard", "0"), None, 2,
     "ac3c4e71932f5393f0a5adcb793c8f208a8f7bcc39a65e27eb531ca3c70577bb"),
    # text that names no integer gets the same message as 0
    (("gop-exact", "--guard", "abc"), None, 2,
     "69188576903c9c6d0d6e00ff32d4eb80529cc8ebc0726d6ddf0fc8d47a3c69b6"),
    (("sweep", "--kind", "gop-ratio", "--sizes", "4", "--guard", "2.5"), None, 2,
     "faa04b38458b85ce8c19b22f14e9c86fe8f0c2850427107f267ec260ea24cca9"),
    # sizes that name no integer get their own message, and convert first
    (("sweep", "--kind", "drp-ratio", "--sizes", "2,x"), None, 2,
     "945dacfb16ba5fb2498fdea0018a1ab4e769e5a6b7260af6ce2777781778b4cc"),
    (("sweep", "--kind", "mm-io", "--sizes", "2,x", "--epsilon", "abc"), None, 2,
     "945dacfb16ba5fb2498fdea0018a1ab4e769e5a6b7260af6ce2777781778b4cc"),
    (("sweep", "--kind", "mm-io", "--sizes", "8", "--epsilon", "abc"), None, 2,
     "fc902f26fe410c9d9ddaf4072373c2af5ed67b5def283884aaea31af1dc82cfa"),
    (("drp-approx", "--input", "overflow.json"), None, 2,
     "0ba8013421cdb7144d35dadb6db004f6c18900189bb92e6e7db15c0ed6785612"),
    (("frobnicate",), None, 2,
     "9236eba49f0b8d05472ece5ce82d7327fa24519998c7e92b160143065b6b54ad"),
]


def _pin_id(case) -> str:
    argv, stdin, _, _ = case
    return " ".join(argv) + (f" <{stdin}" if stdin else "")


@pytest.mark.parametrize("argv, stdin, code, digest", CLI_PINS,
                         ids=[_pin_id(case) for case in CLI_PINS])
def test_cli_bytes_are_pinned(argv, stdin, code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    monkeypatch.chdir(tmp_path)
    for name, data in PIN_FILES.items():
        write_json(tmp_path, name, data)
    (tmp_path / "broken.json").write_text(BROKEN_JSON)
    if stdin is not None:
        monkeypatch.setattr(sys, "stdin", io.StringIO((tmp_path / stdin).read_text()))
    got = main(list(argv))
    captured = capsys.readouterr()
    blob = captured.out + "\0" + captured.err
    output = argv[argv.index("--output") + 1] if "--output" in argv else "-"
    if output != "-":
        blob += (tmp_path / output).read_text()
    assert (got, hashlib.sha256(blob.encode()).hexdigest()) == (code, digest)


# --- instance kinds ----------------------------------------------------------

def test_every_instance_kind_has_a_loader_a_writer_and_round_trips(monkeypatch, capsys):
    from parcost import bench
    from parcost.cli import _KINDS

    for kind in _KINDS:
        assert callable(getattr(bench, f"{kind}_from_json"))
        assert callable(getattr(bench, f"{kind}_to_json"))
        code, out, _ = run_cli(capsys, "gen", "--kind", kind, "--seed", "2")
        assert code == 0
        for flags in ((), ("--kind", kind)):
            monkeypatch.setattr(sys, "stdin", io.StringIO(out))
            assert run_cli(capsys, "validate", *flags) == (
                0, '{"kind":"%s","valid":true}\n' % kind, "")


def test_every_subcommand_has_a_handler_and_kind_choices_match_the_table():
    from parcost.cli import _KINDS, build_parser

    parser = build_parser()
    subs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert tuple(subs.choices) == SUBCOMMANDS
    for name, sub in subs.choices.items():
        assert callable(sub.get_default("handler")), name
    for name in ("gen", "validate"):
        kind = next(a for a in subs.choices[name]._actions if a.dest == "kind")
        assert tuple(kind.choices) == tuple(_KINDS), name


# Graph files the loader refuses, and the message each gets. validate and the
# graph simulators read through the same loader, so they must agree.
BAD_GRAPHS = {
    "float-endpoint": ({"n": 3, "edges": [[1.5, 2, 1]]},
                       "edge 1 endpoints (1.5,2) must be integers"),
    "bool-endpoint": ({"n": 3, "edges": [[1, 2, 1], [2, True, 1]]},
                      "edge 2 endpoints (2,True) must be integers"),
    "float-n": ({"n": 3.0, "edges": [[1, 2, 1]]}, "n_vertices must be an integer, got 3.0"),
    "string-n": ({"n": "3", "edges": [[1, 2, 1]]}, "n_vertices must be an integer, got '3'"),
    "edges-not-a-list": ({"n": 3, "edges": 5}, "graph edges must be a list, got 5"),
    "edge-not-a-list": ({"n": 3, "edges": [[1, 2, 1], 5]},
                        "edge 2 is not a [u, v, weight] list: 5"),
    "two-item-edge": ({"n": 3, "edges": [[1, 2]]},
                      "edge 1 is not a [u, v, weight] list: [1, 2]"),
    "no-edges": ({"n": 3, "edges": []}, "graph has no edges"),
    "bool-weight": ({"n": 3, "edges": [[1, 2, 1], [2, 3, True]]},
                    "booleans are not valid numeric entries"),
    "zero-n": ({"n": 0, "edges": []}, "n_vertices must be >= 1, got 0"),
}


@pytest.mark.parametrize("data, message", BAD_GRAPHS.values(), ids=BAD_GRAPHS)
def test_bad_graph_is_refused_alike_by_every_graph_command(data, message, tmp_path,
                                                           capsys):
    from parcost import Graph, InstanceError

    path = write_json(tmp_path, "g.json", data)
    for command in ("validate", "sim-mm", "sim-mst-io"):
        assert run_cli(capsys, command, "--input", path) == (
            2, "", f"invalid input: {message}\n"), command
    # the loader only picks the fields; the constructor owns every rule
    with pytest.raises(InstanceError) as refused:
        Graph(data["n"], data["edges"])
    assert str(refused.value) == message


# Sort instances the loader refuses, and the message each gets. validate, the
# splitter solvers and the sort simulator read through the same loader, so
# they must agree.
BAD_SORTS = {
    "empty-machine": ({"p": 3, "subsets": [[1], [2], []],
                       "cost": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]},
                      "need at least one element per machine: n=2, p=3"),
    "no-elements": ({"p": 2, "subsets": [[], []], "cost": [[0, 1], [1, 0]]},
                    "need at least one element per machine: n=0, p=2"),
}


@pytest.mark.parametrize("data, message", BAD_SORTS.values(), ids=BAD_SORTS)
def test_bad_sort_instance_is_refused_alike_by_every_sort_command(data, message,
                                                                  tmp_path, capsys):
    from parcost import InstanceError, SortInstance

    path = write_json(tmp_path, "s.json", data)
    for command in ("validate", "gop-exact", "gop-approx", "sim-terasort"):
        assert run_cli(capsys, command, "--input", path) == (
            2, "", f"invalid input: {message}\n"), command
    with pytest.raises(InstanceError) as refused:
        SortInstance(data["subsets"])
    assert str(refused.value) == message


# Instances with a size field that is not a plain JSON integer, one per kind
# whose size field only names the size its matrices or subsets already have.
SIZED = {
    "drp": ("p", {"transfer": [[0, 1], [1, 0]], "cost": [[0, 1], [1, 0]]}),
    "gop": ("p", {"subsets": [[1], [2]], "cost": [[0, 1], [1, 0]]}),
    "tspfb": ("n", {"weights": [[1, 2], [2, 1]]}),
}


@pytest.mark.parametrize("kind", SIZED)
@pytest.mark.parametrize("size", [2.0, "2", True], ids=["float", "string", "bool"])
def test_size_field_must_be_an_integer(kind, size, tmp_path, capsys):
    key, fields = SIZED[kind]
    path = write_json(tmp_path, "i.json", {key: size, **fields})
    assert run_cli(capsys, "validate", "--input", path) == (
        2, "", f"invalid input: field {key} must be an integer, got {size!r}\n")
    path = write_json(tmp_path, "i.json", {key: 2, **fields})
    assert run_cli(capsys, "validate", "--input", path) == (
        0, '{"kind":"%s","valid":true}\n' % kind, "")


# --- each result once --------------------------------------------------------
# A request computes each result once: no solver or simulator entry point is
# called twice with equal arguments within one request, or within one sweep
# row. Their callers import them in their bodies, so the wrapped module
# attribute is the one a request runs.

ENTRY_POINTS = {"drp": ("drp_solve_exact", "drp_solve_approx", "tspfb_to_drp"),
                "lap": ("lap_solve",),
                "gopsort": ("gop_solve_exact", "gop_solve_approx"),
                "iosim": ("terasort_simulate", "mm_serial_run", "mm_parallel_io_model",
                          "nowicki_partition_io")}

ONCE_REQUESTS = [
    ("drp-exact", "--input", "drp.json"),
    ("drp-approx", "--input", "drp.json"),
    ("gop-exact", "--input", "gop.json"),
    ("gop-approx", "--input", "gop.json"),
    ("gop-approx", "--input", "gop.json", "--exact-assignment"),
    ("reduce-tspfb", "--input", "tspfb.json"),
    ("sim-terasort", "--input", "gop.json"),
    ("sim-mm", "--input", "graph.json"),
    ("sim-mst-io", "--input", "graph.json"),
    ("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--trials", "2"),
    ("gen", "--kind", "drp"),
    ("validate", "--input", "drp.json"),
]

ONCE_SWEEPS = [
    {"kind": "drp-ratio", "sizes": (2, 3, 4)},
    {"kind": "gop-ratio", "sizes": (4, 6), "p": 3},
    {"kind": "terasort-io", "sizes": (64, 128)},
    {"kind": "mst-io", "sizes": (8, 16)},
    {"kind": "mm-io", "sizes": (8, 16)},
]


def record_entry_points(monkeypatch) -> list:
    """Wrap each entry point to append (name, args, kwargs) to the returned
    list before it runs, and run every sweep row in this process."""
    from parcost import bench

    calls = []

    def recorder(name, fn):
        def recording(*args, **kwargs):
            calls.append((name, args, kwargs))
            return fn(*args, **kwargs)
        return recording

    for module_name, names in ENTRY_POINTS.items():
        module = importlib.import_module(f"parcost.{module_name}")
        for name in names:
            monkeypatch.setattr(module, name, recorder(name, getattr(module, name)))
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 1)
    return calls


def repeated_calls(calls) -> list[str]:
    """The name of each call whose name and arguments equal an earlier one's."""
    return [call[0] for k, call in enumerate(calls) if call in calls[:k]]


@pytest.mark.parametrize("argv", ONCE_REQUESTS, ids=" ".join)
def test_a_request_runs_each_entry_point_once_per_input(argv, tmp_path, monkeypatch,
                                                        capsys):
    monkeypatch.chdir(tmp_path)
    for name, data in PIN_FILES.items():
        write_json(tmp_path, name, data)
    calls = record_entry_points(monkeypatch)
    assert run_cli(capsys, *argv)[0] == 0
    assert bool(calls) == (argv[0] not in ("gen", "validate"))
    assert repeated_calls(calls) == []


@pytest.mark.parametrize("spec", ONCE_SWEEPS, ids=[s["kind"] for s in ONCE_SWEEPS])
def test_a_sweep_row_runs_each_entry_point_once_per_input(spec, monkeypatch):
    from parcost import bench

    calls = record_entry_points(monkeypatch)
    header, defaults, measure, *row = bench._SWEEPS[spec["kind"]]
    rows = []

    def measure_once(*args, **kwargs):
        calls.clear()
        cells = measure(*args, **kwargs)
        rows.append(list(calls))
        return cells

    monkeypatch.setitem(bench._SWEEPS, spec["kind"], (header, defaults, measure_once, *row))
    bench.run_sweep(bench.SweepSpec(**spec, trials=2))
    assert len(rows) == 2 * len(spec["sizes"])
    for row in rows:
        assert row and repeated_calls(row) == []


# --- the table reader --------------------------------------------------------
# main reads a plain argv with cli._read_argv and leaves every other one to
# argparse, so the reader must return None or exactly argparse's namespace.

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def parsed(argv) -> dict | None:
    """vars() of argparse's namespace for argv; None where argparse exits,
    as for help or a refusal."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(build_parser().parse_args(argv))
        except SystemExit:
            return None


def assert_reader_agrees(argv) -> bool:
    """Whether the reader took argv, after checking it agrees with argparse."""
    read = cli._read_argv(list(argv))
    if read is not None:
        assert vars(read) == parsed(list(argv)), argv
    return read is not None


def perfbench_argvs() -> list[list[str]]:
    """Every process argv of every perfbench workload, --input included."""
    spec = importlib.util.spec_from_file_location("workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclass needs its module
    try:
        spec.loader.exec_module(workloads)
    finally:
        del sys.modules["workloads"]
    argvs = []
    for make in workloads.WORKLOADS.values():
        for request in make(1)[1]:
            for k, stage in enumerate(request.stages):
                first = k == 0 and request.instance
                argvs.append([*stage, *(["--input", f"{request.instance}.json"] if first else [])])
    return argvs


def test_the_reader_takes_every_perfbench_argv():
    argvs = perfbench_argvs()
    assert len(argvs) == 18 + 4 * 2 + 10 + 15
    assert all(assert_reader_agrees(argv) for argv in argvs)


SWEEP_ARGVS = [
    ("sweep", "--kind", "mst-io", "--sizes", "64,256,1024,4096"),
    ("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--trials", "1", "--seed", "0",
     "--cost-low", "1", "--cost-high", "10", "--mass-max", "20"),
    ("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--epsilon", "1/10"),
    ("sweep", "--kind", "mm-io", "--sizes", "2", "--epsilon", "0.9"),
    ("sweep", "--kind", "drp-ratio", "--sizes", "2,3", "--format", "json"),
    ("sweep", "--kind", "gop-ratio", "--sizes", "4,40", "--p", "3", "--trials", "2",
     "--guard", "1000"),
    ("sweep", "--kind", "gop-ratio", "--sizes", "4", "--guard", "0"),
    ("sweep", "--kind", "drp-ratio", "--sizes", "2", "--p", "-1"),
    ("sweep", "--kind", "nope", "--sizes", "2"),
    ("sweep", "--sizes", "2"),
    ("sweep", "--kind", "drp-ratio"),
]


@pytest.mark.parametrize("argv", [argv for argv, *_ in CLI_PINS] + SWEEP_ARGVS + ONCE_REQUESTS,
                         ids=" ".join)
def test_the_reader_agrees_with_argparse(argv):
    assert_reader_agrees(argv)


def test_the_reader_leaves_help_refusals_and_other_spellings_to_argparse():
    for argv in (["--help"], ["drp-exact", "-h"], ["drp-exact", "--in", "x"],
                 ["drp-exact", "--input=x"], ["drp-exact", "--input", "x", "--input", "y"],
                 ["drp-exact", "--input"], ["drp-exact", "x"], ["gen", "--seed", "-1"],
                 ["gop-exact", "--guard", "0"], ["gen", "--kind", "nope"], ["gen"],
                 ["sim-mm", "--input", "-"], ["frobnicate"], []):
        assert cli._read_argv(argv) is None, argv


def test_the_reader_agrees_with_argparse_on_drawn_argv():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    words = ["-h", "--help", "-5", "--", "-", "", "0", "1", "3", "2,3", "abc", "1/10",
             "0.5", "csv", "json", "drp", "gop", "graph", "drp-ratio", "mm-io", "x.json"]

    @st.composite
    def argvs(draw):
        command = draw(st.sampled_from([*cli._COMMANDS, "frobnicate", "--help"]))
        options = cli._COMMANDS.get(command, (None, None, {"--input": {}}))[2]
        flags = list(options)
        spellings = [*(f"{flag}={word}" for flag in flags for word in ("1", "drp")),
                     *(flag[:k] for flag in flags for k in range(3, len(flag)))]
        token = st.sampled_from(flags + words + spellings) | st.text(max_size=4)
        # a flag and a value, one of its choices where it has them
        pair = st.sampled_from(flags).flatmap(lambda flag: st.tuples(
            st.just(flag), st.sampled_from([*words, *options[flag].get("choices", ())])))
        group = st.one_of(*[pair.map(list)] * 3, token.map(lambda t: [t]))
        tokens = draw(st.lists(group, max_size=5))
        return [command, *(t for group in tokens for t in group)]

    @hypothesis.settings(max_examples=400, deadline=None)
    @hypothesis.given(argvs())
    def check(argv):
        assert_reader_agrees(argv)

    check()
