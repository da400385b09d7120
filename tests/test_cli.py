import json

from parcost.cli import main

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
        for guard in ("0", "-5"):
            code, out, err = run_cli(capsys, "gop-exact", "--input", path,
                                     "--guard", guard)
            assert (code, out) == (2, "")
            assert "positive integer" in err
            code, out, err = run_cli(capsys, "sweep", "--kind", "gop-ratio",
                                     "--sizes", "4", f"--guard={guard}")
            assert (code, out) == (2, "")
            assert "positive integer" in err

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

    def test_sim_mst_io(self, tmp_path, capsys):
        edges = [[u, v, 1 + ((u * 7 + v) % 5)]
                 for u in range(1, 13) for v in range(u + 1, 13)]
        path = write_json(tmp_path, "g.json", {"n": 12, "edges": edges})
        code, out, _ = run_cli(capsys, "sim-mst-io", "--input", path)
        assert code == 0
        result = json.loads(out)
        assert result["parallel_io"] > 0
        assert result["analytic_io"] >= result["parallel_io"]


class TestSweepAndGen:
    def test_mst_sweep_csv_ends_with_non(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--kind", "mst-io",
                               "--sizes", "64,256,1024,4096")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,m,trial,status")
        assert lines[-1].endswith("non-io-optimal")

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
