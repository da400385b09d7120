import argparse
import hashlib
import io
import json
import sys

import pytest

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
     "53bca4a0a42047b67b44c94c1ad03a5c766aa94c89c962e78c5172b8170ad56b"),
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
    (("validate", "--input", "drp.json", "--kind", "gop"), None, 2,
     "7af26b86edefd726684272fb5454cbe98885bb79e237f20b2b380b9bda0325ba"),
    (("gop-exact", "--input", "gop.json", "--guard", "0"), None, 2,
     "ac3c4e71932f5393f0a5adcb793c8f208a8f7bcc39a65e27eb531ca3c70577bb"),
    (("sweep", "--kind", "drp-ratio", "--sizes", "2,x"), None, 2,
     "6aa54b9eeb075f502ca4d8313701ba04b7433b737b7c04b4860eedbd12165e51"),
    (("sweep", "--kind", "mm-io", "--sizes", "2,x", "--epsilon", "abc"), None, 2,
     "6aa54b9eeb075f502ca4d8313701ba04b7433b737b7c04b4860eedbd12165e51"),
    (("sweep", "--kind", "mm-io", "--sizes", "8", "--epsilon", "abc"), None, 2,
     "6c5780ffc1ee7461c8fa6a168a9eedf325b28cceaa66b0a20d5e8bb52706bddf"),
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
}


@pytest.mark.parametrize("data, message", BAD_GRAPHS.values(), ids=BAD_GRAPHS)
def test_bad_graph_is_refused_alike_by_every_graph_command(data, message, tmp_path,
                                                           capsys):
    path = write_json(tmp_path, "g.json", data)
    for command in ("validate", "sim-mm", "sim-mst-io"):
        assert run_cli(capsys, command, "--input", path) == (
            2, "", f"invalid input: {message}\n"), command
