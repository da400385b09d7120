import pytest

from parcost import ParameterError
from parcost.bench import (Seed, SweepSpec, drp_from_json, drp_to_json,
                           dumps_canonical, gen_drp, gen_gop, gen_graph,
                           gen_tspfb, gop_from_json, gop_to_json,
                           graph_from_json, graph_to_json, run_sweep,
                           sweep_to_csv, tspfb_from_json, tspfb_to_json)
from parcost.errors import InstanceError


class TestSeed:
    def test_range(self):
        Seed(0)
        Seed(2 ** 64 - 1)
        with pytest.raises(ParameterError):
            Seed(-1)
        with pytest.raises(ParameterError):
            Seed(2 ** 64)


class TestGenerators:
    def test_drp_determinism(self):
        a = gen_drp(5, 1, 9, 20, seed=42)
        b = gen_drp(5, 1, 9, 20, seed=42)
        assert a == b
        assert dumps_canonical(drp_to_json(a)) == dumps_canonical(drp_to_json(b))
        assert a != gen_drp(5, 1, 9, 20, seed=43)

    def test_drp_uniform_costs_have_unit_bound(self):
        from parcost import ratio_bound
        inst = gen_drp(4, 3, 3, 10, seed=1)
        assert ratio_bound(inst.cost) == 1

    def test_drp_parameter_validation(self):
        with pytest.raises(ParameterError):
            gen_drp(1, 1, 9, 20, seed=1)
        with pytest.raises(ParameterError):
            gen_drp(3, 5, 2, 20, seed=1)
        with pytest.raises(ParameterError):
            gen_drp(3, 1, 9, 0, seed=1)

    def test_gop_distinct_values(self):
        g = gen_gop(8, 2, seed=7)
        values = [v for s in g.inst.subsets for v in s]
        assert len(values) == len(set(values)) == 8
        assert gen_gop(8, 2, seed=7) == g

    def test_graph_complete_when_forced(self):
        g = gen_graph(4, 6, seed=3)
        pairs = {frozenset((u, v)) for u, v, _ in g.edges}
        assert pairs == {frozenset((u, v))
                         for u in range(1, 5) for v in range(u + 1, 5)}

    def test_graph_infeasible_m(self):
        with pytest.raises(ParameterError):
            gen_graph(4, 7, seed=1)

    def test_tspfb_positive(self):
        tour = gen_tspfb(4, seed=5)
        assert all(w >= 1 for row in tour.weights for w in row)


class TestRoundTrips:
    def test_drp(self):
        inst = gen_drp(4, 1, 9, 15, seed=21)
        assert drp_from_json(drp_to_json(inst)) == inst

    def test_gop(self):
        g = gen_gop(12, 3, seed=22)
        assert gop_from_json(gop_to_json(g)) == g

    def test_graph(self):
        g = gen_graph(10, 20, seed=23)
        assert graph_from_json(graph_to_json(g)) == g

    def test_tspfb(self):
        tour = gen_tspfb(5, seed=24)
        assert tspfb_from_json(tspfb_to_json(tour)) == tour

    def test_missing_field_is_named(self):
        with pytest.raises(InstanceError, match="'cost'"):
            drp_from_json({"p": 2, "transfer": [[0, 1], [1, 0]]})

    def test_size_disagreement(self):
        with pytest.raises(InstanceError, match="disagrees"):
            drp_from_json({"p": 3, "transfer": [[0, 1], [1, 0]],
                           "cost": [[0, 1], [1, 0]]})


class TestSweeps:
    def test_spec_validation(self):
        with pytest.raises(ParameterError):
            SweepSpec(kind="nope", sizes=(2, 3))
        with pytest.raises(ParameterError):
            SweepSpec(kind="drp-ratio", sizes=(3, 2))
        with pytest.raises(ParameterError):
            SweepSpec(kind="drp-ratio", sizes=(2, 3), trials=0)
        for guard in (0, -1):
            with pytest.raises(ParameterError):
                SweepSpec(kind="gop-ratio", sizes=(4,), guard=guard)
        for kind in ("terasort-io", "mst-io"):
            for memory in (1, 0, -3):
                with pytest.raises(ParameterError, match="must be >= 2"):
                    SweepSpec(kind=kind, sizes=(64,), memory=memory)
        for kind in ("gop-ratio", "terasort-io"):
            for p in (1, 0, -2):
                with pytest.raises(ParameterError, match="p must be >= 2"):
                    SweepSpec(kind=kind, sizes=(64,), p=p)

    def test_drp_ratio_rows_within_bound(self):
        header, rows = run_sweep(SweepSpec(kind="drp-ratio", sizes=(2, 3, 4),
                                           trials=3, seed=5))
        assert rows[-1][1] == "summary"
        data = [r for r in rows[:-1] if r[2] == "ok"]
        assert len(data) == 9
        within = header.index("within_bound")
        assert all(r[within] == "yes" for r in data)

    def test_guard_violations_become_skipped_rows(self):
        # C(4,2)*3! = 36 fits the default work guard; C(30,2)*3! = 2610 does not
        header, rows = run_sweep(SweepSpec(kind="gop-ratio", sizes=(4, 30),
                                           trials=1, seed=5, p=3))
        statuses = {r[0]: r[3] for r in rows[:-1]}
        assert statuses["4"] == "ok"
        assert statuses["30"] == "skipped"

    def test_drp_ratio_has_no_guard(self):
        header, rows = run_sweep(SweepSpec(kind="drp-ratio", sizes=(3, 12),
                                           trials=1, seed=5))
        assert [r[2] for r in rows[:-1]] == ["ok", "ok"]

    def test_mst_sweep_classifies_non(self):
        header, rows = run_sweep(SweepSpec(kind="mst-io",
                                           sizes=(32, 64, 128, 256), seed=3))
        assert rows[-1][header.index("classification")] == "non-io-optimal"

    def test_mm_sweep_ratio_is_one(self):
        header, rows = run_sweep(SweepSpec(kind="mm-io", sizes=(12, 24, 48),
                                           seed=3))
        ratio = header.index("ratio")
        data = [r for r in rows[:-1] if r[3] == "ok"]
        assert all(r[ratio] == "1.0" for r in data)
        assert rows[-1][header.index("classification")] == "io-optimal"

    def test_gop_sweep_within_bound(self):
        header, rows = run_sweep(SweepSpec(kind="gop-ratio", sizes=(8, 10, 12),
                                           trials=2, seed=9, guard=10 ** 6))
        within = header.index("within_bound")
        data = [r for r in rows[:-1] if r[3] == "ok"]
        assert data and all(r[within] == "yes" for r in data)

    def test_terasort_sweep_classifies_super(self):
        header, rows = run_sweep(SweepSpec(kind="terasort-io",
                                           sizes=(10_000, 100_000, 1_000_000),
                                           seed=3, memory=1000))
        assert rows[-1][header.index("classification")] == "super-io-optimal"

    def test_reproducible_csv_bytes(self):
        spec = SweepSpec(kind="terasort-io", sizes=(1000, 2000, 4000),
                         seed=11, memory=100)
        a = sweep_to_csv(*run_sweep(spec))
        b = sweep_to_csv(*run_sweep(spec))
        assert a == b
        assert a.splitlines()[0] == "n,trial,status,parallel_io,serial_io,ratio,classification"
