import errno
import hashlib
import json
import os
import pickle
import re
import threading
from fractions import Fraction

import pytest

from parcost import (CostMatrix, DrpInstance, ParameterError, TransferMatrix,
                     as_exact, bench)
from parcost.constants import SWEEP_KINDS
from parcost.bench import (SweepSpec, drp_from_json, drp_to_json,
                           dumps_canonical, gen_drp, gen_gop, gen_graph,
                           gen_tspfb, gop_from_json, gop_to_json,
                           graph_from_json, graph_to_json, run_sweep,
                           sweep_to_csv, tspfb_from_json, tspfb_to_json)
from parcost.errors import InstanceError


class TestSeed:
    def test_range(self):
        # the generators and the sweep spec share one rule
        for seed in (0, 2 ** 64 - 1):
            gen_tspfb(3, seed)
            SweepSpec("drp-ratio", (2,), seed=seed)
        for seed in (-1, 2 ** 64):
            for build in (lambda: gen_drp(2, 1, 9, 20, seed), lambda: gen_gop(2, 2, seed),
                          lambda: gen_graph(2, 1, seed), lambda: gen_tspfb(3, seed),
                          lambda: SweepSpec("drp-ratio", (2,), seed=seed)):
                with pytest.raises(ParameterError, match="64-bit unsigned"):
                    build()


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

    def test_non_float_rationals_are_num_den_strings(self):
        inst = DrpInstance(TransferMatrix([[0, Fraction(1, 3)], [0.5, 3]]),
                           CostMatrix([[0, 0.1], [Fraction(10 ** 400, 3), 0]]))
        data = json.loads(dumps_canonical(drp_to_json(inst)))
        assert data["transfer"] == [[0, "1/3"], [0.5, 3]]
        assert data["cost"] == [[0, 0.1], [f"{10 ** 400}/3", 0]]
        assert drp_from_json(data) == inst

    @pytest.mark.parametrize("text", ["0.5", "1/0", "1/-3", "+1/3", " 1/3", "1/3 ",
                                      "1.0/3", "1e3", "", "one"])
    def test_other_strings_are_refused(self, text):
        with pytest.raises(InstanceError, match="num/den"):
            drp_from_json({"p": 2, "transfer": [[0, text], [1, 0]],
                           "cost": [[0, 1], [1, 0]]})
        with pytest.raises(InstanceError, match="num/den"):
            graph_from_json({"n": 2, "edges": [[1, 2, text]]})
        with pytest.raises(InstanceError, match="num/den"):
            as_exact(text)


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
        for edge_factor in (0, -1):
            with pytest.raises(ParameterError,
                               match=f"edge_factor must be >= 1, got {edge_factor}"):
                SweepSpec(kind="mm-io", sizes=(8,), edge_factor=edge_factor)
        # each kind's least size: a machine count's p, else what its generator takes
        for kind, sizes, p, least in (("drp-ratio", (1, 2), None, 2),
                                      ("gop-ratio", (1,), None, 2),
                                      ("gop-ratio", (2, 3), 3, 3),
                                      ("terasort-io", (3, 64), None, 4),
                                      ("mst-io", (5, 6), None, 6),
                                      ("mm-io", (1,), None, 2)):
            message = f"sizes must be >= {least} for {kind}, got {sizes}"
            with pytest.raises(ParameterError, match=re.escape(message)):
                SweepSpec(kind=kind, sizes=sizes, p=p)
            header, rows = run_sweep(SweepSpec(kind=kind, sizes=(least,), p=p))
            assert rows[0][header.index("status")] == "ok"

    def test_spec_refuses_a_knob_its_kind_does_not_read(self):
        values = {"cost_low": 2, "cost_high": 5, "mass_max": 7, "p": 3, "memory": 4,
                  "epsilon": "1/5", "edge_factor": 3, "guard": 10}
        reads = {"drp-ratio": ("cost_low", "cost_high", "mass_max"),
                 "gop-ratio": ("p", "guard", "cost_low", "cost_high"),
                 "terasort-io": ("p", "memory", "cost_low", "cost_high"),
                 "mst-io": ("memory",), "mm-io": ("epsilon", "edge_factor")}
        assert {kind: row[3] for kind, row in bench._SWEEPS.items()} == reads
        for kind, names in reads.items():
            plain = run_sweep(SweepSpec(kind, (16,)))
            for name, value in values.items():
                if name in names:
                    spec = SweepSpec(kind, (16,), **{name: value})
                    assert pickle.loads(pickle.dumps(spec)) == spec
                    # a knob the kind reads moves its rows; terasort-io's
                    # costs price its shuffle, which a row does not print
                    if kind != "terasort-io" or name == "memory":
                        assert run_sweep(spec) != plain, (kind, name)
                    continue
                message = f"{kind} does not read {name}; it reads {', '.join(names)}"
                with pytest.raises(ParameterError, match=re.escape(message)):
                    SweepSpec(kind, (8,), **{name: value})

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

    def test_all_skipped_sweep_has_a_skipped_summary(self):
        # no row is measured, so there is no maximum ratio to report
        header, rows = run_sweep(SweepSpec(kind="gop-ratio", sizes=(30, 40),
                                           trials=2, seed=5, p=3))
        assert [r[3] for r in rows] == ["skipped"] * 5
        summary = rows[-1]
        assert summary[2] == "summary"
        assert summary[header.index("ratio")] == ""

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

    def test_table_kinds_are_the_parser_choices(self):
        assert tuple(bench._SWEEPS) == SWEEP_KINDS

    def test_reproducible_csv_bytes(self):
        spec = SweepSpec(kind="terasort-io", sizes=(1000, 2000, 4000),
                         seed=11, memory=100)
        a = sweep_to_csv(*run_sweep(spec))
        b = sweep_to_csv(*run_sweep(spec))
        assert a == b
        assert a.splitlines()[0] == "n,trial,status,parallel_io,serial_io,ratio,classification"


# SHA-256 of each case's CSV bytes, so that no change to the sweep loop can
# alter a table unnoticed. The cases cover every kind, trials > 1, skipped
# gop-ratio rows, an all-skipped gop-ratio summary and each classification
# label.
SWEEP_PINS = [
    (dict(kind="drp-ratio", sizes=(2, 3, 4), trials=2, seed=5),
     "f11d1717b8e60a06104953c58ecdcdd83ed54172154b9da94b58658d07f7160f"),
    (dict(kind="drp-ratio", sizes=(3, 5), seed=1, cost_low=2, cost_high=4, mass_max=7),
     "c3ebac1c813200677d65e1139ea364a18c84e853a4de8b16c8fccb1c5a3a6f6a"),
    (dict(kind="gop-ratio", sizes=(4, 30), seed=5, p=3),
     "0aa6b479d046f1b602fcf5f6e48dd3faff117bb317c4ab1f55bd9120277629a4"),
    (dict(kind="gop-ratio", sizes=(30, 40), seed=5, p=3),
     "1117177b774c1a2ce18e8ae7081d029d8c2d0b15420d792e71ec46e992b2ba3e"),
    (dict(kind="gop-ratio", sizes=(6, 8), trials=2, seed=9, guard=10 ** 4),
     "b1213c8ed53c89cd559e1ba49f1a4db6a42b54b7546b5c98e5a502e8e28777e4"),
    (dict(kind="terasort-io", sizes=(1000, 2000, 4000), trials=2, seed=11, memory=100),
     "a135004ed67582686c0c598da0e35e9fa99200a36adfc4afdb7034b4f139f04e"),
    (dict(kind="terasort-io", sizes=(1000, 2000), seed=0),
     "9bb81d6cff3d308605943d85db8a9f878c3a0f6e0bd2e94305f4d16de9ce19cb"),
    (dict(kind="terasort-io", sizes=(500, 1000), seed=2, p=3, memory=50),
     "5a8e603a0704594b12f5280811d3be8f1b7f6b05f9985e28469f1f4f055560f5"),
    (dict(kind="mst-io", sizes=(32, 64, 128), trials=2, seed=3),
     "27e50e603e21de0b9c3f144eba301ddd728f1c697fb8502347504c9b5398b243"),
    (dict(kind="mst-io", sizes=(32, 64), seed=3, memory=16),
     "109ea9f74554c866558b9df3caae64da26ed1fce4ee074708c3c73ef9580a8a8"),
    (dict(kind="mm-io", sizes=(12, 24, 48), trials=2, seed=3),
     "433636082d4683fcf08853cc471c2cbddcc90969ff96cf0ed525d10943259521"),
    (dict(kind="mm-io", sizes=(10, 20), seed=4, edge_factor=2, epsilon=Fraction(1, 5)),
     "e5c0618b9d92c661067f16e151d1f7ce2b98dc3e071635f3a717c04b1f5e35dd"),
]


@pytest.mark.parametrize("spec,digest", SWEEP_PINS,
                         ids=[f"{s['kind']}-{i}" for i, (s, _) in enumerate(SWEEP_PINS)])
def test_sweep_csv_bytes_are_pinned(spec, digest):
    csv = sweep_to_csv(*run_sweep(SweepSpec(**spec)))
    assert hashlib.sha256(csv.encode()).hexdigest() == digest


def csv_writer_table(header, rows) -> str:
    """The table as ``csv.writer`` writes it, which ``sweep_to_csv`` did
    before it joined the cells: the oracle for the join."""
    import csv
    import io

    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


@pytest.mark.parametrize("spec", [spec for spec, _ in SWEEP_PINS],
                         ids=[f"{s['kind']}-{i}" for i, (s, _) in enumerate(SWEEP_PINS)])
def test_sweep_csv_is_what_csv_writer_writes(spec):
    # the pinned cases hold every kind, skipped rows and each summary row
    header, rows = run_sweep(SweepSpec(**spec))
    assert sweep_to_csv(header, rows) == csv_writer_table(header, rows)


def test_sweep_json_bytes_are_pinned(capsys):
    from parcost.cli import main

    assert main(["sweep", "--kind", "gop-ratio", "--sizes", "4,30", "--p", "3",
                 "--seed", "5", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7860b9c02f2d031b064498178acf77b42a239620d0561a868ec0a23c113d1574")


# --- rows shared among forked workers ----------------------------------------

SPLIT_CASES = [
    dict(kind="drp-ratio", sizes=(2, 3, 4), trials=5, seed=5),
    dict(kind="gop-ratio", sizes=(4, 30), trials=3, seed=5, p=3),
    dict(kind="gop-ratio", sizes=(6, 8), seed=9, guard=10 ** 4),
    dict(kind="terasort-io", sizes=(1000, 2000, 4000), trials=3, seed=11, memory=100),
    dict(kind="mst-io", sizes=(32, 64, 128), trials=2, seed=3),
    dict(kind="mm-io", sizes=(12, 24, 48), trials=3, seed=3),
]


@pytest.fixture
def forks(monkeypatch):
    """The children ``os.fork`` started in this process."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


@pytest.fixture
def rows_here(monkeypatch):
    """The (seed, size, trial) of every row this process ran."""
    keys = []
    real_row_seed = bench.row_seed
    monkeypatch.setattr(bench, "row_seed", lambda *key: keys.append(key) or real_row_seed(*key))
    return keys


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def set_cpus(monkeypatch, cpus):
    monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)


@pytest.mark.parametrize("spec", SPLIT_CASES,
                         ids=[f"{s['kind']}-{i}" for i, s in enumerate(SPLIT_CASES)])
def test_csv_bytes_do_not_depend_on_worker_count(spec, monkeypatch, forks, rows_here):
    trials = spec.get("trials", 1)
    outputs = []
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        forks.clear()
        rows_here.clear()
        outputs.append(sweep_to_csv(*run_sweep(SweepSpec(**spec))))
        k = min(cpus, trials)
        assert len(forks) == k - 1
        # this process ran worker 0's share only, so no worker failed
        assert len(rows_here) == len(spec["sizes"]) * len(range(0, trials, k))
        assert_no_child()
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_skipped_rows_in_every_share(monkeypatch):
    set_cpus(monkeypatch, 3)
    header, rows = run_sweep(SweepSpec(**SPLIT_CASES[1]))
    assert [(r[0], r[2], r[3]) for r in rows[:-1]] == [
        ("4", "0", "ok"), ("4", "1", "ok"), ("4", "2", "ok"),
        ("30", "0", "skipped"), ("30", "1", "skipped"), ("30", "2", "skipped")]


def failing_rows(monkeypatch, failures):
    """Make the drp-ratio rows named by (p, trial) of a seed-5 sweep raise."""
    header, defaults, measure, *row = bench._SWEEPS["drp-ratio"]
    by_seed = {bench.row_seed(5, p, trial): error for (p, trial), error in failures.items()}

    def measure_or_fail(spec, p, seed):
        if seed in by_seed:
            raise by_seed[seed]
        return measure(spec, p, seed)

    monkeypatch.setitem(bench._SWEEPS, "drp-ratio", (header, defaults, measure_or_fail, *row))
    return SweepSpec(kind="drp-ratio", sizes=(2, 3, 4), trials=4, seed=5)


@pytest.mark.parametrize("failures", [
    # the only failing row is trial 1, in worker 1's share for k = 2 and 3
    {(3, 1): ValueError("row p=3 trial 1")},
    # worker 0 meets its own error first; the serial loop meets worker 1's
    {(3, 1): ParameterError("row p=3 trial 1"), (4, 0): ValueError("row p=4 trial 0")},
], ids=["in-a-child", "earlier-in-a-child"])
def test_worker_error_is_the_serial_error(failures, monkeypatch, forks):
    spec = failing_rows(monkeypatch, failures)
    for cpus in (1, 2, 3):
        set_cpus(monkeypatch, cpus)
        forks.clear()
        with pytest.raises(Exception) as raised:
            run_sweep(spec)
        assert type(raised.value) is type(failures[3, 1])
        assert str(raised.value) == "row p=3 trial 1"
        assert len(forks) == cpus - 1
        assert_no_child()


def test_worker_error_keeps_the_serial_exit_code(monkeypatch, capsys):
    from parcost.cli import main

    failing_rows(monkeypatch, {(3, 1): ParameterError("row p=3 trial 1")})
    argv = ["sweep", "--kind", "drp-ratio", "--sizes", "2,3,4", "--trials", "4",
            "--seed", "5"]
    results = []
    for cpus in (1, 2):
        set_cpus(monkeypatch, cpus)
        results.append((main(argv), capsys.readouterr()))
        assert_no_child()
    assert results[0] == results[1]
    assert results[0][0] == 2 and results[0][1].err == "invalid input: row p=3 trial 1\n"


def test_failed_fork_runs_the_rows_here(monkeypatch):
    spec = SweepSpec(kind="drp-ratio", sizes=(2, 3), trials=4, seed=5)
    set_cpus(monkeypatch, 1)
    serial = run_sweep(spec)
    set_cpus(monkeypatch, 3)
    real_fork = os.fork
    calls = []

    def fork_once():
        calls.append(1)
        if len(calls) > 1:
            raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
        return real_fork()

    monkeypatch.setattr(os, "fork", fork_once)
    assert run_sweep(spec) == serial
    assert len(calls) == 2
    assert_no_child()


@pytest.mark.parametrize("case", ["one-trial", "no-fork", "second-thread"])
def test_sweep_stays_serial(case, monkeypatch, rows_here):
    spec = dict(kind="drp-ratio", sizes=(2, 3), trials=4, seed=5)
    set_cpus(monkeypatch, 1)
    if case == "one-trial":
        spec["trials"] = 1
    serial = run_sweep(SweepSpec(**spec))
    set_cpus(monkeypatch, 3)
    attempts = []

    def fork():
        attempts.append(1)
        raise OSError(errno.EAGAIN, "no fork expected")

    monkeypatch.setattr(os, "fork", fork)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(10,))
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    elif case == "second-thread":
        thread.start()
    rows_here.clear()
    try:
        assert run_sweep(SweepSpec(**spec)) == serial
        assert attempts == []
        assert len(rows_here) == 2 * spec["trials"]  # each row ran once, here
    finally:
        release.set()
        if thread.is_alive():
            thread.join(10)
    assert not thread.is_alive()


def test_usable_cpus_follow_the_affinity_mask(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        assert bench._usable_cpus() == len(os.sched_getaffinity(0))
        monkeypatch.delattr(os, "sched_getaffinity")
    assert bench._usable_cpus() == (os.cpu_count() or 1)
