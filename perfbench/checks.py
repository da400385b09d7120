"""Independent checks on CLI outputs, and the counters read off them.

Nothing here imports parcost: every check recomputes what it can from the
instance the benchmark generated and the bytes the program printed, so a
speed-up that changes an answer fails the run on any seed, not only on the
seed whose output hashes are pinned in golden.json.
"""

from __future__ import annotations

import csv
import io
import json
import math
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from itertools import permutations

FLOAT_TOL = 1e-9
IO_LABELS = {"super-io-optimal", "io-optimal", "non-io-optimal", "inconclusive"}
# a correct program reports some gop-ratio rows above max(cost ratio, 2):
# at p=3 and costs 1..10, 10.6% of instances at n=4, 1.5% at n=6, 0.4% at
# n=8 and at most 0.07% at n=10..18 (10,000 random instances per size). A
# sweep fails when more than this share of its rows is out of bound; the
# benchmark's 320-row sweeps average 5 such rows
GOP_OUT_OF_BOUND_SHARE = Fraction(1, 16)


class CheckError(Exception):
    """An output that contradicts its instance or a model invariant."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FLOAT_TOL * max(1.0, abs(a), abs(b))


def io_sort_count(records: int, memory: int) -> int:
    """README model: 0, N if it fits, else N * ceil(log_M N)."""
    if records <= memory:
        return records
    passes, reach = 1, memory
    while reach < records:
        reach *= memory
        passes += 1
    return records * passes


def _permutation(mapping, p: int) -> None:
    _require(sorted(mapping) == list(range(1, p + 1)),
             f"mapping {mapping} is not a permutation of 1..{p}")


def _drp_cost(transfer, cost, mapping) -> int:
    return sum(t * cost[i][mapping[j] - 1]
               for i, row in enumerate(transfer) for j, t in enumerate(row))


def _ratio_bound(cost) -> Fraction:
    off = [c for i, row in enumerate(cost) for j, c in enumerate(row) if i != j]
    return Fraction(max(off), min(off))


def _tour_optimum(weights) -> int:
    """Minimum Hamiltonian cycle of K_{n,n}: left order with vertex 1 first,
    right vertices in the gaps."""
    n = len(weights)
    best = None
    for rest in permutations(range(1, n)):
        left = (0, *rest)
        for right in permutations(range(n)):
            w = sum(weights[left[k]][right[k]] + weights[left[(k + 1) % n]][right[k]]
                    for k in range(n))
            best = w if best is None or w < best else best
    return best


def _sort_io(loads) -> float:
    return max((L * math.log2(L) for L in loads if L > 1), default=0.0)


def _check_gop(out: dict, inst: dict) -> None:
    p, subsets, cost = inst["p"], inst["subsets"], inst["cost"]
    splitters, mapping = out["splitters"], out["mapping"]
    values = {v for s in subsets for v in s}
    _require(len(splitters) == p - 1, f"{len(splitters)} splitters for p={p}")
    _require(all(a < b for a, b in zip(splitters, splitters[1:])),
             f"splitters {splitters} not ascending")
    _require(all(s in values for s in splitters), "a splitter is not an instance element")
    _permutation(mapping, p)
    counts = [[0] * p for _ in range(p)]
    for i, subset in enumerate(subsets):
        row = counts[i]
        for value in subset:
            row[bisect_left(splitters, value)] += 1
    comm = _drp_cost(counts, cost, mapping)
    io_term = _sort_io([sum(col) for col in zip(*counts)])
    _require(out["comm_cost"] == comm, f"comm_cost {out['comm_cost']} != {comm}")
    _require(_close(out["io_cost"], io_term), f"io_cost {out['io_cost']} != {io_term}")
    _require(_close(out["total_cost"], comm + io_term),
             f"total_cost {out['total_cost']} != {comm + io_term}")


def _flags(argv) -> dict:
    return {argv[k][2:]: argv[k + 1] for k in range(1, len(argv) - 1)
            if argv[k].startswith("--")}


def _check_sweep(argv, text: str, counters: Counter) -> None:
    flags = _flags(argv)
    kind = flags["kind"]
    sizes = [int(s) for s in flags["sizes"].split(",")]
    trials = int(flags.get("trials", 1))
    table = list(csv.reader(io.StringIO(text)))
    header, rows, summary = table[0], table[1:-1], dict(zip(table[0], table[-1]))
    _require(len(rows) == len(sizes) * trials,
             f"{len(rows)} rows, expected {len(sizes) * trials}")
    _require(summary.get("trial") == "summary", "last row is not the summary")
    solved = out_of_bound = 0
    for cells in rows:
        row = dict(zip(header, cells))
        if row["status"] == "skipped":
            counters["bench.sweep_skipped_rows"] += 1
            continue
        _require(row["status"] == "ok", f"row status {row['status']!r}")
        counters["bench.sweep_rows"] += 1
        solved += 1
        if kind == "drp-ratio":
            p = int(row["p"])
            counters["drp.exact_search_size"] += math.factorial(p)
            _require(row["within_bound"] == "yes", f"drp-ratio row {cells} out of bound")
            _require(Fraction(row["exact_cost"]) <= Fraction(row["approx_cost"]),
                     f"drp-ratio row {cells}: exact > approx")
        elif kind == "gop-ratio":
            n, p = int(row["n"]), int(row["p"])
            counters["gopsort.guard_work"] += math.comb(n, p - 1) * math.factorial(p)
            # within_bound is checked for its arithmetic here, and for its
            # share of "no" after the loop
            exact, approx = float(row["exact_total"]), float(row["approx_total"])
            ratio, bound = float(row["ratio"]), float(row["bound"])
            _require(exact <= approx + FLOAT_TOL * max(1.0, approx),
                     f"gop-ratio row {cells}: exact > approx")
            _require(exact == 0 or _close(ratio, approx / exact), f"gop-ratio row {cells}: ratio")
            within = ratio <= bound + FLOAT_TOL
            _require(row["within_bound"] == ("yes" if within else "no"),
                     f"gop-ratio row {cells}: within_bound disagrees with ratio and bound")
            out_of_bound += not within
        else:
            counters["iosim.total_io"] += int(row["parallel_io"])
            _require(int(row["parallel_io"]) > 0, f"{kind} row {cells}: no IO")
            if kind == "terasort-io":
                memory = int(flags.get("memory", 1000))
                _require(int(row["serial_io"]) == io_sort_count(int(row["n"]), memory),
                         f"terasort-io row {cells}: serial_io off the model")
            elif kind == "mst-io":
                n, m = int(row["n"]), int(row["m"])
                _require(m == math.isqrt(n ** 3), f"mst-io row {cells}: m != floor(n^1.5)")
                _require(int(row["parallel_io"]) <= int(row["analytic_io"]) == m * -(-m // n),
                         f"mst-io row {cells}: parallel_io above m*ceil(m/n)")
                _require(int(row["serial_io"]) == io_sort_count(m, n) + m,
                         f"mst-io row {cells}: serial_io off the model")
            elif kind == "mm-io":
                counters["iosim.total_io"] += int(row["serial_io"])
                counters["iosim.mm_iterations"] += int(row["iterations"])
                _require(row["parallel_io"] == row["serial_io"],
                         f"mm-io row {cells}: parallel IO != serial IO")
    if kind == "gop-ratio":
        counters["bench.sweep_out_of_bound_rows"] += out_of_bound
        _require(out_of_bound <= GOP_OUT_OF_BOUND_SHARE * solved,
                 f"{out_of_bound} of {solved} gop-ratio rows out of bound, "
                 f"more than {GOP_OUT_OF_BOUND_SHARE} of them")
    if kind in ("terasort-io", "mst-io", "mm-io"):
        _require(summary["classification"] in IO_LABELS,
                 f"summary classification {summary['classification']!r}")


def check(request, text: str, inst: dict | None) -> tuple[dict, Counter]:
    """Check one request's stdout against its instance.

    Returns the facts the pairwise checks need and the request's counters;
    raises CheckError when the output is wrong.
    """
    counters: Counter = Counter()
    command = request.command
    if command == "sweep":
        _check_sweep(request.stages[0], text, counters)
        return {}, counters
    out = json.loads(text)
    facts: dict = {}
    if request.stages[0][0] == "reduce-tspfb":
        n = inst["n"]
        _permutation(out["mapping"], n)
        optimum = _tour_optimum(inst["weights"])
        _require(out["cost"] >= optimum, f"reduced optimum {out['cost']} below tour optimum {optimum}")
        _require(n != 3 or out["cost"] == optimum, "n=3 reduction lost the tour optimum")
        counters["drp.exact_search_size"] += math.factorial(n)
    elif command in ("drp-exact", "drp-approx"):
        p = inst["p"]
        _permutation(out["mapping"], p)
        cost = _drp_cost(inst["transfer"], inst["cost"], out["mapping"])
        _require(out["cost"] == cost, f"cost {out['cost']} != recomputed {cost}")
        facts["cost"] = cost
        if command == "drp-approx":
            bound = _ratio_bound(inst["cost"])
            # the CLI prints a whole ratio as an int and any other as a float
            printed = out["ratio_bound"]
            _require(printed == bound if isinstance(printed, int) else _close(printed, float(bound)),
                     f"ratio_bound {printed} != {bound}")
            facts["bound"] = bound
        else:
            counters["drp.exact_search_size"] += math.factorial(p)
    elif command in ("gop-exact", "gop-approx"):
        _check_gop(out, inst)
        facts["total"] = out["total_cost"]
        if command == "gop-exact":
            n = sum(len(s) for s in inst["subsets"])
            counters["gopsort.guard_work"] += math.comb(n, inst["p"] - 1) * math.factorial(inst["p"])
    elif command == "validate":
        kind = "drp" if "transfer" in inst else "gop"
        _require(out == {"valid": True, "kind": kind}, f"validate said {out}")
    elif command == "sim-terasort":
        n = sum(len(s) for s in inst["subsets"])
        memory = int(_flags(request.stages[0])["memory"])
        _require(out["sorted"] is True, "terasort output is not sorted")
        _require(sum(ph["io_ops"] for ph in out["phases"]) == out["total_io"],
                 "terasort phase IO does not sum to total_io")
        _require(out["serial_io"] == io_sort_count(n, memory),
                 f"serial_io {out['serial_io']} off the model")
        counters["iosim.total_io"] += out["total_io"]
    elif command == "sim-mst-io":
        n, m = inst["n"], len(inst["edges"])
        _require(out["analytic_io"] == m * -(-m // n), "analytic_io != m*ceil(m/n)")
        _require(m <= out["parallel_io"] <= out["analytic_io"],
                 f"parallel_io {out['parallel_io']} outside [m, analytic_io]")
        _require(out["serial_io"] == io_sort_count(m, n) + m, "serial_io off the model")
        _require(_close(out["ratio"], out["parallel_io"] / out["serial_io"]), "ratio off")
        counters["iosim.total_io"] += out["parallel_io"]
    elif command == "sim-mm":
        serial, parallel = out["serial"], out["parallel"]
        _require(serial["total_io"] == parallel["total_io"], "serial IO != parallel IO")
        _require(out["max_vertex_load"] <= 1, f"max_vertex_load {out['max_vertex_load']} > 1")
        _require(out["iterations"] == len(serial["phases"]), "iterations != serial phases")
        _require(serial["phases"][0]["io_ops"] == len(inst["edges"]),
                 "first iteration does not scan every edge")
        counters["iosim.total_io"] += serial["total_io"] + parallel["total_io"]
        counters["iosim.mm_iterations"] += out["iterations"]
    else:
        raise CheckError(f"no check for command {command!r}")
    return facts, counters


def check_pairs(facts: dict) -> dict:
    """Cross-request checks on one instance solved exactly and approximately.

    ``facts`` maps request id to what ``check`` returned; the result maps
    each request id that broke a pairwise inequality to the reason.
    """
    broken = {}
    for rid, exact in facts.items():
        command, _, instance = rid.partition(":")
        if command not in ("drp-exact", "gop-exact"):
            continue
        partner = command.replace("exact", "approx") + ":" + instance
        approx = facts.get(partner)
        if approx is None:
            continue
        if command == "drp-exact":
            ok = exact["cost"] <= approx["cost"] <= approx["bound"] * exact["cost"]
            why = f"not exact {exact['cost']} <= approx {approx['cost']} <= bound*exact"
        else:
            ok = exact["total"] <= approx["total"] + FLOAT_TOL * max(1.0, approx["total"])
            why = f"exact total {exact['total']} > approx total {approx['total']}"
        if not ok:
            broken[rid] = broken[partner] = why
    return broken
