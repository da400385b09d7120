"""End-to-end benchmark of the parcost command line.

Closed loop, one client: each request is a fresh ``python -m parcost.cli``
process (two processes joined by a pipe for pipelines), sent only after the
previous one finished, so nothing ever queues and there is no wait-time
metric. A round sends a workload's fixed request list once and takes about
NOMINAL_ROUND_S; a run sends round(seconds / NOMINAL_ROUND_S) rounds.

    python3 perfbench/run.py --workload plan-large --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, one after another

With ``--trace 0`` the last stdout line carries the end-to-end metrics; with
``--trace 1`` rounds alternate untraced/traced (perfbench/traced_cli.py) and
it carries the per-module metrics. Every output is checked: the SHA-256 of
each request's stdout at the default seed (golden.json) and independent
recomputations on any seed (checks.py). Run from the repository root; the
program is taken from ``src/``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
from collections import Counter, defaultdict
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import checks
from traced_cli import SPAN_NAMES
from workloads import WORKLOADS, Request

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden.json"
TRACED_CLI = HERE / "traced_cli.py"

DEFAULT_SEED = 1
# each workload's round is sized to take about this long on a 2-core x86 VM
NOMINAL_ROUND_S = 10
# no-op starts timed before each round; setup_s is the median of all of them
SETUP_SAMPLES_PER_ROUND = 7
REQUEST_TIMEOUT_S = 60
TAIL_BEYOND = 10
NOOP = "import parcost.cli as cli; cli.build_parser()"
COUNTER_NAMES = ("drp.exact_search_size", "gopsort.guard_work", "iosim.total_io",
                 "iosim.mm_iterations", "bench.sweep_rows", "bench.sweep_skipped_rows",
                 "bench.sweep_out_of_bound_rows")


@dataclass
class Execution:
    """One request as sent: its latency, exit state, stdout and rusage.

    The stdout stays in its file until the checks read it, so the harness
    holds no output while requests run.
    """

    request: Request
    latency: float
    exit_code: int
    timed_out: bool
    stdout_path: Path
    stdout_bytes: int
    max_rss_kb: int
    cpu_s: float
    stderr: str

    @cached_property
    def stdout(self) -> bytes:
        return self.stdout_path.read_bytes()

    @property
    def sha(self) -> str:
        import hashlib  # 3.5 MB of RSS: kept out of the harness until the checks
        return hashlib.sha256(self.stdout).hexdigest()


class Round(NamedTuple):
    """One pass over the request list; ``spans`` is (self_s, calls) when traced."""

    wall_s: float
    executions: list[Execution]
    spans: tuple[Counter, Counter] | None


def _reap(proc: subprocess.Popen):
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage


def send(request: Request, input_path: Path | None, env: dict, work: Path,
         out_path: Path, spans_path: Path | None) -> Execution:
    """Run one request to completion and measure it from the client side.

    The last process writes its stdout to ``out_path``.
    """
    err_paths = [work / f"stderr-{k}.txt" for k in range(len(request.stages))]
    procs = []
    start = perf_counter()
    upstream = None
    for k, argv in enumerate(request.stages):
        argv = list(argv)
        if k == 0 and input_path is not None:
            argv += ["--input", str(input_path)]
        proc_env = env
        if spans_path is not None:
            cmd = [sys.executable, str(TRACED_CLI), *argv]
            proc_env = dict(env, PERFBENCH_REQUEST=request.id,
                            PERFBENCH_SPANS=f"{spans_path}-{k}.json")
        else:
            cmd = [sys.executable, "-m", "parcost.cli", *argv]
        last = k == len(request.stages) - 1
        with open(err_paths[k], "wb") as err, open(out_path, "wb") as out:
            proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL if upstream is None else upstream,
                                    stdout=out if last else subprocess.PIPE, stderr=err,
                                    env=proc_env)
        if upstream is not None:
            upstream.close()
        upstream = proc.stdout
        procs.append(proc)
    timed_out = threading.Event()

    def kill_all():
        timed_out.set()
        for proc in procs:
            proc.kill()

    timer = threading.Timer(REQUEST_TIMEOUT_S, kill_all)
    timer.start()
    try:
        reaped = [_reap(proc) for proc in procs]
    finally:
        timer.cancel()
    latency = perf_counter() - start
    exit_code = next((code for code, _ in reaped if code != 0), 0)
    stderr = ""
    if exit_code != 0 or timed_out.is_set():
        stderr = " | ".join(p.read_text(errors="replace").strip() for p in err_paths)
    return Execution(request, latency, exit_code, timed_out.is_set(), out_path,
                     out_path.stat().st_size,
                     max(usage.ru_maxrss for _, usage in reaped),
                     sum(usage.ru_utime + usage.ru_stime for _, usage in reaped), stderr)


def setup(workload: str, seed: int, work: Path, env: dict):
    """Write the workload's instances and compile the program's bytecode."""
    instances, requests = WORKLOADS[workload](seed)
    subprocess.run([sys.executable, str(HERE / "gen.py"), workload, str(seed), str(work)],
                   check=True)
    paths = {name: work / f"{name}.json" for name in instances}
    # the first start compiles bytecode into src/; users of an installed
    # package never pay that, so it is not sampled
    subprocess.run([sys.executable, "-c", NOOP], env=env, check=True)
    return paths, requests


def cold_starts(env: dict, count: int) -> list[float]:
    """Time ``count`` no-op CLI starts: interpreter, import, build_parser()."""
    samples = []
    for _ in range(count):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", NOOP], env=env, check=True)
        samples.append(perf_counter() - start)
    return samples


def own_peak_rss_mb() -> float:
    """VmHWM of this process: the floor of every child's ru_maxrss."""
    status = Path("/proc/self/status").read_text()
    return int(status.split("VmHWM:")[1].split()[0]) / 1024


def merge_spans(files) -> tuple[Counter, Counter]:
    """Sum self time (span time minus its child spans) and calls per span name."""
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for path in files:
        spans = json.loads(path.read_text())["spans"]
        own = [end - start for _, start, end, _ in spans]
        for name, start, end, parent in spans:
            if parent >= 0:
                own[parent] -= end - start
        for (name, *_), t in zip(spans, own):
            self_s[name] += t
            calls[name] += 1
    return self_s, calls


def verify(workload: str, seed: int, executions, paths: dict, record: bool):
    """Mark failed executions; return (failed flags, per-round counters)."""
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    pinned = golden.get(workload, {}) if seed == DEFAULT_SEED and not record else None
    first: dict = {}
    for ex in executions:
        first.setdefault(ex.request.id, ex)
    verdict: dict = {}
    facts: dict = {}
    counters: Counter = Counter()
    for rid, ex in first.items():
        if ex.exit_code != 0 or ex.timed_out:
            continue
        try:
            inst = ex.request.instance
            fact, counted = checks.check(ex.request, ex.stdout.decode(),
                                         inst and json.loads(paths[inst].read_text()))
        except (checks.CheckError, ValueError, KeyError, IndexError, TypeError) as exc:
            verdict[rid] = f"check failed: {exc!r}"
            continue
        facts[rid] = fact
        counters.update(counted)
        if pinned is not None and pinned.get(rid) != ex.sha:
            verdict[rid] = "stdout differs from the SHA-256 pinned at the default seed"
    verdict.update(checks.check_pairs(facts))
    failed = []
    for ex in executions:
        why = verdict.get(ex.request.id)
        if ex.timed_out:
            why = f"timed out after {REQUEST_TIMEOUT_S} s"
        elif ex.exit_code != 0:
            why = f"exit {ex.exit_code}: {ex.stderr[:300]}"
        elif ex.sha != first[ex.request.id].sha:
            why = "stdout differs between rounds"
        failed.append(why is not None)
        if why is not None:
            print(f"FAILED {ex.request.id}: {why}", file=sys.stderr)
    if record and not any(failed):
        golden[workload] = {rid: ex.sha for rid, ex in sorted(first.items())}
        GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
        print(f"recorded {len(first)} hashes for {workload} in {GOLDEN}", file=sys.stderr)
    return failed, counters


def tail(latencies) -> tuple[float, float, int]:
    """Latency at the highest percentile leaving >= TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0, n
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def round_count(seconds: int, trace: bool) -> int:
    """Rounds in a run: a fixed count for a given --seconds, so that every run
    has the same samples and req_tail_s the same percentile, however fast
    the host is at the moment. Traced runs alternate untraced and traced
    rounds and need one of each."""
    return max(2 if trace else 1, round(seconds / NOMINAL_ROUND_S))


def run_workload(workload: str, seed: int, seconds: int, trace: bool, record: bool) -> dict:
    work = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    try:
        paths, requests = setup(workload, seed, work, env)
        input_bytes = sum(paths[r.instance].stat().st_size
                          for r in requests if r.instance is not None)
        rounds = []
        starts: list[float] = []
        for k in range(round_count(seconds, trace)):
            # spread over the run, so no single slow moment sets setup_s
            starts += cold_starts(env, SETUP_SAMPLES_PER_ROUND)
            span_dir = work / f"spans-{k}" if trace and k % 2 == 1 else None
            if span_dir:
                span_dir.mkdir()
            start = perf_counter()
            executions = [send(r, paths.get(r.instance), env, work, work / f"out-{k}-{i}",
                               span_dir / str(i) if span_dir else None)
                          for i, r in enumerate(requests)]
            wall = perf_counter() - start
            rounds.append(Round(wall, executions,
                                merge_spans(span_dir.iterdir()) if span_dir else None))
        # every request process started with at least this as its ru_maxrss
        harness_rss_mb = own_peak_rss_mb()
        all_executions = [ex for r in rounds for ex in r.executions]
        failed, counters = verify(workload, seed, all_executions, paths, record)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # left when another run still uses it
            work.parent.rmdir()

    plain = [r for r in rounds if r.spans is None]
    plain_execs = [ex for r in plain for ex in r.executions]
    wall_s = statistics.median(r.wall_s for r in plain)
    latencies = [ex.latency for ex in plain_execs]
    tail_s, tail_pct, samples = tail(latencies)
    errors = sum(ex.exit_code != 0 or ex.timed_out for ex in all_executions)
    result = {"correct": not any(failed), "attempted": len(all_executions),
              "failed": sum(failed)}
    print(f"== {workload}: seed {seed}, {len(rounds)} rounds of {len(requests)} requests, "
          f"{len(plain)} untraced", flush=True)
    if not trace:
        metrics = {
            "wall_s": (wall_s, "s"),
            "req_p50_s": (statistics.median(latencies), "s"),
            "req_tail_s": (tail_s, "s"),
            "setup_s": (statistics.median(starts), "s"),
            "peak_rss_mb": (max(ex.max_rss_kb for ex in plain_execs) / 1024, "MB"),
        }
        for name, (value, unit) in metrics.items():
            print(f"{workload} {name} = {value:.4f} {unit}")
        print(f"{workload} req_tail_s is p{tail_pct:.1f} of {samples} request latencies")
        print(f"{workload} setup_s is the median of {len(starts)} no-op starts")
        print(f"{workload} peak_rss_mb floor (the harness's own max RSS) = "
              f"{harness_rss_mb:.4f} MB")
        print(f"{workload} fail_ratio = {sum(failed)}/{len(all_executions)} "
              f"= {sum(failed) / len(all_executions):.4f}")
    else:
        traced_rounds = [r for r in rounds if r.spans is not None]
        self_s: Counter = Counter()
        calls: Counter = Counter()
        for r in traced_rounds:
            self_s.update(r.spans[0])
            calls.update(r.spans[1])
        k = len(traced_rounds)
        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.self_s"] = (self_s[name] / k, "s")
            metrics[f"{name}.calls"] = (calls[name] // k, "count")
        metrics["cli.input_bytes"] = (input_bytes, "bytes")
        metrics["cli.output_bytes"] = (
            statistics.median(sum(ex.stdout_bytes for ex in r.executions) for r in plain),
            "bytes")
        metrics["cli.cpu_s"] = (
            statistics.median(sum(ex.cpu_s for ex in r.executions) for r in plain), "s")
        metrics["cli.errors"] = (errors / len(rounds), "count")
        for name in COUNTER_NAMES:
            metrics[name] = (counters[name], "count")
        metrics["trace.overhead_s"] = (
            statistics.fmean(r.wall_s for r in traced_rounds) - wall_s, "s")
        total = sum(self_s.values()) / k
        modules = defaultdict(float)
        for name, t in self_s.items():
            modules[name.split(".")[0]] += t / k
        shares = ", ".join(f"{m} {t / total:.1%}" for m, t in
                           sorted(modules.items(), key=lambda kv: -kv[1]))
        print(f"{workload} traced self time per round {total:.3f} s: {shares}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in metrics.items()}
    return result


def main() -> int:
    if not sys.flags.no_site:
        # a child process starts with this process's peak RSS as the floor of
        # its ru_maxrss. Restart in a fresh address space without
        # site-packages, importing this file so that its cached bytecode is
        # used rather than compiled again, to keep that floor low
        entry = f"import sys; sys.path.insert(0, {str(HERE)!r}); import run; sys.exit(run.main())"
        os.execv(sys.executable, [sys.executable, "-S", "-c", entry, *sys.argv[1:]])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-golden", action="store_true",
                        help="pin the stdout hashes of this run (default seed only)")
    args = parser.parse_args()
    if not (SRC / "parcost" / "cli.py").is_file():
        print(f"perfbench: no program to measure, {SRC / 'parcost'} is missing",
              file=sys.stderr)
        return 2
    if args.seconds < 1 or (args.record_golden and args.seed != DEFAULT_SEED):
        parser.error("--seconds must be >= 1; --record-golden needs the default seed")
    if args.workload == "all":
        # one process per workload, so no workload's set-up or checks raise
        # the floor of the next one's peak_rss_mb
        for name in WORKLOADS:
            argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                    "--seconds", str(args.seconds), "--trace", str(args.trace)]
            subprocess.run(argv + ["--record-golden"] * args.record_golden, check=True)
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace),
                          args.record_golden)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
