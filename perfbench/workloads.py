"""The benchmark's workloads: the instances each one generates and the fixed
list of CLI requests one round sends, in order.

Every request stays inside the solver guards, so no request should fail.
Sizes are chosen so one round takes roughly run.NOMINAL_ROUND_S (10 s) on a
2-core x86 VM; perfbench/NOTES.md lists the measured mix.
"""

from __future__ import annotations

from dataclasses import dataclass

# C(40, 3) * 4!: the work of the largest gop-exact request, n=40 and p=4
GOP_GUARD = "237120"
# every gop-ratio size with p=3 that the sweep's default guard (1000) admits
GOP_RATIO_SIZES = "4,6,8,10,12,14,16,18"


@dataclass(frozen=True)
class Request:
    """One user request: a CLI process, or a pipeline of them joined by pipes.

    ``stages`` holds the argv after ``parcost`` for each process; the first
    stage reads the instance file named by ``instance`` when there is one.
    """

    id: str
    stages: tuple[tuple[str, ...], ...]
    instance: str | None = None

    @property
    def command(self) -> str:
        return self.stages[-1][0]


def _solve(command: str, instance: str, *flags: str) -> Request:
    return Request(f"{command}:{instance}", ((command, *flags),), instance)


def _sweep(name: str, kind: str, sizes: str, seed: int, *flags: str) -> Request:
    # the CLI takes 64-bit unsigned sweep seeds
    argv = ("sweep", "--kind", kind, "--sizes", sizes, "--seed", str(seed % 2 ** 64), *flags)
    return Request(f"sweep:{name}", (argv,))


def _pipeline(instance: str) -> Request:
    return Request(f"reduce-tspfb|drp-exact:{instance}",
                   (("reduce-tspfb",), ("drp-exact",)), instance)


def plan_large(seed: int):
    instances = {
        "drp200": ("drp", {"p": 200}),
        "drp100a": ("drp", {"p": 100}),
        "drp100b": ("drp", {"p": 100}),
        "drp9a": ("drp", {"p": 9}),
        "drp9b": ("drp", {"p": 9}),
        "drp9c": ("drp", {"p": 9}),
        "drp8a": ("drp", {"p": 8}),
        "drp8b": ("drp", {"p": 8}),
        "gop40": ("gop", {"n": 40, "p": 4}),
        "gop60a": ("gop", {"n": 60, "p": 3}),
        "gop60b": ("gop", {"n": 60, "p": 3}),
        "gop1e5": ("gop", {"n": 100_000, "p": 4}),
    }
    # the tail falls among the p=9 and n=40 exact solves, whose cost is
    # fixed by the search size rather than by the seed
    requests = [
        _solve("drp-approx", "drp200"),
        _solve("drp-exact", "drp9a"),
        _solve("drp-approx", "drp9a"),
        _solve("gop-exact", "gop40", "--guard", GOP_GUARD),
        _solve("gop-approx", "gop40"),
        _solve("drp-exact", "drp8a"),
        _solve("drp-approx", "drp8a"),
        _solve("drp-approx", "drp100a"),
        _solve("gop-exact", "gop60a", "--guard", GOP_GUARD),
        _solve("gop-approx", "gop60a"),
        _solve("drp-exact", "drp9b"),
        _solve("gop-approx", "gop1e5"),
        _solve("drp-exact", "drp9c"),
        _solve("gop-exact", "gop60b", "--guard", GOP_GUARD),
        _solve("drp-exact", "drp8b"),
        _solve("validate", "drp200"),
        _solve("drp-approx", "drp100b"),
        _solve("validate", "gop1e5"),
    ]
    return instances, requests


def plan_small(seed: int):
    instances = {f"tsp{n}": ("tspfb", {"n": n}) for n in (3, 4, 5, 6)}
    # the pipelines, two processes each, are the fastest requests and the
    # most sensitive to whether both cores are free; with 10 sweeps to 4
    # pipelines, the median and the tail both fall among the sweeps
    sweeps = [
        _sweep("drp-small-1", "drp-ratio", "2,3,4,5,6", seed, "--trials", "200"),
        _sweep("gop-ratio-1", "gop-ratio", GOP_RATIO_SIZES, seed, "--p", "3", "--trials", "40"),
        _sweep("drp-to-8-1", "drp-ratio", "2,3,4,5,6,7,8", seed, "--trials", "10"),
        _sweep("drp-small-2", "drp-ratio", "2,3,4,5,6", seed + 1, "--trials", "200"),
        _sweep("gop-ratio-2", "gop-ratio", GOP_RATIO_SIZES, seed + 1, "--p", "3", "--trials", "40"),
        _sweep("drp-7-8", "drp-ratio", "7,8", seed, "--trials", "15"),
        _sweep("drp-small-3", "drp-ratio", "2,3,4,5,6", seed + 2, "--trials", "200"),
        _sweep("gop-ratio-3", "gop-ratio", GOP_RATIO_SIZES, seed + 2, "--p", "3", "--trials", "40"),
        _sweep("drp-to-8-2", "drp-ratio", "2,3,4,5,6,7,8", seed + 1, "--trials", "10"),
        _sweep("drp-small-4", "drp-ratio", "2,3,4,5,6", seed + 3, "--trials", "200"),
    ]
    requests = []
    for n in (3, 4, 5, 6):
        requests.append(_pipeline(f"tsp{n}"))
        requests.extend(sweeps[(n - 3) * 5 // 2:(n - 2) * 5 // 2])
    return instances, requests


def io_sim(seed: int):
    instances = {
        **{f"tera1e5{t}": ("gop", {"n": 100_000, "p": 4}) for t in "abcd"},
        "tera2e4a": ("gop", {"n": 20_000, "p": 4}),
        "tera2e4b": ("gop", {"n": 20_000, "p": 4}),
        "mm300": ("graph", {"n": 300, "m": 1200}),
        "mst256a": ("graph", {"n": 256, "m": 4096}),
        "mst256b": ("graph", {"n": 256, "m": 4096}),
        "mst1024": ("graph", {"n": 1024, "m": 32768}),
        "mst2048a": ("graph", {"n": 2048, "m": 92681}),
        "mst2048b": ("graph", {"n": 2048, "m": 92681}),
    }
    # the median falls among the TeraSort runs and the tail among the
    # n=2048 MST runs, whose cost depends on n and m rather than the seed
    requests = [
        _solve("sim-terasort", "tera1e5a", "--memory", "1000"),
        _solve("sim-mm", "mm300"),
        _solve("sim-mst-io", "mst256a"),
        _sweep("terasort-io", "terasort-io", "1000,10000,100000", seed),
        _solve("sim-terasort", "tera1e5b", "--memory", "1000"),
        _solve("sim-terasort", "tera2e4a", "--memory", "1000"),
        _solve("sim-mst-io", "mst2048a"),
        _sweep("mm-io", "mm-io", "50,100,200", seed),
        _solve("sim-terasort", "tera1e5c", "--memory", "1000"),
        _solve("sim-terasort", "tera2e4b", "--memory", "1000"),
        _solve("sim-mst-io", "mst2048b"),
        _solve("sim-mst-io", "mst256b"),
        _sweep("mst-io", "mst-io", "64,256,1024", seed),
        _solve("sim-mst-io", "mst1024"),
        _solve("sim-terasort", "tera1e5d", "--memory", "1000"),
    ]
    return instances, requests


WORKLOADS = {"plan-large": plan_large, "plan-small": plan_small, "io-sim": io_sim}
