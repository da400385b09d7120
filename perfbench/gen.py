"""Seeded instance generator for the benchmark (stdlib only).

Writes instance JSON in the schemas the README documents, so the program
under test receives nothing but files. Every instance draws from its own
random stream, seeded by the benchmark seed and the instance name, so adding
or resizing one instance leaves the others unchanged.

    python3 perfbench/gen.py <workload> <seed> <directory>

run.py calls it as a separate process: a child started by the benchmark
inherits the benchmark's peak RSS as the floor of its own ``ru_maxrss``,
so the benchmark process must never hold the instances while requests run.
"""

from __future__ import annotations

import json
import random
import sys
from pathlib import Path

from workloads import WORKLOADS


def _rng(seed: int, name: str) -> random.Random:
    return random.Random(f"perfbench:{seed}:{name}")


def _cost(rng: random.Random, p: int, low: int = 1, high: int = 10) -> list[list[int]]:
    return [[0 if i == j else rng.randint(low, high) for j in range(p)]
            for i in range(p)]


def drp(rng: random.Random, p: int, mass_max: int = 20) -> dict:
    transfer = [[rng.randint(0, mass_max) for _ in range(p)] for _ in range(p)]
    return {"p": p, "transfer": transfer, "cost": _cost(rng, p)}


def gop(rng: random.Random, n: int, p: int) -> dict:
    values = rng.sample(range(1, 10 * n + 1), n)
    subsets: list[list[int]] = [[] for _ in range(p)]
    # the first p values go round-robin so that no machine starts empty
    for k, value in enumerate(values):
        subsets[k if k < p else rng.randrange(p)].append(value)
    return {"p": p, "subsets": subsets, "cost": _cost(rng, p)}


def graph(rng: random.Random, n: int, m: int, weight_max: int = 100) -> dict:
    if 3 * m > n * (n - 1) // 2:
        raise ValueError(f"graph n={n} m={m} is too dense for rejection sampling")
    seen: set[tuple[int, int]] = set()
    edges = []
    while len(edges) < m:
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        if u == v:
            continue
        pair = (u, v) if u < v else (v, u)
        if pair in seen:
            continue
        seen.add(pair)
        edges.append([pair[0], pair[1], rng.randint(1, weight_max)])
    return {"n": n, "edges": edges}


def tspfb(rng: random.Random, n: int, weight_max: int = 20) -> dict:
    return {"n": n, "weights": [[rng.randint(1, weight_max) for _ in range(n)]
                                for _ in range(n)]}


BUILDERS = {"drp": drp, "gop": gop, "graph": graph, "tspfb": tspfb}


def write_instance(path: Path, seed: int, name: str, kind: str, **sizes) -> int:
    """Generate instance ``name`` of ``kind`` at ``sizes``, write it to
    ``path`` and return the bytes written."""
    text = json.dumps(BUILDERS[kind](_rng(seed, name), **sizes), separators=(",", ":"))
    path.write_text(text, encoding="utf-8")
    return len(text.encode())


def main(workload: str, seed: int, directory: Path) -> None:
    instances, _ = WORKLOADS[workload](seed)
    for name, (kind, sizes) in instances.items():
        size = write_instance(directory / f"{name}.json", seed, name, kind, **sizes)
        shape = " ".join(f"{k}={v}" for k, v in sizes.items())
        print(f"instance {name}: {kind} {shape} {size} bytes", file=sys.stderr)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
