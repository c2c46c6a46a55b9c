#!/usr/bin/env python3
"""Flow-engine cost against the size of the structure.

Usage: PYTHONPATH=src python scripts/flow_query_cost.py

For each size, one sparse graph (vertex weight 2, edge weight 1, 1.3 edges
per vertex, a K4 planted on every twelfth vertex group of four) gets a fresh
network built five times, then 400 warm flow-engine queries of one to three
vertices, half of them inside a planted K4, asking in turn for ``dim``,
``cl0`` and ``cld``.  Prints the median build time and, per kind of query
(``dim``, the least minimizer ``cl0``, the greatest minimizer ``cld``), the
median time per query over seven passes, then the greatest-minimizer time
over the ``dim`` time.
"""

import itertools
import random
import statistics
import time

from predimlab import cl0, cld, dim, graph
from predimlab.closures import StructureFlowSolver

SIZES = (100, 1000, 2000, 4000)
SEED = 5
QUERIES = 400


def planted_graph(rng: random.Random, n: int):
    order = rng.sample(range(n), n)
    planted = [order[k : k + 4] for k in range(0, n // 12 * 4, 4)]
    edges = {tuple(sorted(p)) for q in planted for p in itertools.combinations(q, 2)}
    while len(edges) < int(1.3 * n):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph(sorted(edges), vertices=range(n)), planted


def main() -> None:
    print("vertices  build_ms  dim_us  least_us  greatest_us  greatest/dim")
    for n in SIZES:
        rng = random.Random(SEED)
        S, planted = planted_graph(rng, n)
        S.bit_index()  # cached on the structure, not part of a build
        builds = []
        for _ in range(5):
            t0 = time.perf_counter()
            StructureFlowSolver(S)
            builds.append(time.perf_counter() - t0)
        queries = []
        for k in range(QUERIES):
            pool = rng.choice(planted) if rng.random() < 0.5 else range(n)
            queries.append(((dim, cl0, cld)[k % 3], rng.sample(list(pool), rng.randint(1, 3))))
        for op, X in queries:
            op(S, X, engine="flow")  # builds the cached network
        passes = {op: [] for op in (dim, cl0, cld)}
        for _ in range(7):
            for op, times in passes.items():
                batch = [X for q, X in queries if q is op]
                t0 = time.perf_counter()
                for X in batch:
                    op(S, X, engine="flow")
                times.append((time.perf_counter() - t0) / len(batch))
        dim_us, least_us, greatest_us = (statistics.median(t) * 1e6 for t in passes.values())
        print(f"{n:8d}  {statistics.median(builds) * 1e3:8.1f}  "
              f"{dim_us:6.0f}  {least_us:8.0f}  {greatest_us:11.0f}  "
              f"{greatest_us / dim_us:12.2f}")


if __name__ == "__main__":
    main()
