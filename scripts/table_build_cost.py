#!/usr/bin/env python3
"""Table-engine build cost against the size of the structure.

Usage: PYTHONPATH=src python scripts/table_build_cost.py

For each size, one random graph (vertex weight 2, edge weight 1, 1.5 edges
per vertex) gets its three subset-lattice passes timed apart, best of five:
the delta table, the lattice build of ``dim_table_cached`` (least and
greatest minimizers, with the delta table already built) and
``enumerate_msa_pairs(max_new=4)`` run to the end.  The msa enumeration is
capped at ``MSA_PAIR_CAP`` vertices; above it the column reads ``-``.
"""

import itertools
import random
import time

from predimlab import graph
from predimlab.closures import delta_table, dim_table_cached
from predimlab.extensions import MSA_PAIR_CAP, enumerate_msa_pairs

SIZES = (8, 12, 16, 20)
SEED = 5
REPEATS = 5


def best_ms(fn) -> float:
    best = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best * 1e3


def main() -> None:
    print("vertices  delta_ms  lattice_ms  msa_pairs_ms  msa_pairs")
    for n in SIZES:
        rng = random.Random(SEED)
        edges = rng.sample(list(itertools.combinations(range(n), 2)), int(1.5 * n))
        S = graph(edges, vertices=range(n))
        delta_ms = best_ms(lambda: delta_table.__wrapped__(S))
        delta_table(S)  # the lattice build and the enumeration read the cached table
        lattice_ms = best_ms(lambda: dim_table_cached.__wrapped__(S))
        if n <= MSA_PAIR_CAP:
            pairs = len(list(enumerate_msa_pairs(S, max_new=4)))
            msa = f"{best_ms(lambda: list(enumerate_msa_pairs(S, max_new=4))):12.2f}  {pairs:9d}"
        else:
            msa = f"{'-':>12}  {'-':>9}"
        print(f"{n:8d}  {delta_ms:8.2f}  {lattice_ms:10.2f}  {msa}")


if __name__ == "__main__":
    main()
