#!/usr/bin/env python3
"""Chain-build time against the build's length.

Usage: PYTHONPATH=src python scripts/build_scaling.py

Runs the seed-0 ``c0`` max-pattern-4 build (vertex weight 2, edge weight 1,
as ``predimlab build --class c0 --max-pattern 4 --budget B``) at budgets
200, 400 and 800, three times each.  Prints for each budget the vertices
and steps of the approximant, its strongness queries (the exact flow
queries the build asks through ``builder._is_strong``, the same in every
run), the median seconds, and whether the build-log digest matches the
pinned one.  The queries column counts ``_is_strong`` calls only: the
d-closure queries a ``kn`` build asks of its bases through ``is_d_closed``
are not in it.  Then it prints the ratio of the budget-800 median to
the budget-400 median: about 2 when a step costs the same at any length,
about 4 when it costs in proportion to the structure.  The ratio's gate
is 2.5.  Then times the seed-0 ``kn`` ngon-3 max-pattern-4 build (as
``predimlab build --class kn --ngon 3 --max-pattern 4 --budget B``) at
budgets 200 and 400 the same way; it checks its class once, at the end.
Exits 1 when a digest differs from its pin, 0 otherwise.  The pins are
checked in the test suite too (``tests/test_builder.py``), one build each.
"""

import statistics
import sys
import time

from predimlab import BuildConfig, build_generic, builder, graph_signature, polygon_signature
from predimlab.builder import C0, KN

RUNS = 3
RATIO_GATE = 2.5
# build-log digests of the seed-0 builds by budget, the c0 ones pinned
# before the chain builds stopped rebuilding the structure at every step,
# the kn ones while every kn step still checked the class
PINNED = {
    C0: {
        200: "b9332c23c8c0c163df1519a8a4ba8fa715e37ba2f14ceb91f9cfcd5c7992b85d",
        400: "d2234bbf11f7de7899474fee3f4972da38013713e360fd0603213c00bfe76567",
        800: "ac2c38e477be4ce4830d3eeca5ea25c65b4bd2ddface4122d9f68264b108703e",
    },
    KN: {
        200: "13766b846821100b6ca3e001c681c280c41f77afca014536f2eaf5786ce22658",
        400: "6e58d20cdd857ed70308f719a5b56d40c2a5bcc11c32b4504beab9aabb02bb1f",
    },
}


def pinned_config(tag: str, budget: int) -> BuildConfig:
    """The seed-0 build whose log digest ``PINNED[tag][budget]`` pins."""
    if tag == C0:
        return BuildConfig(graph_signature(2, 1), C0, max_pattern=4, budget=budget, seed=0)
    return BuildConfig(polygon_signature(3), KN, max_pattern=4, budget=budget, seed=0, ngon=3)


def counted_build(config: BuildConfig):
    """The build's result and the number of strongness queries it asked."""
    real, calls = builder._is_strong, 0

    def counting(*args):
        nonlocal calls
        calls += 1
        return real(*args)

    builder._is_strong = counting
    try:
        return build_generic(config), calls
    finally:
        builder._is_strong = real


def main() -> int:
    medians, differs = {}, False
    for tag, pins in PINNED.items():
        print(f"{tag}\nbudget  vertices  steps  queries  seconds  digest")
        for budget, pin in pins.items():
            config = pinned_config(tag, budget)
            times = []
            for _ in range(RUNS):
                t0 = time.perf_counter()
                res, queries = counted_build(config)
                times.append(time.perf_counter() - t0)
            medians[tag, budget] = statistics.median(times)
            pinned = res.log.digest() == pin
            differs |= not pinned
            print(f"{budget:6d}  {len(res.structure.vertices):8d}  {len(res.log.steps):5d}  "
                  f"{queries:7d}  {medians[tag, budget]:7.2f}  "
                  f"{'pinned' if pinned else 'DIFFERS'}")
    ratio = medians[C0, 800] / medians[C0, 400]
    verdict = "meets" if ratio <= RATIO_GATE else "misses"
    print(f"c0 800/400 ratio: {ratio:.2f} ({verdict} the gate of {RATIO_GATE})")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
