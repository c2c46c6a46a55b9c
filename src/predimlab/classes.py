"""Membership checkers for the amalgamation classes and the control function.

C0 holds the structures whose every subset has nonnegative predimension;
Cf strengthens the bound to an exact-rational control function of the subset
size; Kn is the generalized-polygon class (bipartite, cycle conditions).

C0 membership is decided exactly at any scale through the flow engine.
Cf membership is exhaustive below a size cap; above it the verdict can be
PARTIAL: a budgeted enumeration of connected subsets plus seeded random
subsets, never reported as a positive certificate.  All comparisons against
the control function use exact rationals.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Optional

from .closures import _solve, delta_table
from .errors import InputError
from .reports import FAIL, PARTIAL, PASS
from .structures import BIPARTITE, FiniteStructure, co_instance_neighbors, delta_mask

DEFAULT_CF_EXHAUSTIVE_CAP = 18
DEFAULT_CONN_SIZE = 18
DEFAULT_CONN_BUDGET = 200_000
DEFAULT_SAMPLES = 1000


class ControlFunction:
    """Exact-rational control function with f(0) = 0 and f(1) = n.

    Values extend on demand by an increment rule; the default family adds
    1/(k-1) at step k, the slow family half of that.  Both satisfy the
    discrete goodness conditions: positive, non-increasing increments never
    exceeding 1/(k-1).
    """

    def __init__(self, n: int, name: str, increment: Callable[[int], Fraction]):
        if n < 1:
            raise InputError(f"control anchor n must be positive, got {n}")
        self.n = n
        self.name = name
        self._increment = increment
        self._values: list[Fraction] = [Fraction(0), Fraction(n)]

    @classmethod
    def harmonic(cls, n: int) -> "ControlFunction":
        return cls(n, "harmonic", lambda k: Fraction(1, k - 1))

    @classmethod
    def half_harmonic(cls, n: int) -> "ControlFunction":
        return cls(n, "half-harmonic", lambda k: Fraction(1, 2 * (k - 1)))

    def increment(self, k: int) -> Fraction:
        if k < 2:
            raise InputError("increments are defined for k >= 2")
        return self._increment(k)

    def __call__(self, k: int) -> Fraction:
        if k < 0:
            raise InputError(f"control function argument must be >= 0, got {k}")
        while len(self._values) <= k:
            j = len(self._values)
            self._values.append(self._values[-1] + self._increment(j))
        return self._values[k]

    def validate(self, up_to: int = 64) -> None:
        """Check the goodness conditions on the tabulated range; raise if broken."""
        prev = None
        for k in range(2, up_to + 1):
            inc = self.increment(k)
            if inc <= 0:
                raise InputError(f"{self.name}: increment at {k} not positive")
            if inc > Fraction(1, k - 1):
                raise InputError(f"{self.name}: increment at {k} exceeds 1/(k-1)")
            if prev is not None and inc > prev:
                raise InputError(f"{self.name}: increments not non-increasing at {k}")
            prev = inc
        for x in range(0, up_to):
            step = self(x + 1) - self(x)
            for y in range(0, up_to - x):
                if self(x + y) > self(x) + y * step:
                    raise InputError(f"{self.name}: concavity surrogate fails at ({x},{y})")

    def __repr__(self):
        return f"ControlFunction({self.name}, n={self.n})"

    def __eq__(self, other):
        return (
            isinstance(other, ControlFunction)
            and (self.name, self.n) == (other.name, other.n)
        )

    def __hash__(self):
        return hash((self.name, self.n))


def make_control(name: str, n: int) -> ControlFunction:
    if name == "harmonic":
        return ControlFunction.harmonic(n)
    if name == "half-harmonic":
        return ControlFunction.half_harmonic(n)
    raise InputError(f"unknown control function family {name!r}")


@dataclass(frozen=True)
class MembershipResult:
    verdict: str  # PASS / FAIL / PARTIAL
    witness: Optional[frozenset[int]] = None
    margin: Optional[Fraction] = None  # delta(witness) - bound at the witness
    detail: str = ""
    checked: int = 0

    @property
    def holds(self) -> bool:
        return self.verdict == PASS

    def __bool__(self):
        return self.holds


# -- C0 -------------------------------------------------------------------------


def in_C0(S: FiniteStructure) -> MembershipResult:
    """Exact at every scale: the global minimum of delta is a min-cut."""
    val, minimal, _ = _solve(S, 0)
    if val >= 0:
        return MembershipResult(PASS, margin=Fraction(val), checked=1)
    wit = S.ids_of(minimal)
    return MembershipResult(FAIL, witness=wit, margin=Fraction(val))


# -- Cf -------------------------------------------------------------------------


def _connected_subsets(
    S: FiniteStructure, max_size: int, budget: int
) -> Iterable[frozenset[int]]:
    """Connected subsets (by shared instances), deduplicated, budget-limited."""
    adj = co_instance_neighbors(S)
    produced = 0
    order = {v: i for i, v in enumerate(S.vertices)}
    for root in S.vertices:
        # enumerate connected sets whose minimum vertex is root
        stack = [(frozenset([root]), frozenset(w for w in adj[root] if order[w] > order[root]))]
        while stack:
            current, frontier = stack.pop()
            yield current
            produced += 1
            if produced >= budget:
                return
            if len(current) >= max_size:
                continue
            frontier_list = sorted(frontier)
            for i, w in enumerate(frontier_list):
                new_frontier = frozenset(frontier_list[i + 1 :]) | frozenset(
                    u for u in adj[w] if order[u] > order[root] and u not in current
                )
                stack.append((current | {w}, new_frontier - current))


def in_Cf(
    S: FiniteStructure,
    f: ControlFunction,
    exhaustive_cap: int = DEFAULT_CF_EXHAUSTIVE_CAP,
    conn_size: int = DEFAULT_CONN_SIZE,
    conn_budget: int = DEFAULT_CONN_BUDGET,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MembershipResult:
    n = len(S.vertices)
    if n <= exhaustive_cap:
        dtab = delta_table(S)
        best = None  # (size, mask) of a violating subset
        for mask in range(1 << n):
            k = mask.bit_count()
            if Fraction(int(dtab[mask])) < f(k):
                cand = (k, mask)
                if best is None or cand < best:
                    best = cand
        if best is None:
            c0 = in_C0(S)
            if not c0.holds:  # f >= 0 makes this unreachable; assert the implication
                return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin,
                                        detail="delta bound holds but C0 fails")
            return MembershipResult(PASS, checked=1 << n)
        wmask = best[1]
        margin = Fraction(delta_mask(S, wmask)) - f(best[0])
        return MembershipResult(FAIL, witness=S.ids_of(wmask), margin=margin,
                                checked=1 << n)

    # Above the cap: C0 stays exact; the f-bound is sampled.
    c0 = in_C0(S)
    if not c0.holds:
        return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin)
    violations: list[tuple[int, int]] = []
    checked = 0
    for sub in _connected_subsets(S, conn_size, conn_budget):
        mask = S.mask_of(sub)
        checked += 1
        if Fraction(delta_mask(S, mask)) < f(len(sub)):
            violations.append((len(sub), mask))
    rng = random.Random(seed)
    verts = list(S.vertices)
    for _ in range(samples):
        k = rng.randint(1, n)
        sub = rng.sample(verts, k)
        mask = S.mask_of(sub)
        checked += 1
        if Fraction(delta_mask(S, mask)) < f(k):
            violations.append((k, mask))
    if violations:
        best = min(violations)
        margin = Fraction(delta_mask(S, best[1])) - f(best[0])
        return MembershipResult(FAIL, witness=S.ids_of(best[1]), margin=margin,
                                checked=checked)
    return MembershipResult(
        PARTIAL,
        checked=checked,
        detail=(
            f"size {n} exceeds exhaustive cap {exhaustive_cap}; "
            f"checked {checked} subsets (connected <= {conn_size} within budget "
            f"{conn_budget}, plus {samples} seeded random); not a certificate"
        ),
    )


# -- girth and Kn -----------------------------------------------------------------


def girth(S: FiniteStructure) -> float:
    """Length of a shortest cycle via BFS from every vertex; inf for forests."""
    g, _ = girth_with_witness(S)
    return g


def girth_with_witness(S: FiniteStructure) -> tuple[float, Optional[frozenset[int]]]:
    adj = S.adjacency()
    best = math.inf
    witness = None
    for root in S.vertices:
        dist = {root: 0}
        parent = {root: None}
        queue = [root]
        qi = 0
        while qi < len(queue):
            u = queue[qi]
            qi += 1
            if dist[u] * 2 >= best:
                break
            for w in adj[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent.get(u) != w and parent.get(w) != u:
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
                        path = set()
                        for start in (u, w):
                            x = start
                            while x is not None:
                                path.add(x)
                                x = parent[x]
                        witness = frozenset(path)
    return best, witness


def _simple_cycles_longer_than(
    S: FiniteStructure, length: int, budget: int
) -> tuple[list[frozenset[int]], bool]:
    """All simple cycles of length > ``length``; second value means complete."""
    adj = S.adjacency()
    cycles: list[frozenset[int]] = []
    steps = 0
    verts = list(S.vertices)
    order = {v: i for i, v in enumerate(verts)}
    complete = True
    for root in verts:
        stack = [(root, [root], {root})]
        while stack:
            u, path, onpath = stack.pop()
            steps += 1
            if steps > budget:
                return cycles, False
            for w in sorted(adj[u]):
                if order[w] < order[root]:
                    continue
                if w == root and len(path) >= 3:
                    if len(path) > length and path[1] < path[-1]:
                        cycles.append(frozenset(path))
                elif w not in onpath:
                    stack.append((w, path + [w], onpath | {w}))
    return cycles, complete


def in_Kn(
    S: FiniteStructure,
    ngon: int,
    cycle_budget: int = 2_000_000,
) -> MembershipResult:
    """Generalized-polygon class: girth and long-cycle predimension conditions."""
    if ngon < 3:
        raise InputError(f"ngon must be >= 3, got {ngon}")
    if S.signature.mode != BIPARTITE:
        raise InputError("Kn membership needs a bipartite-mode structure")
    c0 = in_C0(S)
    if not c0.holds:
        return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin,
                                detail="not in C0")
    if len(S.vertices):
        g, cyc = girth_with_witness(S)
        if g < 2 * ngon:
            return MembershipResult(FAIL, witness=cyc,
                                    detail=f"cycle of length {int(g)} < {2 * ngon}")
    long_cycles, complete = _simple_cycles_longer_than(S, 2 * ngon, cycle_budget)
    bound = 2 * ngon + 2
    for cyc in long_cycles:
        val, minimal, _ = _solve(S, S.mask_of(cyc))
        if val < bound:
            return MembershipResult(
                FAIL,
                witness=S.ids_of(minimal),
                margin=Fraction(val - bound),
                detail=f"subset over a {len(cyc)}-cycle has delta {val} < {bound}",
            )
    if not complete:
        return MembershipResult(PARTIAL,
                                detail=f"cycle enumeration budget {cycle_budget} hit")
    return MembershipResult(PASS, checked=len(long_cycles) + 1)
