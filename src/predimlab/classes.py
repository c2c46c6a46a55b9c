"""Membership checkers for the amalgamation classes and the control function.

C0 holds the structures whose every subset has nonnegative predimension;
Cf strengthens the bound to an exact-rational control function of the subset
size; Kn is the generalized-polygon class (bipartite, cycle conditions).

C0 membership is decided exactly at any scale through the flow engine.
Cf membership is exhaustive below a size cap; above it the verdict can be
PARTIAL: a budgeted enumeration of connected subsets plus seeded random
subsets, never reported as a positive certificate.  Comparisons against the
control function stay exact without rationals: delta is an integer, so
delta(A) < f(k) exactly when delta(A) < ceil(f(k)), and each call tabulates
those integer thresholds once.  Only a reported margin is a rational.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .closures import _LEAST, _solve, delta_table, popcounts
from .errors import CapacityError, InputError
from .reports import FAIL, PARTIAL, PASS
from .structures import (
    BIPARTITE,
    FiniteStructure,
    _bits,
    delta_mask,
)

DEFAULT_CF_EXHAUSTIVE_CAP = 18  # largest structure in_Cf checks on its full delta table
DEFAULT_CONN_SIZE = 18  # largest connected subset in_Cf checks above the cap
DEFAULT_CONN_BUDGET = 200_000  # connected subsets in_Cf checks above the cap
DEFAULT_SAMPLES = 1000
SAMPLES_CAP = 10_000  # most random subsets in_Cf samples above its exhaustive cap
KN_CYCLE_BUDGET = 2_000_000  # long-cycle search steps in_Kn takes before PARTIAL


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
    val, minimal, _ = _solve(S, 0, need=_LEAST)
    if val >= 0:
        return MembershipResult(PASS, margin=Fraction(val), checked=1)
    wit = S.ids_of(minimal)
    return MembershipResult(FAIL, witness=wit, margin=Fraction(val))


# -- Cf -------------------------------------------------------------------------


def in_Cf(
    S: FiniteStructure,
    f: ControlFunction,
    samples: int = DEFAULT_SAMPLES,
    seed: int = 0,
) -> MembershipResult:
    if samples > SAMPLES_CAP:
        raise CapacityError("in_Cf samples", SAMPLES_CAP, samples)
    n = len(S.vertices)
    thr = [math.ceil(f(k)) for k in range(n + 1)]
    if n <= DEFAULT_CF_EXHAUSTIVE_CAP:
        dtab = delta_table(S)
        pc = popcounts(n)
        # Clamped to the table's range, every comparison is unchanged and
        # every threshold fits in int64.
        lo, hi = int(dtab.min()), int(dtab.max()) + 1
        bound = np.array([min(max(t, lo), hi) for t in thr], dtype=np.int64)
        viol = np.flatnonzero(dtab < bound[pc])
        if viol.size == 0:
            c0 = in_C0(S)
            if not c0.holds:  # f >= 0 makes this unreachable; assert the implication
                return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin,
                                        detail="delta bound holds but C0 fails")
            return MembershipResult(PASS, checked=1 << n)
        sizes = pc[viol]
        k = int(sizes.min())
        wmask = int(viol[sizes == k][0])
        margin = Fraction(delta_mask(S, wmask)) - f(k)
        return MembershipResult(FAIL, witness=S.ids_of(wmask), margin=margin,
                                checked=1 << n)

    # Above the cap: C0 stays exact; the f-bound is sampled.
    c0 = in_C0(S)
    if not c0.holds:
        return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin)
    violations: list[tuple[int, int]] = []
    # Connected subsets (by shared instances), by a depth-first search from
    # each root over the vertices above it, each with its size and delta.  A
    # set reachable along several frontier orders is produced once per
    # order, and the budget counts every production, so the push order
    # fixes which sets fall inside the budget.
    adj = S.bit_index().co
    weighted: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for imask, w in S.bit_index().weighted:
        for i in _bits(imask):
            weighted[i].append((imask, w))
    vw = S.signature.vertex_weight
    checked = 0
    for root in range(n):
        above = -1 << (root + 1)
        # a singleton holds no instance: every arity is at least 2
        stack = [(1 << root, adj[root] & above, 1, vw)]
        while stack:
            mask, frontier, size, d = stack.pop()
            checked += 1
            if d < thr[size]:
                violations.append((size, mask))
            if checked >= DEFAULT_CONN_BUDGET:
                break
            if size >= DEFAULT_CONN_SIZE:
                continue
            rest = frontier
            while rest:
                low = rest & -rest
                rest ^= low
                w = low.bit_length() - 1
                grown = mask | low
                dw = d + vw
                for imask, weight in weighted[w]:
                    if imask & grown == imask:
                        dw -= weight
                stack.append((grown, (rest | (adj[w] & above)) & ~mask, size + 1, dw))
        else:
            continue
        break
    rng = random.Random(seed)
    for _ in range(samples):
        k = rng.randint(1, n)
        # sample picks by index alone, so positions draw the subsets ids would
        mask = sum(1 << p for p in rng.sample(range(n), k))
        checked += 1
        if delta_mask(S, mask) < thr[k]:
            violations.append((k, mask))
    if violations:
        k, wmask = min(violations)
        margin = Fraction(delta_mask(S, wmask)) - f(k)
        return MembershipResult(FAIL, witness=S.ids_of(wmask), margin=margin,
                                checked=checked)
    return MembershipResult(
        PARTIAL,
        checked=checked,
        detail=(
            f"size {n} exceeds exhaustive cap {DEFAULT_CF_EXHAUSTIVE_CAP}; "
            f"checked {checked} subsets (connected <= {DEFAULT_CONN_SIZE} within budget "
            f"{DEFAULT_CONN_BUDGET}, plus {samples} seeded random); not a certificate"
        ),
    )


# -- girth and Kn -----------------------------------------------------------------


def _binary_co(S: FiniteStructure) -> tuple[int, ...]:
    """Adjacency masks by position; the signature must be binary."""
    if any(rel.arity != 2 for rel in S.signature.relations):
        raise InputError("cycles and girth need a signature with binary relations only")
    return S.bit_index().co


def girth(S: FiniteStructure) -> float:
    """Length of a shortest cycle via BFS from every vertex; inf for forests.

    Every relation of the signature must be binary; all of them count as
    edges.
    """
    g, _ = girth_with_witness(S)
    return g


def girth_with_witness(
    S: FiniteStructure, below: float = math.inf
) -> tuple[float, Optional[frozenset[int]]]:
    """The girth and the first shortest cycle found, or (inf, None) for a forest.

    With ``below`` only cycles shorter than it count, so each BFS stops at
    depth ``below / 2``, and the answer is (inf, None) when there is none.
    A shortest cycle below it is the one the unbounded search finds.
    """
    co = _binary_co(S)
    n = len(S.vertices)
    best = below
    witness = None
    for root in range(n):
        dist = [-1] * n
        parent = [-1] * n
        dist[root] = 0
        queue = [root]
        for u in queue:
            if dist[u] * 2 >= best:
                break
            for w in _bits(co[u]):
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    parent[w] = u
                    queue.append(w)
                elif parent[u] != w:  # u's one tree edge to a seen vertex
                    length = dist[u] + dist[w] + 1
                    if length < best:
                        best = length
                        path = 0
                        for x in (u, w):
                            while x >= 0:
                                path |= 1 << x
                                x = parent[x]
                        witness = S.ids_of(path)
    return (best, witness) if witness is not None else (math.inf, None)


def _simple_cycles_longer_than(
    S: FiniteStructure, length: int, budget: int
) -> tuple[list[int], bool]:
    """Masks of all simple cycles of length > ``length``; second value means complete."""
    co = _binary_co(S)
    cycles: list[int] = []
    steps = 0
    for root in range(len(S.vertices)):
        stack = [(root, [root], 1 << root)]
        while stack:
            u, path, onpath = stack.pop()
            steps += 1
            if steps > budget:
                return cycles, False
            for w in _bits(co[u] >> root << root):
                if w == root and len(path) >= 3:
                    if len(path) > length and path[1] < path[-1]:
                        cycles.append(onpath)
                elif not onpath >> w & 1:
                    stack.append((w, path + [w], onpath | 1 << w))
    return cycles, True


def in_Kn(S: FiniteStructure, ngon: int) -> MembershipResult:
    """Generalized-polygon class: girth and long-cycle predimension conditions.

    The structure must be in bipartite mode, so its one relation is binary.
    """
    if ngon < 3:
        raise InputError(f"ngon must be >= 3, got {ngon}")
    if S.signature.mode != BIPARTITE:
        raise InputError("Kn membership needs a bipartite-mode structure")
    c0 = in_C0(S)
    if not c0.holds:
        return MembershipResult(FAIL, witness=c0.witness, margin=c0.margin,
                                detail="not in C0")
    if len(S.vertices):
        g, cyc = girth_with_witness(S, below=2 * ngon)
        if g < 2 * ngon:
            return MembershipResult(FAIL, witness=cyc,
                                    detail=f"cycle of length {int(g)} < {2 * ngon}")
    long_cycles, complete = _simple_cycles_longer_than(S, 2 * ngon, KN_CYCLE_BUDGET)
    bound = 2 * ngon + 2
    for cyc in long_cycles:
        val, minimal, _ = _solve(S, cyc, need=_LEAST)
        if val < bound:
            return MembershipResult(
                FAIL,
                witness=S.ids_of(minimal),
                margin=Fraction(val - bound),
                detail=f"subset over a {cyc.bit_count()}-cycle has delta {val} < {bound}",
            )
    if not complete:
        return MembershipResult(PARTIAL,
                                detail=f"cycle enumeration budget {KN_CYCLE_BUDGET} hit")
    return MembershipResult(PASS, checked=len(long_cycles) + 1)
