"""Constructive gadgets: Beatty sequences, the deficiency-one pair (X, Y),
the tower amalgam that pins a point to an orbit, and the two explicit
example families ("ex511" fan join, "ex512" double cycle).

Every builder is deterministic: identical parameters give byte-identical
structures.  Constructors build and suites judge: the fan join and the
cycle fan return only what they construct, and the ``ex511``/``ex512``
suites check their claims.  ``verify_gadget`` enumerates subsets
exhaustively below its cap and reports DEGENERATE rather than guessing a
repair when the construction's arithmetic collapses (a 2-cycle under
simple-graph semantics, or a base with fewer than 2 points).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional

import numpy as np

from .classes import _binary_co
from .closures import cld, popcounts
from .errors import CapacityError, InputError
from .reports import DEGENERATE, VerificationReport, subset_witness
from .structures import (
    FiniteStructure,
    delta_mask,
    delta_rel,
    free_amalgam,
    graph,
    hypergraph_signature,
    _bits,
    _submasks,
)

M_EQUALS_1 = "M_EQUALS_1"
B_EQUALS_1 = "B_EQUALS_1"
B_GE_2 = "B_GE_2"

GADGET_VERIFY_CAP = 22  # most gadget vertices verify_gadget enumerates
CLOSED_SAMPLE_MAX = 18  # largest d-closed sample sample_closed_connected_subsets keeps
CONSTRUCTION_CAP = 10_000  # most vertices (or period entries) an integer-sized constructor builds


def check_construction_size(what: str, size: int) -> None:
    """Raise before a constructor sized by integers builds above the cap."""
    if size > CONSTRUCTION_CAP:
        raise CapacityError(f"{what} size", CONSTRUCTION_CAP, size)


# -- Beatty sequences -------------------------------------------------------------


@dataclass(frozen=True)
class BeattySequence:
    """0/1 first differences of floor(i * ell / b), period of length b."""

    ell: int
    b: int
    period: tuple[int, ...]  # entries a_1 .. a_b

    def value(self, i: int) -> int:
        return self.period[(i - 1) % self.b]


def beatty(ell: int, b: int) -> BeattySequence:
    if not 0 < ell < b:
        raise InputError(f"need 0 < ell < b, got ell={ell}, b={b}")
    check_construction_size("beatty period", b)
    period = tuple((i * ell) // b - ((i - 1) * ell) // b for i in range(1, b + 1))
    return BeattySequence(ell, b, period)


# -- gadget parameters --------------------------------------------------------------


@dataclass(frozen=True)
class GadgetParams:
    n: int
    m: int
    r: int
    case: str  # M_EQUALS_1 / B_EQUALS_1 / B_GE_2
    a: Optional[int] = None
    c: Optional[int] = None
    b: Optional[int] = None
    ell: Optional[int] = None


def gadget_params(n: int, m: int, r: int = 2) -> GadgetParams:
    if n < 1 or m < 1:
        raise InputError(f"need n, m >= 1, got n={n}, m={m}")
    if math.gcd(n, m) != 1:
        raise InputError(f"n={n} and m={m} must be coprime")
    if r == 2:
        if n <= m:
            raise InputError(f"r=2 needs n > m, got n={n}, m={m}")
    elif r >= 3:
        if n < m:
            raise InputError(f"r>=3 needs n >= m, got n={n}, m={m}")
    else:
        raise InputError(f"arity must be >= 2, got {r}")
    if m == 1:
        return GadgetParams(n, m, r, M_EQUALS_1)
    a, c = divmod(n, m)
    b = pow(-c, -1, m)
    ell = (1 + c * b) // m
    if ell * m - c * b != 1 or not (0 < b < m) or not (0 < ell <= b):
        raise InputError(f"internal arithmetic failure for n={n}, m={m}")
    return GadgetParams(n, m, r, B_EQUALS_1 if b == 1 else B_GE_2, a=a, c=c, b=b, ell=ell)


# -- gadget construction --------------------------------------------------------------


@dataclass(frozen=True)
class GadgetPair:
    structure: FiniteStructure  # the Y
    x_set: frozenset[int]  # the distinguished X
    params: GadgetParams
    degenerate: bool = False
    degenerate_reason: str = ""

    @property
    def y_minus_x(self) -> frozenset[int]:
        return frozenset(self.structure.vertices) - self.x_set


def build_gadget(n: int, m: int, r: int = 2) -> GadgetPair:
    """Deterministic (X, Y) with delta(Y/X) = -1 whose proper parts stay tame.

    The binary skeleton is lifted to arity r by padding every edge with a
    fixed (r-2)-tuple of extra X points.
    """
    params = gadget_params(n, m, r)
    sig = hypergraph_signature(n, m, r)
    a, b, ell = params.a, params.b, params.ell
    if params.case == M_EQUALS_1:
        size_x, b = n + 1, 1
    elif params.case == B_EQUALS_1:
        size_x = a + ell
    else:
        size_x = (a - 1) * b + ell
    check_construction_size("gadget", size_x + b + r - 2)
    x_skel = list(range(size_x))
    ys = [size_x + i for i in range(b)]
    degenerate = False
    reason = ""
    if params.case != B_GE_2:
        edges = [(x, ys[0]) for x in x_skel]
    else:
        edges = [(ys[i], ys[(i + 1) % b]) for i in range(b)]
        pool = list(x_skel)
        for i in range(b):
            for _ in range(a - 1):
                edges.append((pool.pop(0), ys[i]))
        seq = beatty(ell, b)
        positions = [i for i in range(b) if seq.value(i) == 1]
        for i in positions:
            edges.append((pool.pop(0), ys[i]))
        if pool:
            raise InputError("edge distribution did not exhaust X")
        if b == 2:
            degenerate = True
            reason = "a 2-cycle collapses to a single edge under simple-graph semantics"
        if size_x < 2:
            degenerate = True
            reason = (reason + "; " if reason else "") + "skeleton X has fewer than 2 points"
    pad = list(range(size_x + b, size_x + b + r - 2))
    instances = [tuple(sorted((u, v, *pad))) for u, v in edges]
    Y = FiniteStructure(sig, x_skel + ys + pad, {"R": instances})
    return GadgetPair(Y, frozenset(x_skel) | frozenset(pad), params, degenerate, reason)


def verify_gadget(g: GadgetPair) -> VerificationReport:
    """Exhaustive check of the three gadget clauses by subset enumeration."""
    rep = VerificationReport(suite="gadget-verify")
    S = g.structure
    tag = f"n={g.params.n},m={g.params.m},r={g.params.r}"
    if len(S.vertices) > GADGET_VERIFY_CAP:
        raise CapacityError("gadget verification", GADGET_VERIFY_CAP, len(S.vertices))
    if g.degenerate:
        for clause in ("deficiency", "proper-parts", "intermediate"):
            rep.add(f"{tag}:{clause}", DEGENERATE, note=g.degenerate_reason)
        return rep.finalize()
    xs = sorted(g.x_set)
    ys = sorted(g.y_minus_x)
    d = delta_rel(S, ys, xs)
    ok1 = d == -1 and len(xs) >= 2
    rep.check(
        f"{tag}:deficiency",
        None if ok1 else f"delta(Y/X)={d}, |X|={len(xs)}",
        margin=Fraction(d + 1),
    )
    # D[p, w] = delta(P | W) over the x-parts P and free parts W, both in
    # ascending mask order; the last row is all of X.  U ranges over every
    # free part, so "proper-parts" says D[p, w] >= D[p, 0] for every proper P
    # and every W.  The first U with a violation is the least violating W,
    # so no smaller W inside it violates: the violating set is P | U itself.
    xmask, free = S.mask_of(xs), S.mask_of(ys)
    xm, fm = (np.fromiter(_submasks(m), dtype=np.int64) for m in (xmask, free))
    parts = xm[:, None] | fm
    D = S.signature.vertex_weight * (popcounts(len(xs))[:, None] + popcounts(len(ys)))
    for imask, w in S.bit_index().weighted:
        D -= w * ((parts & imask) == imask)
    hits = np.argwhere((D[:-1] < D[:-1, :1]).T)  # (W, P), least W first
    bad2 = int(fm[hits[0, 0]] | xm[hits[0, 1]]) if len(hits) else None
    rep.check(
        f"{tag}:proper-parts",
        None if bad2 is None else subset_witness(S.ids_of(bad2)),
    )

    lows = np.flatnonzero(D[-1, :-1] < D[-1, 0])  # W short of all the free part
    bad3 = int(xmask | fm[lows[0]]) if len(lows) else None
    rep.check(
        f"{tag}:intermediate",
        None if bad3 is None else subset_witness(S.ids_of(bad3)),
    )
    return rep.finalize()


def _fresh_copies(
    B: FiniteStructure, base: frozenset[int], k: int, anchor: int, next_id: int
) -> tuple[list[FiniteStructure], list[int], int]:
    """k copies of B over the base, each vertex outside it renamed to a fresh id.

    Returns the copies, the image of ``anchor`` in each, and the next unused id.
    """
    copies, anchors = [], []
    for _ in range(k):
        mapping = {}
        for v in B.vertices:
            if v in base:
                mapping[v] = v
            else:
                mapping[v] = next_id
                next_id += 1
        copies.append(B.relabel(mapping))
        anchors.append(mapping[anchor])
    return copies, anchors, next_id


# -- tower amalgam ---------------------------------------------------------------------


@dataclass(frozen=True)
class TowerAmalgam:
    structure: FiniteStructure  # the E
    c_block: frozenset[int]  # image of C
    copy_blocks: tuple[frozenset[int], ...]  # images of the B copies


def build_tower_amalgam(
    C: FiniteStructure,
    B: FiniteStructure,
    base_ids: Iterable[int],
    g: GadgetPair,
) -> TowerAmalgam:
    """Glue the gadget onto one distinguished point of C and copies of B.

    C and B share the base (same ids, same induced structure).  The gadget's
    base X is identified with (c, and the u0 copy in each of |X|-1 fresh
    copies of B), where c and u0 are the least vertices of C and of B
    outside the base; the rest of the gadget is added freely.  The gadget
    base must carry no relations among its own points.
    """
    if C.signature != g.structure.signature or B.signature != C.signature:
        raise InputError("C, B and the gadget must share a signature")
    base = frozenset(int(v) for v in base_ids)
    x_mask = g.structure.mask_of(g.x_set)
    if any(m & ~x_mask == 0 for _, m in g.structure.bit_index().pairs):
        raise InputError("gadget base X must be relation-free")
    k = len(g.x_set)
    c_pool = sorted(set(C.vertices) - base)
    if not c_pool:
        raise InputError("C has no vertex outside the base")
    b_pool = sorted(set(B.vertices) - base)

    next_id = max(list(C.vertices) + list(B.vertices) + [-1]) + 1
    copies = []
    x_points = [c_pool[0]]
    if b_pool:
        copies, u0_copies, next_id = _fresh_copies(B, base, k - 1, b_pool[0], next_id)
        x_points += u0_copies
        if len(set(x_points)) != k:
            raise InputError(f"could not identify {k} distinct x-points")
    # with empty amalgamation arms only the distinguished point is identified;
    # the rest of the gadget base stays fresh
    Z = free_amalgam(base, C, *copies)

    gx = sorted(g.x_set)
    gmap = {}
    for i, xv in enumerate(gx):
        if i < len(x_points):
            gmap[xv] = x_points[i]
        else:
            gmap[xv] = next_id
            next_id += 1
    for v in g.structure.vertices:
        if v not in g.x_set:
            gmap[v] = next_id
            next_id += 1
    glued = g.structure.relabel(gmap)
    E = Z.with_added(glued.vertices, glued.instances)
    return TowerAmalgam(
        E,
        frozenset(C.vertices),
        tuple(frozenset(copy.vertices) for copy in copies),
    )


# -- fan join ("ex511") ------------------------------------------------------------------


@dataclass(frozen=True)
class FanJoinResult:
    structure: FiniteStructure  # E: fan of copies joined by one new relation
    base: frozenset[int]  # A
    copy_blocks: tuple[frozenset[int], ...]  # B_i images, each containing A
    b_copies: tuple[int, ...]  # image of b in each copy
    joined_vertex: int  # c


def build_fan_join(
    B: FiniteStructure, base_ids: Iterable[int], b_vertex: int, r: int
) -> FanJoinResult:
    """Join r-1 fresh copies of B over the base by one new r-ary relation.

    Signature must be (n=1, m=1, arity r >= 3).  The new relation holds the
    copies of b_vertex and one fresh vertex c.
    """
    sig = B.signature
    if sig.vertex_weight != 1 or any(rel.weight != 1 for rel in sig.relations):
        raise InputError("fan join needs unit weights (n = m = 1)")
    rel = sig.relations[0]
    if rel.arity != r or r < 3:
        raise InputError(f"fan join needs the signature arity to equal r >= 3, got {rel.arity}")
    base = frozenset(int(v) for v in base_ids)
    if b_vertex in base or b_vertex not in B._index:
        raise InputError("b_vertex must lie in B outside the base")
    copies, b_copies, c = _fresh_copies(B, base, r - 1, b_vertex, max(B.vertices) + 1)
    F = free_amalgam(base, *copies)
    E = F.with_added([c], {rel.name: [tuple(sorted(b_copies + [c]))]})
    return FanJoinResult(
        E, base, tuple(frozenset(copy.vertices) for copy in copies), tuple(b_copies), c
    )


def _build_fan_probe(
    B: FiniteStructure, base: frozenset[int], r: int
) -> tuple[FiniteStructure, int, tuple[int, ...]]:
    """One new relation on a fresh anchor over the base; spokes split off freely.

    Returns the structure, the anchor a and the spokes e_1 .. e_{r-1}.
    """
    rel = B.signature.relations[0]
    a = max(list(B.vertices) + [-1]) + 1
    spokes = tuple(range(a + 1, a + r))
    C = B.induced(base).with_added([a], {})
    return C.with_added(spokes, {rel.name: [tuple(sorted((a, *spokes)))]}), a, spokes


# -- double cycle ("ex512") ---------------------------------------------------------------


@dataclass(frozen=True)
class DoubleCycle:
    structure: FiniteStructure  # CD
    c_vertices: tuple[int, ...]
    d_vertices: tuple[int, ...]
    s: int


def build_double_cycle(s: int, step: int) -> DoubleCycle:
    """2s-cycle on C and D vertices plus a single chord s-cycle on D.

    Needs gcd(step, s) = 1 and 6 <= step < s/12, which forces girth >= 6.
    """
    if math.gcd(step, s) != 1:
        raise InputError(f"step {step} must be coprime to s={s}")
    if not (6 <= step and 12 * step < s):
        raise InputError(f"need 6 <= step < s/12, got step={step}, s={s}")
    check_construction_size("double cycle", 2 * s)
    cs = tuple(range(s))
    ds = tuple(range(s, 2 * s))
    edges = []
    for i in range(s):
        edges.append((cs[i], ds[i]))
        edges.append((ds[i], cs[(i + 1) % s]))
        edges.append((ds[i], ds[(i + step) % s] if i != (i + step) % s else None))
    edges = [(a, b) for a, b in edges if b is not None]
    return DoubleCycle(graph(edges, n=2, m=1), cs, ds, s)


@dataclass(frozen=True)
class SampledInequality:
    samples: int
    distinct: int
    violations: tuple[tuple[int, ...], ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def sample_closed_connected_subsets(
    dc: DoubleCycle,
    count: int = 1000,
    seed: int = 0,
) -> SampledInequality:
    """Seeded d-closed connected samples; checks 2*delta(X) >= |X| + 3 exactly.

    Each sample is the d-closure of a connected seed of 1 to 5 vertices,
    kept when it is a proper subset of at most ``CLOSED_SAMPLE_MAX``
    vertices.
    """
    S = dc.structure
    rng = random.Random(seed)
    co = _binary_co(S)
    n = len(S.vertices)
    violations = []
    seen = set()
    accepted = 0
    attempts = 0
    while accepted < count:
        attempts += 1
        if attempts > 80 * count:
            raise InputError("sampling could not reach the requested count")
        size = rng.randint(1, 5)
        seed_mask = 1 << rng.randrange(n)
        while seed_mask.bit_count() < size:
            near = 0
            for i in _bits(seed_mask):
                near |= co[i]
            frontier = list(_bits(near & ~seed_mask))
            if not frontier:
                break
            seed_mask |= 1 << rng.choice(frontier)
        X = cld(S, S.ids_of(seed_mask))
        xmask = S.mask_of(X)
        if len(X) == n or len(X) > CLOSED_SAMPLE_MAX or not _connected_in(co, xmask):
            continue
        accepted += 1
        seen.add(X)
        if 2 * delta_mask(S, xmask) < len(X) + 3:
            violations.append(tuple(sorted(X)))
    return SampledInequality(accepted, len(seen), tuple(violations))


def sample_c_closures(
    dc: DoubleCycle,
    count: int = 300,
    seed: int = 1,
) -> SampledInequality:
    """Closures of seeds of 1 to 6 C vertices; checks |closure| <= 4*|seed| - 3."""
    S = dc.structure
    rng = random.Random(seed)
    violations = []
    seen = set()
    for _ in range(count):
        size = rng.randint(1, 6)
        seed_set = frozenset(rng.sample(list(dc.c_vertices), size))
        X = cld(S, seed_set)
        seen.add(X)
        if len(X) > 4 * len(seed_set) - 3:
            violations.append(tuple(sorted(seed_set)))
    return SampledInequality(count, len(seen), tuple(violations))


def _connected_in(co: tuple[int, ...], xmask: int) -> bool:
    """Is the set of positions xmask connected under the adjacency masks co?"""
    seen = frontier = xmask & -xmask
    while frontier:
        near = 0
        for i in _bits(frontier):
            near |= co[i]
        frontier = near & xmask & ~seen
        seen |= frontier
    return seen == xmask


def build_cycle_fan(dc: DoubleCycle) -> tuple[FiniteStructure, tuple[int, ...]]:
    """Hang a fresh vertex over the empty base on every C vertex of the double cycle.

    Returns the structure E and the pendant vertices, in C-vertex order.
    """
    S = dc.structure
    pendants = tuple(range(max(S.vertices) + 1, max(S.vertices) + 1 + dc.s))
    rel = S.signature.relations[0].name
    return S.with_added(pendants, {rel: tuple(zip(pendants, dc.c_vertices))}), pendants
