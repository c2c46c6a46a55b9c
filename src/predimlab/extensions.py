"""Simply algebraic extensions, their minimal bases, copy counting, and
potential extendability of partial maps at finite scale.

An extension Z of Y is simply algebraic (sa) when the relative predimension
of Y over Z is zero and strictly negative over every intermediate set; it is
minimally simply algebraic (msa) when no proper subset of the base supports
the same extension.  A base point survives minimization exactly when it
shares a weighted instance with a new point, which gives a direct base
extraction instead of a subset search.

Copy counts are ambient-relative.  The infinite multiplicities of a generic
structure are represented by a saturation threshold: counts at or above it
compare as SATURATED-equal, and every report says so.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .closures import self_sufficient
from .errors import CapacityError, ContractError, InputError
from .reports import FAIL, PASS, VerificationReport, subset_witness
from .structures import (
    FiniteStructure,
    canonical_form,
    co_instance_neighbors,
    delta_rel,
    _bits,
)

DEFAULT_EXT_CAP = 12
DEFAULT_SATURATION = 3


def is_simply_algebraic(
    S: FiniteStructure, Z: Iterable[int], Y: Iterable[int], cap: int = DEFAULT_EXT_CAP
) -> bool:
    """delta(Y/Z) = 0 and delta(Y/Z1) < 0 for every intermediate Z1."""
    zs, ys = S.subset(Z), S.subset(Y)
    if not zs < ys:
        raise InputError("need Z strictly inside Y")
    new = sorted(ys - zs)
    if len(new) > cap:
        raise CapacityError("sa intermediate enumeration", cap, len(new))
    if delta_rel(S, new, zs) != 0:
        return False
    for k in range(1, len(new)):
        for picked in itertools.combinations(new, k):
            z1 = zs | set(picked)
            if delta_rel(S, ys, z1) >= 0:
                return False
    return True


def _touching_base(S: FiniteStructure, Z: frozenset[int], new: frozenset[int]) -> frozenset[int]:
    """Base points sharing a weighted instance (inside Z union new) with new points."""
    whole = Z | new
    touched = set()
    weights = {rel.name: rel.weight for rel in S.signature.relations}
    for name, tups in S.instances.items():
        if weights[name] == 0:
            continue
        for t in tups:
            ts = set(t)
            if ts <= whole and ts & new:
                touched |= ts & Z
    return frozenset(touched)


def is_msa(
    S: FiniteStructure, Z: Iterable[int], Y: Iterable[int], cap: int = DEFAULT_EXT_CAP
) -> bool:
    """Simply algebraic with every base point attached to a new point."""
    zs, ys = S.subset(Z), S.subset(Y)
    if not is_simply_algebraic(S, zs, ys, cap):
        return False
    return _touching_base(S, zs, ys - zs) == zs


def msa_base(
    S: FiniteStructure, Z: Iterable[int], Y: Iterable[int], cap: int = DEFAULT_EXT_CAP
) -> tuple[frozenset[int], frozenset[int]]:
    """Minimal base of a simply algebraic pair: (Z1, Y1 = Z1 + new points).

    The input must be sa; the output pair always satisfies :func:`is_msa`,
    and Y decomposes as the free amalgam of Z and Y1 over Z1.
    """
    zs, ys = S.subset(Z), S.subset(Y)
    if not is_simply_algebraic(S, zs, ys, cap):
        raise ContractError("msa_base needs a simply algebraic input pair")
    new = ys - zs
    z1 = _touching_base(S, zs, new)
    y1 = z1 | new
    if not is_msa(S, z1, y1, cap):
        raise ContractError("extracted base failed the msa check")
    return z1, y1


@dataclass(frozen=True)
class MsaType:
    """An msa pair as a standalone pattern with a distinguished base."""

    pattern: FiniteStructure
    base: frozenset[int]
    pinned: bool = False  # when True, base vertices are matched pointwise

    def __post_init__(self):
        if not self.base <= set(self.pattern.vertices):
            raise InputError("base must be a subset of the pattern")

    @property
    def new_points(self) -> frozenset[int]:
        return frozenset(self.pattern.vertices) - self.base

    def key(self) -> tuple:
        if self.pinned:
            colors = {v: i + 1 for i, v in enumerate(sorted(self.base))}
        else:
            colors = {v: 1 for v in self.base}
        return canonical_form(self.pattern, cap=len(self.pattern.vertices), colors=colors)


def msa_type_of(
    S: FiniteStructure, Z: Iterable[int], Y: Iterable[int], cap: int = DEFAULT_EXT_CAP
) -> MsaType:
    z1, y1 = msa_base(S, Z, Y, cap)
    return MsaType(S.induced(y1), z1)


@dataclass(frozen=True)
class CopyCount:
    count: int
    copies: tuple[frozenset[int], ...]  # the new-point sets, base excluded
    disjoint_over_base: bool


def _instance_exact(
    S: FiniteStructure, t: MsaType, phi: Mapping[int, int], A: frozenset[int]
) -> bool:
    """Image is induced-isomorphic to the pattern and free over A."""
    img = frozenset(phi.values())
    ext_img = frozenset(phi[v] for v in t.new_points)
    mapped = set()
    for name, tups in t.pattern.instances.items():
        for tp in tups:
            mapped.add((name, tuple(sorted(phi[v] for v in tp))))
    scope = A | ext_img
    for name, tups in S.instances.items():
        for tp in tups:
            ts = set(tp)
            if not ts & ext_img:
                continue
            if not ts <= scope:
                continue  # leaves A+copy, irrelevant to the extension pair
            if (name, tp) not in mapped:
                return False
    for name, tp in mapped:
        if tp not in S.instances[name]:
            return False
    base_img = img - ext_img
    back = {phi[v]: v for v in t.base}
    if S.induced(base_img).relabel(back) != t.pattern.induced(t.base):
        return False
    return True


def count_msa_copies(
    S: FiniteStructure,
    A: Iterable[int],
    t: MsaType,
    pin: Mapping[int, int] | None = None,
    cap: int = DEFAULT_EXT_CAP,
    require_disjoint: bool = False,
) -> CopyCount:
    """Distinct sa extensions of A realizing the msa type, counted inside S.

    ``pin`` fixes where the base sits in A (pointwise); without it every
    placement of the base inside A is searched.  Copies are the new-point
    sets; when A is self-sufficient in S they are pairwise disjoint and
    relation-free over each other, which ``require_disjoint`` asserts.
    """
    a_set = S.subset(A)
    ext = sorted(t.new_points)
    if len(ext) > cap:
        raise CapacityError("msa copy search", cap, len(ext))
    base = sorted(t.base)
    if pin is not None:
        if set(pin) != set(base):
            raise InputError("pin must map exactly the base vertices")
        for v in pin.values():
            if v not in a_set:
                raise InputError("pin must land inside A")
    copies: set[frozenset[int]] = set()

    adj_pat = co_instance_neighbors(t.pattern)
    s_adj = co_instance_neighbors(S)
    candidates_outside = [v for v in S.vertices if v not in a_set]

    def extend(phi: dict[int, int], todo: list[int]):
        if not todo:
            if _instance_exact(S, t, phi, a_set):
                copies.add(frozenset(phi[v] for v in t.new_points))
            return
        v = todo[0]
        used = set(phi.values())
        pool = (sorted(a_set) if v in t.base else candidates_outside)
        anchored = [u for u in adj_pat[v] if u in phi]
        if anchored:
            near = None
            for u in anchored:
                cand = s_adj[phi[u]]
                near = cand if near is None else near & cand
            pool = [w for w in pool if w in near]
        for w in pool:
            if w in used:
                continue
            phi[v] = w
            extend(phi, todo[1:])
            del phi[v]

    start: dict[int, int] = dict(pin) if pin else {}
    todo = ([] if pin else base) + ext
    extend(start, todo)

    copies_t = tuple(sorted(copies, key=sorted))
    disjoint = _copies_disjoint(S, a_set, copies_t)
    if require_disjoint and not disjoint:
        raise ContractError("copies are not in free amalgamation over the base set")
    return CopyCount(len(copies_t), copies_t, disjoint)


def _copies_disjoint(
    S: FiniteStructure, A: frozenset[int], copies: tuple[frozenset[int], ...]
) -> bool:
    for w1, w2 in itertools.combinations(copies, 2):
        if w1 & w2:
            return False
        scope = A | w1 | w2
        for name, tups in S.instances.items():
            for tp in tups:
                ts = set(tp)
                if ts <= scope and ts & w1 and ts & w2:
                    return False
    return True


# -- enumeration of msa pairs inside a structure -------------------------------------


def enumerate_msa_pairs(
    S: FiniteStructure,
    max_new: int | None = None,
    straddle: tuple[frozenset[int], frozenset[int]] | None = None,
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All msa pairs (base Z, new part W) inside S, by direct enumeration.

    A pair qualifies when delta(W/Z) = 0, every intermediate set is strictly
    negative, and every base point touches W through a weighted instance.
    ``straddle=(P, Q)`` keeps only bases meeting both P-P∩Q and Q-P∩Q.
    """
    n = len(S.vertices)
    weights = {rel.name: rel.weight for rel in S.signature.relations}
    verts = list(S.vertices)
    inst_masks = []
    for name, tups in S.instances.items():
        if weights[name] == 0:
            continue
        for tp in tups:
            inst_masks.append(S.mask_of(tp))
    from .closures import delta_table

    if n > 16:
        raise CapacityError("msa pair enumeration", 16, n)
    dtab = delta_table(S)
    if straddle:
        p_mask = S.mask_of(straddle[0])
        q_mask = S.mask_of(straddle[1])
        shared = p_mask & q_mask
    for wmask in range(1, 1 << n):
        wsize = wmask.bit_count()
        if max_new is not None and wsize > max_new:
            continue
        touch = 0
        for im in inst_masks:
            if im & wmask:
                touch |= im & ~wmask
        if straddle and not (
            touch & p_mask & ~shared and touch & q_mask & ~shared
        ):
            continue
        touch_bits = list(_bits(touch))
        for zsel in range(1 << len(touch_bits)):
            zmask = 0
            for k in range(len(touch_bits)):
                if zsel >> k & 1:
                    zmask |= 1 << touch_bits[k]
            if straddle and not (zmask & p_mask & ~shared and zmask & q_mask & ~shared):
                continue
            if dtab[zmask | wmask] != dtab[zmask]:
                continue
            whole = zmask | wmask
            # every base point must touch W inside Z|W
            touched = 0
            for im in inst_masks:
                if im & wmask and im & whole == im:
                    touched |= im & zmask
            if touched != zmask:
                continue
            ok = True
            wbits = list(_bits(wmask))
            for sub in range(1, 1 << len(wbits)):
                if sub == (1 << len(wbits)) - 1:
                    continue
                smask = 0
                for k in range(len(wbits)):
                    if sub >> k & 1:
                        smask |= 1 << wbits[k]
                if dtab[whole] - dtab[zmask | smask] >= 0:
                    ok = False
                    break
            if ok:
                yield S.ids_of(zmask), S.ids_of(wmask)


# -- base duplication ------------------------------------------------------------------


def duplicate_base_points(t: MsaType) -> MsaType:
    """Split the base so each new base point sits in exactly one new instance.

    Every weighted instance that meets the extension gets its own fresh copy
    of its base points; base-internal structure is dropped.  The result is
    again msa.
    """
    pat, base = t.pattern, t.base
    new = sorted(t.new_points)
    weights = {rel.name: rel.weight for rel in pat.signature.relations}
    next_id = max(pat.vertices) + 1
    fresh_base: list[int] = []
    new_inst: dict[str, list[tuple[int, ...]]] = {r.name: [] for r in pat.signature.relations}
    for name, tups in pat.instances.items():
        for tp in tups:
            ts = set(tp)
            if not ts & set(new):
                continue  # base-internal structure is dropped
            rebuilt = []
            for v in tp:
                if v in base:
                    rebuilt.append(next_id)
                    fresh_base.append(next_id)
                    next_id += 1
                else:
                    rebuilt.append(v)
            new_inst[name].append(tuple(sorted(rebuilt)))
    verts = list(new) + fresh_base
    out = FiniteStructure(pat.signature, verts, new_inst)
    return MsaType(out, frozenset(fresh_base))


# -- potential extendability --------------------------------------------------------------


@dataclass(frozen=True)
class PartialMap:
    """Bijection between two vertex sets that respects induced structure."""

    pairs: tuple[tuple[int, int], ...]

    @property
    def mapping(self) -> dict[int, int]:
        return dict(self.pairs)

    @property
    def domain(self) -> frozenset[int]:
        return frozenset(a for a, _ in self.pairs)

    @property
    def image(self) -> frozenset[int]:
        return frozenset(b for _, b in self.pairs)

    def validate(self, S: FiniteStructure) -> None:
        m = self.mapping
        if len(m) != len(self.pairs) or len(self.image) != len(self.pairs):
            raise InputError("partial map must be a bijection")
        dom = S.induced(self.domain)
        img = S.induced(self.image)
        if dom.relabel(m) != img:
            raise ContractError("partial map does not preserve induced structure")


def enumerate_msa_patterns_over(
    S: FiniteStructure,
    Z: frozenset[int],
    ext_cap: int,
) -> list[MsaType]:
    """Abstract msa patterns with base the induced structure on Z, deduplicated."""
    sig = S.signature
    base_struct = S.induced(Z)
    out: dict[tuple, MsaType] = {}
    next_id = (max(S.vertices) if S.vertices else 0) + 1
    for w in range(1, ext_cap + 1):
        ext = list(range(next_id, next_id + w))
        pool: list[tuple[str, tuple[int, ...]]] = []
        allv = sorted(Z) + ext
        for rel in sig.relations:
            for combo in itertools.combinations(allv, rel.arity):
                if set(combo) & set(ext):
                    pool.append((rel.name, combo))
        for sel in range(1, 1 << len(pool)):
            inst: dict[str, list[tuple[int, ...]]] = {r.name: [] for r in sig.relations}
            for name, tups in base_struct.instances.items():
                inst[name].extend(tups)
            for k in range(len(pool)):
                if sel >> k & 1:
                    name, combo = pool[k]
                    inst[name].append(combo)
            cand = FiniteStructure(sig, allv, inst)
            try:
                if not is_msa(cand, Z, frozenset(allv)):
                    continue
            except (InputError, CapacityError):
                continue
            t = MsaType(cand, frozenset(Z), pinned=True)
            out.setdefault(t.key(), t)
    return sorted(out.values(), key=lambda t: t.key())


def check_potential_extendability(
    S: FiniteStructure,
    pmap: PartialMap,
    base_cap: int = 3,
    ext_cap: int = 2,
    saturation: int = DEFAULT_SATURATION,
) -> VerificationReport:
    """Compare ambient-relative msa multiplicities across a partial map.

    Counts at or above the saturation threshold compare as SATURATED-equal,
    the finite stand-in for equal infinite multiplicities; every such case
    says so in its note.  Domain and image must be self-sufficient in S.
    """
    rep = VerificationReport(suite="potential-extendability")
    pmap.validate(S)
    k = pmap.mapping
    dom, img = pmap.domain, pmap.image
    for name, side in (("domain", dom), ("image", img)):
        ok, wit = self_sufficient(S, side)
        if not ok:
            raise ContractError(f"{name} is not self-sufficient in the ambient")
    case_i = 0
    for zsize in range(1, base_cap + 1):
        for zc in itertools.combinations(sorted(dom), zsize):
            Z = frozenset(zc)
            Z2 = frozenset(k[v] for v in Z)
            for t in enumerate_msa_patterns_over(S, Z, ext_cap):
                mapped_pattern = t.pattern.relabel(
                    {v: k.get(v, v) for v in t.pattern.vertices}
                )
                t2 = MsaType(mapped_pattern, Z2, pinned=True)
                c1 = count_msa_copies(S, dom, t, pin={v: v for v in Z})
                c2 = count_msa_copies(S, img, t2, pin={v: v for v in Z2})
                case_i += 1
                key = f"type{case_i:03d}:Z={subset_witness(Z)}:ext{len(t.new_points)}"
                if c1.count >= saturation and c2.count >= saturation:
                    rep.add(key, PASS, note=f"SATURATED (both >= {saturation})")
                elif c1.count == c2.count:
                    rep.add(key, PASS, note=f"mult {c1.count} both sides")
                else:
                    rep.add(
                        key,
                        FAIL,
                        witness=f"mult {c1.count} vs {c2.count}; copies "
                        f"{[sorted(c) for c in c1.copies]} vs {[sorted(c) for c in c2.copies]}",
                    )
    if case_i == 0:
        rep.add("no-types", PASS, note=f"no msa types up to ext size {ext_cap}")
    return rep.finalize()
