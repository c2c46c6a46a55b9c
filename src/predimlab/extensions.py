"""Simply algebraic extensions, their minimal bases, copy counting, and the
enumeration of msa pairs inside a finite structure.

An extension Z of Y is simply algebraic (sa) when the relative predimension
of Y over Z is zero and strictly negative over every intermediate set; it is
minimally simply algebraic (msa) when no proper subset of the base supports
the same extension.  A base point survives minimization exactly when it
shares a weighted instance with a new point, which gives a direct base
extraction instead of a subset search.

Copy counts are ambient-relative: a count says how many copies lie inside
the given finite structure, not what a generic limit would hold.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .closures import delta_table, popcounts
from .errors import CapacityError, ContractError, InputError
from .structures import (
    FiniteStructure,
    delta_rel,
    _ascending_steps,
    _bits,
    _mask,
    _rooted_key,
    _search,
    _search_steps,
)

DEFAULT_EXT_CAP = 12
MSA_PAIR_CAP = 16
MSA_PAIR_CHUNK = 1 << 15  # (W, Z) rows expanded at once by enumerate_msa_pairs


def is_simply_algebraic(S: FiniteStructure, Z: Iterable[int], Y: Iterable[int]) -> bool:
    """delta(Y/Z) = 0 and delta(Y/Z1) < 0 for every intermediate Z1."""
    zs, ys = S.subset(Z), S.subset(Y)
    if not zs < ys:
        raise InputError("need Z strictly inside Y")
    new = sorted(ys - zs)
    if len(new) > DEFAULT_EXT_CAP:
        raise CapacityError("sa intermediate enumeration", DEFAULT_EXT_CAP, len(new))
    if delta_rel(S, new, zs) != 0:
        return False
    for k in range(1, len(new)):
        for picked in itertools.combinations(new, k):
            z1 = zs | set(picked)
            if delta_rel(S, ys, z1) >= 0:
                return False
    return True


def _touching(S: FiniteStructure, zmask: int, wmask: int) -> int:
    """Positions of Z sharing a weighted instance inside Z union W with W."""
    whole = zmask | wmask
    out = 0
    for m, _ in S.bit_index().weighted:
        if m & wmask and m & ~whole == 0:
            out |= m
    return out & zmask


def is_msa(S: FiniteStructure, Z: Iterable[int], Y: Iterable[int]) -> bool:
    """Simply algebraic with every base point attached to a new point."""
    zs, ys = S.subset(Z), S.subset(Y)
    if not is_simply_algebraic(S, zs, ys):
        return False
    return S.ids_of(_touching(S, S.mask_of(zs), S.mask_of(ys - zs))) == zs


def msa_base(
    S: FiniteStructure, Z: Iterable[int], Y: Iterable[int]
) -> tuple[frozenset[int], frozenset[int]]:
    """Minimal base of a simply algebraic pair: (Z1, Y1 = Z1 + new points).

    The input must be sa; the output pair always satisfies :func:`is_msa`,
    and Y decomposes as the free amalgam of Z and Y1 over Z1.
    """
    zs, ys = S.subset(Z), S.subset(Y)
    if not is_simply_algebraic(S, zs, ys):
        raise ContractError("msa_base needs a simply algebraic input pair")
    new = ys - zs
    z1 = S.ids_of(_touching(S, S.mask_of(zs), S.mask_of(new)))
    y1 = z1 | new
    if not is_msa(S, z1, y1):
        raise ContractError("extracted base failed the msa check")
    return z1, y1


@dataclass(frozen=True)
class MsaType:
    """An msa pair as a standalone pattern with a distinguished base."""

    pattern: FiniteStructure
    base: frozenset[int]

    def __post_init__(self):
        if not self.base <= set(self.pattern.vertices):
            raise InputError("base must be a subset of the pattern")

    @property
    def new_points(self) -> frozenset[int]:
        return frozenset(self.pattern.vertices) - self.base

    def key(self) -> tuple:
        return _rooted_key(self.pattern, self.base)


@dataclass(frozen=True)
class CopyCount:
    count: int
    copies: tuple[frozenset[int], ...]  # the new-point sets, base excluded
    disjoint_over_base: bool


def count_msa_copies(S: FiniteStructure, A: Iterable[int], t: MsaType) -> CopyCount:
    """Distinct sa extensions of A realizing the msa type, counted inside S.

    The type must share the signature of S.  Every placement of the base
    inside A is searched.  A copy is the image of an induced embedding of
    the pattern over a placement whose new points lie outside A and share
    no instance inside A union the image with the rest of A.  Copies are
    the new-point sets; when A is self-sufficient in S they are pairwise
    disjoint and relation-free over each other.
    """
    if t.pattern.signature != S.signature:
        raise InputError("the type's signature differs from the structure's")
    a_mask = S.mask_of(S.subset(A))
    if len(t.new_points) > DEFAULT_EXT_CAP:
        raise CapacityError("msa copy search", DEFAULT_EXT_CAP, len(t.new_points))
    base = t.pattern.induced(t.base)
    placements = _search(S, base, {}, _ascending_steps(base), within=[a_mask] * len(t.base))
    placed = t.pattern.mask_of(t.base)
    base_positions, ext = list(_bits(placed)), list(_bits(t.pattern.full_mask() & ~placed))
    steps = _search_steps(t.pattern, placed, [(i, True) for i in ext])
    through = S.bit_index().through
    copies: set[int] = set()
    for key in placements:
        rest = a_mask & ~_mask(key)
        for emb in _search(S, t.pattern, dict(zip(base_positions, key)), steps,
                           keep=lambda img: img & rest == 0):  # new points outside A
            new = _mask(emb[i] for i in ext)
            scope = a_mask | new
            if not any(m & rest and m & ~scope == 0 for i in _bits(new) for _, m in through[i]):
                copies.add(new)
    copies_t = tuple(sorted((S.ids_of(m) for m in copies), key=sorted))
    return CopyCount(len(copies_t), copies_t, _copies_disjoint(S, a_mask, copies))


def _copies_disjoint(S: FiniteStructure, a_mask: int, copies: Iterable[int]) -> bool:
    """No two copies meet, or share an instance inside A and the two copies."""
    through = S.bit_index().through
    for w1, w2 in itertools.combinations(copies, 2):
        scope = a_mask | w1 | w2
        if w1 & w2 or any(m & w2 and m & ~scope == 0 for i in _bits(w1) for _, m in through[i]):
            return False
    return True


# -- enumeration of msa pairs inside a structure -------------------------------------


def _submask_rows(masks: np.ndarray, pc: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every submask of every mask, one row each: the index of its mask in
    ``masks`` and the submask, ascending within each mask.

    A mask's k-th submask deposits the bits of k into the mask's set bits,
    low to high, one set bit of every mask per pass.  ``pc`` is a popcount
    table covering the masks.
    """
    counts = 1 << pc[masks]
    owner = np.repeat(np.arange(len(masks)), counts)
    k = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    sub = np.zeros_like(k)
    rest = masks.copy()
    while rest.any():
        low = rest & -rest  # the next set bit of each mask, or 0 once it has none left
        sub |= (k & 1) * np.repeat(low, counts)
        k >>= 1
        rest ^= low
    return owner, sub


def _chunks(counts: np.ndarray) -> Iterator[slice]:
    """Consecutive slices whose counts sum to at most MSA_PAIR_CHUNK, or to
    one entry each where a single count is larger."""
    ends = np.cumsum(counts)
    start = 0
    while start < len(counts):
        before = int(ends[start - 1]) if start else 0
        stop = max(start + 1, int(np.searchsorted(ends, before + MSA_PAIR_CHUNK, "right")))
        yield slice(start, stop)
        start = stop


def enumerate_msa_pairs(
    S: FiniteStructure,
    max_new: int | None = None,
    straddle: tuple[frozenset[int], frozenset[int]] | None = None,
) -> Iterator[tuple[frozenset[int], frozenset[int]]]:
    """All msa pairs (base Z, new part W) inside S, by direct enumeration.

    A pair qualifies when delta(W/Z) = 0, every intermediate set is strictly
    negative, and every base point touches W through a weighted instance.
    ``straddle=(P, Q)`` keeps only bases meeting both P-P∩Q and Q-P∩Q.

    Pairs come in ascending W, then ascending Z.  The candidate bases of W
    are the submasks of ``touch``, the points outside W sharing a weighted
    instance with it.  Each chunk of W values, cut so that it expands to at
    most MSA_PAIR_CHUNK (W, Z) rows, is filtered with whole-array passes
    over the delta table: straddle, delta(Z|W) = delta(Z), the touching
    condition, then every proper nonempty submask of W strictly above.
    """
    n = len(S.vertices)
    if n > MSA_PAIR_CAP:
        raise CapacityError("msa pair enumeration", MSA_PAIR_CAP, n)
    weighted = [m for m, _ in S.bit_index().weighted]
    dtab = delta_table(S)
    pc = popcounts(n)
    if straddle:
        p_mask, q_mask = S.mask_of(straddle[0]), S.mask_of(straddle[1])

    def straddles(zmask: np.ndarray) -> np.ndarray:
        return ((zmask & (p_mask & ~q_mask)) != 0) & ((zmask & (q_mask & ~p_mask)) != 0)

    w = np.arange(1, 1 << n, dtype=np.int64)
    if max_new is not None:
        w = w[pc[w] <= max_new]
    touch = np.zeros_like(w)
    for m in weighted:
        touch |= np.where(w & m != 0, m & ~w, 0)
    if straddle:
        keep = straddles(touch)
        w, touch = w[keep], touch[keep]
    for part in _chunks(1 << pc[touch]):
        owner, z = _submask_rows(touch[part], pc)
        wz = w[part][owner]
        if straddle:
            keep = straddles(z)
            z, wz = z[keep], wz[keep]
        whole = z | wz
        keep = dtab[whole] == dtab[z]
        z, wz, whole = z[keep], wz[keep], whole[keep]
        touched = np.zeros_like(z)
        for m in weighted:
            touched |= np.where((wz & m != 0) & (whole & m == m), m, 0)
        keep = touched & z == z
        z, wz, whole = z[keep], wz[keep], whole[keep]
        for rows in _chunks(1 << pc[wz]):
            zr, wr, level = z[rows], wz[rows], dtab[whole[rows]]
            row, sub = _submask_rows(wr, pc)
            not_above = (sub != 0) & (sub != wr[row]) & (dtab[zr[row] | sub] <= level[row])
            minimal = np.bincount(row, weights=not_above, minlength=len(wr)) == 0
            for zmask, wmask in zip(zr[minimal].tolist(), wr[minimal].tolist()):
                yield S.ids_of(zmask), S.ids_of(wmask)
