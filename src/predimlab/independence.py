"""d-independence and the perp relation, relative to a finite ambient.

All predicates are ambient-relative: dimensions and d-closures are computed
inside the given finite structure and claim nothing about an infinite limit.
The axiom suite tests compatibility, monotonicity, transitivity and symmetry
of d-independence over d-closed subsets, exhaustively up to a size cap.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .closures import (
    cld,
    d_closed_subset_masks,
    dim,
    dim_cld_tables,
    popcounts,
    self_sufficient,
)
from .errors import ContractError
from .reports import PARTIAL, VerificationReport, subset_witness
from .structures import FiniteStructure

# most quadruples of d-closed sets axiom_suite enumerates; above it the
# fourth set is cut to a prefix and the two axioms that need it are PARTIAL
QUAD_LIMIT = 400_000_000


def d_independent(
    S: FiniteStructure, A: Iterable[int], B: Iterable[int], C: Iterable[int]
) -> bool:
    """d(A over B union C) equals d(A over B), computed in S."""
    a, b, c = S.subset(A), S.subset(B), S.subset(C)
    return dim(S, a | b | c) - dim(S, b | c) == dim(S, a | b) - dim(S, b)


def check_lemma43_characterization(
    S: FiniteStructure,
    A: Iterable[int],
    B: Iterable[int],
    C: Iterable[int],
) -> bool:
    """Three-condition characterization of d-independence over a common part.

    Requires A, B, C d-closed with B inside both A and C.  The conditions:
    the d-closures of AB and BC split freely over B (:func:`lemma43_free_split`)
    and their union is self-sufficient in the ambient.
    """
    a, b, c = S.subset(A), S.subset(B), S.subset(C)
    for name, x in (("A", a), ("B", b), ("C", c)):
        if cld(S, x) != x:
            raise ContractError(f"{name} must be d-closed in the ambient")
    if not (b <= a and b <= c):
        raise ContractError("B must be contained in A and in C")
    u = cld(S, a | b)
    v = cld(S, b | c)
    return (
        bool(lemma43_free_split(S, S.mask_of(u), S.mask_of(v), S.mask_of(b)))
        and self_sufficient(S, u | v)[0]
    )


def lemma43_free_split(S: FiniteStructure, u, v, b):
    """Masks u and v meet exactly in b, and no instance inside u|v meets both
    u-minus-b and v-minus-b.

    The masks are ints, or int64 arrays of one shape answered entry by entry.
    Zero-weight relations are ignored, as in delta: they never bind.
    """
    dtype = np.int64 if len(S.vertices) < 64 else object
    ims = np.array([im for im, _ in S.bit_index().weighted], dtype=dtype)
    u, v, b = (np.asarray(x, dtype=dtype)[..., None] for x in (u, v, b))
    union, uu, vv = u | v, u & ~b, v & ~b
    straddles = ((ims & ~union) == 0) & ((ims & uu) != 0) & ((ims & vv) != 0)
    return ((u & v) == b)[..., 0] & ~straddles.any(axis=-1)


def perp(
    S: FiniteStructure,
    b: Iterable[int],
    A: Iterable[int],
    C: Iterable[int],
) -> bool:
    """b is d-independent from C over A and its closure splits off C freely."""
    bset, aset, cset = S.subset(b), S.subset(A), S.subset(C)
    if not aset <= cset:
        raise ContractError("perp needs A contained in C")
    for name, x in (("A", aset), ("C", cset)):
        if cld(S, x) != x:
            raise ContractError(f"{name} must be d-closed in the ambient")
    if not d_independent(S, bset, aset, cset):
        return False
    return cld(S, bset | cset) == cld(S, bset | aset) | cset


# -- axiom suite -----------------------------------------------------------------


def axiom_suite(S: FiniteStructure, size_cap: int = 3) -> VerificationReport:
    """Exhaustive independence-axiom check over d-closed subsets of S.

    Tests compatibility, monotonicity, transitivity and symmetry of
    d-independence; the two axioms quantifying a fourth set enumerate
    quadruples, falling back to a deterministic prefix of the d-closed sets
    (status PARTIAL) if the quadruple count would exceed :data:`QUAD_LIMIT`.
    """
    rep = VerificationReport(suite="axioms")
    n = len(S.vertices)
    if n == 0:
        for key in ("compatibility", "monotonicity", "transitivity", "symmetry"):
            rep.check(key, None, note="empty ambient, vacuous")
        return rep.finalize()
    dt, cl = dim_cld_tables(S)
    closed = d_closed_subset_masks(S, size_cap=size_cap)
    sets = np.array(closed, dtype=np.int64)
    k = len(sets)

    def ind_matrix(a, b, c):
        return dt[a | b | c] + dt[b] == dt[a | b] + dt[b | c]

    # Symmetry and compatibility run over triples.
    sym_bad = None
    comp_bad = None

    for ai in range(k):
        a = int(sets[ai])
        bb = sets[:, None]
        cc = sets[None, :]
        lhs = ind_matrix(a, bb, cc)
        rhs = ind_matrix(cc, bb, a)
        if not np.array_equal(lhs, rhs):
            bi, ci = np.argwhere(lhs != rhs)[0]
            sym_bad = (a, int(sets[bi]), int(sets[ci]))
            break
    rep.check(
        "symmetry",
        None if sym_bad is None else _sets_witness(S, sym_bad),
        note=f"{k} d-closed sets (size cap {size_cap})",
    )

    # Compatibility, ambient-relative restatement.  Replacing the base by its
    # d-closure, or the left side by its d-closure over the base, never
    # changes independence; and joint independence passes to every element of
    # that closure.  The converse of the element-wise clause is not tested:
    # it can fail in a finite fragment (two singletons each independent from
    # C while the pair is not) because the entangling points it would take to
    # detect the joint dependence need not exist in the fragment.
    # Each A checks every (B, C) at once; the element-wise clause does not
    # depend on A, so it is tabulated per vertex up front.
    small = np.arange(1 << n, dtype=np.int64)
    small = small[popcounts(n) <= size_cap]
    bb, cc = small[:, None], sets[None, :]
    bcl = cl[bb]
    bit = np.arange(n)[:, None]
    elem = ind_matrix(1 << bit[:, :, None], bb, cc)  # (vertex, B, C)
    for a in sets.tolist():
        acl = cl[a | small]
        base = ind_matrix(a, bb, cc)
        in_acl = (acl >> bit & 1).astype(bool)[:, :, None]
        fails = (
            ("closed base", base != ind_matrix(a, bcl, cc)),
            ("closure of a over base", base != ind_matrix(acl[:, None], bb, cc)),
            ("joint independence must pass to closure elements",
             base & (in_acl & ~elem).any(axis=0)),
        )
        rows = np.flatnonzero(np.any([f.any(axis=1) for _, f in fails], axis=0))
        if len(rows):
            bi = rows[0]
            label, f = next((label, f) for label, f in fails if f[bi].any())
            comp_bad = (a, int(small[bi]), int(sets[np.argmax(f[bi])]), label)
            break
    rep.check(
        "compatibility",
        None if comp_bad is None else _sets_witness(S, comp_bad[:3]),
        note="" if comp_bad is None else comp_bad[3],
    )

    # Monotonicity and transitivity quantify a fourth set.
    d_sets = sets
    partial_note = ""
    if k ** 4 > QUAD_LIMIT:
        keep = max(2, int((QUAD_LIMIT / max(k, 1)) ** (1 / 3)))
        d_sets = sets[:keep]
        partial_note = f"fourth set limited to first {keep} of {k} d-closed sets"
    # Write over(X) for d(A over X).  A is independent of CD over B when
    # over(BCD) = over(B), of C over B when over(BC) = over(B), and of D over
    # BC when over(BCD) = over(BC).  Where over(BC) = over(B) the first
    # holds exactly when the last two both do, so neither axiom can fail
    # there.  Only the (B, C) pairs where over(BC) differs from over(B) take
    # the fourth set, in row-major order, which keeps the first witness.
    # There both of the last two cannot hold, so monotonicity fails exactly
    # where over(BCD) = over(B), and transitivity cannot fail at all: its
    # case is a PASS (or PARTIAL) by this equality alone.
    mono_bad = None
    bc = sets[:, None] | sets[None, :]
    dt_b, dt_bc = dt[sets], dt[bc]
    for a in sets.tolist():
        over_b = dt[a | sets] - dt_b
        bi, ci = np.nonzero(dt[a | bc] - dt_bc != over_b[:, None])
        if not len(bi):
            continue
        bcd = bc[bi, ci][:, None] | d_sets
        over_bcd = dt[bcd | a]
        over_bcd -= dt[bcd]
        hit = over_bcd == over_b[bi, None]
        rows = np.flatnonzero(hit.any(axis=1))
        if len(rows):
            p = rows[0]
            mono_bad = (a, int(sets[bi[p]]), int(sets[ci[p]]), int(d_sets[np.argmax(hit[p])]))
            break
    for key, bad in (("monotonicity", mono_bad), ("transitivity", None)):
        if bad is None and partial_note:
            rep.add(key, PARTIAL, note=partial_note)
        else:
            rep.check(key, None if bad is None else _sets_witness(S, bad))
    return rep.finalize()


def _sets_witness(S: FiniteStructure, masks) -> str:
    """The subsets of a failing triple or quadruple, labelled A, B, C, D."""
    return " ".join(f"{label}={subset_witness(S.ids_of(m))}" for label, m in zip("ABCD", masks))
