"""d-independence and the perp relation, relative to a finite ambient.

All predicates are ambient-relative: dimensions and d-closures are computed
inside the given finite structure and claim nothing about an infinite limit.
The axiom suite decides compatibility and monotonicity of d-independence
over every d-closed subset from two checks on the dim table: its order
(monotone and submodular) and its d-closures as its zero set; each FAIL
names the check's first violation (:func:`axiom_suite`).  Symmetry and
transitivity hold by the dim-table identity alone (see
:func:`_independent_in`), so their cases are recorded without a check; they
stay in the report until the ``axioms`` digest moves for the vacuous cases
and for stationarity.  The Lemma 4.3 pass tests the three-condition
characterization against the table, exhaustively up to a size cap.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .closures import (
    cld,
    d_closed_subset_masks,
    delta_table,
    dim,
    dim_cld_tables,
    self_sufficient,
)
from .errors import ContractError
from .reports import VerificationReport, subset_witness
from .structures import FiniteStructure


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


def _independent_in(dt, a, b, c):
    """A is d-independent from C over B, read off the dim table ``dt``:
    d(ABC) + d(B) = d(AB) + d(BC).

    The masks are ints or int64 arrays, broadcast against each other.
    """
    return dt[a | b | c] + dt[b] == dt[a | b] + dt[b | c]


def _monotone_submodular(dt, monotone=True):
    """The first (X, i, j), j <= i and X holding neither point, with
    dt[X|i] - dt[X] < dt[X|i|j] - dt[X|j]; None when there is none.

    At j == i the right side is 0 and the step reads dt[X|i] < dt[X], so a
    table with no such triple is monotone and submodular on single-point
    steps, which give both for all sets.  With ``monotone`` false the j == i
    step is skipped and the check is submodularity alone.
    """
    masks = np.arange(len(dt))
    for i in range(len(dt).bit_length() - 1):
        gain = dt[masks | 1 << i] - dt[masks & ~(1 << i)]
        for j in (i, *range(i)) if monotone else range(i):
            # gain is the same with or without i, and equal at X and X|j
            # when j is in X, so the first bad mask holds neither point
            bad = gain < (0 if j == i else gain[masks | 1 << j])
            if bad.any():
                return int(np.argmax(bad)), i, j
    return None


def _closure_is_zero_set(dt, cl):
    """The first (X, v) where cl[X] differs from X plus every point v with
    dt[X|v] == dt[X], at the lowest such v; None when there is none."""
    masks = np.arange(len(dt))
    zero = sum((dt[masks | 1 << i] == dt) << i for i in range(len(dt).bit_length() - 1))
    bad = (masks | zero) != cl
    if not bad.any():
        return None
    x = int(np.argmax(bad))
    diff = int((x | zero[x]) ^ cl[x])
    return x, (diff & -diff).bit_length() - 1


def axiom_suite(S: FiniteStructure, size_cap: int = 3) -> VerificationReport:
    """The independence axioms over the d-closed subsets of S, decided by two
    checks on its dim table: monotonicity FAILs exactly when the order
    check fails, compatibility when either check fails, and each witness is
    that check's first violation.

    On a monotone, submodular table (:func:`_monotone_submodular`) d(A over
    X) is antitone in X, so where d(A over BC) differs from d(A over B) it
    is below it, d(A over BCD) is no larger, and monotonicity holds for
    every D.  Transitivity cannot fail on any table: its conclusion d(A over
    BCD) = d(A over B) follows from its premises by equality alone.
    Symmetry holds as the identity reads the same with A and C swapped.

    Compatibility follows on such a table when cld is its zero set
    (:func:`_closure_is_zero_set`): each v in cld(X) adds nothing to dim at
    X, so by submodularity and monotonicity nothing at any Y containing X.
    The identity's dims sit above B, those at ABC and AB above AB, so B to
    cld(B) or A to cld(AB) moves none; and X -> dim(X | C) - dim(X) falls
    from B to cld(AB), equal at both ends, so independence passes to each
    element.  Engine tables pass, their cld being the greatest minimizer.
    """
    rep = VerificationReport(suite="axioms")
    if not S.vertices:
        for key in ("compatibility", "monotonicity", "transitivity", "symmetry"):
            rep.check(key, None, note="empty ambient, vacuous")
        return rep.finalize()
    dt, cl = dim_cld_tables(S)
    sets = d_closed_subset_masks(S, size_cap=size_cap)
    rep.check("symmetry", None, note=f"{len(sets)} d-closed sets (size cap {size_cap})")
    step = _monotone_submodular(dt)
    if step is not None:
        x, i, j = step
        order = f"X={subset_witness(S.ids_of(x))} i={S.vertices[i]} j={S.vertices[j]}"
        rep.check("compatibility", order, note="dim table out of order")
        rep.check("monotonicity", order, note="dim table out of order")
    else:
        stray = _closure_is_zero_set(dt, cl)
        rep.check("compatibility", None if stray is None else
                  f"X={subset_witness(S.ids_of(stray[0]))} v={S.vertices[stray[1]]}",
                  note="" if stray is None else "cld is not the dim table's zero set")
        rep.check("monotonicity", None)
    rep.check("transitivity", None)
    return rep.finalize()


def _lemma43_equivalence_exhaustive(S: FiniteStructure, size_cap: int = 4) -> tuple[int, tuple | None]:
    """Count admissible d-closed triples; return first disagreement (or None).

    Triples run A, then C, then B over the d-closed sets in ascending order,
    with B inside A and C; each A checks all its (C, B) pairs in one pass.
    Containment is tabulated once, so each A gathers its pairs from the sets
    B inside it and the sets C above each such B, and then sorts them back
    to (C, B) order.
    """
    dt, cl = dim_cld_tables(S)
    dtab = delta_table(S)
    sets = np.array(d_closed_subset_masks(S, size_cap=size_cap), dtype=np.int64)
    inside = (sets[:, None] & ~sets) == 0  # [i, j]: set i inside set j
    above = [np.flatnonzero(row) for row in inside]
    checked = 0
    for amask, below in zip(sets.tolist(), inside.T):
        bs = np.flatnonzero(below)
        ci = np.concatenate([above[j] for j in bs])
        bi = np.repeat(bs, [len(above[j]) for j in bs])
        # bi ascends already, so a stable sort by C gives the (C, B) order
        order = np.argsort(ci, kind="stable")
        c, b = sets[ci[order]], sets[bi[order]]
        indep = _independent_in(dt, amask, b, c)
        u = cl[amask | b]
        v = cl[b | c]
        split = lemma43_free_split(S, u, v, b)
        cond = split & (dt[u | v] == dtab[u | v])
        bad = np.flatnonzero(indep != cond)
        if len(bad):
            i = bad[0]
            # a failed split gives a plain False, as the short-circuit did
            cond_i = cond[i] if split[i] else False
            return checked + int(i) + 1, (amask, int(b[i]), int(c[i]), indep[i], cond_i)
        checked += len(b)
    return checked, None

