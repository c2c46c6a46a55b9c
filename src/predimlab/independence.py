"""d-independence and the perp relation, relative to a finite ambient.

All predicates are ambient-relative: dimensions and d-closures are computed
inside the given finite structure and claim nothing about an infinite limit.
The axiom suite tests compatibility and monotonicity of d-independence over
d-closed subsets, exhaustively up to a size cap; the Lemma 4.3 pass tests
the three-condition characterization against it.  Symmetry and transitivity
hold by the dim-table identity alone (see :func:`_independent_in`), so their
cases are recorded without a pass; they stay in the report until the
``axioms`` digest moves for the vacuous cases and for stationarity.
Monotonicity holds on every monotone, submodular dim table, and with it
compatibility when its d-closures are its zero set (:func:`axiom_suite`).
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
    popcounts,
    self_sufficient,
)
from .errors import CapacityError, ContractError
from .reports import VerificationReport, subset_witness
from .structures import FiniteStructure

# most cells of axiom_suite's (vertex, B, C) compatibility table, checked
# before it is built: 4.1 M cells peaked at 103 MiB on 16 vertices
COMPAT_CELL_CAP = 8_000_000


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


def _monotone_submodular(dt) -> bool:
    """dt[X] <= dt[X|i] and dt[X|i] - dt[X] >= dt[X|i|j] - dt[X|j] for every
    mask X and points i, j: these single-point steps give both for all sets."""
    masks = np.arange(len(dt))
    for i in range(len(dt).bit_length() - 1):
        gain = dt[masks | 1 << i] - dt[masks & ~(1 << i)]
        if (gain < 0).any() or any((gain < gain[masks | 1 << j]).any() for j in range(i)):
            return False
    return True


def _closure_is_zero_set(dt, cl) -> bool:
    """cl[X] is X plus every point v with dt[X|v] == dt[X], for every mask X."""
    masks = np.arange(len(dt))
    zero = sum((dt[masks | 1 << i] == dt) << i for i in range(len(dt).bit_length() - 1))
    return bool(((masks | zero) == cl).all())


def axiom_suite(S: FiniteStructure, size_cap: int = 3) -> VerificationReport:
    """Exhaustive independence-axiom check over d-closed subsets of S.

    Tests compatibility and monotonicity of d-independence, and records
    symmetry and transitivity, which hold by the identity.  Monotonicity
    quantifies a fourth set D.  On a monotone, submodular dim table d(A over
    X) is antitone in X, so where d(A over BC) differs from d(A over B) it is
    below it, d(A over BCD) is no larger, and no quadruple can fail: only a
    table that fails :func:`_monotone_submodular` enumerates quadruples.

    Compatibility follows on such a table when cld is its zero set
    (:func:`_closure_is_zero_set`): each v in cld(X) adds nothing to dim at
    X, so by submodularity and monotonicity nothing at any Y containing X.
    The identity's dims sit above B, those at ABC and AB above AB, so B to
    cld(B) or A to cld(AB) moves none; and X -> dim(X | C) - dim(X) falls
    from B to cld(AB), equal at both ends, so independence passes to each
    element.  Engine tables pass, their cld being the greatest minimizer.
    """
    rep = VerificationReport(suite="axioms")
    n = len(S.vertices)
    if n == 0:
        for key in ("compatibility", "monotonicity", "transitivity", "symmetry"):
            rep.check(key, None, note="empty ambient, vacuous")
        return rep.finalize()
    dt, cl = dim_cld_tables(S)
    sets = np.array(d_closed_subset_masks(S, size_cap=size_cap), dtype=np.int64)
    # the identity reads the same with A and C swapped, so symmetry holds
    # whatever the table holds
    rep.check("symmetry", None, note=f"{len(sets)} d-closed sets (size cap {size_cap})")
    ordered = _monotone_submodular(dt)
    comp_bad = (None if ordered and _closure_is_zero_set(dt, cl)
                else _compatibility_failure(dt, cl, sets, n, size_cap))
    rep.check("compatibility", None if comp_bad is None else _sets_witness(S, comp_bad[:3]),
              note="" if comp_bad is None else comp_bad[3])

    # Monotonicity and transitivity quantify a fourth set.  Write over(X) for
    # d(A over X).  A is independent of CD over B when over(BCD) = over(B),
    # of C over B when over(BC) = over(B), and of D over BC when over(BCD) =
    # over(BC).  Where over(BC) = over(B) the first holds exactly when the
    # last two both do, so neither axiom can fail there.  Elsewhere both of
    # the last two cannot hold, so transitivity cannot fail at all: its case
    # is a PASS by this equality alone.  Monotonicity fails exactly where
    # over(BCD) = over(B); a table out of order takes D on those (B, C)
    # pairs, in row-major order, which keeps the first witness.
    mono_bad = None
    if not ordered:
        bc = sets[:, None] | sets[None, :]
        dt_b, dt_bc = dt[sets], dt[bc]
        for a in sets.tolist():
            over_b = dt[a | sets] - dt_b
            bi, ci = np.nonzero(dt[a | bc] - dt_bc != over_b[:, None])
            bcd = bc[bi, ci][:, None] | sets
            hits = np.argwhere(dt[bcd | a] - dt[bcd] == over_b[bi, None])
            if len(hits):
                p, d = hits[0]
                mono_bad = (a, int(sets[bi[p]]), int(sets[ci[p]]), int(sets[d]))
                break
    rep.check("monotonicity", None if mono_bad is None else _sets_witness(S, mono_bad))
    rep.check("transitivity", None)
    return rep.finalize()


def _compatibility_failure(dt, cl, sets, n: int, size_cap: int):
    """The first (a, b, c, label) where compatibility fails, or None.

    Replacing the base by its d-closure, or the left side by its d-closure
    over the base, never changes independence; and joint independence
    passes to every element of that closure.  The converse of the last is
    not tested: a finite fragment (two singletons each independent from C
    while the pair is not) need not hold the points that would show the
    joint dependence.  Each A checks every (B, C) at once; the element-wise
    clause does not depend on A, so its (vertex, B, C) table is built first,
    after a check against :data:`COMPAT_CELL_CAP` (``CapacityError``).
    """
    small = np.flatnonzero(popcounts(n) <= size_cap)
    cells = n * len(small) * len(sets)
    if cells > COMPAT_CELL_CAP:
        raise CapacityError("axiom compatibility table cells", COMPAT_CELL_CAP, cells)
    bb, cc = small[:, None], sets[None, :]
    bcl = cl[bb]
    bit = np.arange(n)[:, None]
    elem = _independent_in(dt, 1 << bit[:, :, None], bb, cc)  # (vertex, B, C)
    for a in sets.tolist():
        acl = cl[a | small]
        base = _independent_in(dt, a, bb, cc)
        in_acl = (acl >> bit & 1).astype(bool)[:, :, None]
        fails = (
            ("closed base", base != _independent_in(dt, a, bcl, cc)),
            ("closure of a over base", base != _independent_in(dt, acl[:, None], bb, cc)),
            ("joint independence must pass to closure elements",
             base & (in_acl & ~elem).any(axis=0)),
        )
        rows = np.flatnonzero(np.any([f.any(axis=1) for _, f in fails], axis=0))
        if len(rows):
            bi = rows[0]
            label, f = next((label, f) for label, f in fails if f[bi].any())
            return a, int(small[bi]), int(sets[np.argmax(f[bi])]), label
    return None


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


def _sets_witness(S: FiniteStructure, masks) -> str:
    """The subsets of a failing triple or quadruple, labelled A, B, C, D."""
    return " ".join(f"{label}={subset_witness(S.ids_of(m))}" for label, m in zip("ABCD", masks))
