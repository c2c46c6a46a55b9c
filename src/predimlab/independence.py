"""d-independence and the perp relation, relative to a finite ambient.

All predicates are ambient-relative: dimensions and d-closures are computed
inside the given finite structure and claim nothing about an infinite limit.
The axiom suite tests compatibility, monotonicity, transitivity and symmetry
of d-independence over d-closed subsets, exhaustively up to a size cap.
"""

from __future__ import annotations

import functools
from typing import Iterable

import numpy as np

from .closures import (
    cld,
    cld_from_table,
    d_closed_subset_masks,
    dim,
    dim_table_cached,
    self_sufficient,
)
from .errors import ContractError
from .reports import FAIL, PARTIAL, PASS, VerificationReport, subset_witness
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
    debug: bool = False,
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
    result = (
        lemma43_free_split(S, S.mask_of(u), S.mask_of(v), S.mask_of(b))
        and self_sufficient(S, u | v)[0]
    )
    if debug:
        indep = d_independent(S, a, b, c)
        if indep != result:
            raise ContractError(
                f"characterization mismatch: independent={indep}, conditions={result}"
            )
    return result


def lemma43_free_split(S: FiniteStructure, u: int, v: int, b: int) -> bool:
    """Masks u and v meet exactly in b, and no instance inside u|v meets both
    u-minus-b and v-minus-b.

    Zero-weight relations are ignored, as in delta: they never bind.
    """
    if u & v != b:
        return False
    union, uu, vv = u | v, u & ~b, v & ~b
    return not any(
        im & ~union == 0 and im & uu and im & vv for im, _ in S.instance_masks()
    )


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


def axiom_suite(
    S: FiniteStructure,
    size_cap: int = 3,
    quad_limit: int = 400_000_000,
) -> VerificationReport:
    """Exhaustive independence-axiom check over d-closed subsets of S.

    Tests compatibility, monotonicity, transitivity and symmetry of
    d-independence; the two axioms quantifying a fourth set enumerate
    quadruples, falling back to a deterministic prefix of the d-closed sets
    (status PARTIAL) if the quadruple count would exceed ``quad_limit``.
    """
    rep = VerificationReport(suite="axioms")
    n = len(S.vertices)
    if n == 0:
        for key in ("compatibility", "monotonicity", "transitivity", "symmetry"):
            rep.add(key, PASS, note="empty ambient, vacuous")
        return rep.finalize()
    dt = dim_table_cached(S)
    closed = d_closed_subset_masks(S, size_cap=size_cap)
    sets = np.array(closed, dtype=np.int64)
    k = len(sets)

    def ind_matrix(a, b, c):
        return dt[a | b | c] + dt[b] == dt[a | b] + dt[b | c]

    # Symmetry and compatibility run over triples.
    sym_bad = None
    comp_bad = None
    cld_of = functools.cache(functools.partial(cld_from_table, dt))

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
    rep.add(
        "symmetry",
        PASS if sym_bad is None else FAIL,
        witness=None if sym_bad is None else _triple_witness(S, sym_bad),
        note=f"{k} d-closed sets (size cap {size_cap})",
    )

    # Compatibility, ambient-relative restatement.  Replacing the base by its
    # d-closure, or the left side by its d-closure over the base, never
    # changes independence; and joint independence passes to every element of
    # that closure.  The converse of the element-wise clause is not tested:
    # it can fail in a finite fragment (two singletons each independent from
    # C while the pair is not) because the entangling points it would take to
    # detect the joint dependence need not exist in the fragment.
    small_masks = [m for m in range(1 << n) if m.bit_count() <= size_cap]
    cvec = sets
    for a in map(int, sets):
        if comp_bad:
            break
        for b in small_masks:
            bcl = cld_of(b)
            acl = cld_of(a | b)
            base = ind_matrix(a, b, cvec)
            checks = (
                ("closed base", ind_matrix(a, bcl, cvec)),
                ("closure of a over base", ind_matrix(acl, b, cvec)),
            )
            bad_ci = None
            label = ""
            for label_, vec in checks:
                if not np.array_equal(base, vec):
                    bad_ci = int(np.argwhere(base != vec)[0][0])
                    label = label_
                    break
            if bad_ci is None:
                elementwise = np.ones(len(cvec), dtype=bool)
                for i in range(n):
                    if acl & (1 << i):
                        elementwise &= ind_matrix(1 << i, b, cvec)
                joint_without_elem = base & ~elementwise
                if joint_without_elem.any():
                    bad_ci = int(np.argwhere(joint_without_elem)[0][0])
                    label = "joint independence must pass to closure elements"
            if bad_ci is not None:
                comp_bad = (a, b, int(cvec[bad_ci]), label)
                break
    rep.add(
        "compatibility",
        PASS if comp_bad is None else FAIL,
        witness=None if comp_bad is None else _triple_witness(S, comp_bad[:3]),
        note="" if comp_bad is None else comp_bad[3],
    )

    # Monotonicity and transitivity quantify a fourth set.
    d_sets = sets
    partial_note = ""
    if k ** 4 > quad_limit:
        keep = max(2, int((quad_limit / max(k, 1)) ** (1 / 3)))
        d_sets = sets[:keep]
        partial_note = f"fourth set limited to first {keep} of {k} d-closed sets"
    mono_bad = None
    trans_bad = None
    for ai in range(k):
        a = int(sets[ai])
        bb = sets[:, None, None]
        cc = sets[None, :, None]
        dd = d_sets[None, None, :]
        i_b_cd = ind_matrix(a, bb, cc | dd)
        i_b_c = ind_matrix(a, bb, cc)
        i_bc_d = ind_matrix(a, bb | cc, dd)
        mono = ~i_b_cd | (i_b_c & i_bc_d)
        if not mono.all():
            bi, ci, di = np.argwhere(~mono)[0]
            mono_bad = (a, int(sets[bi]), int(sets[ci]), int(d_sets[di]))
        trans = ~(i_b_c & i_bc_d) | i_b_cd
        if not trans.all():
            bi, ci, di = np.argwhere(~trans)[0]
            trans_bad = (a, int(sets[bi]), int(sets[ci]), int(d_sets[di]))
        if mono_bad or trans_bad:
            break
    for key, bad in (("monotonicity", mono_bad), ("transitivity", trans_bad)):
        if bad is not None:
            rep.add(key, FAIL, witness=_quad_witness(S, bad))
        else:
            rep.add(key, PARTIAL if partial_note else PASS, note=partial_note)
    return rep.finalize()


def _triple_witness(S: FiniteStructure, triple) -> str:
    a, b, c = triple
    return (
        f"A={subset_witness(S.ids_of(a))} B={subset_witness(S.ids_of(b))} "
        f"C={subset_witness(S.ids_of(c))}"
    )


def _quad_witness(S: FiniteStructure, quad) -> str:
    a, b, c, d = quad
    return (
        f"A={subset_witness(S.ids_of(a))} B={subset_witness(S.ids_of(b))} "
        f"C={subset_witness(S.ids_of(c))} D={subset_witness(S.ids_of(d))}"
    )
