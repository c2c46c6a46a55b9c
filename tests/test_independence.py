import itertools

import pytest
from hypothesis import given, settings

from predimlab import (
    BuildConfig,
    ContractError,
    FiniteStructure,
    Relation,
    Signature,
    axiom_suite,
    build_generic,
    check_lemma43_characterization,
    d_independent,
    dim,
    graph,
    graph_signature,
    is_d_closed,
    perp,
)
from predimlab.builder import C0
from predimlab.closures import d_closed_subset_masks

from conftest import small_graphs


def test_d_independent_examples():
    P = graph([(0, 1), (1, 2)])
    assert d_independent(P, [0], [1], [2])
    T = graph([(0, 1), (1, 2), (0, 2)])
    assert not d_independent(T, [0], [1], [2])
    assert d_independent(T, [0], [1, 2], [2])  # C inside the base


@given(small_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_d_independent_matches_dim_identity(S):
    verts = list(S.vertices)
    sets = [frozenset(c) for k in range(3) for c in itertools.combinations(verts, k)]
    for a, b, c in itertools.product(sets[:12], repeat=3):
        lhs = d_independent(S, a, b, c)
        rhs = dim(S, a | b | c) + dim(S, b) == dim(S, a | b) + dim(S, b | c)
        assert lhs == rhs


def test_lemma43_examples():
    P = graph([(0, 1), (1, 2)])
    assert check_lemma43_characterization(P, [0, 1], [1], [1, 2], debug=True)
    assert check_lemma43_characterization(P, [0], [0], [0], debug=True)
    with pytest.raises(ContractError):
        T = graph([(0, 1), (1, 2), (0, 2)])
        check_lemma43_characterization(T, [0, 1], [1], [1, 2])  # A not d-closed


def test_lemma43_detects_edge_between_sides():
    T = graph([(0, 1), (1, 2), (0, 2)])
    # singletons are d-closed in a triangle; the edge between sides breaks freeness
    assert not check_lemma43_characterization(T, [0], [], [2], debug=True)


def test_lemma43_equivalence_on_built_approximants():
    res = build_generic(BuildConfig(graph_signature(2, 1), C0, 3, 6, seed=3))
    S = res.structure
    assert len(S.vertices) <= 12
    masks = d_closed_subset_masks(S, size_cap=3)
    sets = [S.ids_of(m) for m in masks]
    checked = 0
    for A in sets:
        for C in sets:
            inter = A & C
            for B in sets:
                if not B <= inter:
                    continue
                checked += 1
                assert check_lemma43_characterization(S, A, B, C) == d_independent(
                    S, A, B, C
                )
    assert checked > 100


def test_perp_examples():
    P = graph([(0, 1), (1, 2)])
    assert perp(P, [2], [0], [0])  # C equals A
    # free split: spoke vertex against a d-closed pair far away
    S = graph([(0, 1)], vertices=[0, 1, 2])
    assert perp(S, [2], [0, 1], [0, 1])


def test_perp_fails_when_closure_entangles():
    # b joined to C through a middle vertex: independence holds but the
    # closure of bC absorbs the middle vertex, breaking the free split
    P = graph([(0, 1), (1, 2)])
    C = frozenset({2})
    assert is_d_closed(P, C)
    assert d_independent(P, [0], [], C)
    assert not perp(P, [0], [], C)
    # a genuinely detached point splits freely
    S = graph([(0, 1)], vertices=[0, 1, 2])
    assert perp(S, [2], [], frozenset({0, 1}))


def test_axiom_suite_small_and_empty():
    rep = axiom_suite(graph([], vertices=[]), size_cap=2)
    assert rep.ok
    S = graph([(0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)])
    rep = axiom_suite(S, size_cap=3)
    assert rep.ok
    keys = {c.key for c in rep.cases}
    assert keys == {"compatibility", "monotonicity", "transitivity", "symmetry"}


@given(small_graphs(max_n=7))
@settings(max_examples=15, deadline=None)
def test_axiom_suite_random(S):
    assert axiom_suite(S, size_cap=2).ok


def test_perp_implies_independent():
    S = graph([(0, 1), (2, 3)], vertices=range(5))
    for b in S.vertices:
        for A in [frozenset(), frozenset({0, 1})]:
            for C in [frozenset({0, 1}), frozenset({0, 1, 4})]:
                if not A <= C:
                    continue
                if not (is_d_closed(S, A) and is_d_closed(S, C)):
                    continue
                if perp(S, [b], A, C):
                    assert d_independent(S, [b], A, C)


def test_lemma43_ignores_zero_weight_relations():
    # Z has weight 0, so its instances never lower delta and cannot entangle
    # the two sides; the characterization must agree with d_independent
    sig = Signature(2, (Relation("R", 2, 1), Relation("Z", 2, 0)))
    S = FiniteStructure(sig, range(4), {"R": [(0, 3), (1, 2)], "Z": [(0, 1), (0, 2)]})
    expected = d_independent(S, [0], [], [1])
    assert check_lemma43_characterization(S, [0], [], [1], debug=True) == expected
