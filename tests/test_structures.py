import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predimlab import (
    CapacityError,
    FiniteStructure,
    InputError,
    Signature,
    Relation,
    canonical_form,
    delta,
    delta_rel,
    dump_structure,
    free_amalgam,
    graph,
    graph_signature,
    load_structure,
    path_graph,
    self_sufficient,
)
from predimlab.structures import bipartite_graph, cycle_graph

from conftest import (
    brute_delta,
    brute_isomorphic,
    brute_self_sufficient,
    small_graphs,
    small_hypergraphs,
)


def test_signature_validation():
    with pytest.raises(InputError):
        Signature(0, (Relation("R", 2, 1),))
    with pytest.raises(InputError):
        Signature(2, ())
    with pytest.raises(InputError):
        Signature(2, (Relation("R", 1, 1),))
    with pytest.raises(InputError):
        Signature(2, (Relation("R", 2, 1), Relation("R", 3, 1)))
    sig = Signature(2, (Relation("R", 2, 1), Relation("T", 3, 0)))
    assert sig.coprime_with("R")


def test_structure_invariants():
    with pytest.raises(InputError):
        graph([(0, 0)])
    with pytest.raises(InputError):
        FiniteStructure(graph_signature(), [0, 1], {"R": [(0, 2)]})
    # duplicate instances collapse to one (set semantics)
    S = FiniteStructure(graph_signature(), [0, 1], {"R": [(0, 1), (1, 0)]})
    assert len(S.instances["R"]) == 1
    with pytest.raises(InputError):
        bipartite_graph([(0, 1)], points=[0, 1], lines_=[], ngon=3)


def test_delta_examples():
    assert delta(graph([], vertices=[0]), [0]) == 2
    assert delta(graph([], vertices=[0]), []) == 0
    P = path_graph(3)
    assert delta(P, P.vertices) == 5


def test_delta_rel_examples():
    S = graph([(0, 1), (0, 2)])
    assert delta_rel(S, [1, 2], [1, 2]) == 0
    assert delta_rel(S, [0], [1, 2]) == 0
    E = graph([(0, 1)])
    assert delta_rel(E, [0], [1]) == 1


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_delta_matches_brute_oracle(S):
    for k in range(len(S.vertices) + 1):
        for X in itertools.combinations(S.vertices, k):
            assert delta(S, X) == brute_delta(S, X)


@given(small_graphs(max_n=6), st.permutations(range(6)))
@settings(max_examples=50, deadline=None)
def test_delta_invariant_under_relabeling(S, perm):
    mapping = {v: 100 + perm[i] for i, v in enumerate(S.vertices)}
    T = S.relabel(mapping)
    for k in range(len(S.vertices) + 1):
        for X in itertools.combinations(S.vertices, k):
            assert delta(S, X) == delta(T, [mapping[v] for v in X])


def test_self_sufficiency_examples():
    P3 = path_graph(3)
    assert self_sufficient(P3, [0, 3], P3.vertices)[0]
    P2 = path_graph(2)
    assert self_sufficient(P2, [0, 2], P2.vertices)[0]
    T = graph([(0, 1), (1, 2), (0, 2)])
    assert self_sufficient(T, [0, 1, 2], [0, 1, 2])[0]  # A = B
    E = graph([(0, 1)], n=1, m=2)
    assert self_sufficient(E, [0], [0, 1]) == (False, frozenset({0, 1}))


def test_self_sufficiency_minimal_witness():
    # two violating supersets; the minimal-delta one must be returned
    S = graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], n=1, m=1)
    holds, witness = self_sufficient(S, [0], S.vertices)
    assert not holds
    d = delta(S, witness)
    for k in range(1, 5):
        for X in itertools.combinations(S.vertices, k):
            if 0 in X:
                assert delta(S, X) >= d


def test_self_sufficiency_cap():
    # the exact check has no enumeration cap
    S = graph([], vertices=range(30))
    assert self_sufficient(S, [], S.vertices) == (True, None)


@given(small_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_self_sufficiency_matches_definition(S):
    verts = list(S.vertices)
    for k in range(len(verts) + 1):
        for B in itertools.combinations(verts, k):
            for j in range(len(B) + 1):
                for A in itertools.combinations(B, j):
                    expected = all(
                        brute_delta(S, A) <= brute_delta(S, Bp)
                        for size in range(len(A), len(B) + 1)
                        for Bp in itertools.combinations(B, size)
                        if set(A) <= set(Bp)
                    )
                    got = self_sufficient(S, A, B)
                    assert got[0] == expected
                    assert got == brute_self_sufficient(S, A, B)


@pytest.mark.parametrize("n_w,m_w,arity", [(2, 1, 2), (1, 1, 2), (3, 2, 2), (1, 1, 3)])
def test_submodularity_exhaustive_signature_grid(n_w, m_w, arity):
    sig = (
        graph_signature(n_w, m_w)
        if arity == 2
        else Signature(n_w, (Relation("R", arity, m_w),))
    )
    pool = list(itertools.combinations(range(5), arity))
    for bits in range(1 << len(pool)):
        if bits % 7:  # sampled grid: every seventh instance pattern
            continue
        inst = [pool[i] for i in range(len(pool)) if bits >> i & 1]
        S = FiniteStructure(sig, range(5), {"R": inst})
        for am in range(32):
            A = [v for v in range(5) if am >> v & 1]
            for bm in range(32):
                B = [v for v in range(5) if bm >> v & 1]
                lhs = delta(S, set(A) | set(B))
                rhs = delta(S, A) + delta(S, B) - delta(S, set(A) & set(B))
                assert lhs <= rhs


def test_canonical_form_examples():
    T1 = graph([(0, 1), (1, 2), (0, 2)])
    T2 = graph([(5, 9), (9, 7), (5, 7)])
    assert canonical_form(T1) == canonical_form(T2)
    P = graph([(0, 1), (1, 2)])
    assert canonical_form(T1) != canonical_form(P)
    C4 = cycle_graph(4)
    P4 = path_graph(3)
    assert canonical_form(C4) != canonical_form(P4)


def test_canonical_form_cap():
    with pytest.raises(CapacityError):
        canonical_form(graph([], vertices=range(9)), cap=8)


@given(small_graphs(max_n=5), small_graphs(max_n=5))
@settings(max_examples=60, deadline=None)
def test_canonical_form_matches_brute_isomorphism(a, b):
    assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)


@given(small_hypergraphs(max_n=5))
@settings(max_examples=30, deadline=None)
def test_canonical_form_invariant_hypergraphs(S):
    mapping = {v: 50 - v for v in S.vertices}
    assert canonical_form(S) == canonical_form(S.relabel(mapping))


def test_file_roundtrip():
    S = graph([(0, 1), (1, 2)], vertices=[0, 1, 2, 7])
    text = dump_structure(S)
    T, base = load_structure(text)
    assert T == S and base is None
    text2 = dump_structure(S, base_ids=[0, 7])
    T2, base2 = load_structure(text2)
    assert T2 == S and base2 == frozenset({0, 7})
    B = bipartite_graph([(0, 1)], points=[0], lines_=[1], ngon=4)
    T3, _ = load_structure(dump_structure(B))
    assert T3 == B


@pytest.mark.parametrize(
    "mutation",
    [
        lambda t: t.replace("predimlab/1", "predimlab/9"),
        lambda t: t + "instance R 0 1\n",  # duplicate instance line
        lambda t: t + "instance R 5 5\n",  # repeated vertex
        lambda t: t + "instance R 0 99\n",  # unknown vertex
        lambda t: t + "unknownline foo\n",
    ],
)
def test_loader_rejections(mutation):
    text = dump_structure(graph([(0, 1)], vertices=[0, 1, 5]))
    with pytest.raises(InputError):
        load_structure(mutation(text))


def test_loader_rejects_same_part_edge():
    text = (
        "predimlab/1\n"
        "signature n=2 mode=bipartite\n"
        "relation adj arity=2 weight=1\n"
        "vertices 0 1\n"
        "part 0 point\npart 1 point\n"
        "instance adj 0 1\n"
    )
    with pytest.raises(InputError):
        load_structure(text)


def test_free_amalgam():
    A = graph([], vertices=[0])
    B = graph([(0, 1)])
    C = graph([(0, 2)])
    F = free_amalgam([0], B, C)
    assert set(F.vertices) == {0, 1, 2}
    assert len(F.instances["R"]) == 2
    with pytest.raises(InputError):
        free_amalgam([0], B, graph([(0, 1)]))  # overlapping non-base ids
