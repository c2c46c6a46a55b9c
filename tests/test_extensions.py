import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predimlab import (
    ContractError,
    FiniteStructure,
    MsaType,
    count_msa_copies,
    enumerate_msa_pairs,
    free_amalgam,
    graph,
    graph_signature,
    is_msa,
    is_simply_algebraic,
    msa_base,
)
from predimlab import extensions
from predimlab.structures import bipartite_graph

from conftest import (
    brute_count_msa_copies,
    brute_delta,
    brute_enumerate_msa_pairs,
    small_graphs,
    small_structures,
    subsets_of,
)


def test_sa_examples():
    S = graph([(0, 1), (0, 2)])
    assert is_simply_algebraic(S, [1, 2], [0, 1, 2])
    assert not is_simply_algebraic(graph([], vertices=[0, 1]), [0], [0, 1])
    assert not is_simply_algebraic(graph([(0, 1)]), [1], [0, 1])


@given(small_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_sa_matches_definition(S):
    verts = list(S.vertices)
    for zk in range(len(verts)):
        for Z in itertools.combinations(verts, zk):
            for yk in range(zk + 1, min(zk + 3, len(verts)) + 1):
                for Y in itertools.combinations(verts, yk):
                    if not set(Z) < set(Y):
                        continue
                    new = set(Y) - set(Z)
                    expected = brute_delta(S, Y) - brute_delta(S, Z) == 0 and all(
                        brute_delta(S, Y) - brute_delta(S, set(Z) | set(w)) < 0
                        for j in range(1, len(new))
                        for w in itertools.combinations(new, j)
                    )
                    assert is_simply_algebraic(S, Z, Y) == expected


def test_msa_and_base_extraction():
    S = graph([(0, 1), (0, 2)], vertices=[0, 1, 2, 3])
    assert is_msa(S, [1, 2], [0, 1, 2])
    assert is_simply_algebraic(S, [1, 2, 3], [0, 1, 2, 3])
    assert not is_msa(S, [1, 2, 3], [0, 1, 2, 3])
    z1, y1 = msa_base(S, [1, 2, 3], [0, 1, 2, 3])
    assert z1 == frozenset({1, 2}) and y1 == frozenset({0, 1, 2})
    assert is_msa(S, z1, y1)
    with pytest.raises(ContractError):
        msa_base(graph([(0, 1)]), [1], [0, 1])


def test_msa_base_idempotent_on_enumerated_pairs():
    S = graph([(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
    for Z, W in enumerate_msa_pairs(S, max_new=3):
        assert is_msa(S, Z, Z | W)
        z1, y1 = msa_base(S, Z, Z | W)
        assert z1 == Z and y1 == Z | W


def test_sa_decomposes_through_unique_msa_base():
    # every sa pair splits as a free amalgam of the base over the minimal base
    for seed_edges in [
        [(0, 1), (0, 2)],
        [(0, 1), (0, 2), (3, 4), (4, 5), (3, 5)],
        [(0, 1), (1, 2), (2, 0), (3, 0)],
    ]:
        S = graph(seed_edges, vertices=range(6))
        verts = list(S.vertices)
        for zk in range(1, 5):
            for Z in itertools.combinations(verts, zk):
                for w in range(1, 3):
                    for W in itertools.combinations([v for v in verts if v not in Z], w):
                        if not is_simply_algebraic(S, Z, set(Z) | set(W)):
                            continue
                        z1, y1 = msa_base(S, Z, set(Z) | set(W))
                        for name, tups in S.instances.items():
                            for t in tups:
                                ts = set(t)
                                if ts <= set(Z) | set(W) and ts & set(W):
                                    assert ts & set(Z) <= z1


def test_count_copies_examples():
    amb = graph([(2, 0), (2, 1), (3, 0), (3, 1)])
    z1, y1 = msa_base(amb, [0, 1], [0, 1, 2])
    t = MsaType(amb.induced(y1), z1)
    cc = count_msa_copies(amb, [0, 1], t)
    assert cc.count == 2
    assert cc.disjoint_over_base
    assert count_msa_copies(graph([], vertices=[0, 1, 2]), [0], t).count == 0


def test_msa_type_keys_tell_points_from_lines():
    # points 0, 1 and lines 2, 3, each line on both points: the two types
    # are both a path on three vertices over its ends, but count apart
    amb = bipartite_graph([(0, 2), (0, 3), (1, 2), (1, 3)], [0, 1], [2, 3], ngon=3)
    lines_base = MsaType(amb.induced([0, 2, 3]), frozenset({2, 3}))
    points_base = MsaType(amb.induced([0, 1, 2]), frozenset({0, 1}))
    assert count_msa_copies(amb, [0, 1], lines_base).count == 0
    assert count_msa_copies(amb, [0, 1], points_base).count == 2
    assert lines_base.key() != points_base.key()
    # the key stays an isomorphism invariant, part labels included
    moved = MsaType(amb.induced([1, 2, 3]), frozenset({2, 3}))
    assert moved.key() == lines_base.key()


def test_msa_bound_on_seeded_amalgams():
    from predimlab import self_sufficient
    import random

    rng = random.Random(11)
    sig = graph_signature(2, 1)
    done = 0
    while done < 25:
        base = [0]
        bsz, csz = rng.randint(1, 4), rng.randint(1, 4)
        def factor(size, offset):
            for _ in range(100):
                verts = base + list(range(offset, offset + size))
                pool = [
                    c
                    for c in itertools.combinations(verts, 2)
                    if c[0] >= offset or c[1] >= offset
                ]
                edges = [c for c in pool if rng.random() < 0.5]
                cand = FiniteStructure(sig, verts, {"R": edges})
                from predimlab import in_C0

                if in_C0(cand).holds and self_sufficient(cand, base)[0]:
                    return cand
            return None
        B = factor(bsz, 10)
        C = factor(csz, 40)
        if B is None or C is None:
            continue
        F = free_amalgam(base, B, C)
        done += 1
        groups = {}
        for Z, W in enumerate_msa_pairs(
            F, max_new=4, straddle=(frozenset(B.vertices), frozenset(C.vertices))
        ):
            t = MsaType(F.induced(Z | W), Z)
            key = (tuple(sorted(Z)), t.key())
            groups.setdefault(key, []).append(W)
        for (zt, _), ws in groups.items():
            assert len(ws) <= brute_delta(F, zt)


@st.composite
def copy_cases(draw):
    """(S, A, type): an msa pair of S as the type, or any rooted
    substructure of S; A holds the base or is any subset.  S's vertex ids
    are spread out, so no id is its position."""
    S = draw(small_structures(max_n=7))
    stride = draw(st.integers(min_value=1, max_value=3))
    S = S.relabel({v: stride * v + 1 for v in S.vertices})
    pairs = list(enumerate_msa_pairs(S, max_new=3))
    if pairs and draw(st.booleans()):
        Z, W = draw(st.sampled_from(pairs))
        t = MsaType(S.induced(Z | W), Z)
    else:
        P = draw(subsets_of(S))
        base = frozenset(v for v in P if draw(st.booleans()))
        if len(P - base) > 4:
            P = base | frozenset(sorted(P - base)[:4])
        t = MsaType(S.induced(P), base)
    A = draw(subsets_of(S))
    if draw(st.booleans()):
        A |= t.base
    return S, A, t


@given(copy_cases())
@settings(max_examples=300, deadline=None)
def test_count_copies_matches_set_based_search(case):
    S, A, t = case
    got = count_msa_copies(S, A, t)
    want_copies, want_disjoint = brute_count_msa_copies(S, A, t)
    assert (got.count, got.copies, got.disjoint_over_base) == (
        len(want_copies), want_copies, want_disjoint)


def _check_msa_pairs_against_loop_form(S, data):
    max_new = data.draw(st.sampled_from([None, 1, 2, 3]))
    straddle = None
    if data.draw(st.booleans()):
        straddle = (data.draw(subsets_of(S)), data.draw(subsets_of(S)))
    assert (list(enumerate_msa_pairs(S, max_new, straddle))
            == list(brute_enumerate_msa_pairs(S, max_new, straddle)))


@given(small_structures(max_n=7), st.data())
@settings(max_examples=120, deadline=None)
def test_msa_pairs_match_loop_form(S, data):
    _check_msa_pairs_against_loop_form(S, data)


@given(small_structures(max_n=7), st.data())
@settings(max_examples=60, deadline=None)
def test_msa_pairs_match_loop_form_one_row_per_chunk(S, data):
    # nearly every W, and every pair left for the minimality check, is a chunk
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(extensions, "MSA_PAIR_CHUNK", 1)
        _check_msa_pairs_against_loop_form(S, data)

