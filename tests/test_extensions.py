import itertools

import pytest
from hypothesis import given, settings

from predimlab import (
    ContractError,
    FiniteStructure,
    MsaType,
    PartialMap,
    check_potential_extendability,
    count_msa_copies,
    duplicate_base_points,
    enumerate_msa_pairs,
    free_amalgam,
    graph,
    graph_signature,
    is_msa,
    is_simply_algebraic,
    msa_base,
    msa_type_of,
)

from conftest import brute_delta, small_graphs


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
    t = msa_type_of(amb, [0, 1], [0, 1, 2])
    cc = count_msa_copies(amb, [0, 1], t)
    assert cc.count == 2
    assert cc.disjoint_over_base
    assert count_msa_copies(graph([], vertices=[0, 1, 2]), [0], t).count == 0


def test_count_copies_pinned():
    amb = graph([(2, 0), (2, 1), (3, 0), (3, 1), (4, 0), (4, 5)], vertices=range(6))
    t = msa_type_of(amb, [0, 1], [0, 1, 2])
    pinned = count_msa_copies(amb, [0, 1], t, pin={v: v for v in sorted(t.base)})
    assert pinned.count == 2


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


def test_duplicate_base_points():
    amb = graph([(2, 0), (2, 1), (3, 0), (3, 1)])
    t = msa_type_of(amb, [0, 1], [0, 1, 2])
    t2 = duplicate_base_points(t)
    assert is_msa(t2.pattern, t2.base, frozenset(t2.pattern.vertices))
    for v in t2.base:
        hits = sum(
            1 for name, tups in t2.pattern.instances.items() for tp in tups if v in tp
        )
        assert hits == 1


def test_partial_map_validation():
    S = graph([(0, 1)], vertices=[0, 1, 2])
    PartialMap(((0, 1),)).validate(S)  # single vertices always match
    with pytest.raises(ContractError):
        PartialMap(((0, 2), (1, 0))).validate(S)  # edge mapped onto a non-edge


def test_potential_extendability_identity_and_symmetric():
    edges = []
    for block in ([0, 1, 2, 3], [4, 5, 6, 7]):
        edges += [
            (block[i], block[j]) for i in range(4) for j in range(i + 1, 4)
        ]
    K44 = graph(edges)
    rep = check_potential_extendability(K44, PartialMap(((0, 0),)), base_cap=1, ext_cap=3)
    assert rep.ok
    rep2 = check_potential_extendability(K44, PartialMap(((0, 4),)), base_cap=2, ext_cap=3)
    assert rep2.ok


def test_potential_extendability_detects_mismatch():
    edges = []
    for tri in ([1, 2, 3], [4, 5, 6]):
        edges += [(tri[i], tri[j]) for i in range(3) for j in range(i + 1, 3)]
        edges += [(0, v) for v in tri]
    edges += [([8, 9, 10][i], [8, 9, 10][j]) for i in range(3) for j in range(i + 1, 3)]
    edges += [(7, v) for v in [8, 9, 10]]
    S = graph(edges)
    rep = check_potential_extendability(S, PartialMap(((0, 7),)), base_cap=1, ext_cap=3)
    fails = rep.failures()
    assert fails and "mult 2 vs 1" in fails[0].witness


def test_saturation_threshold_reported():
    # three disjoint completions on each side: counts compare as saturated
    edges = []
    for k, root in ((0, 0), (1, 10)):
        for t0 in range(3):
            tri = [root + 1 + 3 * t0 + j for j in range(3)]
            edges += [(tri[i], tri[j]) for i in range(3) for j in range(i + 1, 3)]
            edges += [(root, v) for v in tri]
    S = graph(edges)
    rep = check_potential_extendability(S, PartialMap(((0, 10),)), base_cap=1, ext_cap=3)
    assert rep.ok
    assert any("SATURATED" in c.note for c in rep.cases)
