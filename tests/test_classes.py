import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predimlab import (
    ControlFunction,
    FiniteStructure,
    InputError,
    girth,
    graph,
    graph_signature,
    in_C0,
    in_Cf,
    in_Kn,
    is_d_closed,
    make_control,
    path_graph,
    self_sufficient,
)
from predimlab.structures import bipartite_graph, cycle_graph, free_amalgam
from predimlab.builder import enumerate_class, C0, CF

from conftest import brute_delta, small_graphs


def test_control_function_values():
    f = ControlFunction.harmonic(2)
    assert f(0) == 0
    assert f(1) == 2
    assert f(2) == 3
    assert f(4) == Fraction(23, 6)
    assert isinstance(f(7), Fraction)
    f.validate(64)
    g = ControlFunction.half_harmonic(1)
    g.validate(64)
    assert g(2) == Fraction(3, 2)
    with pytest.raises(InputError):
        make_control("cubic", 2)


def test_control_function_goodness_rejects_bad_family():
    bad = ControlFunction(2, "too-steep", lambda k: Fraction(2, k - 1))
    with pytest.raises(InputError):
        bad.validate(10)
    growing = ControlFunction(2, "growing", lambda k: Fraction(1, 100 - k))
    with pytest.raises(InputError):
        growing.validate(50)


def test_in_c0_examples():
    assert in_C0(graph([(0, 1), (1, 2), (0, 2)])).holds
    assert in_C0(FiniteStructure(graph_signature(), [])).holds
    assert in_C0(graph([(0, 1)], n=1, m=2)).holds
    res = in_C0(graph([(0, 1)], n=1, m=3))
    assert not res.holds and res.witness == frozenset({0, 1})


@given(small_graphs(max_n=7, n_weight=1, m_weight=1))
@settings(max_examples=60, deadline=None)
def test_in_c0_matches_brute_force(S):
    expected = all(
        brute_delta(S, X) >= 0
        for k in range(len(S.vertices) + 1)
        for X in itertools.combinations(S.vertices, k)
    )
    assert in_C0(S).holds == expected


def test_in_cf_examples():
    f = ControlFunction.harmonic(2)
    assert in_Cf(cycle_graph(6), f).holds
    res = in_Cf(graph([(0, 1), (1, 2), (0, 2)]), f)
    assert not res.holds
    assert res.witness == frozenset({0, 1, 2})
    assert res.margin == Fraction(3) - Fraction(7, 2)
    assert in_Cf(graph([], vertices=[0]), f).holds  # boundary delta = n = f(1)


def test_in_cf_minimal_witness_and_c0_implication():
    f = ControlFunction.harmonic(2)
    # triangle plus an isolated vertex: witness should be the triangle itself
    S = graph([(0, 1), (1, 2), (0, 2)], vertices=[0, 1, 2, 3])
    res = in_Cf(S, f)
    assert res.witness == frozenset({0, 1, 2})
    for S in enumerate_class(graph_signature(2, 1), CF, 4, control=f):
        assert in_C0(S).holds


def test_in_cf_partial_above_cap():
    S = graph([(i, (i + 1) % 40) for i in range(40)])
    res = in_Cf(S, ControlFunction.harmonic(2), exhaustive_cap=18,
                conn_size=6, conn_budget=2000, samples=100, seed=1)
    assert res.verdict == "PARTIAL"
    assert not res.holds
    assert "not a certificate" in res.detail
    # a genuine violation is still found exactly: hang a triangle on the cycle
    bad = graph([(i, (i + 1) % 40) for i in range(40)] + [(0, 1), (1, 41), (0, 41)])
    res2 = in_Cf(bad, ControlFunction.harmonic(2), exhaustive_cap=18,
                 conn_size=6, conn_budget=5000, samples=200, seed=1)
    assert res2.verdict == "FAIL"


def test_girth_examples():
    assert girth(cycle_graph(6)) == 6
    assert girth(path_graph(5)) == math.inf
    assert girth(graph([(0, 1), (1, 2), (0, 2)])) == 3


def test_in_kn_examples():
    hexagon = bipartite_graph(
        [(i, (i + 1) % 6) for i in range(6)], points=[0, 2, 4], lines_=[1, 3, 5], ngon=3
    )
    assert in_Kn(hexagon, 3).holds
    square = bipartite_graph(
        [(i, (i + 1) % 4) for i in range(4)], points=[0, 2], lines_=[1, 3], ngon=3
    )
    res = in_Kn(square, 3)
    assert not res.holds and res.witness == frozenset({0, 1, 2, 3})
    edge = bipartite_graph([(0, 1)], points=[0], lines_=[1], ngon=3)
    assert in_Kn(edge, 3).holds
    with pytest.raises(InputError):
        in_Kn(graph([(0, 1)]), 3)


def test_in_kn_long_cycle_condition():
    # an 8-cycle alone for n=3: a 2m-cycle with m=4 > 3 and delta 8 = 2*3+2 passes
    octo = bipartite_graph(
        [(i, (i + 1) % 8) for i in range(8)], points=[0, 2, 4, 6], lines_=[1, 3, 5, 7], ngon=3
    )
    assert in_Kn(octo, 3).holds
    # an 8-cycle with an extra path between two of its points
    edges = [(i, (i + 1) % 8) for i in range(8)]
    edges += [(0, 8), (8, 9), (9, 10), (10, 11), (11, 12), (12, 13), (13, 14), (14, 2)]
    points = [0, 2, 4, 6, 9, 11, 13]
    lines = [1, 3, 5, 7, 8, 10, 12, 14]
    merged = bipartite_graph(edges, points=points, lines_=lines, ngon=3)
    verdict = in_Kn(merged, 3)
    # exactness check against a direct subset scan
    def has_long_cycle_brute(T, subset, bound):
        sub = T.induced(subset)
        adj = {v: set() for v in sub.vertices}
        for a, b in sub.instances["adj"]:
            adj[a].add(b)
            adj[b].add(a)
        best = 0
        verts = list(sub.vertices)
        def walk(start, u, seen):
            nonlocal best
            for w in adj[u]:
                if w == start and len(seen) >= 3:
                    best = max(best, len(seen))
                elif w not in seen and w > start - 1:
                    walk(start, w, seen | {w})
        for v in verts:
            walk(v, v, {v})
        return best > bound
    expected = True
    for k in range(len(merged.vertices) + 1):
        for X in itertools.combinations(merged.vertices, k):
            if has_long_cycle_brute(merged, X, 6) and brute_delta(merged, X) < 8:
                expected = False
    assert verdict.holds == expected


def test_free_amalgamation_closure_c0():
    sig = graph_signature(2, 1)
    pool = enumerate_class(sig, C0, 4)
    count = 0
    for B in pool:
        for k in range(len(B.vertices) + 1):
            for base in itertools.combinations(B.vertices, k):
                ok, _ = self_sufficient(B, base)
                if not ok:
                    continue
                for C in pool:
                    if not set(base) <= set(C.vertices):
                        continue
                    if B.induced(base) != C.induced(base):
                        continue
                    shift = {v: (v if v in base else v + 100) for v in C.vertices}
                    C2 = C.relabel(shift)
                    F = free_amalgam(base, B, C2)
                    assert in_C0(F).holds
                    ok2, _ = self_sufficient(F, C2.vertices)
                    assert ok2
                    count += 1
    assert count > 50


def test_free_d_closed_amalgamation_cf():
    f = ControlFunction.harmonic(2)
    sig = graph_signature(2, 1)
    pool = enumerate_class(sig, CF, 4, control=f)
    count = 0
    for B in pool:
        for k in range(len(B.vertices) + 1):
            for base in itertools.combinations(B.vertices, k):
                if not is_d_closed(B, base):
                    continue
                for C in pool:
                    if not set(base) <= set(C.vertices):
                        continue
                    if B.induced(base) != C.induced(base):
                        continue
                    if not is_d_closed(C, base):
                        continue
                    shift = {v: (v if v in base else v + 100) for v in C.vertices}
                    C2 = C.relabel(shift)
                    F = free_amalgam(base, B, C2)
                    assert in_Cf(F, f).holds
                    assert is_d_closed(F, B.vertices)
                    assert is_d_closed(F, C2.vertices)
                    count += 1
    assert count > 50
