import itertools
import math
import random
from fractions import Fraction
from unittest.mock import patch

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from predimlab import (
    ControlFunction,
    FiniteStructure,
    InputError,
    girth,
    graph,
    graph_signature,
    hypergraph_signature,
    in_C0,
    in_Cf,
    in_Kn,
    is_d_closed,
    make_control,
    path_graph,
    polygon_signature,
    self_sufficient,
)
from predimlab.structures import (
    LINE,
    POINT,
    Relation,
    Signature,
    bipartite_graph,
    delta_mask,
    free_amalgam,
)
from predimlab import classes
from predimlab.builder import C0, CF, KN, _in_class, enumerate_class
from predimlab.classes import (
    _simple_cycles_longer_than,
    girth_with_witness,
)
from predimlab.reports import FAIL

from conftest import (
    brute_class_violations, brute_concavity_surrogate, brute_connected_subsets, brute_delta,
    brute_girth, brute_in_Cf, cycle_graph, extension_chains, small_bipartite, small_graphs,
)


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


@given(st.integers(1, 3),
       st.lists(st.fractions(0, 1, max_denominator=6).filter(bool), min_size=1, max_size=14))
@settings(max_examples=60, deadline=None)
def test_validate_implies_the_concavity_surrogate(n, scales):
    # increment k is the least scale_j / (j - 1) over j <= k: positive,
    # non-increasing and at most 1/(k - 1), so validate accepts it, and the
    # surrogate loop it no longer runs finds no failure
    incs = list(itertools.accumulate((s / (k - 1) for k, s in enumerate(scales, 2)), min))
    f = ControlFunction(n, "drawn", lambda k: incs[k - 2])
    up_to = len(incs) + 1
    f.validate(up_to)
    assert brute_concavity_surrogate(f, up_to) is None


def test_the_surrogate_holds_on_the_families_and_fails_on_growth():
    # ex511 once validated its half-harmonic family up to 40 on every run
    for f in (ControlFunction.half_harmonic(1), ControlFunction.harmonic(2)):
        assert brute_concavity_surrogate(f, 40) is None
    growing = ControlFunction(2, "growing", lambda k: Fraction(1, 100 - k))
    assert brute_concavity_surrogate(growing, 50) is not None


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


def test_in_cf_refuses_a_negative_control_function_and_agrees_at_or_above_zero():
    # delta({0, 1}) = 2 - 3 < 0, so S is outside C0; every threshold of
    # ``neg`` but f(1) is negative, and a full delta table with no violation
    # would otherwise read PASS
    S = graph([(0, 1)], n=1, m=3)
    neg = ControlFunction(1, "negative", lambda k: Fraction(-3))
    assert brute_in_Cf(S, neg).verdict == FAIL
    assert not in_C0(S).holds
    for cap in (0, classes.DEFAULT_CF_EXHAUSTIVE_CAP):
        with conn_caps(classes.DEFAULT_CONN_SIZE, classes.DEFAULT_CONN_BUDGET, cap):
            with pytest.raises(InputError, match="negative at 2"):
                in_Cf(S, neg)
    # an ungood control function whose thresholds stay >= 0: the table alone
    # decides C0, as the oracle's re-check does
    flat = ControlFunction(1, "flat", lambda k: Fraction(-1, 2))
    for T in (S, graph([(0, 1)], n=1, m=2), graph([(0, 1), (1, 2)], n=1, m=1)):
        assert in_Cf(T, flat) == brute_in_Cf(T, flat)
    assert in_Cf(S, flat).verdict == FAIL


def conn_caps(size, budget, exhaustive=classes.DEFAULT_CF_EXHAUSTIVE_CAP):
    """in_Cf's connected search capped at ``size`` vertices and ``budget``
    subsets, and its exhaustive check at ``exhaustive`` vertices, for a
    with block."""
    return patch.multiple(classes, DEFAULT_CONN_SIZE=size, DEFAULT_CONN_BUDGET=budget,
                          DEFAULT_CF_EXHAUSTIVE_CAP=exhaustive)


def test_in_cf_partial_above_cap():
    S = graph([(i, (i + 1) % 40) for i in range(40)])
    with conn_caps(6, 2000):
        res = in_Cf(S, ControlFunction.harmonic(2), samples=100, seed=1)
    assert res.verdict == "PARTIAL"
    assert not res.holds
    assert "not a certificate" in res.detail
    # a genuine violation is still found exactly: hang a triangle on the cycle
    bad = graph([(i, (i + 1) % 40) for i in range(40)] + [(0, 1), (1, 41), (0, 41)])
    with conn_caps(6, 5000):
        res2 = in_Cf(bad, ControlFunction.harmonic(2), samples=200, seed=1)
    assert res2.verdict == "FAIL"


@pytest.mark.parametrize("chords", [0, 20])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_in_cf_samples_draw_what_the_id_loop_drew(chords, seed):
    # non-contiguous ids, given in descending order: a position is not an id
    n = 24
    ids = [7 + 5 * i for i in range(n)][::-1]
    edges = [(ids[i], ids[(i + 1) % n]) for i in range(n)]
    edges += [(ids[i], ids[(i + 5) % n]) for i in range(chords)]
    S = graph(edges, vertices=ids)
    f = ControlFunction.harmonic(2)
    with conn_caps(3, 40, 10):
        res = in_Cf(S, f, samples=300, seed=seed)
    # the loop it replaced, which sampled vertex ids; the connected search
    # runs over positions, so the oracle searches the same graph on them
    thr = [math.ceil(f(k)) for k in range(n + 1)]
    violations = []
    checked = 0
    P = graph([(S.vertices.index(u), S.vertices.index(v)) for u, v in edges], vertices=range(n))
    for sub in brute_connected_subsets(P, 3, 40):
        checked += 1
        if brute_delta(P, sub) < thr[len(sub)]:
            violations.append((len(sub), P.mask_of(sub)))
    rng = random.Random(seed)
    verts = list(S.vertices)
    for _ in range(300):
        k = rng.randint(1, n)
        mask = S.mask_of(rng.sample(verts, k))
        checked += 1
        if delta_mask(S, mask) < thr[k]:
            violations.append((k, mask))
    want = ("FAIL", S.ids_of(min(violations)[1])) if violations else ("PARTIAL", None)
    assert (res.verdict, res.witness, res.checked) == (*want, checked)
    assert res.verdict == ("FAIL" if chords else "PARTIAL")


@st.composite
def cf_cases(draw):
    """A structure (graph, 3-uniform hypergraph, or a graph with a zero-weight
    second relation) plus a control function, in_Cf's options and its caps
    (connected size, connected budget, exhaustive)."""
    kind = draw(st.sampled_from(["graph", "3-uniform", "zero-weight"]))
    n = draw(st.integers(min_value=0, max_value=9))
    vw = draw(st.integers(min_value=1, max_value=3))
    arity = 3 if kind == "3-uniform" else 2
    rels = [Relation("R", arity, draw(st.integers(min_value=1, max_value=3)))]
    if kind == "zero-weight":
        rels.append(Relation("Z", 2, 0))
    pool = list(itertools.combinations(range(n), arity))
    inst = {}
    for rel in rels:
        inst[rel.name] = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
    S = FiniteStructure(Signature(vw, tuple(rels)), range(n), inst)
    # an anchor equal to the vertex weight puts delta(A) = f(k) on singletons
    anchor = draw(st.sampled_from([vw, 1, 2, 3]))
    f = draw(st.sampled_from([ControlFunction.harmonic, ControlFunction.half_harmonic]))(anchor)
    opts = dict(
        samples=draw(st.integers(min_value=0, max_value=12)),
        seed=draw(st.integers(min_value=0, max_value=3)),
    )
    size = draw(st.integers(min_value=1, max_value=7))
    budget = draw(st.integers(min_value=1, max_value=60))
    cap = draw(st.integers(min_value=-1, max_value=10))
    if n == 0:
        cap = max(cap, 0)  # no sample of size >= 1
    return S, f, opts, (size, budget, cap)


@given(cf_cases())
@settings(max_examples=250, deadline=None)
def test_in_cf_matches_rational_oracle(case):
    S, f, opts, (size, budget, cap) = case
    with conn_caps(size, budget, cap):
        got = in_Cf(S, f, **opts)
    assert got == brute_in_Cf(S, f, exhaustive_cap=cap, conn_size=size, conn_budget=budget,
                              **opts)


@pytest.mark.parametrize("cap", [0, 18])
def test_in_cf_exact_bound_is_not_a_violation(cap):
    # delta = 2 = f(1) on every singleton and 4 > f(2) on every pair
    S = graph([], vertices=range(6))
    f = ControlFunction.harmonic(2)
    with conn_caps(4, 10, cap):
        res = in_Cf(S, f, samples=20)
    assert res.verdict == ("PASS" if cap else "PARTIAL")
    assert res == brute_in_Cf(S, f, exhaustive_cap=cap, conn_size=4, conn_budget=10,
                              samples=20)


def test_in_cf_connected_budget_keeps_search_order():
    # a path of 12 vertices with a triangle hung at its far end: a small
    # budget stops the search before the triangle, a larger one reaches it
    edges = [(i, i + 1) for i in range(11)] + [(10, 12), (11, 12)]
    S = graph(edges)
    f = ControlFunction.harmonic(2)
    verdicts = []
    for budget in (5, 40, 400):
        with conn_caps(5, budget, 0):
            got = in_Cf(S, f, samples=0)
        assert got == brute_in_Cf(S, f, exhaustive_cap=0, conn_size=5, conn_budget=budget,
                                  samples=0)
        verdicts.append(got.verdict)
    assert verdicts[0] == "PARTIAL" and verdicts[-1] == "FAIL"


@st.composite
def class_chains(draw):
    """(chain, tag, f): an extension chain whose steps add no instance among
    old vertices, as a build's steps do, and a class to check it against."""
    tag = draw(st.sampled_from([C0, CF, KN]))
    chain = draw(extension_chains(max_instances=9, bipartite=tag == KN, old_instance=False))
    f = ControlFunction.harmonic(chain[0].signature.vertex_weight) if tag == CF else None
    return chain, tag, f


def _chain(sig, *steps):
    """The chain from the empty structure over ``sig`` by the steps
    (new ids, instances by relation, parts or None)."""
    chain = [FiniteStructure(sig, [], {}, {} if sig.mode == "bipartite" else None)]
    for ids, inst, parts in steps:
        chain.append(chain[-1].with_added(ids, inst, parts))
    return chain


@given(class_chains())
@settings(max_examples=300, deadline=None)
# a 4-cycle closed by the second step, and a pair of 3-uniform steps whose
# second drives delta below 0; a third step that adds nothing to either
@example((_chain(polygon_signature(3),
                 ([0, 1, 2], {"adj": [(0, 1), (1, 2)]}, {0: POINT, 1: LINE, 2: POINT}),
                 ([3], {"adj": [(0, 3), (2, 3)]}, {3: LINE}), ([4], {}, {4: POINT})), KN, None))
@example((_chain(hypergraph_signature(1, 1, 3),
                 ([0, 1, 2, 3], {"R": list(itertools.combinations(range(4), 3))}, None),
                 ([4], {"R": [(*t, 4) for t in itertools.combinations(range(4), 2)]}, None),
                 ([5], {}, None)), C0, None))
def test_a_chain_leaves_its_class_exactly_when_its_last_member_does(case):
    # each member is the induced structure on a prefix of the last one, and
    # the classes are hereditary: one check of the last member covers the chain
    chain, tag, f = case
    fails = [brute_class_violations(S, tag, f) for S in chain]
    assert bool(fails[-1]) == any(fails)
    last = _in_class(chain[-1], tag, f, 3)
    assert (last.verdict == FAIL) == bool(fails[-1])
    event(f"{tag}: {last.verdict}")
    if last.verdict == FAIL:
        # the witness's first holder is where the build names the step
        wmask = chain[-1].mask_of(last.witness)
        first = next(S for S in chain if wmask >> len(S.vertices) == 0)
        assert wmask in fails[-1] and wmask in brute_class_violations(first, tag, f)


def test_girth_examples():
    assert girth(cycle_graph(6)) == 6
    assert girth(path_graph(5)) == math.inf
    assert girth(graph([(0, 1), (1, 2), (0, 2)])) == 3


@given(st.one_of(small_graphs(max_n=8), small_bipartite(max_n=10)))
@settings(max_examples=150, deadline=None)
def test_girth_matches_adjacency_bfs(S):
    g, witness = girth_with_witness(S)
    assert g == brute_girth(S)
    assert witness is None if g == math.inf else len(witness) == g


@given(small_bipartite(max_n=14), st.integers(min_value=0, max_value=16))
@settings(max_examples=200, deadline=None)
def test_bounded_girth_search_finds_the_unbounded_witness(S, below):
    # a bound only stops each search early: a cycle below it is the very
    # one the unbounded search returns, and none below it reads as a forest
    g, witness = girth_with_witness(S)
    want = (g, witness) if g < below else (math.inf, None)
    assert girth_with_witness(S, below=below) == want


def test_girth_needs_a_binary_signature():
    sig = Signature(2, (Relation("R", 2, 1), Relation("T", 3, 1)))
    S = FiniteStructure(sig, range(4), {"R": [(0, 1), (1, 2), (0, 2)], "T": [(1, 2, 3)]})
    with pytest.raises(InputError, match="binary"):
        girth(S)


def test_long_cycles_are_listed_once_each():
    k4 = graph(itertools.combinations(range(4), 2))
    cycles, complete = _simple_cycles_longer_than(k4, 3, budget=10_000)
    assert complete and sorted(cycles) == [0b1111] * 3
    assert _simple_cycles_longer_than(k4, 3, budget=3) == ([], False)


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
