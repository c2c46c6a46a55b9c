import dataclasses
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
    Relation,
    Signature,
    beatty,
    build_fan_join,
    build_gadget,
    build_tower_amalgam,
    delta,
    delta_rel,
    gadget_params,
    girth,
    graph,
    graph_signature,
    hypergraph_signature,
    in_C0,
    in_Cf,
    run_suite,
    self_sufficient,
    verify_gadget,
)
from predimlab.gadgets import (
    GadgetPair,
    build_cycle_fan,
    build_double_cycle,
    sample_c_closures,
    sample_closed_connected_subsets,
)
from predimlab import suites
from predimlab.reports import FAIL, PASS, subset_witness
from predimlab.suites import (
    _beatty_window_checks,
    _fan_growth_bound,
    _fan_instance,
    _fan_join_claims,
)

from conftest import (
    brute_beatty_window_checks,
    brute_proper_parts,
    small_graphs,
    small_hypergraphs,
    subsets_of,
    window_sum,
)


def test_beatty_examples():
    assert beatty(2, 5).period == (0, 0, 1, 0, 1)
    assert beatty(1, 2).period == (0, 1)
    with pytest.raises(InputError):
        beatty(5, 5)
    with pytest.raises(InputError):
        beatty(0, 3)


def test_beatty_window_sums():
    for ell, b in [(2, 5), (3, 8), (1, 7), (7, 12)]:
        seq = beatty(ell, b)
        for start in range(-b, b + 1):
            assert window_sum(seq, start, b) == ell
            for s in range(1, 3 * b + 1):
                assert (window_sum(seq, start, s) - 1) * b <= s * ell


def test_beatty_window_checks_match_the_loop_form():
    for b in range(2, 41):
        for ell in range(1, b):
            seq = beatty(ell, b)
            assert _beatty_window_checks(seq, ell, b) is None
            assert brute_beatty_window_checks(seq, ell, b) is None
            flipped = list(seq.period)
            flipped[(7 * ell) % b] ^= 1
            # a flip breaks the windows
            bad = type(seq)(ell, b, tuple(flipped))
            got = _beatty_window_checks(bad, ell, b)
            assert got is not None
            assert got == brute_beatty_window_checks(bad, ell, b)
            # packing the ones together keeps the windows and mostly breaks
            # the density bound
            packed = type(seq)(ell, b, tuple(sorted(seq.period)))
            assert _beatty_window_checks(packed, ell, b) == brute_beatty_window_checks(packed, ell, b)


def test_gadget_params_examples():
    p = gadget_params(3, 2)
    assert (p.a, p.c, p.b, p.ell, p.case) == (1, 1, 1, 1, "B_EQUALS_1")
    p = gadget_params(12, 5)
    assert (p.a, p.c, p.b, p.ell, p.case) == (2, 2, 2, 1, "B_GE_2")
    assert p.ell * p.m - p.c * p.b == 1
    assert gadget_params(5, 1).case == "M_EQUALS_1"
    with pytest.raises(InputError):
        gadget_params(6, 3)
    with pytest.raises(InputError):
        gadget_params(2, 2, r=2)


def test_gadget_bezout_identity_across_grid():
    for n in range(2, 30):
        for m in range(2, n):
            if math.gcd(n, m) != 1:
                continue
            p = gadget_params(n, m)
            assert p.ell * m - p.c * p.b == 1
            assert 0 < p.b < m and 0 < p.ell <= p.b
            assert n == m * p.a + p.c and 0 < p.c < m


def test_build_gadget_basic_shapes():
    g = build_gadget(2, 1, 2)
    assert len(g.x_set) == 3 and len(g.structure.vertices) == 4
    assert delta_rel(g.structure, sorted(g.y_minus_x), sorted(g.x_set)) == -1
    g32 = build_gadget(3, 2, 2)
    assert len(g32.x_set) == 2
    assert delta_rel(g32.structure, sorted(g32.y_minus_x), sorted(g32.x_set)) == -1
    g85 = build_gadget(8, 5, 2)
    assert g85.params.b == 3 and not g85.degenerate
    assert build_gadget(12, 5, 2).degenerate  # 2-cycle collapses
    assert build_gadget(5, 4, 2).degenerate  # skeleton base too small


def test_build_gadget_determinism():
    a = build_gadget(9, 4, 2)
    b = build_gadget(9, 4, 2)
    assert a.structure == b.structure and a.x_set == b.x_set


def test_verify_gadget_pass_and_degenerate():
    rep = verify_gadget(build_gadget(2, 1, 2))
    assert rep.ok and {c.status for c in rep.cases} == {"PASS"}
    rep = verify_gadget(build_gadget(12, 5, 2))
    assert {c.status for c in rep.cases} == {"DEGENERATE"}


def test_verify_gadget_catches_corruption():
    g = build_gadget(2, 1, 2)
    S = g.structure
    inst = {name: list(tups) for name, tups in S.instances.items()}
    inst["R"].pop()
    corrupted = type(g)(FiniteStructure(S.signature, S.vertices, inst), g.x_set, g.params)
    rep = verify_gadget(corrupted)
    fails = rep.failures()
    assert fails and all(c.witness for c in fails)


def test_gadget_outputs_stay_in_c0():
    for n, m, r in [(2, 1, 2), (3, 2, 2), (8, 5, 2), (9, 4, 2), (1, 1, 3), (3, 2, 3)]:
        g = build_gadget(n, m, r)
        assert in_C0(g.structure).holds


def test_tower_amalgam_point_case():
    sig = graph_signature(2, 1)
    tower = build_tower_amalgam(
        FiniteStructure(sig, [0]), FiniteStructure(sig, [1]), [], build_gadget(2, 1, 2)
    )
    E = tower.structure
    assert len(E.vertices) == 4
    assert len(tower.copy_blocks) == 2
    assert self_sufficient(E, tower.c_block)[0]
    for blk in tower.copy_blocks:
        assert self_sufficient(E, blk)[0]
    assert in_C0(E).holds
    assert delta(E, E.vertices) >= delta(FiniteStructure(sig, [0]), [0])


def test_tower_amalgam_rejects_base_relations():
    sig = graph_signature(2, 1)
    g = build_gadget(2, 1, 2)
    S = g.structure
    inst = {name: list(tups) for name, tups in S.instances.items()}
    inst["R"].append((0, 1))
    bad = type(g)(FiniteStructure(S.signature, S.vertices, inst), g.x_set, g.params)
    with pytest.raises(InputError):
        build_tower_amalgam(FiniteStructure(sig, [0]), FiniteStructure(sig, [1]), [], bad)


def test_tower_amalgam_empty_arms():
    sig = graph_signature(2, 1)
    tower = build_tower_amalgam(
        FiniteStructure(sig, [0]), FiniteStructure(sig, []), [], build_gadget(2, 1, 2)
    )
    assert tower.copy_blocks == ()
    assert self_sufficient(tower.structure, tower.c_block)[0]


def test_fan_join_r3():
    B = FiniteStructure(hypergraph_signature(1, 1, 3), [0, 1])
    fan = build_fan_join(B, [0], 1, 3)
    assert fan.copy_blocks == (frozenset({0, 2}), frozenset({0, 3}))
    assert (fan.b_copies, fan.joined_vertex) == ((2, 3), 4)
    assert fan.structure.instances["R"] == ((2, 3, 4),)
    # class membership, copies and base + join d-closed, spokes perp the
    # base and the anchor in the spoke closure
    problems, E, _ = _fan_join_claims(B, [0], 1, 3, ControlFunction.half_harmonic(1))
    assert problems == []
    assert E == fan.structure


def test_fan_join_r4_and_growth_bound():
    sig = hypergraph_signature(1, 1, 4)
    B = FiniteStructure(sig, [0, 1, 2, 3], {"R": [(0, 1, 2, 3)]})
    problems, _, checked = _fan_join_claims(B, [0, 1], 2, 4, ControlFunction.half_harmonic(1))
    assert problems == []
    assert checked > 0


def test_fan_growth_bound_count_matches_the_set_loop():
    # the count of subsets the bound applies to, by sets of ids
    for r, a_size in [(3, 2), (4, 2)]:
        fan = build_fan_join(*_fan_instance(r, a_size, True, False), r)
        E, base = fan.structure, fan.base
        must = set(fan.b_copies) | {fan.joined_vertex}
        checked = 0
        for Y in (set(c) for k in range(len(E.vertices) + 1)
                  for c in itertools.combinations(E.vertices, k)):
            sizes = [len(Y & (blk - base)) for blk in fan.copy_blocks]
            checked += must <= Y and bool(Y & base) and max(sizes) >= 2
        assert _fan_growth_bound(fan, r) == (checked, True)


def test_fan_join_default_family_conflict_is_real():
    # with unit anchor and full harmonic increments, the joined relation set
    # dips below the bound: this documents why the slow family is used
    f = ControlFunction.harmonic(1)
    B = FiniteStructure(hypergraph_signature(1, 1, 3), [0, 1])
    problems, E, _ = _fan_join_claims(B, [0], 1, 3, f)
    assert problems == ["class membership FAIL, witness [2, 3, 4]"]
    membership = in_Cf(E, f)
    assert membership.witness == frozenset({2, 3, 4})
    assert membership.margin == Fraction(2) - Fraction(5, 2)


def test_double_cycle_shape():
    dc = build_double_cycle(73, 6)
    CD = dc.structure
    assert len(CD.vertices) == 146
    assert delta(CD, CD.vertices) == 73
    assert girth(CD) == 6
    with pytest.raises(InputError):
        build_double_cycle(72, 6)  # step not coprime
    with pytest.raises(InputError):
        build_double_cycle(73, 7)  # 12*step exceeds s


def test_double_cycle_sampling():
    dc = build_double_cycle(73, 6)
    samp = sample_closed_connected_subsets(dc, count=120, seed=7)
    assert samp.ok and samp.samples == 120
    sc = sample_c_closures(dc, count=60, seed=3)
    assert sc.ok


def test_cycle_fan():
    dc = build_double_cycle(73, 6)
    E, pendants = build_cycle_fan(dc)
    assert len(E.vertices) == 219
    assert delta(E, E.vertices) == 146
    assert pendants == tuple(range(146, 219))
    cases = {c.key: c for c in run_suite("ex512", samples=0).cases}
    assert cases["fan-delta-bound"].status == PASS
    assert cases["fan-delta-bound"].note == "smallest admissible s for this block: 73"
    # every D vertex and every pendant vertex d-closed, and the pendants
    # d-generate the whole fan
    assert cases["fan-closure-claims"].status == PASS


def test_fan_closure_claims_checks_every_position(monkeypatch):
    # a K4 on d_0 and three fresh vertices has delta 2 = delta({d_0}), so
    # d_0 (vertex 73) stops being d-closed; no other checked position does.
    # The claims were once checked on 3 + 3 seeded positions, and d_0 was not
    # among the seed-0 draw.
    def faulty(s, step):
        dc = build_double_cycle(s, step)
        fresh = [2 * s, 2 * s + 1, 2 * s + 2]
        k4 = list(itertools.combinations([dc.d_vertices[0], *fresh], 2))
        return dataclasses.replace(dc, structure=dc.structure.with_added(fresh, {"R": k4}))

    monkeypatch.setattr(suites, "build_double_cycle", faulty)
    case = next(c for c in run_suite("ex512", samples=0).cases if c.key == "fan-closure-claims")
    assert case.status == FAIL
    assert case.witness == "not d-closed: {73}, closure-covers-all=True"


def _clause_cases(g):
    """(status, witness) of "proper-parts" and "intermediate" by the loop form.

    The first U with a violation is the least violating W, so the loop
    form's U and violating set agree, and the witness is that one set.
    """
    S = g.structure
    proper, intermediate = brute_proper_parts(S, S.mask_of(g.x_set), S.mask_of(g.y_minus_x))
    assert proper is None or proper[0] == proper[1]
    return [
        ("PASS", None) if proper is None else ("FAIL", subset_witness(S.ids_of(proper[0]))),
        ("PASS", None) if intermediate is None else
        ("FAIL", subset_witness(S.ids_of(intermediate))),
    ]


def _faulty_gadgets():
    """Every suite-grid gadget with each edge removed in turn, and with the
    vertex or edge weight off by one."""
    grid = [(n, m, 2) for n in range(2, 11) for m in range(1, n)]
    grid += [(n, m, 3) for n in range(1, 7) for m in range(1, n + 1)]
    for n, m, r in grid:
        if math.gcd(n, m) != 1:
            continue
        g = build_gadget(n, m, r)
        if g.degenerate:
            continue
        S = g.structure
        yield g
        for k in range(len(S.instances["R"])):
            inst = {"R": [t for i, t in enumerate(S.instances["R"]) if i != k]}
            yield GadgetPair(FiniteStructure(S.signature, S.vertices, inst), g.x_set, g.params)
        rel = S.signature.relations[0]
        for nw, mw in ((n - 1, m), (n + 1, m), (n, m - 1), (n, m + 1)):
            if nw < 1 or mw < 0:
                continue
            sig = Signature(nw, (Relation(rel.name, rel.arity, mw),))
            yield GadgetPair(FiniteStructure(sig, S.vertices, S.instances), g.x_set, g.params)


def test_verify_gadget_matches_loop_forms_on_faults():
    # The suite's gadgets all pass, so the removed edges and wrong weights
    # are what show that each first witness is the loop form's.
    fails = [0, 0]
    for g in _faulty_gadgets():
        tag = f"n={g.params.n},m={g.params.m},r={g.params.r}"
        cases = {c.key: (c.status, c.witness) for c in verify_gadget(g).cases}
        got = [cases[f"{tag}:proper-parts"], cases[f"{tag}:intermediate"]]
        assert got == _clause_cases(g)
        fails = [f + (status == "FAIL") for f, (status, _) in zip(fails, got)]
    assert fails[0] >= 20 and fails[1] >= 1


@given(st.one_of(small_graphs(max_n=7), small_hypergraphs(max_n=7)), st.data())
@settings(max_examples=80, deadline=None)
def test_verify_gadget_matches_loop_forms(S, data):
    x_set = data.draw(subsets_of(S))
    g = GadgetPair(S, x_set, gadget_params(2, 1, 2))
    cases = {c.key: (c.status, c.witness) for c in verify_gadget(g).cases}
    assert [cases["n=2,m=1,r=2:proper-parts"], cases["n=2,m=1,r=2:intermediate"]] \
        == _clause_cases(g)
