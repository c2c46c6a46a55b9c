import itertools
import json
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    dump_structure,
    graph,
    graph_signature,
    hypergraph,
    is_d_closed,
    perp,
)
from predimlab import closures, independence
from predimlab.builder import C0
from predimlab.cli import main
from predimlab.closures import d_closed_subset_masks, delta_table, dim_cld_tables

from conftest import (
    brute_axiom_quadruples,
    brute_axiom_suite,
    brute_cld_from_table,
    brute_free_split,
    brute_lemma43_equivalence,
    brute_monotone_submodular,
    small_graphs,
    small_hypergraphs,
)


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
    for A, B, C in (([0, 1], [1], [1, 2]), ([0], [0], [0])):
        assert check_lemma43_characterization(P, A, B, C) and d_independent(P, A, B, C)
    with pytest.raises(ContractError):
        T = graph([(0, 1), (1, 2), (0, 2)])
        check_lemma43_characterization(T, [0, 1], [1], [1, 2])  # A not d-closed


def test_lemma43_detects_edge_between_sides():
    T = graph([(0, 1), (1, 2), (0, 2)])
    # singletons are d-closed in a triangle; the edge between sides breaks freeness
    assert not check_lemma43_characterization(T, [0], [], [2])
    assert not d_independent(T, [0], [], [2])


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
    assert check_lemma43_characterization(S, [0], [], [1]) == expected


# -- array passes against their loop forms -----------------------------------------


def _replays(S, dt, cl, witness):
    """Whether an ``axioms`` witness shows its check failing on the tables:
    X, i and j break the order in four dim entries, X and v the zero set in
    one cld entry."""
    fields = dict(part.split("=") for part in witness.split())
    x = S.mask_of(int(v) for v in fields["X"].strip("{}").split(",") if v)
    if "v" in fields:
        v = S.mask_of([int(fields["v"])])
        return bool(cl[x] & v) != bool(x & v or dt[x | v] == dt[x])
    i, j = (S.mask_of([int(fields[k])]) for k in "ij")
    return not x & (i | j) and dt[x | i] - dt[x] < dt[x | i | j] - dt[x | j]


def _check_axioms(S, dt, cl, size_cap):
    """Run ``axiom_suite`` on the given dim and cld tables and check its rule.

    Monotonicity FAILs exactly when the order fails by its loop form, and
    compatibility when the order or the zero set does; each witness replays
    on the tables; wherever a conftest oracle finds a witness, its case
    FAILs.  Returns the cases by key.
    """
    with pytest.MonkeyPatch.context() as mp:
        for mod in (closures, independence):
            mp.setattr(mod, "dim_cld_tables", lambda _S: (dt, cl))
        cases = {c.key: c for c in axiom_suite(S, size_cap=size_cap).cases}
    ordered = brute_monotone_submodular(dt)
    zero_set = all(cl[m] == brute_cld_from_table(dt, m) for m in range(len(dt)))
    fails = {key: case.status == "FAIL" for key, case in cases.items()}
    assert fails == {"compatibility": not (ordered and zero_set), "monotonicity": not ordered,
                     "symmetry": False, "transitivity": False}
    for case in cases.values():
        assert case.status == "PASS" or _replays(S, dt, cl, case.witness), case
    mono, trans = brute_axiom_quadruples(dt, size_cap)
    assert trans is None
    assert fails["monotonicity"] or mono is None
    assert fails["compatibility"] or brute_axiom_suite(S, dt, size_cap) is None
    return cases


def _check_against_loop_forms(S, dt, dtab, lemma43_cap, size_cap):
    """Run the checks on the given dim and delta tables, against the oracles.

    The cld array handed to the checks is read off ``dt`` by the loop form,
    so a corrupted dim entry reaches the d-closures as it would in the loop.
    Returns whether lemma 4.3, compatibility, monotonicity and transitivity
    failed.
    """
    cl = np.array([brute_cld_from_table(dt, m) for m in range(len(dt))], dtype=np.int32)
    with pytest.MonkeyPatch.context() as mp:
        for mod in (closures, independence):
            mp.setattr(mod, "dim_cld_tables", lambda _S: (dt, cl))
        mp.setattr(independence, "delta_table", lambda _S: dtab)
        got = independence._lemma43_equivalence_exhaustive(S, size_cap=lemma43_cap)
    want = brute_lemma43_equivalence(S, dt, dtab, lemma43_cap)
    # the report prints the witness tuple, so its element types count too
    assert (got[0], str(got[1])) == (want[0], str(want[1]))
    cases = _check_axioms(S, dt, cl, size_cap)
    return (got[1] is not None,
            *(cases[key].status == "FAIL" for key in ("compatibility", "monotonicity",
                                                      "transitivity")))


@given(st.one_of(small_graphs(max_n=7), small_hypergraphs(max_n=7)))
@settings(max_examples=40, deadline=None)
def test_lemma43_and_compatibility_match_loop_forms(S):
    _check_against_loop_forms(S, dim_cld_tables(S)[0], delta_table(S), 3, 2)


@pytest.mark.parametrize("seed", [0, 3, 7])
def test_lemma43_and_compatibility_match_loop_forms_on_faults(seed):
    # At the true tables everything passes, so only corrupted entries show
    # that the first witness is the loop form's.
    S = build_generic(BuildConfig(graph_signature(2, 1), C0, 2, 5, seed=seed)).structure
    rng = random.Random(seed)
    fails = [0, 0, 0, 0]  # lemma 4.3, compatibility, monotonicity, transitivity
    for trial in range(12):
        dt, dtab = dim_cld_tables(S)[0], delta_table(S).copy()
        table = dt if trial % 2 else dtab
        table[rng.randrange(1, len(table))] += rng.choice((-1, 1))
        for i, failed in enumerate(_check_against_loop_forms(S, dt, dtab, 3, 2)):
            fails[i] += failed
    # transitivity never fails, corrupted or not: from d(A/BC) = d(A/B) and
    # d(A/BCD) = d(A/BC) its check reads d(A/BCD) = d(A/B) by equality alone
    assert fails[0] >= 6 and fails[1] >= 3 and fails[2] >= 3 and fails[3] == 0


def test_lemma43_and_compatibility_match_loop_forms_on_corrupted_graphs():
    # Small graphs with one or two corrupted dim entries: on most of them
    # the oracles find compatibility or monotonicity witnesses, which the
    # table checks must turn into FAILs.
    rng = random.Random(0)
    for _ in range(500):
        n = rng.randint(2, 6)
        pool = list(itertools.combinations(range(n), 2))
        S = graph(rng.sample(pool, rng.randint(0, len(pool))), vertices=range(n))
        dt = dim_cld_tables(S)[0]
        for _ in range(rng.randint(1, 2)):
            dt[rng.randrange(len(dt))] += rng.choice((-1, 1))
        _check_against_loop_forms(S, dt, delta_table(S), 3, 2)


def test_lemma43_and_quadruple_passes_match_loop_forms_on_corrupted_hypergraphs():
    # 3-uniform hypergraphs with size caps of 3: the quadruple oracle then
    # takes its fourth set among triples, and a corrupted dim or delta entry
    # moves the first witness of the Lemma 4.3 pass anywhere in its order
    rng = random.Random(1)
    fails = [0, 0, 0, 0]
    for _ in range(50):
        n = rng.randint(3, 6)
        pool = list(itertools.combinations(range(n), 3))
        S = hypergraph(rng.sample(pool, rng.randint(0, min(len(pool), 6))), vertices=range(n))
        dt, dtab = dim_cld_tables(S)[0], delta_table(S).copy()
        for _ in range(rng.randint(1, 2)):
            table = dt if rng.random() < 0.5 else dtab
            table[rng.randrange(1, len(table))] += rng.choice((-1, 1))
        for i, failed in enumerate(_check_against_loop_forms(S, dt, dtab, 3, 3)):
            fails[i] += failed
    assert fails[0] >= 25 and fails[1] >= 10 and fails[2] >= 3 and fails[3] == 0


# -- the dim table's order ------------------------------------------------------


@given(st.one_of(small_graphs(max_n=11), small_hypergraphs(max_n=11)))
@settings(max_examples=60, deadline=None)
def test_every_dim_table_is_monotone_and_submodular(S):
    assert independence._monotone_submodular(dim_cld_tables(S)[0]) is None


def test_one_corrupted_dim_entry_breaks_the_order():
    # an edge {0, 1} has dim 3 and each end dim 2: at 1 it falls below them,
    # so adding 0 to {1} lowers dim
    S = graph([(0, 1)], vertices=range(3))
    dt, cl = dim_cld_tables(S)
    assert independence._monotone_submodular(dt) is None
    dt[0b011] -= 2
    assert independence._monotone_submodular(dt) == (0b010, 0, 0)
    assert not brute_monotone_submodular(dt)
    cases = _check_axioms(S, dt, _zero_set(dt), 3)
    for key in ("compatibility", "monotonicity"):
        assert (cases[key].status, cases[key].witness, cases[key].note) == (
            "FAIL", "X={1} i=0 j=0", "dim table out of order")


def test_an_ordered_dim_table_has_no_monotonicity_witness():
    # Graphs and 3-uniform hypergraphs with up to two corrupted dim entries:
    # the order check agrees with its loop form, and wherever it holds,
    # corrupted tables included, the per-quadruple loop finds no witness.
    rng = random.Random(2)
    ordered_faults = 0
    for trial in range(300):
        n = rng.randint(2, 4)
        arity = 2 + trial % 2
        pool = list(itertools.combinations(range(n), arity))
        inst = rng.sample(pool, rng.randint(0, len(pool)))
        S = graph(inst, vertices=range(n)) if arity == 2 else hypergraph(inst, vertices=range(n))
        clean = dim_cld_tables(S)[0]
        dt = clean.copy()
        for _ in range(rng.randint(0, 2)):
            dt[rng.randrange(1, len(dt))] += rng.choice((-1, 1))
        ordered = independence._monotone_submodular(dt) is None
        assert ordered == brute_monotone_submodular(dt)
        if ordered:
            assert brute_axiom_quadruples(dt, 3)[0] is None
            ordered_faults += bool((dt != clean).any())
    assert ordered_faults >= 20


# -- the d-closures as the dim table's zero set -------------------------------


def _zero_set(dt):
    return np.array([brute_cld_from_table(dt, m) for m in range(len(dt))], dtype=np.int32)


@given(st.one_of(small_graphs(max_n=11), small_hypergraphs(max_n=11)))
@settings(max_examples=60, deadline=None)
def test_every_cld_table_is_the_dim_tables_zero_set(S):
    assert independence._closure_is_zero_set(*dim_cld_tables(S)) is None


def test_one_corrupted_cld_entry_breaks_the_check_and_reaches_the_pass():
    # the edge {0, 1} beside the point 2: adding 2 to cld({0}) is a corruption
    # that the order cannot see, so compatibility alone FAILs
    S = graph([(0, 1)], vertices=range(3))
    dt, cl = dim_cld_tables(S)
    assert independence._closure_is_zero_set(dt, cl) is None and (cl == _zero_set(dt)).all()
    cl = cl.copy()
    cl[0b001] |= 0b100
    assert independence._closure_is_zero_set(dt, cl) == (0b001, 2)
    assert independence._monotone_submodular(dt) is None
    case = _check_axioms(S, dt, cl, 3)["compatibility"]
    assert (case.status, case.witness, case.note) == (
        "FAIL", "X={0} v=2", "cld is not the dim table's zero set")


def test_an_ordered_zero_set_table_has_no_compatibility_witness():
    # Graphs and 3-uniform hypergraphs with up to two corrupted dim entries
    # and cld their zero set: the zero-set check agrees with its loop form,
    # and wherever the order holds too, the per-(A, B) loop finds no witness.
    rng = random.Random(3)
    ordered_faults = 0
    for trial in range(300):
        n = rng.randint(2, 4)
        arity = 2 + trial % 2
        pool = list(itertools.combinations(range(n), arity))
        inst = rng.sample(pool, rng.randint(0, len(pool)))
        S = graph(inst, vertices=range(n)) if arity == 2 else hypergraph(inst, vertices=range(n))
        clean = dim_cld_tables(S)[0]
        dt = clean.copy()
        for _ in range(rng.randint(0, 2)):
            dt[rng.randrange(1, len(dt))] += rng.choice((-1, 1))
        assert independence._closure_is_zero_set(dt, _zero_set(dt)) is None
        if independence._monotone_submodular(dt) is None:
            assert brute_axiom_suite(S, dt, 3) is None
            ordered_faults += bool((dt != clean).any())
    assert ordered_faults >= 20


def _chorded_16_cycle():
    return graph([(i, (i + 1) % 16) for i in range(16)] + [(0, 8), (4, 12), (2, 10)])


@pytest.mark.parametrize("cap", [3, 16])
def test_cli_axioms_on_the_chorded_16_cycle_passes(tmp_path, capsys, cap):
    # 369 d-closed sets at --cap 3: a search over a fourth set once cut it
    # to a prefix here and left monotonicity and transitivity PARTIAL, and a
    # (vertex, B, C) compatibility table refused --cap 16 at 3.06 billion
    # cells; the two table checks take neither
    f = tmp_path / "h.pdl"
    f.write_text(dump_structure(_chorded_16_cycle()))
    assert main(["axioms", str(f), "--cap", str(cap)]) == 0
    assert "summary: 4 cases, PASS=4\n" in capsys.readouterr().out


# Machine-report digests of `predimlab axioms FILE`, recorded before the
# suite's fallback passes went: the chorded 16-cycle, and the seed-0 c0
# build at budget 5 (11 vertices) at the default --cap.
AXIOMS_FILE_PINS = [
    ("cycle", ["--cap", "3"], "46c12aab526c484fb3063dc7078bbc25127fdcae627a88ee04bad0becc908b66"),
    ("cycle", ["--cap", "16"], "ad40da9b303ea6ff691ee3d64de7d39c18ec1310e439a48f5458632dd3437521"),
    ("c0", [], "faf230280e99f1bbd2f0df1c2c716405e9ea7352eafafe317c433c16268ee1e2"),
]


@pytest.mark.parametrize("name,flags,digest", AXIOMS_FILE_PINS,
                         ids=[f"{name}{''.join(flags)}" for name, flags, _ in AXIOMS_FILE_PINS])
def test_cli_axioms_file_digest_is_pinned(tmp_path, capsys, name, flags, digest):
    f = tmp_path / "s.pdl"
    if name == "cycle":
        f.write_text(dump_structure(_chorded_16_cycle()))
    else:
        assert main(["build", "--class", "c0", "--budget", "5", "--seed", "0",
                     "--out", str(f)]) == 0
    capsys.readouterr()
    assert main(["axioms", str(f), *flags, "--report", "machine"]) == 0
    assert json.loads(capsys.readouterr().out)["digest"] == digest


@pytest.mark.parametrize("n", [12, 80])
def test_free_split_matches_loop_form(n):
    # 80 vertices take masks past int64, where the split works on Python ints
    rng = random.Random(n)
    pool = list(itertools.combinations(range(n), 2))
    S = graph(rng.sample(pool, n // 2), vertices=range(n))
    seen = set()
    for _ in range(300):
        u, v = rng.getrandbits(n) & rng.getrandbits(n), rng.getrandbits(n) & rng.getrandbits(n)
        b = u & v if rng.random() < 0.8 else rng.getrandbits(n)
        got = independence.lemma43_free_split(S, u, v, b)
        assert got == brute_free_split(S, u, v, b)
        seen.add(bool(got))
    assert seen == {True, False}
