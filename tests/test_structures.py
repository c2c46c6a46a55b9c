import ast
import itertools
import random
import re

import numpy as np
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
    polygon_signature,
    self_sufficient,
)
from predimlab import builder, closures, independence, suites
from predimlab.closures import StructureFlowSolver, cl0, cld, delta_table, dim, hand_over_solver
from predimlab.reports import FAIL, PASS
from predimlab.structures import (
    LINE,
    POINT,
    _canonical_search,
    _refine_colors,
    bipartite_graph,
    delta_mask,
)

from conftest import (
    brute_canonical_form,
    brute_delta,
    brute_isomorphic,
    brute_refine_colors,
    brute_restriction,
    brute_self_sufficient,
    brute_strong_pairs,
    brute_submodularity,
    brute_transitivity,
    cycle_graph,
    extension_chains,
    small_bipartite,
    small_graphs,
    small_hypergraphs,
    small_structures,
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
    Signature(2, (Relation("R", 2, 1), Relation("T", 3, 0)))


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


@given(st.one_of(small_structures(max_n=12), extension_chains().map(lambda chain: chain[-1])),
       st.data())
@settings(max_examples=100, deadline=None)
def test_delta_mask_matches_the_instance_scan(S, data):
    # zero-weight relations, and masks sparse enough to read single rows
    for _ in range(8):
        X = data.draw(st.lists(st.sampled_from(S.vertices), unique=True)) if S.vertices else []
        assert delta_mask(S, S.mask_of(X)) == brute_delta(S, X)


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
    assert self_sufficient(P3, [0, 3])[0]
    P2 = path_graph(2)
    assert self_sufficient(P2, [0, 2])[0]
    T = graph([(0, 1), (1, 2), (0, 2)])
    assert self_sufficient(T.induced([0, 1, 2]), [0, 1, 2])[0]  # A = B
    E = graph([(0, 1)], n=1, m=2)
    assert self_sufficient(E.induced([0, 1]), [0]) == (False, frozenset({0, 1}))


def test_self_sufficiency_minimal_witness():
    # two violating supersets; the minimal-delta one must be returned
    S = graph([(0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)], n=1, m=1)
    holds, witness = self_sufficient(S, [0])
    assert not holds
    d = delta(S, witness)
    for k in range(1, 5):
        for X in itertools.combinations(S.vertices, k):
            if 0 in X:
                assert delta(S, X) >= d


def test_self_sufficiency_cap():
    # the exact check has no enumeration cap
    S = graph([], vertices=range(30))
    assert self_sufficient(S, []) == (True, None)


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
                    got = self_sufficient(S.induced(B), A)
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


@given(st.one_of(small_graphs(max_n=6), small_hypergraphs(max_n=6), small_bipartite(max_n=7),
                 small_structures(max_n=6)), st.data())
@settings(max_examples=200, deadline=None)
def test_canonical_form_equals_permutation_product(S, data):
    colors = None
    if data.draw(st.booleans()):
        colors = {v: data.draw(st.integers(0, 2)) for v in S.vertices if data.draw(st.booleans())}
    form, autos = _canonical_search(S, colors)
    assert form == brute_canonical_form(S, colors)
    assert canonical_form(S, colors=colors) == form
    vs, index = S.vertices, S._index
    for g in autos:
        assert sorted(g) == list(range(len(vs)))
        for name, tups in S.instances.items():
            assert {tuple(sorted(vs[g[index[v]]] for v in t)) for t in tups} == set(tups)
        if colors is not None:
            assert all(colors.get(vs[g[i]], 0) == colors.get(v, 0) for i, v in enumerate(vs))
        elif S.parts:
            assert all(S.parts[vs[g[i]]] == S.parts[v] for i, v in enumerate(vs))


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


@pytest.mark.parametrize("mapping", [
    {0: 10, 1: 11, 7: 12},  # vertex 2 left out, 7 not a vertex
    {0: 10, 2: 12, 7: 11},  # vertex 1 left out
    {0: 10, 1: 11},  # vertex 2 left out
    {0: 10, 1: 11, 2: 11},  # two vertices on one id
    {0: 10, 1: 11, 2: 12, 3: 13},  # 3 not a vertex
])
def test_relabel_takes_only_a_bijection_of_the_vertex_set(mapping):
    S = graph([(0, 1)], vertices=[0, 1, 2])
    with pytest.raises(InputError, match="injective and total"):
        S.relabel(mapping)
    assert S.relabel({0: 10, 1: 11, 2: 12}) == graph([(10, 11)], vertices=[10, 11, 12])


def test_derived_structures_of_an_empty_bipartite_structure():
    empty = FiniteStructure(polygon_signature(3), [], {}, {})
    assert empty.induced([]) == empty
    assert empty.relabel({}) == empty
    assert empty.with_added([], {}) == empty
    grown = empty.with_added([0, 1], {"adj": [(0, 1)]}, {0: POINT, 1: LINE})
    assert grown.parts == {0: POINT, 1: LINE} and grown.instances["adj"] == ((0, 1),)


def _step_of(prev, nxt):
    """with_added arguments that take prev to nxt."""
    n = len(prev.vertices)
    inst = {name: sorted(set(tups) - set(prev.instances[name]))
            for name, tups in nxt.instances.items()}
    parts = {v: nxt.parts[v] for v in nxt.vertices[n:]} if nxt.parts is not None else None
    return nxt.vertices[n:], inst, parts


@given(st.one_of(extension_chains(), extension_chains(bipartite=True)),
       st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_chain_steps_equal_fresh_structures(chain, rng):
    real_init = FiniteStructure.__init__
    inits = []

    def counted_init(self, *args, **kwargs):
        inits.append(1)
        real_init(self, *args, **kwargs)

    steps = [chain[0]]
    for nxt in chain[1:]:
        S = steps[-1]
        # a step may find the index of the structure it extends built or not
        if rng.random() < 0.5:
            S.bit_index()
        new_vertices, new_instances, new_parts = _step_of(S, nxt)
        chain_step = all(t[-1] >= len(S.vertices) for ts in new_instances.values() for t in ts)
        inits.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(FiniteStructure, "__init__", counted_init)
            steps.append(S.with_added(new_vertices, new_instances, new_parts))
        assert bool(inits) != chain_step  # only other steps build afresh
    for out, nxt in zip(steps[1:], chain[1:]):
        fresh = FiniteStructure(nxt.signature, nxt.vertices, nxt.instances, nxt.parts)
        assert out == fresh and out._key == fresh._key and hash(out) == hash(fresh)
        assert out.bit_index() == fresh.bit_index()
        assert dump_structure(out) == dump_structure(fresh)
    # the weighted instances meeting a position >= n are the tail of
    # ``weighted`` from starts[n], and every row of a fresh index runs by
    # highest position, then in storage order
    for S, out in zip(steps, steps[1:]):
        n, bx = len(S.vertices), out.bit_index()
        weights = {rel.name: rel.weight for rel in out.signature.relations}
        meeting = [(m, weights[name]) for name, m in bx.pairs if m >> n and weights[name]]
        assert sorted(bx.weighted[bx.starts[n]:]) == sorted(meeting)
        fresh = FiniteStructure(out.signature, out.vertices, out.instances, out.parts)
        storage = [(rel.name, out.mask_of(tup)) for rel in out.signature.relations
                   for tup in fresh.instances[rel.name]]
        rank = {pair: r for r, pair in enumerate(storage)}
        by_top = sorted(storage, key=lambda pair: (pair[1].bit_length(), rank[pair]))
        fx = fresh.bit_index()
        for i, row in enumerate(fx.through):
            assert list(row) == [pair for pair in by_top if pair[1] >> i & 1]
        assert list(fx.weighted) == [(m, weights[name]) for name, m in by_top if weights[name]]
    # a network handed over along the chain moves from slot to slot and
    # answers as a fresh one; a step with an instance among the old vertices
    # drops it for a fresh one
    solver = closures._solver_for(steps[0])
    for S, out in zip(steps, steps[1:]):
        hand_over_solver(S, out)
        assert S._solver is None
        if all(m >> len(S.vertices) for _, m in out.bit_index().pairs - S.bit_index().pairs):
            assert out._solver is solver
        else:
            assert out._solver is None
            solver = closures._solver_for(out)
        fresh = StructureFlowSolver(FiniteStructure(out.signature, out.vertices, out.instances,
                                                    out.parts))
        for _ in range(6):
            xmask = rng.getrandbits(len(out.vertices)) if out.vertices else 0
            X = out.ids_of(xmask)
            value, least, greatest = fresh.solve(xmask)
            assert dim(out, X, engine="flow") == value
            assert cl0(out, X, engine="flow").closure == out.ids_of(least)
            assert cld(out, X, engine="flow") == out.ids_of(greatest)


BIPARTITE_EDGE = bipartite_graph([(0, 1)], [0], [1], 3)


@pytest.mark.parametrize("S,new_vertices,new_instances,new_parts", [
    pytest.param(path_graph(3), [4], {"R": [(0, 3, 4)]}, None, id="wrong-arity"),
    pytest.param(path_graph(3), [4], {"R": [(4, 4)]}, None, id="repeated-vertex"),
    pytest.param(path_graph(3), [4], {"R": [(4, 9)]}, None, id="unknown-vertex"),
    pytest.param(BIPARTITE_EDGE, [2], {"adj": [(0, 2)]}, {2: POINT}, id="same-part-edge"),
    pytest.param(BIPARTITE_EDGE, [2], {"adj": [(1, 2)]}, {}, id="missing-part-label"),
    pytest.param(path_graph(3), [4], {"R": [(3, 4)]}, {4: POINT}, id="parts-outside-bipartite"),
])
def test_chain_steps_raise_what_the_constructor_raises(
    monkeypatch, S, new_vertices, new_instances, new_parts
):
    inst = {name: [*tups, *new_instances.get(name, ())] for name, tups in S.instances.items()}
    parts = {**S.parts, **new_parts} if S.parts is not None else new_parts
    with pytest.raises(InputError) as general:
        FiniteStructure(S.signature, [*S.vertices, *new_vertices], inst, parts)

    def no_init(self, *args, **kwargs):
        raise AssertionError("a chain step built a structure afresh")

    monkeypatch.setattr(FiniteStructure, "__init__", no_init)
    with pytest.raises(InputError) as chain:
        S.with_added(new_vertices, new_instances, new_parts)
    assert str(chain.value) == str(general.value)


def test_free_amalgam():
    A = graph([], vertices=[0])
    B = graph([(0, 1)])
    C = graph([(0, 2)])
    F = free_amalgam([0], B, C)
    assert set(F.vertices) == {0, 1, 2}
    assert len(F.instances["R"]) == 2
    with pytest.raises(InputError):
        free_amalgam([0], B, graph([(0, 1)]))  # overlapping non-base ids


def _breaks_submodularity(dt, x, i, j):
    """(X, i, j) is a single-point violation of submodularity in ``dt``: X
    holds neither of the points i != j, and A = X|i, B = X|j have
    delta(A|B) + delta(A&B) > delta(A) + delta(B)."""
    a, b = x | 1 << i, x | 1 << j
    return i != j and not x & (1 << i | 1 << j) and dt[a | b] + dt[a & b] > dt[a] + dt[b]


@given(st.one_of(small_graphs(max_n=6), small_hypergraphs(max_n=6)), st.data())
@settings(max_examples=80, deadline=None)
def test_submodularity_check_matches_the_loop_form(S, data):
    dt = np.array(delta_table(S), dtype=np.int64)
    for _ in range(3):  # the engine's table, then with one and two corrupted entries
        step = independence._monotone_submodular(dt, monotone=False)
        assert (step is None) == (brute_submodularity(dt) is None)
        assert step is None or _breaks_submodularity(dt, *step)
        dt[data.draw(st.integers(0, len(dt) - 1))] += data.draw(st.sampled_from((-2, -1, 1, 2)))


def test_submodular_tables_never_break_restriction_or_transitivity():
    # The theorem in submodularity_suite's docstring, on the conftest loops:
    # wherever the check passes, the strong-subset relation restricts and is
    # transitive.  Engine tables pass, and so do faults that add a modular
    # function, lower delta at the empty or the whole set, or move one entry
    # harmlessly; where the check fails, the loops do find faults.
    rng = random.Random(0)
    passed, caught = {}, 0
    for trial in range(400):
        n = rng.randint(1, 5)
        pool = list(itertools.combinations(range(n), 2))
        S = graph(rng.sample(pool, rng.randint(0, len(pool))), vertices=range(n))
        dt = np.array(delta_table(S), dtype=np.int64)
        masks = np.arange(len(dt))
        fault = trial % 4
        if fault == 1:
            dt[rng.randrange(len(dt))] += rng.choice((-2, -1, 1, 2))
        elif fault == 2:
            dt += sum(rng.randint(-3, 3) * (masks >> i & 1) for i in range(n))
        elif fault == 3:
            dt[rng.choice((0, -1))] -= rng.randint(1, 3)
        SS = brute_strong_pairs(dt)
        faults = brute_restriction(SS), brute_transitivity(SS)
        if independence._monotone_submodular(dt, monotone=False) is None:
            assert faults == (None, None), (trial, faults)
            passed[fault] = passed.get(fault, 0) + 1
        else:
            caught += faults != (None, None)
    assert passed[0] == passed[2] == passed[3] == 100 and passed[1] >= 30
    assert caught >= 5


def _exhaustive_deck(seed, max_n=5):
    """Every graph type up to ``max_n`` vertices with its delta table, keyed
    by ``id``."""
    graphs = builder._isomorph_free_types(graph_signature(2, 1), max_n, lambda G: True)
    tables = {id(G): np.array(delta_table(G), dtype=np.int64) for G in graphs}
    return random.Random(seed), graphs, tables


@pytest.mark.parametrize("seed", range(8))
def test_exhaustive_passes_match_loop_forms_on_corrupted_tables(monkeypatch, seed):
    # Corrupted delta entries in two graphs of 4 or 5 vertices, until the
    # loop form flags each: the suite names the first of them in list order,
    # with a pair that breaks the inequality on its corrupted table.
    rng, graphs, tables = _exhaustive_deck(seed)
    monkeypatch.setattr(suites, "delta_table", lambda G: tables[id(G)])
    assert suites._first_exhaustive_failure(graphs) is None
    start = [len(G.vertices) for G in graphs].index(4)
    first, second = sorted(rng.sample(range(start, len(graphs)), 2))
    for g in (first, second):
        dt = tables[id(graphs[g])]
        while brute_submodularity(dt) is None:
            dt[rng.randrange(len(dt))] += rng.choice((-2, -1, 1, 2))
    flagged = next(G for G in graphs if brute_submodularity(tables[id(G)]) is not None)
    assert flagged is graphs[first]
    G, a, b, left, right = _replay(suites._first_exhaustive_failure(graphs))
    assert G == flagged
    dt = tables[id(flagged)]
    assert left == dt[a | b] + dt[a & b] > dt[a] + dt[b] == right


@pytest.mark.parametrize("seed", range(8))
def test_exhaustive_passes_match_loop_forms_on_corrupted_relations(monkeypatch, seed):
    # Faults that keep delta submodular but change the strong-subset
    # relation of one or two graphs of 4 or 5 vertices: a modular function
    # added (even seeds), or delta lowered at the whole set (odd seeds).  The
    # suite passes every graph, and the loop forms find no restriction or
    # transitivity fault in any changed relation.
    rng, graphs, tables = _exhaustive_deck(seed)
    monkeypatch.setattr(suites, "delta_table", lambda G: tables[id(G)])
    sizes = [len(G.vertices) for G in graphs]
    for G in rng.sample(graphs[sizes.index(4) + 1:], rng.randint(1, 2)):
        dt = tables[id(G)]
        before = brute_strong_pairs(dt)
        while (brute_strong_pairs(dt) == before).all():
            if seed % 2:
                dt[-1] -= 1
            else:
                masks = np.arange(len(dt))
                dt += sum(rng.randint(-2, 2) * (masks >> i & 1) for i in range(len(G.vertices)))
        SS = brute_strong_pairs(dt)
        assert brute_restriction(SS) is None and brute_transitivity(SS) is None
    assert suites._first_exhaustive_failure(graphs) is None


_SUBMODULARITY_WITNESS = re.compile(
    r"A=(\{.*?\}) B=(\{.*?\}) in graph on (\{.*?\}) with edges (\[.*\]): "
    r"delta\(A\|B\) \+ delta\(A&B\) = (-?\d+) > (-?\d+) = delta\(A\) \+ delta\(B\)")


def _replay(witness):
    """(G, A, B, left, right) from a submodularity witness: the graph it
    names, A and B as masks of G, and the two sums it reports."""
    m = _SUBMODULARITY_WITNESS.fullmatch(witness)
    assert m, witness
    a, b, vertices = (ast.literal_eval(m[k].replace("{", "[").replace("}", "]")) for k in (1, 2, 3))
    G = graph(ast.literal_eval(m[4]), vertices=vertices)
    return G, G.mask_of(a), G.mask_of(b), int(m[5]), int(m[6])


def test_the_negative_control_witness_replays_on_the_corrupted_table():
    # the control raises delta of the triangle's whole vertex set by 5; its
    # witness names the triangle and sums that differ from the true table's
    # by that entry alone
    rep = suites.run_suite("submodularity", max_n=2, oracle_cases=0, negative_control=True)
    control = {c.key: c for c in rep.cases}["negative-control:corrupted-delta"]
    G, a, b, left, right = _replay(control.witness)
    assert G == graph([(0, 1), (1, 2), (0, 2)])
    dt = np.asarray(delta_table(G))
    assert a | b == G.full_mask() and right == dt[a] + dt[b]
    assert left == dt[a | b] + 5 + dt[a & b] > right >= dt[a | b] + dt[a & b]


def test_each_exhaustive_case_fails_on_a_table_that_is_not_submodular(monkeypatch):
    # One 4-vertex graph type with a non-edge gets delta of its whole vertex
    # set raised by 1: the two sets that each miss one end of the non-edge
    # then break submodularity.  All three exhaustive cases FAIL on it.
    true_table = suites.delta_table
    types = builder._isomorph_free_types(graph_signature(2, 1), 4, lambda G: True)
    target = next(G for G in types if len(G.vertices) == 4 and len(G.instances["R"]) == 3)
    key = canonical_form(target)
    corrupted = np.array(true_table(target), dtype=np.int64)
    corrupted[-1] += 1

    def table(G):
        if len(G.vertices) == 4 and canonical_form(G) == key:
            return corrupted
        return true_table(G)

    monkeypatch.setattr(suites, "delta_table", table)
    rep = suites.run_suite("submodularity", max_n=4, oracle_cases=0)
    cases = {c.key: c for c in rep.cases}
    exhaustive = [cases[f"{name}-exhaustive"]
                  for name in ("submodularity", "restriction", "transitivity")]
    assert all(c.status == FAIL for c in exhaustive)
    witness = exhaustive[0].witness
    assert all(c.witness == witness for c in exhaustive)
    G, a, b, left, right = _replay(witness)
    assert G == target
    assert left == corrupted[a | b] + corrupted[a & b] > corrupted[a] + corrupted[b] == right
    assert cases["restriction-exhaustive"].note == "delta table not submodular"
    assert cases["transitivity-exhaustive"].note == "delta table not submodular"
    assert cases["closure-oracle-agreement"].status == PASS


@given(st.one_of(small_structures(), small_hypergraphs(), small_bipartite()), st.data())
@settings(max_examples=150, deadline=None)
def test_refine_colors_matches_rescan(S, data):
    colors = None
    if data.draw(st.booleans()):
        colors = {v: data.draw(st.integers(0, 2)) for v in S.vertices if data.draw(st.booleans())}
    assert _refine_colors(S, colors) == brute_refine_colors(S, colors)
