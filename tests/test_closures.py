import gc
import itertools
import json
import os
import random
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predimlab import (
    cl0,
    cld,
    delta,
    dim,
    graph,
    hypergraph,
    in_C0,
    is_d_closed,
    path_graph,
    self_sufficient,
)
from predimlab import CapacityError, closures
from predimlab.closures import (
    StructureFlowSolver,
    _solve,
    _solver_for,
    d_closed_subset_masks,
    hand_over_solver,
)
from predimlab.builder import enumerate_class, C0
from predimlab.structures import (
    FiniteStructure,
    Relation,
    Signature,
    graph_signature,
)

from conftest import (
    brute_d_closed_masks,
    brute_delta,
    brute_min_superset,
    brute_self_sufficient,
    extension_chains,
    small_graphs,
    small_hypergraphs,
)


def test_cl0_examples():
    P2 = path_graph(2)
    res = cl0(P2, [0, 2])
    assert res.closure == frozenset({0, 2})
    assert res.dimension == 4
    assert res.trace == ()
    T = graph([(0, 1), (1, 2), (0, 2)])
    assert cl0(T, [0]).closure == frozenset({0})
    # fixed point: an already strong set closes to itself
    assert cl0(P2, [0, 1, 2]).closure == frozenset({0, 1, 2})


def test_cl0_trace_records_absorption():
    E = graph([(0, 1)], n=1, m=2)
    res = cl0(E, [0])
    assert res.closure == frozenset({0, 1})
    assert res.trace == (frozenset({1}),)


def test_dim_examples():
    P3 = path_graph(3)
    assert dim(P3, [0, 3]) == 4
    assert dim(P3, []) == 0
    T = graph([(0, 1), (1, 2), (0, 2)])
    assert dim(T, [0, 1, 2]) == 3


def test_cld_examples():
    P2 = path_graph(2)
    assert cld(P2, [0, 2]) == frozenset({0, 1, 2})
    P3 = path_graph(3)
    assert cld(P3, [0, 3]) == frozenset({0, 3})
    assert cld(P3, P3.vertices) == frozenset(P3.vertices)


def test_is_d_closed_examples():
    assert not is_d_closed(path_graph(2), [0, 2])
    assert is_d_closed(path_graph(3), [0, 3])
    # single vertices and the empty set are closed in these graphs
    P = path_graph(4)
    assert is_d_closed(P, [])
    for v in P.vertices:
        assert is_d_closed(P, [v])


def _table(S, xmask):
    return _solve(S, xmask, engine="table")


def _flow(S, xmask):
    return _solve(S, xmask, engine="flow")


@given(small_graphs())
@settings(max_examples=80, deadline=None)
def test_engines_match_brute_oracle(S):
    for k in range(len(S.vertices) + 1):
        for X in itertools.combinations(S.vertices, k):
            oracle = brute_min_superset(S, X)
            xmask = S.mask_of(X)
            for solver in (_table, _flow):
                val, minimal, maximal = solver(S, xmask)
                assert val == oracle[0]
                assert S.ids_of(minimal) == oracle[1]
                assert S.ids_of(maximal) == oracle[2]


@given(small_hypergraphs())
@settings(max_examples=40, deadline=None)
def test_engines_match_brute_oracle_hypergraphs(S):
    for k in range(len(S.vertices) + 1):
        for X in itertools.combinations(S.vertices, k):
            oracle = brute_min_superset(S, X)
            xmask = S.mask_of(X)
            val, minimal, maximal = _table(S, xmask)
            assert (val, S.ids_of(minimal), S.ids_of(maximal)) == oracle
            assert _table(S, xmask) == _flow(S, xmask)


@st.composite
def tied_structures(draw, max_n=7, min_n=0, unit=1):
    """Weights up to 3 units and a zero-weight relation, so minima often tie."""
    n = draw(st.integers(min_n, max_n))
    arity = draw(st.integers(2, 3))
    sig = Signature(unit * draw(st.integers(1, 3)),
                    (Relation("R", arity, unit * draw(st.integers(1, 3))), Relation("Z", 2, 0)))

    def pick(k):
        pool = list(itertools.combinations(range(n), k))
        return draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))

    return FiniteStructure(sig, range(n), {"R": pick(arity), "Z": pick(2)})


@given(tied_structures())
@settings(max_examples=80, deadline=None)
def test_lattice_table_matches_brute_oracle_on_every_mask(S):
    least, greatest = closures.dim_table_cached(S)
    dt, cl = closures.dim_cld_tables(S)
    assert least.dtype == greatest.dtype == np.int32
    assert not (least.flags.writeable or greatest.flags.writeable)
    assert (cl == greatest).all()
    for xmask in range(1 << len(S.vertices)):
        val, minimal, maximal = brute_min_superset(S, S.ids_of(xmask))
        got = int(dt[xmask]), S.ids_of(int(least[xmask])), S.ids_of(int(greatest[xmask]))
        assert got == (val, minimal, maximal)


# Weights near 2**54: at 3 or more vertices delta spans at least one unit,
# so (span + 1) << (n + 5) passes 2**62 and the key is the rank of delta.
@given(tied_structures(min_n=3, unit=2**54 + 1))
@settings(max_examples=40, deadline=None)
def test_lattice_table_with_large_weights_uses_the_rank_key(S):
    unique = np.unique
    ranked = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "unique", lambda *a, **k: ranked.append(1) or unique(*a, **k))
        least, greatest = closures.dim_table_cached.__wrapped__(S)
    assert ranked
    dt = closures.delta_table(S)
    for xmask in range(1 << len(S.vertices)):
        val, minimal, maximal = brute_min_superset(S, S.ids_of(xmask))
        got = int(dt[least[xmask]]), S.ids_of(int(least[xmask])), S.ids_of(int(greatest[xmask]))
        assert got == (val, minimal, maximal)


def _c0_structures_up_to(n):
    sig = graph_signature(2, 1)
    return [S for S in enumerate_class(sig, C0, n)]


def test_cl0_is_closure_operator_exhaustive():
    for S in _c0_structures_up_to(6):
        verts = list(S.vertices)
        closures = {}
        for k in range(len(verts) + 1):
            for X in itertools.combinations(verts, k):
                closures[frozenset(X)] = cl0(S, X).closure
        for X, cx in closures.items():
            assert X <= cx  # extensive
            assert closures[cx] == cx  # idempotent
            ok, _ = self_sufficient(S, cx)
            assert ok
            for Y, cy in closures.items():
                if X <= Y:
                    assert cx <= cy  # monotone
            # smallest strong superset: intersection of all strong supersets
            strong = [
                frozenset(Y)
                for k in range(len(verts) + 1)
                for Y in itertools.combinations(verts, k)
                if X <= set(Y) and self_sufficient(S, Y)[0]
            ]
            assert cx == frozenset.intersection(*strong)


def test_cld_properties_exhaustive_small():
    for S in _c0_structures_up_to(5):
        verts = list(S.vertices)
        for k in range(len(verts) + 1):
            for X in itertools.combinations(verts, k):
                dx = cld(S, X)
                assert cl0(S, X).closure <= dx
                assert cld(S, dx) == dx  # idempotent
                assert brute_delta(S, dx) == dim(S, X)
                for v in S.vertices:
                    got = dim(S, set(X) | {v})
                    assert (got == dim(S, X)) == (v in dx)


@given(small_graphs(max_n=6))
@settings(max_examples=40, deadline=None)
def test_dim_monotonicity_bounds(S):
    n_w = S.signature.vertex_weight
    verts = list(S.vertices)
    for k in range(len(verts) + 1):
        for X in itertools.combinations(verts, k):
            dX = dim(S, X)
            for j in range(k, len(verts) + 1):
                for Y in itertools.combinations(verts, j):
                    if set(X) <= set(Y):
                        dY = dim(S, Y)
                        assert dX <= dY <= dX + n_w * (len(Y) - len(X))


def test_d_closed_enumeration_matches_pointwise():
    S = graph([(0, 1), (1, 2), (2, 3), (3, 0), (1, 3)])
    masks = set(d_closed_subset_masks(S))
    for k in range(len(S.vertices) + 1):
        for X in itertools.combinations(S.vertices, k):
            assert (S.mask_of(X) in masks) == is_d_closed(S, X)


def _check_flow_queries(S, max_k):
    for k in range(min(len(S.vertices), max_k) + 1):
        for X in itertools.combinations(S.vertices, k):
            best, least, greatest = brute_min_superset(S, X)
            assert dim(S, X, engine="flow") == best
            res = cl0(S, X, engine="flow")
            assert (res.closure, res.dimension) == (least, best)
            assert cld(S, X, engine="flow") == greatest
            assert is_d_closed(S, X, engine="flow") == (greatest == frozenset(X))
            want = brute_self_sufficient(S, X, S.vertices)
            for engine in ("table", "flow"):
                assert self_sufficient(S, X, engine=engine) == want


@given(small_graphs())
@settings(max_examples=60, deadline=None)
def test_flow_queries_match_brute_oracle(S):
    _check_flow_queries(S, max_k=len(S.vertices))


@given(small_hypergraphs())
@settings(max_examples=60, deadline=None)
def test_flow_queries_match_brute_oracle_hypergraphs(S):
    # the (1, 1) signature often has dim(empty) < 0, so the warm start leaves
    # live source edges behind
    _check_flow_queries(S, max_k=3)


def test_flow_queries_leave_the_base_residual_alone():
    rng = random.Random(7)
    S = hypergraph(
        {tuple(sorted(rng.sample(range(30), 3))) for _ in range(40)}, vertices=range(30)
    )
    solver = _solver_for(S)
    base = (solver.base_caps.copy(), solver._base_flow, dict(solver._dead))
    assert solver._dead_mask  # dim(empty) < 0 here
    for _ in range(60):
        # every query, whatever it asks, hands the base residual back as it was
        assert (solver.base_caps, solver._base_flow, solver._dead) == base
        X = rng.sample(range(30), rng.randint(0, 4))
        xmask = S.mask_of(X)
        want = StructureFlowSolver(S).solve(xmask)
        op = rng.choice(["dim", "cl0", "cld", "is_d_closed", "ss"])
        if op == "dim":
            assert dim(S, X, engine="flow") == want[0]
        elif op == "cl0":
            assert cl0(S, X, engine="flow").closure == S.ids_of(want[1])
        elif op == "cld":
            assert cld(S, X, engine="flow") == S.ids_of(want[2])
        elif op == "is_d_closed":
            assert is_d_closed(S, X, engine="flow") == (want[2] == xmask)
        else:
            # 30 vertices: past the table engine, so only the flow answers
            holds = want[0] == delta(S, X)
            assert self_sufficient(S, X, engine="flow") == (
                (True, None) if holds else (False, S.ids_of(want[1])))
        assert solver.solve(xmask) == want
    assert (solver.base_caps, solver._base_flow, solver._dead) == base


@given(tied_structures(max_n=8))
@settings(max_examples=80, deadline=None)
def test_weighted_flow_kernel_matches_the_table_engine(S):
    # weights above 1 make the greedy warm start push partial amounts and
    # single paths push more than 1; the zero-weight relation adds no node
    solver = StructureFlowSolver(S)
    base = solver.base_caps.copy()
    for xmask in range(1 << len(S.vertices)):
        want = _table(S, xmask)
        assert solver.solve(xmask) == want
        assert solver.solve(xmask, need=0) == (want[0], None, None)
        assert solver.solve_value(xmask) == want[0]
        assert solver.base_caps == base


class _ShortestPathPushes(list):
    """A ``pushes`` list that checks each push it is handed: the path runs
    from the source to the sink in residual edges, carries their bottleneck,
    and is as short as a breadth-first search of the residual it was pushed
    on allows (Edmonds and Karp)."""

    def __init__(self, solver):
        super().__init__()
        self.solver = solver

    def append(self, push):
        path, pushed = push
        to, head = self.solver.to, self.solver.head
        caps = list(self.solver.base_caps)
        for eid in path:  # the residual as it stood before the push
            caps[eid] += pushed
            caps[eid ^ 1] -= pushed
        assert to[path[0]] == 1 and to[path[-1] ^ 1] == 0  # sink edge first
        assert all(to[b] == to[a ^ 1] for a, b in zip(path, path[1:]))
        assert pushed == min(caps[eid] for eid in path) > 0
        level = {0: 0}
        queue = [0]
        for u in queue:
            for eid in head[u]:
                if caps[eid] > 0 and to[eid] not in level:
                    level[to[eid]] = level[u] + 1
                    queue.append(to[eid])
        # only vertex nodes have a sink edge, so the least level of a vertex
        # with spare sink capacity, plus one, is the sink's level
        spare = [level[v] for v in level if self.solver.node_pos[v] >= 0
                 and caps[head[v][1]] > 0]
        assert len(path) == min(spare) + 1 == level[1]
        super().append(push)


@given(st.one_of(tied_structures(), small_hypergraphs()))
@settings(max_examples=60, deadline=None)
def test_every_push_is_a_shortest_augmenting_path(S):
    # small hypergraphs often leave live source edges after the warm start,
    # so a query's first searches start from project nodes as well as slots
    solver = StructureFlowSolver(S)
    base = solver.base_caps.copy()
    for xmask in range(1 << len(S.vertices)):
        pushes = _ShortestPathPushes(solver)
        try:
            got = solver._augment(xmask, pushes)[0]
        finally:
            solver._restore(xmask, pushes)
        assert got == _table(S, xmask)[0]
        assert solver.base_caps == base


def test_a_query_that_raises_leaves_the_network_intact(monkeypatch):
    rng = random.Random(5)
    S = graph({tuple(sorted(rng.sample(range(24), 2))) for _ in range(30)}, vertices=range(24))
    solver = StructureFlowSolver(S)
    base = (solver.base_caps.copy(), solver._base_flow, dict(solver._dead))
    seen = []

    def boom(self, pushes):
        seen.append(len(pushes))
        raise RuntimeError("cut-off failed")

    monkeypatch.setattr(StructureFlowSolver, "_cut_off", boom)
    xmask = S.mask_of(range(6))
    with pytest.raises(RuntimeError):
        solver.solve(xmask)
    monkeypatch.undo()
    assert seen[0] > 0  # the failed query had pushed flow before it raised
    assert (solver.base_caps, solver._base_flow, solver._dead) == base
    fresh = StructureFlowSolver(S)
    shared = [c is closures._INF_CAP for c in fresh.base_caps]
    for _ in range(30):
        xmask = rng.getrandbits(24)
        assert solver.solve(xmask) == fresh.solve(xmask)
        assert solver.solve_value(xmask) == fresh.solve_value(xmask)
    # edges back at full capacity hold the one shared int, not a copy each
    assert all(c is closures._INF_CAP for c, was in zip(fresh.base_caps, shared) if was)


@given(extension_chains(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_grown_network_matches_a_fresh_one(chain, rng):
    solver = StructureFlowSolver(chain[0])
    for prev, S in zip(chain, chain[1:]):
        # a query before growing leaves a sink tree behind that must not survive
        solver.solve(rng.getrandbits(solver.n_items) if solver.n_items else 0)
        n = len(prev.vertices)
        chain_step = all(t[-1] >= n for name, ts in S.instances.items()
                         for t in set(ts) - set(prev.instances[name]))
        # a step that adds an instance among the old vertices is refused
        assert solver.grow(prev, S) == chain_step
        if not chain_step:
            solver = StructureFlowSolver(S)
        fresh = StructureFlowSolver(S)
        assert solver._base_flow == fresh._base_flow
        assert solver.total_w == fresh.total_w
        assert solver._dead_mask == fresh._dead_mask
        for _ in range(8):
            xmask = rng.getrandbits(len(S.vertices)) if S.vertices else 0
            assert solver.solve(xmask) == fresh.solve(xmask)
            assert solver.solve_value(xmask) == fresh.solve_value(xmask)


def _planted_clique_graph(rng, n, clique, extra_edges):
    """A sparse random graph on n vertices with a complete graph planted on
    ``clique``.  With vertex weight 2 and edge weight 1 a K6 has delta -3 and
    a K8 delta -12, so it lies in cl0(empty) and the graph is outside C0."""
    edges = set(itertools.combinations(sorted(clique), 2))
    while len(edges) < len(clique) * (len(clique) - 1) // 2 + extra_edges:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph(edges, vertices=range(n))


def _check_against_brute(S, X):
    best, least, union = brute_min_superset(S, X)
    assert dim(S, X, engine="flow") == best
    assert cl0(S, X, engine="flow").closure == least
    assert cld(S, X, engine="flow") == union


@pytest.mark.parametrize("seed,k", [(0, 6), (1, 6), (2, 8), (3, 8)])
def test_flow_engine_outside_c0_matches_brute_oracle(seed, k):
    # the base leaves live source edges into the planted clique, so every
    # query starts with a nonempty dead source side
    rng = random.Random(seed)
    n = 12
    S = _planted_clique_graph(rng, n, rng.sample(range(n), k), 10)
    solver = _solver_for(S)
    assert solver._dead_mask and not in_C0(S).holds
    assert S.ids_of(solver._dead_mask) == brute_min_superset(S, [])[1]
    for _ in range(30):
        _check_against_brute(S, rng.sample(range(n), rng.randint(0, 4)))


@pytest.mark.parametrize("seed", range(3))
def test_grown_network_outside_c0_keeps_a_current_dead_set(seed):
    # prev has a planted K6.  The step adds vertices joined to that clique,
    # whose project nodes reach into the dead set, and a second K6 among the
    # new vertices, which is new dead source side: a dead set kept from
    # before the step would leave the new clique out of every least minimizer.
    rng = random.Random(seed)
    prev = _planted_clique_graph(rng, 8, range(6), 3)
    new = list(range(8, 15))
    step = set(itertools.combinations(new[1:], 2))
    step |= {(rng.randrange(6), v) for v in new[:3]}
    step |= {tuple(sorted(rng.sample(new, 2))) for _ in range(2)}
    out = prev.with_added(new, {"R": sorted(step)})
    solver = _solver_for(prev)
    old_dead = solver._dead_mask
    assert old_dead
    hand_over_solver(prev, out)
    assert out._solver is solver
    assert solver._dead_mask & old_dead == old_dead
    assert solver._dead_mask == StructureFlowSolver(out)._dead_mask
    assert out.ids_of(solver._dead_mask) == brute_min_superset(out, [])[1]
    assert solver._dead_mask >> 9 == 0b111111
    for _ in range(12):
        X = rng.sample(out.vertices, rng.randint(3, 5))
        _check_against_brute(out, X)
        # the table engine agrees on the grown network for any X
        xmask = rng.getrandbits(len(out.vertices))
        assert _flow(out, xmask) == _table(out, xmask)


def test_networks_are_handed_over_along_a_chain(monkeypatch):
    S = path_graph(20)
    out = S.with_added([21, 22], {"R": [(20, 21), (21, 22)]})
    solver = _solver_for(S)
    assert S._solver is solver and _solver_for(S) is solver
    hand_over_solver(S, out)
    assert S._solver is None and out._solver is solver
    assert _solver_for(out) is solver
    assert solver.solve(out.mask_of([0])) == StructureFlowSolver(out).solve(out.mask_of([0]))
    # a step that also joins two old vertices is built afresh, and its
    # network is dropped, not grown
    inits = []
    real_init = FiniteStructure.__init__
    monkeypatch.setattr(FiniteStructure, "__init__",
                        lambda self, *a, **k: inits.append(1) or real_init(self, *a, **k))
    chord = out.with_added([23], {"R": [(0, 5), (22, 23)]})
    monkeypatch.undo()
    assert inits
    hand_over_solver(out, chord)
    assert out._solver is None and chord._solver is None
    assert _solver_for(chord) is not solver
    # the refused network is left as it was
    rebuilt = StructureFlowSolver(out)
    rng = random.Random(7)
    for _ in range(20):
        xmask = rng.getrandbits(len(out.vertices))
        assert solver.solve(xmask) == rebuilt.solve(xmask)
    out, solver = chord, _solver_for(chord)
    # no growth into a structure that shifts the old positions or drops an instance
    shifted = out.with_added([-1], {"R": [(-1, 0)]})
    dropped = FiniteStructure(out.signature, out.vertices, {"R": out.instances["R"][1:]})
    assert not solver.grow(out, shifted) and not solver.grow(out, dropped)
    hand_over_solver(out, shifted)
    assert out._solver is None and shifted._solver is None
    # a step that has a network of its own keeps it; the old one is dropped
    step = path_graph(20)
    grown = step.with_added([21], {"R": [(20, 21)]})
    own = _solver_for(grown)
    _solver_for(step)
    hand_over_solver(step, grown)
    assert step._solver is None and grown._solver is own


def _path_with_vertex_weight(n, weight):
    """The path 0-1-..-(n-1) with vertex weight ``weight`` and edge weight 1."""
    return FiniteStructure(Signature(weight, (Relation("R", 2, 1),)), list(range(n)),
                           {"R": [(i, i + 1) for i in range(n - 1)]})


def test_each_engine_refuses_weights_its_arithmetic_cannot_hold():
    # at vertex weight 2**62, dim([0]) on the path 0-1-2 is 2**62; int64
    # table arithmetic once wrapped it to -2**63, and the flow network's
    # infinite edges (2**60) once cut below it to 2**60
    S = _path_with_vertex_weight(3, 2**62)
    assert delta(S, [0]) == 2**62  # Python ints: exact
    for engine, cap in (("table", closures.TABLE_WEIGHT_CAP), ("flow", closures._INF_CAP)):
        with pytest.raises(CapacityError) as info:
            dim(S, [0], engine=engine)
        assert (info.value.cap_value, info.value.requested) == (cap, 3 * 2**62 + 2)
    # just below each bound, both engines answer, and agree with delta
    for engine, cap in (("table", closures.TABLE_WEIGHT_CAP), ("flow", closures._INF_CAP)):
        S = _path_with_vertex_weight(3, (cap - 3) // 3)
        assert dim(S, [0], engine=engine) == delta(S, [0]) == (cap - 3) // 3


def test_a_network_refuses_to_grow_past_its_weight_bound():
    prev = _path_with_vertex_weight(3, 2**58)
    out = prev.with_added([3], {"R": [(2, 3)]})  # 4 * 2**58 + 3 passes 2**60
    solver = StructureFlowSolver(prev)
    before = (solver.n_items, solver.total_w, list(solver.base_caps))
    with pytest.raises(CapacityError):
        solver.grow(prev, out)
    assert (solver.n_items, solver.total_w, list(solver.base_caps)) == before
    with pytest.raises(CapacityError):
        _solver_for(out)  # nor is a network built for it afresh
    assert solver.solve(prev.mask_of([0])) == StructureFlowSolver(prev).solve(prev.mask_of([0]))


def test_a_dropped_structure_frees_its_network():
    S = path_graph(29)  # 30 vertices: above the table cutoff
    assert cld(S, [0]) == frozenset({0})
    ref = weakref.ref(S._solver)
    # no reference cycle: reference counting frees the network at once,
    # with the cycle collector off
    gc.disable()
    try:
        del S
        assert ref() is None
    finally:
        gc.enable()


def test_equal_structures_get_separate_networks():
    S, T = path_graph(29), path_graph(29)
    assert S == T and S is not T
    assert _solver_for(S) is not _solver_for(T)
    assert T._solver.solve(T.mask_of([0])) == S._solver.solve(S.mask_of([0]))


def _random_graph(seed, n=20):
    rng = random.Random(seed)
    return graph({tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)},
                 vertices=range(n))


def test_the_table_ledger_stays_within_its_byte_budget(monkeypatch):
    # a 20-vertex structure's tables: 8 MiB of delta, 2 x 4 MiB of minimizers
    budget = 40 << 20
    monkeypatch.setattr(closures, "_LEDGER", closures._TableLedger())
    monkeypatch.setattr(closures, "TABLE_CACHE_BYTES", budget)
    tracemalloc.start()
    try:
        for seed in range(4):
            S = _random_graph(seed)
            closures.delta_table(S)
            assert closures._LEDGER.nbytes <= budget
            closures.dim_table_cached(S)
            assert closures._LEDGER.nbytes <= budget
            del S
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the last two structures' tables are kept, and they are all that is held
    kept = closures._LEDGER.nbytes
    assert kept == 32 << 20
    assert abs(held - kept) <= 0.1 * kept


def test_a_dropped_structures_tables_are_freed_once_evicted():
    # 15 vertices: 256 KiB of delta and 2 x 128 KiB of minimizers, so a
    # 1 MiB ledger keeps two structures' tables; the third evicts the first
    code = (
        "import gc, weakref\n"
        "from predimlab import closures, path_graph\n"
        "closures.TABLE_CACHE_BYTES = 1 << 20\n"
        "gc.disable()\n"
        "S = path_graph(14)\n"
        "refs = [weakref.ref(closures.delta_table(S)),\n"
        "        *map(weakref.ref, closures.dim_table_cached(S))]\n"
        "del S\n"
        "# the ledger keeps the tables, not the structure\n"
        "print(sum(isinstance(o, closures.FiniteStructure) for o in gc.get_objects()))\n"
        "alive = [sum(r() is not None for r in refs)]\n"
        "for n in (3, 4):  # other vertex weights: other structures\n"
        "    closures.dim_table_cached(path_graph(14, n=n))\n"
        "    alive.append(sum(r() is not None for r in refs))\n"
        "print(alive, closures._LEDGER.nbytes)\n"
    )
    # the subprocess does not inherit pytest's pythonpath, so hand it src
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    assert proc.stdout.split() == ["0", "[3,", "3,", "0]", str(1 << 20)]


def test_equal_structures_build_each_table_once(monkeypatch):
    monkeypatch.setattr(closures, "_LEDGER", closures._TableLedger())
    S, T = path_graph(9), path_graph(9)
    assert S == T and S is not T
    before = closures.delta_table.cache_info(), closures.dim_table_cached.cache_info()
    dims = closures.dim_table_cached(S)
    assert closures.dim_table_cached(T) is dims
    assert closures.delta_table(T) is closures.delta_table(S)
    after = closures.delta_table.cache_info(), closures.dim_table_cached.cache_info()
    assert [a.misses - b.misses for a, b in zip(after, before)] == [1, 1]
    assert T._tables is S._tables


def test_a_structure_keeps_its_tables_past_the_ledger(monkeypatch):
    monkeypatch.setattr(closures, "_LEDGER", closures._TableLedger())
    monkeypatch.setattr(closures, "TABLE_CACHE_BYTES", 0)
    S = path_graph(9)
    dt, dims = closures.delta_table(S), closures.dim_table_cached(S)
    assert closures._LEDGER.nbytes == 0
    assert [dim(S, [v]) for v in S.vertices] == [2] * 10
    assert closures.delta_table(S) is dt and closures.dim_table_cached(S) is dims
    # an equal structure finds nothing kept and builds its own
    assert closures.delta_table(path_graph(9)) is not dt


def test_table_functions_count_hits_and_misses_and_build_unkept(monkeypatch):
    # perfbench/tracing.py reads cache_info(); scripts/table_build_cost.py
    # times __wrapped__
    monkeypatch.setattr(closures, "_LEDGER", closures._TableLedger())
    S = path_graph(7)
    for slot, fn in enumerate((closures.delta_table, closures.dim_table_cached)):
        info = fn.cache_info()
        kept = fn(S)
        assert fn(S) is kept
        now = fn.cache_info()
        assert (now.hits - info.hits, now.misses - info.misses) == (1, 1)
        # __wrapped__ builds afresh: it neither counts nor keeps
        fresh = fn.__wrapped__(S)
        assert fresh is not kept and np.array_equal(np.asarray(fresh), np.asarray(kept))
        other = path_graph(7, n=3)
        fn.__wrapped__(other)
        assert other._tables is None or other._tables[slot] is None
        assert fn.cache_info() == now and S._tables[slot] is kept


def test_the_traced_benchmark_reads_both_table_hit_ratios():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closure-queries", "--size", "tiny",
         "--seed", "1", "--seconds", "1", "--trace", "1"],
        cwd=Path(__file__).resolve().parents[1], capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and not result["failed"]
    for name in ("closures.delta_table.hit_ratio", "closures.dim_table_cached.hit_ratio"):
        assert 0 < result["metrics"][name]["value"] <= 1


def test_auto_engine_picks_the_table_up_to_16_vertices(monkeypatch):
    def refuse(engine):
        def fail(*_):
            raise AssertionError(f"engine='auto' reached the {engine} engine")
        return fail

    assert closures.DEFAULT_TABLE_CUTOFF == 16
    for S, engine, other, blocked in (  # 16 and 17 vertices
        (path_graph(15), "table", "flow", ("_solver_for",)),
        (path_graph(16), "flow", "table", ("delta_table", "dim_table_cached")),
    ):
        assert closures._resolve_engine(S, "auto") == engine
        calls = (
            lambda e: dim(S, [0], engine=e),
            lambda e: cl0(S, [0], engine=e),
            lambda e: cld(S, [0], engine=e),
            lambda e: is_d_closed(S, [0], engine=e),
            lambda e: self_sufficient(S, [0], engine=e),
        )
        want = [call(engine) for call in calls]
        with monkeypatch.context() as m:
            for name in blocked:
                m.setattr(closures, name, refuse(other))
            assert [call("auto") for call in calls] == want


def test_self_sufficient_respects_the_engine(monkeypatch):
    rng = random.Random(3)
    S = graph({tuple(sorted(rng.sample(range(18), 2))) for _ in range(30)}, vertices=range(18))
    A = [0, 1, 2]
    want = self_sufficient(S, A)

    def no_flow(_):
        raise AssertionError("engine='table' reached the flow engine")

    monkeypatch.setattr(closures, "_solver_for", no_flow)
    assert self_sufficient(S, A, engine="table") == want
    monkeypatch.undo()
    # engine="flow" takes the flow engine at any size, for the least minimizer only
    calls = []
    real = StructureFlowSolver.solve
    monkeypatch.setattr(StructureFlowSolver, "solve",
                        lambda self, *a: calls.append(a) or real(self, *a))
    small = path_graph(3)
    assert self_sufficient(small, [0, 3], engine="flow") == (True, None)
    assert calls == [(small.mask_of([0, 3]), closures._LEAST)]


def test_the_table_engine_refuses_more_than_20_vertices():
    with pytest.raises(CapacityError) as info:
        dim(path_graph(20), [0], engine="table")
    err = info.value
    assert (err.cap_name, err.cap_value, err.requested) == ("table engine vertices", 20, 21)


def _planted_graph(rng, n):
    """Sparse (2, 1) graph with n // 12 planted K4s on disjoint vertex sets."""
    order = rng.sample(range(n), n)
    planted = [order[k : k + 4] for k in range(0, n // 12 * 4, 4)]
    edges = {tuple(sorted(p)) for q in planted for p in itertools.combinations(q, 2)}
    while len(edges) < int(1.3 * n):
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return graph(sorted(edges), vertices=range(n)), planted


def _planted_hypergraph(rng, n):
    """Sparse (2, 1) 3-hypergraph with n // 15 planted dense 5-sets."""
    order = rng.sample(range(n), n)
    planted = [order[k : k + 5] for k in range(0, n // 15 * 5, 5)]
    triples = {
        tuple(sorted(t))
        for q in planted
        for t in itertools.combinations(q, 3)
        if rng.random() < 0.6
    }
    while len(triples) < int(0.7 * n):
        triples.add(tuple(sorted(rng.sample(range(n), 3))))
    return hypergraph(sorted(triples), vertices=range(n), n=2, m=1), planted


def test_flow_engine_on_large_ambient():
    # a 60-vertex cycle: far past the table cutoff, still exact
    S = graph([(i, (i + 1) % 60) for i in range(60)])
    assert dim(S, [0]) == 2
    assert cld(S, [0]) == frozenset({0})
    ok, _ = self_sufficient(S, [0, 1])
    assert ok
    assert in_C0(S).holds
    # 400-vertex ambients with dense spots: engine-free identities
    rng = random.Random(11)
    for family in (_planted_graph, _planted_hypergraph):
        S, planted = family(rng, 400)
        for _ in range(25):
            pool = rng.choice(planted) if rng.random() < 0.5 else range(400)
            X = frozenset(rng.sample(list(pool), rng.randint(1, 3)))
            d = dim(S, X)
            least = cl0(S, X)
            greatest = cld(S, X)
            assert least.dimension == delta(S, least.closure) == d == delta(S, greatest)
            assert X <= least.closure <= greatest
            assert self_sufficient(S, least.closure) == (True, None)
            holds, witness = self_sufficient(S, X)
            assert holds == (d == delta(S, X))
            assert witness == (None if holds else least.closure)
            assert is_d_closed(S, X) == (greatest == X)
            # greatest: a vertex joins at no cost exactly when it lies in cld(X)
            outside = rng.sample(sorted(set(S.vertices) - greatest), 5)
            for v in sorted(greatest - X) + outside:
                assert (dim(S, X | {v}) == d) == (v in greatest)


@given(st.one_of(small_graphs(max_n=7), small_hypergraphs(max_n=7)))
@settings(max_examples=40, deadline=None)
def test_d_closed_enumeration_matches_loop_form(S):
    dt, _ = closures.dim_cld_tables(S)
    for cap in (None, 0, 1, 3):
        assert d_closed_subset_masks(S, size_cap=cap) == brute_d_closed_masks(dt, cap)


def test_a_flow_query_allocates_for_the_region_it_reaches_only():
    # a copied residual of a 3,000-vertex network is about 35k entries
    # (~280 KB); one cl0 query reaches a few dozen nodes
    S, _ = _planted_graph(random.Random(17), 3000)
    cl0(S, [0])  # builds the network
    tracemalloc.start()
    try:
        cl0(S, [1])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
