import ast
import collections
import copy
import dataclasses
import functools
import importlib.util
import itertools
from fractions import Fraction
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from predimlab import (
    BuildConfig,
    CapacityError,
    ControlFunction,
    FiniteStructure,
    audit_extension_property,
    build_generic,
    enumerate_class,
    graph,
    graph_signature,
    hypergraph_signature,
    in_C0,
    in_Cf,
    in_Kn,
    is_d_closed,
    make_control,
    polygon_signature,
    self_sufficient,
)
from predimlab import builder, structures
from predimlab.builder import (
    C0,
    CF,
    KN,
    ExtensionTask,
    _amalgamate,
    _check_chain,
    _realized,
    enumerate_tasks,
)
from predimlab.errors import InputError, InternalError
from predimlab.reports import FAIL, PASS
from predimlab.structures import LINE, POINT, _ascending_steps, _bits, _search

from conftest import (
    CHAIN_SIGNATURES,
    brute_build_generic,
    brute_delta,
    brute_embeddings,
    brute_enumerate_tasks,
    brute_in_Cf,
    brute_isomorph_free_types,
    brute_realized,
    brute_self_sufficient,
    extension_chains,
    is_induced_partial,
)


SIG = graph_signature(2, 1)


def test_enumerate_class_counts():
    assert len(enumerate_class(SIG, C0, 0)) == 1  # just the empty structure
    got = enumerate_class(SIG, C0, 2)
    assert len(got) == 4
    f = ControlFunction.harmonic(2)
    cf3 = enumerate_class(SIG, CF, 3, control=f)
    shapes = {(len(s.vertices), len(s.instances["R"])) for s in cf3}
    assert (3, 3) not in shapes  # triangle excluded
    c03 = enumerate_class(SIG, C0, 3)
    assert (3, 3) in {(len(s.vertices), len(s.instances["R"])) for s in c03}
    for s in c03:
        assert in_C0(s).holds


def test_enumerate_class_kn():
    sigp = polygon_signature(3)
    got = enumerate_class(sigp, KN, 4, ngon=3)
    for s in got:
        assert in_Kn(s, 3).holds
    sizes = sorted(len(s.vertices) for s in got)
    assert sizes[0] == 0 and sizes[-1] == 4


def test_enumerate_class_cap():
    with pytest.raises(CapacityError):
        enumerate_class(SIG, C0, 9)


def test_an_unknown_class_tag_is_rejected_up_front():
    # with no pattern to check, an unknown tag once built a 0-vertex structure
    with pytest.raises(InputError, match="unknown class tag 'zz'"):
        enumerate_class(SIG, "zz", 0)
    with pytest.raises(InputError, match="unknown class tag 'zz'"):
        build_generic(BuildConfig(SIG, "zz", max_pattern=0, budget=5))


def _class_keep(tag, control=None, ngon=None):
    return lambda S: builder._in_class(S, tag, control, ngon).verdict != FAIL


@pytest.mark.parametrize("signature, max_size, keep", [
    (SIG, 6, _class_keep(C0)),
    (SIG, 5, _class_keep(CF, control=ControlFunction.harmonic(2))),
    (polygon_signature(3), 5, _class_keep(KN, ngon=3)),
    (polygon_signature(4), 5, _class_keep(KN, ngon=4)),
    (hypergraph_signature(1, 1, 3), 5, lambda S: True),
], ids=["c0", "cf", "k3", "k4", "3-uniform"])
def test_orbit_pruned_generation_matches_unpruned(signature, max_size, keep):
    got = builder._isomorph_free_types(signature, max_size, keep)
    assert got == brute_isomorph_free_types(signature, max_size, keep)


def test_graph_type_counts_and_canonical_searches(monkeypatch):
    searches = []
    search = builder._canonical_search
    monkeypatch.setattr(builder, "_canonical_search",
                        lambda S, colors=None: searches.append(S) or search(S, colors))
    types = builder._isomorph_free_types(SIG, 6, lambda S: True)
    # graphs on at most k vertices, k = 0..6: OEIS A000088 summed
    assert [sum(len(S) <= k for S in types) for k in range(7)] == [1, 2, 4, 8, 19, 53, 209]
    # one search per orbit of the base's automorphisms on the new vertex's
    # neighbourhoods; all 1,307 candidates without the pruning
    assert len(searches) == 663


# (tasks, skipped) at max_pattern 4, by tag and ngon
TASK_COUNTS = {(C0, None): (94, 0), (CF, None): (58, 0), (KN, 3): (183, 16), (KN, 4): (182, 1)}


@pytest.mark.parametrize("tag, signature, options", [
    (C0, SIG, {}),
    (CF, SIG, {"control": ControlFunction.harmonic(2)}),
    (KN, polygon_signature(3), {"ngon": 3}),
    (KN, polygon_signature(4), {"ngon": 4}),
])
def test_orbit_pruned_tasks_match_unpruned(tag, signature, options):
    patterns = enumerate_class(signature, tag, 4, **options)
    got = enumerate_tasks(patterns, tag)
    want = brute_enumerate_tasks(patterns, tag)
    assert [[(t.ext, t.base_ids, t.key) for t in lst] for lst in got] == [
        [(t.ext, t.base_ids, t.key) for t in lst] for lst in want]
    # the kn keys tell lines from points, so tasks that differ only in which
    # vertices are lines are all kept
    assert tuple(map(len, got)) == TASK_COUNTS[tag, options.get("ngon")]


def test_tasks_have_strong_bases():
    patterns = enumerate_class(SIG, C0, 3)
    tasks, skipped = enumerate_tasks(patterns, C0)
    assert skipped == []
    for t in tasks:
        assert brute_self_sufficient(t.ext, t.base_ids, t.ext.vertices)[0]
    assert {len(t.base_ids) for t in tasks} == {0, 1, 2}


def test_build_single_step():
    res = build_generic(BuildConfig(SIG, C0, max_pattern=1, budget=1, seed=0))
    assert len(res.structure.vertices) == 1


def test_build_deterministic():
    cfg = BuildConfig(SIG, C0, max_pattern=2, budget=25, seed=0)
    a = build_generic(cfg)
    b = build_generic(cfg)
    assert a.log.digest() == b.log.digest()
    assert a.structure == b.structure


@pytest.mark.parametrize("config", [
    BuildConfig(SIG, C0, max_pattern=3, budget=40),
    BuildConfig(SIG, CF, max_pattern=3, budget=20, control=ControlFunction.harmonic(2)),
    BuildConfig(polygon_signature(3), KN, max_pattern=3, budget=20, ngon=3),
], ids=[C0, CF, KN])
def test_the_seed_only_labels_a_build_log(config):
    # a build draws no random number: seeds 0 and 5 build the same chain,
    # and their log digests differ only through the config key
    a, b = (build_generic(dataclasses.replace(config, seed=s)) for s in (0, 5))
    assert a.structure == b.structure
    assert (a.log.steps, a.log.skipped_tasks, a.log.structure_dump) == (
        b.log.steps, b.log.skipped_tasks, b.log.structure_dump)
    assert a.log.config_key.replace(";seed=0;", ";seed=5;") == b.log.config_key
    assert a.log.digest() != b.log.digest()


def test_seed0_budget400_build_log_is_pinned():
    # scripts/build_scaling.py checks this digest too
    res = build_generic(BuildConfig(SIG, C0, max_pattern=4, budget=400, seed=0))
    assert res.log.digest() == (
        "d2234bbf11f7de7899474fee3f4972da38013713e360fd0603213c00bfe76567"
    )


def test_seed0_budget800_build_log_is_pinned():
    # the longest seed-0 build Tier 1 replays; scripts/build_scaling.py
    # checks this digest too
    res = build_generic(BuildConfig(SIG, C0, max_pattern=4, budget=800, seed=0))
    assert res.log.digest() == (
        "ac2c38e477be4ce4830d3eeca5ea25c65b4bd2ddface4122d9f68264b108703e"
    )


def test_seed0_budget40_build_asks_few_strongness_queries(monkeypatch):
    # the seed-0 c0 max-pattern-4 budget-40 build of the benchmark's
    # c0-mp4-b40 op: 2,239 queries while candidates ran newest-first, 1,184
    # ascending; every query is an exact flow query, so this counts work
    calls = []
    real = builder._is_strong

    def counting(S, ids, tag):
        calls.append(tag)
        return real(S, ids, tag)

    monkeypatch.setattr(builder, "_is_strong", counting)
    res = build_generic(BuildConfig(SIG, C0, max_pattern=4, budget=40, seed=0))
    assert res.log.digest() == (
        "be857a70176f801283f82a32058f7ea2903c418dbaf3a81d9568285b0d2129ae"
    )
    assert len(calls) <= 1300


def test_a_refresh_that_lets_nothing_in_leaves_the_window_as_it_was(monkeypatch):
    # every refresh leaves a true window; most in a short build find no good
    # new base and return before the merge
    real = builder._bring_up_to_date
    idle, let_in = [], []

    def checked(S, task, win, memo):
        before = copy.deepcopy(win)
        real(S, task, win, memo)
        if not task.base_ids or before.seen == len(S.vertices) or (
                not before.keys and not before.complete):
            return
        # the window its docstring promises, read from scratch
        good = [builder._key(phi) for phi in builder._base_embeddings(S, task, dict(memo))]
        want = good if win.complete else [k for k in good if k <= win.keys[-1]]
        assert win.keys == want[:builder.SCAN_WINDOW]
        if win.keys == before.keys:
            before.seen = len(S.vertices)
            assert win == before
            idle.append(task)
        else:
            let_in.append(task)

    monkeypatch.setattr(builder, "_bring_up_to_date", checked)
    res = build_generic(BuildConfig(SIG, C0, max_pattern=3, budget=40, seed=0))
    assert len(res.log.steps) == 40
    assert len(idle) >= 30 and let_in


def test_seed0_kn_build_log_is_pinned():
    # a kn build checks its class once, after the last step; this pins it
    res = build_generic(BuildConfig(polygon_signature(3), KN, max_pattern=4, budget=40,
                                    seed=0, ngon=3))
    assert res.log.digest() == (
        "5acc2710d3c1e797ce74f8b708fd3a766c7e560d9e3ad8638a0c2498de36aedb"
    )


def test_build_scaling_pins_hold():
    # the five seed-0 builds of scripts/build_scaling.py, once each, against
    # its pinned log digests
    path = Path(__file__).resolve().parents[1] / "scripts" / "build_scaling.py"
    spec = importlib.util.spec_from_file_location("build_scaling", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    got = {tag: {budget: build_generic(script.pinned_config(tag, budget)).log.digest()
                 for budget in pins}
           for tag, pins in script.PINNED.items()}
    assert got == script.PINNED


BUILD_SETUPS = (
    (graph_signature(2, 1), C0),
    (graph_signature(2, 1), CF),
    (hypergraph_signature(1, 1, 3), C0),
    (polygon_signature(3), C0),
    (polygon_signature(3), KN),
)


@given(st.sampled_from(BUILD_SETUPS), st.integers(min_value=2, max_value=3),
       st.integers(min_value=0, max_value=60), st.sampled_from([1, 2, 3, 6, 50]))
@settings(max_examples=40, deadline=None)
# a step adds a base before a done one in a window that is not full
@example(BUILD_SETUPS[2], 3, 20, 50)
# steps add bases inside full windows, pushing their last keys out
@example(BUILD_SETUPS[0], 3, 60, 50)
@example(BUILD_SETUPS[3], 3, 20, 6)
def test_windowed_build_matches_the_rewalk(setup, max_pattern, budget, window):
    sig, tag = setup
    config = BuildConfig(
        sig, tag, max_pattern=max_pattern, budget=budget,
        control=ControlFunction.harmonic(sig.vertex_weight) if tag == CF else None,
        ngon=3 if tag == KN else None,
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(builder, "SCAN_WINDOW", window)
        assert build_generic(config).log.digest() == brute_build_generic(config).digest()


def test_a_polygon_step_must_be_d_closed():
    # points 0, 2 and line 1 on a path; the task hangs a new line on point 0
    sigp = polygon_signature(3)
    S = FiniteStructure(sigp, [0, 1, 2], {"adj": [(0, 1), (1, 2)]},
                        {0: POINT, 1: LINE, 2: POINT})
    ext = FiniteStructure(sigp, [0, 1], {"adj": [(0, 1)]}, {0: POINT, 1: LINE})
    task = ExtensionTask(ext, frozenset({0}), KN)
    out, _ = _amalgamate(S, task, {0: 0})
    assert is_d_closed(out, S.vertices)
    real = FiniteStructure.with_added

    def with_extra_edge(self, new_vertices, new_instances, new_parts=None):
        inst = {name: [*tups, (2, 3)] for name, tups in new_instances.items()}
        return real(self, new_vertices, inst, new_parts)

    # a second edge at the new line: still self-sufficient, no longer d-closed
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(FiniteStructure, "with_added", with_extra_edge)
        bad = FiniteStructure.with_added(S, [3], {"adj": [(0, 3)]}, {3: LINE})
        assert self_sufficient(bad, S.vertices)[0] and not is_d_closed(bad, S.vertices)
        with pytest.raises(InternalError, match="chain property broken"):
            _amalgamate(S, task, {0: 0})


def _live_structures_after_build(budget):
    """Live FiniteStructure objects after a seed-0 c0 max-pattern-3 build,
    counted in a fresh interpreter so no other test's caches count."""
    code = (
        "import gc\n"
        "from predimlab import BuildConfig, FiniteStructure, build_generic, graph_signature\n"
        f"res = build_generic(BuildConfig(graph_signature(2, 1), 'c0', 3, {budget}))\n"
        "gc.collect()\n"
        "print(sum(isinstance(o, FiniteStructure) for o in gc.get_objects()))\n"
    )
    # the subprocess does not inherit pytest's pythonpath, so hand it src
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, check=True)
    return int(proc.stdout)


def test_a_longer_build_keeps_no_more_structures_alive():
    # a chain step that kept the structure it extends reachable would keep
    # every earlier member of the chain alive
    assert _live_structures_after_build(200) <= _live_structures_after_build(50)


def test_build_chain_and_class_preserved():
    res = build_generic(BuildConfig(SIG, C0, max_pattern=3, budget=40, seed=1))
    S = res.structure
    assert in_C0(S).holds
    # replay the log: every prefix must be self-sufficient in the final structure
    seen = 0
    for step in res.log.steps:
        seen = step["size"]
        prefix = list(S.vertices)[:seen]
        ok, _ = self_sufficient(S, prefix)
        assert ok


def test_build_cf_mode():
    f = ControlFunction.harmonic(2)
    res = build_generic(BuildConfig(SIG, CF, max_pattern=3, budget=10, seed=2, control=f))
    S = res.structure
    assert in_Cf(S, f).holds
    for step in res.log.steps:
        prefix = list(S.vertices)[: step["size"]]
        assert is_d_closed(S, prefix)


def test_build_kn_mode():
    sigp = polygon_signature(3)
    res = build_generic(
        BuildConfig(sigp, KN, max_pattern=3, budget=10, seed=0, ngon=3)
    )
    assert in_Kn(res.structure, 3).holds


def test_audit_controls():
    res = build_generic(BuildConfig(SIG, C0, max_pattern=2, budget=20, seed=0))
    tasks_small = [t for t in res.tasks if len(t.base_ids) <= 1]
    audit = audit_extension_property(res.structure, tasks_small, cap_per_task=3)
    assert audit.ratio(max_base=1) == 1.0
    # zero-budget negative control: nothing realized for the from-empty tasks
    empty = build_generic(BuildConfig(SIG, C0, max_pattern=1, budget=0, seed=0))
    audit0 = audit_extension_property(empty.structure, empty.tasks, cap_per_task=2)
    assert audit0.ratio() < 1.0
    # empty structure with positive-base tasks: vacuous pass
    audit_v = audit_extension_property(
        empty.structure, [t for t in res.tasks if len(t.base_ids) == 1], cap_per_task=2
    )
    assert audit_v.ratio() == 1.0


def test_audit_monotone_in_budget():
    tasks = None
    prev_ratio = -1.0
    for budget in (5, 20, 60):
        res = build_generic(BuildConfig(SIG, C0, max_pattern=3, budget=budget, seed=0))
        if tasks is None:
            tasks = [t for t in res.tasks if len(t.base_ids) <= 1]
        audit = audit_extension_property(res.structure, tasks, cap_per_task=3)
        ratio = audit.ratio(max_base=1)
        assert ratio >= prev_ratio
        prev_ratio = ratio


@st.composite
def embedding_cases(draw):
    """(S, pattern, partial) over graphs, hypergraphs, a
    zero-weight relation and bipartite parts; S has spread-out vertex ids and
    the partial seed is often a piece of a real embedding.  The partial map
    is always an induced embedding of its domain, as the search requires:
    a random one is cut back to its longest prefix that is."""
    sig = draw(st.sampled_from(CHAIN_SIGNATURES + (polygon_signature(3),)))

    def structure(max_n, stride=1):
        ids = range(1, stride * draw(st.integers(min_value=0, max_value=max_n)) + 1, stride)
        parts = None
        if sig.mode == "bipartite":
            parts = {v: draw(st.sampled_from([POINT, LINE])) for v in ids}
        inst = {}
        for rel in sig.relations:
            pool = [t for t in itertools.combinations(ids, rel.arity)
                    if parts is None or parts[t[0]] != parts[t[1]]]
            inst[rel.name] = draw(st.lists(st.sampled_from(pool), unique=True)) if pool else []
        return FiniteStructure(sig, ids, inst, parts)

    S = structure(8, stride=draw(st.integers(min_value=1, max_value=3)))
    pattern = structure(4)
    found = list(itertools.islice(brute_embeddings(S, pattern, {}), 20))
    if found and draw(st.booleans()):
        phi = draw(st.sampled_from(found))
    else:
        keys = draw(st.permutations(pattern.vertices))
        phi = dict(zip(keys, draw(st.permutations(S.vertices))))
    keep = draw(st.lists(st.sampled_from(sorted(phi)), unique=True)) if phi else []
    while not is_induced_partial(S, pattern, {v: phi[v] for v in keep}):
        keep.pop()
    return S, pattern, {v: phi[v] for v in keep}


@given(embedding_cases())
@settings(max_examples=150, deadline=None)
def test_embedding_search_matches_the_set_based_oracle(case):
    S, pattern, partial = case
    steps = _ascending_steps(pattern, pattern.mask_of(partial))
    got = [list(phi.items()) for phi in _search(S, pattern, partial, steps)]
    want = [list(phi.items()) for phi in brute_embeddings(S, pattern, partial)]
    assert got == want


@given(embedding_cases(), st.data())
@settings(max_examples=150, deadline=None)
def test_key_bounds_and_position_masks_filter_the_oracle(case, data):
    S, pattern, partial = case

    def key(phi):
        return tuple(phi[v] for v in pattern.vertices)

    every = [key(phi) for phi in brute_embeddings(S, pattern, partial)]
    bounds = st.none() | st.sampled_from(every) if every else st.none()
    after, upto = data.draw(bounds), data.draw(bounds)
    within = data.draw(st.none() | st.lists(st.integers(min_value=-1, max_value=S.full_mask()),
                                            min_size=len(pattern.vertices),
                                            max_size=len(pattern.vertices)))
    want = [k for k in every
            if (after is None or k > after) and (upto is None or k <= upto)
            and (within is None or all(S.mask_of((w,)) & m for w, m in zip(k, within)
                                       if w not in partial.values()))]
    steps = _ascending_steps(pattern, pattern.mask_of(partial))
    got = [key(phi) for phi in _search(S, pattern, partial, steps, within=within,
                                       after=after, upto=upto)]
    assert got == want


@given(extension_chains(max_steps=2, max_new=4))
@settings(max_examples=100, deadline=None)
def test_chain_check_matches_the_exact_engine(chain):
    prev, out = chain[-2:]
    for strict, holds in ((False, self_sufficient(out, prev.vertices)[0]),
                          (True, is_d_closed(out, prev.vertices))):
        try:
            _check_chain(len(prev.vertices), out, strict)
        except InternalError:
            assert not holds
        else:
            assert holds


@pytest.mark.parametrize("tag,edges,base,phi", [
    # C0: the new vertex hangs on two base vertices (delta 0 over the path)
    (C0, [(0, 1), (1, 2)], {0, 2}, {0: 0, 2: 2}),
    # CF: the new vertex hangs on one base vertex (delta 1 over the path)
    (CF, [(0, 1)], {0}, {0: 0}),
])
def test_amalgam_with_an_injected_instance_breaks_the_chain(monkeypatch, tag, edges, base, phi):
    S = graph([(0, 1), (1, 2), (2, 3)])
    task = ExtensionTask(graph(edges), frozenset(base), tag)
    out, _ = _amalgamate(S, task, phi)  # the clean step keeps the chain
    assert out.vertices == (0, 1, 2, 3, 4)
    real = FiniteStructure.with_added

    def with_extra_edge(self, new_vertices, new_instances, new_parts=None):
        inst = {name: [*tups, (3, 4)] for name, tups in new_instances.items()}
        return real(self, new_vertices, inst, new_parts)

    # one more edge at the new vertex: delta over the path drops by one
    monkeypatch.setattr(FiniteStructure, "with_added", with_extra_edge)
    with pytest.raises(InternalError, match="chain property broken"):
        _amalgamate(S, task, phi)


@st.composite
def class_steps(draw, signatures, keep):
    """(prev, out): prev in the class that ``keep`` decides, grown greedily
    by drawn instances, and a step adding 1-3 vertices with drawn instances
    that meet them, plus at most one among the old vertices."""
    sig = draw(st.sampled_from(signatures))
    n = draw(st.integers(min_value=0, max_value=5))
    prev = FiniteStructure(sig, range(n), {})
    if not keep(prev):
        n, prev = 0, FiniteStructure(sig, [], {})
    old = [(rel.name, t) for rel in sig.relations
           for t in itertools.combinations(range(n), rel.arity)]
    for name, t in draw(st.lists(st.sampled_from(old), unique=True, max_size=6) if old
                        else st.just([])):
        grown = prev.with_added([], {name: [t]})
        if keep(grown):
            prev = grown
    k = draw(st.integers(min_value=1, max_value=3))
    added = []
    # drawn apart, so the new part is often dense on its own
    for inner in (True, False):
        meet = [(rel.name, t) for rel in sig.relations
                for t in itertools.combinations(range(n + k), rel.arity)
                if t[-1] >= n and (t[0] >= n) == inner]
        if meet:
            added += draw(st.lists(st.sampled_from(meet), unique=True, max_size=4))
    fresh = [pair for pair in old if pair[1] not in prev.instances[pair[0]]]
    if fresh and draw(st.integers(min_value=0, max_value=4)) == 0:
        added.append(draw(st.sampled_from(fresh)))
    inst = {}
    for name, t in added:
        inst.setdefault(name, []).append(t)
    return prev, prev.with_added(range(n, n + k), inst)


CF_STEP_SIGNATURES = (graph_signature(2, 1), hypergraph_signature(1, 1, 3))


@given(st.data(), st.sampled_from(["harmonic", "half-harmonic"]),
       st.sampled_from(["vw", 1, 2]))
@settings(max_examples=300, deadline=None)
def test_a_certified_cf_step_stays_in_the_class(data, family, anchor):
    sig = data.draw(st.sampled_from(CF_STEP_SIGNATURES))
    f = make_control(family, sig.vertex_weight if anchor == "vw" else anchor)
    prev, out = data.draw(class_steps((sig,), lambda S: brute_in_Cf(S, f).holds))
    certified = builder._step_certified(prev, out, f)
    event(f"certified: {certified}")
    if certified:
        assert brute_in_Cf(out, f).verdict == PASS


@given(class_steps(CHAIN_SIGNATURES, lambda S: in_C0(S).holds))
@settings(max_examples=300, deadline=None)
def test_a_certified_c0_step_stays_in_the_class(step):
    prev, out = step
    try:
        _check_chain(len(prev.vertices), out, strict=False)
    except InternalError:
        event("chain broken")
        return
    certified = builder._step_certified(prev, out, None)
    event(f"certified: {certified}")
    if certified:
        assert in_C0(out).holds
        assert all(brute_delta(out, X) >= 0 for k in range(len(out.vertices) + 1)
                   for X in itertools.combinations(out.vertices, k))


def test_a_step_is_certified_against_every_part_of_what_it_touches():
    f = ControlFunction.harmonic(2)
    # a triangle on new vertices 1, 2, 3 hanging from the old vertex 0 at 1
    prev = graph([], vertices=[0])
    out = prev.with_added([1, 2, 3], {"R": [(0, 1), (1, 2), (1, 3), (2, 3)]})
    # over all of T = {0} the step clears its bound: delta(V/T) = 2 >= f(4) - f(1)
    assert min(d for v, d in builder._relative_deltas(1, out, 1) if v == 3) == 2
    assert 2 >= f(4) - f(1)
    # over C = {} it does not, and the triangle breaks the class
    assert not builder._step_certified(prev, out, f)
    assert in_Cf(out, f).verdict == FAIL


def test_a_step_certifies_only_up_to_where_f_is_concave():
    harmonic = ControlFunction.harmonic(2)
    bumpy = ControlFunction(2, "bumpy", lambda k: Fraction(2) if k == 3 else Fraction(1, k - 1))
    prev = graph([(0, 1)])
    out = prev.with_added([2], {"R": [(1, 2)]})
    assert builder._step_certified(prev, out, harmonic)
    assert not builder._step_certified(prev, out, bumpy)  # f(3) - f(2) > f(2) - f(1)
    # below the bump the two agree
    assert builder._step_certified(graph([]), prev, bumpy)


def _class_checks(monkeypatch, config):
    """The sizes of the structures that builds of ``config`` check against
    the class, apart from the patterns they enumerate first."""
    patterns = enumerate_class(config.signature, config.tag, config.max_pattern,
                               config.control, config.ngon)
    monkeypatch.setattr(builder, "enumerate_class", lambda *args: patterns)
    calls = []
    real = builder._in_class
    monkeypatch.setattr(builder, "_in_class",
                        lambda S, *args: calls.append(len(S.vertices)) or real(S, *args))
    return calls


CF_BUILD = BuildConfig(SIG, CF, max_pattern=3, budget=12, seed=0,
                       control=ControlFunction.harmonic(2))
KN_BUILD = BuildConfig(polygon_signature(3), KN, max_pattern=3, budget=8, seed=0, ngon=3)


def _planting_at(monkeypatch, step, plant):
    """Make the build's ``step``-th amalgamation make ``plant(prev, out)``,
    its out with more added; returns the structures the steps made."""
    real = builder._amalgamate
    made = []

    def planting(S, task, phi):
        out, image = real(S, task, phi)
        if len(made) + 1 == step:
            out = plant(S, out)
        made.append(out)
        return out, image

    monkeypatch.setattr(builder, "_amalgamate", planting)
    return made


def _closing_cycle(S, out, length):
    """out plus an edge that closes a cycle of ``length`` through a new
    vertex: from a new y to the end w of a path y - ... - w of length - 1
    edges."""
    co, n_prev = out.bit_index().co, len(S.vertices)
    for y in range(n_prev, len(out.vertices)):
        paths = [[y]]
        for _ in range(length - 1):
            paths = [p + [w] for p in paths for w in _bits(co[p[-1]]) if w not in p]
        w = next((p[-1] for p in paths if not co[y] >> p[-1] & 1), None)
        if w is not None:
            edge = tuple(sorted(out.vertices[i] for i in (y, w)))
            return out.with_added([], {out.signature.relations[0].name: [edge]})
    raise AssertionError("no cycle to close")


def _heawood(S, out):
    """out plus the Heawood graph, the incidence graph of the Fano plane, on
    14 new vertices: points top + i and lines top + 7 + j, line j through
    the points j, j + 1 and j + 3 mod 7.  Its girth is 6, and its 21 edges
    on 14 vertices give it delta 7."""
    top = max(out.vertices) + 1
    edges = [(top + (j + d) % 7, top + 7 + j) for j in range(7) for d in (0, 1, 3)]
    parts = {top + i: POINT if i < 7 else LINE for i in range(14)}
    return out.with_added(parts, {out.signature.relations[0].name: edges}, parts)


def test_a_step_that_breaks_the_class_is_caught_by_the_fallback(monkeypatch):
    # a triangle x-y-z through a new vertex y: delta 3 < f(3)
    made = _planting_at(monkeypatch, 6, lambda S, out: _closing_cycle(S, out, 3))
    checks = _class_checks(monkeypatch, CF_BUILD)
    with pytest.raises(InternalError, match=r"class violated after step 6: witness \["):
        build_generic(CF_BUILD)
    # the five clean steps certify themselves, the sixth misses, and the
    # last structure gets the one class check
    assert len(made) == CF_BUILD.budget and checks == [len(made[-1].vertices)]
    assert not builder._step_certified(made[4], made[5], CF_BUILD.control)
    assert not builder._in_class(made[5], CF, CF_BUILD.control, None)


def test_a_kn_step_that_closes_a_short_cycle_is_caught_at_the_end(monkeypatch):
    # a 4-cycle through a new vertex: girth 4 < 2 * 3; the eighth step's
    # new vertices start a path of three edges
    config = dataclasses.replace(KN_BUILD, max_pattern=4, budget=12)
    made = _planting_at(monkeypatch, 8, lambda S, out: _closing_cycle(S, out, 4))
    checks = _class_checks(monkeypatch, config)
    with pytest.raises(InternalError, match=r"class violated after step 8: witness \["):
        build_generic(config)
    assert len(made) == config.budget and checks == [len(made[-1].vertices)]
    assert builder._in_class(made[6], KN, None, 3).holds
    assert not builder._in_class(made[7], KN, None, 3)


def test_a_kn_step_that_plants_a_long_light_cycle_is_caught_at_the_end(monkeypatch):
    # the Heawood graph passes the girth check of 2 * 3, but the closure of
    # one of its long cycles has delta 7 < 2 * 3 + 2
    made = _planting_at(monkeypatch, 5, _heawood)
    checks = _class_checks(monkeypatch, KN_BUILD)
    with pytest.raises(InternalError, match=r"class violated after step 5: witness \[") as err:
        build_generic(KN_BUILD)
    witness = ast.literal_eval(str(err.value).split("witness ", 1)[1])
    assert set(witness) <= set(made[4].vertices[-14:])
    assert len(made) == KN_BUILD.budget and checks == [len(made[-1].vertices)]
    assert builder._in_class(made[3], KN, None, 3).holds
    planted = builder._in_class(made[4], KN, None, 3)
    assert planted.verdict == FAIL and planted.detail.startswith("subset over a ")


@pytest.mark.parametrize("config", [CF_BUILD, BuildConfig(SIG, C0, max_pattern=3, budget=12)],
                         ids=["cf", "c0"])
def test_a_certified_build_never_checks_its_class(monkeypatch, config):
    checks = _class_checks(monkeypatch, config)
    res = build_generic(config)
    assert len(res.log.steps) == config.budget and checks == []


def test_a_kn_build_checks_its_class_once(monkeypatch):
    checks = _class_checks(monkeypatch, KN_BUILD)
    res = build_generic(KN_BUILD)
    assert checks == [len(res.structure.vertices)]


@pytest.mark.parametrize("config,miss_at", [
    (CF_BUILD, 4),
    (BuildConfig(SIG, C0, max_pattern=3, budget=12, seed=0), 7),
])
def test_a_miss_leads_to_one_class_check_at_the_end(monkeypatch, config, miss_at):
    want = build_generic(config).log
    real = builder._step_certified
    asked = []

    def missing_once(prev, out, f):
        asked.append(len(out.vertices))
        return len(asked) != miss_at and real(prev, out, f)

    monkeypatch.setattr(builder, "_step_certified", missing_once)
    checks = _class_checks(monkeypatch, config)
    got = build_generic(config).log
    assert got.digest() == want.digest()
    sizes = [step["size"] for step in got.steps]
    # certified flag stays down: no later step asks the certificate again
    assert asked == sizes[:miss_at]
    assert checks == sizes[-1:]


REALIZED_SETUPS = (
    (graph_signature(2, 1), C0),
    (graph_signature(2, 1), CF),
    (hypergraph_signature(1, 1, 3), C0),
    (hypergraph_signature(1, 1, 3), CF),
    (polygon_signature(3), KN),
)


@functools.cache
def _oracle_tasks(sig, tag):
    """Tasks over the C0 patterns up to 4 vertices.  For the cf and kn tags
    some patterns lie outside the class; the cut's soundness does not need
    them inside, and they bring prefixes that are not strong."""
    return enumerate_tasks(enumerate_class(sig, C0, 4), tag)[0]


@st.composite
def realized_cases(draw):
    """(S, tasks): the structure of a short build chain, with a few extra
    instances among its vertices that break some copies, and drawn tasks."""
    sig, tag = draw(st.sampled_from(REALIZED_SETUPS))
    config = BuildConfig(
        sig, tag, max_pattern=draw(st.integers(min_value=2, max_value=3)),
        budget=draw(st.integers(min_value=1, max_value=8)),
        control=ControlFunction.harmonic(sig.vertex_weight) if tag == CF else None,
        ngon=3 if tag == KN else None,
    )
    S = build_generic(config).structure
    pool = [(rel.name, t) for rel in sig.relations
            for t in itertools.combinations(S.vertices, rel.arity)
            if t not in S.instances[rel.name] and (S.parts is None or S.parts[t[0]] != S.parts[t[1]])]
    extra = {}
    if pool:
        for name, t in draw(st.lists(st.sampled_from(pool), unique=True, max_size=3)):
            extra.setdefault(name, []).append(t)
    tasks = _oracle_tasks(sig, tag)
    picked = draw(st.lists(st.sampled_from(range(len(tasks))), min_size=1, max_size=4, unique=True))
    return S.with_added([], extra), [tasks[i] for i in picked]


@given(realized_cases())
@settings(max_examples=80, deadline=None)
def test_prefix_cut_keeps_the_verdict_of_the_uncut_search(case):
    S, tasks = case
    memo = {}  # one chain memo across tasks and bases, as in a build
    for task in tasks:
        # every embedded base, strong in S or not: the cut never relies on it
        for phi in itertools.islice(_search(S, task.base_pattern, {}, task.base_steps), 6):
            assert _realized(S, task, phi, memo) == brute_realized(S, task, phi)


def test_a_build_compiles_each_task_search_steps_at_most_twice(monkeypatch):
    # once for the extension over its base, once for the base pattern
    compiled = collections.Counter()
    real = structures._search_steps

    def counting(pattern, placed, order):
        compiled[id(pattern), placed] += 1
        return real(pattern, placed, order)

    monkeypatch.setattr(structures, "_search_steps", counting)
    monkeypatch.setattr(builder, "_search_steps", counting)
    res = build_generic(BuildConfig(graph_signature(2, 1), C0, max_pattern=3, budget=30))
    assert len(res.log.steps) == 30
    assert max(compiled.values()) == 1
    assert sum(compiled.values()) <= 2 * len(res.tasks)


def test_prefix_cut_decides_an_impossible_task_with_few_checks(monkeypatch):
    # K4 on 0..3, a pendant vertex 4 at 0, ten isolated vertices
    S = graph([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)], vertices=range(15))
    # a triangle at the base plus an isolated vertex, over the base 1: K4
    # (delta 2) lies over every edge at 1, so no image is self-sufficient.
    # The edge {0, 1} is self-sufficient in the pattern but not d-closed, so
    # the C0 cut fires at depth one, where a d-closed test would wait for
    # the triangle.
    task = ExtensionTask(graph([(0, 1), (0, 2), (1, 2)], vertices=[0, 1, 2, 3]),
                         frozenset({0}), C0)
    assert task.search_plan == ((1, True), (2, True), (3, True))
    phi = {0: 1}
    steps = _ascending_steps(task.ext, task.ext.mask_of(phi))
    uncut = sum(1 for _ in _search(S, task.ext, phi, steps))  # one check per image
    checked = []
    real = builder._strong

    def counting(S, image, tag, memo):
        checked.append(image)
        return real(S, image, tag, memo)

    monkeypatch.setattr(builder, "_strong", counting)
    assert not _realized(S, task, phi, {})
    assert not brute_realized(S, task, phi)
    # the cut asks once per image of the edge {0, 1}, never for a whole image
    assert uncut == 62
    assert sorted(map(sorted, checked)) == [[0, 1], [1, 2], [1, 3]]
