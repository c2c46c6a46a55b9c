import pytest

from predimlab import (
    BuildConfig,
    CapacityError,
    ControlFunction,
    FiniteStructure,
    audit_extension_property,
    build_generic,
    enumerate_class,
    find_sese_embeddings,
    graph,
    graph_signature,
    in_C0,
    in_Cf,
    in_Kn,
    is_d_closed,
    polygon_signature,
    self_sufficient,
)
from predimlab.builder import C0, CF, KN, LE, LE_D, enumerate_tasks

from conftest import brute_self_sufficient


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


def test_find_sese_embeddings():
    res = build_generic(BuildConfig(SIG, C0, max_pattern=2, budget=15, seed=0))
    S = res.structure
    single = FiniteStructure(SIG, [0])
    embs = find_sese_embeddings(S, single, LE)
    assert len(embs) == len(S.vertices)
    big = FiniteStructure(SIG, range(12))
    with pytest.raises(CapacityError):
        find_sese_embeddings(S, big, LE)
    edge = graph([(0, 1)])
    for phi in find_sese_embeddings(S, edge, LE):
        image = frozenset(phi.values())
        assert self_sufficient(S, image)[0]
        assert tuple(sorted(image)) in {
            tuple(sorted(t)) for t in S.instances["R"]
        }
    # d-closed mode: singletons in a control-function structure
    f = ControlFunction.harmonic(2)
    resf = build_generic(BuildConfig(SIG, CF, max_pattern=2, budget=8, seed=0, control=f))
    embs_d = find_sese_embeddings(resf.structure, single, LE_D)
    assert len(embs_d) == len(resf.structure.vertices)
