"""Named verification suites with deterministic, machine-checkable reports.

Each suite exercises one family of claims end to end and reports one case
per checked instance.  ``--negative-control`` runs the same machinery on a
deliberately corrupted input; the resulting FAIL (with a replayable witness)
shows the check can actually catch the fault it is aimed at.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from .builder import (
    C0,
    BuildConfig,
    audit_extension_property,
    build_generic,
)
from .classes import ControlFunction, girth_with_witness, in_C0, in_Cf, in_Kn
from .closures import (
    cld_from_table,
    d_closed_subset_masks,
    delta_table,
    dim_table_cached,
    is_d_closed,
    self_sufficient,
    _flow_solve,
    _table_solve,
)
from .errors import InputError
from .extensions import enumerate_msa_pairs, MsaType
from .independence import lemma43_free_split
from .gadgets import (
    beatty,
    build_cycle_fan,
    build_double_cycle,
    build_fan_join,
    build_gadget,
    build_tower_amalgam,
    sample_c_closures,
    sample_closed_connected_subsets,
    verify_gadget,
)
from .reports import (
    DEGENERATE,
    FAIL,
    PASS,
    VerificationReport,
    subset_witness,
)
from .structures import (
    FiniteStructure,
    bipartite_graph,
    canonical_form,
    delta,
    delta_mask,
    graph,
    graph_signature,
    hypergraph_signature,
    path_graph,
    polygon_signature,
)

SUITE_NAMES = (
    "beatty",
    "gadget",
    "lemma49",
    "path-fact",
    "ex511",
    "ex512",
    "msa-bound",
    "submodularity",
    "axioms",
    "extension-property",
    "kn",
)


def run_suite(name: str, seed: int = 0, negative_control: bool = False, **options) -> VerificationReport:
    """Dispatch a named suite; reports are deterministic for fixed seeds."""
    fns = {
        "beatty": beatty_suite,
        "gadget": gadget_suite,
        "lemma49": lemma49_suite,
        "path-fact": path_fact_suite,
        "ex511": ex511_suite,
        "ex512": ex512_suite,
        "msa-bound": msa_bound_suite,
        "submodularity": submodularity_suite,
        "axioms": axioms_suite,
        "extension-property": extension_property_suite,
        "kn": kn_suite,
    }
    fn = fns.get(name)
    if fn is None:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    t0 = time.monotonic()
    rep = fn(seed=seed, negative_control=negative_control, **options)
    rep.wall_time = time.monotonic() - t0
    rep.seed = seed
    return rep


# -- beatty ------------------------------------------------------------------------


def _beatty_window_checks(seq, ell: int, b: int) -> str | None:
    """Periodicity, full-window sums and the density bound; None when clean."""
    vals = {i: seq.value(i) for i in range(-b, 4 * b + 1)}
    for i in range(-b, 3 * b):
        if vals[i] != seq.value(i + b):
            return f"period broken at i={i}"
    pref = {-b: 0}
    for i in range(-b + 1, 4 * b + 1):
        pref[i] = pref[i - 1] + vals[i]
    for i in range(-b, b + 1):
        if pref[i + b] - pref[i] != ell:
            return f"window sum at i={i} is {pref[i + b] - pref[i]}"
        for s in range(1, 3 * b + 1):
            if (pref[i + s] - pref[i] - 1) * b > s * ell:
                return f"density bound broken at i={i}, s={s}"
    return None


def beatty_suite(b_max: int = 40, seed: int = 0, negative_control: bool = False) -> VerificationReport:
    rep = VerificationReport(suite="beatty")
    for b in range(2, b_max + 1):
        for ell in range(1, b):
            seq = beatty(ell, b)
            bad = _beatty_window_checks(seq, ell, b)
            rep.add(
                f"l={ell:02d},b={b:02d}",
                PASS if bad is None else FAIL,
                witness=bad,
            )
    if negative_control:
        seq = beatty(2, 5)
        period = list(seq.period)
        period[2] ^= 1  # injected fault: one flipped entry
        corrupted = type(seq)(2, 5, tuple(period))
        bad = _beatty_window_checks(corrupted, 2, 5)
        rep.add(
            "negative-control:l=02,b=05",
            FAIL if bad else PASS,
            witness=bad or "corruption went undetected",
            note="flipped period entry 2; a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- gadget ------------------------------------------------------------------------


def gadget_suite(
    r2_max: int = 10, r3_max: int = 6, seed: int = 0, negative_control: bool = False
) -> VerificationReport:
    rep = VerificationReport(suite="gadget")
    grid = [(n, m, 2) for n in range(2, r2_max + 1) for m in range(1, n)]
    grid += [(n, m, 3) for n in range(1, r3_max + 1) for m in range(1, n + 1)]
    for n, m, r in grid:
        if math.gcd(n, m) != 1:
            continue
        g = build_gadget(n, m, r)
        sub = verify_gadget(g)
        for case in sub.cases:
            rep.add(case.key, case.status, case.witness, case.margin, case.note)
    if negative_control:
        g = build_gadget(2, 1, 2)
        S = g.structure
        inst = {name: list(tups) for name, tups in S.instances.items()}
        removed = inst["R"].pop(0)  # injected fault: one edge removed
        corrupted = type(g)(
            FiniteStructure(S.signature, S.vertices, inst),
            g.x_set,
            g.params,
        )
        sub = verify_gadget(corrupted)
        ok = not sub.ok
        rep.add(
            "negative-control:removed-edge",
            FAIL if ok else PASS,
            witness=f"removed {removed}; " + "; ".join(
                f"{c.key}:{c.witness}" for c in sub.failures()
            ),
            note="a FAIL here is the expected outcome",
        )
        g2 = build_gadget(3, 2, 2)
        wrong_sig = graph_signature(3, 1)  # injected fault: corrupted weight
        S2 = FiniteStructure(wrong_sig, g2.structure.vertices, g2.structure.instances)
        sub2 = verify_gadget(type(g2)(S2, g2.x_set, g2.params))
        rep.add(
            "negative-control:corrupted-weight",
            FAIL if not sub2.ok else PASS,
            witness="; ".join(f"{c.key}:{c.witness}" for c in sub2.failures())
            or "corruption went undetected",
            note="edge weight 2 replaced by 1; a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- lemma49 ------------------------------------------------------------------------


def lemma49_suite(seed: int = 0, negative_control: bool = False) -> VerificationReport:
    rep = VerificationReport(suite="lemma49")
    sig = graph_signature(2, 1)

    def run_case(key: str, C, B, base, gadget, expect_copies: int):
        tower = build_tower_amalgam(C, B, base, gadget)
        E = tower.structure
        problems = []
        ok, wit = self_sufficient(E, tower.c_block)
        if not ok:
            problems.append(f"C not strong: {subset_witness(wit)}")
        for i, blk in enumerate(tower.copy_blocks):
            ok, wit = self_sufficient(E, blk)
            if not ok:
                problems.append(f"copy {i} not strong: {subset_witness(wit)}")
        if len(tower.copy_blocks) != expect_copies:
            problems.append(f"{len(tower.copy_blocks)} copies, expected {expect_copies}")
        if not in_C0(E).holds:
            problems.append("amalgam leaves C0")
        d_e = delta(E, E.vertices)
        d_c = delta(C, C.vertices)
        if d_e < d_c:
            problems.append(f"delta chain broken: {d_e} < {d_c}")
        rep.add(
            key,
            PASS if not problems else FAIL,
            witness="; ".join(problems) or None,
            note=f"|E|={len(E.vertices)}, delta(E)={d_e}",
        )

    g = build_gadget(2, 1, 2)
    run_case(
        "point-over-empty-base",
        FiniteStructure(sig, [0]),
        FiniteStructure(sig, [1]),
        [],
        g,
        expect_copies=2,
    )
    run_case(
        "edge-over-point-base",
        graph([(100, 0)]),  # C: base vertex 100 plus c=0
        graph([(100, 1)]),  # B: base vertex 100 plus u0=1
        [100],
        g,
        expect_copies=2,
    )
    # empty amalgamation arms: B adds nothing over the base, so only the
    # distinguished point is identified and the rest of the gadget base stays fresh
    run_case(
        "empty-arms",
        FiniteStructure(sig, [0]),
        FiniteStructure(sig, []),
        [],
        g,
        expect_copies=0,
    )
    if negative_control:
        bad = build_gadget(2, 1, 2)
        S = bad.structure
        inst = {name: list(tups) for name, tups in S.instances.items()}
        inst["R"].append((0, 1))  # injected fault: edge inside the gadget base
        bad = type(bad)(FiniteStructure(S.signature, S.vertices, inst), bad.x_set, bad.params)
        try:
            build_tower_amalgam(
                FiniteStructure(sig, [0]), FiniteStructure(sig, [1]), [], bad
            )
            rep.add("negative-control:base-relations", PASS,
                    note="corruption went undetected")
        except InputError as exc:
            rep.add("negative-control:base-relations", FAIL, witness=str(exc),
                    note="a FAIL here is the expected outcome")
    return rep.finalize()


# -- path-fact ----------------------------------------------------------------------


def path_fact_suite(
    lengths: tuple[int, ...] = (2, 3, 4, 5, 6, 7, 8),
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="path-fact")
    for ell in lengths:
        P = path_graph(ell)
        closed = is_d_closed(P, [0, ell])
        expected = ell >= 3
        rep.add(
            f"endpoints-closed:l={ell}",
            PASS if closed == expected else FAIL,
            witness=None if closed == expected else f"d-closed={closed}, expected {expected}",
            note=f"expected {'closed' if expected else 'absorbing'}",
        )
    # length 1: the endpoint pair is the whole path, trivially closed in the
    # ambient sense; recorded as an interpretation gap, not a failure
    P1 = path_graph(1)
    rep.add(
        "endpoints-closed:l=1",
        DEGENERATE,
        note=f"pair is the whole ambient (d-closed={is_d_closed(P1, [0, 1])}); "
        "boundary reading differs from the schedule of longer paths",
    )
    if negative_control:
        closed = is_d_closed(path_graph(2), [0, 2])
        rep.add(
            "negative-control:l=2-claimed-closed",
            FAIL if not closed else PASS,
            witness=f"d-closed={closed}, fault claims True",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- ex511 --------------------------------------------------------------------------


def _fan_instance(r: int, a_size: int, extra_b: bool, with_relation: bool):
    sig = hypergraph_signature(1, 1, r)
    base = list(range(a_size))
    inst = []
    if with_relation:
        inst = [tuple(range(r))] if a_size >= r else []
    b = a_size
    verts = base + [b]
    if extra_b:
        verts.append(a_size + 1)
        inst = inst + [tuple(sorted((b, a_size + 1, *base[: r - 2])))]
    B = FiniteStructure(sig, verts, {"R": inst})
    return B, base, b


def ex511_suite(
    r_values: tuple[int, ...] = (3, 4),
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="ex511")
    f_by_r: dict[int, ControlFunction] = {}
    for r in r_values:
        f = ControlFunction.half_harmonic(1)
        f.validate(40)
        f_by_r[r] = f
        variants = [(a_size, False, False) for a_size in (1, 2, 3)]
        variants += [(2, True, False)]
        if r == 3:
            variants += [(3, False, True)]
        for a_size, extra_b, with_rel in variants:
            B, base, b = _fan_instance(r, a_size, extra_b, with_rel)
            res = build_fan_join(B, base, b, r, f)
            problems = []
            if not res.membership.holds:
                problems.append(
                    f"class membership {res.membership.verdict}, "
                    f"witness {sorted(res.membership.witness or [])}"
                )
            if not all(res.copies_d_closed):
                problems.append(f"copies d-closed: {res.copies_d_closed}")
            if not res.base_with_join_d_closed:
                problems.append("base plus joined point not d-closed")
            if not res.log_bound_ok:
                problems.append("fan growth bound violated")
            if not all(res.probe.spokes_perp_base):
                problems.append(f"spokes perp base: {res.probe.spokes_perp_base}")
            if not res.probe.anchor_in_closure:
                problems.append("anchor escaped the spoke closure")
            key = f"r={r}:|A|={a_size}" + ("+deep" if extra_b else "") + (
                ":rel" if with_rel else ""
            )
            rep.add(
                key,
                PASS if not problems else FAIL,
                witness="; ".join(problems) or None,
                note=f"|E|={len(res.structure.vertices)}, f={f.name}, "
                f"bound checked on {res.log_bound_checked} subsets",
            )
    if negative_control:
        r = 3
        B, base, b = _fan_instance(r, 1, False, False)
        res = build_fan_join(B, base, b, r, f_by_r[3])
        E = res.structure
        inst = {name: list(tups) for name, tups in E.instances.items()}
        verts = sorted(E.vertices)
        # injected fault: two extra relations drive delta under the bound
        inst["R"].append(tuple(sorted((verts[0], verts[1], verts[2]))))
        inst["R"].append(tuple(sorted((verts[0], verts[1], verts[3]))))
        corrupted = FiniteStructure(E.signature, E.vertices, inst)
        m = in_Cf(corrupted, f_by_r[3])
        rep.add(
            "negative-control:extra-relation",
            FAIL if not m.holds else PASS,
            witness=f"membership {m.verdict}, witness {sorted(m.witness or [])}",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- ex512 --------------------------------------------------------------------------


def ex512_suite(
    s: int = 73,
    step: int = 6,
    samples: int = 1000,
    sample_size_cap: int = 18,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="ex512")
    dc = build_double_cycle(s, step)
    CD = dc.structure
    g, cyc = girth_with_witness(CD)
    rep.add(
        "girth-at-least-6",
        PASS if g >= 6 else FAIL,
        witness=None if g >= 6 else subset_witness(cyc),
        note=f"girth {g}",
    )
    d = delta(CD, CD.vertices)
    rep.add(
        "delta-equals-s",
        PASS if d == s else FAIL,
        witness=None if d == s else f"delta {d} != {s}",
        margin=Fraction(d - s),
    )
    f = ControlFunction.harmonic(2)
    m = in_Cf(CD, f, samples=samples, seed=seed)
    rep.add(
        "class-membership",
        m.verdict if m.verdict != PASS else PASS,
        witness=None if m.verdict != FAIL else subset_witness(m.witness),
        note=m.detail or "exhaustive",
    )
    samp = sample_closed_connected_subsets(
        dc, count=samples, max_size=sample_size_cap, seed=seed
    )
    rep.add(
        "closed-subset-margin",
        PASS if samp.ok else FAIL,
        witness=None if samp.ok else str(samp.violations[0]),
        note=f"{samp.samples} samples ({samp.distinct} distinct), "
        f"2*delta >= size+3 on every d-closed connected sample",
    )
    sc = sample_c_closures(dc, count=max(200, samples // 3), seed=seed + 1)
    rep.add(
        "closure-size-bound",
        PASS if sc.ok else FAIL,
        witness=None if sc.ok else str(sc.violations[0]),
        note=f"{sc.samples} seeded closures of outer-cycle seeds, size <= 4*seed-3",
    )
    fan = build_cycle_fan(dc, f, seed=seed)
    rep.add(
        "fan-delta-bound",
        PASS if fan.delta_bound_ok else FAIL,
        witness=None
        if fan.delta_bound_ok
        else f"delta {fan.delta_e} < f({len(fan.structure.vertices)}) = {fan.f_at_size}",
        note=f"smallest admissible s for this block: {fan.smallest_valid_s}",
    )
    ok56 = all(fan.d_samples_closed) and all(fan.copies_sampled_closed)
    rep.add(
        "fan-closure-claims",
        PASS if ok56 and fan.b_closure_is_all else FAIL,
        witness=None
        if ok56 and fan.b_closure_is_all
        else f"d-vertices {fan.d_samples_closed}, copies {fan.copies_sampled_closed}, "
        f"closure-covers-all={fan.b_closure_is_all}",
        note="pendant blocks and single outer vertices d-closed; "
        "block union d-generates the whole fan",
    )
    if negative_control:
        inst = {name: list(tups) for name, tups in CD.instances.items()}
        inst["R"].append((dc.c_vertices[0], dc.c_vertices[2]))  # breaks bipartite girth
        corrupted = FiniteStructure(CD.signature, CD.vertices, inst)
        gg, cyc2 = girth_with_witness(corrupted)
        rep.add(
            "negative-control:extra-chord",
            FAIL if gg < 6 else PASS,
            witness=f"girth {gg}, cycle {subset_witness(cyc2)}",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- msa-bound ----------------------------------------------------------------------


def _random_strong_factor(rng, sig, base_struct, base_ids, size):
    """Random factor extending the base with the base self-sufficient in it."""
    r = sig.relations[0].arity
    for _ in range(200):
        fresh = list(range(1000, 1000 + size))
        verts = list(base_ids) + fresh
        pool = [c for c in itertools.combinations(verts, r) if set(c) & set(fresh)]
        inst = {sig.relations[0].name: list(base_struct.instances[sig.relations[0].name])}
        density = rng.random() * 0.6
        for c in pool:
            if rng.random() < density:
                inst[sig.relations[0].name].append(c)
        cand = FiniteStructure(sig, verts, inst)
        if not in_C0(cand).holds:
            continue
        if self_sufficient(cand, base_ids)[0]:
            return cand
    return None


def _straddling_excess(F, max_new, straddle):
    """Group the straddling msa pairs of F by (base, type).

    Returns the number of groups and, for each group with more copies than
    delta(base), the triple (base, copies, delta(base)).
    """
    groups: dict[tuple, int] = {}
    zdelta: dict[tuple, int] = {}
    for Z, W in enumerate_msa_pairs(F, max_new=max_new, straddle=straddle):
        key = (tuple(sorted(Z)), MsaType(F.induced(Z | W), Z).key())
        groups[key] = groups.get(key, 0) + 1
        zdelta[key] = delta_mask(F, F.mask_of(Z))
    bad = [(key[0], cnt, zdelta[key]) for key, cnt in groups.items() if cnt > zdelta[key]]
    return len(groups), bad


def msa_bound_suite(
    trials: int = 200, seed: int = 0, negative_control: bool = False
) -> VerificationReport:
    """Straddling msa types in random free amalgams never exceed delta(base)."""
    rep = VerificationReport(suite="msa-bound")
    rng = random.Random(seed)
    sigs = [graph_signature(2, 1), hypergraph_signature(1, 1, 3)]
    done = 0
    attempt = 0
    while done < trials:
        attempt += 1
        if attempt > 40 * trials:
            raise InputError("could not generate enough admissible amalgams")
        sig = sigs[done % 2]
        base_n = rng.randint(1, 2)
        base_ids = list(range(base_n))
        base_struct = FiniteStructure(sig, base_ids, {})
        b_size = rng.randint(1, 6 - base_n)
        c_size = rng.randint(1, 6 - base_n)
        B = _random_strong_factor(rng, sig, base_struct, base_ids, b_size)
        if B is None:
            continue
        C = _random_strong_factor(rng, sig, base_struct, base_ids, c_size)
        if C is None:
            continue
        C = C.relabel({v: (v if v in base_ids else v + 1000) for v in C.vertices})
        from .structures import free_amalgam

        F = free_amalgam(base_ids, B, C)
        done += 1
        n_types, bad = _straddling_excess(
            F, 4, (frozenset(B.vertices), frozenset(C.vertices))
        )
        rep.add(
            f"trial{done:03d}:{sig.relations[0].arity}-ary",
            PASS if not bad else FAIL,
            witness=None
            if not bad
            else f"base {bad[0][0]}: {bad[0][1]} copies > delta {bad[0][2]}",
            note=f"{n_types} straddling types, |F|={len(F.vertices)}",
        )
    if negative_control:
        # a claimed amalgam with crossing edges: five shared neighbors of a
        # straddling pair blow past its predimension
        edges = [(0, 2 + i) for i in range(5)] + [(1, 2 + i) for i in range(5)]
        _, bad = _straddling_excess(graph(edges), 1, (frozenset({0}), frozenset({1})))
        rep.add(
            "negative-control:crossing-edges",
            FAIL if bad else PASS,
            witness=f"base {bad[0][0]}: {bad[0][1]} copies > delta {bad[0][2]}"
            if bad
            else "corruption went undetected",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- submodularity and closure oracles -------------------------------------------------


def _all_graphs_up_to(n_max: int):
    """Isomorphism classes of all simple graphs up to n_max vertices."""
    sig = graph_signature(2, 1)
    levels = [[FiniteStructure(sig, [])]]
    for size in range(1, n_max + 1):
        seen = {}
        for base in levels[size - 1]:
            old = list(base.vertices)
            for bits in range(1 << len(old)):
                edges = [
                    (old[i], size - 1) for i in range(len(old)) if bits >> i & 1
                ]
                inst = {"R": list(base.instances["R"]) + edges}
                cand = FiniteStructure(sig, old + [size - 1], inst)
                key = canonical_form(cand, cap=size)
                if key not in seen:
                    seen[key] = cand
        levels.append([seen[k] for k in sorted(seen)])
    out = []
    for lv in levels:
        out.extend(lv)
    return out


def _interval_min_table(dtab: np.ndarray, n: int) -> np.ndarray:
    """M[a, b] = min delta over sets between a and b (junk where a is not in b)."""
    size = 1 << n
    M = np.broadcast_to(dtab[None, :], (size, size)).copy()
    masks = np.arange(size)
    for i in range(n):
        bit = 1 << i
        rows = (masks & bit) == 0  # a without the bit
        cols = (masks & bit) == bit  # b with the bit
        sub = M[np.ix_(rows, cols)]
        other = M[np.ix_(rows, masks[cols] ^ bit)]
        M[np.ix_(rows, cols)] = np.minimum(sub, other)
    return M


def submodularity_suite(
    max_n: int = 7,
    oracle_cases: int = 10_000,
    oracle_max_n: int = 14,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="submodularity")
    graphs = _all_graphs_up_to(max_n)
    size = 1 << max_n
    masks = np.arange(size, dtype=np.int64)
    OR = masks[:, None] | masks[None, :]
    AND = masks[:, None] & masks[None, :]
    sub_bad = res_bad = tr_bad = None
    for G in graphs:
        n = len(G.vertices)
        dt = np.asarray(delta_table(G), dtype=np.int64)
        sz = 1 << n
        o = OR[:sz, :sz]
        a = AND[:sz, :sz]
        lhs = dt[o]
        rhs = dt[:sz, None] + dt[None, :sz] - dt[a]
        if (lhs > rhs).any():
            i, j = np.argwhere(lhs > rhs)[0]
            sub_bad = (G, int(masks[i]), int(masks[j]))
            break
        M = _interval_min_table(dt, n)
        contained = (a[: sz, : sz] == masks[:sz, None])  # a subset of b
        SS = contained & (M[:sz, :sz] == dt[:sz, None])
        # restriction: a strong in b passes to intersections with any x in b
        for amask in range(sz):
            bs = np.nonzero(SS[amask])[0]
            for bmask in bs:
                xs = masks[:sz][(masks[:sz] & bmask) == masks[:sz]]
                if not SS[amask & xs, xs].all():
                    bad_x = int(xs[np.argwhere(~SS[amask & xs, xs])[0][0]])
                    res_bad = (G, amask, int(bmask), bad_x)
                    break
            if res_bad:
                break
        if res_bad:
            break
        T = (SS.astype(np.int16) @ SS.astype(np.int16)) > 0
        if (T & ~SS).any():
            i, j = np.argwhere(T & ~SS)[0]
            tr_bad = (G, int(i), int(j))
            break
    rep.add(
        "submodularity-exhaustive",
        PASS if sub_bad is None else FAIL,
        witness=None
        if sub_bad is None
        else f"A={sub_bad[1]:b} B={sub_bad[2]:b} in {sub_bad[0]}",
        note=f"{len(graphs)} graph types up to {max_n} vertices, all subset pairs",
    )
    rep.add(
        "restriction-exhaustive",
        PASS if res_bad is None else FAIL,
        witness=None if res_bad is None else str(res_bad[1:]),
        note="strong subsets restrict to every subset of their ambient",
    )
    rep.add(
        "transitivity-exhaustive",
        PASS if tr_bad is None else FAIL,
        witness=None if tr_bad is None else str(tr_bad[1:]),
    )

    rng = random.Random(seed)
    bad_oracle = None
    checked = 0
    structures = max(1, oracle_cases // 25)
    for _ in range(structures):
        n = rng.randint(2, oracle_max_n)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        S = graph(edges, vertices=range(n))
        dt = np.asarray(delta_table(S), dtype=np.int64)
        sz = 1 << n
        mk = np.arange(sz, dtype=np.int64)
        pc = np.zeros(sz, dtype=np.int64)
        for i in range(n):
            step = 1 << i
            pc[step : 2 * step] = pc[:step] + 1
        for _ in range(25):
            checked += 1
            xmask = rng.randrange(sz)
            sup = (mk & xmask) == xmask
            vals = dt[sup]
            cands = mk[sup]
            best = int(vals.min())
            winners = cands[vals == best]
            order = np.lexsort((winners, pc[winners]))
            oracle = (best, int(winners[order[0]]), int(np.bitwise_or.reduce(winners)))
            flow = _flow_solve(S, xmask)
            table = _table_solve(S, xmask)
            if not (oracle == flow == table):
                bad_oracle = (S, xmask, oracle, flow, table)
                break
        if bad_oracle:
            break
    rep.add(
        "closure-oracle-agreement",
        PASS if bad_oracle is None else FAIL,
        witness=None if bad_oracle is None else str(bad_oracle[1:]),
        note=f"{checked} seeded (structure, subset) cases up to {oracle_max_n} vertices; "
        "brute-force scan vs flow vs table",
    )
    if negative_control:
        G = graph([(0, 1), (1, 2), (0, 2)])
        dt = np.asarray(delta_table(G), dtype=np.int64).copy()
        dt[7] += 5  # injected fault: corrupted table entry
        o = OR[:8, :8]
        a = AND[:8, :8]
        bad = (dt[o] > dt[:8, None] + dt[None, :8] - dt[a]).any()
        rep.add(
            "negative-control:corrupted-delta",
            FAIL if bad else PASS,
            witness="submodularity violated by corrupted entry" if bad else "undetected",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- axioms -------------------------------------------------------------------------


def _lemma43_equivalence_exhaustive(S: FiniteStructure, size_cap: int = 4) -> tuple[int, tuple | None]:
    """Count admissible d-closed triples; return first disagreement (or None)."""
    dt = dim_table_cached(S)
    dtab = delta_table(S)
    closed = d_closed_subset_masks(S, size_cap=size_cap)
    cld_of = functools.cache(functools.partial(cld_from_table, dt))

    checked = 0
    for amask in closed:
        for cmask in closed:
            inter = amask & cmask
            for bmask in closed:
                if bmask & ~inter:
                    continue
                checked += 1
                indep = (
                    dt[amask | bmask | cmask] + dt[bmask]
                    == dt[amask | bmask] + dt[bmask | cmask]
                )
                u = cld_of(amask | bmask)
                v = cld_of(bmask | cmask)
                cond = lemma43_free_split(S, u, v, bmask) and dt[u | v] == dtab[u | v]
                if indep != cond:
                    return checked, (amask, bmask, cmask, indep, cond)
    return checked, None


def axioms_suite(
    size_cap: int = 2,
    lemma43_cap: int = 4,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    from .independence import axiom_suite as run_axioms

    rep = VerificationReport(suite="axioms")
    sig = graph_signature(2, 1)
    approximants = [
        ("approx-12", build_generic(BuildConfig(sig, C0, 3, 6, seed=seed)).structure),
        ("approx-9", build_generic(BuildConfig(sig, C0, 2, 5, seed=seed)).structure),
    ]
    for label, S in approximants:
        sub = run_axioms(S, size_cap=size_cap)
        for case in sub.cases:
            rep.add(f"{label}:{case.key}", case.status, case.witness, case.margin,
                    case.note or f"|S|={len(S.vertices)}")
        checked, bad = _lemma43_equivalence_exhaustive(S, size_cap=lemma43_cap)
        rep.add(
            f"{label}:characterization-equivalence",
            PASS if bad is None else FAIL,
            witness=None if bad is None else str(bad),
            note=f"{checked} admissible d-closed triples, sets up to size {lemma43_cap}",
        )
    if negative_control:
        # claim symmetry on an asymmetric relation: swap one side's dimension
        S = approximants[0][1]
        from .closures import dim

        a, b, c = [S.vertices[0]], [S.vertices[1]], [S.vertices[2]]
        lhs = dim(S, set(a) | set(b) | set(c)) + dim(S, b)
        rhs = dim(S, set(a) | set(b)) + dim(S, set(b) | set(c))
        corrupted_lhs = lhs + 1  # injected fault
        rep.add(
            "negative-control:corrupted-dimension",
            FAIL if (corrupted_lhs == rhs) != (lhs == rhs) else PASS,
            witness=f"corrupted dim sum {corrupted_lhs} vs true {lhs}",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- extension property ---------------------------------------------------------------


def extension_property_suite(
    budget: int = 200,
    max_pattern: int = 3,
    cap_per_task: int = 4,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="extension-property")
    sig = graph_signature(2, 1)
    cfg = BuildConfig(sig, C0, max_pattern=max_pattern, budget=budget, seed=seed)
    res = build_generic(cfg)
    S = res.structure
    rep.add(
        "in-class",
        PASS if in_C0(S).holds else FAIL,
        witness=None if in_C0(S).holds else subset_witness(in_C0(S).witness),
        note=f"{len(S.vertices)} vertices after {len(res.log.steps)} steps",
    )
    audit = audit_extension_property(
        S, [t for t in res.tasks if len(t.base_ids) <= 1], cap_per_task=cap_per_task
    )
    ratio = audit.ratio(max_base=1)
    rep.add(
        "audit-small-bases",
        PASS if ratio == 1.0 else FAIL,
        witness=None
        if ratio == 1.0
        else "; ".join(
            f"{e.task_key}: {e.realized}/{e.embeddings_checked}"
            for e in audit.entries
            if e.realized != e.embeddings_checked
        ),
        note=f"realization ratio {ratio:.3f} over bases of size <= 1, "
        f"cap {cap_per_task} embeddings per task",
    )
    res2 = build_generic(cfg)
    same = res.log.digest() == res2.log.digest()
    rep.add(
        "replay-determinism",
        PASS if same else FAIL,
        witness=None if same else f"{res.log.digest()} != {res2.log.digest()}",
        note=f"digest {res.log.digest()[:16]}...",
    )
    empty_cfg = BuildConfig(sig, C0, max_pattern=1, budget=0, seed=seed)
    empty = build_generic(empty_cfg)
    audit0 = audit_extension_property(empty.structure, empty.tasks, cap_per_task=1)
    rep.add(
        "zero-budget-control",
        PASS if audit0.ratio() < 1.0 or not audit0.entries else FAIL,
        witness=None,
        note=f"zero-budget build realizes ratio {audit0.ratio():.2f}",
    )
    if negative_control:
        # deleting an edge breaks a realized copy: re-audit must drop below 1
        inst = {name: list(tups) for name, tups in S.instances.items()}
        if inst["R"]:
            removed = inst["R"].pop(0)
        corrupted = FiniteStructure(S.signature, S.vertices, inst)
        audit_c = audit_extension_property(
            corrupted,
            [t for t in res.tasks if len(t.base_ids) <= 1],
            cap_per_task=cap_per_task,
        )
        dropped = audit_c.ratio(max_base=1) < 1.0
        rep.add(
            "negative-control:removed-edge",
            FAIL if dropped else PASS,
            witness=f"removed {removed}; ratio {audit_c.ratio(max_base=1):.3f}",
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()


# -- kn -----------------------------------------------------------------------------


def _bip_cycle(length_half: int, ngon: int) -> FiniteStructure:
    k = length_half
    edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    return bipartite_graph(
        edges, points=range(0, 2 * k, 2), lines_=range(1, 2 * k, 2), ngon=ngon
    )


def kn_suite(
    ngons: tuple[int, ...] = (3, 4, 5), seed: int = 0, negative_control: bool = False
) -> VerificationReport:
    rep = VerificationReport(suite="kn")
    for n in ngons:
        sig = polygon_signature(n)
        weights_ok = (
            sig.vertex_weight == n - 1 and sig.relations[0].weight == n - 2
        )
        single = bipartite_graph([], points=[0], lines_=[], ngon=n)
        edge = bipartite_graph([(0, 1)], points=[0], lines_=[1], ngon=n)
        d_checks = (
            delta(single, [0]) == n - 1
            and delta(edge, [0, 1]) == 2 * (n - 1) - (n - 2)
        )
        rep.add(
            f"n={n}:weights",
            PASS if weights_ok and d_checks else FAIL,
            witness=None if weights_ok and d_checks else
            f"vertex {sig.vertex_weight}, edge {sig.relations[0].weight}",
            note=f"vertex weight {n - 1}, edge weight {n - 2}",
        )
        good = in_Kn(_bip_cycle(n, n), n)
        rep.add(
            f"n={n}:accepts-2n-cycle",
            PASS if good.holds else FAIL,
            witness=None if good.holds else subset_witness(good.witness or []),
        )
        for m in range(2, n):
            bad = in_Kn(_bip_cycle(m, n), n)
            rep.add(
                f"n={n}:rejects-{2 * m}-cycle",
                PASS if (not bad.holds and bad.witness) else FAIL,
                witness=subset_witness(bad.witness) if bad.witness else "no witness",
                note="short cycle must be rejected with a cycle witness",
            )
        edge_m = in_Kn(edge, n)
        rep.add(
            f"n={n}:accepts-edge",
            PASS if edge_m.holds else FAIL,
            witness=None if edge_m.holds else subset_witness(edge_m.witness or []),
        )
    if negative_control:
        verdict = in_Kn(_bip_cycle(2, 3), 3)  # fault: a 4-cycle claimed admissible
        rep.add(
            "negative-control:4-cycle-claimed",
            FAIL if not verdict.holds else PASS,
            witness=subset_witness(verdict.witness or []),
            note="a FAIL here is the expected outcome",
        )
    return rep.finalize()
