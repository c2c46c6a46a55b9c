"""Named verification suites with deterministic, machine-checkable reports.

Each suite exercises one family of claims end to end and reports one case
per checked instance.  ``--negative-control`` runs the same machinery on a
deliberately corrupted input; the resulting FAIL (with a replayable witness)
shows the check can actually catch the fault it is aimed at.

Integer options take their least values and caps from :data:`OPTION_RANGES`
alone, which :func:`run_suite` checks before a suite runs.
"""

from __future__ import annotations

import inspect
import itertools
import math
import random
import time
from fractions import Fraction

import numpy as np

from .builder import (
    C0,
    DEFAULT_CAP_PER_TASK,
    BuildConfig,
    _isomorph_free_types,
    audit_extension_property,
    build_generic,
)
from .classes import SAMPLES_CAP, ControlFunction, girth_with_witness, in_C0, in_Cf, in_Kn
from .closures import (
    cld,
    delta_table,
    dim_cld_tables,
    is_d_closed,
    self_sufficient,
    TABLE_MAX_BITS,
    _solve,
)
from .errors import CapacityError, InputError
from .extensions import enumerate_msa_pairs, MsaType
from .independence import (
    _lemma43_equivalence_exhaustive, _monotone_submodular, _order_violation, axiom_suite, perp,
)
from .gadgets import (
    _build_fan_probe,
    beatty,
    build_cycle_fan,
    build_double_cycle,
    build_fan_join,
    build_gadget,
    build_tower_amalgam,
    check_construction_size,
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
    delta,
    delta_mask,
    free_amalgam,
    graph,
    graph_signature,
    hypergraph_signature,
    path_graph,
    polygon_signature,
    _submasks,
)


def run_suite(name: str, seed: int = 0, negative_control: bool = False, **options) -> VerificationReport:
    """Check the options, then run a named suite; reports are deterministic
    for fixed seeds."""
    fn = _SUITES.get(name)
    if fn is None:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    accepted = inspect.signature(fn).parameters
    params = {k: p.default for k, p in accepted.items() if k not in ("seed", "negative_control")}
    for key, value in options.items():
        if key not in params:
            raise InputError(f"suite {name!r} has no option {key!r}; "
                             f"known: {', '.join(params) or 'none'}")
        if isinstance(value, int) != isinstance(params[key], int):
            raise InputError(f"option {key!r} of suite {name!r} takes "
                             f"{type(params[key]).__name__} values, got {value!r}")
        if key in OPTION_RANGES.get(name, {}):  # every int option; tuples have no range
            least, cap = OPTION_RANGES[name][key]
            if value < least:
                raise InputError(f"{name} {key} must be at least {least}, got {value}")
            if cap is not None and value > cap:
                raise CapacityError(f"{name} {key}", cap, value)
    if "seed" in accepted:
        options["seed"] = seed
    t0 = time.monotonic()
    rep = fn(negative_control=negative_control, **options)
    rep.wall_time = time.monotonic() - t0
    rep.seed = seed
    return rep


def _negative_control(
    rep: VerificationReport, fault: str, witness: str | None, what: str = ""
) -> None:
    """Record the run on a deliberately corrupted input.

    A caught fault is the expected FAIL and carries the checker's witness; a
    missed one is a PASS with no witness.  ``what`` describes the fault.
    """
    rep.check(
        f"negative-control:{fault}",
        witness,
        note=(f"{what}; " if what else "") + "a FAIL here is the expected outcome",
    )


def _failures(sub: VerificationReport) -> str | None:
    """The keyed FAIL witnesses of a sub-report, or None when it has none."""
    return "; ".join(f"{c.key}:{c.witness}" for c in sub.failures()) or None


# -- beatty ------------------------------------------------------------------------

BEATTY_B_MAX = 150  # the suite takes 10 s here on 2 CPUs (4.4 s at 120, 2.3 s at 100)


def _beatty_window_checks(seq, ell: int, b: int) -> str | None:
    """Full-window sums and the density bound; None when clean.

    The entries i = -b .. 4b (stored at i + b) are read from the period in
    one gather, so they are periodic by construction, and each check is one
    array pass over them.  The witness is the first in loop order: per start
    i, the window sum before the density bound at s = 1 .. 3b.
    """
    vals = np.array(seq.period, dtype=np.int64)[(np.arange(-b, 4 * b + 1) - 1) % seq.b]
    pref = np.concatenate(([0], np.cumsum(vals[1:])))  # pref[j]: entries -b+1 .. j-b
    starts = np.arange(2 * b + 1)
    lengths = np.arange(1, 3 * b + 1)
    window = pref[starts + b] - pref[starts]
    dense = (pref[starts[:, None] + lengths] - pref[starts, None] - 1) * b > lengths * ell
    broken = np.flatnonzero((window != ell) | dense.any(axis=1))
    if not broken.size:
        return None
    j = int(broken[0])
    if window[j] != ell:
        return f"window sum at i={j - b} is {int(window[j])}"
    return f"density bound broken at i={j - b}, s={int(dense[j].argmax()) + 1}"


def beatty_suite(b_max: int = 40, negative_control: bool = False) -> VerificationReport:
    rep = VerificationReport(suite="beatty")
    for b in range(2, b_max + 1):
        for ell in range(1, b):
            seq = beatty(ell, b)
            rep.check(f"l={ell:02d},b={b:02d}", _beatty_window_checks(seq, ell, b))
    if negative_control:
        seq = beatty(2, 5)
        period = list(seq.period)
        period[2] ^= 1  # injected fault: one flipped entry
        corrupted = type(seq)(2, 5, tuple(period))
        _negative_control(rep, "l=02,b=05", _beatty_window_checks(corrupted, 2, 5),
                          "flipped period entry 2")
    return rep.finalize()


# -- gadget ------------------------------------------------------------------------


def gadget_suite(
    r2_max: int = 10, r3_max: int = 6, negative_control: bool = False
) -> VerificationReport:
    rep = VerificationReport(suite="gadget")
    # lazily, so that a grid past the verify cap stops at its first gadget above it
    grid = itertools.chain(((n, m, 2) for n in range(2, r2_max + 1) for m in range(1, n)),
                           ((n, m, 3) for n in range(1, r3_max + 1) for m in range(1, n + 1)))
    for n, m, r in grid:
        if math.gcd(n, m) != 1:
            continue
        rep.cases.extend(verify_gadget(build_gadget(n, m, r)).cases)
    if negative_control:
        g = build_gadget(2, 1, 2)
        S = g.structure
        removed, *kept = S.instances["R"]  # injected fault: one edge removed
        corrupted = FiniteStructure(S.signature, S.vertices, {"R": kept})
        caught = _failures(verify_gadget(type(g)(corrupted, g.x_set, g.params)))
        _negative_control(rep, "removed-edge", caught and f"removed {removed}; {caught}")
        g2 = build_gadget(3, 2, 2)
        wrong_sig = graph_signature(3, 1)  # injected fault: corrupted weight
        S2 = FiniteStructure(wrong_sig, g2.structure.vertices, g2.structure.instances)
        _negative_control(rep, "corrupted-weight",
                          _failures(verify_gadget(type(g2)(S2, g2.x_set, g2.params))),
                          "edge weight 2 replaced by 1")
    return rep.finalize()


# -- lemma49 ------------------------------------------------------------------------


def lemma49_suite(negative_control: bool = False) -> VerificationReport:
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
        rep.check(key, "; ".join(problems) or None,
                  note=f"|E|={len(E.vertices)}, delta(E)={d_e}")

    g = build_gadget(2, 1, 2)
    # (key, C, B, base, copies).  Over the point base 100, C adds c=0 and B
    # adds u0=1.  With empty amalgamation arms B adds nothing over the base, so
    # only the distinguished point is identified and the rest of the gadget
    # base stays fresh.
    for key, C, B, base, copies in (
        ("point-over-empty-base", FiniteStructure(sig, [0]), FiniteStructure(sig, [1]), [], 2),
        ("edge-over-point-base", graph([(100, 0)]), graph([(100, 1)]), [100], 2),
        ("empty-arms", FiniteStructure(sig, [0]), FiniteStructure(sig, []), [], 0),
    ):
        run_case(key, C, B, base, g, copies)
    if negative_control:
        bad = build_gadget(2, 1, 2)
        # injected fault: edge inside the gadget base
        bad = type(bad)(bad.structure.with_added([], {"R": [(0, 1)]}), bad.x_set, bad.params)
        caught = None
        try:
            build_tower_amalgam(
                FiniteStructure(sig, [0]), FiniteStructure(sig, [1]), [], bad
            )
        except InputError as exc:
            caught = str(exc)
        _negative_control(rep, "base-relations", caught)
    return rep.finalize()


# -- path-fact ----------------------------------------------------------------------


def path_fact_suite(negative_control: bool = False) -> VerificationReport:
    rep = VerificationReport(suite="path-fact")
    for ell in range(2, 9):
        P = path_graph(ell)
        closed = is_d_closed(P, [0, ell])
        expected = ell >= 3
        rep.check(
            f"endpoints-closed:l={ell}",
            None if closed == expected else f"d-closed={closed}, expected {expected}",
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
        _negative_control(rep, "l=2-claimed-closed",
                          None if closed else f"d-closed={closed}, fault claims True")
    return rep.finalize()


# -- ex511 --------------------------------------------------------------------------


def _fan_instance(r: int, a_size: int, extra_b: bool, with_relation: bool):
    sig = hypergraph_signature(1, 1, r)
    check_construction_size("fan base", a_size + 1 + extra_b)
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


def _fan_growth_bound(fan, r: int) -> tuple[int, bool]:
    """(subsets checked, all within) for the fan's growth bound, in exact form.

    The bound guards the fan's class membership: (|Y_B1| + (r-2)|Y_B1 \\ A|)
    / (|Y_B1| - 1) <= r - 1/2, below a rational lower bound of e^(r-2).  It
    applies to every Y holding the copies of b and the joined vertex and
    meeting the base, whose largest share of one copy block outside the
    base (that block is B1) has at least 2 points.
    """
    mid = Fraction(2 * r - 1, 2)
    e_low = Fraction(271_828_182, 100_000_000) ** (r - 2)
    E = fan.structure
    must = E.mask_of([*fan.b_copies, fan.joined_vertex])
    base = E.mask_of(fan.base)
    news = [E.mask_of(blk - fan.base) for blk in fan.copy_blocks]
    checked, ok = 0, True
    for rest in _submasks(E.full_mask() & ~must):
        Y = rest | must
        if not Y & base:
            continue
        mx = max((Y & new).bit_count() for new in news)
        if mx >= 2:
            checked += 1
            yb1 = mx + (Y & base).bit_count()
            ok &= Fraction(yb1 + (r - 2) * mx, yb1 - 1) <= mid <= e_low
    return checked, ok


def _fan_join_claims(B, base_ids, b, r: int, f: ControlFunction):
    """Build the fan join of B over the base and check its claims.

    Returns the problems found (empty when every claim holds), the joined
    structure and the number of subsets the growth bound was checked on.
    """
    fan = build_fan_join(B, base_ids, b, r)
    E, base = fan.structure, fan.base
    problems = []
    m = in_Cf(E, f)
    if not m.holds:
        problems.append(f"class membership {m.verdict}, witness {sorted(m.witness or [])}")
    copies_closed = tuple(is_d_closed(E, blk) for blk in fan.copy_blocks)
    if not all(copies_closed):
        problems.append(f"copies d-closed: {copies_closed}")
    if not is_d_closed(E, base | {fan.joined_vertex}):
        problems.append("base plus joined point not d-closed")
    checked, bound_ok = _fan_growth_bound(fan, r)
    if not bound_ok:
        problems.append("fan growth bound violated")
    probe, anchor, spokes = _build_fan_probe(B, base, r)
    spokes_perp = tuple(perp(probe, [e], frozenset(), base) for e in spokes)
    if not all(spokes_perp):
        problems.append(f"spokes perp base: {spokes_perp}")
    if anchor not in cld(probe, base | set(spokes)):
        problems.append("anchor escaped the spoke closure")
    return problems, E, checked


def ex511_suite(
    r_values: tuple[int, ...] = (3, 4), negative_control: bool = False
) -> VerificationReport:
    for r in r_values:  # the +deep variant pads an instance with r - 2 of its 2 base points
        if not 3 <= r <= 4:
            raise InputError(f"ex511 builds r from 3 to 4 only, got r = {r}")
    rep = VerificationReport(suite="ex511")
    f = ControlFunction.half_harmonic(1)
    for r in r_values:
        variants = [(a_size, False, False) for a_size in (1, 2, 3)]
        variants += [(2, True, False)]
        if r == 3:
            variants += [(3, False, True)]
        for a_size, extra_b, with_rel in variants:
            problems, E, checked = _fan_join_claims(*_fan_instance(r, a_size, extra_b, with_rel),
                                                    r, f)
            key = f"r={r}:|A|={a_size}" + ("+deep" if extra_b else "") + (
                ":rel" if with_rel else ""
            )
            rep.check(
                key,
                "; ".join(problems) or None,
                note=f"|E|={len(E.vertices)}, f={f.name}, bound checked on {checked} subsets",
            )
    if negative_control:
        B, base, b = _fan_instance(3, 1, False, False)
        E = build_fan_join(B, base, b, 3).structure
        v = E.vertices
        # injected fault: two extra relations drive delta under the bound
        m = in_Cf(E.with_added([], {"R": [(v[0], v[1], v[2]), (v[0], v[1], v[3])]}), f)
        _negative_control(rep, "extra-relation", None if m.holds
                          else f"membership {m.verdict}, witness {sorted(m.witness or [])}")
    return rep.finalize()


# -- ex512 --------------------------------------------------------------------------


def ex512_suite(
    s: int = 73,
    step: int = 6,
    samples: int = 1000,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="ex512")
    dc = build_double_cycle(s, step)
    CD = dc.structure
    g, cyc = girth_with_witness(CD)
    rep.check(
        "girth-at-least-6",
        None if g >= 6 else subset_witness(cyc),
        note=f"girth {g}",
    )
    d = delta(CD, CD.vertices)
    rep.check(
        "delta-equals-s",
        None if d == s else f"delta {d} != {s}",
        margin=Fraction(d - s),
    )
    f = ControlFunction.harmonic(2)
    m = in_Cf(CD, f, samples=samples, seed=seed)
    rep.add(
        "class-membership",
        m.verdict,
        witness=None if m.verdict != FAIL else subset_witness(m.witness),
        note=m.detail or "exhaustive",
    )
    samp = sample_closed_connected_subsets(dc, count=samples, seed=seed)
    rep.check(
        "closed-subset-margin",
        None if samp.ok else str(samp.violations[0]),
        note=f"{samp.samples} samples ({samp.distinct} distinct), "
        f"2*delta >= size+3 on every d-closed connected sample",
    )
    sc = sample_c_closures(dc, count=max(200, samples // 3), seed=seed + 1)
    rep.check(
        "closure-size-bound",
        None if sc.ok else str(sc.violations[0]),
        note=f"{sc.samples} seeded closures of outer-cycle seeds, size <= 4*seed-3",
    )
    E, pendants = build_cycle_fan(dc)
    delta_e = delta_mask(E, E.full_mask())
    f_at = f(len(E.vertices))
    # the fan on a double cycle of length 2t has 3t vertices and delta 2t
    smallest = next((t for t in range(73, 12 * s + 1201)
                     if math.gcd(6, t) == 1 and 2 * t >= f(3 * t)), None)
    rep.check(
        "fan-delta-bound",
        None if delta_e >= f_at else f"delta {delta_e} < f({len(E.vertices)}) = {f_at}",
        note=f"smallest admissible s for this block: {smallest}",
    )
    open_singletons = [v for v in (*dc.d_vertices, *pendants) if not is_d_closed(E, {v})]
    covers = cld(E, pendants) == frozenset(E.vertices)
    rep.check(
        "fan-closure-claims",
        None
        if not open_singletons and covers
        else f"not d-closed: {subset_witness(open_singletons)}, closure-covers-all={covers}",
        note="pendant blocks and single outer vertices d-closed; "
        "block union d-generates the whole fan",
    )
    if negative_control:
        chord = (dc.c_vertices[0], dc.c_vertices[2])  # breaks bipartite girth
        gg, cyc2 = girth_with_witness(CD.with_added([], {"R": [chord]}))
        _negative_control(rep, "extra-chord",
                          f"girth {gg}, cycle {subset_witness(cyc2)}" if gg < 6 else None)
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

    Returns the number of groups and the first group with more copies than
    delta(base) as a witness, or None when there is none.
    """
    groups: dict[tuple, int] = {}
    zdelta: dict[tuple, int] = {}
    for Z, W in enumerate_msa_pairs(F, max_new=max_new, straddle=straddle):
        key = (tuple(sorted(Z)), MsaType(F.induced(Z | W), Z).key())
        groups[key] = groups.get(key, 0) + 1
        zdelta[key] = delta_mask(F, F.mask_of(Z))
    bad = [(key[0], cnt, zdelta[key]) for key, cnt in groups.items() if cnt > zdelta[key]]
    witness = f"base {bad[0][0]}: {bad[0][1]} copies > delta {bad[0][2]}" if bad else None
    return len(groups), witness


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
        F = free_amalgam(base_ids, B, C)
        done += 1
        n_types, excess = _straddling_excess(
            F, 4, (frozenset(B.vertices), frozenset(C.vertices))
        )
        rep.check(
            f"trial{done:03d}:{sig.relations[0].arity}-ary",
            excess,
            note=f"{n_types} straddling types, |F|={len(F.vertices)}",
        )
    if negative_control:
        # a claimed amalgam with crossing edges: five shared neighbors of a
        # straddling pair blow past its predimension
        edges = [(0, 2 + i) for i in range(5)] + [(1, 2 + i) for i in range(5)]
        _, excess = _straddling_excess(graph(edges), 1, (frozenset({0}), frozenset({1})))
        _negative_control(rep, "crossing-edges", excess)
    return rep.finalize()


# -- submodularity and closure oracles -------------------------------------------------


def _submodularity_witness(G: FiniteStructure, dt) -> str | None:
    """A replayable witness that ``dt``, G's delta table as checked, is not
    submodular: A = X|i and B = X|j by vertex id for its first violation (X, i,
    j) (:func:`independence._monotone_submodular`), G's vertices and edges, and
    the two sums of delta(A|B) + delta(A&B) <= delta(A) + delta(B) from ``dt``."""
    step = _monotone_submodular(dt, monotone=False)
    if step is None:
        return None
    x, i, j = step
    a, b = x | 1 << i, x | 1 << j
    return (f"A={subset_witness(G.ids_of(a))} B={subset_witness(G.ids_of(b))} "
            f"in graph on {subset_witness(G.vertices)} with edges {list(G.instances['R'])}: "
            f"delta(A|B) + delta(A&B) = {dt[a | b] + dt[a & b]} > {dt[a] + dt[b]} "
            f"= delta(A) + delta(B)")


def _first_exhaustive_failure(graphs: list) -> str | None:
    """The witness of the first graph of ``graphs`` whose delta table is not
    submodular; None when every table is."""
    return next(filter(None, (_submodularity_witness(G, delta_table(G)) for G in graphs)), None)


def submodularity_suite(
    max_n: int = 7,
    oracle_cases: int = 10_000,
    oracle_max_n: int = 14,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    """Submodularity of delta on every graph type up to ``max_n`` vertices,
    the strong-subset laws that follow from it, and the closure engines
    against a brute-force scan on seeded cases.

    A is strong in B (A <= B) when A is inside B and no set between them
    has smaller delta.  Restriction and transitivity of <= follow from
    submodularity, delta(Y) >= delta(Y|Z) + delta(Y&Z) - delta(Z), so they
    cannot fail on a submodular table, and their cases FAIL exactly when
    the submodularity case does, with its witness:
    - restriction: for A <= B, X inside B and A&X inside Y inside X, take
      Z = A; then A <= Y|A gives delta(Y) >= delta(A&X), so A&X <= X;
    - transitivity: for A <= B <= C and A inside Y inside C, take Z = B;
      then B <= Y|B and A <= Y&B give delta(Y) >= delta(A), so A <= C.
    Single-point steps decide submodularity for all sets, so one pass per
    pair of points reads each table.
    """
    rep = VerificationReport(suite="submodularity")
    graphs = _isomorph_free_types(graph_signature(2, 1), max_n, lambda G: True)
    witness = _first_exhaustive_failure(graphs)
    rep.check(
        "submodularity-exhaustive",
        witness,
        note=f"{len(graphs)} graph types up to {max_n} vertices, all subset pairs",
    )
    rep.check(
        "restriction-exhaustive",
        witness,
        note="strong subsets restrict to every subset of their ambient"
        if witness is None else "delta table not submodular",
    )
    rep.check(
        "transitivity-exhaustive",
        witness,
        note="" if witness is None else "delta table not submodular",
    )

    rng = random.Random(seed)
    bad_oracle = None
    checked = 0
    # batches of 25 cases per structure, the remainder in the last one
    for first in range(0, oracle_cases, 25):
        n = rng.randint(2, oracle_max_n)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        S = graph(edges, vertices=range(n))
        dt = np.asarray(delta_table(S), dtype=np.int64)
        masks = np.arange(1 << n, dtype=np.int64)
        for _ in range(min(25, oracle_cases - first)):
            checked += 1
            xmask = rng.randrange(len(masks))
            sup = masks[(masks & xmask) == xmask]
            vals = dt[sup]
            best = int(vals.min())
            # delta is submodular, so its minimizers are closed under
            # meets: their AND is the least one
            winners = sup[vals == best]
            oracle = (best, int(np.bitwise_and.reduce(winners)),
                      int(np.bitwise_or.reduce(winners)))
            flow = _solve(S, xmask, engine="flow")
            table = _solve(S, xmask, engine="table")
            if not (oracle == flow == table):
                bad_oracle = (S, xmask, oracle, flow, table)
                break
        if bad_oracle:
            break
    rep.check(
        "closure-oracle-agreement",
        None if bad_oracle is None else str(bad_oracle[1:]),
        note=f"{checked} seeded (structure, subset) cases up to {oracle_max_n} vertices; "
        "brute-force scan vs flow vs table",
    )
    if negative_control:
        G = graph([(0, 1), (1, 2), (0, 2)])
        dt = np.asarray(delta_table(G), dtype=np.int64).copy()
        dt[7] += 5  # injected fault: corrupted table entry
        _negative_control(rep, "corrupted-delta", _submodularity_witness(G, dt))
    return rep.finalize()


# -- axioms -------------------------------------------------------------------------


def axioms_suite(
    size_cap: int = 2,
    lemma43_cap: int = 4,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="axioms")
    sig = graph_signature(2, 1)
    approximants = [
        ("approx-12", build_generic(BuildConfig(sig, C0, 3, 6)).structure),
        ("approx-9", build_generic(BuildConfig(sig, C0, 2, 5)).structure),
    ]
    for label, S in approximants:
        sub = axiom_suite(S, size_cap=size_cap)
        for case in sub.cases:
            rep.add(f"{label}:{case.key}", case.status, case.witness, case.margin,
                    case.note or f"|S|={len(S.vertices)}")
        checked, bad = _lemma43_equivalence_exhaustive(S, size_cap=lemma43_cap)
        rep.check(
            f"{label}:characterization-equivalence",
            None if bad is None else str(bad),
            note=f"{checked} admissible d-closed triples, sets up to size {lemma43_cap}",
        )
    if negative_control:
        S = approximants[0][1]
        dt = dim_cld_tables(S)[0].copy()
        dt[0b11] = dt[0b01] - 1  # injected fault: adding a point lowers dim
        _negative_control(rep, "corrupted-dimension", _order_violation(S, dt),
                          "dim of the first two points one below the first's")
    return rep.finalize()


# -- extension property ---------------------------------------------------------------


def extension_property_suite(
    budget: int = 200,
    max_pattern: int = 3,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="extension-property")
    sig = graph_signature(2, 1)
    cfg = BuildConfig(sig, C0, max_pattern=max_pattern, budget=budget, seed=seed)
    res = build_generic(cfg)
    S = res.structure
    member = in_C0(S)
    rep.check(
        "in-class",
        None if member.holds else subset_witness(member.witness),
        note=f"{len(S.vertices)} vertices after {len(res.log.steps)} steps",
    )
    small_tasks = [t for t in res.tasks if len(t.base_ids) <= 1]
    audit = audit_extension_property(S, small_tasks)
    ratio = audit.ratio()
    rep.check(
        "audit-small-bases",
        None
        if ratio == 1.0
        else "; ".join(
            f"{e.task_key}: {e.realized}/{e.embeddings_checked}"
            for e in audit.entries
            if e.realized != e.embeddings_checked
        ),
        note=f"realization ratio {ratio:.3f} over bases of size <= 1, "
        f"cap {DEFAULT_CAP_PER_TASK} embeddings per task",
    )
    res2 = build_generic(cfg)
    same = res.log.digest() == res2.log.digest()
    rep.check(
        "replay-determinism",
        None if same else f"{res.log.digest()} != {res2.log.digest()}",
        note=f"digest {res.log.digest()[:16]}...",
    )
    empty_cfg = BuildConfig(sig, C0, max_pattern=1, budget=0, seed=seed)
    empty = build_generic(empty_cfg)
    audit0 = audit_extension_property(empty.structure, empty.tasks, cap_per_task=1)
    ratio0 = audit0.ratio()
    rep.check(
        "zero-budget-control",
        None
        if ratio0 < 1.0 or not audit0.entries
        else f"ratio {ratio0:.2f} over {len(audit0.entries)} tasks without a build step",
        note=f"zero-budget build realizes ratio {ratio0:.2f}",
    )
    if negative_control:
        # the first vertex is the first image of every one-point base, so
        # deleting its edges breaks realized copies: re-audit must drop below 1
        removed = [e for e in S.instances["R"] if S.vertices[0] in e]
        if not removed:
            raise InputError(f"the negative control deletes the edges at the first vertex, "
                             f"and the build with budget={budget}, max_pattern={max_pattern} "
                             f"has none")
        kept = [e for e in S.instances["R"] if e not in removed]
        corrupted = FiniteStructure(S.signature, S.vertices, {"R": kept})
        audit_c = audit_extension_property(corrupted, small_tasks)
        ratio_c = audit_c.ratio()
        _negative_control(rep, "removed-edges",
                          f"removed the {len(removed)} edges at vertex {S.vertices[0]}; "
                          f"ratio {ratio_c:.3f}" if ratio_c < 1.0 else None)
    return rep.finalize()


# -- kn -----------------------------------------------------------------------------


def _bip_cycle(length_half: int, ngon: int) -> FiniteStructure:
    k = length_half
    edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
    return bipartite_graph(
        edges, points=range(0, 2 * k, 2), lines_=range(1, 2 * k, 2), ngon=ngon
    )


def kn_suite(
    ngons: tuple[int, ...] = (3, 4, 5), negative_control: bool = False
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
        rep.check(
            f"n={n}:weights",
            None if weights_ok and d_checks else
            f"vertex {sig.vertex_weight}, edge {sig.relations[0].weight}",
            note=f"vertex weight {n - 1}, edge weight {n - 2}",
        )
        good = in_Kn(_bip_cycle(n, n))
        rep.check(
            f"n={n}:accepts-2n-cycle",
            None if good.holds else subset_witness(good.witness or []),
        )
        for m in range(2, n):
            bad = in_Kn(_bip_cycle(m, n))
            rep.add(
                f"n={n}:rejects-{2 * m}-cycle",
                PASS if (not bad.holds and bad.witness) else FAIL,
                witness=subset_witness(bad.witness) if bad.witness else "no witness",
                note="short cycle must be rejected with a cycle witness",
            )
        edge_m = in_Kn(edge)
        rep.check(
            f"n={n}:accepts-edge",
            None if edge_m.holds else subset_witness(edge_m.witness or []),
        )
    if negative_control:
        verdict = in_Kn(_bip_cycle(2, 3))  # fault: a 4-cycle claimed admissible
        _negative_control(rep, "4-cycle-claimed",
                          None if verdict.holds else subset_witness(verdict.witness or []))
    return rep.finalize()


_SUITES = {
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
SUITE_NAMES = tuple(_SUITES)

# (least, cap) of every integer suite option.  A cap sits where the suite,
# its other options at their defaults, still finishes in about 10 s on 2 CPUs,
# or at a library bound (oracle_max_n: the table engine's vertices); None
# where the cost levels off or a library cap bounds the structure built.
OPTION_RANGES = {
    "beatty": {"b_max": (2, BEATTY_B_MAX)},
    "gadget": {"r2_max": (2, None), "r3_max": (1, None)},
    # build_double_cycle needs 6 <= step < s/12; the suite takes about 10 s at s=2,500
    "ex512": {"s": (73, 2_500), "step": (6, None), "samples": (0, SAMPLES_CAP)},
    "msa-bound": {"trials": (1, 10_000)},
    "submodularity": {"max_n": (0, None), "oracle_cases": (0, 100_000),
                      "oracle_max_n": (2, TABLE_MAX_BITS)},
    "axioms": {"size_cap": (0, None), "lemma43_cap": (0, None)},
    "extension-property": {"budget": (0, None), "max_pattern": (0, None)},
}
