"""Named verification suites with deterministic, machine-checkable reports.

Each suite exercises one family of claims end to end and reports one case
per checked instance.  ``--negative-control`` runs the same machinery on a
deliberately corrupted input; the resulting FAIL (with a replayable witness)
shows the check can actually catch the fault it is aimed at.
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
    BuildConfig,
    _isomorph_free_types,
    audit_extension_property,
    build_generic,
)
from .classes import SAMPLES_CAP, ControlFunction, girth_with_witness, in_C0, in_Cf, in_Kn
from .closures import (
    cld,
    delta_table,
    dim,
    is_d_closed,
    popcounts,
    self_sufficient,
    TABLE_MAX_BITS,
    _over_subsets,
    _solve,
)
from .errors import CapacityError, InputError
from .extensions import enumerate_msa_pairs, MsaType
from .independence import _lemma43_equivalence_exhaustive, axiom_suite, perp
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
    """Dispatch a named suite; reports are deterministic for fixed seeds."""
    fn = _SUITES.get(name)
    if fn is None:
        raise InputError(f"unknown suite {name!r}; known: {', '.join(SUITE_NAMES)}")
    params = {k: p.default for k, p in inspect.signature(fn).parameters.items()
              if k not in ("seed", "negative_control")}
    for key, value in options.items():
        if key not in params:
            raise InputError(f"suite {name!r} has no option {key!r}; "
                             f"known: {', '.join(params) or 'none'}")
        if isinstance(value, int) != isinstance(params[key], int):
            raise InputError(f"option {key!r} of suite {name!r} takes "
                             f"{type(params[key]).__name__} values, got {value!r}")
    t0 = time.monotonic()
    rep = fn(seed=seed, negative_control=negative_control, **options)
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

BEATTY_B_MAX = 800  # one (2b + 1) x 3b int64 window array stays under 32 MiB


def _beatty_window_checks(seq, ell: int, b: int) -> str | None:
    """Periodicity, full-window sums and the density bound; None when clean.

    Each check is one array pass over the entries i = -b .. 4b (stored at
    i + b).  The witness is the first in loop order: the period, then per
    start i the window sum before the density bound at s = 1 .. 3b.
    """
    vals = np.array([seq.value(i) for i in range(-b, 4 * b + 1)], dtype=np.int64)
    broken = np.flatnonzero(vals[: 4 * b] != vals[b : 5 * b])
    if broken.size:
        return f"period broken at i={int(broken[0]) - b}"
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


def beatty_suite(b_max: int = 40, seed: int = 0, negative_control: bool = False) -> VerificationReport:
    if b_max < 2:
        raise InputError(f"b_max must be at least 2, got {b_max}")
    if b_max > BEATTY_B_MAX:
        raise CapacityError("beatty b_max", BEATTY_B_MAX, b_max)
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
    r2_max: int = 10, r3_max: int = 6, seed: int = 0, negative_control: bool = False
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
        rep.check(key, "; ".join(problems) or None,
                  note=f"|E|={len(E.vertices)}, delta(E)={d_e}")

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


def path_fact_suite(seed: int = 0, negative_control: bool = False) -> VerificationReport:
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
    r_values: tuple[int, ...] = (3, 4),
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    for r in r_values:  # the +deep variant pads an instance with r - 2 of its 2 base points
        if not 3 <= r <= 4:
            raise InputError(f"ex511 builds r from 3 to 4 only, got r = {r}")
    rep = VerificationReport(suite="ex511")
    f = ControlFunction.half_harmonic(1)
    f.validate(40)
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
    if samples < 0:
        raise InputError(f"samples must be nonnegative, got {samples}")
    if samples > SAMPLES_CAP:
        raise CapacityError("ex512 samples", SAMPLES_CAP, samples)
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
    if trials < 0:
        raise InputError(f"trials must be nonnegative, got {trials}")
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


# bytes of one bool (subset, subset, graph) array in a chunk of the
# per-graph passes: 64 graphs at 7 vertices
_CHUNK_BYTES = 1 << 20


def _strong_subsets(dts: np.ndarray, n: int) -> np.ndarray:
    """SS[b, a, g]: a <= b in graph g, whose delta table is ``dts[:, g]``;
    a is inside b and no set between them has smaller delta.

    ``low[y, a, g]`` marks the y containing a with delta below delta(a); a
    is strong in b exactly when no y inside b is marked.
    """
    masks = np.arange(1 << n)
    inside = ((masks[:, None] & masks) == masks)[:, :, None]  # [b, a, 1]
    low = inside & (dts[:, None, :] < dts)
    _over_subsets(low, np.bitwise_or)
    return inside & ~low


def _restriction_rows(SS: np.ndarray) -> np.ndarray:
    """[a, g]: some b with ``SS[b, a, g]`` holds an x with not ``SS[x, a & x, g]``.

    ``SS[x, a & x, g]`` does not depend on b, so a fails exactly when some x
    in the down-closure of {b : SS[b, a, g]} fails it; that down-closure is
    one OR pass over the subsets.
    """
    masks = np.arange(len(SS))
    restricts = SS[masks[:, None], masks[:, None] & masks]  # [x, a, g]
    below = SS.copy()
    _over_subsets(below, np.bitwise_or, up=False)
    return (below & ~restricts).any(axis=0)


def _restriction_witness(SS: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, x), in that order, with ``SS[a, b]``, x inside b and not
    ``SS[a & x, x]``; ``SS[a, b]`` says a <= b, over all masks below len(SS)."""
    rows = np.flatnonzero(_restriction_rows(SS.T[:, :, None])[:, 0])
    if not len(rows):
        return None
    a = int(rows[0])
    masks = np.arange(len(SS))
    inside = (masks[:, None] & masks) == masks  # [b, x]: x inside b
    b, x = np.argwhere(SS[a][:, None] & inside & ~SS[a & masks, masks])[0]
    return a, int(b), int(x)


def _subset_chains(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every chain of masks below 2**n with a inside b inside c, as three
    index arrays sorted by (a, c).  Chain t puts bit i outside c, in c only,
    in b only or in a, as base-4 digit i of t is 0, 1, 2 or 3: 4**n chains
    in all."""
    t = np.arange(4 ** n, dtype=np.int64)
    a, b, c = (np.zeros_like(t) for _ in range(3))
    for i in range(n):
        digit = t >> 2 * i & 3
        a |= (digit == 3) << i
        b |= (digit >= 2) << i
        c |= (digit >= 1) << i
    order = np.lexsort((c, a))
    return a[order], b[order], c[order]


def _crossing_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of masks below 2**n with neither inside the other:
    for the rest, submodularity is an equation."""
    i, j = np.nonzero(np.triu(np.ones((1 << n, 1 << n), dtype=bool), 1))
    keep = (i & ~j != 0) & (j & ~i != 0)
    return i[keep], j[keep]


def _exhaustive_checks(dts: np.ndarray, n: int, pairs: tuple, chains: tuple):
    """Submodularity, restriction and transitivity over the delta tables of
    n-vertex graphs, one per column of ``dts``, shape (2**n, graphs), given
    n's :func:`_crossing_pairs` and :func:`_subset_chains`.

    Returns the per-graph failure flags of the three checks, shape
    (3, graphs), and the strong-subset relation of :func:`_strong_subsets`.
    Submodularity reads the crossing pairs only, being symmetric and an
    equation on the others.  ``SS[a, b]`` implies a inside b, so a product
    ``SS[a, b] & SS[b, c]`` can only be true along a chain a inside b inside
    c: transitivity reads those 4**n triples, not a (2**n)**3 matrix product.
    Every array keeps the graphs on its last axis, so each gather and each
    pass over the subsets moves whole rows of graphs.
    """
    i, j = pairs
    sub = dts[i | j] + dts[i & j] > dts[i] + dts[j]
    SS = _strong_subsets(dts, n)
    a, b, c = chains
    trans = SS[b, a] & SS[c, b] & ~SS[c, a]
    fails = np.stack([sub.any(axis=0), _restriction_rows(SS).any(axis=0), trans.any(axis=0)])
    return fails, SS


def _first_exhaustive_failure(graphs: list) -> tuple:
    """(sub_bad, res_bad, tr_bad) of the first graph that fails a check, in
    the order of ``graphs`` and then of the three checks, and None for the
    others; all three None when every graph passes.

    Runs of graphs with one vertex count are checked in chunks of at most
    :data:`_CHUNK_BYTES` per relation array.  A failing graph's witness is
    the first failing pair, triple or chain in mask order.
    """
    for n, run in itertools.groupby(graphs, key=lambda G: len(G.vertices)):
        run = list(run)
        per = max(1, _CHUNK_BYTES >> 2 * n)
        pairs, chains = _crossing_pairs(n), _subset_chains(n)
        for start in range(0, len(run), per):
            chunk = run[start:start + per]
            dts = np.stack([delta_table(G) for G in chunk], axis=1)
            fails, SS = _exhaustive_checks(dts, n, pairs, chains)
            bad = np.flatnonzero(fails.any(axis=0))
            if not len(bad):
                continue
            g = bad[0]
            G, dt, ss = chunk[g], dts[:, g], SS[:, :, g].T
            if fails[0, g]:
                m = np.arange(1 << n)
                i, j = np.argwhere(dt[m[:, None] | m] > dt[:, None] + dt - dt[m[:, None] & m])[0]
                return (G, int(i), int(j)), None, None
            if fails[1, g]:
                return None, (G, *_restriction_witness(ss)), None
            a, b, c = chains
            t = np.argmax(ss[a, b] & ss[b, c] & ~ss[a, c])
            return None, None, (G, int(a[t]), int(c[t]))
    return None, None, None


def submodularity_suite(
    max_n: int = 7,
    oracle_cases: int = 10_000,
    oracle_max_n: int = 14,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    rep = VerificationReport(suite="submodularity")
    if max_n < 0:
        raise InputError(f"max_n must be nonnegative, got {max_n}")
    if oracle_cases < 0:
        raise InputError(f"oracle_cases must be nonnegative, got {oracle_cases}")
    if not 2 <= oracle_max_n <= TABLE_MAX_BITS:
        raise InputError(f"oracle_max_n must be between 2 and {TABLE_MAX_BITS}, "
                         f"got {oracle_max_n}")
    graphs = _isomorph_free_types(graph_signature(2, 1), max_n, lambda G: True)
    sub_bad, res_bad, tr_bad = _first_exhaustive_failure(graphs)
    rep.check(
        "submodularity-exhaustive",
        None if sub_bad is None else f"A={sub_bad[1]:b} B={sub_bad[2]:b} in {sub_bad[0]}",
        note=f"{len(graphs)} graph types up to {max_n} vertices, all subset pairs",
    )
    rep.check(
        "restriction-exhaustive",
        None if res_bad is None else str(res_bad[1:]),
        note="strong subsets restrict to every subset of their ambient",
    )
    rep.check(
        "transitivity-exhaustive",
        None if tr_bad is None else str(tr_bad[1:]),
    )

    rng = random.Random(seed)
    tables = {}  # n -> (masks, popcounts), built once per n
    bad_oracle = None
    checked = 0
    # batches of 25 cases per structure, the remainder in the last one
    for first in range(0, oracle_cases, 25):
        n = rng.randint(2, oracle_max_n)
        pool = list(itertools.combinations(range(n), 2))
        edges = rng.sample(pool, rng.randint(0, len(pool)))
        S = graph(edges, vertices=range(n))
        dt = np.asarray(delta_table(S), dtype=np.int64)
        sz = 1 << n
        if n not in tables:
            tables[n] = (np.arange(sz, dtype=np.int64), popcounts(n))
        mk, pc = tables[n]
        for _ in range(min(25, oracle_cases - first)):
            checked += 1
            xmask = rng.randrange(sz)
            sup = (mk & xmask) == xmask
            vals = dt[sup]
            cands = mk[sup]
            best = int(vals.min())
            winners = cands[vals == best]
            order = np.lexsort((winners, pc[winners]))
            oracle = (best, int(winners[order[0]]), int(np.bitwise_or.reduce(winners)))
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
        bad = _exhaustive_checks(dt[:, None], 3, _crossing_pairs(3), _subset_chains(3))[0][0, 0]
        _negative_control(rep, "corrupted-delta",
                          "submodularity violated by corrupted entry" if bad else None)
    return rep.finalize()


# -- axioms -------------------------------------------------------------------------


def axioms_suite(
    size_cap: int = 2,
    lemma43_cap: int = 4,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    for key, cap in (("size_cap", size_cap), ("lemma43_cap", lemma43_cap)):
        if cap < 0:
            raise InputError(f"{key} must be nonnegative, got {cap}")
    rep = VerificationReport(suite="axioms")
    sig = graph_signature(2, 1)
    approximants = [
        ("approx-12", build_generic(BuildConfig(sig, C0, 3, 6, seed=seed)).structure),
        ("approx-9", build_generic(BuildConfig(sig, C0, 2, 5, seed=seed)).structure),
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
        # claim symmetry on an asymmetric relation: swap one side's dimension
        S = approximants[0][1]
        a, b, c = [S.vertices[0]], [S.vertices[1]], [S.vertices[2]]
        lhs = dim(S, set(a) | set(b) | set(c)) + dim(S, b)
        rhs = dim(S, set(a) | set(b)) + dim(S, set(b) | set(c))
        corrupted_lhs = lhs + 1  # injected fault
        _negative_control(rep, "corrupted-dimension",
                          f"corrupted dim sum {corrupted_lhs} vs true {lhs}"
                          if (corrupted_lhs == rhs) != (lhs == rhs) else None)
    return rep.finalize()


# -- extension property ---------------------------------------------------------------


def extension_property_suite(
    budget: int = 200,
    max_pattern: int = 3,
    cap_per_task: int = 4,
    seed: int = 0,
    negative_control: bool = False,
) -> VerificationReport:
    if cap_per_task < 1:
        raise InputError(f"cap_per_task must be at least 1, got {cap_per_task}")
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
    audit = audit_extension_property(S, small_tasks, cap_per_task=cap_per_task)
    ratio = audit.ratio(max_base=1)
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
        f"cap {cap_per_task} embeddings per task",
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
        audit_c = audit_extension_property(corrupted, small_tasks, cap_per_task=cap_per_task)
        ratio_c = audit_c.ratio(max_base=1)
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
        rep.check(
            f"n={n}:weights",
            None if weights_ok and d_checks else
            f"vertex {sig.vertex_weight}, edge {sig.relations[0].weight}",
            note=f"vertex weight {n - 1}, edge weight {n - 2}",
        )
        good = in_Kn(_bip_cycle(n, n), n)
        rep.check(
            f"n={n}:accepts-2n-cycle",
            None if good.holds else subset_witness(good.witness or []),
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
        rep.check(
            f"n={n}:accepts-edge",
            None if edge_m.holds else subset_witness(edge_m.witness or []),
        )
    if negative_control:
        verdict = in_Kn(_bip_cycle(2, 3), 3)  # fault: a 4-cycle claimed admissible
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
