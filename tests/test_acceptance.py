"""Acceptance gate: every exit criterion at its stated tolerance and budget.

Each test prints one pass/fail line (live, bypassing capture) and enforces
the stated wall-clock limit.  Tolerances are exact throughout: all the
checked quantities are integers or exact rationals.
"""

import time

from predimlab import run_suite
from predimlab.cli import main
from predimlab.reports import DEGENERATE, FAIL, PARTIAL, PASS

from conftest import LIGHT


def _gate(capsys, number, name, limit_s, rep, extra_ok=True, notes=""):
    elapsed = rep.wall_time if rep.wall_time is not None else 0.0
    ok = rep.ok and extra_ok
    with capsys.disabled():
        print(
            f"\nACCEPTANCE {number:02d} {name}: {'PASS' if ok else 'FAIL'} "
            f"({elapsed:.1f}s / limit {limit_s}s){' - ' + notes if notes else ''}"
        )
    assert ok, "\n".join(f"{c.key}: {c.witness}" for c in rep.failures())
    assert elapsed < limit_s, f"runtime {elapsed:.1f}s exceeds {limit_s}s"
    return rep


def test_accept_01_beatty(capsys):
    rep = run_suite("beatty", b_max=40)
    counts = rep.counts()
    _gate(capsys, 1, "balanced sequences, all 0<l<b<=40", 10, rep,
          extra_ok=counts[PASS] == 780, notes=f"{counts[PASS]} pairs exact")


def test_accept_02_gadget(capsys):
    rep = run_suite("gadget", r2_max=10, r3_max=6)
    counts = rep.counts()
    # every non-degenerate coprime pair passes all three clauses exhaustively;
    # degenerate parameters are reported, never silently passed
    _gate(capsys, 2, "gadget clauses over the coprime grid", 300, rep,
          extra_ok=counts[PASS] > 0 and counts[DEGENERATE] > 0,
          notes=f"{counts[PASS]} clause checks, {counts[DEGENERATE]} degenerate-tagged")


def test_accept_03_path_fact(capsys):
    rep = run_suite("path-fact")
    by_key = {c.key: c for c in rep.cases}
    schedule_ok = all(
        by_key[f"endpoints-closed:l={l}"].status == PASS for l in range(2, 9)
    ) and by_key["endpoints-closed:l=1"].status == DEGENERATE
    _gate(capsys, 3, "endpoint pair d-closed exactly from length 3", 1, rep,
          extra_ok=schedule_ok)


def test_accept_04_fan_join(capsys):
    rep = run_suite("ex511", r_values=(3, 4))
    arities = {c.key.split(":")[0] for c in rep.cases if c.key.startswith("r=")}
    base_sizes = {c.key.split("|A|=")[1][0] for c in rep.cases if "|A|=" in c.key}
    _gate(capsys, 4, "fan join: membership and closure claims", 60, rep,
          extra_ok=arities == {"r=3", "r=4"} and base_sizes == {"1", "2", "3"},
          notes=f"{len(rep.cases)} instances, exact rational bounds")


def test_accept_05_double_cycle(capsys):
    rep = run_suite("ex512", s=73, step=6, samples=1000)
    by_key = {c.key: c for c in rep.cases}
    partial_documented = (
        by_key["class-membership"].status == PARTIAL
        and "not a certificate" in by_key["class-membership"].note
    )
    _gate(capsys, 5, "double cycle at s=73: margins and closures", 300, rep,
          extra_ok=partial_documented,
          notes="1000 seeded d-closed samples, class membership PARTIAL as documented")


def test_accept_06_msa_bound(capsys):
    rep = run_suite("msa-bound", trials=200, seed=0)
    counts = rep.counts()
    both_signatures = any("2-ary" in c.key for c in rep.cases) and any(
        "3-ary" in c.key for c in rep.cases
    )
    _gate(capsys, 6, "straddling copies bounded by base predimension", 120, rep,
          extra_ok=counts[PASS] == 200 and both_signatures,
          notes="200 seeded free amalgams, both signatures")


def test_accept_07_submodularity_oracles(capsys):
    rep = run_suite("submodularity", max_n=7, oracle_cases=10_000, oracle_max_n=14)
    _gate(capsys, 7, "predimension laws exhaustive, closure oracle agreement", 300, rep,
          notes="all graphs to 7 vertices; 10000 seeded oracle cases to 14 vertices")


def test_accept_08_independence_axioms(capsys):
    rep = run_suite("axioms", size_cap=2, lemma43_cap=4)
    no_partial = rep.counts()[PARTIAL] == 0
    _gate(capsys, 8, "independence axioms and characterization equivalence", 300, rep,
          extra_ok=no_partial,
          notes="built approximants <= 12 vertices, exhaustive within caps")


def test_accept_09_builder_audit(capsys):
    rep = run_suite("extension-property", budget=200, max_pattern=3)
    _gate(capsys, 9, "budget-200 chain build and audit", 120, rep,
          notes="chain steps asserted, audit 100% on small bases, byte-identical replays")


def test_accept_10_kn(capsys):
    rep = run_suite("kn", ngons=(3, 4, 5))
    _gate(capsys, 10, "polygon class acceptance/rejection schedule", 1, rep,
          notes="2n-cycles accepted, shorter rejected with cycle witnesses")


def test_accept_11_negative_controls(capsys):
    """Every suite catches an injected fault and exit codes hold end to end."""
    t0 = time.monotonic()
    problems = []
    for suite, opts in LIGHT.items():
        rep = run_suite(suite, negative_control=True, **opts)
        fails = rep.failures()
        if not fails:
            problems.append(f"{suite}: injected fault went undetected")
            continue
        if not all(c.witness for c in fails):
            problems.append(f"{suite}: FAIL case without witness")
    # exit-code contract, end to end through the CLI entry point
    if main(["verify", "kn"]) != 0:
        problems.append("clean suite should exit 0")
    if main(["verify", "kn", "--negative-control"]) != 1:
        problems.append("faulted suite should exit 1")
    if main(["verify", "does-not-exist"]) != 2:
        problems.append("unknown suite should exit 2")
    elapsed = time.monotonic() - t0
    ok = not problems
    with capsys.disabled():
        print(f"\nACCEPTANCE 11 negative controls and exit codes: "
              f"{'PASS' if ok else 'FAIL'} ({elapsed:.1f}s)")
    assert ok, problems
