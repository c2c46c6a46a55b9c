"""Behavioural fingerprint: the seed-0 machine reports and build logs must
stay byte-identical.

The expected digests live in ``perfbench/fingerprint.json``, which the
benchmark also checks; this test only reads that file.  Every suite runs at
the options the benchmark fingerprints it with, and every build is a
``predimlab build`` call with the benchmark's arguments, followed by a
``predimlab audit`` call with the benchmark's audit arguments and exit code.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from predimlab import audit_extension_property, builder, enumerate_class, load_structure, run_suite
from predimlab.builder import enumerate_tasks
from predimlab.cli import main

from conftest import brute_realized, perfbench_workloads

FINGERPRINT = Path(__file__).resolve().parents[1] / "perfbench" / "fingerprint.json"

_WORKLOADS = perfbench_workloads()
SUITE_OPTIONS = _WORKLOADS.SUITE_OPTIONS["full"]
# name: (build arguments, audit arguments, audit exit code)
BUILDS = {name: (build, audit, rc) for name, build, audit, rc in _WORKLOADS.BUILDS["full"]}


@pytest.fixture(scope="module")
def fingerprint():
    return json.loads(FINGERPRINT.read_text())["verify-suites"]


@pytest.mark.parametrize("name", SUITE_OPTIONS)
def test_seed0_report_digest(fingerprint, name):
    assert run_suite(name, seed=0, **SUITE_OPTIONS[name]).digest() == fingerprint[name]


@pytest.fixture(scope="module")
def seed0_build(tmp_path_factory):
    """Runs each seed-0 build once: name -> (exit code, log file, structure file)."""
    done = {}

    def build(name):
        if name not in done:
            work = tmp_path_factory.mktemp(name)
            out, log = work / "out.pdl", work / "log.json"
            with contextlib.redirect_stdout(io.StringIO()):
                rc = main(["build", *BUILDS[name][0], "--seed", "0", "--out", str(out),
                           "--log-out", str(log)])
            done[name] = rc, log, out
        return done[name]

    return build


@pytest.mark.parametrize("name", BUILDS)
def test_seed0_build_log_digest(seed0_build, name):
    want = json.loads(FINGERPRINT.read_text())["build-audit"][name]
    rc, log, _ = seed0_build(name)
    assert rc == 0
    assert json.loads(log.read_text())["digest"] == want


@pytest.mark.parametrize("name", BUILDS)
def test_seed0_audit_exit_code(seed0_build, name):
    _, _, out = seed0_build(name)
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["audit", str(out), *BUILDS[name][1]])
    assert rc == BUILDS[name][2]


def test_seed0_audit_matches_the_uncut_search(seed0_build, monkeypatch):
    """The audit of the max-pattern-4 approximant (the one that fails) gives
    the same entries when every extension search runs without the prefix cut."""
    _, _, out = seed0_build("c0-mp4-b40")
    S, _ = load_structure(out.read_text())
    tasks = [t for t in enumerate_tasks(enumerate_class(S.signature, "c0", 4), "c0")[0]
             if len(t.base_ids) <= 1]
    got = audit_extension_property(S, tasks).entries
    assert any(e.realized < e.embeddings_checked for e in got)
    monkeypatch.setattr(builder, "_realized",
                        lambda S, task, base_phi, memo: brute_realized(S, task, base_phi))
    assert audit_extension_property(S, tasks).entries == got
