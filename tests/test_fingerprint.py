"""Behavioural fingerprint: the seed-0 machine reports and build logs must
stay byte-identical.

The expected digests live in ``perfbench/fingerprint.json``, which the
benchmark also checks; this test only reads that file.  Every suite runs at
the options the benchmark fingerprints it with, and every build is a
``predimlab build`` call with the benchmark's arguments.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from predimlab import run_suite
from predimlab.cli import main

FINGERPRINT = Path(__file__).resolve().parents[1] / "perfbench" / "fingerprint.json"

CASES = [
    ("beatty", {}),
    ("gadget", {}),
    ("lemma49", {}),
    ("path-fact", {}),
    ("ex511", {}),
    ("ex512", {}),
    ("kn", {}),
    ("msa-bound", {}),
    ("extension-property", {}),
    ("axioms", {"size_cap": 2, "lemma43_cap": 3}),
    ("submodularity", {"max_n": 6, "oracle_cases": 10_000, "oracle_max_n": 14}),
]


@pytest.fixture(scope="module")
def fingerprint():
    return json.loads(FINGERPRINT.read_text())["verify-suites"]


@pytest.mark.parametrize("name,options", CASES, ids=[c[0] for c in CASES])
def test_seed0_report_digest(fingerprint, name, options):
    assert run_suite(name, seed=0, **options).digest() == fingerprint[name]


BUILDS = [
    ("c0-mp3-b200", ["--class", "c0", "--max-pattern", "3", "--budget", "200"]),
    ("cf-harmonic-b50", ["--class", "cf", "--f", "harmonic", "--max-pattern", "3",
                         "--budget", "50"]),
    ("c0-mp4-b40", ["--class", "c0", "--max-pattern", "4", "--budget", "40"]),
]


@pytest.mark.parametrize("name,args", BUILDS, ids=[b[0] for b in BUILDS])
def test_seed0_build_log_digest(tmp_path, name, args):
    want = json.loads(FINGERPRINT.read_text())["build-audit"][name]
    out, log = tmp_path / "out.pdl", tmp_path / "log.json"
    with contextlib.redirect_stdout(io.StringIO()):
        rc = main(["build", *args, "--seed", "0", "--out", str(out), "--log-out", str(log)])
    assert rc == 0
    assert json.loads(log.read_text())["digest"] == want
