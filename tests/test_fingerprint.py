"""Behavioural fingerprint: the seed-0 machine reports must stay byte-identical.

The expected digests live in ``perfbench/fingerprint.json``, which the
benchmark also checks; this test only reads that file.  Every suite runs at
the options the benchmark fingerprints it with.
"""

import json
from pathlib import Path

import pytest

from predimlab import run_suite

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
