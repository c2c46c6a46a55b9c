"""Negative-control fingerprint: with an injected fault, every suite's seed-0
machine report (its FAIL witnesses included) must stay byte-identical, and
the faults must be what fails.

The options are ``conftest.LIGHT``, shared with the negative-control
acceptance test.
"""

import json

import pytest

from predimlab import run_suite
from predimlab.cli import main

from conftest import LIGHT

DIGESTS = {
    "beatty": "d66ba576f108003037916e1285efcd9859f88b56af04a582044e035b8f79c09f",
    "gadget": "eeebe3ecb3655a8d87bc7d176c3e259f6edbc9a4324463e83a6048f41657c888",
    "lemma49": "a46e95503ee0bcff6427d22e5653525bcf6041c437dc1c8fcf8a0b17ce871af7",
    "path-fact": "0c8a746b802b9e0c8fb578514450a9ea0a3ef782dae100b3791670830dcf3b54",
    "ex511": "e12d8eed9968750e2015ae72b2e75d1ddeeb033727bb5c0c76e84186bf3b19a8",
    "ex512": "47b31638f6b242242750a253b8834638cd86557b3a61361c89d4e5779cca324f",
    "msa-bound": "aa934e2abde6a9b586f69e9cd96b299e3c5ea1db13eb18209d41e2c44dbf8f9b",
    "submodularity": "7dd38be12611e86e5a53b6ad7bf5e2e628b063d6fec959657e5f45006a5be3c4",
    "axioms": "8f6c4c0f52607252f476e808166f756ad09f19d722383873401ca3435d369172",
    "extension-property": "5d966972570ac0d0e0c4d4653feb715c8b4e26f5eb325e437ce51741fb094de6",
    "kn": "4d3046d5a505e8593c586a767bf38771b3e105b11ebaff795b0490cd601488ea",
}


def _assert_teeth(cases):
    """Every ``negative-control:*`` case FAILs, and no other case does."""
    controls = {key for key, _ in cases if key.startswith("negative-control:")}
    assert controls
    assert {key for key, status in cases if status == "FAIL"} == controls


@pytest.mark.parametrize("name", LIGHT)
def test_seed0_negative_control_digest(name):
    rep = run_suite(name, seed=0, negative_control=True, **LIGHT[name])
    _assert_teeth([(c.key, c.status) for c in rep.cases])
    assert rep.digest() == DIGESTS[name]


def test_extension_property_negative_control_at_defaults(capsys):
    assert main(["verify", "extension-property", "--negative-control",
                 "--report", "machine"]) == 1
    cases = json.loads(capsys.readouterr().out)["cases"]
    _assert_teeth([(c["key"], c["status"]) for c in cases])
