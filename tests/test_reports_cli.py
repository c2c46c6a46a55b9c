import json
import subprocess
import sys
from fractions import Fraction

import pytest

from predimlab import InputError, VerificationReport, emit_report, run_suite
from predimlab.cli import main
from predimlab.reports import FAIL, PASS, CaseResult
from predimlab.structures import dump_structure, graph, load_structure


def test_fail_requires_witness():
    with pytest.raises(InputError):
        CaseResult("k", FAIL)


def test_empty_suite_report():
    rep = VerificationReport(suite="empty").finalize()
    assert rep.ok
    assert "0 cases" in emit_report(rep, "text")
    machine = json.loads(emit_report(rep, "machine"))
    assert machine["cases"] == [] and machine["summary"]["FAIL"] == 0


def test_delta_rejects_unknown_vertex():
    from predimlab import delta

    with pytest.raises(InputError):
        delta(graph([(0, 1)]), [0, 9])


def test_report_ordering_and_duplicates():
    rep = VerificationReport(suite="t")
    rep.add("b", PASS)
    rep.add("a", PASS)
    rep.finalize()
    assert [c.key for c in rep.cases] == ["a", "b"]
    rep.add("a", PASS)
    with pytest.raises(InputError):
        rep.finalize()


def test_text_and_machine_share_case_data():
    rep = VerificationReport(suite="t", seed=5)
    rep.add("x", PASS, margin=Fraction(1, 3))
    rep.add("y", FAIL, witness="{1,2}")
    rep.finalize()
    rep.wall_time = 1.23
    text = emit_report(rep, "text")
    machine = json.loads(emit_report(rep, "machine"))
    assert "1/3" in text and "{1,2}" in text
    assert machine["schema"] == "predimlab-report/1"
    assert {c["key"] for c in machine["cases"]} == {"x", "y"}
    assert machine["cases"][1]["witness"] == "{1,2}"
    assert "wall_time" not in machine  # stable payload excludes timing
    assert machine["digest"] == rep.digest()


def test_machine_report_byte_identical_across_runs():
    a = run_suite("path-fact", seed=1)
    b = run_suite("path-fact", seed=1)
    a.wall_time, b.wall_time = 0.1, 99.9  # timing must not leak into machine output
    assert emit_report(a, "machine") == emit_report(b, "machine")


def test_suite_digest_determinism_with_sampling():
    a = run_suite("msa-bound", seed=4, trials=6)
    b = run_suite("msa-bound", seed=4, trials=6)
    assert a.digest() == b.digest()


def test_cli_exit_codes(tmp_path):
    # 0: clean suite
    assert main(["verify", "path-fact"]) == 0
    # 1: a suite with an injected fault reports FAIL
    assert main(["verify", "path-fact", "--negative-control"]) == 1
    # 2: usage errors
    assert main(["verify", "nosuchsuite"]) == 2
    assert main(["delta", str(tmp_path / "missing.pdl"), "--set", "1"]) == 2


VALID_HEADER = "predimlab/1\nsignature n=2 mode=hypergraph\n"


@pytest.mark.parametrize(
    "text,env",
    [
        (VALID_HEADER + "relation\nvertices 0\n", None),
        (VALID_HEADER + "relation R weight=1\nvertices 0\n", None),
        ("predimlab/1\nsignature n=x\nrelation R arity=2 weight=1\nvertices 0\n", None),
        (VALID_HEADER + "relation R arity=2 weight=1\nvertices 0\npart 0\n", None),
        (VALID_HEADER + "relation R arity=2 weight=1\nvertices 0\n", "abc"),
        (VALID_HEADER + "relation R arity=2 weight=1\nvertices 0\n", "-1"),
        (VALID_HEADER + "relation R arity=2 weight=1\nvertices 0\n", "21"),
    ],
    ids=["relation-no-name", "relation-no-arity", "signature-n", "part-one-field",
         "table-cutoff-abc", "table-cutoff-negative", "table-cutoff-above-max"],
)
def test_cli_malformed_input_exits_2(tmp_path, monkeypatch, capsys, text, env):
    f = tmp_path / "bad.pdl"
    f.write_text(text)
    if env is not None:
        monkeypatch.setenv("PREDIMLAB_TABLE_CUTOFF", env)
    else:
        with pytest.raises(InputError, match="line "):
            load_structure(text)
    assert main(["closure", str(f), "--set", "0"]) == 2
    assert "error:" in capsys.readouterr().err


def test_cli_structure_workflow(tmp_path):
    f = tmp_path / "s.pdl"
    f.write_text(dump_structure(graph([(0, 1), (1, 2)])))
    assert main(["delta", str(f), "--set", "0,1,2"]) == 0
    assert main(["closure", str(f), "--set", "0,2", "--kind", "cld"]) == 0
    assert main(["check", str(f), "--class", "c0"]) == 0
    assert main(["check", str(f), "--class", "cf", "--f", "harmonic"]) == 0
    assert main(["indep", str(f), "--a", "0", "--b", "1", "--c", "2"]) == 0
    assert main(["axioms", str(f), "--cap", "2"]) == 0


def test_cli_gadget_and_mult(tmp_path):
    out = tmp_path / "g.pdl"
    assert main(["gadget", "--n", "2", "--m", "1", "--out", str(out), "--verify"]) == 0
    text = out.read_text()
    assert text.startswith("predimlab/1")
    assert "base" in text
    amb = tmp_path / "amb.pdl"
    amb.write_text(dump_structure(graph([(2, 0), (2, 1), (3, 0), (3, 1)])))
    typef = tmp_path / "type.pdl"
    typef.write_text(
        dump_structure(graph([(2, 0), (2, 1)]), base_ids=[0, 1])
    )
    assert main(["mult", str(amb), "--over", "0,1", "--type", str(typef)]) == 0


def test_cli_build_and_audit(tmp_path):
    out = tmp_path / "b.pdl"
    assert main([
        "build", "--class", "c0", "--n", "2", "--m", "1",
        "--max-pattern", "2", "--budget", "12", "--seed", "1", "--out", str(out),
    ]) == 0
    log = json.loads((tmp_path / "b.pdl.log.json").read_text())
    assert log["steps"] and log["digest"]
    assert main([
        "audit", str(out), "--class", "c0", "--max-pattern", "2", "--max-base", "1",
    ]) == 0


def test_cli_verify_machine_out(tmp_path):
    out = tmp_path / "rep.json"
    assert main([
        "verify", "kn", "--report", "machine", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "kn"
    assert data["summary"]["FAIL"] == 0


def test_console_script_end_to_end():
    proc = subprocess.run(
        [sys.executable, "-m", "predimlab.cli", "verify", "path-fact"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "summary" in proc.stdout


def test_fail_witness_replayable():
    # any FAIL emitted by the kn negative control carries the violating cycle,
    # and feeding that subset back through the checker reproduces the failure
    rep = run_suite("kn", negative_control=True)
    fails = rep.failures()
    assert fails
    witness = fails[0].witness
    ids = {int(tok) for tok in witness.strip("{}").split(",")}
    from predimlab.structures import bipartite_graph
    from predimlab import in_Kn

    square = bipartite_graph(
        [(i, (i + 1) % 4) for i in range(4)], points=[0, 2], lines_=[1, 3], ngon=3
    )
    again = in_Kn(square, 3)
    assert not again.holds and again.witness == frozenset(ids)
