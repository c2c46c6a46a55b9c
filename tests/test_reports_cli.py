import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from predimlab import InputError, VerificationReport, builder, emit_report, run_suite, suites
from predimlab.cli import main
from predimlab.reports import FAIL, PASS, CaseResult
from predimlab.structures import bipartite_graph, dump_structure, graph, load_structure


def test_fail_requires_witness():
    with pytest.raises(InputError):
        CaseResult("k", FAIL)


def test_check_derives_status_from_witness():
    rep = VerificationReport(suite="t")
    rep.check("clean", None, margin=Fraction(3, 2), note="n")
    rep.check("broken", "w", margin=Fraction(-1), note="m")
    clean, broken = rep.cases
    assert clean == CaseResult("clean", PASS, None, Fraction(3, 2), "n")
    assert broken == CaseResult("broken", FAIL, "w", Fraction(-1), "m")


def test_missed_negative_control_is_a_pass_without_witness(monkeypatch, capsys):
    # a window check that sees nothing misses the flipped period entry
    monkeypatch.setattr(suites, "_beatty_window_checks", lambda seq, ell, b: None)
    rep = run_suite("beatty", b_max=6, negative_control=True)
    case = next(c for c in rep.cases if c.key == "negative-control:l=02,b=05")
    assert (case.status, case.witness) == (PASS, None)
    assert case.note == "flipped period entry 2; a FAIL here is the expected outcome"
    assert main(["verify", "beatty", "--negative-control", "--option", "b_max=6"]) == 0


def test_failing_zero_budget_control_carries_a_witness(monkeypatch, capsys):
    # a build that realizes everything without a single step breaks the control
    monkeypatch.setattr(builder.AuditReport, "ratio", lambda self, max_base=None: 1.0)
    rep = run_suite("extension-property", budget=25)
    case = next(c for c in rep.cases if c.key == "zero-budget-control")
    assert case.status == FAIL and case.witness
    assert [c.key for c in rep.failures()] == ["zero-budget-control"]
    assert main(["verify", "extension-property", "--option", "budget=25"]) == 1


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


def test_run_suite_hands_the_seed_only_to_suites_that_take_one():
    a, b = (run_suite("msa-bound", seed=seed, trials=6) for seed in (4, 5))
    assert a.cases != b.cases
    # path-fact draws no random number and takes no seed; its report records it
    assert run_suite("path-fact", seed=7).seed == 7


def test_cli_exit_codes(tmp_path):
    # 0: clean suite
    assert main(["verify", "path-fact"]) == 0
    # 1: a suite with an injected fault reports FAIL
    assert main(["verify", "path-fact", "--negative-control"]) == 1
    # 2: usage errors
    assert main(["verify", "nosuchsuite"]) == 2
    assert main(["delta", str(tmp_path / "missing.pdl"), "--set", "1"]) == 2


@pytest.mark.parametrize("option", ["ngons=x", "bogus=1", "ngons=3", "b_max"],
                         ids=["not-an-int", "unknown-name", "int-for-a-tuple", "no-equals"])
def test_cli_verify_bad_option_exits_2(capsys, option):
    assert main(["verify", "kn", "--option", option]) == 2
    assert "error:" in capsys.readouterr().err


VALID_HEADER = "predimlab/1\nsignature n=2 mode=hypergraph\n"


@pytest.mark.parametrize(
    "text",
    [
        VALID_HEADER + "relation\nvertices 0\n",
        VALID_HEADER + "relation R weight=1\nvertices 0\n",
        "predimlab/1\nsignature n=x\nrelation R arity=2 weight=1\nvertices 0\n",
        VALID_HEADER + "relation R arity=2 weight=1\nvertices 0\npart 0\n",
    ],
    ids=["relation-no-name", "relation-no-arity", "signature-n", "part-one-field"],
)
def test_cli_malformed_input_exits_2(tmp_path, capsys, text):
    f = tmp_path / "bad.pdl"
    f.write_text(text)
    with pytest.raises(InputError, match="line "):
        load_structure(text)
    assert main(["closure", str(f), "--set", "0"]) == 2
    assert "error:" in capsys.readouterr().err


CAP_VARIABLES = ("PREDIMLAB_TABLE_CUTOFF", "PREDIMLAB_CANON_CAP", "PREDIMLAB_SS_CAP")


@pytest.mark.parametrize("value", ["abc", "-1", "21", "10"])
@pytest.mark.parametrize("var", CAP_VARIABLES)
def test_cli_ignores_cap_environment_variables(tmp_path, monkeypatch, capsys, var, value):
    # caps are module constants: malformed, negative and too-large values
    # neither fail a command nor change its output
    f = tmp_path / "p.pdl"
    f.write_text(dump_structure(graph([(0, 1), (1, 2)])))
    argv = ["closure", str(f), "--set", "0,2", "--kind", "cld"]
    assert main(argv) == 0
    want = capsys.readouterr()
    monkeypatch.setenv(var, value)
    assert main(argv) == 0
    assert capsys.readouterr() == want


def test_cli_verify_axioms_ignores_a_small_table_cutoff(monkeypatch, capsys):
    # 10 is below the 12-vertex approximant's size; the d-closed enumeration
    # needs the table engine there, so a cutoff read from the environment
    # would turn this PASS into exit 2
    monkeypatch.setenv("PREDIMLAB_TABLE_CUTOFF", "10")
    assert main(["verify", "axioms"]) == 0
    assert capsys.readouterr().err == ""


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


def test_cli_audit_keys_each_case_by_its_whole_task(tmp_path, capsys):
    # keys were once the first 60 characters of the task key, so two tasks
    # could share one and a valid audit exit 2 with "duplicate case keys":
    # on any c0 build at --max-pattern 5, and on a graph with two relations
    built = tmp_path / "b.pdl"
    assert main(["build", "--class", "c0", "--budget", "5", "--out", str(built)]) == 0
    two = tmp_path / "rs.pdl"
    two.write_text("predimlab/1\nsignature n=2\nrelation R arity=2 weight=1\n"
                   "relation S arity=2 weight=1\nvertices 0 1 2\ninstance R 0 1\ninstance S 1 2\n")
    for argv in (["audit", str(built), "--max-pattern", "5", "--max-base", "0"],
                 ["audit", str(two)]):
        capsys.readouterr()
        assert main([*argv, "--report", "machine"]) in (0, 1)
        keys = [case["key"] for case in json.loads(capsys.readouterr().out)["cases"]]
        assert len(set(keys)) == len(keys) and max(map(len, keys)) > len("task:") + 60


def test_cli_verify_machine_out(tmp_path):
    out = tmp_path / "rep.json"
    assert main([
        "verify", "kn", "--report", "machine", "--out", str(out),
    ]) == 0
    data = json.loads(out.read_text())
    assert data["suite"] == "kn"
    assert data["summary"]["FAIL"] == 0


def test_console_script_end_to_end():
    # the subprocess does not inherit pytest's pythonpath, so hand it src
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "predimlab.cli", "verify", "path-fact"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
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
    again = in_Kn(square)
    assert not again.holds and again.witness == frozenset(ids)


# Commands no other test runs: each argv, its exit code and one line it prints
# (or writes to {out}).  {g} is the graph with edges 01 and 02, {k} a
# bipartite 6-cycle.
CLI_COVERAGE = [
    (["msa", "{g}", "--base", "1,2", "--ext", "0"], 0,
     "minimal base: [1, 2]; pattern: [0, 1, 2]"),
    (["beatty", "--l", "2", "--b", "5", "--window", "7"], 0, "window: 0 0 1 0 1 0 0"),
    (["ex511", "--r", "3"], 0, "summary: 5 cases, PASS=5"),
    (["ex512", "--samples", "50"], 0, "summary: 7 cases, PASS=6 PARTIAL=1"),
    (["gadget", "--n", "3", "--m", "2", "--out", "{out}"], 0, "base 0 1"),
    (["check", "{k}", "--class", "kn"], 0, "  [PASS      ] kn-membership"),
    (["closure", "{g}", "--set", "1", "--kind", "cl0"], 0, "cl0: [1]"),
    (["closure", "{g}", "--set", "1,2", "--kind", "cld", "--report", "machine"], 0,
     '{"ambient_relative": true, "closure": [0, 1, 2], "dimension": 4, "kind": "cld", '
     '"trace": []}'),
    (["indep", "{g}", "--a", "1", "--b", "", "--c", "2", "--perp", "--characterize"], 0,
     "perp: False"),
]


@pytest.mark.parametrize("argv,code,line", CLI_COVERAGE,
                         ids=[" ".join(argv) for argv, _, _ in CLI_COVERAGE])
def test_cli_command_coverage(tmp_path, capsys, argv, code, line):
    files = {"g": tmp_path / "g.pdl", "k": tmp_path / "k.pdl", "out": tmp_path / "out.pdl"}
    files["g"].write_text(dump_structure(graph([(0, 1), (0, 2)])))
    files["k"].write_text(dump_structure(
        bipartite_graph([(i, (i + 1) % 6) for i in range(6)], [0, 2, 4], [1, 3, 5], ngon=3)))
    assert main([a.format(**files) for a in argv]) == code
    written = files["out"].read_text() if files["out"].exists() else ""
    assert line in (capsys.readouterr().out + written).splitlines()


@pytest.mark.parametrize("argv", [["ex511", "--r", "3"], ["ex512", "--samples", "50"]],
                         ids=["ex511", "ex512"])
def test_cli_example_out_holds_the_structure(tmp_path, capsys, argv):
    out = tmp_path / "E.pdl"
    assert main([*argv, "--out", str(out)]) == 0
    S, _ = load_structure(out.read_text())
    assert S.vertices
    assert capsys.readouterr().out.startswith(f"suite {argv[0]} ")


def test_cli_ex512_runs_the_suite_at_its_defaults(capsys):
    # the command hands the suite only the options it was given
    digests = []
    for argv in (["ex512"], ["verify", "ex512"]):
        assert main([*argv, "--report", "machine"]) == 0
        digests.append(json.loads(capsys.readouterr().out)["digest"])
    assert digests[0] == digests[1]
