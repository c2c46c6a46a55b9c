"""The input boundary: any text given to the loader either parses or raises
``InputError``, dump and load round-trip, and the CLI answers every class of
malformed line with exit code 2 (never the FAIL code 1, never a traceback).
"""

import argparse
import ast
import contextlib
import importlib
import importlib.util
import inspect
import io
import itertools
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import predimlab
from predimlab import (
    BIPARTITE,
    BuildConfig,
    FiniteStructure,
    InputError,
    Relation,
    Signature,
    audit_extension_property,
    build_generic,
    cli,
    dump_structure,
    graph,
    graph_signature,
    load_structure,
    path_graph,
    run_suite,
    suites,
)
from predimlab.cli import main
from predimlab.structures import LINE, POINT, bipartite_graph

from conftest import (LIGHT, perfbench_workloads, small_graphs, small_hypergraphs,
                      subsets_of)

HEADER = "predimlab/1"
VALID = (
    f"{HEADER}\nsignature n=2 mode=hypergraph\nrelation R arity=2 weight=1\n"
    "vertices 0 1 2\ninstance R 0 1\n"
)

# Tokens that come close to well-formed lines, so that mutated text gets
# past the header and into every branch of the line parser.
TOKENS = st.sampled_from([
    "signature", "relation", "vertices", "part", "instance", "base", "mode=bipartite",
    "mode=hypergraph", "mode=x", "n=2", "n=0", "n=-1", "n=x", "n=", "arity=2", "arity=1",
    "arity=3", "arity=x", "weight=1", "weight=0", "weight=-1", "weight=x", "R", "S", "adj",
    "point", "line", "0", "1", "2", "-1", "99", "10000000000000000000000", "x", "=", "#",
    "1.5", "１",
])
LINES = st.one_of(
    st.lists(TOKENS, min_size=1, max_size=6).map(" ".join),
    st.text(max_size=20),
)


def _loads_or_rejects(text):
    try:
        S, base = load_structure(text)
    except InputError:
        return
    assert isinstance(S, FiniteStructure)
    assert base is None or base <= set(S.vertices)


@given(st.text(max_size=200))
@settings(max_examples=200, deadline=None)
def test_loader_on_arbitrary_text(text):
    _loads_or_rejects(text)


@given(st.lists(LINES, max_size=10), st.booleans())
@settings(max_examples=400, deadline=None)
def test_loader_on_mutated_lines(lines, keep_valid):
    prefix = VALID if keep_valid else HEADER + "\n"
    _loads_or_rejects(prefix + "\n".join(lines) + "\n")


@st.composite
def bipartite_structures(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    points = [v for v in range(n) if draw(st.booleans())]
    lines_ = [v for v in range(n) if v not in points]
    pool = list(itertools.product(points, lines_))
    edges = draw(st.lists(st.sampled_from(pool), unique=True) if pool else st.just([]))
    return bipartite_graph(edges, points, lines_, ngon=draw(st.integers(3, 6)))


@given(
    st.one_of(small_graphs(), small_hypergraphs(), bipartite_structures()).flatmap(
        lambda S: st.tuples(st.just(S), st.none() | subsets_of(S))
    )
)
@settings(max_examples=100, deadline=None)
def test_dump_load_roundtrip(case):
    S, base = case
    assert load_structure(dump_structure(S, base_ids=base)) == (S, base)


# One malformed line per class the loader rejects, each put into a file that
# is valid without it.
MALFORMED = {
    "relation-no-name": "relation",
    "relation-no-arity": "relation T weight=1",
    "relation-bad-weight": "relation T arity=2 weight=x",
    "relation-bad-arity": "relation T arity=1 weight=1",
    "signature-bad-n": "signature n=x",
    "signature-unknown-field": "signature q=1",
    "vertex-not-integer": "vertices 0 x",
    "part-one-field": "part 0",
    "instance-bad-id": "instance R 0 y",
    "instance-unknown-vertex": "instance R 0 99",
    "instance-repeated-vertex": "instance R 2 2",
    "instance-wrong-arity": "instance R 0 1 2",
    "instance-duplicate": "instance R 1 0",
    "instance-unknown-relation": "instance Q 0 1",
    "base-unknown-vertex": "base 0 99",
    "unknown-kind": "edges 0 1",
    "part-in-hypergraph-mode": "part 0 point",
    "signature-second": "signature n=2 mode=hypergraph",
    "vertices-second": "vertices 0 1",
}


@pytest.mark.parametrize("line", MALFORMED.values(), ids=MALFORMED.keys())
def test_cli_delta_exits_2_on_each_malformed_line(tmp_path, capsys, line):
    f = tmp_path / "bad.pdl"
    f.write_text(VALID + line + "\n")
    with pytest.raises(InputError):
        load_structure(f.read_text())
    assert main(["delta", str(f), "--set", "0"]) == 2
    assert "error:" in capsys.readouterr().err


BIPARTITE_VALID = (
    f"{HEADER}\nsignature n=2 mode=bipartite\nrelation adj arity=2 weight=1\n"
    "vertices 0 1 2\npart 0 point\npart 1 line\npart 2 line\ninstance adj 0 1\n"
)
MALFORMED_FILES = {
    "empty": "",
    "wrong-header": "predimlab/9\n",
    "no-signature": f"{HEADER}\nvertices 0\n",
    "no-relation": f"{HEADER}\nsignature n=2\nvertices 0\n",
    "vertices-repeated-id": VALID.replace("vertices 0 1 2", "vertices 0 1 2 1"),
    "base-second": VALID + "base 0\nbase 1\n",
    "part-unknown-vertex": BIPARTITE_VALID + "part 9 line\n",
    "part-second-label": BIPARTITE_VALID + "part 2 point\n",
}


@pytest.mark.parametrize("text", MALFORMED_FILES.values(), ids=MALFORMED_FILES.keys())
def test_cli_delta_exits_2_on_malformed_file(tmp_path, capsys, text):
    f = tmp_path / "bad.pdl"
    f.write_text(text)
    assert main(["delta", str(f), "--set", "0"]) == 2
    assert "error:" in capsys.readouterr().err


# Type files whose signature differs from the ambient's: once a traceback
# with the FAIL code, or a silent count.
OTHER_SIGNATURE_TYPES = {
    "bipartite": bipartite_graph([(0, 2), (1, 2)], points=[0, 1], lines_=[2], ngon=3),
    "renamed-relation": FiniteStructure(graph_signature(name="Q"), [0, 1, 2],
                                        {"Q": [(0, 2), (1, 2)]}),
    "other-weights": graph([(0, 2), (1, 2)], n=3, m=2),
}


# Type files that are not msa over their base: once a count and exit 0.
NOT_MSA_TYPES = {
    "base-is-everything": (graph([], vertices=[0]), [0]),
    "not-simply-algebraic": (graph([(0, 1)]), [0]),  # delta(1/0) = 1
    # simply algebraic, but base point 1 is on no instance
    "a-base-point-unattached": (
        graph(list(itertools.combinations([0, 2, 3, 4], 2)), vertices=range(5)), [0, 1]),
}


@pytest.mark.parametrize("pattern,base", NOT_MSA_TYPES.values(), ids=NOT_MSA_TYPES.keys())
def test_cli_mult_rejects_a_type_that_is_not_msa(tmp_path, capsys, pattern, base):
    amb, typefile = tmp_path / "amb.pdl", tmp_path / "type.pdl"
    amb.write_text(dump_structure(graph([(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])))
    typefile.write_text(dump_structure(pattern, base_ids=base))
    assert main(["mult", str(amb), "--over", "0,1", "--type", str(typefile)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "not minimally simply algebraic" in captured.err


@pytest.mark.parametrize("pattern", OTHER_SIGNATURE_TYPES.values(),
                         ids=OTHER_SIGNATURE_TYPES.keys())
def test_cli_mult_rejects_a_type_from_another_signature(tmp_path, capsys, pattern):
    amb, typefile = tmp_path / "amb.pdl", tmp_path / "type.pdl"
    amb.write_text(dump_structure(graph([(0, 2), (0, 3), (1, 2), (1, 3)])))
    typefile.write_text(dump_structure(pattern, base_ids=[0, 1]))
    assert main(["mult", str(amb), "--over", "0,1", "--type", str(typefile)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "signature" in err
    assert "Traceback" not in err


# Suite inputs that once escaped as raw tracebacks with the FAIL code.
BAD_SUITE_INPUTS = [
    ["extension-property", "--negative-control", "--option", "budget=0"],
    ["extension-property", "--negative-control", "--option", "budget=1"],
    ["extension-property", "--negative-control", "--option", "max_pattern=0"],
    ["extension-property", "--negative-control", "--option", "max_pattern=1"],
    ["submodularity", "--option", "oracle_max_n=1"],
    ["submodularity", "--option", "oracle_max_n=-1"],
    ["submodularity", "--option", "max_n=-1"],
    ["extension-property", "--option", "cap_per_task=0"],
    ["ex512", "--option", "samples=-1"],
]


@pytest.mark.parametrize("argv", BAD_SUITE_INPUTS, ids=lambda argv: " ".join(argv[1:]))
def test_cli_verify_bad_suite_input_exits_2(capsys, argv):
    assert main(["verify", *argv]) == 2
    assert "error:" in capsys.readouterr().err


# Count options that once gave a vacuous PASS, or a FAIL, instead of a
# usage error.
BAD_COUNTS = [
    ["audit", "{file}", "--max-base", "-1"],
    ["audit", "{file}", "--max-pattern", "-2"],
    ["audit", "{file}", "--cap-per-task", "0"],
    ["audit", "{file}", "--cap-per-task", "-1"],
    ["check", "{file}", "--class", "cf", "--samples", "-5"],
    ["axioms", "{file}", "--cap", "-1"],
    ["ex512", "--samples", "-1"],
    ["beatty", "--l", "2", "--b", "5", "--window", "-3"],
    ["ex511", "--r", "3", "--base-size", "-1"],
    ["verify", "msa-bound", "--option=trials=-1"],
    ["verify", "submodularity", "--option=oracle_cases=-5", "--option=max_n=2"],
    ["verify", "submodularity", "--option=oracle_max_n=21", "--option=oracle_cases=500",
     "--option=max_n=2"],
    ["verify", "axioms", "--option=lemma43_cap=-1", "--option=size_cap=1"],
    ["verify", "axioms", "--option=size_cap=-1"],
    ["verify", "beatty", "--option=b_max=-1"],
]


# Example parameters the command cannot build: once an error from deep in
# the construction.
UNBUILDABLE = [
    ["ex511", "--r", "5"],
    ["ex511", "--r", "2"],
]


@pytest.mark.parametrize("argv", UNBUILDABLE, ids=" ".join)
def test_cli_rejects_unbuildable_example_parameters(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"r = {argv[-1]}" in err
    assert "Traceback" not in err


@pytest.fixture(scope="module")
def budget30_build(tmp_path_factory):
    out = tmp_path_factory.mktemp("build") / "b30.pdl"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["build", "--class", "c0", "--budget", "30", "--out", str(out)]) == 0
    return out


@pytest.mark.parametrize("argv", BAD_COUNTS, ids=lambda argv: " ".join(argv[::2]))
def test_cli_rejects_negative_counts(budget30_build, capsys, argv):
    assert main([arg.format(file=budget30_build) for arg in argv]) == 2
    err = capsys.readouterr().err
    # a value above its cap (oracle_max_n=21, past the table engine's
    # vertices) says the cap is exceeded; one below its least, what it must be
    expected = "cap exceeded" if "--option=oracle_max_n=21" in argv else "must be"
    assert err.startswith("error: ") and expected in err


def test_cli_check_has_no_cap_option(budget30_build, capsys):
    # in_Cf's exhaustive cap is a constant: above the table engine's cutoff
    # the option once exited with the engine's message, not one about it
    assert main(["check", str(budget30_build), "--class", "cf", "--cap", "-1"]) == 2
    assert "unrecognized arguments: --cap -1" in capsys.readouterr().err


def _theta(vertex_weight, edge_weight):
    """A 12-cycle and three 2-paths, each through a new line between a pair
    of opposite points, over the bipartite signature of the given weights."""
    edges = [(i, (i + 1) % 12) for i in range(12)]
    for k, u in enumerate((0, 2, 4)):
        edges += [(u, 12 + k), (12 + k, u + 6)]
    sig = Signature(vertex_weight, (Relation("adj", 2, edge_weight),), mode=BIPARTITE)
    parts = {v: POINT if v < 12 and v % 2 == 0 else LINE for v in range(15)}
    return FiniteStructure(sig, range(15), {"adj": edges}, parts)


@pytest.mark.parametrize("weights, code, line", [
    ((2, 1), 0, "  [PASS      ] kn-membership"),
    ((3, 2), 1, "  [FAIL      ] kn-membership margin=-1 (subset over a 12-cycle has "
                f"delta 9 < 10) witness={list(range(15))}"),
], ids=["k3", "k4"])
def test_cli_check_kn_reads_n_from_the_weights(tmp_path, capsys, weights, code, line):
    # the same graph is in K_3 and not in K_4; its weights say which is asked
    f = tmp_path / "theta.pdl"
    f.write_text(dump_structure(_theta(*weights)))
    assert main(["check", str(f), "--class", "kn"]) == code
    assert line in capsys.readouterr().out.splitlines()


@pytest.mark.parametrize("command", ["check", "audit"])
def test_cli_kn_refuses_weights_of_no_polygon_class(tmp_path, capsys, command):
    # (3, 1) is (n - 1, n - 2) for no n; such a file once passed as K_3 and as K_4
    f = tmp_path / "theta.pdl"
    f.write_text(dump_structure(_theta(3, 1)))
    assert main([command, str(f), "--class", "kn"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Kn needs a bipartite signature with weights (n-1, n-2)")
    assert captured.err.count("\n") == 1


def test_cli_check_has_no_ngon_option(tmp_path, capsys):
    f = tmp_path / "theta.pdl"
    f.write_text(dump_structure(_theta(2, 1)))
    assert main(["check", str(f), "--class", "kn", "--ngon", "4"]) == 2
    assert "unrecognized arguments: --ngon 4" in capsys.readouterr().err


# Vertex-id options with a token that is not an integer.
BAD_IDS = [
    ["delta", "{file}", "--set", "a"],
    ["closure", "{file}", "--set", "0,x"],
    ["indep", "{file}", "--a", "0", "--b", "q", "--c", "1"],
    ["msa", "{file}", "--base", "0", "--ext", "z"],
    ["mult", "{file}", "--over", "0 1.5", "--type", "{typefile}"],
]


@pytest.mark.parametrize("argv", BAD_IDS, ids=lambda argv: " ".join(argv[::2]))
def test_cli_rejects_non_integer_vertex_ids(budget30_build, tmp_path, capsys, argv):
    typefile = tmp_path / "type.pdl"
    typefile.write_text(dump_structure(graph([(2, 0), (2, 1)]), base_ids=[0, 1]))
    assert main([arg.format(file=budget30_build, typefile=typefile) for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: vertex id ") and "not an integer" in err
    assert "Traceback" not in err


def test_base_walk_with_cap_zero_yields_nothing():
    # the audit takes its first ``cap_per_task`` bases off the uncapped walk
    res = build_generic(BuildConfig(graph_signature(2, 1), "c0", max_pattern=2, budget=10))
    for cap, want in ((0, 0), (-1, 0), (1, 1)):
        audit = audit_extension_property(res.structure, res.tasks, cap_per_task=cap)
        assert [e.embeddings_checked for e in audit.entries] == [want] * len(res.tasks)


@pytest.mark.parametrize("max_n", [1, 2])
def test_submodularity_negative_control_at_small_max_n(max_n):
    rep = run_suite("submodularity", negative_control=True, max_n=max_n, oracle_cases=25,
                    oracle_max_n=4)
    assert [c.key for c in rep.failures()] == ["negative-control:corrupted-delta"]


@pytest.mark.parametrize("cases", [0, 30])
def test_submodularity_runs_the_oracle_cases_it_names(cases, monkeypatch):
    # 30 is one batch of 25 and one of 5; 0 switches the oracle check off
    calls = []
    solve = suites._solve
    monkeypatch.setattr(suites, "_solve", lambda *a, **k: calls.append(1) or solve(*a, **k))
    rep = run_suite("submodularity", max_n=2, oracle_cases=cases, oracle_max_n=4)
    case = next(c for c in rep.cases if c.key == "closure-oracle-agreement")
    assert case.status == "PASS"
    assert case.note.startswith(f"{cases} seeded (structure, subset) cases")
    assert len(calls) == 2 * cases  # the flow and the table engine per case


TINY = perfbench_workloads().SUITE_OPTIONS["tiny"]


def _int_options(name):
    fn = getattr(suites, f"{name.replace('-', '_')}_suite")
    return [k for k, p in inspect.signature(fn).parameters.items()
            if type(p.default) is int and k != "seed"]


SWEEP = [(name, key, value, control)
         for name in suites.SUITE_NAMES for key in _int_options(name)
         for value in (-1, 0, 1) for control in (False, True)]


@pytest.mark.parametrize("name,key,value,control", SWEEP,
                         ids=[f"{n}-{k}={v}{'-nc' if c else ''}" for n, k, v, c in SWEEP])
def test_cli_verify_option_boundary_sweep(name, key, value, control):
    options = {**TINY[name], key: value}
    argv = ["verify", name, *(["--negative-control"] if control else [])]
    for k, v in options.items():
        argv += ["--option", f"{k}={v}"]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) in (0, 1, 2)


README = Path(__file__).resolve().parents[1] / "README.md"


def _readme_cap_rows():
    """(module, name, value) for each row of the README cap table."""
    table = README.read_text().split("Fixed caps", 1)[1].split("\n\n")[1].splitlines()
    rows = [re.fullmatch(r"\| `(\w+)\.(\w+)` \| ([\d,]+) \| .* \|", line) for line in table[2:]]
    assert rows and all(rows), table
    return [row.groups() for row in rows]


def test_readme_command_block_matches_the_parser():
    # each `predimlab <command>` of the README's command-line block shows
    # only flags its subparser takes, and every subcommand is shown; the
    # block is split at "predimlab ", since "c0|cf|kn" holds a pipe too
    block = README.read_text().split("## Command line", 1)[1].split("```")[1]
    text = "\n".join(line.split("#", 1)[0] for line in block.splitlines())
    subparsers = next(a for a in cli._parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    shown = {}
    for chunk in text.split("predimlab ")[1:]:
        shown.setdefault(chunk.split()[0], set()).update(re.findall(r"--[\w-]+", chunk))
    assert sorted(shown) == sorted(subparsers)
    for command, flags in shown.items():
        assert flags <= set(subparsers[command]._option_string_actions), (command, flags)


def _source_trees():
    return {path.name: ast.parse(path.read_text())
            for path in Path(predimlab.__file__).parent.glob("*.py")}


def test_readme_cap_table_matches_the_constants():
    for module, name, value in _readme_cap_rows():
        constant = getattr(importlib.import_module(f"predimlab.{module}"), name)
        assert constant == int(value.replace(",", "")), (module, name)


def test_every_readme_cap_row_is_read_in_the_library():
    # a row outlives its constant's last reader only as a stale promise
    read = {getattr(node, "id", getattr(node, "attr", None))
            for tree in _source_trees().values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}
    for module, name, _ in _readme_cap_rows():
        assert name in read, f"{module}.{name} is assigned but never read"


def test_no_capacity_error_passes_a_literal_cap():
    # a cap is a named constant, listed in the README table, or a parameter
    listed = {name for _, name, _ in _readme_cap_rows()}
    calls = 0
    for filename, tree in _source_trees().items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "CapacityError":
                calls += 1
                caps = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "cap_value"]
                assert not any(isinstance(cap, ast.Constant) for cap in caps), (
                    f"{filename}:{node.lineno}")
                for cap in caps:
                    name = getattr(cap, "id", getattr(cap, "attr", ""))
                    assert not name.isupper() or name in listed, f"{filename}:{node.lineno}"
    assert calls >= 7


def test_no_module_reads_the_environment():
    # caps and engines are constants or per-call parameters, so no query
    # pays for an environment lookup
    readers = {"environ", "environb", "getenv", "getenvb"}
    for path in Path(predimlab.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "os":
                names = {alias.name for alias in node.names}
            else:
                names = {getattr(node, "attr", None)}
            assert not names & readers, f"{path.name}:{node.lineno}"


@pytest.mark.parametrize("b_max", [suites.BEATTY_B_MAX + 1, 99999999999])
def test_cli_verify_beatty_above_its_cap_exits_2_at_once(capsys, b_max):
    # the window arrays grow with b_max squared; uncapped, this ran until killed
    assert main(["verify", "beatty", "--option", f"b_max={b_max}"]) == 2
    err = capsys.readouterr().err
    assert "beatty b_max cap exceeded" in err and f"cap {suites.BEATTY_B_MAX}" in err


def test_cli_verify_submodularity_above_the_canon_cap_exits_2_at_once(capsys):
    # the suite enumerates graph types without enumerate_class, so the guard
    # lives in the enumeration they share; unguarded, max_n=9 runs for well
    # over 20 s
    assert main(["verify", "submodularity", "--option", "max_n=9"]) == 2
    err = capsys.readouterr().err
    assert err == "error: class enumeration size cap exceeded: requested 9, cap 8\n"


def test_cli_axioms_above_the_table_cutoff_names_the_cap(tmp_path, capsys):
    # the auto engine's cutoff is 16 vertices; axioms reads the table engine
    # up to its own bound, 20
    f = tmp_path / "p21.pdl"
    f.write_text(dump_structure(path_graph(20)))
    assert main(["axioms", str(f), "--cap", "2"]) == 2
    err = capsys.readouterr().err
    assert "table engine vertices cap exceeded" in err and "cap 20" in err
    f.write_text(dump_structure(path_graph(16)))
    assert main(["axioms", str(f), "--cap", "2"]) == 0


# Vertex weights past each engine's arithmetic: the first once raised a raw
# OverflowError (exit 1, the FAIL code) from int64 numpy, the second once
# gave a wrapped or cut-off dimension.
HEAVY_PATHS = {"n=10**20-1": 99999999999999999999, "n=2**62": 2**62}


@pytest.mark.parametrize("weight", HEAVY_PATHS.values(), ids=HEAVY_PATHS.keys())
@pytest.mark.parametrize("argv", [["closure", "--set", "0"], ["check", "--class", "c0"],
                                  ["axioms"], ["audit"]], ids=lambda argv: argv[0])
def test_cli_refuses_weights_past_the_engines(tmp_path, capsys, weight, argv):
    f = tmp_path / "heavy.pdl"
    f.write_text(f"predimlab/1\nsignature n={weight}\nrelation R arity=2 weight=1\n"
                 "vertices 0 1 2\ninstance R 0 1\ninstance R 1 2\n")
    assert main([argv[0], str(f), *argv[1:]]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: table engine weight cap exceeded")
    # delta is Python int arithmetic, with no such bound
    assert main(["delta", str(f), "--set", "0,1"]) == 0
    assert capsys.readouterr().out == f"{2 * weight - 1}\n"


def test_every_integer_suite_option_has_one_range():
    # a new integer option cannot skip the table, and its default is in range
    assert set(suites.OPTION_RANGES) <= set(suites.SUITE_NAMES)
    for name in suites.SUITE_NAMES:
        ranges = suites.OPTION_RANGES.get(name, {})
        assert set(ranges) == set(_int_options(name)), name
        for key, (least, cap) in ranges.items():
            default = inspect.signature(suites._SUITES[name]).parameters[key].default
            assert least <= default and (cap is None or default <= cap), (name, key)


def _run_all_suites_options():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"
    spec = importlib.util.spec_from_file_location("run_all_suites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.FAST_OPTIONS


def test_every_range_admits_the_options_in_use():
    workloads = perfbench_workloads().SUITE_OPTIONS
    for options in (*workloads.values(), LIGHT, _run_all_suites_options()):
        for name, given in options.items():
            for key, value in given.items():
                if key in suites.OPTION_RANGES.get(name, {}):
                    least, cap = suites.OPTION_RANGES[name][key]
                    assert least <= value and (cap is None or value <= cap), (name, key, value)


@pytest.mark.parametrize("name,options", [("gadget", {"r2_max": 2, "r3_max": 1}),
                                          ("msa-bound", {"trials": 1})])
def test_a_suite_at_its_least_options_still_checks_a_case(name, options):
    assert run_suite(name, **options).cases


# Options that once left a report with no case: exit 0 and "0 cases, empty".
EMPTY_REPORTS = [
    ["gadget", "--option", "r2_max=0", "--option", "r3_max=0"],
    ["msa-bound", "--option", "trials=0"],
]


@pytest.mark.parametrize("argv", EMPTY_REPORTS, ids=" ".join)
def test_cli_verify_rejects_options_that_leave_no_case(capsys, argv):
    assert main(["verify", *argv]) == 2
    assert capsys.readouterr().err.startswith(f"error: {argv[0]} ")


def test_extension_property_has_no_cap_per_task_option(capsys):
    # the audit reads builder.DEFAULT_CAP_PER_TASK, as predimlab audit does
    assert main(["verify", "extension-property", "--option", "cap_per_task=4"]) == 2
    assert "has no option 'cap_per_task'" in capsys.readouterr().err


def _readme_option_rows():
    """{(suite, option): (default, least, cap)} from the README option table."""
    table = README.read_text().split("| suite | option |", 1)[1].split("\n\n")[0]
    rows = [re.fullmatch(r"\| `([\w-]+)` \| `(\w+)` \| ([\d,]+) \| ([\d,]+) \| ([\d,]+|—) \|",
                         line) for line in table.splitlines()[2:]]
    assert rows and all(rows), table

    def number(text):
        return None if text == "—" else int(text.replace(",", ""))

    return {(name, key): tuple(map(number, rest))
            for name, key, *rest in (row.groups() for row in rows)}


def test_readme_option_table_matches_the_ranges():
    rows = _readme_option_rows()
    assert list(rows) == [(name, key) for name, ranges in suites.OPTION_RANGES.items()
                          for key in ranges]
    for (name, key), (default, least, cap) in rows.items():
        assert inspect.signature(suites._SUITES[name]).parameters[key].default == default
        assert suites.OPTION_RANGES[name][key] == (least, cap), (name, key)

