"""The exit-code contract, generated from the parser.

Every integer flag of every command, set one at a time to each value of a
boundary pool on a valid base command line, exits 0, 1 or 2 with no
traceback, and an exit 2 prints one ``error:`` line.  Each case runs in a
forked child that caps its own address space and is killed at a wall budget,
one child at a time, so a runaway or an unbounded allocation fails the case
instead of the machine.

The children fork from the test process, which has imported the library
and built the parser already: a fresh interpreter per case would spend about
0.4 s importing numpy and the library, several times what most cases run
for.  ``main`` is re-entrant, so a child parses with the parser it inherits.
"""

import argparse
import contextlib
import io
import os
import re
import resource
import signal
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from predimlab import cli, dump_structure, graph, suites
from predimlab.structures import bipartite_graph

from conftest import cycle_graph, perfbench_workloads

pytestmark = pytest.mark.skipif(not Path("/proc/self/statm").exists(),
                                reason="needs fork and /proc/self/statm")

VALUES = (-1, 0, 1, 2, 3, 10**6, 10**18)
HEADROOM = 512 << 20  # address space a child may add to what it forked with
BUDGET = 20  # seconds a generated case may run before it is killed

# A command line that passes, for each subcommand, and one per class where
# the class changes which flags are read.  {g} is the graph with edges 01
# and 02, {k} a bipartite 6-cycle, {t} a type file over {g}, {c} a 24-cycle
# (above in_Cf's exhaustive cap), {b} and {bk} budget-30 c0 and kn builds
# and {out} a file to write.
BASES = {
    "delta": ["delta", "{g}", "--set", "0"],
    "closure": ["closure", "{g}", "--set", "1"],
    "check-cf": ["check", "{g}", "--class", "cf"],
    "check-kn": ["check", "{k}", "--class", "kn"],
    "indep": ["indep", "{g}", "--a", "1", "--b", "", "--c", "2"],
    "axioms": ["axioms", "{g}"],
    "msa": ["msa", "{g}", "--base", "1,2", "--ext", "0"],
    "mult": ["mult", "{g}", "--over", "1,2", "--type", "{t}"],
    "gadget": ["gadget", "--n", "3", "--m", "2", "--out", "{out}"],
    "beatty": ["beatty", "--l", "2", "--b", "5"],
    "ex511": ["ex511", "--r", "3", "--out", "{out}"],
    "ex512": ["ex512", "--samples", "0", "--out", "{out}"],
    "build-c0": ["build", "--class", "c0", "--budget", "5", "--out", "{out}"],
    "build-cf": ["build", "--class", "cf", "--budget", "5", "--out", "{out}"],
    "build-kn": ["build", "--class", "kn", "--budget", "5", "--out", "{out}"],
    "audit-c0": ["audit", "{b}"],
    "audit-kn": ["audit", "{bk}", "--class", "kn"],
    "verify": ["verify", "path-fact"],
}

# Inputs that once ran out of memory, ran on past a 6 s timeout, or wrote a
# million-point instance; each must now exit 2 at once.
BIG = 10**18
FIXED = [
    ["gadget", "--n", "3", "--m", "2", "--r", f"{BIG}"],
    ["gadget", "--n", f"{BIG}", "--m", "1"],
    ["gadget", "--n", f"{BIG + 1}", "--m", "2"],
    ["gadget", "--n", "3", "--m", "2", "--r", "1000000"],
    ["ex511", "--r", "3", "--base-size", f"{BIG}", "--out", "{out}"],
    ["ex512", "--s", f"{BIG + 1}", "--step", "7"],
    ["ex512", "--s", "100001", "--step", "7"],
    ["verify", "ex512", "--option", f"s={BIG + 1}", "--option", "step=7"],
    ["ex512", "--s", "4999", "--step", "7"],
    ["verify", "ex512", "--option", "s=4999", "--option", "step=7"],
    ["beatty", "--l", "1", "--b", "100000000"],
    ["build", "--class", "c0", "--r", f"{BIG}", "--out", "{out}"],
    ["ex512", "--samples", "1000000"],
    ["check", "{c}", "--class", "cf", "--samples", "1000000"],
]


def _subparsers():
    action = next(a for a in cli._parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def _reads_an_int(action):
    try:
        return type(action.type("3")) is int
    except (TypeError, argparse.ArgumentTypeError):  # no type, or not an integer one
        return False


def _int_flags(command):
    """The flags of ``command`` whose type turns "3" into the int 3."""
    return [a.option_strings[0] for a in _subparsers()[command]._actions
            if a.option_strings and _reads_an_int(a)]


CASES = [(name, flag, value) for name, argv in BASES.items()
         for flag in _int_flags(argv[0]) for value in VALUES]
CHOICE_CASES = [(name, a.option_strings[0]) for name, argv in BASES.items()
                for a in _subparsers()[argv[0]]._actions if a.option_strings and a.choices]


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    d = tmp_path_factory.mktemp("contract")
    paths = {key: d / f"{key}.pdl" for key in ("g", "k", "t", "c", "b", "bk", "out")}
    paths["g"].write_text(dump_structure(graph([(0, 1), (0, 2)])))
    paths["k"].write_text(dump_structure(
        bipartite_graph([(i, (i + 1) % 6) for i in range(6)], [0, 2, 4], [1, 3, 5], ngon=3)))
    paths["t"].write_text(dump_structure(graph([(0, 1), (0, 2)]), base_ids=[1, 2]))
    paths["c"].write_text(dump_structure(cycle_graph(24)))
    with contextlib.redirect_stdout(io.StringIO()):
        for key, klass in (("b", "c0"), ("bk", "kn")):
            assert cli.main(["build", "--class", klass, "--budget", "30",
                             "--out", str(paths[key])]) == 0
    return paths


def _run(argv, fresh=False):
    """(exit code, stdout, stderr, seconds) of ``cli.main(argv)`` in a forked
    child; a ``fresh`` child drops the parser it inherits and builds its own."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.monotonic()
        pid = os.fork()
        if pid == 0:
            code = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(BUDGET)
                pages = int(Path("/proc/self/statm").read_text().split()[0])
                limit = pages * resource.getpagesize() + HEADROOM
                resource.setrlimit(resource.RLIMIT_AS, (limit, resource.RLIM_INFINITY))
                sys.stdout, sys.stderr = out, err
                if fresh:
                    cli._parser.cache_clear()
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except BaseException:  # reported as the interpreter reports it
                traceback.print_exc()
            finally:
                out.flush()
                err.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        seconds = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        return os.waitstatus_to_exitcode(status), out.read(), err.read(), seconds


def _holds_the_contract(argv):
    code, _, err, seconds = _run(argv)
    assert code in (0, 1, 2), (code, err[-2000:])  # -14: killed at the wall budget
    assert "Traceback" not in err, err[-2000:]
    if code == 2:  # one error line, with no usage line before it
        assert err.count("error: ") == 1 and err.splitlines()[-1].startswith("error: "), err
        assert "usage:" not in err, err
    return code, err, seconds


def _format(argv, files):
    return [arg.format(**files) for arg in argv]


def test_the_bases_cover_every_command():
    assert {argv[0] for argv in BASES.values()} == set(_subparsers())


@pytest.mark.parametrize("name", BASES)
def test_each_base_command_line_passes(files, name):
    assert _holds_the_contract(_format(BASES[name], files))[0] == 0


@pytest.mark.parametrize("name,flag,value", CASES,
                         ids=[f"{n} {f}={v}" for n, f, v in CASES])
def test_every_int_flag_at_the_boundary(files, name, flag, value):
    _holds_the_contract([*_format(BASES[name], files), flag, str(value)])


@given(st.sampled_from(sorted({(name, flag) for name, flag, _ in CASES})), st.integers())
@settings(max_examples=30, deadline=None)
def test_an_int_flag_at_any_integer(files, case, value):
    name, flag = case
    _holds_the_contract([*_format(BASES[name], files), flag, str(value)])


def test_audit_takes_a_cap_per_task_past_sys_maxsize(files):
    # islice refuses a stop above sys.maxsize, so 2**63 once ended in a
    # ValueError traceback; it reads as any cap above every base count
    argv = [*_format(BASES["audit-c0"], files), "--cap-per-task"]
    _holds_the_contract([*argv, str(2**63)])
    assert _run([*argv, str(2**63)])[:2] == _run([*argv, str(10**18)])[:2]


@pytest.mark.parametrize("name,flag", CHOICE_CASES, ids=[f"{n} {f}" for n, f in CHOICE_CASES])
def test_every_choices_flag_refuses_a_value_outside_them(files, name, flag):
    assert _holds_the_contract([*_format(BASES[name], files), flag, "none-of-them"])[0] == 2


@pytest.mark.parametrize("argv", FIXED, ids=" ".join)
def test_a_runaway_input_exits_2_at_once(files, argv):
    code, err, seconds = _holds_the_contract(_format(argv, files))
    assert code == 2, err
    assert seconds < 1, seconds


def test_a_gadget_grid_past_the_verify_cap_exits_2():
    # the grid was once a list of every (n, m) pair, built before the first
    # gadget reached the verify cap: a MemoryError traceback with exit 1
    assert _holds_the_contract(["verify", "gadget", "--option", "r2_max=1000000"])[0] == 2


# Every ranged suite option, one at a time on the light options of the
# negative-control runs, at the values that tests/test_input_boundary.py's
# sweep (-1, 0 and 1) leaves out.
TINY = perfbench_workloads().SUITE_OPTIONS["tiny"]
OPTION_CASES = [(name, key, value) for name, ranges in suites.OPTION_RANGES.items()
                for key in ranges for value in (2, 3, 10**6, 10**18)]

# Suite inputs that once ran on past a 6 s timeout.
SUITE_FIXED = [
    ["verify", "msa-bound", "--option", "trials=1000000"],
    ["verify", "submodularity", "--option", "oracle_cases=1000000"],
]


@pytest.mark.parametrize("name,key,value", OPTION_CASES,
                         ids=[f"{n} {k}={v}" for n, k, v in OPTION_CASES])
def test_every_suite_option_at_the_boundary(name, key, value):
    options = {**TINY[name], key: value}
    _holds_the_contract(["verify", name,
                         *(arg for k, v in options.items() for arg in ("--option", f"{k}={v}"))])


@pytest.mark.parametrize("argv", SUITE_FIXED, ids=" ".join)
def test_a_runaway_suite_input_exits_2_at_once(argv):
    code, err, seconds = _holds_the_contract(argv)
    assert code == 2, err
    assert seconds < 1, seconds


# One process, many calls: a refused flag, --help, --version, a refused
# suite option, a FAIL (the negative control) and a PASS, with their codes.
CALLS = [
    (["verify", "kn", "--seed", "x"], 2),
    (["--help"], 0),
    (["--version"], 0),
    (["verify", "path-fact", "--option", "x=1"], 2),
    (["verify", "kn", "--negative-control"], 1),
    (["verify", "path-fact"], 0),
]


def _masked(out):
    """Stdout with the report's ``wall time:`` line masked: a run's time may
    round to 0.00s once and to 0.01s the next."""
    return re.sub(r"^wall time: \d+\.\d\ds$", "wall time: -", out, flags=re.M)


def test_main_answers_every_call_as_a_fresh_process(capsys):
    cli._parser.cache_clear()
    for argv, code in CALLS:
        fresh = _run(argv, fresh=True)[:3]
        assert fresh[0] == code
        got = (cli.main(argv), *capsys.readouterr())
        if argv[0] == "verify" and code != 2:  # a report, with its wall time
            assert "\nwall time: " in fresh[1] and "\nwall time: " in got[1]
        assert (got[0], _masked(got[1]), got[2]) == (fresh[0], _masked(fresh[1]), fresh[2])
    assert cli._parser.cache_info().misses == 1  # built by the first call alone
    option = next(a for a in _subparsers()["verify"]._actions if a.dest == "option")
    assert option.default == []


def test_importing_the_cli_builds_no_parser():
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    probe = "import predimlab.cli as c; assert c._parser.cache_info().currsize == 0"
    assert subprocess.run([sys.executable, "-c", probe],
                          env={**os.environ, "PYTHONPATH": path}).returncode == 0
