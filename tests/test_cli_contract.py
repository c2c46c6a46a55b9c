"""The exit-code contract, generated from the parser.

Every integer flag of every command, set one at a time to each value of a
boundary pool on a valid base command line, exits 0, 1 or 2 with no
traceback, and an exit 2 prints one ``error:`` line.  Each case runs in a
forked child that caps its own address space and is killed at a wall budget,
one child at a time, so a runaway or an unbounded allocation fails the case
instead of the machine.

The children fork from the test process, which has imported the library
already: a fresh interpreter per case would spend about 0.4 s importing
numpy and the library, several times what most cases run for.
"""

import argparse
import contextlib
import io
import os
import resource
import signal
import sys
import tempfile
import time
import traceback
from pathlib import Path

import pytest

from predimlab import cli, dump_structure, graph
from predimlab.structures import bipartite_graph

from conftest import cycle_graph

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


def _run(argv):
    """(exit code, stderr, seconds) of ``cli.main(argv)`` in a forked child."""
    with tempfile.TemporaryFile("w+") as err:
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
                sys.stdout, sys.stderr = open(os.devnull, "w"), err
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
            except BaseException:  # reported as the interpreter reports it
                traceback.print_exc()
            finally:
                err.flush()
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        seconds = time.monotonic() - start
        err.seek(0)
        return os.waitstatus_to_exitcode(status), err.read(), seconds


def _holds_the_contract(argv):
    code, err, seconds = _run(argv)
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


@pytest.mark.parametrize("argv", FIXED, ids=" ".join)
def test_a_runaway_input_exits_2_at_once(files, argv):
    code, err, seconds = _holds_the_contract(_format(argv, files))
    assert code == 2, err
    assert seconds < 1, seconds


def test_a_gadget_grid_past_the_verify_cap_exits_2():
    # the grid was once a list of every (n, m) pair, built before the first
    # gadget reached the verify cap: a MemoryError traceback with exit 1
    assert _holds_the_contract(["verify", "gadget", "--option", "r2_max=1000000"])[0] == 2
