"""predimlab command line: structure checks, closures, gadget and example
builders, chain builds, and the named verification suites.

Exit codes: 0 all checks passed (PARTIAL and DEGENERATE count as non-fail),
1 at least one FAIL, 2 usage or input error.

Every rejected input leaves through one ``error: ...`` line and exit 2: a
flag the parser refuses, a file that does not load and a cap the library
enforces alike.  A flag's own bound lives in the parser, as its ``type=``;
joint bounds (such as coprime n and m) and size bounds (the caps in the
README table) live in the library.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import __version__
from .builder import (BuildConfig, audit_extension_property, build_generic, enumerate_class,
                      enumerate_tasks)
from .classes import in_C0, in_Cf, in_Kn, make_control
from .closures import cl0, cld, dim
from .errors import ContractError, InputError, PredimlabError
from .extensions import MsaType, count_msa_copies, is_msa, is_simply_algebraic, msa_base
from .gadgets import (CONSTRUCTION_CAP, beatty, build_double_cycle, build_fan_join,
                      build_gadget, verify_gadget)
from .independence import axiom_suite, check_lemma43_characterization, d_independent, perp
from .reports import VerificationReport, emit_report
from .structures import (delta, dump_structure, graph_signature, hypergraph_signature,
                         load_structure, polygon_signature)
from .suites import _fan_instance, ex512_suite, run_suite


class _Parser(argparse.ArgumentParser):
    """Raises a rejected argument as ``InputError``, for ``main`` to report."""

    def error(self, message):
        raise InputError(message)


def _count(least: int, most: int | None = None):
    """``type=`` for an integer flag from ``least`` to ``most``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {value}")
        if most is not None and value > most:
            raise argparse.ArgumentTypeError(f"must be at most {most}, got {value}")
        return value

    return parse


def _option(text: str) -> tuple[str, int]:
    """``type=`` for a suite option ``key=value`` with an integer value."""
    key, eq, val = text.partition("=")
    if not eq:
        raise argparse.ArgumentTypeError(f"{text!r} is not key=value")
    try:
        return key.replace("-", "_"), int(val)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: {val!r} is not an integer") from None


def _parser() -> argparse.ArgumentParser:
    structure = argparse.ArgumentParser(add_help=False)
    structure.add_argument("file")
    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--report", choices=["text", "machine"], default="text")

    parser = _Parser(prog="predimlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"predimlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", parents=[structure], help="predimension of a vertex subset")
    p.add_argument("--set", default="", help="vertex ids, comma or space separated")

    p = sub.add_parser("closure", parents=[structure, report],
                       help="intrinsic closure or d-closure of a subset")
    p.add_argument("--set", default="")
    p.add_argument("--kind", choices=["cl0", "cld"], default="cl0")

    p = sub.add_parser("check", parents=[structure, report], help="class membership with witness")
    p.add_argument("--class", dest="klass", choices=["c0", "cf", "kn"], required=True)
    p.add_argument("--ngon", type=int, default=3)
    p.add_argument("--f", default="harmonic", help="control family (harmonic, half-harmonic)")
    p.add_argument("--samples", type=_count(0), default=1000)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("indep", parents=[structure], help="d-independence of three subsets")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--perp", action="store_true")
    p.add_argument("--characterize", action="store_true")

    p = sub.add_parser("axioms", parents=[structure, report],
                       help="independence axiom suite on a structure")
    p.add_argument("--cap", type=_count(0), default=3)

    p = sub.add_parser("msa", parents=[structure], help="simply algebraic / minimal base analysis")
    p.add_argument("--base", required=True)
    p.add_argument("--ext", required=True)

    p = sub.add_parser("mult", parents=[structure], help="copies of an msa type over a set")
    p.add_argument("--over", required=True)
    p.add_argument("--type", dest="typefile", required=True,
                   help="structure file with a base annotation")

    p = sub.add_parser("gadget", parents=[report], help="build the deficiency-one gadget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("beatty", help="balanced 0/1 sequence")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--window", type=_count(0, CONSTRUCTION_CAP), default=0,
                   help="print this many entries")

    p = sub.add_parser("ex511", parents=[report], help="fan-join example construction")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--base-size", type=_count(0), default=1,
                   help="base points of the fan written to --out; the suite runs its own")
    p.add_argument("--out")

    p = sub.add_parser("ex512", parents=[report], help="double-cycle example construction")
    p.add_argument("--s", type=int, default=argparse.SUPPRESS)
    p.add_argument("--step", type=int, default=argparse.SUPPRESS)
    p.add_argument("--samples", type=_count(0), default=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")

    p = sub.add_parser("build", help="budgeted chain approximant")
    p.add_argument("--class", dest="klass", choices=["c0", "cf", "kn"], required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--m", type=int, default=1)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--f", default="harmonic")
    p.add_argument("--ngon", type=int, default=3)
    p.add_argument("--max-pattern", type=int, default=3)
    p.add_argument("--budget", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.add_argument("--log-out", default="")

    p = sub.add_parser("audit", parents=[structure, report],
                       help="extension-property audit of a structure")
    p.add_argument("--class", dest="klass", choices=["c0", "cf", "kn"], default="c0")
    p.add_argument("--f", default="harmonic")
    p.add_argument("--ngon", type=int, default=3)
    p.add_argument("--max-pattern", type=_count(0), default=3)
    p.add_argument("--max-base", type=_count(0), default=1)
    p.add_argument("--cap-per-task", type=_count(1), default=4)

    p = sub.add_parser("verify", parents=[report], help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative-control", action="store_true")
    p.add_argument("--out")
    p.add_argument("--option", type=_option, action="append", default=[],
                   help="suite option as key=value (int values)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
        if "file" in args:
            args.structure, _ = _load(args.file)
        return _dispatch(args)
    except SystemExit:  # --help and --version print, then stop
        return 0
    except (PredimlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _ids(text: str) -> list[int]:
    ids = []
    for tok in text.replace(",", " ").split():
        try:
            ids.append(int(tok))
        except ValueError:
            raise InputError(f"vertex id {tok!r} is not an integer") from None
    return ids


def _load(path: str):
    with open(path) as fh:
        return load_structure(fh.read())


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when there is none."""
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _report_exit(args, rep: VerificationReport, out: str | None = None) -> int:
    """Write the report to ``out``, or to stdout, and return the exit code."""
    _write(emit_report(rep, args.report), out)
    return 0 if rep.ok else 1


def _dispatch(args) -> int:
    cmd = args.command
    S = getattr(args, "structure", None)
    if cmd == "delta":
        print(delta(S, _ids(args.set)))
        return 0

    if cmd == "closure":
        ids = _ids(args.set)
        if args.kind == "cl0":
            res = cl0(S, ids)
            closure, dimension = sorted(res.closure), res.dimension
            trace = [sorted(t) for t in res.trace]
        else:
            closure, dimension = sorted(cld(S, ids)), dim(S, ids)
            trace = []
        if args.report == "machine":
            print(json.dumps({
                "kind": args.kind,
                "closure": closure,
                "dimension": dimension,
                "trace": trace,
                "ambient_relative": True,
            }, sort_keys=True))
        else:
            print(f"{args.kind}: {closure}")
            print(f"dimension (ambient-relative): {dimension}")
            if trace:
                print(f"absorption trace: {trace}")
        return 0

    if cmd == "check":
        if args.klass == "c0":
            res = in_C0(S)
        elif args.klass == "cf":
            f = make_control(args.f, S.signature.vertex_weight)
            res = in_Cf(S, f, samples=args.samples, seed=args.seed)
        else:
            res = in_Kn(S, args.ngon)
        rep = VerificationReport(suite=f"check-{args.klass}")
        rep.add(
            f"{args.klass}-membership",
            res.verdict,
            witness=None if res.witness is None else str(sorted(res.witness)),
            margin=res.margin,
            note=res.detail,
        )
        rep.seed = args.seed
        return _report_exit(args, rep.finalize())

    if cmd == "indep":
        a, b, c = _ids(args.a), _ids(args.b), _ids(args.c)
        print(f"d-independent (ambient-relative): {d_independent(S, a, b, c)}")
        if args.characterize:
            try:
                print(f"characterization: {check_lemma43_characterization(S, a, b, c)}")
            except ContractError as exc:
                print(f"characterization: not applicable ({exc})")
        if args.perp:
            try:
                print(f"perp: {perp(S, a, b, c)}")
            except ContractError as exc:
                print(f"perp: not applicable ({exc})")
        return 0

    if cmd == "axioms":
        return _report_exit(args, axiom_suite(S, size_cap=args.cap))

    if cmd == "msa":
        base, ext = _ids(args.base), _ids(args.ext)
        whole = set(base) | set(ext)
        sa = is_simply_algebraic(S, base, whole)
        print(f"simply algebraic: {sa}")
        if sa:
            print(f"minimally simply algebraic: {is_msa(S, base, whole)}")
            z1, y1 = msa_base(S, base, whole)
            print(f"minimal base: {sorted(z1)}; pattern: {sorted(y1)}")
        return 0

    if cmd == "mult":
        pattern, base = _load(args.typefile)
        if base is None:
            raise InputError("type file needs a base annotation line")
        cc = count_msa_copies(S, _ids(args.over), MsaType(pattern, base))
        print(f"multiplicity (ambient-relative): {cc.count}")
        for w in cc.copies:
            print(f"  copy: {sorted(w)}")
        print(f"free collection over the set: {cc.disjoint_over_base}")
        return 0

    if cmd == "gadget":
        g = build_gadget(args.n, args.m, args.r)
        _write(dump_structure(g.structure, base_ids=g.x_set), args.out)
        if g.degenerate:
            print(f"# DEGENERATE: {g.degenerate_reason}", file=sys.stderr)
        if args.verify:
            return _report_exit(args, verify_gadget(g))
        return 0

    if cmd == "beatty":
        seq = beatty(args.l, args.b)
        print("period:", " ".join(str(v) for v in seq.period))
        if args.window:
            print("window:", " ".join(str(seq.value(i)) for i in range(1, args.window + 1)))
        return 0

    if cmd == "ex511":
        rep = run_suite("ex511", r_values=(args.r,))
        if args.out:
            fan = build_fan_join(*_fan_instance(args.r, args.base_size, False, False), args.r)
            _write(dump_structure(fan.structure), args.out)
        return _report_exit(args, rep)

    if cmd == "ex512":
        given = {k: v for k, v in vars(args).items() if k in ("s", "step", "samples")}
        rep = run_suite("ex512", seed=args.seed, **given)
        if args.out:
            shape = inspect.signature(ex512_suite).parameters
            dc = build_double_cycle(*(given.get(k, shape[k].default) for k in ("s", "step")))
            _write(dump_structure(dc.structure), args.out)
        return _report_exit(args, rep)

    if cmd == "build":
        if args.klass == "kn":
            sig = polygon_signature(args.ngon)
        elif args.r == 2:
            sig = graph_signature(args.n, args.m)
        else:
            sig = hypergraph_signature(args.n, args.m, args.r)
        cfg = BuildConfig(
            sig,
            args.klass,
            max_pattern=args.max_pattern,
            budget=args.budget,
            seed=args.seed,
            control=make_control(args.f, args.n) if args.klass == "cf" else None,
            ngon=args.ngon if args.klass == "kn" else None,
        )
        res = build_generic(cfg)
        _write(dump_structure(res.structure), args.out)
        log = {
            "config": res.log.config_key,
            "steps": res.log.steps,
            "skipped_tasks": res.log.skipped_tasks,
            "digest": res.log.digest(),
        }
        _write(json.dumps(log, indent=1, sort_keys=True), args.log_out or args.out + ".log.json")
        print(f"built {len(res.structure.vertices)} vertices in "
              f"{len(res.log.steps)} steps; digest {res.log.digest()}")
        return 0

    if cmd == "audit":
        control = make_control(args.f, S.signature.vertex_weight) if args.klass == "cf" else None
        patterns = enumerate_class(
            S.signature, args.klass, args.max_pattern, control,
            args.ngon if args.klass == "kn" else None,
        )
        tasks, _ = enumerate_tasks(patterns, args.klass)
        tasks = [t for t in tasks if len(t.base_ids) <= args.max_base]
        audit = audit_extension_property(S, tasks, cap_per_task=args.cap_per_task)
        rep = VerificationReport(suite="audit")
        for e in audit.entries:
            rep.check(
                f"task:{e.task_key[:60]}",
                None if e.realized == e.embeddings_checked
                else f"{e.realized}/{e.embeddings_checked} realized",
                note=f"base size {e.base_size}",
            )
        return _report_exit(args, rep.finalize())

    if cmd == "verify":
        rep = run_suite(args.suite, seed=args.seed,
                        negative_control=args.negative_control, **dict(args.option))
        return _report_exit(args, rep, args.out)

    raise InputError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
