"""predimlab command line: structure checks, closures, gadget and example
builders, chain builds, and the named verification suites.

Exit codes: 0 all checks passed (PARTIAL and DEGENERATE count as non-fail),
1 at least one FAIL, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .builder import (
    BuildConfig,
    audit_extension_property,
    build_generic,
    enumerate_class,
)
from .classes import in_C0, in_Cf, in_Kn, make_control
from .closures import cl0, cld, dim
from .errors import InputError, PredimlabError
from .extensions import (
    MsaType,
    count_msa_copies,
    is_msa,
    is_simply_algebraic,
    msa_base,
)
from .gadgets import (
    beatty,
    build_double_cycle,
    build_fan_join,
    build_gadget,
    verify_gadget,
)
from .independence import axiom_suite, check_lemma43_characterization, d_independent, perp
from .reports import FAIL, PASS, VerificationReport, emit_report
from .structures import (
    FiniteStructure,
    Signature,
    delta,
    dump_structure,
    graph_signature,
    hypergraph_signature,
    load_structure,
    polygon_signature,
)
from .suites import run_suite


def _ids(text: str) -> list[int]:
    if not text:
        return []
    return [int(tok) for tok in text.replace(",", " ").split()]


def _load(path: str) -> FiniteStructure:
    with open(path) as fh:
        S, _ = load_structure(fh.read())
    return S


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _signature_from(args) -> Signature:
    if args.r == 2:
        return graph_signature(args.n, args.m)
    return hypergraph_signature(args.n, args.m, args.r)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="predimlab", description=__doc__)
    parser.add_argument("--version", action="version", version=f"predimlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="predimension of a vertex subset")
    p.add_argument("file")
    p.add_argument("--set", default="", help="vertex ids, comma or space separated")

    p = sub.add_parser("closure", help="intrinsic closure or d-closure of a subset")
    p.add_argument("file")
    p.add_argument("--set", default="")
    p.add_argument("--kind", choices=["cl0", "cld"], default="cl0")
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("check", help="class membership with witness")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", choices=["c0", "cf", "kn"], required=True)
    p.add_argument("--ngon", type=int, default=3)
    p.add_argument("--f", default="harmonic", help="control family (harmonic, half-harmonic)")
    p.add_argument("--cap", type=int, default=18, help="exhaustive cap for cf")
    p.add_argument("--samples", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("indep", help="d-independence of three subsets")
    p.add_argument("file")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--perp", action="store_true")
    p.add_argument("--characterize", action="store_true")

    p = sub.add_parser("axioms", help="independence axiom suite on a structure")
    p.add_argument("file")
    p.add_argument("--cap", type=int, default=3)
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("msa", help="simply algebraic / minimal base analysis")
    p.add_argument("file")
    p.add_argument("--base", required=True)
    p.add_argument("--ext", required=True)

    p = sub.add_parser("mult", help="copies of an msa type over a set")
    p.add_argument("file")
    p.add_argument("--over", required=True)
    p.add_argument("--type", dest="typefile", required=True,
                   help="structure file with a base annotation")

    p = sub.add_parser("gadget", help="build the deficiency-one gadget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--r", type=int, default=2)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--out")
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("beatty", help="balanced 0/1 sequence")
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--b", type=int, required=True)
    p.add_argument("--window", type=int, default=0, help="print this many entries")

    p = sub.add_parser("ex511", help="fan-join example construction")
    p.add_argument("--r", type=int, default=3)
    p.add_argument("--base-size", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("ex512", help="double-cycle example construction")
    p.add_argument("--s", type=int, default=73)
    p.add_argument("--step", type=int, default=6)
    p.add_argument("--samples", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--report", choices=["text", "machine"], default="text")

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

    p = sub.add_parser("audit", help="extension-property audit of a structure")
    p.add_argument("file")
    p.add_argument("--class", dest="klass", choices=["c0", "cf", "kn"], default="c0")
    p.add_argument("--f", default="harmonic")
    p.add_argument("--ngon", type=int, default=3)
    p.add_argument("--max-pattern", type=int, default=3)
    p.add_argument("--max-base", type=int, default=1)
    p.add_argument("--cap-per-task", type=int, default=4)
    p.add_argument("--report", choices=["text", "machine"], default="text")

    p = sub.add_parser("verify", help="run a named verification suite")
    p.add_argument("suite")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--negative-control", action="store_true")
    p.add_argument("--report", choices=["text", "machine"], default="text")
    p.add_argument("--out")
    p.add_argument("--option", action="append", default=[],
                   help="suite option as key=value (int values)")

    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except PredimlabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _report_exit(args, rep: VerificationReport) -> int:
    _emit(args, emit_report(rep, getattr(args, "report", "text")))
    return 0 if rep.ok else 1


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "delta":
        S = _load(args.file)
        print(delta(S, _ids(args.set)))
        return 0

    if cmd == "closure":
        S = _load(args.file)
        ids = _ids(args.set)
        if args.kind == "cl0":
            res = cl0(S, ids)
            closure, dimension = sorted(res.closure), res.dimension
            trace = [sorted(t) for t in res.trace]
        else:
            out = cld(S, ids)
            closure, dimension = sorted(out), dim(S, ids)
            trace = []
        if args.report == "machine":
            import json

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
        S = _load(args.file)
        if args.klass == "c0":
            res = in_C0(S)
        elif args.klass == "cf":
            f = make_control(args.f, S.signature.vertex_weight)
            res = in_Cf(S, f, exhaustive_cap=args.cap, samples=args.samples, seed=args.seed)
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
        from .errors import ContractError

        S = _load(args.file)
        a, b, c = _ids(args.a), _ids(args.b), _ids(args.c)
        result = d_independent(S, a, b, c)
        print(f"d-independent (ambient-relative): {result}")
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
        S = _load(args.file)
        rep = axiom_suite(S, size_cap=args.cap)
        return _report_exit(args, rep)

    if cmd == "msa":
        S = _load(args.file)
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
        S = _load(args.file)
        with open(args.typefile) as fh:
            pattern, base = load_structure(fh.read())
        if base is None:
            raise InputError("type file needs a base annotation line")
        t = MsaType(pattern, base)
        cc = count_msa_copies(S, _ids(args.over), t)
        print(f"multiplicity (ambient-relative): {cc.count}")
        for w in cc.copies:
            print(f"  copy: {sorted(w)}")
        print(f"free collection over the set: {cc.disjoint_over_base}")
        return 0

    if cmd == "gadget":
        g = build_gadget(args.n, args.m, args.r)
        text = dump_structure(g.structure, base_ids=g.x_set)
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
        if g.degenerate:
            print(f"# DEGENERATE: {g.degenerate_reason}", file=sys.stderr)
        if args.verify:
            rep = verify_gadget(g)
            sys.stdout.write(emit_report(rep, args.report))
            return 0 if rep.ok else 1
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
            from .classes import ControlFunction
            from .suites import _fan_instance

            B, base, b = _fan_instance(args.r, args.base_size, False, False)
            res = build_fan_join(B, base, b, args.r, ControlFunction.half_harmonic(1))
            with open(args.out, "w") as fh:
                fh.write(dump_structure(res.structure))
        return _report_exit(args, rep)

    if cmd == "ex512":
        rep = run_suite("ex512", s=args.s, step=args.step, samples=args.samples,
                        seed=args.seed)
        if args.out:
            dc = build_double_cycle(args.s, args.step)
            with open(args.out, "w") as fh:
                fh.write(dump_structure(dc.structure))
        return _report_exit(args, rep)

    if cmd == "build":
        sig = polygon_signature(args.ngon) if args.klass == "kn" else _signature_from(args)
        control = make_control(args.f, args.n) if args.klass == "cf" else None
        cfg = BuildConfig(
            sig,
            args.klass,
            max_pattern=args.max_pattern,
            budget=args.budget,
            seed=args.seed,
            control=control,
            ngon=args.ngon if args.klass == "kn" else None,
        )
        res = build_generic(cfg)
        with open(args.out, "w") as fh:
            fh.write(dump_structure(res.structure))
        log_path = args.log_out or (args.out + ".log.json")
        import json

        with open(log_path, "w") as fh:
            json.dump(
                {
                    "config": res.log.config_key,
                    "steps": res.log.steps,
                    "skipped_tasks": res.log.skipped_tasks,
                    "digest": res.log.digest(),
                },
                fh,
                indent=1,
                sort_keys=True,
            )
        print(f"built {len(res.structure.vertices)} vertices in "
              f"{len(res.log.steps)} steps; digest {res.log.digest()}")
        return 0

    if cmd == "audit":
        S = _load(args.file)
        from .builder import enumerate_tasks

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
            rep.add(
                f"task:{e.task_key[:60]}",
                PASS if e.realized == e.embeddings_checked else FAIL,
                witness=None if e.realized == e.embeddings_checked
                else f"{e.realized}/{e.embeddings_checked} realized",
                note=f"base size {e.base_size}",
            )
        return _report_exit(args, rep.finalize())

    if cmd == "verify":
        options = {}
        for item in args.option:
            key, _, val = item.partition("=")
            options[key.replace("-", "_")] = int(val)
        rep = run_suite(args.suite, seed=args.seed,
                        negative_control=args.negative_control, **options)
        return _report_exit(args, rep)

    raise InputError(f"unknown command {cmd!r}")


if __name__ == "__main__":
    sys.exit(main())
