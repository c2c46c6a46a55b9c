"""The benchmark's workloads: inputs made from a seed, one round of ops, checks.

Every workload is a closed loop with one caller: an op starts when the one
before it has returned.  A run repeats the same round of ops; the first
round starts with cold caches, as a fresh CLI process does.

* ``verify-suites``: the 11 suites through ``run_suite``, one op per suite
  with its machine report emitted and digested, then the three exit-code
  checks of the acceptance gate through ``cli.main``, one op each.
* ``build-audit``: ``cli.main(["build", ...])`` and then ``main(["audit",
  ...])`` on the written file; one op is one build plus its audit.
* ``closure-queries``: a seeded deck of structures written as predimlab/1
  text and loaded during set-up; one op is one library query.

The package is imported only after the tracer (if any) is installed, so the
functions captured here are the traced ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
import random
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SUITE_NAMES = (
    "beatty", "gadget", "lemma49", "path-fact", "ex511", "ex512", "msa-bound",
    "submodularity", "axioms", "extension-property", "kn",
)

# Acceptance-gate options of tests/test_acceptance.py, except two suites:
# submodularity enumerates graphs to 6 vertices instead of 7 and axioms
# checks the Lemma 4.3 equivalence up to size 3 instead of 4.  At acceptance
# size those two take about 55 s together, more than one run can spend.
SUITE_OPTIONS = {
    "full": {
        "beatty": {"b_max": 40},
        "gadget": {"r2_max": 10, "r3_max": 6},
        "lemma49": {},
        "path-fact": {},
        "ex511": {"r_values": (3, 4)},
        "ex512": {"s": 73, "step": 6, "samples": 1000},
        "msa-bound": {"trials": 200},
        "submodularity": {"max_n": 6, "oracle_cases": 10_000, "oracle_max_n": 14},
        "axioms": {"size_cap": 2, "lemma43_cap": 3},
        "extension-property": {"budget": 200, "max_pattern": 3},
        "kn": {"ngons": (3, 4, 5)},
    },
    # the light options of the negative-control acceptance test
    "tiny": {
        "beatty": {"b_max": 6},
        "gadget": {},
        "lemma49": {},
        "path-fact": {},
        "ex511": {},
        "ex512": {"samples": 50},
        "msa-bound": {"trials": 4},
        "submodularity": {"oracle_cases": 200, "max_n": 5},
        "axioms": {"lemma43_cap": 2},
        "extension-property": {"budget": 40},
        "kn": {},
    },
}

# (name, build arguments, audit arguments, expected audit exit code).  The
# max-pattern-4 approximant is too small to realize every task, so its audit
# reports FAIL (exit 1) at every seed; the other two realize all of them.
BUILDS = {
    "full": (
        ("c0-mp3-b200", ["--class", "c0", "--max-pattern", "3", "--budget", "200"],
         ["--class", "c0", "--max-pattern", "3", "--max-base", "1"], 0),
        ("cf-harmonic-b50", ["--class", "cf", "--f", "harmonic", "--max-pattern", "3",
                             "--budget", "50"],
         ["--class", "cf", "--f", "harmonic", "--max-pattern", "3", "--max-base", "1"], 0),
        ("c0-mp4-b40", ["--class", "c0", "--max-pattern", "4", "--budget", "40"],
         ["--class", "c0", "--max-pattern", "4", "--max-base", "1"], 1),
    ),
    "tiny": (
        ("c0-mp3-b20", ["--class", "c0", "--max-pattern", "3", "--budget", "20"],
         ["--class", "c0", "--max-pattern", "3", "--max-base", "0"], 0),
    ),
}

# Structure sizes of one closure-queries deck, per family (graphs and
# 3-uniform hypergraphs), with the number of structures of each size.  The
# band 12..20 straddles the table/flow engine cutoff and ends at the table
# engine's limit, TABLE_MAX_BITS; with the small sizes it holds most of the
# queries, so the median query is a small one.  The slowest queries fall on
# the 256- and 400-vertex structures; six of each per family keep that tail
# from hinging on one random structure.
DECK_SIZES = {
    "full": ((6, 3), (9, 3), *((n, 2) for n in range(12, 21)), (32, 2), (64, 2), (128, 2),
             (256, 6), (400, 6)),
    "tiny": ((6, 1), (12, 1), (17, 1), (32, 1)),
}
# Fixed query mix per structure: 24 queries, shuffled per structure.
QUERY_MIX = (("dim",) * 6 + ("cl0",) * 5 + ("cld",) * 5 + ("self_sufficient",) * 4
             + ("is_d_closed",) * 3 + ("in_C0",))
PROBE_SIZES = (12, 14, 16, 18, 20)


def _load_fingerprint() -> dict:
    return json.loads((HERE / "fingerprint.json").read_text())


class Workload:
    min_rounds = 1

    def __init__(self, seed: int, size: str, workdir: Path, tracer=None):
        self.seed = seed
        self.size = size
        self.workdir = workdir
        self.tracer = tracer
        # the seed-0 digests pin the behaviour at full size only
        self.fingerprint = _load_fingerprint()[self.name] if seed == 0 and size == "full" else None

    def setup(self) -> None:
        raise NotImplementedError

    def ops(self) -> list:
        """One round of ops; each returns a value that :meth:`check` inspects."""
        raise NotImplementedError

    def repeats(self) -> list[int]:
        """How many times each op runs back to back; its latency is their median."""
        return [1] * len(self.ops())

    def check(self, values: list[list]) -> dict[tuple[int, int], str]:
        """Problems by (round, op index); ``values[r][i]`` is None for ops that raised."""
        raise NotImplementedError


# -- verify-suites ---------------------------------------------------------------


class VerifySuites(Workload):
    name = "verify-suites"
    # the exit-code contract end to end through the CLI: no FAIL, a FAIL, an
    # input error and a usage error
    CLI_CHECKS = ((["verify", "kn"], 0), (["verify", "kn", "--negative-control"], 1),
                  (["verify", "does-not-exist"], 2), (["verify", "kn", "--seed", "x"], 2))
    # Suites that finish in milliseconds, and the CLI checks, run nine times
    # per round: a single run that short is mostly timer and cache noise.
    FAST = ("gadget", "lemma49", "path-fact", "ex511", "kn")
    FAST_REPEATS = 9

    def setup(self) -> None:
        from predimlab import emit_report, run_suite
        from predimlab.cli import main

        self._run_suite, self._emit, self._main = run_suite, emit_report, main
        self._options = SUITE_OPTIONS[self.size]

    def ops(self) -> list:
        return ([functools.partial(self._suite, name) for name in SUITE_NAMES]
                + [functools.partial(self._cli, argv) for argv, _ in self.CLI_CHECKS])

    def repeats(self) -> list[int]:
        fast = [name in self.FAST for name in SUITE_NAMES] + [True] * len(self.CLI_CHECKS)
        return [self.FAST_REPEATS if f else 1 for f in fast]

    def _suite(self, name: str):
        span = self.tracer.span(f"suites.{name}") if self.tracer else contextlib.nullcontext()
        with span:
            rep = self._run_suite(name, seed=self.seed, **self._options[name])
            self._emit(rep, "machine")
            return rep.ok, rep.digest()

    def _cli(self, argv: list) -> int:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return self._main(argv)

    def check(self, values):
        problems = {}
        for r, row in enumerate(values):
            for i, (name, value) in enumerate(zip(SUITE_NAMES, row)):
                if value is None:
                    continue
                ok, digest = value
                if not ok:
                    problems[r, i] = f"{name}: report has a FAIL"
                elif self.fingerprint is not None and digest != self.fingerprint[name]:
                    problems[r, i] = (f"{name}: digest {digest} differs from the seed-0 "
                                      f"fingerprint {self.fingerprint[name]}")
                elif values[0][i] is not None and digest != values[0][i][1]:
                    problems[r, i] = f"{name}: report differs from the first round's"
            for i, ((argv, want), rc) in enumerate(zip(self.CLI_CHECKS, row[len(SUITE_NAMES):]),
                                                   start=len(SUITE_NAMES)):
                if rc is not None and rc != want:
                    problems[r, i] = f"predimlab {' '.join(argv)} exited {rc}, not {want}"
        return problems


# -- build-audit --------------------------------------------------------------------


class BuildAudit(Workload):
    name = "build-audit"
    min_rounds = 2  # every later round replays the first one byte for byte

    def setup(self) -> None:
        from predimlab.cli import main

        self._main = main
        self._configs = BUILDS[self.size]

    def ops(self) -> list:
        return [functools.partial(self._build_audit, *cfg[:3]) for cfg in self._configs]

    def _build_audit(self, name: str, build_args: list, audit_args: list):
        out = self.workdir / f"{name}.pdl"
        log = self.workdir / f"{name}.log.json"
        with contextlib.redirect_stdout(io.StringIO()) as text:
            rc_build = self._main(["build", *build_args, "--seed", str(self.seed),
                                   "--out", str(out), "--log-out", str(log)])
            rc_audit = self._main(["audit", str(out), *audit_args])
        value = {"rc_build": rc_build, "rc_audit": rc_audit, "log_digest": None, "replay": None}
        if rc_build == 0:
            log_bytes = log.read_bytes()
            value["log_digest"] = json.loads(log_bytes)["digest"]
            value["replay"] = hashlib.sha256(
                log_bytes + out.read_bytes() + text.getvalue().encode()).hexdigest()
        return value

    def check(self, values):
        problems = {}
        for r, row in enumerate(values):
            for i, ((name, _, _, want_audit), value) in enumerate(zip(self._configs, row)):
                if value is None:
                    continue
                first = values[0][i]
                if value["rc_build"] != 0:
                    problems[r, i] = f"{name}: build exited {value['rc_build']}"
                elif value["rc_audit"] != want_audit:
                    problems[r, i] = f"{name}: audit exited {value['rc_audit']}, not {want_audit}"
                elif (self.fingerprint is not None
                      and value["log_digest"] != self.fingerprint[name]):
                    problems[r, i] = (f"{name}: build log digest {value['log_digest']} differs "
                                      f"from the seed-0 fingerprint {self.fingerprint[name]}")
                elif first is not None and value["replay"] != first["replay"]:
                    problems[r, i] = f"{name}: replay is not byte-identical to the first build"
        return problems


# -- closure-queries ------------------------------------------------------------------


def _planted_sets(rng: random.Random, n: int, count: int, size: int) -> list[list[int]]:
    """Disjoint random vertex sets, so that no two dense spots overlap."""
    order = rng.sample(range(n), n)
    return [sorted(order[k * size:(k + 1) * size]) for k in range(min(count, n // size))]


def _random_graph(rng: random.Random, n: int):
    """Sparse graph (n=2, m=1) with planted K4s, and the planted vertex sets."""
    from predimlab import graph

    planted = _planted_sets(rng, n, max(1, n // 12), 4)
    edges = {(a, b) for q in planted for k, a in enumerate(q) for b in q[k + 1:]}
    while len(edges) < int(1.3 * n):
        a, b = sorted(rng.sample(range(n), 2))
        edges.add((a, b))
    return graph(sorted(edges), vertices=range(n)), planted


def _random_hypergraph(rng: random.Random, n: int):
    """Sparse 3-uniform hypergraph (n=2, m=1) with planted dense 5-sets."""
    from predimlab import hypergraph

    planted = _planted_sets(rng, n, max(1, n // 15), 5)
    triples = {t for q in planted for t in itertools.combinations(q, 3) if rng.random() < 0.6}
    while len(triples) < int(0.7 * n):
        triples.add(tuple(sorted(rng.sample(range(n), 3))))
    return hypergraph(sorted(triples), vertices=range(n), n=2, m=1), planted


def _query_set(rng: random.Random, n: int, planted: list) -> list[int]:
    """One to three vertices, half the time inside a planted dense set."""
    k = rng.randint(1, 3)
    pool = rng.choice(planted) if rng.random() < 0.5 else range(n)
    return sorted(rng.sample(list(pool), k))


def _canonical(op: str, result):
    """An engine-independent form of a query answer."""
    if op == "cl0":
        return result.closure, result.dimension
    if op == "in_C0":
        return result.verdict, result.witness
    return result


class ClosureQueries(Workload):
    name = "closure-queries"

    def setup(self) -> None:
        import predimlab

        rng = random.Random(f"closure-queries:{self.seed}")
        self.structures = []  # (structure, [(op, X), ...])
        specs = [(family, n, copy) for family in (_random_graph, _random_hypergraph)
                 for n, copies in DECK_SIZES[self.size] for copy in range(copies)]
        for family, n, copy in specs:
            S, planted = family(rng, n)
            path = self.workdir / f"{family.__name__}-{n}-{copy}.pdl"
            path.write_text(predimlab.dump_structure(S))
            mix = list(QUERY_MIX)
            rng.shuffle(mix)
            queries = [(op, [] if op == "in_C0" else _query_set(rng, n, planted)) for op in mix]
            self.structures.append((path, queries))
        self.structures = [(predimlab.load_structure(path.read_text())[0], queries)
                           for path, queries in self.structures]
        self._fns = {op: getattr(predimlab, op) for op in set(QUERY_MIX)}

    def ops(self) -> list:
        out = []
        for S, queries in self.structures:
            for op, X in queries:
                if op == "in_C0":
                    out.append(functools.partial(self._fns[op], S))
                else:
                    out.append(functools.partial(self._fns[op], S, X))
        return out

    def _queries(self):
        for S, queries in self.structures:
            for op, X in queries:
                yield S, op, X

    def check(self, values):
        import predimlab as P

        problems = {}
        first = values[0]
        for i, (S, op, X) in enumerate(self._queries()):
            if first[i] is None:
                continue
            got = _canonical(op, first[i])
            if len(S) <= P.closures.TABLE_MAX_BITS:
                for engine in ("table", "flow"):
                    want = _recompute(P, S, op, X, engine)
                    if want != got:
                        problems[0, i] = (f"{op}{X} on {len(S)} vertices: {got} but "
                                          f"engine={engine} gives {want}")
                        break
            else:
                bad = _inconsistency(P, S, op, X, got)
                if bad:
                    problems[0, i] = f"{op}{X} on {len(S)} vertices: {bad}"
        for r in range(1, len(values)):
            for i, (value, ref) in enumerate(zip(values[r], first)):
                if value is not None and ref is not None and value != ref:
                    problems[r, i] = "answer differs from the first round's"
        return problems


def _recompute(P, S, op: str, X, engine: str):
    if op == "in_C0":
        # C0 membership is dim(empty) >= 0; a violator is the least minimizer
        if P.dim(S, [], engine=engine) >= 0:
            return "PASS", None
        return "FAIL", P.cl0(S, [], engine=engine).closure
    return _canonical(op, getattr(P, op)(S, X, engine=engine))


def _inconsistency(P, S, op: str, X, got) -> str | None:
    """Engine-free identities between the answers, for ambients above the table cap."""
    X = frozenset(X)
    if op == "in_C0":
        verdict, witness = got
        least = P.cl0(S, [])
        if (verdict == "PASS") != (P.dim(S, []) >= 0):
            return f"verdict {verdict} disagrees with dim(empty)"
        if verdict == "FAIL" and witness != least.closure:
            return "violator is not the least minimizer"
        return None
    d = P.dim(S, X)
    closure = P.cl0(S, X).closure
    if op == "dim":
        return None if P.delta(S, closure) == got else "delta(cl0(X)) != dim(X)"
    if op == "cl0":
        c, dimension = got
        if not X <= c or P.delta(S, c) != d or dimension != d:
            return "cl0(X) is not a minimizer over X"
        return None if c <= P.cld(S, X) else "cl0(X) is not inside cld(X)"
    if op == "cld":
        if not closure <= got or P.delta(S, got) != d:
            return "cld(X) is not a maximal minimizer over X"
        return None
    if op == "self_sufficient":
        holds, witness = got
        if holds != (d == P.delta(S, X)):
            return "self_sufficient disagrees with dim"
        return None if holds or witness == closure else "witness is not cl0(X)"
    if op == "is_d_closed":
        return None if got == (P.cld(S, X) == X) else "is_d_closed disagrees with cld"
    raise ValueError(op)


def crossover_probe(seed: int) -> dict[int, tuple[float, float]]:
    """Median warm ``dim`` latency in microseconds, (table, flow), per size."""
    import predimlab as P

    rng = random.Random(f"crossover:{seed}")
    out = {}
    for n in PROBE_SIZES:
        cases = []
        for family in (_random_graph, _random_hypergraph):
            S, planted = family(rng, n)
            cases += [(S, _query_set(rng, n, planted)) for _ in range(10)]
        medians = []
        for engine in ("table", "flow"):
            for S, X in cases[::10]:
                P.dim(S, X, engine=engine)  # builds the table or the network
            lat = []
            for S, X in cases:
                t0 = time.perf_counter()
                P.dim(S, X, engine=engine)
                lat.append(time.perf_counter() - t0)
            medians.append(statistics.median(lat) * 1e6)
        out[n] = tuple(medians)
    return out


WORKLOADS = {w.name: w for w in (VerifySuites, BuildAudit, ClosureQueries)}
