#!/usr/bin/env python3
"""predimlab benchmark: one workload, measured, checked, one JSON result line.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-suites --seed 0 --seconds 20 --trace 0

Workloads are ``verify-suites``, ``build-audit`` and ``closure-queries``
(see ``workloads.py``).  ``--trace 0`` prints the end-to-end metrics:

* ``setup_s``: median over several fresh interpreters of the time from
  start until the package is imported and the inputs are made and parsed;
* ``wall_s``: median over the run's rounds of the time one round of the
  workload's ops takes (a run repeats the round until ``--seconds`` is
  spent, at least once, and build-audit at least twice);
* ``op_geomean_ms`` / ``op_p99_ms``: geometric mean and 99th percentile
  of op latency over the run (an op is a suite or CLI call, a build plus its
  audit, or a query).  The geometric mean stands in for the median: the
  median of verify-suites' 15 unlike ops is one 25 ms op whose time varies
  by 15% from process to process, while the geometric mean weighs every op
  alike and is as steady as ``wall_s``;
* ``ops_per_s``: ops completed per second of the measured phase;
* ``peak_rss_mib``: peak resident set of the workload process after its
  first round.

Times are reported at a fixed reference speed.  The speed of the shared
host drifts by tens of percent within seconds, which no amount of
repetition inside a 20 s run averages out.  So each worker also times a
fixed pure-Python loop every 50 ms (``worker.reference_loop``) and scales
each op's latency by ``REF_NOMINAL_S`` over the loop's median time around
that op; set-up is scaled by the loop's time in the same process.  The raw
round time, raw set-up time and loop time are printed on the stamp line.

``--trace 1`` runs the workload twice in fresh interpreters, untraced and
then traced, and prints the per-layer metrics of the traced run (in raw
seconds, which include the ~2% the reference loop takes), the table/flow
crossover probe of the untraced run and the tracing overhead (traced minus
untraced ``wall_s``, both scaled).

Every measurement runs in a fresh interpreter with ``PREDIMLAB_*`` removed
from the environment and BLAS/OpenMP pinned to one thread.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
line before it stamps the revision, Python and numpy versions, CPU count,
the caps in effect and the raw values.  Failed ops (exceptions, wrong exit
codes, a FAIL verdict, a digest or answer mismatch) are counted in
``failed``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import REF_NOMINAL_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("verify-suites", "build-audit", "closure-queries")
SETUP_SAMPLES = 5
DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
UNITS = {"wall_s": "s", "op_geomean_ms": "ms", "op_p99_ms": "ms", "ops_per_s": "1/s",
         "peak_rss_mib": "MiB"}


class BenchError(Exception):
    pass


def hermetic_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PREDIMLAB_")}
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def revision() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        out = None
    if out is not None and out.returncode == 0:
        return out.stdout.strip()
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


class Child:
    """A worker process; ``ready_s`` is the time from spawn to READY."""

    def __init__(self, argv: list[str], env: dict, deadline: float):
        self.deadline = deadline
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
        line = self._readline()
        self.ready_s = time.perf_counter() - t0
        if line.strip() != "READY":
            self.kill()
            raise BenchError(f"worker did not get ready: {line!r}")

    def _readline(self) -> str:
        left = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(left, 0))
        if not ready:
            self.kill()
            raise BenchError("worker timed out")
        return self.proc.stdout.readline()

    def result(self) -> dict:
        try:
            out, _ = self.proc.communicate(timeout=max(self.deadline - time.monotonic(), 0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise BenchError("worker timed out") from None
        lines = out.strip().splitlines()
        if self.proc.returncode != 0 or not lines:
            raise BenchError(f"worker exited {self.proc.returncode}")
        return json.loads(lines[-1])

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def run_worker(argv, env, deadline) -> tuple[float, dict]:
    child = Child(argv, env, deadline)
    try:
        return child.ready_s, child.result()
    finally:
        child.kill()


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every workload, for the smoke test")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "predimlab" / "__init__.py").is_file():
        print(f"error: no predimlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the build: byte-compile once so that no measured interpreter compiles
    if not compileall.compile_dir(ROOT / "src", quiet=1) or \
            not compileall.compile_dir(HERE, quiet=1, maxlevels=0):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    env = hermetic_env()
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--size", args.size]
    try:
        if args.trace:
            _, plain = run_worker(base + ["--probe"], env, deadline)
            _, traced = run_worker(base + ["--trace"], env, deadline)
            results = [plain, traced]
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
            for n, (table_us, flow_us) in plain["probe"].items():
                metrics[f"closures.table_dim_us.n{n}"] = {"value": table_us, "unit": "us"}
                metrics[f"closures.flow_dim_us.n{n}"] = {"value": flow_us, "unit": "us"}
            metrics["trace.overhead_s"] = {"value": traced["wall_s"] - plain["wall_s"],
                                           "unit": "s"}
            raw = {"wall_s": [plain["raw_wall_s"], traced["raw_wall_s"]]}
        else:
            samples = [run_worker(base + ["--setup-only"], env, deadline)
                       for _ in range(SETUP_SAMPLES - 1)]
            ready_s, res = run_worker(base, env, deadline)
            samples.append((ready_s, res))
            results = [res]
            setup = [t * REF_NOMINAL_S / r["ref_s"] for t, r in samples]
            metrics = {"setup_s": {"value": statistics.median(setup), "unit": "s"}}
            for key, unit in UNITS.items():
                metrics[key] = {"value": res[key], "unit": unit}
            raw = {"wall_s": res["raw_wall_s"], "setup_s": statistics.median(t for t, _ in samples)}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    stamp = {
        "revision": revision(),
        "python": results[0]["python"],
        "numpy": results[0]["numpy"],
        "cpu_count": os.cpu_count(),
        "caps": results[0]["caps"],
        "threads": {k: env[k] for k in THREAD_VARS},
        "rounds": [r["rounds"] for r in results],
        "ref_loop_s": [r["ref_s"] for r in results],
        "raw": raw,
    }
    print("stamp " + json.dumps(stamp, sort_keys=True))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
