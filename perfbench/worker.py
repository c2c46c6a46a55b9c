"""One benchmark process: set up a workload, measure it, check its outputs.

``run.py`` starts this in a fresh interpreter for every measurement, so the
program's caches start cold.  It prints ``READY`` once the package is
imported and the inputs are generated and parsed (the parent times that as
set-up), then, unless ``--setup-only``, one JSON line with the result.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REF_ITERATIONS = 10_000
REF_INTERVAL_S = 0.05
# reference_loop's typical time on the 2-vCPU VM (Python 3.11.7) the
# baseline was recorded on; it only sets the scale of the reported times
REF_NOMINAL_S = 1.0e-3
REF_WINDOW = 5  # samples on each side that set the local speed


def reference_loop() -> float:
    """Seconds for a fixed pure-Python integer loop: the host's current speed.

    The shared host's speed drifts by tens of percent within seconds; this
    loop, timed every ``REF_INTERVAL_S`` while the workload runs, tracks that
    drift so that each measured time can be scaled to a fixed reference
    speed.  It allocates nothing the garbage collector tracks, so the
    program's heap does not slow it.
    """
    t0 = time.perf_counter()
    s = 0
    for i in range(REF_ITERATIONS):
        s += (i * i) % 7
    return time.perf_counter() - t0


class Speedometer:
    """Samples :func:`reference_loop` from a SIGALRM handler.

    ``paused`` is the time spent in the handler, which callers subtract
    from what they measure.
    """

    def __init__(self):
        self.at: list[float] = []
        self.samples: list[float] = []
        self.paused = 0.0

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(reference_loop())
        self.at.append(t0)
        self.paused += time.perf_counter() - t0

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a run shorter than one interval
            self._tick(None, None)

    def now(self) -> tuple[float, float]:
        """The clock and ``paused``, read with no handler run between the two."""
        while True:
            paused = self.paused
            t = time.perf_counter()
            if self.paused == paused:
                return t, paused

    def scale(self, t_start: float, t_end: float) -> float:
        """Factor taking a time measured in [t_start, t_end] to the reference speed.

        The local speed is the median loop time over the samples inside the
        interval, widened by ``REF_WINDOW`` samples on each side.
        """
        lo = max(bisect.bisect_left(self.at, t_start) - REF_WINDOW, 0)
        hi = bisect.bisect_right(self.at, t_end) + REF_WINDOW
        window = self.samples[lo:hi] or self.samples
        return REF_NOMINAL_S / statistics.median(window)


def _import_package() -> None:
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import predimlab

    if not Path(predimlab.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported predimlab from {predimlab.__file__}, not from {src}")


def _caps_in_effect() -> dict:
    from predimlab import closures, structures

    return {
        "PREDIMLAB_SS_CAP": structures.ss_cap_default(),
        "PREDIMLAB_CANON_CAP": structures.canon_cap_default(),
        "PREDIMLAB_TABLE_CUTOFF": closures._table_cutoff(),
    }


def measure(ops: list, repeats: list[int], min_rounds: int, seconds: float):
    """Repeat the round of ops until the next round would end past ``seconds``.

    Op ``i`` runs ``repeats[i]`` times back to back and its latency is the
    median of those runs.  Returns per-round wall times (the sum of the op
    latencies), per-op latencies, per-op values (None for an op that
    raised), errors by (round, op), the number of runs, the peak RSS after
    the first round, the median reference-loop time and the unscaled median
    round time.  Every time is scaled to the reference speed at the moment
    it was measured; time spent in the reference loop itself is left out.
    """
    rounds, values, errors = [], [], {}  # rounds: per op, (start, seconds) of each run
    rss_mib = None
    with Speedometer() as speed:
        begin = time.perf_counter()
        while True:
            row, runs = [], []
            for i, op in enumerate(ops):
                runs.append([])
                for _ in range(repeats[i]):
                    t0, p0 = speed.now()
                    try:
                        value = op()
                    except Exception as exc:  # an op failure is counted, not fatal
                        value = None
                        errors[len(rounds), i] = f"{type(exc).__name__}: {exc}"
                    t1, p1 = speed.now()
                    runs[-1].append((t0, t1 - t0 - (p1 - p0)))
                row.append(value)
            rounds.append(runs)
            values.append(row)
            if rss_mib is None:
                rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            elapsed = time.perf_counter() - begin - speed.paused
            if len(rounds) >= min_rounds and elapsed * (len(rounds) + 1) / len(rounds) > seconds:
                break
    latencies = [[statistics.median(dt * speed.scale(t0, t0 + dt) for t0, dt in op_runs)
                  for op_runs in runs] for runs in rounds]
    raw_wall = statistics.median(
        sum(statistics.median(dt for _, dt in op_runs) for op_runs in runs) for runs in rounds)
    return ([sum(row) for row in latencies], [x for row in latencies for x in row], values,
            errors, sum(repeats) * len(rounds), rss_mib, statistics.median(speed.samples),
            raw_wall)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--size", choices=["full", "tiny"], default="full")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true", help="also run the table/flow crossover probe")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS, crossover_probe

    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    workdir = ROOT / "perfbench" / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, args.size, workdir, tracer)
        wl.setup()
        ops = wl.ops()
        print("READY", flush=True)
        if args.setup_only:
            print(json.dumps({"ref_s": statistics.median(reference_loop() for _ in range(20))}))
            return 0
        walls, latencies, values, errors, runs, rss_mib, ref_s, raw_wall = measure(
            ops, wl.repeats(), wl.min_rounds, args.seconds)
        layers = tracer.metrics() if tracer else None  # before the checks add calls
        problems = dict(errors)
        problems.update(wl.check(values))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for (r, i), msg in sorted(problems.items()):
        print(f"op {i} of round {r} failed: {msg}", file=sys.stderr)

    result = {
        "attempted": runs,
        "failed": len(problems),
        "wall_s": statistics.median(walls),
        "rounds": len(walls),
        "op_geomean_ms": statistics.geometric_mean(latencies) * 1e3,
        "op_p99_ms": statistics.quantiles(latencies, n=100, method="inclusive")[98] * 1e3,
        "ops_per_s": len(latencies) / sum(walls),
        "peak_rss_mib": rss_mib,
        "ref_s": ref_s,
        "raw_wall_s": raw_wall,
        "python": sys.version.split()[0],
        "numpy": sys.modules["numpy"].__version__,
        "caps": _caps_in_effect(),
    }
    if layers is not None:
        result["layers"] = layers
    if args.probe:
        result["probe"] = crossover_probe(args.seed)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
