"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cancel --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the library is imported from `src/` next
to this directory.  The measurement is a closed loop with one client on
one thread: each query starts when the previous one returns.  Answers are
checked outside the timed region; a wrong answer or a raised exception
counts as a failed query and the loop goes on.

With `--trace 0` the run measures end-to-end metrics for `--seconds`
seconds (stopping on a cycle boundary, see workloads.py).  Set-up is
timed in PROBES fresh processes plus this one, and the median reported.
With `--trace 1` it runs a fixed list of the workload's queries once
untraced and once traced, prints the per-layer metrics and writes the
spans to `.perfbench/` in the checkout.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

from speed import SpeedGauge

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

PROBES = 4  # fresh processes that time set-up, besides the measuring one
PROBE_TIMEOUT_S = 120
# A run with more wrong answers than this share is not a valid measurement;
# fewer are still counted in `failed` and `ok_ratio`.
MAX_FAILED_RATIO = 0.01

END_TO_END = (
    ("setup_s", "s"),
    ("queries_per_s", "1/s"),
    ("query_p50_ms", "ms"),
    ("query_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("ok_ratio", "ratio"),
)


def require_library() -> None:
    if not (SRC / "transword" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no library at {SRC}/transword; run from a checkout")


def use_checkout_library() -> None:
    """Import `transword` from this checkout's `src/` and nowhere else."""
    require_library()
    sys.path.insert(0, str(SRC))
    import transword

    if Path(transword.__file__).resolve().parent != SRC / "transword":
        raise SystemExit(f"perfbench: imported transword from {transword.__file__}")


def timed_setup(workload: str, seed: int):
    """Import the library and build the workload's inputs:
    (workload, speed-scaled seconds)."""
    gauge = SpeedGauge()
    before = gauge.factor()
    start = time.perf_counter()
    use_checkout_library()
    import workloads

    wl = workloads.build(workload, seed)
    seconds = time.perf_counter() - start
    after = gauge.factor()
    return wl, seconds * (before + after) / 2


def probe_setup(workload: str, seed: int) -> float:
    """Set-up seconds measured in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
    )
    if proc.returncode:
        raise SystemExit(f"perfbench: set-up probe failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


class Checker:
    """Runs queries and counts the ones that fail."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: Counter[str] = Counter()

    def run(self, query) -> float:
        """Run one query; return its latency in seconds."""
        start = time.perf_counter()
        try:
            answer = query.run()
        except Exception as exc:  # a failed query must not stop the run
            latency = time.perf_counter() - start
            if not self.errors:
                traceback.print_exc(file=sys.stderr)
            self.errors[type(exc).__name__] += 1
            ok = False
        else:
            latency = time.perf_counter() - start
            ok = answer == query.expected
            if not ok:
                self.errors["wrong answer"] += 1
        self.attempted += 1
        self.failed += not ok
        return latency

    def correct(self) -> bool:
        return self.attempted > 0 and self.failed <= MAX_FAILED_RATIO * self.attempted


def run_scaled(queries, checker: Checker, gauge: SpeedGauge) -> list[float]:
    """Run queries in order; return their latencies, each scaled by the
    mean of the gauge's factors just before and just after it."""
    scaled = []
    before = gauge.factor()
    for q in queries:
        latency = checker.run(q)
        after = gauge.factor()
        scaled.append(latency * (before + after) / 2)
        before = after
    return scaled


def measure(wl, seconds: float, checker: Checker) -> tuple[list[float], float]:
    """Closed loop over the workload's queries, cycle by cycle, until
    `seconds` of wall time have passed; returns the speed-scaled latencies
    and the loop's wall time."""
    gauge = SpeedGauge()
    latencies: list[float] = []
    start = time.perf_counter()
    i = 0
    while True:
        cycle = [wl.queries[(i + j) % len(wl.queries)] for j in range(wl.cycle)]
        latencies += run_scaled(cycle, checker, gauge)
        i += wl.cycle
        if time.perf_counter() - start >= seconds:
            return latencies, time.perf_counter() - start


def warm_up(queries) -> None:
    """Run queries without counting them, so lazy set-up and caches are
    filled before timing."""
    warm = Checker()
    for q in queries:
        warm.run(q)


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    setups = [probe_setup(workload, seed) for _ in range(PROBES)]
    wl, setup = timed_setup(workload, seed)
    setups.append(setup)
    warm_up(wl.queries[:1])
    checker = Checker()
    latencies, elapsed = measure(wl, seconds, checker)
    # a query the loop reached more than once counts once, with the median
    # of its latencies, so a percentile does not land on one noisy repeat
    repeats = defaultdict(list)
    for k, t in enumerate(latencies):
        repeats[k % len(wl.queries)].append(t * 1e3)
    per_query_ms = [statistics.median(ts) for ts in repeats.values()]
    values = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(latencies) / sum(latencies),
        "query_p50_ms": statistics.median(per_query_ms),
        "query_p90_ms": statistics.quantiles(per_query_ms, n=10)[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_ratio": 1 - checker.failed / checker.attempted,
    }
    print(
        f"workload={workload} seed={seed} queries={checker.attempted} "
        f"distinct={len(per_query_ms)} cycles={checker.attempted // wl.cycle} "
        f"loop_s={elapsed:.3f} "
        f"setup_runs={len(setups)}"
    )
    report_failures(checker)
    return result(checker, {k: (values[k], unit) for k, unit in END_TO_END})


def traced(workload: str, seed: int) -> dict:
    from tracing import LAYER_METRICS, Tracer, layer_metrics, write_spans

    wl, _ = timed_setup(workload, seed)
    queries = wl.queries[: wl.traced_queries]
    warm_up(queries)
    checker = Checker()
    gauge = SpeedGauge()
    untraced = sum(run_scaled(queries, checker, gauge))
    traced_s = 0.0
    with Tracer() as tracer:
        for i, q in enumerate(queries):
            tracer.query = i
            traced_s += run_scaled([q], checker, gauge)[0]
    values = layer_metrics(tracer)
    values["trace.overhead_ratio"] = traced_s / untraced
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-seed{seed}.json"
    write_spans(tracer, spans_path)
    print(
        f"workload={workload} seed={seed} traced_queries={len(queries)} "
        f"spans={len(tracer.spans)} untraced_s={untraced:.3f} traced_s={traced_s:.3f} "
        f"spans_file={spans_path.relative_to(ROOT)}"
    )
    report_failures(checker)
    return result(checker, {k: (values[k], unit) for k, unit in LAYER_METRICS})


def report_failures(checker: Checker) -> None:
    ratio = checker.failed / checker.attempted
    kinds = ", ".join(f"{k}: {n}" for k, n in sorted(checker.errors.items()))
    print(
        f"failed_ratio={ratio:.6f} (failed {checker.failed} of {checker.attempted})"
        + (f" [{kinds}]" if kinds else "")
    )


def result(checker: Checker, metrics: dict[str, tuple[float, str]]) -> dict:
    return {
        "correct": checker.correct(),
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    require_library()
    if args.trace:
        out = traced(args.workload, args.seed)
    else:
        out = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
