"""Scaling series: how query time grows with input size.  Reported, never
gated.

    python3 perfbench/scaling.py --seed 1

Prints one JSON object per row:
- `cancel`, n = 10 ... 160: `reduce(w . w^-1)` where w concatenates n
  seeded random words, WORDS_PER_SIZE words per n; median seconds per query.
- `separation`, k = 6 ... 12: `separation_pattern` for every subset of
  `make_family(k)`; total seconds for all 2^k subsets and median per query.

Times are scaled by the speed gauge, as in run.py.
"""

from __future__ import annotations

import argparse
import itertools
import json
import random
import statistics
import time

import run
from speed import SpeedGauge

CANCEL_SIZES = (10, 20, 40, 80, 160)
WORDS_PER_SIZE = 3
SEPARATION_KS = range(6, 13)


def timed(gauge: SpeedGauge, fn) -> float:
    factor = gauge.factor()
    start = time.perf_counter()
    fn()
    return (time.perf_counter() - start) * factor


def cancel_rows(tw, randwords, rng: random.Random, gauge: SpeedGauge):
    for n in CANCEL_SIZES:
        times, segments = [], []
        for _ in range(WORDS_PER_SIZE):
            w = tw.SchematicWord(
                tuple(s for _ in range(n) for s in randwords.random_word(rng).segments)
            )
            product = tw.SchematicWord(w.segments + tw.invert(w).segments)
            times.append(timed(gauge, lambda: tw.reduce(product)))
            segments.append(len(w.segments))
        yield {
            "series": "cancel", "n": n, "queries": len(times),
            "median_segments": statistics.median(segments),
            "query_median_s": statistics.median(times),
        }


def separation_rows(tw, gauge: SpeedGauge):
    for k in SEPARATION_KS:
        fam = tw.make_family(k)
        times = [
            timed(gauge, lambda sub=sub: tw.separation_pattern(fam, sub))
            for r in range(k + 1)
            for sub in itertools.combinations(fam.names, r)
        ]
        yield {
            "series": "separation", "k": k, "queries": len(times),
            "total_s": sum(times), "query_median_s": statistics.median(times),
        }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args(argv)
    run.use_checkout_library()
    import transword as tw
    from transword import randwords

    gauge = SpeedGauge()
    rows = itertools.chain(
        cancel_rows(tw, randwords, random.Random(args.seed), gauge),
        separation_rows(tw, gauge),
    )
    for row in rows:
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
