"""Normal-form fuzz: the seeds at which `reduce` or `canonicalize` gives
two presentations of one word different values, and the seeds at which it
does not commute with inversion.

    PYTHONPATH=src python3 tests/normal_forms.py --seeds 0-2999 --size 1

Seed s draws w = random_word(Random(s), **SIZES[size]), then one
shuffled presentation v = shuffle_presentation(w, rng) from the same
generator.  For each pass f, a shuffle disagreement is a seed with
f(v) != f(w), and a mirror failure one with f(invert(w)) != invert(f(w)).
The script prints one line per pass and kind: the count, then the seeds.
"""

import argparse
import random
import sys

from transword import canonicalize, invert, reduce
from transword.randwords import random_word, shuffle_presentation

# the default generator size, and the size of the fuzz runs
SIZES = ({}, {"max_segments": 10, "max_index": 15})
PASSES = {"reduce": reduce, "canonicalize": canonicalize}


def fuzz(seeds, size: int):
    """(seed, w, v) for each seed: the word and its shuffled presentation."""
    for seed in seeds:
        rng = random.Random(seed)
        w = random_word(rng, **SIZES[size])
        yield seed, w, shuffle_presentation(w, rng)


def failures(seeds, size: int) -> dict[tuple[str, str], list[int]]:
    """The failing seeds by (pass, kind), kind 'shuffle' or 'mirror'."""
    out = {(name, kind): [] for name in PASSES for kind in ("shuffle", "mirror")}
    for seed, w, v in fuzz(seeds, size):
        for name, f in PASSES.items():
            fw = f(w)
            if f(v) != fw:
                out[name, "shuffle"].append(seed)
            if f(invert(w)) != invert(fw):
                out[name, "mirror"].append(seed)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-2999", help="inclusive range A-B")
    ap.add_argument("--size", type=int, choices=range(len(SIZES)), default=0)
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    for (name, kind), found in failures(seeds, args.size).items():
        print(name, kind, len(found), *found)
    return 0


if __name__ == "__main__":
    sys.exit(main())
