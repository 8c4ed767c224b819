"""Byte-identity corpus: the library's verdicts and normal forms on a fixed
set of inputs, one line per result, for comparing two trees with `diff`.

    PYTHONPATH=src python3 tests/corpus.py --seeds 0-2999 > corpus.txt

For each seed s it draws the fuzz-size word
w = random_word(Random(s), max_segments=10, max_index=15) and prints the
renderings of canonicalize(w), reduce(w), is_reduced(w), hag_normal(w)
and proj_rank(w, 12), of reduce and of canonicalize on three shuffled
presentations of w (drawn from the same generator, reduce then
canonicalize for each), and of the DSL round trip of w.  Over
make_family(10) it prints decompose, apply_Ff and phi_sigma (under the
cyclic permutation S1 -> S2 -> ... -> S10 -> S1) for one family word per
seed (`family_word(Random(s), ...)`), then for every member word, the
word of T and their inverses at n = 0..3, and for member-class streams
that are not member schemas: a selector of each member, its carry twin or
untwin at index k+d (d = 0..2), from positions 0..3, either orientation,
with 0..3 seeded b/c letters on its head side (decompose and apply_Ff
only); then separation_pattern for
every subset of the family; last, the report lines of embedding_check
for the doubling, tau and telescope maps and a collapsing map (a1 -> a0)
at n_max 2..3 and len_max 3..5, each passed a seeded rng, which the
exact retraction check leaves unused, and for 60 seeded random affine
maps with exceptional images (`random_affine_maps`) at n_max 1..3 and
len_max 0..5.

A result that raises prints the exception's type and message instead.
The script uses only long-standing names of the library, so one copy runs
against two trees, each put first on PYTHONPATH in turn.
"""

import argparse
import itertools
import random
import sys

from transword import (
    T,
    Letter,
    SubstitutionMap,
    apply_Ff,
    canonicalize,
    concat,
    decompose,
    doubling_map,
    embedding_check,
    hag_normal,
    invert,
    is_reduced,
    make_family,
    parse_word,
    phi_sigma,
    proj_rank,
    reduce,
    render_word,
    separation_pattern,
    tau_map,
    telescope_map,
    u_word,
)
from transword.endo import AffineRule
from transword.hag import render_class
from transword.randwords import random_word, shuffle_presentation
from transword.schema import Entry, Schema, affine
from transword.setspec import carry_twin, carry_untwin
from transword.words import SchematicWord, Stream, block

FAMILY_K = 10


def collapse_map():
    """a1 -> a0: the projections of a0 and a1 collide."""
    return SubstitutionMap(AffineRule((("a", 1, 0, 1),)), ((1, block(Letter("a", 0))),))


EMBEDDING_MAPS = (
    ("doubling", doubling_map),
    ("tau", tau_map),
    ("telescope", telescope_map),
    ("collapse", collapse_map),
)


def random_affine_maps():
    """60 seeded maps, each a tail rule of one or two affine letters and
    one to three exceptional images, mostly over the a-letters, some with
    streams."""
    rng = random.Random(14)
    maps = []
    for _ in range(60):
        pattern = tuple(
            ("a", rng.randrange(1, 4), rng.randrange(4), rng.choice((1, -1)))
            for _ in range(rng.randrange(1, 3))
        )
        exceptional = tuple(
            (n, random_word(rng, max_segments=2, max_index=6, pure_a=rng.random() < 0.7))
            for n in rng.sample(range(6), rng.randrange(1, 4))
        )
        maps.append(SubstitutionMap(AffineRule(pattern), exceptional))
    return maps


def _show(fn) -> str:
    try:
        return str(fn())
    except Exception as e:  # a raised error is an output like any other
        return f"{type(e).__name__}: {e}"


def fuzz_lines(seed: int):
    rng = random.Random(seed)
    w = random_word(rng, max_segments=10, max_index=15)
    yield "canonicalize", _show(lambda: canonicalize(w))
    yield "reduce", _show(lambda: reduce(w))
    yield "is_reduced", _show(lambda: is_reduced(w))
    yield "hag_normal", _show(lambda: hag_normal(w))
    yield "proj_rank12", _show(lambda: proj_rank(w, 12))
    for i in range(3):
        v = shuffle_presentation(w, rng)
        yield f"shuffle{i}", _show(lambda: reduce(v))
        yield f"cshuffle{i}", _show(lambda: canonicalize(v))
    yield "roundtrip", _show(lambda: render_word(parse_word(render_word(w))))


def family_word(rng, fam):
    """A reduced concatenation of member words, words of T, their inverses
    and small random words."""
    parts = []
    for _ in range(rng.randrange(1, 5)):
        if rng.random() < 0.5:
            word = u_word(rng.choice(fam.names + (T,)), rng.randrange(5), fam)
            parts.append(word if rng.random() < 0.5 else invert(word))
        else:
            parts.append(random_word(rng, max_segments=2))
    return reduce(concat(*parts))


def family_lines(w, fam, perm):
    names = fam.render_names()

    def pieces():
        return " | ".join(
            f"{p.tag} {render_word(p.word, names)}" for p in decompose(w, fam).pieces
        )

    yield "decompose", _show(pieces)
    yield "apply_Ff", _show(lambda: render_word(apply_Ff(w, fam, perm), names))
    yield "phi_sigma", _show(
        lambda: render_class(phi_sigma(hag_normal(w), fam, perm), names)
    )


def twin_class_words(fam):
    """(label, word) for streams of each member's tail class whose schema
    is not the member's, with seeded b/c letters at the indices just below
    the head, before a forward stream or after a backward one."""
    rng = random.Random(0)
    for name, spec in fam.items():
        variants = {"self": spec, "twin": carry_twin(spec), "untwin": carry_untwin(spec)}
        for variant, code in variants.items():
            if code is None:
                continue
            for d, pos, forward in itertools.product(range(3), range(4), (True, False)):
                sch = Schema((Entry(code, affine(1, d)),))
                stream = Stream(forward, pos, sch)
                first = pos + d  # index of the head letter
                letters = [
                    Letter(rng.choice("bc"), q, 1 if forward else -1)
                    for q in range(max(0, first - rng.randrange(4)), first)
                ]
                if forward:
                    parts = (block(*letters), SchematicWord((stream,)))
                else:
                    parts = (SchematicWord((stream,)), block(*reversed(letters)))
                sign = "+" if forward else "-"
                yield f"{name} {variant} {d} {pos} {sign}", reduce(concat(*parts))


def corpus(seeds):
    fam = make_family(FAMILY_K)
    perm = {n: fam.names[(i + 1) % len(fam)] for i, n in enumerate(fam.names)}
    for seed in seeds:
        for label, out in fuzz_lines(seed):
            yield f"{seed} {label} {out}"
        w = family_word(random.Random(seed), fam)
        for label, out in family_lines(w, fam, perm):
            yield f"{seed} family {label} {out}"
    for name in fam.names + (T,):
        for n in range(4):
            word = u_word(name, n, fam)
            for sign, w in (("+", word), ("-", invert(word))):
                for label, out in family_lines(w, fam, perm):
                    yield f"member {name} {n} {sign} {label} {out}"
    for label, w in twin_class_words(fam):
        for key, out in itertools.islice(family_lines(w, fam, perm), 2):
            yield f"twin {label} {key} {out}"
    for r in range(len(fam) + 1):
        for chosen in itertools.combinations(fam.names, r):
            bits = _show(lambda: separation_pattern(fam, chosen))
            yield f"separation {','.join(chosen) or '-'} {bits}"
    for name, make in EMBEDDING_MAPS:
        for n_max, len_max in itertools.product((2, 3), (3, 4, 5)):
            rng = random.Random(100 * n_max + len_max)
            lines = _show(
                lambda: " | ".join(embedding_check(make(), n_max, len_max, rng=rng).lines())
            )
            yield f"embedding {name} {n_max} {len_max} {lines}"
    for i, s in enumerate(random_affine_maps()):
        for n_max, len_max in itertools.product((1, 2, 3), range(6)):
            lines = _show(lambda: " | ".join(embedding_check(s, n_max, len_max).lines()))
            yield f"embedding random{i} {n_max} {len_max} {lines}"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", default="0-99", help="inclusive range A-B")
    args = ap.parse_args(argv)
    first, _, last = args.seeds.partition("-")
    seeds = range(int(first), int(last or first) + 1)
    sys.stdout.writelines(line + "\n" for line in corpus(seeds))
    return 0


if __name__ == "__main__":
    sys.exit(main())
