"""Seeded random generators for fragment words, and presentation
shufflers for the confluence tests.

Every generator takes the caller's `random.Random`.  Generated words stay
small: a handful of segments, letter indices in single digits.
"""

from __future__ import annotations

from .freegroup import FreeWord, Letter
from .schema import Entry, IndexFn, Schema, affine, unroll
from .setspec import Finite, PrefixCode, SetSpec, make_evp
from .words import FiniteBlock, SchematicWord, Stream, _split_head


def random_letter(rng, max_index=8, fams="abc") -> Letter:
    return Letter(rng.choice(fams), rng.randrange(max_index + 1), rng.choice((1, -1)))


def random_setspec(rng) -> SetSpec:
    roll = rng.random()
    if roll < 0.3:
        return Finite(rng.sample(range(9), rng.randrange(4)))
    if roll < 0.75:
        bits = lambda n: tuple(rng.randrange(2) for _ in range(n))
        return make_evp(bits(rng.randrange(3)), bits(rng.randrange(1, 4)))
    return PrefixCode(
        tuple(rng.randrange(2) for _ in range(rng.randrange(3))),
        (rng.randrange(2),),
    )


def random_index_fn(rng, max_index=8) -> IndexFn:
    if rng.random() < 0.1:
        m = rng.randrange(3)
        return IndexFn(1, 2 * m + 3, m * (m + 1), 2)  # a pairing row
    return affine(rng.choice((1, 1, 1, 2)), rng.randrange(max_index + 1))


def random_entry(rng, max_index=8, selectors=None, fams="abc") -> Entry:
    roll = rng.random()
    if selectors and roll < 0.45:
        fam: str | SetSpec = rng.choice(selectors)
        idx = affine(1, 0)  # selector streams render member words
    elif roll < 0.6 and "b" in fams:
        fam = random_setspec(rng)
        idx = random_index_fn(rng, max_index)
    else:
        fam = rng.choice(fams)
        idx = random_index_fn(rng, max_index)
    return Entry(fam, idx, rng.choice((1, -1)))


def random_stream(rng, max_index=8, selectors=None, fams="abc") -> Stream:
    for _ in range(64):
        width = rng.choice((1, 1, 1, 2))
        entries = tuple(
            random_entry(rng, max_index, selectors, fams) for _ in range(width)
        )
        k0 = rng.randrange(4)
        try:
            return Stream(rng.random() < 0.5, k0 * width, Schema(entries))
        except ValueError:
            continue
    raise RuntimeError("could not draw a valid stream")


def random_word(
    rng,
    max_segments=6,
    max_index=8,
    selectors=None,
    pure_a=False,
) -> SchematicWord:
    fams = "a" if pure_a else "abc"
    segs = []
    for _ in range(rng.randrange(max_segments + 1)):
        if rng.random() < 0.5:
            letters = tuple(
                random_letter(rng, max_index, fams)
                for _ in range(rng.randrange(1, 5))
            )
            segs.append(FiniteBlock(FreeWord(letters)))
        else:
            segs.append(
                random_stream(
                    rng, max_index, selectors, fams if pure_a else "abc"
                )
            )
    return SchematicWord(tuple(segs))


def shuffle_presentation(w: SchematicWord, rng) -> SchematicWord:
    """An order-isomorphic re-presentation: blocks split at random points,
    stream heads popped out into explicit blocks, schemas unrolled."""
    segs = list(w.segments)
    for _ in range(rng.randrange(1, 5)):
        if not segs:
            break
        i = rng.randrange(len(segs))
        seg = segs[i]
        if isinstance(seg, FiniteBlock):
            if len(seg.word) >= 2:
                cut = rng.randrange(1, len(seg.word))
                segs[i : i + 1] = [
                    FiniteBlock(FreeWord(seg.word.letters[:cut])),
                    FiniteBlock(FreeWord(seg.word.letters[cut:])),
                ]
            continue
        if rng.random() < 0.5:  # pop whole periods off the head
            q = rng.randrange(1, 3) * seg.schema.width
            segs[i : i + 1] = _split_head(seg, seg.pos + q)
        else:
            big = unroll(seg.schema, rng.choice((2, 3)))
            if big is not None:
                segs[i] = Stream(seg.forward, seg.pos, big)
    return SchematicWord(tuple(segs))
