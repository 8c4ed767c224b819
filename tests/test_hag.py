import random

import pytest

from transword.dsl import parse_word
from transword.freegroup import FreeWord, Letter
from transword.hag import (
    EMPTY_CLASS,
    Germ,
    HagClass,
    hag_equal,
    hag_normal,
    hag_product,
    pi,
)
from transword.schema import Entry, K, Schema, affine
from transword.setspec import PrefixCode
from transword.sigma import make_family, u_word
from transword.words import (
    EMPTY_WORD,
    FiniteBlock,
    SchematicWord,
    Stream,
    _compute_tail,
    block,
    concat,
    heg_equal,
    invert,
    min_rank_of,
    pattern_tail,
    reduce,
    stream_word,
)
from transword.randwords import random_letter, random_stream, random_word, shuffle_presentation

from oracles import TWINS, class_word, hag_inverse, hag_normal_by_reduce
from test_words import SIZES

FAM = make_family(3)


def test_finite_words_die():
    assert hag_normal(block(Letter("a", 0), Letter("a", 1), Letter("b", 2))) == EMPTY_CLASS
    assert hag_equal(block(Letter("c", 7)), EMPTY_WORD)


def test_cursor_erasure():
    h = hag_normal(u_word("S1", 3, FAM))
    assert len(h.germs) == 1 and h.germs[0].sign == 1
    assert h == hag_normal(u_word("S1", 0, FAM))


def test_sandwich_cancels():
    w = concat(u_word("S1", 0, FAM), block(Letter("a", 7)), invert(u_word("S1", 0, FAM)))
    assert hag_normal(w) == EMPTY_CLASS


def test_hag_equal_examples():
    assert hag_equal(u_word("S1", 0, FAM), u_word("S1", 5, FAM))
    assert not hag_equal(u_word("S1", 0, FAM), u_word("S2", 0, FAM))


def test_germ_equality_is_tail_class():
    g1 = Germ(Schema((Entry("a", K, 1),)), 1)
    g2 = Germ(Schema((Entry("a", affine(1, 9), 1),)), 1)
    assert g1 == g2 and hash(g1) == hash(g2)
    assert g1 != Germ(g1.schema, -1)
    assert hag_product(HagClass((g1,)), HagClass((Germ(g2.schema, -1),))) == EMPTY_CLASS


def test_class_equality_is_quotient_equality():
    # a(k) and a(k+9) are one germ: the normal forms, not only hag_equal,
    # compare and hash alike, whichever presentation a class keeps
    w = stream_word(True, 0, [Entry("a", K, 1)])
    v = stream_word(True, 0, [Entry("a", affine(1, 9), 1)])
    assert hag_equal(w, v)
    h1, h2 = hag_normal(w), hag_normal(v)
    assert h1 == h2 and hash(h1) == hash(h2)
    assert len({h1, h2}) == 1
    assert hag_normal(concat(w, invert(v))) == EMPTY_CLASS


def test_quotient_soundness():
    rng = random.Random(61)
    for _ in range(120):
        w1 = random_word(rng)
        w2 = random_word(rng)
        if heg_equal(w1, w2):
            assert hag_equal(w1, w2)


def test_equivalence_laws():
    rng = random.Random(62)
    words = [random_word(rng) for _ in range(60)]
    for w in words:
        assert hag_equal(w, w)
    for w1, w2 in zip(words, words[1:]):
        assert hag_equal(w1, w2) == hag_equal(w2, w1)


def test_congruence_under_concat():
    rng = random.Random(63)
    for _ in range(60):
        w1, w2 = random_word(rng), random_word(rng)
        v1 = concat(w1, block(random_letter(rng)))  # finite tweak: same class
        v2 = concat(block(random_letter(rng)), w2)
        assert hag_equal(w1, v1) and hag_equal(w2, v2)
        assert hag_equal(concat(w1, w2), concat(v1, v2))


def test_finite_modification_invariance():
    rng = random.Random(64)
    for _ in range(80):
        w = random_word(rng)
        segs = list(w.segments)
        spot = rng.randrange(len(segs) + 1)
        letters = tuple(random_letter(rng) for _ in range(rng.randrange(1, 4)))
        segs.insert(spot, FiniteBlock(FreeWord(letters)))
        assert hag_normal(SchematicWord(tuple(segs))) == hag_normal(w)


def test_product_matches_concat():
    rng = random.Random(65)
    for _ in range(60):
        w1, w2 = random_word(rng), random_word(rng)
        assert pi(concat(w1, w2)) == hag_product(pi(w1), pi(w2))
        assert pi(invert(w1)) == hag_inverse(pi(w1))


def test_preimage_in_every_tail_subgroup():
    rng = random.Random(66)
    produced = 0
    while produced < 40:
        h = hag_normal(random_word(rng))
        if not h.germs:
            continue
        produced += 1
        for n in (1, 4, 8):
            w = class_word(h, min_rank=n)
            r = min_rank_of(reduce(w))
            assert r is None or r >= n
            assert hag_normal(w) == h


def test_distinct_branch_germs_differ():
    g1 = Germ(Schema((Entry(PrefixCode("", "0"), K, 1),)), 1)
    g2 = Germ(Schema((Entry(PrefixCode("", "1"), K, 1),)), 1)
    assert g1 != g2


# -- germs from the pattern tail slot -----------------------------------------


def _fuzz_words(size, seeds):
    """Each seed's word w, one shuffle v of it, and w.v^-1."""
    for seed in seeds:
        rng = random.Random(seed)
        w = random_word(rng, **size)
        v = shuffle_presentation(w, rng)
        yield w, v, concat(w, invert(v))


@pytest.mark.parametrize("size", SIZES)
def test_hag_normal_matches_whole_word_reduce(size):
    # the per-stream germs give the class that reducing the whole word
    # and reading its streams gives, and render alike under a shuffle
    for w, v, wv in _fuzz_words(size, range(1000)):
        for x in (w, v, wv):
            assert hag_normal(x) == hag_normal_by_reduce(x)
        assert str(hag_normal(w)) == str(hag_normal(v))


def test_pattern_tail_slot_matches_fresh_computation():
    # the slot holds the stream the pass leaves of a stream over the
    # schema from position 0; every cursor and orientation leaves a tail
    # of the same class, or none when the slot says the stream vanishes
    codes = 0
    for seed in range(120):
        rng = random.Random(seed)
        sch = random_stream(rng, selectors=TWINS if seed % 3 == 0 else None).schema
        tail = pattern_tail(sch)
        assert tail is (_compute_tail(sch) or None)
        assert pattern_tail(sch) is tail and sch._tail is (tail or False)
        for forward in (True, False):
            for pos in range(3 * sch.width):
                left = [
                    seg.schema
                    for seg in reduce(SchematicWord((Stream(forward, pos, sch),))).segments
                    if isinstance(seg, Stream)
                ]
                assert len(left) == (tail is not None)
                assert all(t.tail_key is tail for t in left)
        codes += any(isinstance(e.fam, PrefixCode) for e in sch.entries)
    assert codes >= 20
    telescope = Schema((Entry("a", K, 1), Entry("a", affine(1, 1), -1)))
    assert pattern_tail(telescope) is None and telescope._tail is False


# seeds whose shuffle rendered differently while germs were read off the
# whole-word pass, which hands a block at a junction to one stream
RENDER_SEEDS = [(0, 2492), (1, 435), (1, 2991)]


@pytest.mark.parametrize("i,seed", RENDER_SEEDS)
def test_rendering_survives_the_junction_rule(i, seed):
    rng = random.Random(seed)
    w = random_word(rng, **SIZES[i])
    v = shuffle_presentation(w, rng)
    assert str(hag_normal(w)) == str(hag_normal(v))


ABSORBED = parse_word("[a0] st(+,0,{a(k+1)})")
PLAIN = parse_word("st(+,0,{a(k)})")


def test_absorbed_head_is_one_class():
    assert hag_equal(ABSORBED, PLAIN)
    assert hag_normal(ABSORBED) == hag_normal(PLAIN)


def test_absorbed_head_renders_as_its_class():
    assert str(hag_normal(ABSORBED)) == str(hag_normal(PLAIN))
