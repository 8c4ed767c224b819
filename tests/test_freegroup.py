import copy
import itertools
import pickle
import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import assume, given, strategies as st

from transword.freegroup import (
    EMPTY,
    FreeWord,
    Letter,
    adjunction_free_oracle,
    cancels,
    cyclic_reduce,
    enumerate_images,
    is_free_basis,
    is_reduced_free,
    reduce_free,
    reduced_word_count,
    split_for_adjunction,
    word,
)
from transword.dsl import parse_word
from transword.randwords import random_letter
from oracles import enumerate_reduced, nielsen_free_basis, scan_reduce


def L(fam, i, s=1):
    return Letter(fam, i, s)


letters_st = st.builds(
    Letter,
    st.sampled_from("abc"),
    st.integers(min_value=0, max_value=5),
    st.sampled_from((1, -1)),
)
words_st = st.builds(lambda ls: FreeWord(tuple(ls)), st.lists(letters_st, max_size=12))


def test_letters_are_interned():
    l = Letter("b", 3, -1)
    assert Letter("b", 3, -1) is l and Letter("b", 3) is l.inverse
    assert l.inverse.inverse is l and l.inverse is not l
    assert cancels(l, Letter("b", 3)) and not cancels(l, l)
    assert (str(l), repr(l), l.rank) == ("b3^-1", "Letter(b3^-1)", 10)
    # `==` and `hash` are identity, which interning makes value equality
    assert l == Letter("b", 3, -1) and l != l.inverse and l != ("b", 3, -1)
    assert {l: 1}[Letter("b", 3, -1)] == 1
    # every construction path returns the table's object
    (blk,) = parse_word("[b3^-1 a0]").segments
    assert blk.word[0] is l and blk.word[1] is Letter("a", 0)
    (stream,) = parse_word("st(+,0,{b(k+3)^-1})").segments
    assert stream.schema.letter_at(0) is l
    rng = random.Random(5)
    for _ in range(50):
        x = random_letter(rng)
        assert Letter(x.fam, x.index, x.sign) is x and x.inverse.inverse is x


@given(letters_st)
def test_interned_letter_fields(l):
    assert Letter(l.fam, l.index, l.sign) is l
    assert l.inverse is Letter(l.fam, l.index, -l.sign)
    assert (l.inverse.fam, l.inverse.index, l.inverse.inverse) == (l.fam, l.index, l)


def test_letter_copy_and_pickle():
    l = Letter("c", 7, -1)
    assert copy.copy(l) is l and copy.deepcopy(l) is l
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(l, protocol)) is l
    w = word(l, Letter("a", 2), l.inverse)
    again = pickle.loads(pickle.dumps(w))
    assert again == w and all(a is b for a, b in zip(again, w))
    assert all(a is b for a, b in zip(copy.deepcopy(w), w))


@pytest.mark.parametrize("args", [("d", 0, 1), ("a", -1, 1), ("a", 0, 0), ("b", 2, 2)])
def test_bad_letter_raises_every_time(args):
    # an invalid letter never enters the table, so it fails on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            Letter(*args)


def test_letter_is_frozen():
    l = Letter("a", 4)
    for name, value in (("sign", -1), ("index", 5), ("inverse", l), ("other", 0)):
        with pytest.raises(FrozenInstanceError):
            setattr(l, name, value)
    with pytest.raises(FrozenInstanceError):
        del l.fam
    assert (l.fam, l.index, l.sign, l.inverse.sign) == ("a", 4, 1, -1)


def test_letter_order():
    letters = [L(f, i, s) for f in "abc" for i in range(4) for s in (1, -1)]
    random.Random(3).shuffle(letters)
    by_fields = sorted(letters, key=lambda l: (l.fam, l.index, l.sign))
    assert sorted(letters) == by_fields
    assert sorted(letters, reverse=True) == by_fields[::-1]
    x, y = L("a", 1, -1), L("a", 1)
    assert x < y and x <= y and y > x and y >= x and x <= x and not x < x
    with pytest.raises(TypeError):
        x < ("a", 1, -1)


def test_reduce_examples():
    assert reduce_free(word(L("a", 0), L("a", 1), L("a", 1, -1))) == word(L("a", 0))
    assert reduce_free(EMPTY) == EMPTY
    w = word(L("a", 0), L("a", 1), L("a", 0, -1), L("a", 0), L("a", 1, -1), L("a", 0, -1))
    assert scan_reduce(w) == EMPTY  # oracle first
    assert reduce_free(w) == EMPTY


@given(words_st)
def test_reduce_matches_scan_oracle(w):
    assert reduce_free(w) == scan_reduce(w)


@given(words_st)
def test_reduce_idempotent_and_nonincreasing(w):
    r = reduce_free(w)
    assert reduce_free(r) == r
    assert len(r) <= len(w)
    assert is_reduced_free(r)


@given(words_st)
def test_inverse_law(w):
    assert reduce_free(w * w.inverse) == EMPTY


def test_inverse_law_exhaustive_short():
    alphabet = [L("a", 0), L("a", 0, -1), L("a", 1), L("a", 1, -1)]
    for n in range(7):
        for tup in itertools.product(alphabet, repeat=n):
            w = FreeWord(tup)
            assert reduce_free(w * w.inverse) == EMPTY


def test_cyclic_reduce_examples():
    conj, core = cyclic_reduce(word(L("a", 0), L("a", 1), L("a", 0, -1)))
    assert conj == word(L("a", 0)) and core == word(L("a", 1))
    conj, core = cyclic_reduce(word(L("a", 1)))
    assert conj == EMPTY and core == word(L("a", 1))
    conj, core = cyclic_reduce(
        word(L("a", 0), L("a", 0), L("a", 1), L("a", 0, -1), L("a", 0, -1))
    )
    assert conj == word(L("a", 0), L("a", 0)) and core == word(L("a", 1))


@given(words_st)
def test_cyclic_reduce_recomposes(w):
    w = reduce_free(w)
    conj, core = cyclic_reduce(w)
    assert reduce_free(conj * core * conj.inverse) == w
    if core:
        assert core[0] != core[-1].inverse or len(core) == 1


def _random_reduced(rng, alphabet, maxlen):
    out = []
    for _ in range(rng.randrange(maxlen + 1)):
        choices = [l for l in alphabet if not out or l != out[-1].inverse]
        out.append(rng.choice(choices))
    return FreeWord(tuple(out))


def test_split_examples():
    y0, y1 = L("a", 0), L("a", 1)
    t = L("b", 0)
    Y = {("a", 0), ("a", 1)}
    s = split_for_adjunction(word(y0, t, y0.inverse), {("a", 0)})
    assert (s.w0, s.w1, s.w2, s.w3) == (word(y0), EMPTY, word(t), word(y0.inverse))
    s = split_for_adjunction(word(t), {("a", 0)})
    assert (s.w0, s.w1, s.w2, s.w3) == (EMPTY, EMPTY, word(t), EMPTY)
    s = split_for_adjunction(word(y0, y1, t, y1, t.inverse), Y)
    assert s.w0 == word(y0, y1)
    assert s.w1 == word(t)
    assert s.w2 == word(y1)
    assert s.w3 == EMPTY


def test_split_rejects_words_inside_Y():
    with pytest.raises(ValueError):
        split_for_adjunction(word(L("a", 0)), {("a", 0)})


def test_split_recomposition_random():
    rng = random.Random(97)
    alphabet = [L(f, i, s) for f in "ab" for i in (0, 1) for s in (1, -1)]
    Y = {("a", 0), ("a", 1)}
    n = 0
    while n < 1000:
        w = _random_reduced(rng, alphabet, 10)
        if all((l.fam, l.index) in Y for l in w):
            continue
        s = split_for_adjunction(w, Y)
        assert s.recompose() == w
        assert is_reduced_free(s.w2) and s.w2
        n += 1


def test_adjunction_oracle_examples():
    t = L("b", 0)
    y0 = L("a", 0)
    assert adjunction_free_oracle(word(t), {("a", 0)}, 4)
    assert adjunction_free_oracle(word(y0, t, y0.inverse), {("a", 0)}, 4)
    with pytest.raises(ValueError):
        adjunction_free_oracle(word(y0), {("a", 0)}, 1)


def test_adjunction_oracle_random():
    rng = random.Random(11)
    alphabet = [L(f, i, s) for f in "ab" for i in (0, 1) for s in (1, -1)]
    Y = {("a", 0), ("a", 1)}
    n = 0
    while n < 40:
        w = _random_reduced(rng, alphabet, 8)
        if not w or all((l.fam, l.index) in Y for l in w):
            continue
        assert adjunction_free_oracle(w, Y, 4)
        n += 1


def test_enumerate_reduced_counts():
    alphabet = [L("a", 0), L("a", 1)]
    ws = list(enumerate_reduced(alphabet, 3))
    # 1 + 4 + 4*3 + 4*9 reduced words up to length 3 over two generators
    assert len(ws) == 1 + 4 + 12 + 36
    assert len(set(w.letters for w in ws)) == len(ws)
    assert all(is_reduced_free(w) for w in ws)


@st.composite
def substitutions(draw):
    """An alphabet of up to three letters and a reduced image of each,
    possibly empty; sometimes the second image undoes the first, so the
    image of a word can cancel completely."""
    alphabet = draw(st.lists(letters_st, max_size=3))
    images = st.one_of(st.just(()), words_st.map(lambda w: reduce_free(w).letters))
    image = {l: draw(images) for l in alphabet}
    if len(image) > 1 and draw(st.booleans()):
        first, second = list(image)[:2]
        image[second] = FreeWord(image[first]).inverse.letters
    return alphabet, image


@given(substitutions(), st.integers(min_value=0, max_value=3))
def test_enumerate_images_matches_substitution(sub, maxlen):
    alphabet, image = sub

    def substituted(u):
        out = []
        for l in u:
            if l in image:
                out.extend(image[l])
            else:
                out.extend(FreeWord(image[l.inverse]).inverse)
        return reduce_free(FreeWord(tuple(out))).letters

    pairs = list(enumerate_images(alphabet, maxlen, image))
    assert [u for u, _ in pairs] == [w.letters for w in enumerate_reduced(alphabet, maxlen)]
    assert all(img == substituted(u) for u, img in pairs)


def test_reduced_word_count_matches_enumeration():
    for n in range(4):
        alphabet = [L("a", i) for i in range(n)]
        for maxlen in range(6):
            image = {l: (l,) for l in alphabet}
            walked = sum(1 for _ in enumerate_images(alphabet, maxlen, image))
            assert reduced_word_count(n, maxlen) == walked


def test_reduced_word_count_matches_the_sum_by_length():
    for n in range(8):
        for maxlen in range(40):
            by_length = sum(2 * n * (2 * n - 1) ** (L - 1) if L else 1 for L in range(maxlen + 1))
            assert reduced_word_count(n, maxlen) == by_length


def _gens(*words):
    """Generators written as lists of (index, sign) over the a-letters."""
    return [tuple(L("a", i, s) for i, s in w) for w in words]


@pytest.mark.parametrize(
    "gens, free",
    [
        (_gens(), True),
        (_gens([]), False),
        (_gens([(0, 1)], [(0, 1)]), False),
        (_gens([(0, 1), (1, 1)], [(1, 1), (0, 1)]), True),
        (_gens([(0, 1), (1, 1), (0, -1)], [(0, 1), (1, -1), (0, -1)]), False),
        # the ladder's pieces: doubling, tau and telescope at n = 3
        (_gens([(0, 1), (1, 1)], [(2, 1), (3, 1)], [(4, 1)]), True),
        (_gens([(0, 1), (2, -1)], [(1, 1)], [(2, 1)]), True),
        (_gens([(0, 1), (1, -1)], [(1, 1), (2, -1)], [(2, 1)]), True),
        # generator order does not matter
        (_gens([(1, 1)], [(0, 1), (1, -1)]), True),
        (_gens([(0, 1), (1, -1)], [(1, 1)]), True),
        # a relation g0 g1 g2 = 1 among words no product of two shortens
        (_gens([(0, 1), (1, 1)], [(1, -1), (2, 1)], [(2, -1), (0, -1)]), False),
    ],
)
def test_is_free_basis_examples(gens, free):
    assert is_free_basis(gens) == free
    assert nielsen_free_basis(gens) == free


_A4 = [L("a", i, s) for i in range(4) for s in (1, -1)]
reduced_st = st.lists(st.sampled_from(_A4), max_size=5).map(
    lambda ls: reduce_free(FreeWord(tuple(ls))).letters
)
gens_st = st.lists(reduced_st, min_size=1, max_size=4)


def _inverse(g):
    return tuple(l.inverse for l in reversed(g))


@given(gens_st, st.randoms(use_true_random=False))
def test_is_free_basis_matches_nielsen(gens, rng):
    free = is_free_basis(gens)
    assert free == nielsen_free_basis(gens)
    # the verdict is one of the subgroup and the number of generators
    shuffled = rng.sample(gens, len(gens))
    assert is_free_basis(shuffled) == free
    i = rng.randrange(len(gens))
    assert is_free_basis(gens[:i] + [_inverse(gens[i])] + gens[i + 1 :]) == free
    if len(gens) > 1:
        j = rng.choice([j for j in range(len(gens)) if j != i])
        moved = reduce_free(FreeWord(gens[i] + gens[j])).letters
        assert is_free_basis(gens[:i] + [moved] + gens[i + 1 :]) == free


@given(gens_st)
def test_free_basis_has_no_collision(gens):
    # a free basis maps distinct words to distinct images
    assume(is_free_basis(gens))
    alphabet = [L("c", i) for i in range(len(gens))]
    images = [img for _, img in enumerate_images(alphabet, 3, dict(zip(alphabet, gens)))]
    assert len(set(images)) == len(images)


@given(reduced_st, st.sets(st.integers(0, 3), max_size=3))
def test_free_basis_agrees_with_adjunction_oracle(w, ys):
    Y = {("a", y) for y in ys}
    assume(any((l.fam, l.index) not in Y for l in w))
    if is_free_basis([w] + [(L("a", y),) for y in sorted(ys)]):
        assert adjunction_free_oracle(FreeWord(w), Y, 4)
