import random
import re

import pytest

import transword.words
from transword.dsl import parse_word, render_word
from transword.freegroup import (
    EMPTY,
    FreeWord,
    Letter,
    is_reduced_free,
    rank_letter_set,
    reduce_free,
)
from transword.hag import hag_equal
from transword.schema import Entry, K, Schema, affine, unroll
from transword.setspec import EvPeriodic, Finite, PrefixCode, make_evp
from transword.words import (
    EMPTY_WORD,
    CapError,
    FiniteBlock,
    SchematicWord,
    Stream,
    block,
    canonicalize,
    concat,
    equal_up_to,
    gamma_recode,
    heg_equal,
    invert,
    is_reduced,
    occurrences,
    proj_rank,
    project_finite,
    ra_retract,
    reduce,
    stream_word,
)
from transword.randwords import random_stream, random_word, shuffle_presentation
from oracles import (
    TWINS,
    _sites,
    cut_points,
    project_oracle,
    random_reduced_word,
    random_site_reduce,
    split_word,
)

EVENS = EvPeriodic("", "10")
UT = stream_word(True, 0, [Entry("a", K, 1)])
TEL = stream_word(True, 0, [Entry("a", K, 1), Entry("a", affine(1, 1), -1)])


def us(spec=EVENS, n=0):
    return stream_word(True, n, [Entry(spec, K, 1)])


def L(fam, i, s=1):
    return Letter(fam, i, s)


# -- canonical form ----------------------------------------------------------

def test_head_absorption():
    w = SchematicWord(
        (FiniteBlock(FreeWord((L("a", 5),))), Stream(True, 6, Schema((Entry("a", K, 1),))))
    )
    c = canonicalize(w)
    # absorbed into the stream: same canonical form as the length-5 tail
    assert c == canonicalize(stream_word(True, 5, [Entry("a", K, 1)]))
    assert len(c.segments) == 1 and isinstance(c.segments[0], Stream)
    for N in range(17):
        assert proj_rank(w, N) == proj_rank(c, N)


def test_canonicalize_empty_and_merge():
    assert canonicalize(EMPTY_WORD) == EMPTY_WORD
    two = SchematicWord(
        (FiniteBlock(FreeWord((L("a", 0),))), FiniteBlock(FreeWord((L("a", 1),))))
    )
    assert canonicalize(two) == block(L("a", 0), L("a", 1))


def test_backward_absorption_mirror():
    st = Stream(False, 6, Schema((Entry("a", K, 1),)))
    w = SchematicWord((st, FiniteBlock(FreeWord((L("a", 5, -1),)))))
    assert canonicalize(w) == canonicalize(
        SchematicWord((Stream(False, 5, Schema((Entry("a", K, 1),))),))
    )
    assert len(canonicalize(w).segments) == 1


def one_stream_schemas():
    """Seeded streams, unrolled so that fold has copies to undo, every third
    with prefix codes, and a schema that folds only once shifted."""
    schemas = [parse_word("st(+,0,{a(2k^2-k) a(2k^2+k)})").segments[0].schema]
    for seed in range(45):
        rng = random.Random(seed)
        sch = random_stream(rng, selectors=TWINS if seed % 3 == 0 else None).schema
        schemas += [sch, unroll(sch, 2), unroll(sch, 3, 1)]
    return list(filter(None, schemas))


def test_settle_is_one_move():
    # at every cursor 0 .. 3m in both orientations, the pieces of `_settle`
    # spell the stream's word, and only a cut leaves the stream piece one
    # more settle to make
    settle = transword.words._settle
    settled = moved = codes = 0
    for big in one_stream_schemas():
        codes += any(isinstance(e.fam, PrefixCode) for e in big.entries)
        for pos in range(3 * big.width + 1):
            for forward in (True, False):
                w = SchematicWord((Stream(forward, pos, big),))
                # the stream piece ends a forward stream's pieces and
                # starts a backward one's
                segs, rounds = list(w.segments), []
                while (pieces := settle(segs[-1 if forward else 0])) is not None:
                    segs = segs[:-1] + pieces if forward else pieces + segs[1:]
                    assert equal_up_to(SchematicWord(tuple(segs)), w, 40)
                    rounds.append(len(pieces))
                    assert len(rounds) <= 2
                assert rounds in ([], [1], [2], [2, 1])
                settled += 1
                moved += bool(rounds)
    assert settled >= 1500 and moved >= 1300 and codes >= 15


def test_concat_examples():
    joined = concat(us(), invert(us()))
    assert len(joined.segments) == 2  # no canonical merge across the junction
    assert concat(EMPTY_WORD, UT) == UT
    w = concat(block(L("a", 0)), block(L("a", 0, -1)))
    assert w == block(L("a", 0), L("a", 0, -1))  # concat does not reduce


def test_invert():
    assert invert(block(L("a", 0), L("a", 1))) == block(L("a", 1, -1), L("a", 0, -1))
    assert invert(EMPTY_WORD) == EMPTY_WORD
    v = invert(us())
    assert isinstance(v.segments[0], Stream) and not v.segments[0].forward
    rng = random.Random(3)
    for _ in range(60):
        w = random_word(rng)
        assert canonicalize(invert(invert(w))) == canonicalize(w)


# -- occurrences and projections ---------------------------------------------

def test_occurrences_telescope():
    # solve k = 1 on the first entry and k+1 = 1 on the second
    assert occurrences(TEL, ("a", 1)) == [(0, 1), (0, 2)]


def test_occurrences_selector():
    assert occurrences(us(), ("c", 1)) == [(0, 1)]
    assert occurrences(us(), ("b", 2)) == [(0, 2)]
    assert occurrences(us(), ("c", 2)) == []
    assert occurrences(us(), ("a", 3)) == []


def test_project_telescope():
    assert project_finite(TEL, {("a", 0), ("a", 1)}) == FreeWord((L("a", 0),))


def test_project_selector():
    got = project_finite(us(), {("b", 0), ("b", 1), ("c", 0), ("c", 1)})
    assert got == FreeWord((L("b", 0), L("c", 1)))
    assert project_finite(EMPTY_WORD, {("a", 0)}) == EMPTY


def test_projection_matches_oracle():
    rng = random.Random(21)
    for _ in range(120):
        w = random_word(rng)
        keep = rank_letter_set(rng.randrange(1, 14))
        assert project_finite(w, keep) == project_oracle(w, keep)


def test_projection_lattice_small():
    rng = random.Random(8)
    for _ in range(100):
        w = random_word(rng)
        for n in (3, 7, 12):
            pn = proj_rank(w, n)
            for m in (2, 5, 12):
                filtered = reduce_free(
                    FreeWord(tuple(l for l in pn if l.rank < m))
                )
                assert filtered == proj_rank(w, min(m, n))


# -- reduction ----------------------------------------------------------------

def test_reduce_cancels_inverse_pairs():
    assert reduce(concat(invert(us()), us())) == EMPTY_WORD
    assert reduce(concat(us(), invert(us()))) == EMPTY_WORD
    assert reduce(block(L("a", 0), L("a", 0, -1))) == EMPTY_WORD


def test_reduce_partial_stream_cancellation():
    w = concat(us(EVENS, 1), invert(us(EVENS, 3)))
    # members of the evens set: u(1) = c1, u(2) = b2
    assert reduce(w) == block(L("c", 1), L("b", 2))


def test_reduce_junction_block():
    w = concat(block(L("a", 0, -1)), UT)
    assert reduce(w) == canonicalize(stream_word(True, 1, [Entry("a", K, 1)]))


def test_reduce_backward_forward_partial():
    s1 = EvPeriodic("1101", "1")  # disagrees with all-ones exactly at 2
    w = concat(invert(us(s1)), us(EvPeriodic("", "1")))
    r = reduce(w)
    # the junction run cancels the two agreeing letters, then stalls
    assert r == concat(invert(us(s1, 2)), us(EvPeriodic("", "1"), 2))
    assert len(r.segments) == 2
    for N in range(17):
        assert proj_rank(r, N) == proj_rank(w, N)


def test_all_zero_period_is_one_finite_spec():
    # an all-zero period spells a finite set, which has one spec: when
    # EvPeriodic took it, this selector word was not heg_equal to the
    # fin{0} word, though both project alike, and its rendering parsed
    # back to the fin{0} word
    with pytest.raises(ValueError, match="Finite.*make_evp"):
        EvPeriodic("1", "0")
    demoted = make_evp("1", "0")
    assert demoted is Finite([0])
    w = stream_word(True, 0, [Entry(demoted, K, 1)])
    v = parse_word("st(+,0,{sel(fin{0})(k)})")
    assert heg_equal(w, v) and hag_equal(w, v) and equal_up_to(w, v, 40)
    assert parse_word('st(+,0,{sel(eper("1","0"))(k)})') == v
    assert parse_word(render_word(w)) == w


def test_reduce_soundness_random():
    rng = random.Random(41)
    for _ in range(150):
        w = random_word(rng)
        r = reduce(w)
        assert is_reduced(r)
        for N in (4, 9, 16):
            assert equal_up_to(w, r, N)


def test_normal_form_unique_under_shuffles():
    rng = random.Random(42)
    for _ in range(120):
        w = random_word(rng)
        base = reduce(w)
        assert random_site_reduce(w, rng) == base
        assert reduce(shuffle_presentation(w, rng)) == base


# fuzz seeds whose word and three shuffled presentations of it do not all
# reduce to one value; a change of any verdict here, by the junction fix or
# otherwise, shows up
KNOWN_DEFECT_SEEDS = [435, 2744, 2991, 4539]


def _known_defect_shuffles(seed):
    rng = random.Random(seed)
    w = random_word(rng, max_segments=10, max_index=15)
    return w, [shuffle_presentation(w, rng) for _ in range(3)]


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("seed", KNOWN_DEFECT_SEEDS)
def test_normal_form_unique_under_shuffles_known_defects(seed):
    w, shuffles = _known_defect_shuffles(seed)
    base = reduce(w)
    for v in shuffles:
        assert reduce(v) == base


@pytest.mark.parametrize("seed", KNOWN_DEFECT_SEEDS)
def test_known_defect_shuffles_same_word(seed):
    w, shuffles = _known_defect_shuffles(seed)
    for v in shuffles:
        assert hag_equal(w, v)
        assert equal_up_to(w, v, 20)


def test_homomorphism_shape():
    rng = random.Random(43)
    for _ in range(80):
        w1 = random_reduced_word(rng)
        w2 = random_reduced_word(rng)
        r = reduce(concat(w1, w2))
        assert is_reduced(r)
        glued = SchematicWord(w1.segments + w2.segments)
        for N in (4, 9, 16):
            assert equal_up_to(r, glued, N)


# the default generator size, and the size of the fuzz runs
SIZES = ({}, {"max_segments": 10, "max_index": 15})


def test_ww_inverse_dies():
    rng = random.Random(44)
    for size in SIZES:
        for _ in range(60):
            w = random_word(rng, **size)
            assert reduce(concat(w, invert(w))) == EMPTY_WORD


def _fuzz_with_shuffle(size):
    """(seed, w, one shuffled presentation of w) for the fuzz seeds 0-2999,
    the shuffle drawn from the word's generator."""
    for seed in range(3000):
        rng = random.Random(seed)
        w = random_word(rng, **size)
        yield seed, w, shuffle_presentation(w, rng)


def _differ_at_a_junction(x, y):
    """Whether x and y differ in one run of segments that spells, in each, a
    backward stream, zero or more blocks and a forward stream: item 1's
    junction shape."""
    a, b = x.segments, y.segments
    i = 0
    while i < min(len(a), len(b)) and a[i] == b[i]:
        i += 1
    j = 0
    while j < min(len(a), len(b)) - i and a[-1 - j] == b[-1 - j]:
        j += 1
    return all(
        re.fullmatch(
            r"-b*\+",
            "".join(
                "b" if isinstance(seg, FiniteBlock) else "+" if seg.forward else "-"
                for seg in segs[i : len(segs) - j]
            ),
        )
        for segs in (a, b)
    )


@pytest.mark.parametrize("size, defects", [(0, set()), (1, {435, 2991})])
def test_canonicalize_unique_under_shuffles(size, defects):
    # every stream keeps the same head in both passes, so a shuffle moves
    # no canonical form but at item 1's junction
    differ = {}
    for seed, w, v in _fuzz_with_shuffle(SIZES[size]):
        forms = canonicalize(w), canonicalize(v)
        if forms[0] != forms[1]:
            differ[seed] = forms
    assert set(differ) == defects
    assert all(_differ_at_a_junction(*forms) for forms in differ.values())


@pytest.mark.parametrize("size, defects", [(0, 12), (1, 19)])
def test_canonicalize_mirror(size, defects):
    # canonicalize(invert(w)) == invert(canonicalize(w)) but where a block
    # between a backward and a forward stream goes to the backward one
    # (item 1); a failure of any other shape fails
    differ = []
    for _, w, _ in _fuzz_with_shuffle(SIZES[size]):
        forms = canonicalize(invert(w)), invert(canonicalize(w))
        if forms[0] != forms[1]:
            differ.append(forms)
    assert len(differ) == defects
    assert all(_differ_at_a_junction(*forms) for forms in differ)


def test_canonicalize_cuts_head_through_last_finite_hit():
    # the smallest pair the shuffle fuzz found before both passes cut heads
    # alike: the pattern cancels at steps 0 and 1 only, so the stream
    # starts at step 2 whether or not a shuffle split its head off
    w = parse_word("st(+,0,{a(k+4)^-1 a(2k+4)})")
    v = parse_word("[a4^-1 a4 a5^-1 a6] st(+,0,{a(k+6)^-1 a(2k+8)})")
    assert canonicalize(w) == canonicalize(v) == v


def test_random_site_oracle_at_fuzz_size():
    rng = random.Random(51)
    for _ in range(60):
        w = random_word(rng, **SIZES[1])
        r = reduce(w)
        assert is_reduced(r)
        for _ in range(2):
            assert random_site_reduce(w, rng) == r


def test_is_reduced_matches_sites_at_fuzz_size():
    # is_reduced runs the rewrite pass; the oracle lists the cancellation
    # sites of the canonical word directly
    for seed in range(600):
        w = random_word(random.Random(seed), **SIZES[1])
        assert is_reduced(w) == (not _sites(canonicalize(w)))


def _blocks(pieces):
    return [seg.word for seg in pieces if isinstance(seg, FiniteBlock)]


def test_pass_keeps_every_block_reduced(monkeypatch):
    # every block a move builds is non-empty, and freely reduced when
    # cancelling; so is every block of the result
    unary, binary = transword.words._unary, transword.words._binary

    def check(pieces, cancel):
        for b in _blocks(pieces or ()):
            assert b and (is_reduced_free(b) or not cancel)

    def checked_unary(seg, cancel):
        pieces = unary(seg, cancel)
        check(pieces, cancel)
        return pieces

    def checked_binary(a, b, cancel):
        pieces = binary(a, b, cancel)
        check(pieces, cancel)
        return pieces

    monkeypatch.setattr(transword.words, "_unary", checked_unary)
    monkeypatch.setattr(transword.words, "_binary", checked_binary)
    rng = random.Random(54)
    for size in SIZES:
        for _ in range(150):
            w = random_word(rng, **size)
            for v in (w, shuffle_presentation(w, rng)):
                assert all(b and is_reduced_free(b) for b in _blocks(reduce(v).segments))
                assert all(_blocks(canonicalize(v).segments))
                check(reduce(concat(v, invert(w))).segments, True)


def test_pair_tail_leftover_is_reduced():
    # a forward stream of c-letters before a backward one whose entries are
    # finite selectors, so the tails agree only from some step: the leftover
    # is the free reduction of the product cut well past that step, and so
    # reduced, and it takes letters from both heads
    rng = random.Random(56)
    both = 0
    for _ in range(300):
        m = rng.randrange(1, 3)
        idx = [affine(rng.randrange(1, 3), rng.randrange(4)) for _ in range(m)]
        signs = [rng.choice((1, -1)) for _ in range(m)]
        u = Stream(True, 0, Schema(tuple(Entry("c", i, s) for i, s in zip(idx, signs))))
        sel = [Finite(rng.sample(range(5), rng.randrange(3))) for _ in range(m)]
        v = Stream(False, 0, Schema(tuple(map(Entry, sel, idx, signs))))
        if any(transword.words._unary(st, True) is not None for st in (u, v)):
            continue  # not a pair the pass meets
        pieces = transword.words._binary(u, v, True)
        cut = 6 * m
        right = tuple(l.inverse for l in reversed(v.schema.letters(0, cut)))
        expect = reduce_free(FreeWord(u.schema.letters(0, cut) + right))
        assert pieces == ([FiniteBlock(expect)] if expect else [])
        both += bool(expect) and expect[0].fam == "c" and expect[-1].fam == "b"
    assert both >= 40


def _reduced_letters(rng, n):
    out = []
    while len(out) < n:
        l = Letter(rng.choice("abc"), rng.randrange(3), rng.choice((1, -1)))
        if not out or out[-1].inverse is not l:
            out.append(l)
    return tuple(out)


def test_merge_cancels_at_the_junction():
    # the merge of two reduced blocks is reduce_free of their product, [] when
    # they cancel fully; the canonical merge concatenates
    rng = random.Random(55)
    full = partial = 0
    for _ in range(600):
        x = _reduced_letters(rng, rng.randrange(1, 7))
        # y starts by undoing j letters of x's end, then goes on at random
        j = rng.randrange(len(x) + 1)
        y = tuple(l.inverse for l in reversed(x[len(x) - j :]))
        y = reduce_free(FreeWord(y + _reduced_letters(rng, rng.randrange(3)))).letters
        if not y:
            continue
        a, b = FiniteBlock(FreeWord(x)), FiniteBlock(FreeWord(y))
        expect = reduce_free(FreeWord(x + y))
        assert transword.words._binary(a, b, True) == (
            [FiniteBlock(expect)] if expect else []
        )
        assert transword.words._binary(a, b, False) == [FiniteBlock(FreeWord(x + y))]
        full += not expect
        partial += 0 < len(expect) < len(x) + len(y)
    assert full >= 20 and partial >= 100


# seeds of `test_long_products_cancel`
LONG_PRODUCT_SEEDS = (61, 62, 63)


@pytest.mark.parametrize("n", [10, 20, 40])
def test_long_products_cancel(n):
    # the shape of the cancel benchmark: n concatenated random words times the
    # inverse of the same words, or of a shuffled presentation of each
    for seed in LONG_PRODUCT_SEEDS:
        rng = random.Random(seed)
        parts = [random_word(rng) for _ in range(n)]
        shuffled = [shuffle_presentation(p, rng) for p in parts]
        w = SchematicWord(tuple(s for p in parts for s in p.segments))
        for v_parts in (parts, shuffled):
            v = SchematicWord(tuple(s for p in v_parts for s in p.segments))
            assert reduce(SchematicWord(w.segments + invert(v).segments)) == EMPTY_WORD


# -- the fixpoint mark ---------------------------------------------------------

def test_marked_words_skip_their_passes():
    rng = random.Random(52)
    for _ in range(100):
        w = random_word(rng, **SIZES[1])
        r, c = reduce(w), canonicalize(w)
        assert reduce(r) is r and canonicalize(r) is r and canonicalize(c) is c
        assert is_reduced(r)
        # the mark is no field: equality, hash and rendering ignore it
        plain = SchematicWord(r.segments)
        assert plain == r and hash(plain) == hash(r) and repr(plain) == repr(r)
        # the pass is not mirror-symmetric, so the inverse is not marked
        inv = invert(r)
        assert reduce(inv) is not inv and canonicalize(inv) is not inv


def test_concat_with_marked_prefix_matches_fresh_pass():
    # concat canonicalizes the joined segments, whether or not the first
    # word is marked
    for seed in range(600):
        rng = random.Random(seed)
        w, v = random_word(rng, **SIZES[1]), random_word(rng, **SIZES[1])
        for first in (canonicalize(w), reduce(w)):
            for rest in ((), (v,), (invert(first), v)):
                segs = first.segments + tuple(s for x in rest for s in x.segments)
                assert concat(first, *rest) == canonicalize(SchematicWord(segs))


def test_cap_sites_raise_cap_error(monkeypatch):
    monkeypatch.setattr(transword.words, "_REDUCE_CAP", 2)
    with pytest.raises(CapError, match="rewriting .* _REDUCE_CAP = 2"):
        reduce(parse_word("[a0] [a1] [a2] [a3]"))
    monkeypatch.setattr(transword.words, "_REDUCE_CAP", 1)
    with pytest.raises(CapError, match="random-site .* _REDUCE_CAP = 1"):
        random_site_reduce(parse_word("[a0 a1 a1^-1 a0^-1]"), random.Random(0))
    # a backward and a forward copy of one stream cancel without end
    st = stream_word(True, 0, [Entry("a", affine(1, 0), 1)]).segments[0]
    with pytest.raises(CapError, match="junction .* _REDUCE_CAP = 1"):
        transword.words._junction_run(Stream(False, 0, st.schema), st)
    assert issubclass(CapError, RuntimeError)


def test_equal_up_to_telescope():
    # under the interleaved rank convention a1 has rank 3, so the first
    # disagreeing level is 4
    for N in (1, 2, 3):
        assert equal_up_to(UT, TEL, N)
    assert not equal_up_to(UT, TEL, 4)
    assert equal_up_to(UT, UT, 12)


def test_equal_up_to_shuffled_presentation():
    rng = random.Random(45)
    for _ in range(60):
        w = random_word(rng)
        assert equal_up_to(w, shuffle_presentation(w, rng), 16)


def test_heg_equal():
    rng = random.Random(46)
    w = random_word(rng)
    assert heg_equal(concat(w, invert(w)), EMPTY_WORD)
    assert not heg_equal(us(PrefixCode("", "0")), us(PrefixCode("", "1")))
    assert not heg_equal(TEL, UT)
    assert heg_equal(TEL, block(L("a", 0)))  # the collapsed telescope


# one word written with literal b/c letters and with a selector that picks
# the same letters: each pair reduces to two different values
LITERAL_VS_SELECTOR = [
    ('st(+,0,{b(k)})', 'st(+,0,{sel(eper("","1"))(k)})'),
    ("st(+,0,{c(k)})", "st(+,0,{sel(fin{})(k)})"),
    ('st(+,0,{c(2k+7) b(2k+8)})', 'st(+,0,{sel(eper("","01"))(k+7)})'),
    ("[b5] st(+,0,{c(k+6)})", "st(+,0,{sel(fin{0})(k+5)})"),
]


@pytest.mark.parametrize("text_w, text_v", LITERAL_VS_SELECTOR)
def test_literal_vs_selector_same_word(text_w, text_v):
    w, v = parse_word(text_w), parse_word(text_v)
    assert hag_equal(w, v)
    assert equal_up_to(w, v, 40)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("text_w, text_v", LITERAL_VS_SELECTOR)
def test_literal_vs_selector_heg_equal(text_w, text_v):
    assert heg_equal(parse_word(text_w), parse_word(text_v))


# a quadratic index with a negative linear coefficient: 2k^2 - k emits a0
# at step 0, on the lower root of the quadratic
NEGATIVE_A1 = ("st(+,0,{a(2k^2-k) a(2k^2+k)})", "[a0] st(+,0,{a((k^2+k)/2)})")


def test_negative_linear_coefficient_projects():
    w, v = map(parse_word, NEGATIVE_A1)
    assert proj_rank(w, 12) == project_oracle(w, rank_letter_set(12))
    assert equal_up_to(w, v, 40)


# reduce keeps w at width 2: the folded index (k^2 - k)/2 does not
# increase at step 0, and no move splits the head off to fold the rest
@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_negative_linear_coefficient_heg_equal():
    assert heg_equal(*map(parse_word, NEGATIVE_A1))


# one word as a prefix-code selector and as its decimation: code(1^j) is
# 2 * code(0^j) and no odd number is a code of 1^j.  Prefix-code selectors
# never decimate (`unroll` gives None), so neither decider aligns the two.
PCODE_DECIMATION = (
    'st(+,0,{sel(pcode("","1"))(k)})',
    'st(+,0,{sel(pcode("","0"))(2k) c(2k+1)})',
)


def test_prefix_code_decimation_same_word():
    assert equal_up_to(*map(parse_word, PCODE_DECIMATION), 40)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("equal", [heg_equal, hag_equal])
def test_prefix_code_decimation_decided_equal(equal):
    assert equal(*map(parse_word, PCODE_DECIMATION))


# one word as a prefix code and as its carry twin one step on: code(1^j) + 1
# is code(0^(j+1)), so pcode("","1") at k+1 and pcode("","0") from step 1
# emit the same letters.  Both passes keep a prefix-code stream in the twin
# presentation it arrives in, and so does decompose's recomposition of
# tests/test_sigma.py's TWIN_FWD
TWIN_PRESENTATIONS = (
    'st(+,0,{sel(pcode("","1"))(k+1)})',
    'st(+,1,{sel(pcode("","0"))(k)})',
)


def test_twin_presentations_same_word():
    w, v = map(parse_word, TWIN_PRESENTATIONS)
    assert hag_equal(w, v)
    assert all(equal_up_to(w, v, N) for N in range(80))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
def test_twin_presentations_heg_equal():
    assert heg_equal(*map(parse_word, TWIN_PRESENTATIONS))


# presentations of one word where a block sits between a backward and a
# forward stream, and heg_equal tells them apart (ROADMAP item 1, the
# junction shape): the smallest pair, then the shuffled pairs of queries
# 37, 336 and 981 of the `equality` benchmark workload at seeds 10, 27, 34
JUNCTION_PAIRS = [
    (
        "st(-,1,{b(k+1)}) st(+,0,{b(k+1)^-1 c(k+1)})",
        "st(-,0,{b(k+1)}) [c1] st(+,1,{b(k+1)^-1 c(k+1)})",
    ),
    (
        'st(-,1,{sel(fin{3,6})(k+14)^-1}) '
        'st(+,3,{sel(eper("0","011"))(k+11) sel(pcode("","1"))(2k+8)^-1})',
        'st(-,0,{sel(fin{0,3,6})(k+14)^-1}) [c14^-1] '
        'st(+,4,{sel(eper("0","011"))(k+11) sel(pcode("","1"))(2k+8)^-1})',
    ),
    (
        '[c8^-1 c9 b5^-1] st(-,3,{sel(eper("0","1"))((k^2+7k+6)/2)^-1}) '
        'st(+,0,{b(k+12) a(k+3)}) st(+,3,{sel(eper("","010"))(k+11)}) '
        "st(-,2,{c(k+10)^-1})",
        '[c8^-1] [c9 b5^-1] st(-,3,{sel(eper("0","1"))((k^2+7k+6)/2)^-1}) '
        "[b12] [a3] [b13 a4 b14 a5] st(+,3,{b(k+12) a(k+3)}) "
        'st(+,3,{sel(eper("","010"))(k+11)}) st(-,2,{c(k+10)^-1})',
    ),
    (
        '[b4^-1] st(+,3,{sel(eper("0","01"))(2k+12)}) [c12 b4^-1 c7 c8^-1] '
        "[c13^-1 a6^-1] [b10^-1 a4^-1 a3 c12^-1] "
        "st(+,2,{sel(fin{1})((k^2+7k+6)/2) b((k^2+3k)/2)^-1}) st(-,2,{c(k+8)^-1}) "
        "[a1^-1 c12^-1 a10 c9] st(-,2,{sel(fin{4})(2k+6)^-1}) "
        'st(+,3,{sel(eper("","1"))(k+5) b(2k+9)})',
        '[b4^-1] st(+,3,{sel(eper("0","01"))(2k+12)}) [c12 b4^-1] [c7 c8^-1] '
        "[c13^-1 a6^-1] [b10^-1 a4^-1 a3 c12^-1] "
        "st(+,2,{sel(fin{1})((k^2+7k+6)/2) b((k^2+3k)/2)^-1}) st(-,2,{c(k+8)^-1}) "
        "[a1^-1 c12^-1 a10 c9] st(-,2,{sel(fin{4})(2k+6)^-1}) [b8 b15] "
        'st(+,4,{sel(eper("","1"))(k+5) b(2k+9)})',
    ),
]


@pytest.mark.parametrize("text_w, text_v", JUNCTION_PAIRS)
def test_junction_pair_same_word(text_w, text_v):
    w, v = parse_word(text_w), parse_word(text_v)
    assert hag_equal(w, v)
    assert equal_up_to(w, v, 20)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("text_w, text_v", JUNCTION_PAIRS)
def test_junction_pair_heg_equal(text_w, text_v):
    assert heg_equal(parse_word(text_w), parse_word(text_v))


# the `shuffle` queries of the `equality` benchmark workload that fail:
# query 726 at seed 8821 and query 527 at seed 9103 (junction shape)
WORKLOAD_PAIRS = [
    (
        "st(-,0,{c(2k+14)^-1}) "
        'st(+,2,{sel(fin{3})(k+10) sel(eper("","01"))(2k+5)}) [b11 c6 c15^-1 b4^-1] '
        "st(-,0,{sel(fin{3,6})(k+9)}) st(+,0,{sel(fin{})(2k+15)^-1}) "
        "st(+,1,{sel(fin{})(k+2)}) [b0]",
        "st(-,0,{c(2k+14)^-1}) [c12 c9] "
        'st(+,3,{sel(fin{3})(k+10) sel(eper("","01"))(2k+5)}) [b11 c6 c15^-1] [b4^-1] '
        "st(-,0,{sel(fin{3,6})(k+9)}) st(+,0,{sel(fin{})(2k+15)^-1}) "
        "st(+,1,{sel(fin{})(k+2)}) [b0]",
    ),
    (
        'st(-,2,{a(k+1)}) st(+,1,{a((k^2+3k)/2)^-1 sel(eper("","100"))(k+2)^-1}) '
        'st(+,3,{sel(pcode("","0"))(k+7)}) st(-,1,{c(k+12)^-1 sel(fin{0})(k)^-1})',
        "st(-,2,{a(k+1)}) [a2^-1 c3^-1 a5^-1 c4^-1] "
        'st(+,3,{a((k^2+3k)/2)^-1 sel(eper("","100"))(k+2)^-1}) '
        'st(+,3,{sel(pcode("","0"))(k+7)}) st(-,1,{c(k+12)^-1 sel(fin{0})(k)^-1})',
    ),
]


@pytest.mark.parametrize("text_w, text_v", WORKLOAD_PAIRS)
def test_workload_pair_same_word(text_w, text_v):
    w, v = parse_word(text_w), parse_word(text_v)
    assert hag_equal(w, v)
    assert all(equal_up_to(w, v, N) for N in range(30))


@pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
@pytest.mark.parametrize("text_w, text_v", WORKLOAD_PAIRS)
def test_workload_pair_heg_equal(text_w, text_v):
    assert heg_equal(parse_word(text_w), parse_word(text_v))


def test_mixed_pattern_rejected():
    p1, p2 = PrefixCode("", "0"), PrefixCode("", "1")
    with pytest.raises(ValueError):
        Stream(True, 0, Schema((Entry(p1, K, 1), Entry(p2, K, -1))))


def test_twin_branch_telescope_reduces():
    # k is in 1^w exactly when k+1 is in 0^w, so each step's second letter
    # cancels the next step's first: the stream collapses to its first letter
    zeros, ones = PrefixCode("", "0"), PrefixCode("", "1")
    w = stream_word(True, 0, [Entry(zeros, K, 1), Entry(ones, affine(1, 1), -1)])
    r = reduce(w)
    assert r == block(L("b", 0))
    for N in (6, 12, 30):
        keep = rank_letter_set(N)
        assert project_finite(w, keep) == project_oracle(w, keep) == proj_rank(r, N)


def test_twin_branch_junction_cancels():
    # the backward all-zeros stream renders, one step later, what the
    # forward all-ones stream renders: the junction cancels completely
    # (this used to run the junction scan into its cap)
    w = parse_word('st(-,1,{sel(pcode("","0"))(k+10)}) st(+,0,{sel(pcode("","1"))(k+11)})')
    assert reduce(w) == EMPTY_WORD
    keep = rank_letter_set(45)
    assert project_oracle(w, keep) == EMPTY


def test_isolated_root_pattern_reduces():
    # 2k against (k+1)^-1 collide exactly at k=1
    w = stream_word(True, 0, [Entry("a", affine(2, 0), 1), Entry("a", affine(1, 1), -1)])
    r = reduce(w)
    assert is_reduced(r)
    for N in (6, 12, 16):
        assert equal_up_to(w, r, N)


# -- recoding and retraction ---------------------------------------------------

def test_gamma_block():
    w = block(L("a", 0), L("a", 1), L("a", 2))
    assert gamma_recode(w, "encode") == block(L("a", 0), L("b", 0), L("c", 0))


def test_gamma_stream_affine():
    w = stream_word(True, 0, [Entry("a", affine(3, 1), 1)])
    assert gamma_recode(w, "encode") == stream_word(True, 0, [Entry("b", K, 1)])


def test_gamma_roundtrip_random():
    rng = random.Random(47)
    for _ in range(150):
        w = random_word(rng, pure_a=True)
        w = canonicalize(w)
        assert gamma_recode(gamma_recode(w, "encode"), "decode") == w


def test_gamma_preserves_rank_projections():
    rng = random.Random(48)
    for _ in range(60):
        w = random_word(rng, pure_a=True)
        enc = gamma_recode(w, "encode")
        # ranks interleave exactly: the a-world index equals the abc-rank
        for N in (5, 9, 14):
            src = reduce_free(
                FreeWord(
                    tuple(
                        Letter(("a", "b", "c")[l.index % 3], l.index // 3, l.sign)
                        for l in project_finite(w, {("a", i) for i in range(N)})
                    )
                )
            )
            assert src == proj_rank(enc, N)


def test_gamma_errors():
    with pytest.raises(ValueError):
        gamma_recode(block(L("b", 0)), "encode")
    with pytest.raises(ValueError):
        gamma_recode(us(), "decode")


def test_ra_retract():
    assert ra_retract(us()) == EMPTY_WORD
    assert ra_retract(concat(UT, us())) == UT
    assert ra_retract(block(L("a", 0), L("b", 3), L("a", 1))) == block(L("a", 0), L("a", 1))
    rng = random.Random(49)
    for _ in range(60):
        w = random_word(rng)
        assert ra_retract(ra_retract(w)) == ra_retract(w)


# -- cutting -------------------------------------------------------------------

def test_split_word_recomposes():
    rng = random.Random(50)
    for _ in range(80):
        w = random_reduced_word(rng)
        pts = cut_points(w)
        cut = pts[rng.randrange(len(pts))]
        w0, w1 = split_word(w, cut)
        for N in (6, 16):
            assert proj_rank(concat(w0, w1), N) == proj_rank(w, N)
