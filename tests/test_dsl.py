import random

import pytest

from transword import dsl
from transword.dsl import (
    ParseError,
    parse_setspec,
    parse_sigma_map,
    parse_substitution,
    parse_word,
    render_word,
)
from transword.endo import AffineRule, RowDifferenceRule
from transword.freegroup import FreeWord, Letter
from transword.randwords import random_entry, random_word
from transword.schema import K, Entry, Schema
from transword.setspec import Finite, PrefixCode
from transword.sigma import make_family
from transword.words import (
    FiniteBlock,
    SchematicWord,
    Stream,
    block,
    canonicalize,
    equal_up_to,
)

from test_words import SIZES


def test_parse_letters_and_blocks():
    w = parse_word("[a0 a1^-1] b3^-1 c2")
    assert w == parse_word("[a0 a1^-1][b3^-1 c2]")
    assert w.segments[0].word.letters == (Letter("a", 0), Letter("a", 1, -1))


def test_parse_stream():
    w = parse_word("st(+,2,{a(2k+1)^-1 sel(fin{0,3})(k)})")
    seg = w.segments[0]
    assert seg.forward and seg.pos == 4
    assert seg.schema.entries[0].idx.value(3) == 7
    assert seg.schema.entries[1].fam == Finite((0, 3))


def test_parse_quadratic_index():
    w = parse_word("st(+,0,{a((k^2+3k)/2)})")
    idx = w.segments[0].schema.entries[0].idx
    assert [idx.value(i) for i in range(5)] == [0, 2, 5, 9, 14]


def test_parse_setspecs():
    assert parse_setspec("fin{0,3}") == Finite((0, 3))
    assert parse_setspec('eper("011","10")').contains(1)
    assert parse_setspec('pcode("0","1")') == PrefixCode("0", "1")
    # eper with an all-zero period denotes a finite set
    assert parse_setspec('eper("0001","0")') == Finite((3,))


def test_member_names_need_env():
    fam = make_family(2)
    w = parse_word("st(+,0,{sel(S1)(k)})", dict(fam.items()))
    assert w.segments[0].schema.entries[0].fam == fam.spec("S1")
    with pytest.raises(ParseError):
        parse_word("st(+,0,{sel(S1)(k)})")


def test_parse_sigma_map():
    assert parse_sigma_map("f{S1->T, S2->S2}") == {"S1": "T", "S2": "S2"}


def test_parse_substitution():
    s = parse_substitution("sub{tail: a(n) -> [a(2n) a(2n+1)]}")
    assert isinstance(s.rule, AffineRule)
    assert s.rule.pattern == (("a", 2, 0, 1), ("a", 2, 1, 1))
    s = parse_substitution("sub{tail: a(n) -> [a(n) a(n+1)^-1], except: 0 -> [a5]}")
    assert s.exceptional_table()[0] == block(Letter("a", 5))
    assert isinstance(parse_substitution("tau").rule, RowDifferenceRule)
    assert parse_substitution("doubling").rule.pattern == (("a", 2, 0, 1), ("a", 2, 1, 1))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_word("[a0 5]")
    assert "column 5" in str(e.value)
    with pytest.raises(ParseError) as e:
        parse_word("st(+,0,{a(k)}) st(*,0,{a(k)})")
    assert e.value.col == 19
    with pytest.raises(ParseError) as e:
        parse_word("a0 @")
    assert e.value.col == 4 and "unexpected character '@'" in str(e.value)


def test_roundtrip_random_words():
    rng = random.Random(31)
    for size in SIZES:
        for _ in range(150):
            w = canonicalize(random_word(rng, **size))
            again = parse_word(render_word(w))
            assert canonicalize(again) == w
            assert equal_up_to(again, w, 16)


def test_roundtrip_quadratic_and_selectors():
    for text in (
        'st(-,1,{sel(pcode("01","1"))(k+2)}) [b4^-1] st(+,0,{a((k^2+5k+4)/2)^-1})',
        "st(+,0,{a(2k^2-k) a(2k^2+k)})",  # a negative linear coefficient
    ):
        w = parse_word(text)
        assert canonicalize(parse_word(render_word(w))) == canonicalize(w)


def test_render_cuts_a_cursor_inside_a_step():
    # a stream whose cursor is inside a step renders canonicalized: the
    # rest of the step as a block, the stream from the next boundary
    ab = Schema((Entry("a", K, 1), Entry("b", K, 1)))
    ac = Schema((Entry("a", K, 1), Entry("c", K, -1)))
    assert render_word(SchematicWord((Stream(True, 1, ab),))) == (
        "[b0] st(+,0,{a(k+1) b(k+1)})"
    )
    assert render_word(SchematicWord((Stream(False, 3, ac),))) == (
        "st(-,0,{a(k+2) c(k+2)^-1}) [c1]"
    )
    rng = random.Random(53)
    cases = 0
    while cases < 600:
        width = rng.choice((2, 3))
        sch = Schema(tuple(random_entry(rng) for _ in range(width)))
        if not sch.valid:
            continue
        blk = FiniteBlock(FreeWord((Letter(rng.choice("abc"), rng.randrange(6)),)))
        for pos in range(3 * width):
            if not pos % width:
                continue
            for forward in (True, False):
                stream = Stream(forward, pos, sch)
                for w in (SchematicWord((blk, stream)), SchematicWord((stream, blk))):
                    assert parse_word(render_word(w)) == canonicalize(w)
                    cases += 1


def test_render_empty():
    assert render_word(canonicalize(parse_word("[]"))) == "[]"
    assert parse_word("") .segments == ()


def test_render_uses_member_names():
    fam = make_family(2)
    w = parse_word("st(+,0,{sel(S2)(k)})", dict(fam.items()))
    assert "S2" in render_word(w, fam.render_names())


def test_setspec_constructor_errors_are_parse_errors():
    for text in ('pcode("","")', 'pcode("01","")', 'eper("","")', 'eper("01","")'):
        with pytest.raises(ParseError) as e:
            parse_setspec(text)
        assert e.value.col == 1 and "period must be nonempty" in str(e.value)
    # at the set spec, whether or not the word scanner read up to it
    for text, col in (
        ('st(+,0,{sel(pcode("",""))(k)})', 13),
        ('[a0]  st(+,0,{a(k) sel( pcode("1",""))(k)})', 25),
        ('st(+,0,{sel(eper("01",""))(k)})', 13),
        ('[a0]  st(+,0,{a(k) sel( eper("1",""))(k)})', 25),
    ):
        with pytest.raises(ParseError) as e:
            parse_word(text)
        assert e.value.col == col and "period must be nonempty" in str(e.value)


# -- the segment scanner against the descent parser ----------------------------

FAMILY = make_family(2)
# hand-written forms that renders never take, each with its set names
HAND_WRITTEN = [
    ("", None),
    ("[]", None),
    ("a0^1 b2^+1 [c3^1 a1^+1] c0^-1 a4^01[b5]", None),
    ("st(+,0,{a((k)) b(k)^1 c(k+k)^+1})", None),
    ("st(+,0,{a(2k^2-k) a(2k^2+k)})", None),
    ("st(-,1,{a((k^2+3k)/2)^-1 c(-k+2k^2+1)}) [b0]", None),
    ("st(+,2,{b((k)/1) c(0k+k+2)})", None),
    ('st(+,0,{sel(fin{})(k) sel(eper("1","01"))(k+1) sel(pcode("0","1"))(k+2)})', None),
    ("st(+,1,{sel(S1)(k) sel(S2)(3+2k)^-1})", dict(FAMILY.items())),
    ("[b3] st(+,0,{sel(b3)(k) sel(fin{2,0})(k)})", {"b3": Finite((0, 2))}),
]


def _spaced(text: str, rng: random.Random) -> str:
    """`text` with whitespace added before, between and after its tokens."""
    out, end = [], 0
    for _, tok, pos in dsl._tokenize(text)[:-1]:
        out += [text[end:pos], rng.choice(("", " ", "\n", "\t  ")), tok]
        end = pos + len(tok)
    out += [text[end:], rng.choice(("", " \n"))]
    return "".join(out)


def _valid_texts():
    """(text, set names): renders of seeded random words at both sizes,
    the same renders with whitespace added, and the hand-written forms."""
    rng = random.Random(2101)
    rendered = [
        (render_word(random_word(rng, **size)), None) for size in SIZES for _ in range(80)
    ]
    spaced = [(_spaced(text, rng), env) for text, env in rendered + HAND_WRITTEN]
    return rendered + spaced + HAND_WRITTEN


VALID_TEXTS = _valid_texts()


def _outcome(parse, text, env):
    """The word `parse` reads, or the message and column of its error."""
    try:
        return parse(text, env)
    except ParseError as e:
        return str(e), e.col


def test_scanner_reads_what_the_descent_parser_reads():
    for text, env in VALID_TEXTS:
        w = dsl._scan_word(text, env or {})
        assert w is not None, text
        assert w == dsl._descent_word(text, env), text


def test_scanner_never_falls_back_on_valid_words(monkeypatch):
    # the gate is this count, not a time
    built = []

    class CountingParser(dsl._Parser):
        def __init__(self, *args):
            built.append(args[0])
            super().__init__(*args)

    monkeypatch.setattr(dsl, "_Parser", CountingParser)
    for text, env in VALID_TEXTS:
        parse_word(text, env)
    assert built == []
    with pytest.raises(ParseError):
        parse_word("[a0 5]")
    assert built == ["[a0 5]"]


# texts one token away from the grammar, each with its set names
NEAR_MISSES = [
    ("[a0a1]", None),
    ("a0^2 b1", None),
    ("[a0^-01 b1^+-1]", None),
    ("st(+,0,{a(k^3)})", None),
    ("st(+,0,{a(k^2^2)})", None),
    ("st(+,0,{a(2k2)})", None),
    ("st(+,0,{a(k)^12})", None),
    ("st(+,0,{a(((k)))})", None),
    ("st(+,0,{a((k)/0)})", None),
    ("st(+,0,{a(k--1)})", None),
    ("st(*,0,{a(k)})", None),
    ("st(+,0,{})", None),
    ("st(+,0,{d(k)})", None),
    ("st(+,0,{sel(fin{1,})(k)})", None),
    ('st(+,0,{sel(eper("2",""))(k)})', None),
    ("st(+,0,{sel(eper)(k)})", {"eper": Finite((1,))}),
    ("st(+,0,{sel(fin)(k)})", {"fin": Finite((1,))}),
    ("st(+,0,{sel(S3)(k)})", dict(FAMILY.items())),
    ("[a0] st(+,0,{a(k)}) @", None),
]


@pytest.mark.parametrize("text, env", NEAR_MISSES)
def test_scanner_refuses_near_misses(text, env):
    assert dsl._scan_word(text, env or {}) is None
    with pytest.raises(ParseError) as e:
        parse_word(text, env)
    assert _outcome(dsl._descent_word, text, env) == (str(e.value), e.value.col)


_INSERTED = '[](){},+-^/"01234abcksteprfinl ?@\n'


@pytest.mark.parametrize("part", range(4))
def test_scanner_matches_descent_parser_on_damaged_words(part):
    """Every single-character deletion, every truncation and one seeded
    insertion at every position gives the same word, or the same error
    message and column, through `parse_word` as through `_Parser`."""
    rng = random.Random(part)
    texts = VALID_TEXTS[part::4][::10] + HAND_WRITTEN[part::4]
    for text, env in texts:
        damaged = [text[:i] + text[i + 1 :] for i in range(len(text))]
        damaged += [text[:i] for i in range(len(text))]
        damaged += [text[:i] + rng.choice(_INSERTED) + text[i:] for i in range(len(text) + 1)]
        for t in damaged:
            assert _outcome(parse_word, t, env) == _outcome(dsl._descent_word, t, env), t
