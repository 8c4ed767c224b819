import random

import pytest

from transword.dsl import (
    ParseError,
    parse_setspec,
    parse_sigma_map,
    parse_substitution,
    parse_word,
    render_word,
)
from transword.endo import AffineRule, RowDifferenceRule
from transword.freegroup import Letter
from transword.randwords import random_word
from transword.setspec import Finite, PrefixCode
from transword.sigma import make_family
from transword.words import block, canonicalize, equal_up_to


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
    for _ in range(150):
        w = canonicalize(random_word(rng))
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


def test_render_empty():
    assert render_word(canonicalize(parse_word("[]"))) == "[]"
    assert parse_word("") .segments == ()


def test_render_uses_member_names():
    fam = make_family(2)
    w = parse_word("st(+,0,{sel(S2)(k)})", dict(fam.items()))
    assert "S2" in render_word(w, fam.render_names())
