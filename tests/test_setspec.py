import pytest
from hypothesis import example, given, strategies as st

from transword.setspec import (
    COFINITE,
    FINITE,
    MIXED,
    EvPeriodic,
    Finite,
    PrefixCode,
    _from_bits,
    carry_twin,
    code,
    decode,
    intersection_bound,
    make_evp,
    pair_agreement,
)

from transword.schema import _progression

from oracles import eventually_equal, indicator_classification, sets_equal

HORIZON = 400


def bitmap(spec, n=HORIZON):
    return tuple(1 if spec.contains(i) else 0 for i in range(n))


bits_st = st.lists(st.integers(0, 1), max_size=4).map(tuple)
period_st = st.lists(st.integers(0, 1), min_size=1, max_size=4).map(tuple)

finite_st = st.builds(Finite, st.lists(st.integers(0, 12), max_size=5))
# an all-zero period is a finite set, which only `Finite` spells
evp_st = st.builds(EvPeriodic, bits_st, period_st.filter(lambda bits: 1 in bits))
pcode_st = st.builds(PrefixCode, bits_st, period_st)
spec_st = st.one_of(finite_st, evp_st, pcode_st)


def test_code_bijection():
    assert code("") == 0
    assert code("0") == 1
    assert code("1") == 2
    assert code("00") == 3
    for n in range(200):
        assert code(decode(n)) == n


def test_pcode_members():
    s = PrefixCode((), (0,))  # the all-zeros branch
    assert bitmap(s, 20) == tuple(1 if i in (0, 1, 3, 7, 15) else 0 for i in range(20))
    t = PrefixCode((), (1,))
    assert [n for n in range(20) if t.contains(n)] == [0, 2, 6, 14]


@given(evp_st)
def test_evp_canonical_form_preserves_membership(s):
    raw_pre = s.prefix + s.period
    raw = EvPeriodic(raw_pre, s.period)  # same sequence, fatter presentation
    assert bitmap(raw) == bitmap(s)
    assert raw == s  # canonicalization makes equality syntactic


@given(st.one_of(spec_st, st.sampled_from("abc")), st.integers(1, 3), st.integers(-1, 6))
def test_shift_matches_membership(s, t, d):
    # one family read at the steps t*k + d: a literal chooses alike at
    # every step, a set has no member below 0, and a prefix code is read
    # only at its own steps from step 0
    r = _progression([s], d, t)
    if isinstance(s, PrefixCode):
        assert r == (s if (t, d) == (1, 0) else None)
    elif isinstance(s, str):
        assert r == s
    else:
        assert bitmap(r, 100) == tuple(1 if s.contains(t * i + d) else 0 for i in range(100))


@given(bits_st, period_st)
def test_from_bits_matches_make_evp(prefix, period):
    assert _from_bits(prefix, period) is make_evp(prefix, period)


@given(spec_st)
def test_indicator_classification_sound(s):
    kind, bound = indicator_classification(s)
    bits = bitmap(s)
    if kind == FINITE:
        assert all(b == 0 for b in bits[bound:])
    elif kind == COFINITE:
        assert all(b == 1 for b in bits[bound:])
    else:
        # mixed: membership and non-membership both recur
        assert 0 in bits[20:] and 1 in bits[20:]


@given(spec_st, spec_st, st.integers(-3, 3))
@example(PrefixCode((), (1,)), PrefixCode((), (0,)), 1)
@example(PrefixCode((), (1, 1, 1, 0)), PrefixCode((1, 1, 1, 0), (1,)), 0)
def test_pair_agreement_sound(s1, s2, d):
    kind, bound = pair_agreement(s1, s2, d)

    def agrees(k):
        return 1 if s1.contains(k) == s2.contains(k + d) else 0

    agree = tuple(agrees(k) for k in range(HORIZON))
    if kind == FINITE:
        assert all(a == 0 for a in agree[bound:])
    elif kind == COFINITE:
        assert all(a == 1 for a in agree[bound:])
    else:
        # mixed: both agreement and disagreement recur.  Prefix-code
        # members grow like 2^depth, so two codes can agree up to any fixed
        # horizon: also look at the members of depth 20 to 40 (past 10^6)
        deep = [s1.member(j) for j in range(20, 41) if isinstance(s1, PrefixCode)]
        deep += [s2.member(j) - d for j in range(20, 41) if isinstance(s2, PrefixCode)]
        seen = agree[20:] + tuple(agrees(k) for k in deep)
        assert 0 in seen and 1 in seen


@given(spec_st, spec_st)
def test_sets_equal_matches_bitmaps(s1, s2):
    if isinstance(s1, PrefixCode) and isinstance(s2, PrefixCode):
        # members grow exponentially, so compare branches instead of a
        # fixed-horizon bitmap; canonical branch forms are unique
        expected = all(s1.branch_bit(i) == s2.branch_bit(i) for i in range(64))
    else:
        expected = bitmap(s1) == bitmap(s2)
    assert sets_equal(s1, s2) == expected


def test_eventually_equal_cases():
    assert eventually_equal(Finite([1, 2]), Finite([5]))
    assert eventually_equal(
        EvPeriodic("0011", "10"), EvPeriodic("", "10")
    ) == (bitmap(EvPeriodic("0011", "10"))[6:] == bitmap(EvPeriodic("", "10"))[6:])
    assert not eventually_equal(PrefixCode("", "0"), PrefixCode("", "1"))
    assert not eventually_equal(PrefixCode("", "0"), EvPeriodic("", "10"))
    assert eventually_equal(PrefixCode("01", "1"), PrefixCode("01", "1"))


def test_intersection_bounds():
    s1, s2 = PrefixCode("", "0"), PrefixCode("", "1")
    assert intersection_bound(s1, s2) == 1  # they share only code('') = 0
    assert intersection_bound(s1, s1) is None
    evens = EvPeriodic("", "10")
    odds = EvPeriodic("", "01")
    assert intersection_bound(evens, odds) == 0
    assert intersection_bound(evens, EvPeriodic("", "1")) is None


@given(st.one_of(finite_st, evp_st), pcode_st)
@example(EvPeriodic((), (1, 0)), PrefixCode((1, 1, 0, 0), (0, 0, 0, 1)))
@example(EvPeriodic((), (0, 0, 1, 0)), PrefixCode((1, 0, 0, 1), (0, 0, 1, 1)))
def test_intersection_bound_pcode_vs_periodic(ev, pc):
    # prefix-code members grow like 2^depth, so walk them by depth; the
    # membership pattern of a periodic set along a branch is eventually
    # periodic with period at most 4 * 4 here, and settles by depth 32
    b = intersection_bound(ev, pc)
    hits = [(j, pc.member(j)) for j in range(64) if ev.contains(pc.member(j))]
    if b is None:
        assert any(j >= 32 for j, _ in hits)
    else:
        assert all(h < b for _, h in hits)


def test_pcode_vs_periodic_infinite_intersection_detected():
    # every code of the all-zeros branch past 0 is odd: 1, 3, 7, 15, ...
    odds = EvPeriodic("", "01")
    assert intersection_bound(odds, PrefixCode("", "0")) is None
    evens = EvPeriodic("", "10")
    assert intersection_bound(evens, PrefixCode("", "0")) == 1


def test_twin_branches_agree_cofinitely():
    # code(1^j) + 1 == code(0^(j+1)): the all-ones codes sit one below the
    # all-zeros codes, so they agree at every step at shift 1
    ones, zeros = PrefixCode("", "1"), PrefixCode("", "0")
    assert pair_agreement(ones, zeros, 1) == (COFINITE, 0)
    assert pair_agreement(zeros, ones, -1) == (COFINITE, 1)
    assert pair_agreement(ones, zeros, -1)[0] == MIXED
    # code(00 0 1^j) + 1 == code(00 1 0^j); only the codes of 0 and 00 differ
    s, t = PrefixCode("000", "1"), PrefixCode("001", "0")
    assert carry_twin(s) == t and carry_twin(t) is None
    assert pair_agreement(s, t, 1) == (COFINITE, 4)
    assert [k for k in range(200) if s.contains(k) != t.contains(k + 1)] == [1, 2, 3]
    assert pair_agreement(t, s, -1)[0] == COFINITE
    assert pair_agreement(s, t, 0)[0] == MIXED


def test_mixed_for_shifted_pcode():
    s = PrefixCode("", "0")
    assert pair_agreement(s, s, 0) == (COFINITE, 0)
    assert pair_agreement(s, s, 1)[0] == MIXED


def test_bit_tuples_are_checked():
    # tuples are checked like strings: a 2 is no bit
    with pytest.raises(ValueError):
        make_evp((), (2,))
    with pytest.raises(ValueError):
        EvPeriodic((0, 3), (1,))
    with pytest.raises(ValueError):
        PrefixCode((), (3,))
    assert make_evp((1,), (0,)) == Finite((0,))
    assert PrefixCode((0, 1), (1,)) == PrefixCode("01", "1")


def test_period_must_be_nonempty():
    with pytest.raises(ValueError):
        EvPeriodic("01", "")
    # `make_evp` refuses it too, rather than reading the empty period as zeros
    for prefix in ("", "01", (1,)):
        with pytest.raises(ValueError, match="period must be nonempty"):
            make_evp(prefix, "")
