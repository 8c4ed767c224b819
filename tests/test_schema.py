import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import example, given, strategies as st

from transword.schema import (
    COFINITE,
    FINITE,
    MIXED,
    Entry,
    IndexFn,
    K,
    Schema,
    _present,
    _progression,
    affine,
    fold,
    pair_cancellation,
    poly_shift_match,
    tail_alignment,
    unroll,
)
from transword.dsl import parse_word, render_word
from transword.freegroup import Letter
from transword.randwords import random_stream
from transword.setspec import EvPeriodic, Finite, PrefixCode, carry_twin, make_evp
from transword.words import SchematicWord, Stream

from oracles import (
    TWINS,
    adjacent_pairs,
    alignment_by_search,
    fold_by_copies,
    letter_by_entry,
    step_hits_by_pairs,
)

idx_st = st.one_of(
    st.builds(affine, st.integers(1, 3), st.integers(0, 6)),
    st.builds(lambda m: IndexFn(1, 2 * m + 3, m * (m + 1), 2), st.integers(0, 3)),
)


def seq(schema, count, start=0):
    return [schema.letter_at(p) for p in range(start, start + count)]


def test_index_fn_basics():
    f = affine(2, 1)
    assert [f.value(k) for k in range(4)] == [1, 3, 5, 7]
    assert f.solve(5) == 2 and f.solve(4) is None
    row = IndexFn(1, 3, 0, 2)  # k(k+3)/2, the first pairing row
    assert [row.value(k) for k in range(5)] == [0, 2, 5, 9, 14]
    assert row.solve(9) == 3 and row.solve(10) is None


def test_index_fn_rejects_bad():
    with pytest.raises(ValueError):
        IndexFn(0, 0, 3)  # constant
    with pytest.raises(ValueError):
        IndexFn(0, -1, 9)  # decreasing
    with pytest.raises(ValueError):
        IndexFn(0, 1, 1, 2)  # (k+1)/2 is not integer-valued


# quadratics with -a2 < a1 < 0: increasing from k = 0, with the value at
# small k on the lower root of the quadratic
negative_a1_st = st.integers(2, 4).flatmap(
    lambda a2: st.builds(IndexFn, st.just(a2), st.integers(1 - a2, -1), st.integers(0, 6))
)


@given(st.one_of(idx_st, negative_a1_st), st.integers(0, 30))
@example(IndexFn(2, -1, 0), 0)
def test_solve_inverts_value(f, k):
    assert f.solve(f.value(k)) == k


@given(idx_st, st.integers(-3, 5), st.integers(0, 10))
def test_shift_is_composition(f, d, k):
    try:
        g = f.shift(d)
    except ValueError:
        assert d < 0  # only backward shifts can leave the naturals
        return
    if k + d >= 0:
        assert g.value(k) == f.value(k + d)


@given(idx_st, st.integers(1, 3), st.integers(0, 2), st.integers(0, 8))
def test_compose_affine(f, t, s, k):
    assert f.compose_affine(t, s).value(k) == f.value(t * k + s)


@given(idx_st, st.integers(-4, 4))
def test_poly_shift_match_roundtrip(f, d):
    if all(f.value(k + d) >= 0 for k in (0, 1)) and (f.a2 + f.a1 + 2 * f.a2 * d) > 0:
        try:
            g = f.shift(-d)
        except ValueError:
            return
        assert poly_shift_match(f, g) == d


def test_pair_cancellation_always():
    # telescope wrap: entry1 at k is the inverse of entry0 at k+1
    e0 = Entry("a", K, 1)
    e1 = Entry("a", affine(1, 1), -1)
    assert pair_cancellation(e1, e0, 1) == (COFINITE, 0)
    assert pair_cancellation(e0, e1, 0) == (FINITE, ())


def test_pair_cancellation_isolated_root():
    e0 = Entry("a", affine(2, 0), 1)   # 2k
    e1 = Entry("a", affine(1, 1), -1)  # k+1
    kind, hits = pair_cancellation(e0, e1, 0)
    assert kind == FINITE and hits == (1,)


def test_pair_cancellation_selector_cases():
    evens = EvPeriodic("", "10")
    same = Entry(evens, K, 1), Entry(evens, K, -1)
    assert pair_cancellation(*same, 0) == (COFINITE, 0)
    other = Entry(evens, K, 1), Entry(EvPeriodic("", "01"), K, -1)
    assert pair_cancellation(*other, 0) == (FINITE, ())
    p1, p2 = PrefixCode("", "0"), PrefixCode("", "1")
    assert pair_cancellation(Entry(p1, K, 1), Entry(p2, K, -1), 0)[0] == MIXED


def test_schema_validity():
    assert Schema((Entry("a", K, 1), Entry("a", affine(1, 1), -1))).valid
    p1, p2 = PrefixCode("", "0"), PrefixCode("", "1")
    assert not Schema((Entry(p1, K, 1), Entry(p2, K, -1))).valid


@given(idx_st, st.integers(1, 3))
def test_unroll_preserves_letters(f, t):
    sch = Schema((Entry("a", f, 1), Entry("b", f, -1)))
    big = unroll(sch, t)
    assert big is not None
    assert seq(big, 24) == seq(sch, 24)


def test_unroll_decimates_selectors():
    evens = EvPeriodic("", "10")
    sch = Schema((Entry(evens, K, 1),))
    big = unroll(sch, 2)
    assert big is not None and seq(big, 20) == seq(sch, 20)
    assert unroll(Schema((Entry(PrefixCode("", "0"), K, 1),)), 2) is None


bits_st = st.lists(st.integers(0, 1), max_size=4).map(tuple)
periodic_st = st.one_of(
    st.builds(Finite, st.lists(st.integers(0, 12), max_size=5)),
    st.builds(EvPeriodic, bits_st, bits_st.filter(lambda bits: 1 in bits)),
)


@given(st.one_of(periodic_st, st.sampled_from("bc")), st.integers(1, 4))
def test_weave_inverts_decimation(spec, t):
    # the t strands of spec at steps t*k + s, read back along the positions
    # of a width-t schema: a literal chooses alike at every step
    strands = [_progression([spec], s, t) for s in range(t)]
    assert _progression(strands, 0, 1) == spec


def test_progression_reads_each_choice():
    # the choice at step k is entry p % m's at step p // m, p = start +
    # stride*k: at p < 0 a literal b or c chooses alike and a set has no
    # member; starts far along (10**9 steps) cost what short ones do
    def choice(fam, k):
        return fam if isinstance(fam, str) else "b" if k >= 0 and fam.contains(k) else "c"

    rng = random.Random(61)
    sets = [Finite((0, 3)), EvPeriodic("1", "011"), EvPeriodic("", "10"), "b", "c"]
    for n in range(400):
        fams = [rng.choice(sets) for _ in range(rng.randint(1, 4))]
        m, start, stride = len(fams), rng.randint(-8, 8), rng.randint(1, 6)
        start += 10**9 * m * (n % 4 == 0)
        got = _progression(fams, start, stride)
        for k in range(30):
            q, r = divmod(start + stride * k, m)
            assert choice(got, k) == choice(fams[r], q), (fams, start, stride, k)


@given(idx_st, st.integers(1, 3))
def test_fold_undoes_unroll(f, t):
    sch = Schema((Entry("a", f, 1),))
    big = unroll(sch, t)
    assert fold(big) == fold(sch)
    assert seq(fold(big), 20) == seq(sch, 20)


def test_fold_interleaved_families():
    # decode-style: a(3k) b(3k+1)... folds only when families repeat
    sch = Schema(
        (Entry("a", affine(3, 0), 1), Entry("a", affine(3, 1), 1), Entry("a", affine(3, 2), 1))
    )
    assert fold(sch) == Schema((Entry("a", K, 1),))
    mixed = Schema((Entry("a", affine(3, 0), 1), Entry("b", affine(3, 1), 1)))
    assert fold(mixed) == mixed


def test_fold_weaves_selectors():
    evens = EvPeriodic("", "10")
    odds = EvPeriodic("", "01")
    sch = Schema((Entry(evens, affine(2, 0), 1), Entry(odds, affine(2, 1), 1)))
    folded = fold(sch)
    assert folded.width == 1
    assert seq(folded, 16) == seq(sch, 16)


def test_fold_matches_copies_oracle():
    # the position-view fold against the compose-and-compare oracle on
    # seeded schemas, with and without prefix codes, unrolled and shifted
    # so that most have copies to fold
    count = folded = codes = 0
    for seed in range(200):
        rng = random.Random(seed)
        sch = random_stream(rng, selectors=TWINS if seed % 3 == 0 else None).schema
        for t in (1, 2, 3, 4, 6):
            for phase in range(3):
                s = unroll(sch, t, phase)
                if s is None:
                    continue
                assert fold(s) is fold_by_copies(s)
                assert fold(fold(s)) is fold(s)
                count += 1
                folded += fold(s) is not s
                codes += any(isinstance(e.fam, PrefixCode) for e in s.entries)
    assert count >= 2000 and folded >= 1500 and codes >= 50
    # equal position polynomials, but the folded index (k^2-k)/2 does not
    # increase, so this word keeps width 2
    (seg,) = parse_word("st(+,0,{a(2k^2-k) a(2k^2+k)})").segments
    assert fold(seg.schema) is seg.schema is fold_by_copies(seg.schema)
    assert seg.schema.width == 2


def test_tail_alignment_same_schema_shift():
    sch1 = Schema((Entry("a", K, 1),))
    sch2 = Schema((Entry("a", affine(1, 5), 1),))
    al = tail_alignment(sch2, sch1)
    assert al is not None
    delta, Kpos = al
    assert all(
        sch2.letter_at(p) == sch1.letter_at(p + delta) for p in range(Kpos, Kpos + 12)
    )


def test_tail_alignment_selector_eventual():
    s1 = EvPeriodic("0011", "10")
    s2 = EvPeriodic("", "10")
    al = tail_alignment(Schema((Entry(s1, K, 1),)), Schema((Entry(s2, K, 1),)))
    assert al is not None
    delta, Kpos = al
    assert delta == 0
    sch1, sch2 = Schema((Entry(s1, K, 1),)), Schema((Entry(s2, K, 1),))
    assert all(sch1.letter_at(p) == sch2.letter_at(p) for p in range(Kpos, Kpos + 30))


def test_tail_alignment_rejects_distinct_branches():
    s1 = Schema((Entry(PrefixCode("", "0"), K, 1),))
    s2 = Schema((Entry(PrefixCode("", "1"), K, 1),))
    assert tail_alignment(s1, s2) is None
    assert tail_alignment(s1, s1) == (0, 0)


def test_tail_alignment_across_widths():
    one = Schema((Entry("a", K, 1),))
    two = unroll(one, 2)
    al = tail_alignment(two, one)
    assert al is not None and al[0] == 0


def test_tail_alignment_sign_mismatch():
    s1 = Schema((Entry("a", K, 1),))
    s2 = Schema((Entry("a", K, -1),))
    assert tail_alignment(s1, s2) is None


def test_tail_alignment_random_consistency():
    rng = random.Random(5)
    for _ in range(200):
        f = affine(rng.choice((1, 2)), rng.randrange(5))
        sch = Schema((Entry(rng.choice("abc"), f, rng.choice((1, -1))),))
        shift = rng.randrange(6)
        other = Schema((Entry(sch.entries[0].fam, f.shift(shift), sch.entries[0].sign),))
        al = tail_alignment(other, sch)
        assert al is not None
        delta, Kpos = al
        assert all(
            other.letter_at(p) == sch.letter_at(p + delta)
            for p in range(Kpos, Kpos + 10)
        )


# ---------------------------------------------------------------------------
# tail keys: tail_alignment(su, sv) is not None implies equal keys

def _rotate(sch, r):
    """The presentation starting r entries later: entries that wrap move
    one step forward."""
    wrapped = unroll(Schema(sch.entries[:r]), 1, 1)
    return None if wrapped is None else Schema(sch.entries[r:] + wrapped.entries)


def _twinned(sch):
    """`unroll(sch, 1, -1)` with every branch ending in ones moved to
    its twin: (x0 1^w, f) at step k renders what (x1 0^w, f(k-1)) renders
    at step k+1.  None when some entry cannot move."""
    out = []
    for e in sch.entries:
        fam = e.fam
        if isinstance(fam, PrefixCode):
            fam = carry_twin(fam)
        elif not isinstance(fam, str):
            fam = _progression([fam], -1, 1)
        if fam is None:
            return None
        try:
            out.append(Entry(fam, e.idx.shift(-1), e.sign))
        except ValueError:
            return None
    return Schema(tuple(out))


def _presentations(sch):
    cands = [unroll(sch, 2), unroll(sch, 3), _twinned(sch)]
    cands += [_rotate(sch, r) for r in range(1, sch.width)]
    cands += [unroll(sch, 1, d) for d in (1, 2, 3)]
    return [c for c in cands if c is not None and c.valid]


@st.composite
def schema_st(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    selectors = TWINS if draw(st.booleans()) else None
    sch = random_stream(rng, selectors=selectors).schema
    if draw(st.booleans()):
        twin = _twinned(sch)
        if twin is not None and twin.valid:
            sch = twin
    return sch


# shifts far along too, as the cursor of a stream that starts there asks for
@given(schema_st(), st.integers(-2, 4) | st.integers(10**9, 10**9 + 3))
def test_unroll_by_one_shifts(sch, d):
    shifted = unroll(sch, 1, d)
    if shifted is None:
        # a prefix code moves only by 0; an index function can leave the
        # naturals only when shifted back
        assert d < 0 or any(isinstance(e.fam, PrefixCode) for e in sch.entries)
        return
    for p in range(max(0, -d * sch.width), 40):
        assert shifted.letter_at(p) == sch.letter_at(p + d * sch.width)


@given(schema_st(), st.integers(0, 3), st.integers(0, 64))
def test_present_renders_the_letters_from_its_start(sch, pick, s):
    # widths among the divisors of m, m, 2m and 3m, starts 0 .. 2m+1
    m = sch.width
    widths = [d for d in range(1, m) if m % d == 0] + [m, 2 * m, 3 * m]
    w, s = widths[pick % len(widths)], s % (2 * m + 2)
    got = _present(sch, w, s)
    if got is not None:
        assert got.width == w
        assert seq(got, 200) == seq(sch, 200, s)
    elif w % m == 0:
        # each index function stays natural-valued at the steps from s on,
        # so only a prefix code read off its own steps refuses
        assert any(
            isinstance(sch.entries[p % m].fam, PrefixCode) and (w, p // m) != (m, 0)
            for p in range(s, s + w)
        )


@given(schema_st())
def test_tail_key_presentation_invariant(sch):
    # the key is one schema per class: its own key from its position 0
    # (kept when the key is built), aligned with the schema, read back from
    # its rendering, and shared by every presentation
    key = sch.tail_key
    assert key._key == (key, 0, 0)
    assert key.tail_key is key and tail_alignment(sch, key) is not None
    w = SchematicWord((Stream(True, 0, key),))
    assert parse_word(render_word(w)) == w
    for other in _presentations(sch):
        assert other.tail_key is key
        assert tail_alignment(other, sch) is not None
        assert tail_alignment(sch, other) is not None


def _key_letter(key, q):
    """The key's letter at position q, its pattern extended back to q < 0:
    a selector by its period, an index function by its polynomial."""
    k, j = divmod(q, key.width)
    e = key.entries[j]
    if k < 0 and isinstance(e.fam, EvPeriodic):
        assert not e.fam.prefix  # a key's selectors are purely periodic
        fam = "b" if e.fam.period[k % len(e.fam.period)] else "c"
        return Letter(fam, e.idx.value(k), e.sign)
    return letter_by_entry(key, q)


@given(schema_st())
@example(parse_word("st(+,0,{b(k+2)^-1 a((k^2+5k+2)/2)})").segments[0].schema)
@example(parse_word('st(+,0,{sel(fin{})(k+6) sel(eper("","001"))(k)^-1})').segments[0].schema)
def test_tail_key_slot_renders_the_key(sch):
    # (key, p0, k0) = `_key`: from k0 on, the schema's letter at p is the
    # key's at p - p0, extended back where p < p0: the fact
    # `tail_alignment` trusts for its bound (the examples start before
    # their keys)
    for s in [sch] + _presentations(sch):
        key = s.tail_key
        _, p0, k0 = s._key
        assert seq(s, 200, k0) == [_key_letter(key, p - p0) for p in range(k0, k0 + 200)]


@given(schema_st(), schema_st(), st.integers(0, 8))
def test_tail_key_necessary_for_alignment(su, sv, pick):
    # keys are exact: equal exactly when the search finds an alignment, at
    # the search's shift, with a sound bound
    pres = _presentations(sv)
    if pres and pick < 4:
        sv = pres[pick % len(pres)]  # a pair that often aligns
    found = alignment_by_search(su, sv)
    assert (su.tail_key is sv.tail_key) == (found is not None)
    al = tail_alignment(su, sv)
    assert (al is None) == (found is None)
    if al is not None:
        delta, Kpos = al
        assert delta == found[0]
        start = max(Kpos, -delta)
        assert seq(su, 200, start) == seq(sv, 200, start + delta)


def test_tail_key_twin_branches():
    # (0 1^w, k+1) at step k renders what (1 0^w, k) renders at step k+1
    s = Schema((Entry(PrefixCode("0", "1"), affine(1, 1), 1),))
    t = Schema((Entry(PrefixCode("1", "0"), K, 1),))
    assert s.tail_key is t.tail_key
    al = tail_alignment(s, t)
    assert al is not None
    delta, Kpos = al
    assert all(s.letter_at(p) == t.letter_at(p + delta) for p in range(Kpos, Kpos + 200))
    # the same branches on the same index functions never align
    u = Schema((Entry(PrefixCode("0", "1"), K, 1),))
    assert u.tail_key is not t.tail_key and tail_alignment(u, t) is None


def test_poly_shift_match_integer_cases():
    row = IndexFn(1, 3, 0, 2)  # k(k+3)/2
    assert poly_shift_match(row.shift(2), row) == 2
    assert poly_shift_match(row, row.shift(2)) == -2
    assert poly_shift_match(affine(2, 5), affine(2, 1)) == 2
    assert poly_shift_match(affine(2, 4), affine(2, 1)) is None  # d = 3/2
    assert poly_shift_match(affine(1, 0), affine(2, 0)) is None
    assert poly_shift_match(IndexFn(1, 1, 0, 2), IndexFn(1, 1, 0, 1)) is None


# ---------------------------------------------------------------------------
# interning: equal entries give one object carrying the derived values


@given(schema_st())
def test_schemas_are_interned(sch):
    family = [sch] + _presentations(sch)
    for s in family:
        copied = tuple(Entry(e.fam, e.idx, e.sign) for e in s.entries)
        assert Schema(copied) is s
        assert fold(fold(s)) is fold(s)
        w = SchematicWord((Stream(False, 0, s), Stream(True, 2 * s.width, s)))
        again = parse_word(render_word(w))
        assert all(a.schema is b.schema for a, b in zip(again.segments, w.segments))
    for s in family:
        for t in family:
            assert (s is t) == (s == t) == (s.entries == t.entries)
            if s.entries == t.entries:
                assert hash(s) == hash(t)


def test_empty_schema_rejected():
    with pytest.raises(ValueError):
        Schema(())


def test_schema_copy_and_pickle():
    import copy
    import pickle

    w = parse_word('[a1] st(-,1,{sel(pcode("01","1"))(k+2) c(2k)^-1}) st(+,0,{a((k^2+5k+4)/2)^-1})')
    again = pickle.loads(pickle.dumps(w))
    assert again == w
    assert all(a.schema is b.schema for a, b in zip(again.segments[1:], w.segments[1:]))
    s = w.segments[1].schema
    assert copy.copy(s) is s and copy.deepcopy(s) is s
    assert s.width == len(s.entries) == 2
    with pytest.raises(FrozenInstanceError):
        s.width = 3
    assert copy.deepcopy(w) == w


def test_index_fn_and_entry_interned():
    import copy
    import pickle

    assert IndexFn(2, 2, 0, 2) is IndexFn(1, 1, 0, 1)
    assert IndexFn(0, 3, 0, 3) is affine(1) is K
    f = IndexFn(1, 3, 0, 2)
    e = Entry(PrefixCode("01", "1"), f, -1)
    assert Entry(PrefixCode("01", "1"), IndexFn(2, 6, 0, 4), -1) is e
    assert f.shift(1).shift(-1) is f and e.idx is f
    # the repr of the frozen dataclasses these classes replace
    assert repr(f) == "IndexFn(a2=1, a1=3, a0=0, div=2)"
    assert repr(Entry("a", K, 1)) == (
        "Entry(fam='a', idx=IndexFn(a2=0, a1=1, a0=0, div=1), sign=1)"
    )
    assert repr(Entry(PrefixCode("", "0"), K, -1)) == (
        "Entry(fam=PrefixCode(branch_prefix=(), branch_period=(0,)), "
        "idx=IndexFn(a2=0, a1=1, a0=0, div=1), sign=-1)"
    )
    sch = Schema((Entry("a", K, 1),))
    assert repr(sch) == (
        "Schema(entries=(Entry(fam='a', idx=IndexFn(a2=0, a1=1, a0=0, div=1), sign=1),))"
    )
    # set specs, keyed as given and in canonical form like IndexFn
    fin = Finite([6, 3])
    assert fin is Finite((3, 6))
    evp = make_evp("0", "1")
    assert evp is EvPeriodic((0,), (1,)) is EvPeriodic([0], "11")
    assert carry_twin(PrefixCode("0", "1")) is PrefixCode("1", "0")
    specs = fin, evp, e.fam
    assert [repr(x) for x in specs] == [
        "Finite(elems=(3, 6))",
        "EvPeriodic(prefix=(0,), period=(1,))",
        "PrefixCode(branch_prefix=(0,), branch_period=(1,))",
    ]
    for x in (f, e, sch, *specs):
        assert copy.copy(x) is x and copy.deepcopy(x) is x
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(x, protocol)) is x
    for x, name, value in (
        (f, "a2", 3), (f, "div", 1), (e, "sign", 1), (e, "idx", K),
        (fin, "elems", ()), (evp, "period", (1, 1)), (e.fam, "branch_prefix", ()),
    ):
        with pytest.raises(FrozenInstanceError):
            setattr(x, name, value)
    with pytest.raises(FrozenInstanceError):
        del f.a0


@pytest.mark.parametrize(
    "make",
    [
        lambda: IndexFn(0, 0, 3),  # constant
        lambda: IndexFn(0, -1, 9),  # decreasing
        lambda: IndexFn(0, 1, 1, 2),  # not integer-valued
        lambda: IndexFn(0, 1, 0, 0),  # zero divisor
        lambda: IndexFn(0, 1, -1),  # negative at 0
        lambda: Entry("d", K, 1),
        lambda: Entry("a", K, 0),
        lambda: Finite([-1]),
        lambda: PrefixCode("2", "1"),
        lambda: EvPeriodic("1", "0"),  # a finite set, spelt only by Finite
    ],
)
def test_bad_index_fn_or_entry_raises_every_time(make):
    # an invalid argument tuple never enters a table, so it fails on every call
    for _ in range(2):
        with pytest.raises(ValueError):
            make()


def test_schema_slots_match_fresh_computation():
    # the cached shifts and pair classes are the values computed afresh,
    # on random schemas with and without prefix codes
    codes = failed = 0
    for seed in range(120):
        rng = random.Random(seed)
        sch = random_stream(rng, selectors=TWINS if seed % 3 == 0 else None).schema
        family = [sch] + [s for s in (unroll(sch, 2), unroll(sch, 3)) if s is not None]
        for s in family:
            for d in range(5):
                cached = unroll(s, 1, d)
                assert cached is _present(s, s.width, d * s.width)  # None exactly where it is
                assert unroll(s, 1, d) is cached and s._shifts[d] is cached
                failed += cached is None
            direct = tuple(
                (j, *pair_cancellation(e1, e2, shift))
                for j, e1, e2, shift in adjacent_pairs(s)
            )
            assert s.pair_classes == direct
            assert s.valid == all(kind != MIXED for _, kind, _ in direct)
        codes += any(isinstance(e.fam, PrefixCode) for e in sch.entries)
    assert codes >= 20 and failed >= 20
    p1, p2 = EvPeriodic("", "01"), EvPeriodic("", "0011")
    invalid = Schema((Entry(p1, K, 1), Entry(p2, K, -1)))
    assert not invalid.valid
    assert MIXED in (kind for _, kind, _ in invalid.pair_classes)


def test_reader_matches_entry_arithmetic():
    # `letters`, `letter_at` and `last_hit` against the
    # entry-by-entry reads of the oracles, on random schemas with and
    # without prefix codes, each also followed by its first entry inverted
    # one step on (a wrap pair that cancels where the family repeats across
    # the step) and by its first entry as a b-letter inverted by a c/b
    # selector at the same index (a pair that cancels at the seeded finite
    # step set)
    codes = hits = misses = 0
    for seed in range(120):
        rng = random.Random(seed)
        sch = random_stream(rng, selectors=TWINS if seed % 3 == 0 else None).schema
        e = sch.entries[0]
        tele = Schema((e, Entry(e.fam, e.idx.shift(1), -e.sign)))
        steps = Finite(rng.sample(range(7), 3))
        spot = Schema((Entry("b", e.idx, e.sign), Entry(steps, e.idx, -e.sign)))
        assert spot.last_hit == max(steps.elems)
        for s in (sch, tele, spot):
            m = s.width
            ref = [letter_by_entry(s, p) for p in range(6 * m)]
            assert [s.letter_at(p) for p in range(6 * m)] == ref
            for p0 in range(3 * m + 1):  # every offset within a step
                for p1 in range(p0, p0 + 2 * m + 2):  # empty ranges included
                    assert s.letters(p0, p1) == tuple(ref[p0:p1])
            # a settled stream sits past its last hit, so absorb refuses
            # exactly the step `last_hit`
            assert s.last_hit < 0 or step_hits_by_pairs(s, s.last_hit)
            for k in range(7):
                hit = step_hits_by_pairs(s, k)
                assert (hit and k >= s.last_hit) == (k == s.last_hit)
                hits, misses = hits + hit, misses + (not hit)
        codes += any(isinstance(e.fam, PrefixCode) for e in sch.entries)
    assert codes >= 20 and hits >= 300 and misses >= 300
