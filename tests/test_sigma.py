import itertools
import random

import pytest

from transword.dsl import parse_word
from transword.freegroup import Letter
from transword.hag import hag_normal, hag_product
from transword.setspec import Finite, PrefixCode, intersection_bound
from transword.sigma import (
    Maximal,
    SigmaFamily,
    T,
    apply_Ff,
    decompose,
    make_family,
    phi_sigma,
    psi_f,
    separation_pattern,
    u_word,
)
from transword.words import (
    block,
    concat,
    heg_equal,
    invert,
    proj_rank,
    reduce,
)
from transword.randwords import random_letter, random_word, shuffle_presentation

from oracles import cut_points, members_below, split_word

FAM2 = make_family(2)
FAM8 = make_family(8)


def _random_family_word(rng, fam, segments=4):
    """Concatenation of member words, inverses, finite blocks and plain
    streams; the workhorse input for the decomposition laws."""
    parts = []
    for _ in range(rng.randrange(1, segments + 1)):
        roll = rng.random()
        if roll < 0.45:
            name = rng.choice(fam.names)
            w = u_word(name, rng.randrange(5), fam)
            parts.append(w if rng.random() < 0.5 else invert(w))
        elif roll < 0.6:
            parts.append(u_word(T, rng.randrange(4)))
        elif roll < 0.8:
            parts.append(block(*(random_letter(rng) for _ in range(rng.randrange(1, 4)))))
        else:
            parts.append(random_word(rng, max_segments=2))
    return reduce(concat(*parts))


def random_sigma_map(rng, fam):
    return {n: rng.choice(list(fam.names) + [T]) for n in fam.names}


# -- family construction -------------------------------------------------------

def test_make_family_k2_frozen():
    assert [members_below(s, 16) for s in FAM2.members] == [
        [0, 1, 3, 7, 15],
        [0, 2, 6, 14],
    ]
    assert FAM2.bounds == (("S1", "S2", 1),)


def test_make_family_properties():
    for k in (1, 3, 8):
        fam = make_family(k)
        assert len(fam) == k
        assert all(s.contains(0) for s in fam.members)  # the empty-prefix code
        for s1, s2 in itertools.combinations(fam.members, 2):
            assert intersection_bound(s1, s2) is not None
    assert len({s for s in make_family(8).members}) == 8


def test_family_rejects_bad_members():
    with pytest.raises(ValueError):
        SigmaFamily(("S1", "S2"), (PrefixCode("", "0"), PrefixCode("", "0")))
    with pytest.raises(ValueError):
        SigmaFamily(("S1",), (Finite((1, 2)),))


def test_u_word_letters():
    w = u_word("S1", 0, FAM2)
    assert proj_rank(w, 12).letters == (
        Letter("b", 0),
        Letter("b", 1),
        Letter("c", 2),
        Letter("b", 3),
    )
    wt = u_word(T, 3)
    assert proj_rank(wt, 16).letters == (Letter("a", 3), Letter("a", 4), Letter("a", 5))
    assert heg_equal(u_word("S1", 2, FAM2), split_word(u_word("S1", 0, FAM2), (0, 2))[1])


# -- decomposition --------------------------------------------------------------

def test_decompose_whole_member():
    d = decompose(u_word("S1", 0, FAM2), FAM2)
    assert d.tags() == (Maximal("S1", 0, 1),)


# streams of the member's twin class, whose schema is not the member's:
# pcode("","1") at k+1 renders S1 = pcode("","0") from position 1 on
TWIN_FWD = parse_word('[b0] st(+,0,{sel(pcode("","1"))(k+1)})')
TWIN_BWD = parse_word('st(-,0,{sel(pcode("","1"))(k+1)}) [b0^-1]')


def test_decompose_predecessor_extension():
    for w in (concat(block(Letter("b", 0)), u_word("S1", 1, FAM2)), TWIN_FWD):
        d = decompose(w, FAM2)
        assert d.tags() == (Maximal("S1", 0, 1),)


def test_decompose_extension_backward():
    # inverse orientation: the extension eats the following block letters
    w = reduce(concat(invert(u_word("S1", 2, FAM2)), block(Letter("b", 1, -1))))
    assert decompose(w, FAM2).tags() == (Maximal("S1", 1, -1),)
    assert decompose(TWIN_BWD, FAM2).tags() == (Maximal("S1", 0, -1),)


def test_decompose_plain_cases():
    d = decompose(u_word(T, 0), FAM2)
    assert d.tags() == (None,)
    w = reduce(concat(u_word(T, 0), invert(u_word("S2", 4, FAM2))))
    d = decompose(w, FAM2)
    assert d.tags() == (None, Maximal("S2", 4, -1))


def test_decompose_requires_reduced():
    w = concat(block(Letter("a", 0), Letter("a", 0, -1)), u_word("S1", 0, FAM2))
    with pytest.raises(ValueError):
        decompose(w, FAM2)


def test_decompose_laws_random():
    rng = random.Random(71)
    for _ in range(100):
        w = _random_family_word(rng, FAM8)
        d = decompose(w, FAM8)
        # cover: pieces recompose to the word
        assert heg_equal(d.recompose(), w)
        for piece in d.pieces:
            if piece.tag is not None:
                expect = u_word(piece.tag.name, piece.tag.n, FAM8)
                if piece.tag.sign < 0:
                    expect = invert(expect)
                assert piece.word == expect
        # stability under re-presentation
        assert decompose(shuffle_presentation(w, rng), FAM8).tags() == d.tags()


# -- the rewriting homomorphisms -------------------------------------------------

def test_apply_Ff_examples():
    f = {"S1": T, "S2": "S2"}
    assert heg_equal(apply_Ff(u_word("S1", 0, FAM2), FAM2, f), u_word(T, 0))
    assert heg_equal(
        apply_Ff(invert(u_word("S1", 0, FAM2)), FAM2, f), invert(u_word(T, 0))
    )
    ident = {"S1": "S1", "S2": "S2"}
    rng = random.Random(72)
    for _ in range(40):
        w = _random_family_word(rng, FAM2)
        assert heg_equal(apply_Ff(w, FAM2, ident), w)


def test_apply_Ff_requires_total_map():
    with pytest.raises(ValueError):
        apply_Ff(u_word("S1", 0, FAM2), FAM2, {"S1": T})


def test_psi_examples():
    f = {"S1": T, "S2": T}
    w = concat(u_word("S1", 0, FAM2), invert(u_word("S2", 0, FAM2)))
    assert psi_f(w, FAM2, f) .germs == ()
    assert psi_f(block(Letter("a", 3), Letter("b", 1)), FAM2, f).germs == ()
    ident = {"S1": "S1", "S2": "S2"}
    h = psi_f(u_word("S1", 0, FAM2), FAM2, ident)
    assert len(h.germs) == 1 and h.germs[0].sign == 1


def test_psi_homomorphism_with_interior_splits():
    rng = random.Random(73)
    for _ in range(120):
        w = _random_family_word(rng, FAM8)
        f = random_sigma_map(rng, FAM8)
        pts = cut_points(w)
        w0, w1 = split_word(w, pts[rng.randrange(len(pts))])
        whole = psi_f(w, FAM8, f)
        pieces = hag_product(psi_f(w0, FAM8, f), psi_f(w1, FAM8, f))
        assert whole == pieces


def test_separation_patterns():
    assert separation_pattern(FAM2, {"S1"}) == (1, 0)
    assert separation_pattern(FAM2, set()) == (0, 0)
    assert separation_pattern(FAM2, {"S1", "S2"}) == (1, 1)


def test_separation_injective_k4():
    fam = make_family(4)
    seen = {}
    for mask in range(16):
        chosen = {fam.names[i] for i in range(4) if mask >> i & 1}
        pat = separation_pattern(fam, chosen)
        assert pat == tuple(1 if fam.names[i] in chosen else 0 for i in range(4))
        assert pat not in seen
        seen[pat] = mask


def test_separation_tests_one_candidate_per_stream(monkeypatch):
    # tail keys leave one candidate member per stream: one alignment per
    # member word, not one per (stream, member) pair; the twin branches
    # S2/S3, S4/S5, S6/S7 and S8/S9 still get distinct keys on member words.
    # Exact keys make alignment a lookup: a sweep over every subset runs
    # no shift search (a search-based alignment runs 10 240)
    from transword import schema, sigma, words

    real = schema.tail_alignment
    calls = []

    def counting(su, sv):
        calls.append((su, sv))
        return real(su, sv)

    for mod in (schema, sigma, words):
        monkeypatch.setattr(mod, "tail_alignment", counting)
    fam = make_family(10)
    assert separation_pattern(fam, {"S2", "S3", "S7"}) == (0, 1, 1, 0, 0, 0, 1, 0, 0, 0)
    assert len(calls) == 10
    assert all(real(su, sv) is not None for su, sv in calls)

    searches = []
    real_match = schema.poly_shift_match
    monkeypatch.setattr(
        schema, "poly_shift_match", lambda f, g: searches.append(f) or real_match(f, g)
    )
    for mask in range(1 << len(fam)):
        chosen = {n for i, n in enumerate(fam.names) if mask >> i & 1}
        assert separation_pattern(fam, chosen) == tuple(
            1 if n in chosen else 0 for n in fam.names
        )
    assert searches == []


def test_separation_sweep_computes_once_per_schema(monkeypatch):
    # interned schemas carry their tail key and fold: a sweep over every
    # subset runs each body at most once per distinct schema (without
    # interning, 10 250 tail keys and 61 440 folds), and the family builds
    # each member schema once
    from transword import schema, sigma

    def record(mod, name, calls):
        real = getattr(mod, name)

        def counting(arg):
            calls.append(arg)
            return real(arg)

        monkeypatch.setattr(mod, name, counting)

    bodies = {"tail_key": [], "fold": []}
    for name, calls in bodies.items():
        record(schema, f"_compute_{name}", calls)
    built = []
    record(sigma, "member_schema", built)
    fam = make_family(10)
    for r in range(len(fam) + 1):
        for chosen in itertools.combinations(fam.names, r):
            assert separation_pattern(fam, chosen) == tuple(
                1 if n in chosen else 0 for n in fam.names
            )
    for calls in bodies.values():
        assert len(calls) == len(set(calls)) <= len(fam) + 1
    assert sorted(built, key=fam.members.index) == list(fam.members)


def test_separation_sweep_passes_per_member_word(monkeypatch):
    # member words are marked as fixpoints of the rewrite pass, so the sweep
    # runs at most two passes per member word: ra_retract's and hag_normal's
    # over the empty word, when the member is not rewritten onto T.  Passes
    # skipped on marked words do not reach `_rewrite`; without the mark the
    # sweep makes six passes per member word (61 440)
    from transword import words

    real = words._rewrite
    passes = 0

    def counting(*args):
        nonlocal passes
        passes += 1
        return real(*args)

    monkeypatch.setattr(words, "_rewrite", counting)
    fam = make_family(10)
    for r in range(len(fam) + 1):
        for chosen in itertools.combinations(fam.names, r):
            before = passes
            separation_pattern(fam, chosen)
            assert passes - before <= 2 * len(fam)


# -- the permutation action ------------------------------------------------------

def _perm_map(fam, perm):
    return {fam.names[i]: fam.names[perm[i]] for i in range(len(fam))}


def test_phi_sigma_swap():
    swap = _perm_map(FAM2, (1, 0))
    h = hag_normal(u_word("S1", 0, FAM2))
    moved = phi_sigma(h, FAM2, swap)
    assert moved == hag_normal(u_word("S2", 0, FAM2))
    ident = _perm_map(FAM2, (0, 1))
    assert phi_sigma(h, FAM2, ident) == h


def test_phi_sigma_rejects_non_permutations():
    with pytest.raises(ValueError):
        phi_sigma(hag_normal(u_word("S1", 0, FAM2)), FAM2, {"S1": "S2", "S2": "S2"})


def test_phi_sigma_group_laws():
    rng = random.Random(74)
    k = len(FAM8)
    samples = [hag_normal(_random_family_word(rng, FAM8)) for _ in range(20)]
    for _ in range(25):
        p1 = list(range(k))
        p2 = list(range(k))
        rng.shuffle(p1)
        rng.shuffle(p2)
        m1, m2 = _perm_map(FAM8, p1), _perm_map(FAM8, p2)
        composed = {n: m1[m2[n]] for n in FAM8.names}
        inverse1 = {m1[n]: n for n in FAM8.names}
        for h in samples[:6]:
            assert phi_sigma(phi_sigma(h, FAM8, m2), FAM8, m1) == phi_sigma(
                h, FAM8, composed
            )
            assert phi_sigma(phi_sigma(h, FAM8, m1), FAM8, inverse1) == h


def test_distinct_permutations_act_distinctly():
    k = len(FAM8)
    basis = [hag_normal(u_word(n, 0, FAM8)) for n in FAM8.names]
    rng = random.Random(75)
    for _ in range(25):
        p1 = list(range(k))
        p2 = list(range(k))
        rng.shuffle(p1)
        rng.shuffle(p2)
        if p1 == p2:
            continue
        m1, m2 = _perm_map(FAM8, p1), _perm_map(FAM8, p2)
        assert any(
            phi_sigma(b, FAM8, m1) != phi_sigma(b, FAM8, m2)
            for b in basis
        )
