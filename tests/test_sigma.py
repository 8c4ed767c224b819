import functools
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
    equal_up_to,
    heg_equal,
    invert,
    proj_rank,
    ra_retract,
    reduce,
)
from transword.randwords import random_letter, random_word, shuffle_presentation

from corpus import family_word
from oracles import (
    apply_Ff_by_pieces,
    cut_points,
    members_below,
    psi_f_by_composite,
    split_word,
)

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
    s1, s2 = FAM2.members
    for names, members in (
        (("S1", "S2"), (s1,)),  # unpaired
        (("S1", "S1"), (s1, s2)),  # duplicate
        (("S1", T), (s1, s2)),  # the non-member symbol
    ):
        with pytest.raises(ValueError):
            SigmaFamily(names, members)
    with pytest.raises(ValueError):
        make_family(0)


def test_family_lookups_reject_unknown_names():
    for lookup in (FAM2.spec, FAM2.schema):
        with pytest.raises(KeyError, match="S3"):
            lookup("S3")
    assert FAM2.schema(T) is u_word(T).segments[0].schema


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
    with pytest.raises(ValueError, match="family"):
        u_word("S1")
    for name, spec in FAM8.items():
        for n in range(4):
            assert u_word(spec, n) == u_word(name, n, FAM8)


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


def test_decompose_cuts_a_matched_stream_head_as_letters():
    # the stream renders b1 at step 0, then S3 = pcode("1","0") from 2 on
    fam = make_family(4)
    w = parse_word('st(+,0,{sel(pcode("0","1"))(k+1)})')
    for word, head, tags in (
        (w, block(Letter("b", 1)), (None, Maximal("S3", 2, 1))),
        (invert(w), block(Letter("b", 1, -1)), (Maximal("S3", 2, -1), None)),
    ):
        d = decompose(word, fam)
        assert d.tags() == tags
        assert [p.word for p in d.pieces if p.tag is None] == [head]
        assert equal_up_to(d.recompose(), word, 60)


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
    with pytest.raises(ValueError, match="outside"):
        apply_Ff(u_word("S1", 0, FAM2), FAM2, {"S1": "S3", "S2": "S2"})


def test_apply_Ff_matches_piece_rewrite():
    # apply_Ff maps the walk's tags straight to images; the oracle rewrites
    # decompose's pieces, member words included
    fam = make_family(10)
    names = fam.names
    maps = (
        {n: n for n in names},
        {n: names[(i + 1) % len(names)] for i, n in enumerate(names)},
        {n: (T if i % 2 else n) for i, n in enumerate(names)},
    )
    samples = [family_word(random.Random(seed), fam) for seed in range(200)]
    for name in names + (T,):
        for n in range(4):
            w = u_word(name, n, fam)
            samples += [w, invert(w)]
    for w in samples:
        for f in maps:
            assert apply_Ff(w, fam, f) == apply_Ff_by_pieces(w, fam, f)


def test_apply_Ff_sends_member_word_to_image_word():
    # apply_Ff(u_S) = u_{f(S)}: a member word is one member interval, and
    # T's word is none, so it stays.  The images are the words u_word
    # builds, structurally, at every n: u_word(T, n) is settled to
    # st(+,0,{a(k+n)}), the presentation concat gives
    for k in (1, 2, 3, 4, 5, 10):
        fam = make_family(k)
        rng = random.Random(2800 + k)
        maps = [{n: n for n in fam.names}]
        maps += [random_sigma_map(rng, fam) for _ in range(6)]
        for f in maps:
            image = {**f, T: T}
            for name in fam.names + (T,):
                for n in range(4):
                    u, v = u_word(name, n, fam), u_word(image[name], n, fam)
                    assert apply_Ff(u, fam, f) == v
                    assert apply_Ff(invert(u), fam, f) == invert(v)


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


@functools.cache
def _psi_cases(count=6000):
    """(word, family, map) triples: family words, random words and
    concatenations of shuffled presentations of both, over families of
    2, 3, 8 and 10 members, each with a seeded map into the family and T."""
    fams = [make_family(k) for k in (2, 3, 8, 10)]
    cases = []
    for seed in range(count):
        rng = random.Random(seed)
        fam = fams[seed % len(fams)]
        kind = seed % 3
        if kind == 0:
            w = family_word(rng, fam)
        elif kind == 1:
            w = random_word(rng)
        else:
            w = concat(
                shuffle_presentation(family_word(rng, fam), rng),
                shuffle_presentation(random_word(rng, max_segments=2), rng),
            )
        cases.append((w, fam, random_sigma_map(rng, fam)))
    return tuple(cases)


def test_psi_f_matches_composite():
    # the germ map against reduce, apply_Ff and the quotient map; equal
    # classes render alike, as germs render their tail keys
    for w, fam, f in _psi_cases():
        h, composite = psi_f(w, fam, f), psi_f_by_composite(w, fam, f)
        assert h == composite and str(h) == str(composite)


def test_psi_f_ignores_presentation():
    rng = random.Random(2801)
    for w, fam, f in _psi_cases():
        assert psi_f(shuffle_presentation(w, rng), fam, f) == psi_f(w, fam, f)


def test_psi_f_of_permutation_is_phi_sigma():
    rng = random.Random(2802)
    for w, fam, _ in _psi_cases()[:2000]:
        images = list(fam.names)
        rng.shuffle(images)
        perm = dict(zip(fam.names, images))
        assert psi_f(w, fam, perm) == phi_sigma(hag_normal(w), fam, perm)


def test_separation_patterns():
    with pytest.raises(ValueError, match="S3"):
        separation_pattern(FAM2, {"S1", "S3"})
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


def _subsets(fam):
    for mask in range(1 << len(fam)):
        yield {n for i, n in enumerate(fam.names) if mask >> i & 1}


def _uncached_pattern(fam, chosen):
    f = {name: (T if name in chosen else name) for name in fam.names}
    return tuple(
        1 if hag_normal(ra_retract(apply_Ff(u_word(name, 0, fam), fam, f))) else 0
        for name in fam.names
    )


def test_separation_matches_uncached_composite():
    # every subset for k = 1..5, then 200 seeded subsets of a 10-member family
    small = [make_family(k) for k in range(1, 6)]
    cases = [(fam, chosen) for fam in small for chosen in _subsets(fam)]
    fam10 = make_family(10)
    rng = random.Random(2701)
    cases += [(fam10, {n for n in fam10.names if rng.random() < 0.5}) for _ in range(200)]
    for fam, chosen in cases:
        assert separation_pattern(fam, chosen) == _uncached_pattern(fam, chosen)


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
