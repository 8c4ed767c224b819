import dataclasses
import random
import re

import pytest
from hypothesis import given, strategies as st

from transword.endo import (
    AffineRule,
    InadmissibleError,
    RowDifferenceRule,
    SubstitutionMap,
    _level_pieces,
    apply_endo,
    apply_projected,
    cantor_pair,
    cantor_row,
    cantor_unpair,
    check_admissible,
    doubling_map,
    embedding_check,
    identity_map,
    projector,
    tau_map,
    telescope_map,
    telescope_product,
)
from transword.dsl import parse_substitution
from transword.freegroup import (
    FreeWord,
    Letter,
    rank_letter_set,
)
from transword.hag import EMPTY_CLASS, hag_normal
from transword.schema import affine
from transword.sigma import T, make_family, u_word
from transword.words import (
    block,
    concat,
    from_free,
    heg_equal,
    invert,
    proj_rank,
    project_finite,
)
from transword.randwords import random_word

from corpus import random_affine_maps
from oracles import (
    a_letter_set,
    admissible_by_scan,
    injectivity_by_projection,
    retraction_by_samples,
    row_product_word,
)


def test_cantor_pairing():
    seen = set()
    for x in range(12):
        for y in range(12):
            seen.add(cantor_pair(x, y))
            assert cantor_unpair(cantor_pair(x, y)) == (x, y)
    assert len(seen) == 144
    for m in range(4):
        row = cantor_row(m)
        assert [row.value(i) for i in range(6)] == [cantor_pair(m, i) for i in range(6)]


def test_admissibility_examples():
    assert check_admissible(telescope_map(), 12)
    assert check_admissible(doubling_map(), 12)
    assert check_admissible(tau_map(), 12)
    constant = SubstitutionMap(AffineRule((("a", 0, 0, 1),)))
    assert not check_admissible(constant, 6)


def test_check_admissible_matches_letter_scan():
    fam = make_family(2)
    ident, dbl = AffineRule((("a", 1, 0, 1),)), AffineRule((("a", 2, 0, 1),))
    cases = [
        # exceptional images that are streams: over b/c letters and over a
        (SubstitutionMap(ident, ((0, u_word("S1", 0, fam)),)), True),
        (SubstitutionMap(dbl, ((1, u_word(T, 3)),)), True),
        # every image uses a0
        (SubstitutionMap(AffineRule((("a", 0, 0, 1),))), False),
        # images below n0 use letters that support_query leaves out
        (SubstitutionMap(AffineRule((("a", 1, 0, 1),), n0=2)), False),
        (SubstitutionMap(RowDifferenceRule(n0=1)), False),
    ]
    for s, admissible in cases:
        for bound in (3, 9, 20):
            assert check_admissible(s, bound) == admissible
            assert admissible_by_scan(s, bound) == admissible


# tail rules of 1-3 affine lines (slope 0 allowed) or the row difference,
# with 0-2 exceptional images, some with streams
line_st = st.tuples(
    st.sampled_from("abc"), st.integers(0, 3), st.integers(0, 6), st.sampled_from((1, -1))
)
rule_st = st.one_of(
    st.builds(
        AffineRule, st.lists(line_st, min_size=1, max_size=3).map(tuple), st.sampled_from((0, 2))
    ),
    st.builds(RowDifferenceRule, st.sampled_from((0, 1))),
)


@st.composite
def substitution_st(draw):
    rng = draw(st.randoms(use_true_random=False))
    keys = draw(st.lists(st.integers(0, 6), max_size=2, unique=True))
    exceptional = tuple(
        (n, random_word(rng, max_segments=3, max_index=6, pure_a=rng.random() < 0.5))
        for n in keys
    )
    return SubstitutionMap(draw(rule_st), exceptional)


@given(substitution_st())
def test_check_admissible_matches_letter_scan_on_random_rules(s):
    # a slope-0 line puts one letter in every tail image, whatever its rank
    constant = isinstance(s.rule, AffineRule) and any(p == 0 for _, p, _, _ in s.rule.pattern)
    for bound in (3, 9, 20):
        if constant:
            assert not check_admissible(s, bound)
        else:
            assert check_admissible(s, bound) == admissible_by_scan(s, bound)


def test_support_queries():
    tel = telescope_map()
    assert tel.support_query("a", 4) == {3, 4}
    assert tel.support_query("b", 4) == set()
    dbl = doubling_map()
    assert dbl.support_query("a", 7) == {3}
    assert dbl.support_query("a", 6) == {3}
    with pytest.raises(InadmissibleError):
        SubstitutionMap(AffineRule((("a", 0, 2, 1),))).support_query("a", 2)


def test_exceptional_overrides_rule():
    fam = make_family(2)
    s = SubstitutionMap(
        AffineRule((("a", 1, 0, 1),)),
        ((0, u_word("S1", 0, fam)),),
    )
    assert s.support_query("b", 0) == {0}
    assert s.support_query("a", 0) == set()  # the rule image of 0 is overridden
    assert check_admissible(s, 9)


def test_apply_endo_blocks():
    dbl = doubling_map()
    assert apply_endo(dbl, block(Letter("a", 1), Letter("a", 2))) == block(
        Letter("a", 2), Letter("a", 3), Letter("a", 4), Letter("a", 5)
    )
    tel = telescope_map()
    img = apply_endo(tel, block(Letter("a", 3, -1)))
    assert img == block(Letter("a", 4), Letter("a", 3, -1))


def test_apply_endo_streams():
    tel = telescope_map()
    ut = u_word(T, 0)
    assert apply_endo(tel, ut) == telescope_product(affine(1, 0))
    assert heg_equal(apply_endo(identity_map(), ut), ut)
    assert heg_equal(apply_endo(doubling_map(), ut), ut)  # doubling is onto


def test_apply_endo_rejects_non_a_words():
    fam = make_family(2)
    with pytest.raises(ValueError):
        apply_endo(telescope_map(), u_word("S1", 0, fam))


def test_apply_endo_exceptional_on_stream_head():
    fam = make_family(2)
    s = SubstitutionMap(
        AffineRule((("a", 1, 0, 1),)),
        ((1, u_word("S1", 0, fam)), (0, block(Letter("a", 9)))),
    )
    img = apply_endo(s, u_word(T, 0))
    expect = concat(
        block(Letter("a", 9)), u_word("S1", 0, fam), u_word(T, 2)
    )
    assert heg_equal(img, expect)
    # the backward stream: its head, displayed last, hits the same indices
    assert heg_equal(apply_endo(s, invert(u_word(T, 0))), invert(img))


def test_endo_law_on_concat():
    rng = random.Random(81)
    tel, dbl = telescope_map(), doubling_map()
    for s in (tel, dbl):
        for _ in range(40):
            w1 = random_word(rng, pure_a=True)
            w2 = random_word(rng, pure_a=True)
            assert heg_equal(
                apply_endo(s, concat(w1, w2)),
                concat(apply_endo(s, w1), apply_endo(s, w2)),
            )


def test_apply_projected_matches_apply_endo():
    # one projector serves many words
    rng = random.Random(82)
    for s in (telescope_map(), doubling_map(), identity_map()):
        for _ in range(12):
            keep = rank_letter_set(rng.randrange(1, 15))
            project = projector(s, keep)
            for _ in range(5):
                w = random_word(rng, pure_a=True)
                expect = project_finite(apply_endo(s, w), keep)
                assert project(w) == apply_projected(s, w, keep) == expect


def test_apply_projected_infinite_exceptional():
    fam = make_family(2)
    s = SubstitutionMap(
        AffineRule((("a", 1, 0, 1),)), ((0, u_word("S1", 0, fam)),)
    )
    got = apply_projected(s, block(Letter("a", 0)), {("b", 0), ("c", 2)})
    assert got == FreeWord((Letter("b", 0), Letter("c", 2)))


def test_telescope_projection_identity():
    for enum in (affine(1, 0), affine(2, 0), cantor_row(0), cantor_row(3)):
        w = telescope_product(enum)
        first = block(Letter("a", enum.value(0)))
        for N in range(22):
            assert proj_rank(w, N) == proj_rank(first, N)
        assert heg_equal(w, first)


def test_telescope_kills_letters_in_quotient():
    tel = telescope_map()
    for n in range(13):
        assert hag_normal(apply_endo(tel, block(Letter("a", n)))) == EMPTY_CLASS
    # the telescope image of the full product collapses to its first letter,
    # so it also dies in the quotient; the nontrivial class is the input's
    img = apply_endo(tel, u_word(T, 0))
    assert heg_equal(img, block(Letter("a", 0)))
    assert hag_normal(img) == EMPTY_CLASS
    assert hag_normal(u_word(T, 0)).germs


def test_tau_images():
    tau = tau_map()
    assert tau.image_of(0) == block(Letter("a", 0), Letter("a", 2, -1))
    p = cantor_pair(2, 1)
    m, i = cantor_unpair(p)
    assert tau.image_of(p) == block(
        Letter("a", p), Letter("a", cantor_pair(m, i + 1), -1)
    )


def test_tau_row_products_telescope():
    tau = tau_map()
    for m in range(3):
        row = row_product_word(m)
        keep = rank_letter_set(3 * cantor_pair(m, 4))
        got = apply_projected(tau, row, keep)
        assert got == FreeWord((Letter("a", cantor_pair(m, 0)),))
        # the materialized image agrees
        assert heg_equal(apply_endo(tau, row), block(Letter("a", cantor_pair(m, 0))))
        # finite truncations telescope the same way once the tail projects out
        trunc = row_product_word(m, length=8)
        assert apply_projected(tau, trunc, keep) == got


def test_tau_on_non_row_stream_rejected():
    with pytest.raises(ValueError):
        apply_endo(tau_map(), u_word(T, 0))


def test_embedding_check_doubling():
    rep = embedding_check(doubling_map(), 3, 4)
    assert rep.ok and rep.admissible and rep.injective
    assert rep.levels == [6 * n + 1 for n in range(4)]


# a40 lies in the image of every letter, so the map is not admissible; the
# audit below rank 121 sees it by its letters, the one `embedding_check`
# runs (rank < 24) by the first tail image past its horizon
CONSTANT_A40 = SubstitutionMap(AffineRule((("a", 2, 0, 1), ("a", 0, 40, -1))))


def test_embedding_check_rejects_a_constant_letter_above_the_audit():
    rep = embedding_check(CONSTANT_A40, 2, 3)
    assert not rep.ok and not rep.admissible
    assert rep.failures == ["support audit failed"]


def test_constant_letter_is_inadmissible_at_its_rank():
    assert not check_admissible(CONSTANT_A40, 121)
    assert not admissible_by_scan(CONSTANT_A40, 121)


def test_embedding_check_identity():
    rep = embedding_check(identity_map(), 2, 3)
    assert rep.ok
    assert rep.levels == [3 * n + 1 for n in range(3)]


def _collapse_map():
    # a1 -> a0: the projections of a0 and a1 collide
    return SubstitutionMap(
        AffineRule((("a", 1, 0, 1),), n0=0), ((1, block(Letter("a", 0))),)
    )


def test_embedding_check_failure_reported():
    rep = embedding_check(_collapse_map(), 2, 3)
    assert not rep.ok and rep.failures


# a500 sits in the image of a2 between two letters that cancel, so a2's
# least non-vanishing level is 1501, far above the ranks of the images
HIGH_LEVEL = "sub{tail: a(n) -> [a(n)], except: 2 -> [a2 a500 a2^-1]}"


def test_embedding_check_finds_a_level_above_the_image_ranks():
    rep = embedding_check(parse_substitution(HIGH_LEVEL), 2, 3)
    assert rep.ok and rep.failures == []
    assert rep.levels == [1, 4, 1501]
    assert rep.injective and rep.words_checked == 60
    # with a stream after it, the search bound still covers the block
    with_stream = HIGH_LEVEL[:-1] + " st(+,0,{a(k+600)})}"
    rep = embedding_check(parse_substitution(with_stream), 2, 3)
    assert rep.ok and rep.levels == [1, 4, 1501]
    # a stream's letters between the cancelling a2s: the search bound
    # covers each stream's first period from its cursor (a500, or a503
    # from cursor 3, in either orientation)
    for stream, level in [
        ("st(+,0,{a(k+500)})", 1501),
        ("st(+,3,{a(k+500)})", 1510),
        ("st(-,3,{a(k+500)})", 1510),
    ]:
        spec = HIGH_LEVEL.replace("[a2 a500 a2^-1]", f"[a2] {stream} [a2^-1]")
        rep = embedding_check(parse_substitution(spec), 2, 3)
        assert rep.ok and rep.failures == []
        assert rep.levels == [1, 4, level]
        assert rep.injective and rep.words_checked == 60


def test_embedding_check_reports_an_inadmissible_map():
    # a1 lies in every image
    rep = embedding_check(parse_substitution("sub{tail: a(n) -> [a(n) a(1)]}"), 2, 3)
    assert not rep.admissible and not rep.ok
    assert rep.failures == ["support audit failed"]


def test_embedding_check_matches_projection_oracle():
    cases = [
        (doubling_map(), 3, 4),
        (tau_map(), 3, 3),
        (telescope_map(), 2, 5),
        (identity_map(), 3, 3),
        (_collapse_map(), 2, 3),
    ]
    for s, n_max, len_max in cases:
        rep = embedding_check(s, n_max, len_max, rng=random.Random(3))
        # the checks before the injectivity sweep do not depend on len_max,
        # and at len_max 0 the sweep sees only the empty word
        before = embedding_check(s, n_max, 0, rng=random.Random(3))
        assert before.injective and before.words_checked == n_max
        injective, checked, failures = injectivity_by_projection(
            s, before.levels[:n_max], len_max
        )
        assert rep == dataclasses.replace(
            before,
            ok=before.ok and injective,
            injective=injective,
            words_checked=checked,
            failures=before.failures + failures,
        )
        assert rep.ok == (s is not cases[-1][0])
    assert not injective and checked == 10
    assert failures == ["collision at level m_1=1: [a0^-1] and [a1^-1]"]


@pytest.mark.parametrize("n_max, len_max", [(0, 3), (-1, 3), (2, -1)])
def test_embedding_check_rejects_malformed_input(n_max, len_max):
    with pytest.raises(ValueError, match="embedding_check needs n_max >= 1"):
        embedding_check(doubling_map(), n_max, len_max)


def _ladder_maps():
    named = [doubling_map(), tau_map(), telescope_map(), identity_map(), _collapse_map()]
    return named + random_affine_maps()


def _retraction_failures(rep):
    """(n, j) for each 'retraction identity fails at n on aj' line."""
    return [
        tuple(map(int, m.groups()))
        for f in rep.failures
        if (m := re.fullmatch(r"retraction identity fails at n=(\d+) on a(\d+)", f))
    ]


def test_retraction_check_matches_samples():
    n_max = 3
    outcomes = set()
    for i, s in enumerate(_ladder_maps()):
        rep = embedding_check(s, n_max, 1)
        if len(rep.levels) < n_max + 1:
            continue  # stopped before the retraction identity
        exact = _retraction_failures(rep)
        assert rep.retraction_ok == (not exact)
        assert [n for n, _ in exact] == sorted({n for n, _ in exact})
        sampled = retraction_by_samples(s, n_max, 25, random.Random(i))
        outcomes.add((rep.retraction_ok, bool(sampled)))
        if rep.retraction_ok:
            assert sampled == []
        # a sampled failure at n is an exact failure at n
        assert {n for n, _ in sampled} <= {n for n, _ in exact}
        for n, j in exact:
            # the witness fails the identity as a one-letter word
            project = projector(s, rank_letter_set(rep.levels[n - 1]))
            w = block(Letter("a", j))
            assert j >= n
            assert project(w) != project(from_free(project_finite(w, a_letter_set(n))))
    assert outcomes == {(True, False), (False, True)}


def test_collapse_retraction_witness():
    rep = embedding_check(_collapse_map(), 3, 3)
    assert not rep.retraction_ok
    assert _retraction_failures(rep) == [(1, 1)]
    assert "retraction identity fails at n=1 on a1" in rep.failures
    assert "retraction identity (all words): NO" in rep.lines()


def test_check_admissible_matches_letter_scan_on_ladder_maps():
    for s in _ladder_maps():
        for bound in (3, 9, 20):
            assert check_admissible(s, bound) == admissible_by_scan(s, bound)


# bound 5 audits the images below 3 * 5 + 64 = 79; exceptional images at
# 79 and 80 make the audit skip both to reach the first tail image
PAST_HORIZON = ((79, block(Letter("a", 500))), (80, block(Letter("a", 501))))


def test_check_admissible_skips_exceptional_images_past_the_horizon():
    dbl = SubstitutionMap(doubling_map().rule, PAST_HORIZON)
    assert check_admissible(dbl, 5) and admissible_by_scan(dbl, 5)
    # a40 lies in every tail image, above the letters the scan audits
    s = SubstitutionMap(CONSTANT_A40.rule, PAST_HORIZON)
    assert not check_admissible(s, 5)
    assert admissible_by_scan(s, 5)


def test_level_pieces_match_one_projector_per_level():
    compared = 0
    for s in [doubling_map(), tau_map(), telescope_map(), *random_affine_maps()]:
        for n_max in (3, 6, 12):
            levels = embedding_check(s, n_max, 0).levels[:n_max]
            if not levels:
                continue
            for m, table in zip(levels, _level_pieces(s, levels)):
                pieces = projector(s, rank_letter_set(m)).pieces
                for j in pieces.keys() | table.keys():
                    assert table.get(j, ()) == pieces.get(j, ((),))[0], (s, m, j)
                compared += 1
    assert compared == 540
