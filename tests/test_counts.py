"""Every count gate of the suite, one row each.

Tests gate only on deterministic operation counts, and they all live
here.  A row is an input, the library callables it counts and a bound on
the counts, with the reason in a comment; a change that moves a count
edits its row.  A tally names one or more callables (paths under
`transword`, space-separated), counted together.  An input is a function.
If it is a generator, each value it yields closes one run and the tallies
start again from zero, so an input can warm up before it counts or run
two cases to compare; every run, the last too, ends with a `yield`.  The
bound gets one `Run` per run.  Row ids are the names of the tests the rows
replaced, so `pytest -k <name>` selects each.
"""

import functools
import inspect
import random

import pytest

from transword.dsl import ParseError, parse_word, render_word
from transword.endo import check_admissible, doubling_map, embedding_check, tau_map, telescope_map
from transword.freegroup import reduced_word_count
from transword.hag import hag_equal, hag_normal
from transword.randwords import random_stream, random_word, shuffle_presentation
from transword.schema import tail_alignment, unroll
from transword.sigma import Maximal, decompose, make_family, psi_f, separation_pattern, u_word
from transword.words import (
    EMPTY_WORD,
    SchematicWord,
    Stream,
    canonicalize,
    concat,
    heg_equal,
    invert,
    reduce,
)

from oracles import TWINS, psi_f_by_composite
from test_dsl import VALID_TEXTS
from test_endo import _collapse_map, _ladder_maps
from test_hag import _fuzz_words
from test_sigma import _psi_cases, _subsets
from test_words import NEGATIVE_A1, SIZES, one_stream_schemas


class Run(dict):
    """One run's number of calls by tally name, with the calls themselves,
    (args, result) pairs, as `calls` and the input's output as `out`."""

    def __init__(self, calls, out):
        super().__init__({name: len(c) for name, c in calls.items()})
        self.calls, self.out = calls, out


def moves(calls):
    """Calls that returned something other than None: a rewrite that moved,
    an alignment that was found."""
    return sum(result is not None for _, result in calls)


def _ww_inverse(n):
    """n seeded words' segments as one word w, and w.w^-1 reduced to []."""
    rng = random.Random(0)
    w = SchematicWord(tuple(s for _ in range(n) for s in random_word(rng).segments))
    product = SchematicWord(w.segments + invert(w).segments)
    assert reduce(product) == EMPTY_WORD
    return product


def _ww_inverse_fuzz():
    """100 seeded words at each size, each reduced against its inverse."""
    rng = random.Random(53)
    for size in SIZES:
        for _ in range(100):
            w = random_word(rng, **size)
            assert reduce(concat(w, invert(w))) == EMPTY_WORD


# stream positions the fuzz words read, pinned when `Schema.letters` became
# the one range reader (the per-letter chain it replaced made 577 reads)
LETTER_READS = 573
# `Schema.letters` calls on the same words, pinned when pair-tail stopped
# reading two empty ranges for tails that agree from both cursors
LETTER_CALLS = 217
# `_unary`, `_binary` and `reduce_free` calls on the same words, pinned when
# the settle move began to cut stream heads through their last finite
# pattern hit in both passes: `concat` canonicalizes, and a head it cuts
# off meets its neighbours in one more junction (before: 3 266, 2 661 and
# 125; before merges cancelled at the junction: 4 166, 2 661 and 274)
UNARY_CALLS, BINARY_CALLS, REDUCE_FREE_CALLS = 3259, 2669, 124


def _letter_reads(r):
    # one read per position `letters` returns and per `letter_at` call
    reads = sum(len(run) for _, run in r.calls["letters"]) + r["letter_at"]
    return 0 < reads <= LETTER_READS and 0 < r["letters"] <= LETTER_CALLS


def _canonical_one_stream_words():
    for sch in one_stream_schemas():
        for pos in range(3 * sch.width + 1):
            for forward in (True, False):
                yield canonicalize(SchematicWord((Stream(forward, pos, sch),)))


def _psi_f_both_ways():
    cases = _psi_cases()[:1500]
    yield [psi_f_by_composite(w, fam, f) for w, fam, f in cases]
    yield [psi_f(w, fam, f) for w, fam, f in cases]


def _sweep(fam=None):
    """separation_pattern of every subset, against its characteristic vector."""
    fam = make_family(10) if fam is None else fam
    for chosen in _subsets(fam):
        assert separation_pattern(fam, chosen) == tuple(int(n in chosen) for n in fam.names)
    return fam


def _members_then_sweep():
    fam = make_family(10)
    for name in fam.names:
        assert decompose(u_word(name, 0, fam), fam).tags() == (Maximal(name, 0, 1),)
    yield fam
    yield _sweep(fam)


def _warm_sweep():
    fam = make_family(10)
    yield separation_pattern(fam, fam.names)
    yield _sweep(fam)


def _sweep_twice():
    fam = make_family(10)
    yield _sweep(fam)
    yield _sweep(fam)


def _fresh_equality_words():
    """Equality queries over seeded words not drawn elsewhere in the suite:
    each word against a shuffle of it, by `heg_equal` and `hag_equal`."""
    rng = random.Random(3434)
    for _ in range(200):
        w = random_word(rng, **SIZES[1])
        v = shuffle_presentation(w, rng)
        heg_equal(w, v)  # as the workload's queries do; item 1 may say False
        assert hag_equal(w, v)
    yield


def _no_key_recomputed(r):
    # a schema that an earlier call returned as a key is never an argument
    keys = set()
    for (schema,), (key, _, _) in r.calls["tail_key"]:
        if schema in keys:
            return False
        keys.add(key)
    return bool(keys)


def _unequal_width_pairs():
    """Pairs of one tail class at unequal widths: the fold pin against its
    folded stream, both ways, and seeded schemas against their unrollings
    by 2 and 3.  The warm-up run builds them and their keys."""
    pin, folded = (parse_word(t).segments[-1].schema for t in NEGATIVE_A1)
    pairs = [(pin, folded), (folded, pin)]
    for seed in range(40):
        sch = random_stream(random.Random(seed), selectors=TWINS if seed % 3 == 0 else None).schema
        pairs += [(big, sch) for big in (unroll(sch, 2), unroll(sch, 3)) if big is not None]
    for u, v in pairs:
        assert u.width != v.width and u.tail_key is v.tail_key
    yield pairs
    yield [tail_alignment(u, v) for u, v in pairs]


def _schemas_once(first, again):
    # without interning, 10 250 tail keys and 61 440 folds per sweep; the
    # first sweep computes whatever earlier work left out, and the second
    # finds every body in a slot
    once = all(
        first[body] == len({args for args, _ in first.calls[body]}) <= len(first.out) + 1
        for body in ("tail_key", "fold")
    )
    built = sorted((spec for (spec,), _ in first.calls["built"]), key=first.out.members.index)
    return once and built == list(first.out.members) and again["tail_key"] == again["fold"] == 0


# k * 2^(k-1) + 2^k - 1 image words per sweep of k = 10 members (one word
# per member and subset: k * 2^k = 10 240)
SWEEP_WORDS = 10 * 2**9 + 2**10 - 1


def _hag_normal_twice():
    words = [x for ws in _fuzz_words(SIZES[1], range(60)) for x in ws]
    yield [hag_normal(w) for w in words]
    yield [hag_normal(w) for w in words]


def _hag_normal_of_fuzz_words():
    return [hag_normal(x) for ws in _fuzz_words(SIZES[1], range(60)) for x in ws]


# every selector form, set names, and an all-zero period that `make_evp`
# demotes to a finite set
SELECTOR_TEXTS = [(text, env) for text, env in VALID_TEXTS if "sel(" in text] + [
    ('st(+,0,{sel(eper("0001","0"))(k) sel(pcode("01","10"))(2k)})', None)
]


def _parse_selectors_twice():
    """The texts with selectors, parsed twice: the first pass builds what
    earlier work left out, and the second finds every set spec."""
    for _ in range(2):
        for text, env in SELECTOR_TEXTS:
            parse_word(text, env)
        yield


def _render_twice():
    words = [parse_word(text, env) for text, env in VALID_TEXTS]
    for _ in range(2):
        yield [render_word(w) for w in words]


def _parse_valid_then_damaged():
    for text, env in VALID_TEXTS:
        parse_word(text, env)
    yield
    with pytest.raises(ParseError):
        parse_word("[a0 5]")
    yield


def _embedding_checks(*len_maxes):
    """embedding_check at each len_max of doubling_map, whose levels are
    free bases, so that its sweep walks no word, then of _collapse_map,
    whose sweep walks words up to a collision: 2, 10 and 14 words at
    len_max 0 (no collision yet), 3 and 5."""
    for len_max in len_maxes:
        rep = embedding_check(doubling_map(), 3, len_max)
        assert rep.ok
        yield rep
    for len_max in len_maxes:
        rep = embedding_check(_collapse_map(), 2, len_max)
        assert rep.injective == (len_max == 0)
        yield rep


def _same_per_level(short, long):
    # the checks before the injectivity sweep do not depend on len_max:
    # two lengths make the same count, and the longer checks more words
    return short == long and short.out.words_checked < long.out.words_checked


def _per_level(tally, collapse_count):
    # both maps make the same count at both lengths; a call per swept word
    # would add 10 and 14 to _collapse_map's, whose count is pinned
    return lambda d_short, d_long, c_short, c_long: (
        _same_per_level(d_short, d_long)
        and _same_per_level(c_short, c_long)
        and c_short[tally] == collapse_count
    )


def _sweep_builds_few(d_short, d_long, c_short, c_long):
    # at len_max 0 the sweep sees at most the empty words, so the
    # difference between the runs is the sweep's count: none of doubling
    # map's 5 000 counted words, and for _collapse_map only the two words
    # of the collision report
    swept = d_long.out.words_checked - d_short.out.words_checked
    return (
        swept > 5000
        and d_long["built"] - d_short["built"] < swept / 100
        and c_long["built"] - c_short["built"] == 2
    )


def _basis_levels_then_collapse():
    words = sum(reduced_word_count(n, 8) for n in (1, 2, 3))
    assert words == 599_075
    for s in (doubling_map(), tau_map(), telescope_map()):
        rep = embedding_check(s, 3, 8)
        assert rep.ok and rep.injective and rep.words_checked == words
    yield
    rep = embedding_check(_collapse_map(), 2, 3)
    assert rep.words_checked == 10
    assert rep.failures[-1] == "collision at level m_1=1: [a0^-1] and [a1^-1]"
    yield


def _benchmark_audits():
    """check_admissible on the benchmark's maps at its bounds (n_max 2, 3)."""
    for s in (doubling_map(), tau_map(), telescope_map()):
        for bound in (24, 30):
            assert check_admissible(s, bound)


class _NoDraws:
    """An rng that raises on any attribute access: a draw from it fails."""

    def __getattribute__(self, name):
        raise AssertionError(f"embedding_check read rng.{name}")


def _ladder_checks():
    for s in _ladder_maps()[:5]:
        for rng in (None, _NoDraws()):
            embedding_check(s, 3, 3, rng=rng)


# id: (input, {tally: paths}, bound)
ROWS = {
    # the stack pass settles each segment a bounded number of times, so
    # w.w^-1 costs O(segments) folds however long w is
    **{
        f"test_ww_inverse_fold_count[{n}]": (
            functools.partial(_ww_inverse, n),
            {"fold": "words.fold"},
            lambda r: r["fold"] <= 2 * len(r.out.segments),
        )
        for n in (10, 20, 40, 80)
    },
    # every stream letter the rewrite engine reads goes through
    # `Schema.letters` or `Schema.letter_at`
    "test_ww_inverse_letter_reads": (
        _ww_inverse_fuzz,
        {"letters": "schema.Schema.letters", "letter_at": "schema.Schema.letter_at"},
        _letter_reads,
    ),
    "test_ww_inverse_move_counts": (
        _ww_inverse_fuzz,
        {"unary": "words._unary", "binary": "words._binary", "free": "words.reduce_free"},
        lambda r: 0 < r["unary"] <= UNARY_CALLS
        and 0 < r["binary"] <= BINARY_CALLS
        and 0 < r["free"] <= REDUCE_FREE_CALLS,
    ),
    # canonicalize of a one-stream word (every cursor and orientation of
    # seeded, unrolled and prefix-code streams) makes at most two stream
    # moves: only a cut leaves the stream piece one more settle to make
    "test_settle_is_one_move": (
        _canonical_one_stream_words,
        {"settle": "words._settle"},
        lambda *runs: len(runs) >= 1500 and all(moves(r.calls["settle"]) <= 2 for r in runs),
    ),
    # psi_f reads the germs of w: it neither reduces w nor walks it for
    # member intervals
    "test_psi_f_runs_no_pass_and_no_walk": (
        _psi_f_both_ways,
        {"passes": "sigma.reduce", "walks": "sigma.apply_Ff sigma._intervals"},
        lambda composite, r: r.out == composite.out and r["passes"] == r["walks"] == 0,
    ),
    # tail keys leave one candidate member per stream: decomposing the ten
    # member words runs one alignment per member word, not one per
    # (stream, member) pair; the twin branches S2/S3, S4/S5, S6/S7 and
    # S8/S9 still get distinct keys on member words.  Exact keys make
    # alignment a lookup: no shift search, and a sweep over every subset
    # aligns nothing more (it builds the image words, not decompositions)
    "test_separation_tests_one_candidate_per_stream": (
        _members_then_sweep,
        {
            "align": "schema.tail_alignment sigma.tail_alignment words.tail_alignment",
            "search": "schema.poly_shift_match",
        },
        lambda members, sweep: members["align"] == moves(members.calls["align"]) == 10
        and sweep["align"] == members["search"] == sweep["search"] == 0,
    ),
    # each schema keeps where its key starts and from where it renders the
    # key's letters, so aligning two schemas of one class at unequal
    # widths reads the two slots: it unrolls neither to a common width and
    # compares no families (unrolling to a common width and scanning the
    # families made 105 and 159 such calls on these pairs)
    "test_tail_alignment_reads_the_key_slots": (
        _unequal_width_pairs,
        {"unroll": "schema._compute_unroll", "agree": "schema.fam_agreement"},
        lambda warm, r: len(warm.out) >= 50
        and None not in r.out
        and r["unroll"] == r["agree"] == 0,
    ),
    # a key schema keeps itself as its own key when it is built, so the
    # germs `hag_equal` builds from keys compute no key a second time
    "test_tail_key_computed_once_per_key": (
        _fresh_equality_words,
        {"tail_key": "schema._compute_tail_key"},
        _no_key_recomputed,
    ),
    # interned schemas carry their tail key and fold: a sweep runs each body
    # at most once per distinct schema, a second sweep runs none, and the
    # family builds each member schema once
    "test_separation_sweep_computes_once_per_schema": (
        _sweep_twice,
        {
            "tail_key": "schema._compute_tail_key",
            "fold": "schema._compute_fold",
            "built": "sigma.member_schema",
        },
        _schemas_once,
    ),
    # h_f(u_S) = (π∘r_a)(u_{f(S)}) depends on f(S) alone, so a subset
    # evaluates each distinct image word once: u_T if it chooses any
    # member, and u_S for each member S it leaves
    "test_separation_sweep_words_per_member_word": (
        _sweep,
        {"u_word": "sigma.u_word", "ra_retract": "sigma.ra_retract", "hag": "sigma.hag_normal"},
        lambda r: r["u_word"] == r["ra_retract"] == r["hag"] == SWEEP_WORDS,
    ),
    # apply_Ff(u_S) = u_{f(S)}, and separation_pattern builds its total map
    # itself, so a sweep neither decomposes nor validates (decomposing per
    # subset, 10 240 intervals runs and as many map checks)
    "test_separation_sweep_decomposes_nothing": (
        _sweep,
        {"intervals": "sigma._intervals", "validate": "sigma._validate_map"},
        lambda r: r["intervals"] == r["validate"] == 0,
    ),
    # member words are marked as fixpoints of the rewrite pass, ra_retract
    # returns the marked empty word when the member's stream drops, and
    # hag_normal reads each stream's germ from its schema's pattern tail
    # slot, so once the slots are filled the sweep makes no pass.  Passes
    # skipped on marked words do not reach `_rewrite`
    "test_separation_sweep_passes_per_member_word": (
        _warm_sweep,
        {"passes": "words._rewrite"},
        lambda warm, r: r["passes"] == 0,
    ),
    # hag_normal reads each stream's germ from its schema's pattern tail
    # slot, filled on first use, so a second hag_normal of the same words
    # makes no pass
    "test_second_hag_normal_makes_no_pass": (
        _hag_normal_twice,
        {"passes": "words._rewrite"},
        lambda first, r: r.out == first.out and r["passes"] == 0,
    ),
    # each germ is built from its stream's pattern tail; cancelling
    # adjacent inverse germs compares their slots and builds no germ (one
    # per comparison before)
    "test_hag_normal_builds_one_germ_per_tail": (
        _hag_normal_of_fuzz_words,
        {"germs": "hag.Germ.__init__", "tails": "hag.pattern_tail"},
        lambda r: r["germs"] == moves(r.calls["tails"]) > 0,
    ),
    # set specs are interned under the arguments the scanner reads, so a
    # spec seen before is one table lookup: it parses no bit string and
    # canonicalises no period
    "test_reparse_builds_no_set_spec": (
        _parse_selectors_twice,
        {
            "specs": "dsl.Finite dsl.make_evp dsl.PrefixCode",
            "parsed": "setspec._parse_bits setspec._canonical_evp",
        },
        lambda first, warm: warm["specs"] == first["specs"] > 0 and warm["parsed"] == 0,
    ),
    # an entry keeps its text from its first render, so rendering the same
    # words again formats no index function
    "test_rerender_formats_no_entry": (
        _render_twice,
        {"formatted": "schema.IndexFn.__str__", "entries": "dsl.render_entry"},
        lambda first, warm: warm.out == first.out
        and warm["entries"] > 0
        and warm["formatted"] == 0,
    ),
    # the scanner reads every valid word; the descent parser runs only on
    # a damaged one, to place its error
    "test_scanner_never_falls_back_on_valid_words": (
        _parse_valid_then_damaged,
        {"parsers": "dsl._Parser"},
        lambda valid, damaged: valid["parsers"] == 0
        and [args[0] for args, _ in damaged.calls["parsers"]] == ["[a0 5]"],
    ),
    # support is looked up for the top projection level only, not once per
    # level or per word; the admissibility audit adds one query per letter
    # of the first tail image past its horizon (25 before that query,
    # _collapse_map's image being one letter)
    "test_embedding_check_support_queries_per_level": (
        functools.partial(_embedding_checks, 3, 5),
        {"queries": "endo.SubstitutionMap.support_query"},
        _per_level("queries", 26),
    ),
    # the admissibility audit reads each tail image as the (family, index)
    # keys of the rule's terms (a FreeWord per image made 136 or 154 a call)
    "test_check_admissible_builds_no_words": (
        _benchmark_audits,
        {"built": "freegroup.FreeWord.__init__"},
        lambda r: r["built"] == 0,
    ),
    # the injectivity sweep extends each word's image from its prefix's; it
    # keeps no letters of, and reduces no image of, a checked word
    "test_embedding_check_projection_calls_per_level": (
        functools.partial(_embedding_checks, 3, 5),
        {"projections": "endo.kept_letters endo.reduce_free words.kept_letters words.reduce_free"},
        _per_level("projections", 12),
    ),
    # the injectivity sweep hashes letter tuples; it builds a FreeWord only
    # to report a collision
    "test_embedding_check_sweep_builds_no_words": (
        functools.partial(_embedding_checks, 0, 5),
        {"built": "freegroup.FreeWord.__init__"},
        _sweep_builds_few,
    ),
    # each level's pieces are a free basis, so the verdict covers every
    # word up to len_max without walking one; pieces that are no basis
    # still go to the sweep for a witness
    "test_embedding_check_free_levels_walk_no_words": (
        _basis_levels_then_collapse,
        {"walks": "endo.enumerate_images"},
        lambda bases, collapse: bases["walks"] == 0 < collapse["walks"],
    ),
    # embedding_check is exhaustive: it draws no word, given an rng or not;
    # the rng it is given raises on use, and tests/test_imports.py checks
    # that endo.py imports no other source of draws
    "test_embedding_check_draws_no_words": (
        _ladder_checks,
        {"draws": "randwords.random_word"},
        lambda r: r["draws"] == 0,
    ),
}


@pytest.mark.parametrize("case, tallies, bound", ROWS.values(), ids=ROWS.keys())
def test_count_gate(counting, case, tallies, bound):
    calls = {name: counting(*paths.split()) for name, paths in tallies.items()}
    result = case()
    runs = []
    for out in result if inspect.isgenerator(result) else [result]:
        runs.append(Run({name: list(c) for name, c in calls.items()}, out))
        for c in calls.values():
            c.clear()
    assert bound(*runs), f"calls per run: {[dict(r) for r in runs[:4]]}"
