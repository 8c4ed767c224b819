"""The benchmark's four workloads: seeded inputs, the query each input
drives through the public `transword` API, and the answer each query must
give.

Every expected answer comes from how the input was built (group axioms,
characteristic vectors, closed-form counts), never from the code under
test.  Queries look up library functions on the `transword` package at
call time, so the tracer's rebinding of those names takes effect.

Each workload orders its queries in cycles, and a run stops only on a
cycle boundary: a cycle holds the same mix of kinds, sizes or words every
time, so the percentiles of a run do not jump between kinds with the
number of queries it reached.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Callable

import transword as tw
from transword import randwords

NAMES = ("separation", "cancel", "equality", "ladder")

SEPARATION_K = 10
CANCEL_SIZES = (10, 20, 40, 80)
CANCEL_WORDS = 6  # words per size; one cycle is the whole corpus
CANCEL_CORPUS_SEED = 0
EQUALITY_PAIRS = 1200  # a third of each kind
EQUALITY_MAX_SEGMENTS = 10
EQUALITY_MAX_INDEX = 15
LADDER_MAPS = ("doubling_map", "tau_map", "telescope_map")
LADDER_NMAX = (2, 3)
LADDER_LENMAX = (3, 4, 5)
LADDER_CYCLES = 16


@dataclass(frozen=True)
class Query:
    describe: Callable[[], str]  # the query's input as DSL text
    run: Callable[[], object]  # calls the library; returns a comparable answer
    expected: object


@dataclass(frozen=True)
class Workload:
    name: str
    queries: tuple[Query, ...]
    cycle: int  # queries per cycle
    traced_queries: int  # how many of the first queries the traced run executes

    def text(self) -> str:
        """Every input as DSL text, one query a line."""
        return "\n".join(q.describe() for q in self.queries) + "\n"


def build(name: str, seed: int) -> Workload:
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return globals()[f"_build_{name}"](random.Random(seed))


def reduced_word_count(n_max: int, len_max: int) -> int:
    """Reduced words of length <= len_max over n letters and their
    inverses, summed over n = 1..n_max."""
    return sum(
        1 if length == 0 else 2 * n * (2 * n - 1) ** (length - 1)
        for n in range(1, n_max + 1)
        for length in range(len_max + 1)
    )


def _build_separation(rng: random.Random) -> Workload:
    fam = tw.make_family(SEPARATION_K)
    subsets = [
        frozenset(c)
        for r in range(len(fam.names) + 1)
        for c in itertools.combinations(fam.names, r)
    ]
    rng.shuffle(subsets)
    queries = tuple(
        Query(
            lambda sub=sub: "separation " + " ".join(n for n in fam.names if n in sub),
            lambda sub=sub: tw.separation_pattern(fam, sub),
            tuple(1 if n in sub else 0 for n in fam.names),
        )
        for sub in subsets
    )
    return Workload("separation", queries, cycle=1, traced_queries=128)


def _build_cancel(rng: random.Random) -> Workload:
    # The words w come from one fixed corpus; the seed draws the shuffled
    # presentations v and the order.  The reduce time of one word spreads
    # by 30-50% of its mean at a given n and a run has time for only a few
    # words per size, so words drawn per seed moved the figures by more
    # than the bounds allow.  One cycle is the whole corpus, so every run
    # weighs every word alike.
    corpus = random.Random(CANCEL_CORPUS_SEED)
    queries = []
    for c in range(CANCEL_WORDS):
        words = {n: [randwords.random_word(corpus) for _ in range(n)] for n in CANCEL_SIZES}
        sizes = list(CANCEL_SIZES)
        rng.shuffle(sizes)
        for n in sizes:
            parts = words[n]
            if (c + CANCEL_SIZES.index(n)) % 2:
                kind, v_parts = "w.w^-1", parts
            else:
                kind = "w.v^-1"
                v_parts = [randwords.shuffle_presentation(p, rng) for p in parts]
            # plain concatenation of presentations: the query's reduce does
            # all canonicalization
            product = tw.SchematicWord(
                _segments(parts) + tw.invert(tw.SchematicWord(_segments(v_parts))).segments
            )
            queries.append(
                Query(
                    lambda n=n, k=kind, q=product: f"cancel n={n} {k} {tw.render_word(q)}",
                    lambda q=product: tw.reduce(q).segments,
                    (),
                )
            )
    # the first four queries hold one word of each size
    return Workload("cancel", tuple(queries), cycle=len(queries), traced_queries=4)


def _segments(words) -> tuple:
    return tuple(seg for w in words for seg in w.segments)


def _one_letter(rng: random.Random) -> tw.SchematicWord:
    x = randwords.random_letter(rng, EQUALITY_MAX_INDEX)
    return tw.SchematicWord((tw.FiniteBlock(tw.FreeWord((x,))),))


def _one_stream(rng: random.Random) -> tw.SchematicWord:
    # width 1: consecutive letters have distinct indices and one sign, so the
    # stream never cancels against itself and its germ is not trivial
    entry = randwords.random_entry(rng, EQUALITY_MAX_INDEX)
    return tw.stream_word(rng.random() < 0.5, rng.randrange(4), (entry,))


def _equality_query(kind: str, text_w: str, text_v: str, expected) -> Query:
    def run():
        w = tw.parse_word(text_w)
        v = tw.parse_word(text_v)
        answer = (tw.heg_equal(w, v), tw.hag_equal(w, v))
        tw.render_word(tw.reduce(w))
        return answer

    return Query(lambda: f"equality {kind} {text_w} ; {text_v}", run, expected)


def _build_equality(rng: random.Random) -> Workload:
    # expected (heg_equal, hag_equal): a re-presentation is the same word;
    # one extra letter changes the word but dies in the quotient; one extra
    # stream changes both
    kinds = {
        "shuffle": (lambda w: randwords.shuffle_presentation(w, rng), (True, True)),
        "letter": (lambda w: tw.concat(w, _one_letter(rng)), (False, True)),
        "stream": (lambda w: tw.concat(w, _one_stream(rng)), (False, False)),
    }
    queries = []
    for _ in range(EQUALITY_PAIRS // len(kinds)):
        order = list(kinds)
        rng.shuffle(order)
        for kind in order:
            w = randwords.random_word(
                rng, max_segments=EQUALITY_MAX_SEGMENTS, max_index=EQUALITY_MAX_INDEX
            )
            make_v, expected = kinds[kind]
            v = make_v(w)
            queries.append(
                _equality_query(kind, tw.render_word(w), tw.render_word(v), expected)
            )
    return Workload("equality", tuple(queries), cycle=len(kinds), traced_queries=300)


def _build_ladder(rng: random.Random) -> Workload:
    maps = {name: getattr(tw, name)() for name in LADDER_MAPS}
    grid = list(itertools.product(LADDER_MAPS, LADDER_NMAX, LADDER_LENMAX))
    queries = []
    for _ in range(LADDER_CYCLES):
        rng.shuffle(grid)
        for name, n_max, len_max in grid:
            retraction_seed = rng.randrange(2**32)

            def run(s=maps[name], n_max=n_max, len_max=len_max, r=retraction_seed):
                rep = tw.embedding_check(s, n_max, len_max, rng=random.Random(r))
                return rep.ok, rep.words_checked

            queries.append(
                Query(
                    lambda label=f"ladder {name} nmax={n_max} lenmax={len_max} "
                    f"rng={retraction_seed}": label,
                    run,
                    (True, reduced_word_count(n_max, len_max)),
                )
            )
    return Workload("ladder", tuple(queries), cycle=len(grid), traced_queries=len(grid))
