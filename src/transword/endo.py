"""Substitution maps a_n -> W_n and the constructions built from them.

A substitution is admissible when every concrete letter appears in only
finitely many images; `support_query` answers which source indices use a
letter, and `check_admissible` audits it against direct enumeration
(one pass over each image collects the letters it uses).
`apply_endo` materializes the image of a word (streams map to streams by
composing the tail pattern with each entry's index function);
`projector(s, letters)` computes the projection of the image to a finite
letter set without materializing it, which also covers exceptional images
that are themselves infinite: the source letters whose images use the
set, and the projected image of each, are found once, and the returned
function only looks them up.  `apply_projected` is one call of it.

`embedding_check` builds one projector per level and reads both of its
word-level checks off the projector's table of pieces.  The projector
for level m_{n-1} is w -> h(p_S(w)), where S is the set of source letters
it keeps, p_S keeps only those letters and h sends a_j to its piece.  The
retraction identity compares h(p_S(w)) with h(p_{S∩A}(w)) for
A = {a_0 .. a_{n-1}}; both sides are homomorphisms, so they agree on
every word exactly when the piece of every a_j with j >= n in S is
trivial.  The one-letter word a_j shows the "only if" direction, and
deleting letters that h kills does not change an image, which gives the
"if" direction.  The check is one scan of the table, and a failure names
the least such a_j.  The injectivity sweep hands the same table to
`freegroup.enumerate_images`, which extends each word's projected image
from its prefix's instead of projecting every word afresh.  The sweep
keys its table of seen images on letter tuples, which hash in C since
letters are interned, and builds a `FreeWord` only to report a
collision.

`telescope_product` builds the stream a_{k(0)} a_{k(1)}^-1 a_{k(1)} ...
whose every finite projection collapses to its first letter; enumerations
may be affine or rows of the Cantor pairing (quadratic).  `tau_map` is
the substitution sending a_p to the difference pair of consecutive
entries in p's pairing row, and `embedding_check` verifies the ladder of
conditions under which a substitution embeds every finite-rank subgroup.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from math import isqrt

from .freegroup import (
    FreeWord,
    Letter,
    enumerate_images,
    rank_letter_set,
    reduce_free,
)
from .hag import min_rank_of
from .schema import Entry, IndexFn, Schema
from .words import (
    EMPTY_WORD,
    FiniteBlock,
    SchematicWord,
    Stream,
    _split_head,
    canonicalize,
    concat,
    from_free,
    invert,
    kept_letters,
    occurrences,
    project_finite,
    proj_rank,
    reduce,
)


class InadmissibleError(ValueError):
    """A letter with infinite support under the substitution."""


def cantor_pair(x: int, y: int) -> int:
    return (x + y) * (x + y + 1) // 2 + y


def cantor_unpair(p: int) -> tuple[int, int]:
    w = (isqrt(8 * p + 1) - 1) // 2
    y = p - w * (w + 1) // 2
    return w - y, y


def cantor_row(m: int) -> IndexFn:
    """i -> cantor_pair(m, i), strictly increasing with disjoint ranges."""
    return IndexFn(1, 2 * m + 3, m * (m + 1), 2)


@dataclass(frozen=True)
class AffineRule:
    """Tail rule: a_n maps to the finite word whose letters are
    fam(p*n + q)^sign per pattern element, for n >= n0."""

    pattern: tuple[tuple[str, int, int, int], ...]
    n0: int = 0

    def image(self, n: int) -> FreeWord:
        return FreeWord(
            tuple(Letter(fam, p * n + q, sign) for fam, p, q, sign in self.pattern)
        )

    def support(self, fam: str, index: int) -> set[int]:
        out = set()
        for pfam, p, q, _ in self.pattern:
            if pfam != fam:
                continue
            if p == 0:
                if q == index:
                    raise InadmissibleError(
                        f"letter {fam}{index} appears in every image of the tail rule"
                    )
                continue
            if (index - q) % p == 0 and (index - q) // p >= self.n0:
                out.add((index - q) // p)
        return out

    def compose_idx(self, idx: IndexFn, sign: int) -> list[Entry]:
        entries = []
        for fam, p, q, s in self.pattern:
            composed = IndexFn(
                p * idx.a2, p * idx.a1, p * idx.a0 + q * idx.div, idx.div
            )
            entries.append(Entry(fam, composed, s * sign))
        if sign < 0:
            entries = [e for e in reversed(entries)]
        return entries


@dataclass(frozen=True)
class RowDifferenceRule:
    """a_p maps to a_p a_{next}^-1 where next follows p in its Cantor
    pairing row; with it, every single letter dies in the quotient while
    row products survive."""

    n0: int = 0

    def image(self, n: int) -> FreeWord:
        m, i = cantor_unpair(n)
        return FreeWord(
            (Letter("a", n), Letter("a", cantor_pair(m, i + 1), -1))
        )

    def support(self, fam: str, index: int) -> set[int]:
        if fam != "a":
            return set()
        out = {index}
        m, i = cantor_unpair(index)
        if i >= 1:
            out.add(cantor_pair(m, i - 1))
        return out

    def compose_idx(self, idx: IndexFn, sign: int) -> list[Entry]:
        # recognizable only on a pairing row: idx must be cantor_row(m)
        if idx.div == 2 and idx.a2 == 1 and (idx.a1 - 3) % 2 == 0:
            m = (idx.a1 - 3) // 2
            if m >= 0 and idx.a0 == m * (m + 1):
                return [
                    Entry("a", idx, sign),
                    Entry("a", idx.shift(1), -sign),
                ][:: 1 if sign > 0 else -1]
        raise ValueError(
            "image of this stream leaves the fragment; use apply_projected"
        )


@dataclass(frozen=True)
class SubstitutionMap:
    rule: AffineRule | RowDifferenceRule
    exceptional: tuple[tuple[int, SchematicWord], ...] = ()
    # n -> exceptional image, built once; not part of equality or hashing
    _table: dict[int, SchematicWord] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self):
        table = dict(self.exceptional)
        if len(table) != len(self.exceptional):
            raise ValueError("duplicate exceptional entries")
        object.__setattr__(self, "_table", table)

    def exceptional_table(self) -> dict[int, SchematicWord]:
        return dict(self._table)

    def image_of(self, n: int) -> SchematicWord:
        table = self._table
        if n in table:
            return table[n]
        return from_free(self.rule.image(n))

    def support_query(self, fam: str, index: int) -> set[int]:
        """Source indices n whose image uses the letter (either sign)."""
        table = self._table
        out = {
            n
            for n in self.rule.support(fam, index)
            if n >= self.rule.n0 and n not in table
        }
        out |= {n for n, w in table.items() if occurrences(w, (fam, index))}
        return out


def identity_map() -> SubstitutionMap:
    return SubstitutionMap(AffineRule((("a", 1, 0, 1),)))


def telescope_map() -> SubstitutionMap:
    """a_n -> a_n a_{n+1}^-1."""
    return SubstitutionMap(AffineRule((("a", 1, 0, 1), ("a", 1, 1, -1))))


def doubling_map() -> SubstitutionMap:
    """a_n -> a_{2n} a_{2n+1}."""
    return SubstitutionMap(AffineRule((("a", 2, 0, 1), ("a", 2, 1, 1))))


def tau_map() -> SubstitutionMap:
    return SubstitutionMap(RowDifferenceRule())


def check_admissible(s: SubstitutionMap, bound: int) -> bool:
    """Verify support_query against direct enumeration for every letter of
    rank < bound; False also when some support is infinite."""
    horizon = 3 * bound + 64
    letters = rank_letter_set(bound)
    actual: dict[tuple[str, int], set[int]] = {key: set() for key in letters}
    for n in range(horizon):
        for l in kept_letters(s.image_of(n), letters):
            actual[l.fam, l.index].add(n)
    for fam, index in sorted(letters):
        try:
            claimed = s.support_query(fam, index)
        except InadmissibleError:
            return False
        if {n for n in claimed if n < horizon} != actual[fam, index]:
            return False
    return True


def _require_pure_a(w: SchematicWord):
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            if any(l.fam != "a" for l in seg.word):
                raise ValueError("substitutions act on words over the a-letters")
        elif any(e.fam != "a" for e in seg.schema.entries):
            raise ValueError("substitutions act on words over the a-letters")


def apply_endo(s: SubstitutionMap, w: SchematicWord) -> SchematicWord:
    """Letterwise image of w.  Stream letters must be governed by the tail
    rule (finite images); exceptional indices hit by a stream head are
    split off and mapped individually."""
    _require_pure_a(w)
    w = canonicalize(w)
    table = s.exceptional_table()
    parts: list[SchematicWord] = []
    for seg in w.segments:
        pieces = [seg]
        if isinstance(seg, Stream):
            m = seg.schema.width
            cut_step = seg.pos // m
            for j, e in enumerate(seg.schema.entries):
                for n in list(table) + list(range(s.rule.n0)):
                    k = e.idx.solve(n)
                    if k is not None and k * m + j >= seg.pos:
                        cut_step = max(cut_step, k + 1)
            entries = []
            for e in seg.schema.entries:
                entries.extend(s.rule.compose_idx(e.idx, e.sign))
            tail = Stream(seg.forward, cut_step * len(entries), Schema(tuple(entries)))
            pieces = _split_head(seg, cut_step * m)
        for piece in pieces:
            if isinstance(piece, Stream):
                parts.append(SchematicWord((tail,)))
                continue
            for l in piece.word:
                img = s.image_of(l.index)
                parts.append(img if l.sign > 0 else invert(img))
    return concat(*parts) if parts else EMPTY_WORD


def projector(
    s: SubstitutionMap, letters
) -> Callable[[SchematicWord], FreeWord]:
    """The function w -> project_finite(image of w, letters).  The source
    letters whose images use the letter set, and the projected image of
    each (with its inverse), are computed here once; each call keeps the
    source letters of w and looks their pieces up.  The table is exposed
    as the returned function's `pieces`: n -> (projected image of a_n,
    its inverse), for the n whose images use the letter set."""
    letters = frozenset(letters)
    relevant: set[int] = set()
    for fam, index in letters:
        relevant |= s.support_query(fam, index)
    source = frozenset(("a", n) for n in relevant)
    pieces: dict[int, tuple[tuple[Letter, ...], tuple[Letter, ...]]] = {}
    for n in relevant:
        piece = project_finite(s.image_of(n), letters)
        pieces[n] = (piece.letters, piece.inverse.letters)

    def project(w: SchematicWord) -> FreeWord:
        _require_pure_a(w)
        out: list[Letter] = []
        for l in kept_letters(w, source):
            out.extend(pieces[l.index][l.sign < 0])
        return reduce_free(FreeWord(tuple(out)))

    project.pieces = pieces
    return project


def apply_projected(s: SubstitutionMap, w: SchematicWord, letters) -> FreeWord:
    """project_finite(image of w, letters) without materializing the image."""
    return projector(s, letters)(w)


def telescope_product(enum: IndexFn) -> SchematicWord:
    """The stream whose step i emits a_{enum(i)} a_{enum(i+1)}^-1; adjacent
    inverse pairs straddle the period boundary, so every finite projection
    reduces to the first letter [a_{enum(0)}] (or its projection)."""
    entries = (Entry("a", enum, 1), Entry("a", enum.shift(1), -1))
    return SchematicWord((Stream(True, 0, Schema(entries)),))


# ---------------------------------------------------------------------------
# embedding verification

@dataclass
class EmbeddingReport:
    ok: bool = True
    admissible: bool = False
    image_ranks: list[int] = field(default_factory=list)
    levels: list[int] = field(default_factory=list)
    ladder_ok: bool = False
    retraction_ok: bool = False
    injective: bool = False
    words_checked: int = 0
    failures: list[str] = field(default_factory=list)

    def fail(self, msg: str):
        self.ok = False
        self.failures.append(msg)

    def lines(self) -> list[str]:
        out = [
            f"admissible: {'yes' if self.admissible else 'NO'}",
            f"image min ranks: {self.image_ranks}",
            f"levels m_n: {self.levels}",
            f"ladder (next image above previous level): {'yes' if self.ladder_ok else 'NO'}",
            f"retraction identity (all words): {'yes' if self.retraction_ok else 'NO'}",
            f"injectivity ({self.words_checked} reduced words): "
            f"{'yes' if self.injective else 'NO'}",
            f"verdict: {'PASS' if self.ok else 'FAIL'}",
        ]
        out.extend(f"failure: {m}" for m in self.failures)
        return out


def embedding_check(
    s: SubstitutionMap, n_max: int, len_max: int, samples: int = 25, rng=None
) -> EmbeddingReport:
    """Verify the embedding ladder for a substitution: strictly increasing
    image ranks, least nonvanishing projection levels m_n, images of later
    letters above earlier levels, the retraction identity on all words,
    and exhaustive injectivity of the level-(m_{n-1}) projection of the
    image on reduced words of the first n letters.

    The level-(m_{n-1}) projector is w -> h(p_S(w)): p_S keeps its source
    letters S and h sends a_j to its piece.  The retraction identity
    h(p_S(w)) = h(p_{S∩A}(w)), A = {a_0 .. a_{n-1}}, compares two
    homomorphisms, so it holds for every word exactly when the piece of
    each a_j in S with j >= n is trivial (a_j itself is the witness when
    it is not); it is decided by one scan of the projector's table.
    `samples` and `rng` are accepted and unused: no word is drawn.
    ValueError for n_max < 1, len_max < 0 or samples < 0, which would
    check nothing."""
    if n_max < 1 or len_max < 0 or samples < 0:
        raise ValueError(
            "embedding_check needs n_max >= 1, len_max >= 0 and samples >= 0, "
            f"got n_max={n_max}, len_max={len_max}, samples={samples}"
        )
    rep = EmbeddingReport()
    rep.admissible = check_admissible(s, bound=3 * (2 * n_max + 4))
    if not rep.admissible:
        rep.fail("support audit failed")
        return rep

    images = [reduce(s.image_of(n)) for n in range(n_max + 2)]
    ranks = []
    for n, img in enumerate(images):
        r = min_rank_of(img)
        if r is None:
            rep.fail(f"image of a{n} is trivial")
            return rep
        ranks.append(r)
    rep.image_ranks = ranks
    if any(ranks[n + 1] <= ranks[n] for n in range(len(ranks) - 1)):
        rep.fail("image ranks do not strictly increase")

    levels = []
    for n, img in enumerate(images[: n_max + 1]):
        found = None
        for m in range(1, 3 * (max(ranks) + len_max + 4)):
            if proj_rank(img, m):
                found = m
                break
        if found is None:
            rep.fail(f"no nonvanishing projection level for a{n}")
            return rep
        levels.append(found)
    rep.levels = levels

    rep.ladder_ok = all(
        ranks[n + 1] >= levels[n] for n in range(n_max)
    )
    if not rep.ladder_ok:
        rep.fail("some image of a_{n+1} uses letters below level m_n")

    # projectors[n - 1] projects images to the letters below level m_{n-1}
    projectors = [projector(s, rank_letter_set(m)) for m in levels[:n_max]]
    rep.retraction_ok = True
    for n in range(1, n_max + 1):
        pieces = projectors[n - 1].pieces
        witness = min(
            (j for j, (piece, _) in pieces.items() if j >= n and piece), default=None
        )
        if witness is not None:
            rep.retraction_ok = False
            rep.fail(f"retraction identity fails at n={n} on {Letter('a', witness)}")

    rep.injective = True
    for n in range(1, n_max + 1):
        pieces = projectors[n - 1].pieces
        # projected image -> first word with it, both letter tuples
        seen: dict[tuple[Letter, ...], tuple[Letter, ...]] = {}
        alphabet = [Letter("a", i) for i in range(n)]
        image = {l: pieces[l.index][0] if l.index in pieces else () for l in alphabet}
        for u, key in enumerate_images(alphabet, len_max, image):
            first = seen.setdefault(key, u)  # one hash of the image per word
            if first is not u:
                rep.injective = False
                rep.fail(
                    f"collision at level m_{n - 1}={levels[n - 1]}: "
                    f"{FreeWord(first)} and {FreeWord(u)}"
                )
                break
            rep.words_checked += 1
        if not rep.injective:
            break
    rep.ok = rep.ok and rep.ladder_ok and rep.retraction_ok and rep.injective
    return rep
