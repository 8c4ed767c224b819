"""Schematic words: finite blocks and omega/omega*-ordered letter streams.

A SchematicWord is a finite segment sequence denoting an infinitary word
in which every concrete letter occurs finitely often.  The target is
that two presentations are order-isomorphic ("the same word") exactly
when `canonicalize` sends them to the same value, and that `reduce`
rewrites to the unique reduced word in the same projection class, so
that `heg_equal` decides equality in the group by comparing reduced
canonical forms.  That target is not met yet: both passes keep apart
presentations that differ in which stream takes a block at a junction of
a backward and a forward stream (ROADMAP, item 1), where `heg_equal`
says False on one word.

`canonicalize` and `reduce` are one left-to-right stack pass, as in free
reduction.  The pass keeps one invariant: every block it holds, on the
stack or among the pieces of moves, is non-empty, and when cancelling
also freely reduced, as in the reduced-word calculus of Cannon & Conner,
where two reduced words cancel only where they meet.  An input block
enters through normalisation when it is read: dropped when empty, and
when cancelling freely reduced, and dropped when that empties it.  An
input stream, and every stream a move builds, is settled by the one
settle move `_settle`, in both passes: fold, then cut the head to a step
boundary or shift the cursor into the schema, and cut it through the
pattern's last finite hit (a step at which adjacent entries cancel), so
that a stream keeps one head however it is presented.  When cancelling,
pattern reduction then drops a pair of entries that cancels cofinitely,
which is how telescoping products collapse.  Every head split is the one
cut `_split_head`, which when cancelling reduces the head it cuts.  The
segment then meets the top of the output stack through the moves at one
junction: merge, which when cancelling cancels at the junction of the
two reduced blocks, absorb and cross move; when cancelling, also eat,
pair-junction and pair-tail (see `_binary`).  Absorb and eat read a block
outward from the junction in the stream's forward sequence, so one rule
serves both orientations, and pair-junction and pair-tail find where two
tails agree by one walk.  The pieces of a move go back in front of the
input, so no move applies on the stack and the pass ends on a word no
move applies to: the normal form, as far as the moves are confluent.  The
tests compare the pass against `random_site_reduce` in
`tests/oracles.py`, which applies cancellation sites in random order.  A
block between a backward and a forward stream is offered to the backward
one first; the cross move then passes whole periods from the stream whose
tail key orders later (`_key_order`) to the other, whichever orientation
that is.  So each move applies at a pair exactly when its mirror image
applies at the inverted pair, and on the fuzz of `tests/normal_forms.py`
both passes commute with `invert`.  Which stream keeps a part of a period
at such a junction still depends on the presentation (ROADMAP, item 1).

Every word the pass returns is marked as its fixpoint: "canonical" from
`canonicalize`, "reduced" from `reduce`; `EMPTY_WORD`, on which no move
applies, is marked "reduced".  The mark lives outside the dataclass
fields, so `==`, `hash` and `repr` ignore it, and `reduce` and
`canonicalize` skip the passes it vouches for.  This is exact, whether
or not the moves are confluent:
- every adjacent pair on the output stack passed `_binary` when it was
  pushed, and every segment on it passed `_unary`, or is a block a move
  built, on which the invariant makes `_unary` return None; so a second
  pass over a marked word makes no move;
- `_unary(., False)` and `_binary(., ., False)` return None whenever
  their cancelling forms do, so a "reduced" word is also canonical.
`invert` keeps the mark: the moves are mirror-symmetric, so none applies
to the inverse of a fixpoint either.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .freegroup import (
    FAMILIES,
    FreeWord,
    Letter,
    is_reduced_free,
    rank_letter_set,
    reduce_free,
)
from .schema import COFINITE, Entry, IndexFn, Schema, fold, tail_alignment, unroll
from .setspec import SetSpec, _evp_bits, _from_bits

_REDUCE_CAP = 100_000


class CapError(RuntimeError):
    """A rewrite pass or cancellation scan reached `_REDUCE_CAP`."""


@dataclass(frozen=True)
class FiniteBlock:
    word: FreeWord


@dataclass(frozen=True)
class Stream:
    forward: bool
    pos: int
    schema: Schema

    def __post_init__(self):
        if self.pos < 0:
            raise ValueError("stream position must be a natural number")
        if not self.schema.valid:
            raise ValueError(
                "stream pattern cancels on a step set that is infinite and "
                "co-infinite; the word has no schematic reduced form"
            )

    @property
    def step(self) -> int:
        return self.pos // self.schema.width


Segment = FiniteBlock | Stream


@dataclass(frozen=True)
class SchematicWord:
    segments: tuple[Segment, ...] = ()

    # the fixpoint mark (module docstring): not a field, so not compared;
    # set only by `_marked` on words the rewrite pass vouches for
    _mark = 0

    def __bool__(self) -> bool:
        return bool(self.segments)

    def __str__(self) -> str:
        from .dsl import render_word

        return render_word(self)

    def __repr__(self) -> str:
        return f"SchematicWord<{self}>"


_CANONICAL, _REDUCED = 1, 2


def _marked(w: SchematicWord, level: int) -> SchematicWord:
    object.__setattr__(w, "_mark", level)
    return w


EMPTY_WORD = _marked(SchematicWord(()), _REDUCED)


def block(*letters: Letter) -> SchematicWord:
    return SchematicWord((FiniteBlock(FreeWord(tuple(letters))),)) if letters else EMPTY_WORD


def from_free(w: FreeWord) -> SchematicWord:
    return SchematicWord((FiniteBlock(w),)) if w else EMPTY_WORD


def stream_word(forward: bool, k0: int, entries) -> SchematicWord:
    sch = Schema(tuple(entries))
    return SchematicWord((Stream(forward, k0 * sch.width, sch),))


# ---------------------------------------------------------------------------
# letter extraction

def _stream_hits(seg: Stream, letters: frozenset[tuple[str, int]]):
    """(position, displayed letter) pairs for the given concrete letters,
    in display order."""
    found = []
    m = seg.schema.width
    for fam, index in letters:
        for j, e in enumerate(seg.schema.entries):
            k = e.idx.solve(index)
            if k is None:
                continue
            p = k * m + j
            if p < seg.pos or e.family_at(k) != fam:
                continue
            found.append((p, Letter(fam, index, e.sign)))
    found.sort()
    if seg.forward:
        return found
    return [(p, l.inverse) for p, l in reversed(found)]


def occurrences(w: SchematicWord, letter: tuple[str, int]):
    """All positions carrying the concrete letter (either sign), in domain
    order, as (segment index, locator) pairs; block locators are letter
    offsets, stream locators linear positions."""
    fam, index = letter
    out = []
    for i, seg in enumerate(w.segments):
        if isinstance(seg, FiniteBlock):
            out.extend(
                (i, off)
                for off, l in enumerate(seg.word)
                if (l.fam, l.index) == (fam, index)
            )
        else:
            out.extend((i, p) for p, _ in _stream_hits(seg, frozenset([letter])))
    return out


def kept_letters(w: SchematicWord, letters) -> list[Letter]:
    letters = frozenset(letters)
    out: list[Letter] = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            out.extend(l for l in seg.word if (l.fam, l.index) in letters)
        else:
            out.extend(l for _, l in _stream_hits(seg, letters))
    return out


def project_finite(w: SchematicWord, letters) -> FreeWord:
    """Occurrences of the given letters in domain order, freely reduced."""
    return reduce_free(FreeWord(tuple(kept_letters(w, letters))))


def proj_rank(w: SchematicWord, n: int) -> FreeWord:
    """The projection keeping letters of rank < n; ValueError for n < 0."""
    return project_finite(w, rank_letter_set(n))


def _first_letters(w: SchematicWord) -> list[Letter]:
    """Every letter of w's blocks and each stream's first period from its
    cursor, in segment order."""
    out: list[Letter] = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            out.extend(seg.word)
        else:
            out.extend(seg.schema.letters(seg.pos, seg.pos + seg.schema.width))
    return out


def min_rank_of(w: SchematicWord) -> int | None:
    """Smallest letter rank occurring in w, None for the empty word."""
    return min((l.rank for l in _first_letters(w)), default=None)


def equal_up_to(w1: SchematicWord, w2: SchematicWord, N: int) -> bool:
    """Projections to all letters of rank < N agree as reduced free words."""
    return proj_rank(w1, N) == proj_rank(w2, N)


# ---------------------------------------------------------------------------
# moves

def _displayed(forward: bool, pieces: list[Segment]) -> list[Segment]:
    """Pieces of a stream, given in forward-sequence order, in display
    order: reversed, with blocks inverted, for a backward stream."""
    if forward:
        return pieces
    return [
        FiniteBlock(p.word.inverse) if isinstance(p, FiniteBlock) else p
        for p in reversed(pieces)
    ]


def _split_head(st: Stream, upto: int, cancel: bool = False) -> list[Segment]:
    """Positions [pos, upto) cut off as a finite block, and the rest of the
    stream, in display order; the stream itself when nothing is cut.  With
    `cancel` the block is freely reduced, and left out when that empties
    it, so the cancelling pass gets the block reduced as its invariant
    needs (module docstring)."""
    if upto == st.pos:
        return [st]
    head = FreeWord(st.schema.letters(st.pos, upto))
    if cancel and not is_reduced_free(head):
        head = reduce_free(head)
    rest = Stream(st.forward, upto, st.schema)
    return _displayed(st.forward, [FiniteBlock(head), rest] if head else [rest])


def _absorb_letters(st: Stream, letters) -> Stream | None:
    """The stream extended by one earlier step whose forward-sequence
    letters are exactly `letters` (length = width), or None.  Selector
    entries choose the membership bit of the new step to match.  `st` is
    settled: on a step boundary, below one width at 0, and past its last
    finite hit, so the new step has a finite pattern hit only at
    `Schema.last_hit`, and is then refused, as `_settle` would cut it off
    again.  One more step keeps the kind of every pair class, so the
    extended stream is valid."""
    m = st.schema.width
    if st.pos >= m:
        if tuple(letters) != st.schema.letters(st.pos - m, st.pos):
            return None
        if st.pos // m - 1 == st.schema.last_hit:
            return None
        return Stream(st.forward, st.pos - m, st.schema)
    entries = []
    for e, l in zip(st.schema.entries, letters):
        if l.sign != e.sign:
            return None
        num = e.idx.a2 - e.idx.a1 + e.idx.a0  # numerator of the value at -1
        if num < 0 or num % e.idx.div or num // e.idx.div != l.index:
            return None
        try:
            idx = e.idx.shift(-1)
        except ValueError:
            return None
        fam = e.fam
        if isinstance(fam, SetSpec):
            bits = _evp_bits(fam)
            if bits is None or l.fam not in ("b", "c"):
                return None  # prefix-code sets do not extend
            fam = _from_bits((1 if l.fam == "b" else 0,) + bits[0], bits[1])
        elif fam != l.fam:
            return None
        entries.append(Entry(fam, idx, e.sign))
    ext = Stream(st.forward, 0, Schema(tuple(entries)))
    return None if ext.schema.last_hit == 0 else ext


def _block_meets_stream(bw: FreeWord, st: Stream, cancel: bool):
    """The move where a block meets a stream head (a block before a forward
    stream, or a backward stream before a block), in display order, or
    None: absorb the width of letters at the junction as one earlier step,
    else, with `cancel`, eat the letters that cancel the head.  The block's
    i-th letter out from the junction, in the stream's forward sequence, is
    bw[n-1-i] before a forward stream and bw[i].inverse after a backward
    one; the block is read in place, and what is left of it is a slice,
    left out when empty."""
    ls, n = bw.letters, len(bw)
    m = st.schema.width
    t, moved = m, None
    if n >= m:
        run = ls[n - m :] if st.forward else tuple(l.inverse for l in reversed(ls[:m]))
        moved = _absorb_letters(st, run)
    if moved is None and cancel:
        at, p = st.schema.letter_at, st.pos
        t = 0
        if st.forward:
            while t < n and ls[n - 1 - t].inverse is at(p + t):
                t += 1
        else:
            while t < n and ls[t] is at(p + t):
                t += 1
        if t:
            moved = Stream(st.forward, p + t, st.schema)
    if moved is None:
        return None
    if st.forward:
        return [FiniteBlock(FreeWord(ls[: n - t])), moved] if t < n else [moved]
    return [moved, FiniteBlock(FreeWord(ls[t:]))] if t < n else [moved]


def _cross_move(left: Stream, right: Stream):
    """At a junction of a backward stream `left` and a forward stream
    `right` whose tail keys differ, move one lcm-period from the head of
    the stream whose key orders later (`_key_order`) into the other; None
    when the keys are equal.  A move here applies exactly when its mirror
    image applies at the inverted pair."""
    for _, kind, _ in left.schema.pair_classes + right.schema.pair_classes:
        if kind == COFINITE:
            return None
    ku, kv = left.schema.tail_key, right.schema.tail_key
    if ku is kv:
        return None
    src, dst = (right, left) if _key_order(kv) > _key_order(ku) else (left, right)
    mu = dst.schema.width
    g = lcm(mu, src.schema.width)
    cur = dst
    for p in range(src.pos, src.pos + g, mu):
        # display order runs opposite to forward-sequence order on one side
        # of the junction, so the step adjacent to it takes the earliest
        # moved letters, reversed within the step and inverted
        step = src.schema.letters(p, p + mu)
        cur = _absorb_letters(cur, [l.inverse for l in reversed(step)])
        if cur is None:
            return None
    rest = Stream(src.forward, src.pos + g, src.schema)
    return [cur, rest] if dst is left else [rest, cur]


def _key_order(key: Schema) -> tuple:
    """A total order of tail keys by value, entry by entry, the same in
    every process and independent of interning order."""
    return tuple(
        (str(e.fam), e.idx.a2, e.idx.a1, e.idx.a0, e.idx.div, e.sign) for e in key.entries
    )


def _apply_pattern(st: Stream) -> list[Segment] | None:
    """Pattern reduction of a settled stream: drop the first cofinitely
    cancelling pair, as (pair_index, kind, bound) in
    `Schema.pair_classes`, from the stream's own step on, first cutting
    the head up to the pair's bound (the next visit settles the cursor)."""
    for j, kind, bound in st.schema.pair_classes:
        if kind == COFINITE:
            break
    else:
        return None
    m = st.schema.width
    if bound * m > st.pos:
        return _split_head(st, bound * m, True)
    entries = st.schema.entries
    pieces: list[Segment] = []
    if j < m - 1:
        kept = entries[:j] + entries[j + 2 :]
    else:
        # wrap pair: entry 0 at this step survives once, inner entries stream on
        pieces.append(FiniteBlock(FreeWord((st.schema.letter_at(st.pos),))))
        kept = entries[1 : m - 1]
    if kept:
        pieces.append(Stream(st.forward, st.step * (m - 2), Schema(kept)))
    return _displayed(st.forward, pieces)


def _agreement(u: Stream, v: Stream) -> tuple[int, int] | None:
    """(delta, k): u's letter at p equals v's at p + delta for all p >= k,
    the least such k >= u.pos, v.pos - delta, found by walking back from
    the bound of `tail_alignment`; None when the tails never agree."""
    al = tail_alignment(u.schema, v.schema)
    if al is None:
        return None
    delta, K = al
    floor = max(u.pos, v.pos - delta)
    k = max(floor, K)
    while k > floor and u.schema.letter_at(k - 1) == v.schema.letter_at(k - 1 + delta):
        k -= 1
    return delta, k


def _junction_run(u: Stream, v: Stream) -> int:
    """Length of the cancelling run at a (backward, forward) junction."""
    at_u, at_v = u.schema.letter_at, v.schema.letter_at
    t = 0
    while t < _REDUCE_CAP and at_u(u.pos + t) == at_v(v.pos + t):
        t += 1
    if t >= _REDUCE_CAP:
        raise CapError(
            "junction cancellation scan reached the cap "
            f"_REDUCE_CAP = {_REDUCE_CAP} letters"
        )
    return t


# ---------------------------------------------------------------------------
# the rewrite pass

def _settle(st: Stream, cancel: bool = False) -> list[Segment] | None:
    """The stream's canonical presentation in display order, or None when
    it has it: the schema folded, then the head cut to the later of the
    next step boundary and the step after the pattern's last finite hit,
    `Schema.last_hit` (with `cancel`, the cut head freely reduced), else a
    boundary cursor shifted into the schema and the shift folded (prefix
    codes keep their cursor; a shift keeps pair classes, so the stream
    stays valid)."""
    sch = fold(st.schema)
    pos, m = st.pos, sch.width
    cut = (sch.last_hit + 1) * m
    if pos % m or cut > pos:
        return _split_head(Stream(st.forward, pos, sch), max(cut, pos - pos % m + m), cancel)
    if pos:
        shifted = unroll(sch, 1, pos // m)
        if shifted is not None:
            return [Stream(st.forward, 0, fold(shifted))]
    return None if sch is st.schema else [Stream(st.forward, pos, sch)]


def _unary(seg: Segment, cancel: bool) -> list[Segment] | None:
    """The first move on one segment, as its replacement in display order,
    or None.  A block is normalised: dropped when empty, and with `cancel`
    freely reduced, and dropped when that empties it.  A stream is settled
    (`_settle`), in both passes alike, and once settled, with `cancel`
    pattern-reduced (`_apply_pattern`).  The pass runs this on
    input segments and on the streams that moves build; a block a move
    builds keeps the pass's invariant, on which this returns None."""
    if isinstance(seg, FiniteBlock):
        if not seg.word:
            return []
        if not cancel or is_reduced_free(seg.word):
            return None
        w = reduce_free(seg.word)
        return [FiniteBlock(w)] if w else []
    settled = _settle(seg, cancel)
    return _apply_pattern(seg) if settled is None and cancel else settled


def _merge(x: tuple[Letter, ...], y: tuple[Letter, ...]) -> list[Segment]:
    """Two freely reduced blocks as one, cancelling where they meet: the
    reduced form of x·y, as no letter cancels inside either; [] when
    nothing is left."""
    i, n = 0, min(len(x), len(y))
    while i < n and x[-1 - i].inverse is y[i]:
        i += 1
    w = x[: len(x) - i] + y[i:]
    return [FiniteBlock(FreeWord(w))] if w else []


def _binary(a: Segment, b: Segment, cancel: bool) -> list[Segment] | None:
    """The first move at the junction of two settled segments, as their
    replacement in display order, or None: merge two blocks (with
    `cancel`, cancelling at the junction); absorb, then eat, where a block
    meets a stream head; where streams of opposite orientation meet,
    pair-junction or pair-tail to nothing if the tails agree from both
    cursors; else, a backward before a forward stream, cross move, else
    pair-junction on the cancelling run, and a forward before a backward
    one, pair-tail to the finite leftover, which is reduced because its
    cut is the least.  Eat and the pair moves need `cancel`.  Every block
    piece is non-empty, and with `cancel` freely reduced when the blocks
    met are."""
    if isinstance(a, FiniteBlock):
        if isinstance(b, FiniteBlock):
            if cancel:
                return _merge(a.word.letters, b.word.letters)
            return [FiniteBlock(FreeWord(a.word.letters + b.word.letters))]
        return _block_meets_stream(a.word, b, cancel) if b.forward else None
    if isinstance(b, FiniteBlock):
        return None if a.forward else _block_meets_stream(b.word, a, cancel)
    if a.forward == b.forward or (a.forward and not cancel):
        return None
    al = _agreement(a, b)
    if al == (b.pos - a.pos, a.pos):  # the tails agree from both cursors
        return [] if cancel else None
    if a.forward:  # pair-tail: the finite leftover of the cancelled tails
        if al is None:
            return None
        delta, k = al
        right = [l.inverse for l in reversed(b.schema.letters(b.pos, k + delta))]
        return [FiniteBlock(FreeWord(a.schema.letters(a.pos, k) + tuple(right)))]
    moved = _cross_move(a, b)
    if moved is not None:
        return moved
    t = _junction_run(a, b) if cancel else 0
    if not t:
        return None
    return [Stream(False, a.pos + t, a.schema), Stream(True, b.pos + t, b.schema)]


def _rewrite(segments, cancel: bool) -> SchematicWord:
    """The stack pass over `segments`: canonical moves only, or with
    `cancel` all moves.  The pieces of moves wait on their own stack in
    front of the rest of the input; a block among them skips `_unary`,
    which the invariant makes return None.  The result is marked as the
    pass's fixpoint."""
    todo = list(reversed(segments))
    ahead: list[Segment] = []
    out: list[Segment] = []
    moves = 0
    while ahead or todo:
        if ahead:
            seg = ahead.pop()
            pieces = None if isinstance(seg, FiniteBlock) else _unary(seg, cancel)
        else:
            seg = todo.pop()
            pieces = _unary(seg, cancel)
        if pieces is None and out:
            pieces = _binary(out[-1], seg, cancel)
            if pieces is not None:
                out.pop()
        if pieces is None:
            out.append(seg)
            continue
        moves += 1
        if moves > _REDUCE_CAP:
            raise CapError(
                "rewriting reached the cap "
                f"_REDUCE_CAP = {_REDUCE_CAP} moves in one pass"
            )
        ahead.extend(reversed(pieces))
    return _marked(SchematicWord(tuple(out)), _REDUCED if cancel else _CANONICAL)


def _settled_word(seg: Segment) -> SchematicWord:
    """The reduced word of one segment, marked: without a pass when no move
    on the segment applies, for one segment the test that the pass is done."""
    w = SchematicWord((seg,))
    return _marked(w, _REDUCED) if _unary(seg, True) is None else _rewrite(w.segments, True)


def canonicalize(w: SchematicWord) -> SchematicWord:
    return w if w._mark >= _CANONICAL else _rewrite(w.segments, False)


def concat(*words: SchematicWord) -> SchematicWord:
    """The words one after another, canonicalized."""
    return canonicalize(SchematicWord(tuple(seg for w in words for seg in w.segments)))


def invert(w: SchematicWord) -> SchematicWord:
    """The inverse word, with w's fixpoint mark (module docstring)."""
    out: list[Segment] = []
    for seg in reversed(w.segments):
        if isinstance(seg, FiniteBlock):
            out.append(FiniteBlock(seg.word.inverse))
        else:
            out.append(Stream(not seg.forward, seg.pos, seg.schema))
    return _marked(SchematicWord(tuple(out)), w._mark)


def reduce(w: SchematicWord) -> SchematicWord:
    """Reduced canonical word projection-equal to w."""
    return w if w._mark == _REDUCED else _rewrite(w.segments, True)


def is_reduced(w: SchematicWord) -> bool:
    """Whether `reduce` leaves canonicalize(w) unchanged; as the pass ends on
    a word no move applies to, exactly when no cancellation move applies.
    Raises CapError when the reduction reaches `_REDUCE_CAP`."""
    c = canonicalize(w)
    return reduce(c) == c


def heg_equal(w1: SchematicWord, w2: SchematicWord) -> bool:
    """Group equality on the fragment: reduce both, compare canonical forms."""
    return reduce(w1) == reduce(w2)


def pattern_tail(schema: Schema) -> Schema | None:
    """The tail key (`Schema.tail_key`) of the stream that the pass leaves
    of a stream over `schema` from position 0, or None when nothing of it
    stays a stream: the stream settled and pattern-reduced, its head cut
    off.  Computed once per distinct schema and kept in its `_tail` slot;
    the `hag` module docstring says why every stream over the schema,
    whatever its cursor and orientation, leaves a tail of this class."""
    tail = schema._tail
    if tail is None:
        tail = _compute_tail(schema)
        object.__setattr__(schema, "_tail", tail)
    return tail or None


def _compute_tail(schema: Schema) -> Schema | bool:
    segments = _rewrite((Stream(True, 0, schema),), True).segments
    return next((seg.schema.tail_key for seg in segments if isinstance(seg, Stream)), False)


# ---------------------------------------------------------------------------
# recoding and retraction

def _encode_letter(l: Letter) -> Letter:
    if l.fam != "a":
        raise ValueError("encode expects a word over the a-letters only")
    return Letter(FAMILIES[l.index % 3], l.index // 3, l.sign)


def _decode_letter(l: Letter) -> Letter:
    return Letter("a", 3 * l.index + FAMILIES.index(l.fam), l.sign)


def gamma_recode(w: SchematicWord, direction: str) -> SchematicWord:
    """Bijective recoding a_{3m} <-> a_m, a_{3m+1} <-> b_m, a_{3m+2} <-> c_m.

    `encode` maps a pure-a word onto the tripled alphabet; `decode` is its
    inverse and rejects words outside the schematic image (selector
    streams have no pure-a schematic preimage presentation).
    """
    if direction not in ("encode", "decode"):
        raise ValueError("direction must be 'encode' or 'decode'")
    out: list[Segment] = []
    for seg in canonicalize(w).segments:
        if isinstance(seg, FiniteBlock):
            f = _encode_letter if direction == "encode" else _decode_letter
            out.append(FiniteBlock(FreeWord(tuple(f(l) for l in seg.word))))
            continue
        if direction == "encode":
            if any(e.fam != "a" for e in seg.schema.entries):
                raise ValueError("encode expects a word over the a-letters only")
            m = seg.schema.width
            step0 = seg.pos // m
            T = 3 * lcm(*(e.idx.div for e in seg.schema.entries))
            # unroll so letter residues mod 3 are constant per entry, with
            # the phase chosen to keep the cursor on a period boundary
            big = unroll(seg.schema, T, phase=step0 % T)
            assert big is not None
            entries = []
            for e in big.entries:
                r = e.idx.value(0) % 3
                assert e.idx.value(1) % 3 == r and e.idx.value(2) % 3 == r
                idx = IndexFn(e.idx.a2, e.idx.a1, e.idx.a0 - r * e.idx.div, 3 * e.idx.div)
                entries.append(Entry(FAMILIES[r], idx, e.sign))
            out.append(
                Stream(seg.forward, (step0 // T) * T * m, Schema(tuple(entries)))
            )
        else:
            entries = []
            for e in seg.schema.entries:
                if isinstance(e.fam, SetSpec):
                    raise ValueError(
                        "decode: selector streams are outside the schematic image"
                    )
                r = FAMILIES.index(e.fam)
                idx = IndexFn(
                    3 * e.idx.a2, 3 * e.idx.a1, 3 * e.idx.a0 + r * e.idx.div, e.idx.div
                )
                entries.append(Entry("a", idx, e.sign))
            out.append(Stream(seg.forward, seg.pos, Schema(tuple(entries))))
    return canonicalize(SchematicWord(tuple(out)))


def ra_retract(w: SchematicWord) -> SchematicWord:
    """Delete every b- and c-letter (selector streams vanish entirely)."""
    c = canonicalize(w)
    out: list[Segment] = []
    for seg in c.segments:
        if isinstance(seg, FiniteBlock):
            kept = tuple(l for l in seg.word if l.fam == "a")
            if kept:
                out.append(FiniteBlock(FreeWord(kept)))
            continue
        m = seg.schema.width
        kept_entries = tuple(e for e in seg.schema.entries if e.fam == "a")
        if not kept_entries:
            continue
        if len(kept_entries) == m:
            out.append(seg)
            continue
        # same steps, fewer entries per step; pos sits on a period boundary
        new_pos = (seg.pos // m) * len(kept_entries)
        out.append(Stream(seg.forward, new_pos, Schema(kept_entries)))
    if tuple(out) == c.segments:  # nothing dropped: c keeps its mark
        return c
    return canonicalize(SchematicWord(tuple(out))) if out else EMPTY_WORD
