"""Schematic words: finite blocks and omega/omega*-ordered letter streams.

A SchematicWord is a finite segment sequence denoting an infinitary word
in which every concrete letter occurs finitely often.  Two presentations
are order-isomorphic ("the same word") exactly when `canonicalize` sends
them to the same value; `reduce` rewrites to the unique reduced word in
the same projection class, and `heg_equal` decides equality in the group
by comparing reduced canonical forms.

`canonicalize` and `reduce` are one left-to-right stack pass, as in free
reduction.  Each input segment is settled by the moves on one segment
(folding, head splits, cursor normalisation; when cancelling, also free
reduction of blocks and pattern reduction of streams, which is how
telescoping products collapse), then meets the top of the output stack
through the moves at one junction: merge, absorb and cross move; when
cancelling, also eat, pair-junction and pair-tail (see `_binary`).
Absorb and eat read a block outward from the junction in the stream's
forward sequence, so one rule serves both orientations, and
pair-junction and pair-tail find where two tails agree by one walk.  The
pieces of a move go back to the input, so no move applies on the stack
and the pass ends on a word no move applies to: the normal form, as far
as the moves are confluent.  The tests compare the pass against
`random_site_reduce` in `tests/oracles.py`, which applies cancellation
sites in random order.  A block between a backward and a forward stream
is offered to the backward one first, which is not yet order-independent
(ROADMAP, item 1).

Every word the pass returns is marked as its fixpoint: "canonical" from
`canonicalize`, "reduced" from `reduce`.  The mark lives outside the
dataclass fields, so `==`, `hash` and `repr` ignore it, and `reduce`,
`canonicalize` and `concat` skip the passes it vouches for.  This is
exact, whether or not the moves are confluent:
- the pass reads only the current segment and the top of the stack and
  puts pieces back in front of the rest of the input, so its state after
  a prefix of the input depends only on that prefix;
- every adjacent pair on the output stack passed `_unary` and `_binary`
  when it was pushed, so a second pass over a marked word makes no move,
  and a marked first word of `concat` is the stack that a pass over the
  whole input reaches at the end of that word;
- `_unary(., False)` and `_binary(., ., False)` return None whenever
  their cancelling forms do, so a "reduced" word is also canonical.
`invert` drops the mark: the pass is not mirror-symmetric (a block
between a backward and a forward stream goes to the backward one), so
the inverse of a fixpoint need not be one.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import lcm

from .freegroup import (
    FreeWord,
    Letter,
    cancels,
    is_reduced_free,
    rank_letter_set,
    reduce_free,
)
from .schema import (
    COFINITE,
    FINITE,
    Entry,
    IndexFn,
    Schema,
    fold,
    pair_cancellation,
    schema_valid,
    tail_alignment,
    unroll,
)
from .setspec import EvPeriodic, Finite, SetSpec, shifted

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
        if not schema_valid(self.schema):
            raise ValueError(
                "stream pattern cancels on a step set that is infinite and "
                "co-infinite; the word has no schematic reduced form"
            )

    @property
    def step(self) -> int:
        return self.pos // self.schema.width

    def letter(self, p: int) -> Letter:
        """Forward-sequence letter at linear position p >= pos."""
        return self.schema.letter_at(p)


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


EMPTY_WORD = SchematicWord(())

_CANONICAL, _REDUCED = 1, 2


def _marked(w: SchematicWord, level: int) -> SchematicWord:
    object.__setattr__(w, "_mark", level)
    return w


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


def _split_head(st: Stream, upto: int) -> list[Segment]:
    """Positions [pos, upto) cut off as a finite block, and the rest of the
    stream, in display order; the stream itself when nothing is cut."""
    if upto == st.pos:
        return [st]
    head = FiniteBlock(FreeWord(tuple(st.letter(p) for p in range(st.pos, upto))))
    return _displayed(st.forward, [head, Stream(st.forward, upto, st.schema)])


def _step_hits(schema: Schema, s: int) -> bool:
    """Whether some adjacent pattern pair cancels at step s.  Absorbing a
    step with a hit into a stream would hide a cancellation from the
    rewrite engine (and undo its head splits), so canonical moves skip
    such steps; reduced words never have them."""
    if s < 0:
        return True
    for _, e1, e2, shift in schema.adjacent_pairs():
        if cancels(e1.letter_at(s), e2.letter_at(s + shift)):
            return True
    return False


def _shift_schema(schema: Schema, d: int) -> Schema | None:
    """The schema emitting at step k what this one emits at step k+d."""
    entries = []
    for e in schema.entries:
        fam = e.fam
        if isinstance(fam, SetSpec):
            fam = shifted(fam, d)
            if fam is None:
                return None
        try:
            idx = e.idx.shift(d)
        except ValueError:
            return None
        entries.append(Entry(fam, idx, e.sign))
    return Schema(tuple(entries))


def _normalize_cursor(st: Stream) -> Stream:
    """Fold a boundary cursor into the schema when every entry shifts;
    prefix-code selectors keep their cursor."""
    m = st.schema.width
    if st.pos == 0 or st.pos % m:
        return st
    sch = _shift_schema(st.schema, st.pos // m)
    if sch is None:
        return st
    try:
        return Stream(st.forward, 0, sch)
    except ValueError:
        return st


def _prepend_bit(spec: SetSpec, bit: int) -> SetSpec | None:
    """The set T with T(0) = bit and T(k) = spec(k-1)."""
    if isinstance(spec, Finite):
        return Finite(([0] if bit else []) + [e + 1 for e in spec.elems])
    if isinstance(spec, EvPeriodic):
        return EvPeriodic((bit,) + spec.prefix, spec.period)
    return None  # prefix-code sets do not extend


def _absorb_letters(st: Stream, letters) -> Stream | None:
    """The stream extended by one earlier step whose forward-sequence
    letters are exactly `letters` (length = width), or None.  Selector
    entries choose the membership bit of the new step to match."""
    m = st.schema.width
    if len(letters) != m:
        return None
    if st.pos >= m:
        if list(letters) != [st.letter(p) for p in range(st.pos - m, st.pos)]:
            return None
        if _step_hits(st.schema, st.pos // m - 1):
            return None
        return Stream(st.forward, st.pos - m, st.schema)
    if st.pos != 0:
        return None
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
            if l.fam not in ("b", "c"):
                return None
            fam = _prepend_bit(fam, 1 if l.fam == "b" else 0)
            if fam is None:
                return None
        elif fam != l.fam:
            return None
        entries.append(Entry(fam, idx, e.sign))
    try:
        ext = Stream(st.forward, 0, Schema(tuple(entries)))
    except ValueError:
        return None
    if _step_hits(ext.schema, 0):
        return None
    return ext


def _block_meets_stream(bw: FreeWord, st: Stream, cancel: bool):
    """The move where a block meets a stream head (a block before a forward
    stream, or a backward stream before a block), in display order, or
    None: absorb the width of letters at the junction as one earlier step,
    else, with `cancel`, eat the letters that cancel the head.  The block's
    i-th letter out from the junction, in the stream's forward sequence, is
    bw[n-1-i] before a forward stream and bw[i].inverse after a backward
    one; the block is read in place."""
    n = len(bw)

    def out(i: int) -> Letter:
        return bw[n - 1 - i] if st.forward else bw[i].inverse

    m = st.schema.width
    t, moved = m, None
    if n >= m:
        moved = _absorb_letters(st, [out(i) for i in reversed(range(m))])
    if moved is None and cancel:
        t = 0
        while t < n and cancels(out(t), st.letter(st.pos + t)):
            t += 1
        if t:
            moved = Stream(st.forward, st.pos + t, st.schema)
    if moved is None:
        return None
    if st.forward:
        return [FiniteBlock(FreeWord(bw.letters[: n - t])), moved]
    return [moved, FiniteBlock(FreeWord(bw.letters[t:]))]


def _cross_move(left: Stream, right: Stream):
    """Move one lcm-period from the head of the forward stream `right` into
    the backward stream `left`; for a junction whose tails differ."""
    mu = left.schema.width
    g = lcm(mu, right.schema.width)
    if _pattern_site(left) is not None or _pattern_site(right) is not None:
        return None
    cur = left
    for t in range(g // mu):
        # display order runs opposite to forward-sequence order, so the
        # step adjacent to the junction pairs with the earliest moved
        # letters of the right stream, reversed within the step
        base = right.pos + (t + 1) * mu - 1
        letters = [right.letter(base - i).inverse for i in range(mu)]
        cur = _absorb_letters(cur, letters)
        if cur is None:
            return None
    return [cur, Stream(True, right.pos + g, right.schema)]


def _pattern_site(st: Stream):
    """First rewritable pattern pair, as (pair_index, kind, data)."""
    k0 = st.step
    for j, e1, e2, shift in st.schema.adjacent_pairs():
        kind, data = pair_cancellation(e1, e2, shift)
        if kind == COFINITE:
            return j, kind, data
        if kind == FINITE and data and any(h >= k0 for h in data):
            return j, kind, data
    return None


def _apply_pattern(st: Stream) -> list[Segment] | None:
    site = _pattern_site(st)
    if site is None:
        return None
    j, kind, data = site
    m = st.schema.width
    k0 = st.step
    if kind == FINITE:
        H = max(h for h in data if h >= k0)
        return _split_head(st, (H + 1) * m)
    K = max(k0, data)
    entries = st.schema.entries
    pieces: list[Segment] = []
    if K > k0:  # the head before step K stays
        head = FreeWord(tuple(st.letter(p) for p in range(st.pos, K * m)))
        pieces.append(FiniteBlock(head))
    if j < m - 1:
        kept = entries[:j] + entries[j + 2 :]
    else:
        # wrap pair: entry 0 at step K survives once, inner entries stream on
        pieces.append(FiniteBlock(FreeWord((entries[0].letter_at(K),))))
        kept = entries[1 : m - 1]
    if kept:
        pieces.append(Stream(st.forward, K * (m - 2), Schema(kept)))
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
    while k > floor and u.letter(k - 1) == v.letter(k - 1 + delta):
        k -= 1
    return delta, k


def _junction_run(u: Stream, v: Stream) -> int:
    """Length of the cancelling run at a (backward, forward) junction."""
    t = 0
    while t < _REDUCE_CAP and u.letter(u.pos + t) == v.letter(v.pos + t):
        t += 1
    if t >= _REDUCE_CAP:
        raise CapError(
            "junction cancellation scan reached the cap "
            f"_REDUCE_CAP = {_REDUCE_CAP} letters"
        )
    return t


def _infinite_tail_cancel(u: Stream, v: Stream) -> FiniteBlock | None:
    """For a (forward, backward) pair: cancel the common tails, returning
    the finite leftover, or None when the tails never match."""
    al = _agreement(u, v)
    if al is None:
        return None
    delta, k = al
    left = [u.letter(p) for p in range(u.pos, k)]
    right = [v.letter(p).inverse for p in range(k + delta - 1, v.pos - 1, -1)]
    return FiniteBlock(FreeWord(tuple(left + right)))


# ---------------------------------------------------------------------------
# the rewrite pass

def _unary(seg: Segment, cancel: bool) -> list[Segment] | None:
    """The first move on one segment, as its replacement in display order,
    or None.  Canonical moves: drop an empty block, fold the schema, split
    the head to a period boundary, normalise the cursor; with `cancel`,
    also free reduction of a block and pattern reduction of a stream."""
    if isinstance(seg, FiniteBlock):
        if not seg.word:
            return []
        if cancel and not is_reduced_free(seg.word):
            return [FiniteBlock(reduce_free(seg.word))]
        return None
    folded = fold(seg.schema)
    if folded is not seg.schema:
        return [Stream(seg.forward, seg.pos, folded)]
    m = seg.schema.width
    if seg.pos % m:
        return _split_head(seg, seg.pos + m - seg.pos % m)
    normal = _normalize_cursor(seg)
    if normal != seg:
        return [normal]
    return _apply_pattern(seg) if cancel else None


def _binary(a: Segment, b: Segment, cancel: bool) -> list[Segment] | None:
    """The first move at the junction of two settled segments, as their
    replacement in display order, or None: merge two blocks; absorb, then
    eat, where a block meets a stream head; where a backward stream meets
    a forward one, pair-junction if the tails are equal, else cross move,
    else pair-junction on the cancelling run; pair-tail where a forward
    stream meets a backward one.  Eat and the pair moves need `cancel`."""
    if isinstance(a, FiniteBlock):
        if isinstance(b, FiniteBlock):
            return [FiniteBlock(FreeWord(a.word.letters + b.word.letters))]
        return _block_meets_stream(a.word, b, cancel) if b.forward else None
    if isinstance(b, FiniteBlock):
        return None if a.forward else _block_meets_stream(b.word, a, cancel)
    if not a.forward and b.forward:
        if _agreement(a, b) == (b.pos - a.pos, a.pos):
            return [] if cancel else None
        moved = _cross_move(a, b)
        if moved is not None:
            return moved
        t = _junction_run(a, b) if cancel else 0
        if not t:
            return None
        return [Stream(False, a.pos + t, a.schema), Stream(True, b.pos + t, b.schema)]
    if cancel and a.forward and not b.forward:
        leftover = _infinite_tail_cancel(a, b)
        return None if leftover is None else [leftover]
    return None


def _rewrite(segments, cancel: bool, settled: tuple[Segment, ...] = ()) -> SchematicWord:
    """The stack pass over `segments`, starting from the stack `settled`:
    canonical moves only, or with `cancel` all moves.  The result is marked
    as the pass's fixpoint."""
    todo = list(reversed(segments))
    out = list(settled)
    moves = 0
    while todo:
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
        todo.extend(reversed(pieces))
    return _marked(SchematicWord(tuple(out)), _REDUCED if cancel else _CANONICAL)


def _settled_word(seg: Segment) -> SchematicWord:
    """The word of one segment, marked reduced when no move on the segment
    applies: for one segment, exactly the test that the pass is done."""
    w = SchematicWord((seg,))
    return _marked(w, _REDUCED) if _unary(seg, True) is None else w


def canonicalize(w: SchematicWord) -> SchematicWord:
    return w if w._mark >= _CANONICAL else _rewrite(w.segments, False)


def concat(*words: SchematicWord) -> SchematicWord:
    """The words one after another, canonicalized.  A marked first word is
    the stack that a pass over all the segments holds once it has read
    that word's, so only the segments after it go through the pass."""
    first = words[0] if words else EMPTY_WORD
    rest = tuple(seg for w in words[1:] for seg in w.segments)
    if not first._mark:
        return canonicalize(SchematicWord(first.segments + rest))
    return _rewrite(rest, False, first.segments) if rest else first


def invert(w: SchematicWord) -> SchematicWord:
    """The inverse word, unmarked (module docstring)."""
    out: list[Segment] = []
    for seg in reversed(w.segments):
        if isinstance(seg, FiniteBlock):
            out.append(FiniteBlock(seg.word.inverse))
        else:
            out.append(Stream(not seg.forward, seg.pos, seg.schema))
    return SchematicWord(tuple(out))


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


# ---------------------------------------------------------------------------
# recoding and retraction

_FAM_BY_RESIDUE = ("a", "b", "c")


def _encode_letter(l: Letter) -> Letter:
    if l.fam != "a":
        raise ValueError("encode expects a word over the a-letters only")
    return Letter(_FAM_BY_RESIDUE[l.index % 3], l.index // 3, l.sign)


def _decode_letter(l: Letter) -> Letter:
    return Letter("a", 3 * l.index + _FAM_BY_RESIDUE.index(l.fam), l.sign)


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
                entries.append(Entry(_FAM_BY_RESIDUE[r], idx, e.sign))
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
                r = _FAM_BY_RESIDUE.index(e.fam)
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
    return canonicalize(SchematicWord(tuple(out)))
