"""The archipelago quotient: finite subwords die, so only the tail classes
of the infinite streams survive.

A germ is a stream schema with its cursor erased (tail class) plus an
orientation sign; a HagClass is a cancelled sequence of germs and is the
normal form for quotient equality on the fragment.  Germs compare and hash
by the schema's exact tail key (`Schema.tail_key`) and the sign, so `==`
on germs is tail-class equality and `==` on classes is equality in the
quotient; the schema a germ keeps is only for rendering.

`hag_normal` reads each stream's germ off its schema alone: the pattern
tail (`words.pattern_tail`), which the pass leaves of a stream over the
schema, is computed once per distinct schema and kept in a slot.  The
blocks drop, and adjacent inverse germs cancel (`_cancelled`).  This is
the class that reducing the whole word and reading its streams gives,
because every move of the rewrite pass does one of three things to the
germ sequence:
- it keeps each stream's tail class: settle, absorb, eat, cross move,
  junction run and head cut move letters between a stream's head and
  its neighbours, or re-present the stream, and never change which
  letters it carries from some position on;
- it pattern-reduces one stream, which the slot does for each stream;
- it deletes two adjacent streams whose tails are inverse
  (pair-junction, pair-tail), a free cancellation that `_cancelled` also
  makes, and free cancellation in the free group on germs ends in one
  reduced sequence whatever the order.
The slot ignores the cursor and orientation.  A pair that cancels
cofinitely is dropped from every step on, whatever the cursor; a pair
that cancels at finitely many steps only cuts a head; and a shift of the
cursor into the schema keeps the pair classes.  An orientation only
reverses the display order of what the pass cuts off.  The pass keeps
every projection and the quotient deletes only finite subwords, so equal
verdicts are sound; distinct normal forms are a fragment-level verdict.

A germ renders the stream's own schema, pattern-reduced, with its cursor
erased, so two presentations of one class can still render differently
(`[a0] st(+,0,{a(k+1)})` and `st(+,0,{a(k)})`).  Rendering each class
from its `tail_key` is the open half of ROADMAP item 14.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import Schema
from .words import SchematicWord, Stream, pattern_tail


@dataclass(frozen=True, eq=False)
class Germ:
    schema: Schema
    sign: int  # +1 forward, -1 backward

    def __eq__(self, other) -> bool:
        if not isinstance(other, Germ):
            return NotImplemented
        return self.sign == other.sign and self.schema.tail_key == other.schema.tail_key

    def __hash__(self) -> int:
        return hash((self.schema.tail_key, self.sign))

    def __str__(self) -> str:
        return self.render()

    def render(self, names=None) -> str:
        from .dsl import render_entry

        body = " ".join(render_entry(e, names) for e in self.schema.entries)
        return f"{{{body}}}{'+' if self.sign > 0 else '-'}"


@dataclass(frozen=True)
class HagClass:
    germs: tuple[Germ, ...] = ()

    def __bool__(self) -> bool:
        return bool(self.germs)

    def __str__(self) -> str:
        return render_class(self)


def render_class(h: HagClass, names=None) -> str:
    return "germ-seq: [" + ", ".join(g.render(names) for g in h.germs) + "]"


EMPTY_CLASS = HagClass(())


def _cancelled(germs) -> HagClass:
    stack: list[Germ] = []
    for g in germs:
        if stack and stack[-1] == Germ(g.schema, -g.sign):
            stack.pop()
        else:
            stack.append(g)
    return HagClass(tuple(stack))


def hag_normal(w: SchematicWord) -> HagClass:
    """The quotient class of w, without a pass over w: each stream's
    pattern tail (`words.pattern_tail`) as a germ, signed by the
    stream's orientation, the blocks and vanished streams dropped, and
    adjacent inverse germs cancelled (module docstring)."""
    germs = []
    for seg in w.segments:
        if isinstance(seg, Stream):
            tail = pattern_tail(seg.schema)
            if tail is not None:
                germs.append(Germ(tail, 1 if seg.forward else -1))
    return _cancelled(germs)


def pi(w: SchematicWord) -> HagClass:
    """The quotient map."""
    return hag_normal(w)


def hag_equal(w1: SchematicWord, w2: SchematicWord) -> bool:
    """Quotient equality on the fragment: germwise-equal normal forms."""
    return hag_normal(w1) == hag_normal(w2)


def hag_product(h1: HagClass, h2: HagClass) -> HagClass:
    return _cancelled(h1.germs + h2.germs)
