"""The archipelago quotient: finite subwords die, so only the tail classes
of the infinite streams survive.

A germ is its tail class's normal presentation (`Schema.tail_key`) plus
an orientation sign, whichever schema of the class it is built from; a
HagClass is a cancelled sequence of germs and is the normal form for
quotient equality on the fragment.  One value gives a germ's `==`,
`hash` and rendering, so `==` on classes is equality in the quotient,
and equal classes render alike.

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
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import Schema
from .words import SchematicWord, Stream, pattern_tail


@dataclass(frozen=True)
class Germ:
    schema: Schema  # given any schema of the class, keeps its tail key
    sign: int  # +1 forward, -1 backward

    def __post_init__(self):
        object.__setattr__(self, "schema", self.schema.tail_key)

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
