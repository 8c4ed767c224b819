"""The archipelago quotient: finite subwords die, so only the tail classes
of the infinite streams survive.

A germ is a stream schema with its cursor erased (tail class) plus an
orientation sign; a HagClass is a cancelled sequence of germs and is the
normal form for quotient equality on the fragment.  Germs compare and hash
by the schema's exact tail key (`Schema.tail_key`) and the sign, so `==`
on germs is tail-class equality and `==` on classes is equality in the
quotient; the schema a germ keeps is only for rendering.  Every rewrite
used by `hag_normal` either deletes a finite subword or cancels a word
against its inverse, so equal verdicts are sound; distinct normal forms
are a fragment-level verdict.
"""

from __future__ import annotations

from dataclasses import dataclass

from .schema import Schema
from .words import FiniteBlock, SchematicWord, Stream, reduce


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
    """Reduce, delete finite blocks, erase stream cursors, cancel adjacent
    inverse germ pairs."""
    germs = [
        Germ(seg.schema, 1 if seg.forward else -1)
        for seg in reduce(w).segments
        if isinstance(seg, Stream)
    ]
    return _cancelled(germs)


def pi(w: SchematicWord) -> HagClass:
    """The quotient map."""
    return hag_normal(w)


def hag_equal(w1: SchematicWord, w2: SchematicWord) -> bool:
    """Quotient equality on the fragment: germwise-equal normal forms."""
    return hag_normal(w1) == hag_normal(w2)


def hag_product(h1: HagClass, h2: HagClass) -> HagClass:
    return _cancelled(h1.germs + h2.germs)


def min_rank_of(w: SchematicWord) -> int | None:
    """Smallest letter rank occurring in w, None for the empty word."""
    ranks = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            ranks.extend(l.rank for l in seg.word)
        else:
            period = seg.schema.letters(seg.pos, seg.pos + seg.schema.width)
            ranks.extend(l.rank for l in period)
    return min(ranks) if ranks else None
