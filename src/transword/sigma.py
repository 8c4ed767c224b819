"""Almost-disjoint families, the selector words built on them, the
maximal-interval decomposition of a reduced word, and the homomorphisms
obtained by rewriting one selector word into another.

`make_family(k)` codes k eventually periodic branches of the binary tree
into k pairwise almost disjoint infinite prefix-code sets S1..Sk (plus
the distinguished symbol T outside the family; its word streams over the
a-letters).  `decompose` and `apply_Ff` share one walk over a reduced
word.  It finds every stream whose tail renders a member word or its
inverse, cuts the stream's head off as letters, and then widens each such
interval: a forward interval takes the letters before it, and a backward
interval the letters after it, as long as they continue the member word
one position earlier.  What is left forms the maximal plain intervals.
`decompose` returns all the intervals as pieces; `apply_Ff` replaces each
member interval according to a table f and keeps the plain ones verbatim.
`psi_f` pushes the result into the archipelago quotient, where it is a
homomorphism; permutations of the family act by automorphisms, and
`separation_pattern` exhibits one distinguishable kernel pattern per
subset of the family.

A family keeps what no map changes, each built once on first use: the
member schemas, the index from tail key to member, and the decomposition
of each member word.  The separation sweep rewrites the member words
under 2^k maps from these decompositions, without decomposing again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import groupby

from .freegroup import FreeWord, Letter
from .hag import Germ, HagClass, _cancelled, hag_normal
from .schema import Entry, K, Schema, tail_alignment
from .setspec import PrefixCode, SetSpec, intersection_bound
from .words import (
    EMPTY_WORD,
    FiniteBlock,
    SchematicWord,
    Stream,
    _settled_word,
    _split_head,
    canonicalize,
    concat,
    invert,
    ra_retract,
    reduce,
)

T = "T"  # the distinguished non-member symbol


@dataclass(frozen=True)
class SigmaFamily:
    """Named pairwise almost disjoint infinite sets, with their pairwise
    intersection bounds.  Per-family data, filled on first use: the member
    schemas (`schema`), the tail-key index (`tail_member`) and the member
    decompositions (`_member_parts`)."""

    names: tuple[str, ...]
    members: tuple[SetSpec, ...]
    bounds: tuple[tuple[str, str, int], ...]  # pairwise intersection bounds

    def __init__(self, names, members):
        names = tuple(names)
        members = tuple(members)
        if len(names) != len(members) or len(set(names)) != len(names):
            raise ValueError("names and members must pair up uniquely")
        if T in names:
            raise ValueError(f"{T!r} is reserved for the non-member symbol")
        for name, s in zip(names, members):
            if not s.is_infinite():
                raise ValueError(f"member {name} is not infinite")
        bounds = []
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                b = intersection_bound(members[i], members[j])
                if b is None:
                    raise ValueError(
                        f"members {names[i]} and {names[j]} are not almost disjoint"
                    )
                bounds.append((names[i], names[j], b))
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "members", members)
        object.__setattr__(self, "bounds", tuple(bounds))

    def __len__(self) -> int:
        return len(self.members)

    def spec(self, name: str) -> SetSpec:
        try:
            return self.members[self.names.index(name)]
        except ValueError:
            raise KeyError(f"no family member named {name}") from None

    def items(self):
        return zip(self.names, self.members)

    def render_names(self) -> dict[SetSpec, str]:
        return dict(zip(self.members, self.names))

    @cached_property
    def _schemas(self) -> dict[str, Schema]:
        schemas = {name: member_schema(spec) for name, spec in self.items()}
        schemas[T] = _T_SCHEMA
        return schemas

    def schema(self, name: str) -> Schema:
        """The schema of the member's word, built once per family (the
        a-letter schema for T)."""
        try:
            return self._schemas[name]
        except KeyError:
            raise KeyError(f"no family member named {name}") from None

    @cached_property
    def _by_key(self) -> dict[tuple, str]:
        # almost disjoint infinite members never share a tail: one per key
        return {self._schemas[name].tail_key: name for name in self.names}

    def tail_member(self, schema: Schema) -> str | None:
        """The member whose word shares a tail with the schema, or None."""
        return self._by_key.get(schema.tail_key)

    @cached_property
    def _member_parts(self) -> dict[str, tuple]:
        # no map changes a member word or its intervals
        return {
            name: tuple(_intervals(u_word(name, 0, self), self)) for name in self.names
        }


def make_family(k: int) -> SigmaFamily:
    """k pairwise almost disjoint infinite prefix-code sets from k distinct
    eventually periodic branches; deterministic in k."""
    if k < 1:
        raise ValueError("family size must be at least 1")
    depth = max(1, (k - 1).bit_length())
    members = []
    for i in range(k):
        bits = tuple((i >> (depth - 1 - j)) & 1 for j in range(depth))
        members.append(PrefixCode(bits, (bits[-1],)))
    return SigmaFamily(tuple(f"S{i + 1}" for i in range(k)), tuple(members))


def member_schema(spec: SetSpec) -> Schema:
    return Schema((Entry(spec, K, 1),))


_T_SCHEMA = Schema((Entry("a", K, 1),))


def u_word(target, n: int = 0, fam: SigmaFamily | None = None) -> SchematicWord:
    """The selector word from position n on: the word whose letter at each
    step m >= n is b_m or c_m by membership (or a_m for the symbol T)."""
    if target == T:
        sch = _T_SCHEMA
    elif isinstance(target, str):
        if fam is None:
            raise ValueError("a member name needs a family context")
        sch = fam.schema(target)
    else:
        sch = member_schema(target)
    return _settled_word(Stream(True, n, sch))


# ---------------------------------------------------------------------------
# decomposition

@dataclass(frozen=True)
class Maximal:
    name: str
    n: int
    sign: int


@dataclass(frozen=True)
class Piece:
    word: SchematicWord
    tag: Maximal | None  # None marks a plain piece


@dataclass(frozen=True)
class Decomposition:
    pieces: tuple[Piece, ...]

    def recompose(self) -> SchematicWord:
        return concat(*(p.word for p in self.pieces)) if self.pieces else EMPTY_WORD

    def tags(self):
        return tuple(p.tag for p in self.pieces)


def _match_member(seg: Stream, fam: SigmaFamily):
    """(name, start, delta) for the member whose word the stream tail
    renders: positions p >= start carry the member letter at p+delta."""
    name = fam.tail_member(seg.schema)
    if name is None:
        return None
    delta, Kpos = tail_alignment(seg.schema, fam.schema(name))
    return (name, max(seg.pos, Kpos, -delta), delta)


def _atoms(w: SchematicWord, fam: SigmaFamily):
    """The word's letters, plain streams and matched stream tails, in
    display order; the head of a matched stream is cut off as letters."""
    for seg in w.segments:
        match = None if isinstance(seg, FiniteBlock) else _match_member(seg, fam)
        if match is None:
            yield from seg.word if isinstance(seg, FiniteBlock) else (seg,)
            continue
        name, start, delta = match
        for piece in _split_head(seg, start):
            if isinstance(piece, FiniteBlock):
                yield from piece.word
            else:
                yield Maximal(name, start + delta, 1 if piece.forward else -1)


def _plain_word(atoms) -> SchematicWord:
    segs: list = []
    for is_letter, run in groupby(atoms, key=lambda a: isinstance(a, Letter)):
        if is_letter:
            segs.append(FiniteBlock(FreeWord(tuple(run))))
        else:
            segs.extend(run)
    return canonicalize(SchematicWord(tuple(segs)))


def _intervals(w: SchematicWord, fam: SigmaFamily):
    """The reduced word's maximal plain intervals, as canonical words, and
    its maximal member intervals, as tags, in order (module docstring)."""
    c = canonicalize(w)
    if reduce(c) != c:
        raise ValueError("decompose expects a reduced word")
    out: list = []  # Letter | Stream | Maximal
    for atom in _atoms(c, fam):
        if isinstance(atom, Maximal) and atom.sign > 0:
            member, n = fam.schema(atom.name), atom.n
            while n > 0 and out and out[-1] == member.letter_at(n - 1):
                out.pop()
                n -= 1
            atom = Maximal(atom.name, n, 1)
        elif out and isinstance(top := out[-1], Maximal) and top.sign < 0 < top.n:
            if atom == fam.schema(top.name).letter_at(top.n - 1).inverse:
                out[-1] = Maximal(top.name, top.n - 1, -1)
                continue
        out.append(atom)
    for tagged, run in groupby(out, key=lambda a: isinstance(a, Maximal)):
        yield from run if tagged else (_plain_word(run),)


def _tag_word(tag: Maximal, name: str, fam: SigmaFamily) -> SchematicWord:
    """The word for `name` from the tag's position on, in its orientation."""
    word = u_word(name, tag.n, fam)
    return word if tag.sign > 0 else invert(word)


def decompose(w: SchematicWord, fam: SigmaFamily) -> Decomposition:
    """Unique decomposition into maximal member-word intervals and maximal
    plain intervals."""
    pieces = [
        Piece(_tag_word(part, part.name, fam), part)
        if isinstance(part, Maximal)
        else Piece(part, None)
        for part in _intervals(w, fam)
    ]
    return Decomposition(tuple(pieces))


# ---------------------------------------------------------------------------
# the rewriting homomorphisms

def _validate_map(fam: SigmaFamily, f: dict[str, str]):
    for name in fam.names:
        if name not in f:
            raise ValueError(f"map not total: missing {name}")
        if f[name] != T and f[name] not in fam.names:
            raise ValueError(f"map sends {name} outside the family: {f[name]}")


def _image(parts, fam: SigmaFamily, f: dict[str, str]) -> SchematicWord:
    """The word of the intervals `parts` once each member interval for S is
    replaced by the same-position word for f(S), which must be defined;
    plain intervals pass through verbatim.  Builds only the images, not the
    words of the member intervals they replace."""
    images = [
        _tag_word(part, f[part.name], fam) if isinstance(part, Maximal) else part
        for part in parts
    ]
    return concat(*images) if images else EMPTY_WORD


def apply_Ff(w: SchematicWord, fam: SigmaFamily, f: dict[str, str]) -> SchematicWord:
    """Replace every maximal member interval for S by the same-position
    word for f(S); plain intervals pass through verbatim.  Validates f,
    then builds the image of the word's intervals with `_image`."""
    _validate_map(fam, f)
    return _image(_intervals(w, fam), fam, f)


def psi_f(w: SchematicWord, fam: SigmaFamily, f: dict[str, str]) -> HagClass:
    return hag_normal(apply_Ff(reduce(w), fam, f))


def _map_germ(g: Germ, fam: SigmaFamily, f: dict[str, str]) -> Germ:
    name = fam.tail_member(g.schema)
    return g if name is None else Germ(fam.schema(f[name]), g.sign)


def phi_sigma(h: HagClass, fam: SigmaFamily, perm: dict[str, str]) -> HagClass:
    """The automorphism of the quotient induced by a permutation of the
    family."""
    _validate_map(fam, perm)
    if sorted(perm.values()) != sorted(fam.names):
        raise ValueError("phi_sigma needs a permutation of the family")
    return _cancelled(_map_germ(g, fam, perm) for g in h.germs)


def separation_pattern(fam: SigmaFamily, Scal) -> tuple[int, ...]:
    """One bit per member: whether the member's word survives the
    composite that rewrites chosen members onto the a-letters and then
    retracts away everything else.  Equals the characteristic vector of
    Scal, so distinct subsets give distinct homomorphisms.

    For each subset it builds the map f (S to T for S in Scal, else S to
    itself) and, for each member, the image of the family's stored member
    decomposition under f, then `ra_retract` and `hag_normal` of it; f is
    total by construction, so it is not validated again."""
    Scal = set(Scal)
    unknown = Scal - set(fam.names)
    if unknown:
        raise ValueError(f"not family members: {sorted(unknown)}")
    f = {name: (T if name in Scal else name) for name in fam.names}
    return tuple(
        1 if hag_normal(ra_retract(_image(fam._member_parts[name], fam, f))) else 0
        for name in fam.names
    )
