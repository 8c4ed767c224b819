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

A member word u_S is one maximal interval, from position 0 forward, so
apply_Ff(u_S) = u_{f(S)}, the word `separation_pattern` builds.  In the
archipelago quotient apply_Ff needs no walk either: it replaces only
streams whose tail is a member's, blocks die there, and free
cancellation of germs commutes with a germwise map.  So `psi_f` maps
each germ of hag_normal(w) of a member S to the germ of f(S), keeps the
others and cancels: a homomorphism that factors through the quotient
map.  `phi_sigma` is that germ map for a permutation of the family, an
automorphism, and `separation_pattern` exhibits one distinguishable
kernel pattern per subset of the family.

For a subset, `separation_pattern` asks whether each member word survives
h_f = π∘r_a∘F_f.  As F_f(u_X) = u_{f(X)}, h_f(u_X) = (π∘r_a)(u_{f(X)})
depends on f(X) alone, a member or T: each pattern evaluates π∘r_a once
per distinct image word of its f, so the chosen members share the one
evaluation of u_T.
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
    schemas (`schema`) and the tail-key index (`tail_member`).  Member
    words need no more: apply_Ff(u_S) = u_{f(S)} (module docstring)."""

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
    def _by_key(self) -> dict[Schema, str]:
        # almost disjoint infinite members never share a tail: one per key
        return {self._schemas[name].tail_key: name for name in self.names}

    def tail_member(self, schema: Schema) -> str | None:
        """The member whose word shares a tail with the schema, or None."""
        return self._by_key.get(schema.tail_key)


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
    step m >= n is b_m or c_m by membership (or a_m for the symbol T).
    The word is reduced and marked: a member of a family is a prefix
    code, whose stream keeps cursor n; the word of T settles to
    st(+,0,{a(k+n)})."""
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


def apply_Ff(w: SchematicWord, fam: SigmaFamily, f: dict[str, str]) -> SchematicWord:
    """Replace every maximal member interval for S by the same-position
    word for f(S); plain intervals pass through verbatim.  Validates f,
    and builds only the images, not the words of the member intervals
    they replace."""
    _validate_map(fam, f)
    images = [
        _tag_word(part, f[part.name], fam) if isinstance(part, Maximal) else part
        for part in _intervals(w, fam)
    ]
    return concat(*images) if images else EMPTY_WORD


def _map_germs(h: HagClass, fam: SigmaFamily, f: dict[str, str]) -> HagClass:
    """Each germ of a member S replaced by the germ of f(S), every other
    germ kept, then cancelled."""
    germs = []
    for g in h.germs:
        name = fam.tail_member(g.schema)
        germs.append(g if name is None else Germ(fam.schema(f[name]), g.sign))
    return _cancelled(germs)


def psi_f(w: SchematicWord, fam: SigmaFamily, f: dict[str, str]) -> HagClass:
    """The class of apply_Ff(reduce(w)) in the quotient, read off the germs
    of w (module docstring), so psi_f factors through the quotient map; it
    runs no pass over w and decomposes nothing."""
    _validate_map(fam, f)
    return _map_germs(hag_normal(w), fam, f)


def phi_sigma(h: HagClass, fam: SigmaFamily, perm: dict[str, str]) -> HagClass:
    """The automorphism of the quotient induced by a permutation of the
    family: the germ map of `psi_f`, applied to a class."""
    _validate_map(fam, perm)
    if sorted(perm.values()) != sorted(fam.names):
        raise ValueError("phi_sigma needs a permutation of the family")
    return _map_germs(h, fam, perm)


def separation_pattern(fam: SigmaFamily, Scal) -> tuple[int, ...]:
    """One bit per member: whether the member's word survives the
    composite h_f = π∘r_a∘F_f that rewrites chosen members onto the
    a-letters and then retracts away everything else.  Equals the
    characteristic vector of Scal, so distinct subsets give distinct
    homomorphisms.

    For each subset the map f sends S to T for S in Scal, else S to
    itself, and h_f(u_S) = (π∘r_a)(u_{f(S)}) (module docstring).  So
    π∘r_a is evaluated once per distinct image word of f: once on u_T
    for all chosen members, and once on u_S for each other member S.  f
    is total by construction, so it is not validated."""
    Scal = set(Scal)
    unknown = Scal - set(fam.names)
    if unknown:
        raise ValueError(f"not family members: {sorted(unknown)}")
    f = {name: (T if name in Scal else name) for name in fam.names}
    bits = {
        target: 1 if hag_normal(ra_retract(u_word(target, 0, fam))) else 0
        for target in dict.fromkeys(f.values())
    }
    return tuple(bits[f[name]] for name in fam.names)
