"""Almost-disjoint families, the selector words built on them, the
maximal-interval decomposition of a reduced word, and the homomorphisms
obtained by rewriting one selector word into another.

`make_family(k)` codes k eventually periodic branches of the binary tree
into k pairwise almost disjoint infinite prefix-code sets S1..Sk (plus
the distinguished symbol T outside the family; its word streams over the
a-letters).  `decompose` finds, in a reduced word, every maximal interval
rendering some member word or its inverse; `apply_Ff` replaces those
intervals according to a table f and keeps everything else verbatim.
`psi_f` pushes the result into the archipelago quotient, where it is a
homomorphism; permutations of the family act by automorphisms, and
`separation_pattern` exhibits one distinguishable kernel pattern per
subset of the family.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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


def _member_letter(spec: SetSpec, q: int) -> Letter:
    return Letter("b" if spec.contains(q) else "c", q, 1)


def _match_member(seg: Stream, fam: SigmaFamily):
    """(name, start, delta) for the member whose word the stream tail
    renders: positions p >= start carry the member letter at p+delta."""
    name = fam.tail_member(seg.schema)
    if name is None:
        return None
    delta, Kpos = tail_alignment(seg.schema, fam.schema(name))
    return (name, max(seg.pos, Kpos, -delta), delta)


def decompose(w: SchematicWord, fam: SigmaFamily) -> Decomposition:
    """Unique decomposition into maximal member-word intervals and maximal
    plain intervals."""
    c = canonicalize(w)
    w = reduce(c)
    if w != c:
        raise ValueError("decompose expects a reduced word")
    # linearize into atoms: letters, plain streams, and matched streams,
    # whose heads before the match are cut off as letters
    atoms: list[tuple] = []
    for seg in w.segments:
        match = None if isinstance(seg, FiniteBlock) else _match_member(seg, fam)
        for piece in [seg] if match is None else _split_head(seg, match[1]):
            if isinstance(piece, FiniteBlock):
                atoms.extend(("L", l) for l in piece.word)
            elif match is None:
                atoms.append(("S", piece))
            else:
                name, start, delta = match
                sign = 1 if piece.forward else -1
                atoms.append(("M", name, start + delta, sign, fam.spec(name)))
    # predecessor extension, one pass: a forward interval pops the letters
    # before it, a backward one on top absorbs those after it, while they
    # continue the member word one position earlier
    out: list[tuple] = []
    for atom in atoms:
        if atom[0] == "M" and atom[3] > 0:
            _, name, n, sign, spec = atom
            while n > 0 and out and out[-1] == ("L", _member_letter(spec, n - 1)):
                out.pop()
                n -= 1
            atom = ("M", name, n, sign, spec)
        elif atom[0] == "L" and out and out[-1][0] == "M" and out[-1][3] < 0:
            _, name, n, sign, spec = out[-1]
            if n > 0 and atom[1] == _member_letter(spec, n - 1).inverse:
                out[-1] = ("M", name, n - 1, sign, spec)
                continue
        out.append(atom)
    # group runs of plain atoms into maximal plain pieces
    pieces: list[Piece] = []
    run: list = []

    def flush():
        if not run:
            return
        segs: list = []
        letters: list[Letter] = []
        for a in run:
            if a[0] == "L":
                letters.append(a[1])
            else:
                if letters:
                    segs.append(FiniteBlock(FreeWord(tuple(letters))))
                    letters = []
                segs.append(a[1])
        if letters:
            segs.append(FiniteBlock(FreeWord(tuple(letters))))
        pieces.append(Piece(canonicalize(SchematicWord(tuple(segs))), None))
        run.clear()

    for a in out:
        if a[0] == "M":
            flush()
            _, name, n, sign, _ = a
            word = u_word(name, n, fam)
            pieces.append(
                Piece(word if sign > 0 else invert(word), Maximal(name, n, sign))
            )
        else:
            run.append(a)
    flush()
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
    word for f(S); plain pieces pass through verbatim."""
    _validate_map(fam, f)
    parts = []
    for piece in decompose(w, fam).pieces:
        if piece.tag is None:
            parts.append(piece.word)
        else:
            img = u_word(f[piece.tag.name], piece.tag.n, fam)
            parts.append(img if piece.tag.sign > 0 else invert(img))
    return concat(*parts) if parts else EMPTY_WORD


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
    Scal, so distinct subsets give distinct homomorphisms."""
    Scal = set(Scal)
    unknown = Scal - set(fam.names)
    if unknown:
        raise ValueError(f"not family members: {sorted(unknown)}")
    f = {name: (T if name in Scal else name) for name in fam.names}
    bits = []
    for name in fam.names:
        image = apply_Ff(u_word(name, 0, fam), fam, f)
        bits.append(1 if hag_normal(ra_retract(image)) else 0)
    return tuple(bits)
