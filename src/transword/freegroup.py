"""Finite free-group words over the indexed alphabet {a_n, b_n, c_n}.

Letters carry a family, a natural index and a sign, and are interned:
one object per signed letter, built together with its inverse, so letter
equality, hashing and the cancellation test `cancels` are identity checks
that never call back into Python.  Words are plain letter tuples;
`reduce_free` computes the unique reduced form with a single stack pass.
The factorization and freeness helpers at the bottom back the
free-embedding machinery: `split_for_adjunction` writes a word
as w0 w1 w2 w1^-1 w3 with w0/w3 over a designated generator subset Y and
w2 cyclically reduced, and `adjunction_free_oracle` brute-forces
injectivity of the substitution t -> w, y -> y on bounded-length words.
`is_free_basis` decides exactly whether letter tuples freely generate a
free subgroup of rank their number, by Stallings folding (Stallings 1983;
Kapovich & Myasnikov 2002): the bouquet of one loop per tuple is folded
with union-find to a fixpoint, and its rank |E| - |V| + 1 is compared
with the number of tuples.  So whether a homomorphism of free groups,
given by the images of a basis, is injective is decided without walking
a word; `reduced_word_count` counts the words such a verdict covers.
Injectivity sweeps run over `enumerate_images`, which walks the reduced
words over a signed alphabet, ordered by length and then by the sorted
signed alphabet, with the reduced image of each under a letterwise
substitution: a word's image is its prefix's image joined to the image
of its last letter, with cancellation only at the junction (the
reduced-word calculus of Cannon & Conner), so no image is ever reduced
from scratch.  It yields letter tuples, not `FreeWord`s, so a sweep
that only hashes images builds no word object per word.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import FrozenInstanceError, dataclass
from functools import total_ordering
from itertools import zip_longest
from operator import attrgetter, is_not

FAMILIES = ("a", "b", "c")
_FAM_OFFSET = {"a": 0, "b": 1, "c": 2}


class _Interned:
    """Base of the hash-consed classes (`Letter` here, the set specs in
    `setspec.py` and the schema values in `schema.py`): an instance is
    shared by every caller that builds its value, so it is frozen, and
    `==` and `hash` stay object identity.  A class lists in
    `__match_args__` the slots its constructor takes, which pickling and
    `repr` read; `_build` makes each new object, which the class's
    constructor then enters into its table.  Slots past those hold values
    derived from the object alone, set once with `object.__setattr__`."""

    __slots__ = ()
    __match_args__: tuple[str, ...] = ()

    @classmethod
    def _build(cls, *values):
        """A new object whose slots hold `values` in order, the rest None."""
        self = object.__new__(cls)
        for slot, value in zip_longest(cls.__slots__, values):
            object.__setattr__(self, slot, value)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (type(self), tuple(getattr(self, f) for f in self.__match_args__))

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# every letter built so far, by (fam, index, sign); see `Letter`
_LETTERS: dict[tuple[str, int, int], Letter] = {}


@total_ordering
class Letter(_Interned):
    """A signed letter fam_index^sign, interned: `Letter(fam, index, sign)`
    returns the one object built for that triple, so equal letters are
    identical, `==` and `hash` are object identity (both run in C), and
    `inverse` is a slot.  A letter and its inverse are built together, on
    first use, and point at each other; validation runs only then, and an
    invalid triple never enters the table.  A letter keeps its text in
    `_text`, set on its first `str`.  Letters order by (fam, index,
    sign)."""

    __slots__ = ("fam", "index", "sign", "inverse", "_text")
    __match_args__ = ("fam", "index", "sign")

    def __new__(cls, fam: str, index: int, sign: int = 1):
        self = _LETTERS.get((fam, index, sign))
        if self is None:
            if fam not in FAMILIES:
                raise ValueError(f"unknown letter family {fam!r}")
            if index < 0:
                raise ValueError("letter index must be a natural number")
            if sign not in (1, -1):
                raise ValueError("letter sign must be +1 or -1")
            neg = cls._build(fam, index, -1)
            object.__setattr__(neg, "inverse", cls._build(fam, index, 1, neg))
            # the positive letter's entry decides which pair is kept, so
            # racing constructions of either sign agree on one pair
            pos = _LETTERS.setdefault((fam, index, 1), neg.inverse)
            _LETTERS.setdefault((fam, index, -1), pos.inverse)
            self = pos if sign == 1 else pos.inverse
        return self

    def __lt__(self, other):
        if not isinstance(other, Letter):
            return NotImplemented
        return (self.fam, self.index, self.sign) < (other.fam, other.index, other.sign)

    @property
    def rank(self) -> int:
        # interleaved rank: a_m -> 3m, b_m -> 3m+1, c_m -> 3m+2
        return 3 * self.index + _FAM_OFFSET[self.fam]

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = f"{self.fam}{self.index}" + ("^-1" if self.sign < 0 else "")
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"Letter({self})"


def rank_letter_set(n: int) -> frozenset[tuple[str, int]]:
    """All (family, index) pairs of rank < n."""
    if n < 0:
        raise ValueError(f"rank level must be a natural number, got {n}")
    return frozenset(
        (fam, m)
        for fam in FAMILIES
        for m in range((n - _FAM_OFFSET[fam] + 2) // 3)
        if 3 * m + _FAM_OFFSET[fam] < n
    )


@dataclass(frozen=True)
class FreeWord:
    letters: tuple[Letter, ...] = ()

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __bool__(self) -> bool:
        return bool(self.letters)

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        return FreeWord(self.letters + other.letters)

    @property
    def inverse(self) -> "FreeWord":
        return FreeWord(tuple(l.inverse for l in reversed(self.letters)))

    def __str__(self) -> str:
        return "[" + " ".join(str(l) for l in self.letters) + "]"

    def __repr__(self) -> str:
        return f"FreeWord{str(self)}"


EMPTY = FreeWord()


def word(*letters: Letter) -> FreeWord:
    return FreeWord(tuple(letters))


def cancels(x: Letter, y: Letter) -> bool:
    """Whether y is the inverse of x: one identity test, letters being
    interned."""
    return x.inverse is y


def reduce_free(w: FreeWord) -> FreeWord:
    """Unique reduced form of w, computed in one left-to-right stack pass."""
    stack: list[Letter] = []
    for l in w:
        if stack and cancels(stack[-1], l):
            stack.pop()
        else:
            stack.append(l)
    return FreeWord(tuple(stack))


def is_reduced_free(w: FreeWord) -> bool:
    """Whether no letter of w is followed by its inverse; one scan in C."""
    ls = w.letters
    return all(map(is_not, map(attrgetter("inverse"), ls), ls[1:]))


def cyclic_reduce(w: FreeWord) -> tuple[FreeWord, FreeWord]:
    """Split reduced w as conjugator * core * conjugator^-1, core cyclically reduced."""
    if not is_reduced_free(w):
        raise ValueError("cyclic_reduce expects a reduced word")
    letters = list(w)
    conj: list[Letter] = []
    while len(letters) >= 2 and cancels(letters[0], letters[-1]):
        conj.append(letters[0])
        letters = letters[1:-1]
    return FreeWord(tuple(conj)), FreeWord(tuple(letters))


@dataclass(frozen=True)
class AdjunctionSplit:
    w0: FreeWord
    w1: FreeWord
    w2: FreeWord
    w3: FreeWord

    def recompose(self) -> FreeWord:
        return FreeWord(
            self.w0.letters
            + self.w1.letters
            + self.w2.letters
            + self.w1.inverse.letters
            + self.w3.letters
        )


def _in_set(l: Letter, Y: frozenset[tuple[str, int]]) -> bool:
    return (l.fam, l.index) in Y


def split_for_adjunction(w: FreeWord, Y) -> AdjunctionSplit:
    """Factor reduced w as w0 w1 w2 w1^-1 w3 with w0/w3 the maximal Y-prefix
    and Y-suffix and w2 the cyclic reduction of the remaining middle."""
    Y = frozenset(Y)
    if not is_reduced_free(w):
        raise ValueError("split_for_adjunction expects a reduced word")
    if all(_in_set(l, Y) for l in w):
        raise ValueError("word uses only letters of Y; factorization hypothesis fails")
    letters = list(w)
    i = 0
    while _in_set(letters[i], Y):
        i += 1
    j = len(letters)
    while _in_set(letters[j - 1], Y):
        j -= 1
    w0 = FreeWord(tuple(letters[:i]))
    w3 = FreeWord(tuple(letters[j:]))
    w1, w2 = cyclic_reduce(FreeWord(tuple(letters[i:j])))
    return AdjunctionSplit(w0, w1, w2, w3)


def enumerate_images(
    alphabet: list[Letter], maxlen: int, image: Mapping[Letter, Sequence[Letter]]
):
    """(u, reduced image of u) as letter tuples, for every reduced word u
    of length <= maxlen over the alphabet and its inverses, by length and
    then lexicographically in the sorted signed alphabet, where `image`
    maps each letter of the alphabet to its reduced image (a letter tuple)
    and an inverse letter maps to the inverse image.  Each word is its
    parent prefix plus one letter, so its image is the parent's image
    joined to the letter's image, cancelling only at the junction:
    O(|piece|) steps per word, never a re-reduction of the whole image.
    Each yielded u is a new tuple object, except the empty word's `()`."""
    pieces = {l: tuple(image[l]) for l in alphabet}
    for l in alphabet:
        pieces.setdefault(l.inverse, tuple(x.inverse for x in reversed(pieces[l])))
    signed = sorted(pieces)
    # position of each letter's inverse in `signed`, to skip u x x^-1
    inverse_at = [signed.index(l.inverse) for l in signed]
    table = [(i, l, pieces[l]) for i, l in enumerate(signed)]
    yield (), ()
    frontier: list[tuple[tuple[Letter, ...], tuple[Letter, ...], int]] = [((), (), -1)]
    for _ in range(maxlen):
        new_frontier = []
        for prefix, img, last in frontier:
            skip = inverse_at[last] if prefix else -1
            n = len(img)
            for i, l, piece in table:
                if i == skip:
                    continue
                k, top = 0, min(n, len(piece))
                while k < top and img[n - 1 - k].inverse is piece[k]:
                    k += 1
                ext = prefix + (l,)
                ext_img = img[: n - k] + piece[k:] if k else img + piece
                new_frontier.append((ext, ext_img, i))
                yield ext, ext_img
        frontier = new_frontier


def reduced_word_count(n: int, maxlen: int) -> int:
    """Number of reduced words of length <= maxlen over n letters and their
    inverses: 1 of length 0 and 2n(2n-1)^(L-1) of each length L >= 1, in
    closed form 2L+1 for n = 1 and 1 + n((2n-1)^L - 1)/(n-1) otherwise."""
    if n == 1:
        return 2 * maxlen + 1
    return 1 + n * ((2 * n - 1) ** maxlen - 1) // (n - 1)


def is_free_basis(gens: Sequence[Sequence[Letter]]) -> bool:
    """Whether the reduced letter tuples `gens` freely generate a free
    subgroup of rank len(gens), by Stallings folding: the bouquet of one
    loop per generator is folded to a fixpoint (two edges with one label
    leaving, or entering, one vertex are merged) and the folded graph's
    rank |E| - |V| + 1 is compared with len(gens).  Folding keeps the
    subgroup read off the base vertex, and a folded graph's rank is that
    subgroup's rank; n elements generating a free group of rank n are a
    basis of it, free groups being Hopfian.  An empty generator gives
    False.  Time is about linear in the total generator length."""
    if not all(gens):
        return False
    # the bouquet: vertex 0 is the base, each loop adds len(g) - 1 vertices;
    # an edge is (tail, positive letter, head)
    edges: list[tuple[int, Letter, int]] = []
    size = 1
    for g in gens:
        tail = 0
        for k, l in enumerate(g):
            if k == len(g) - 1:
                head = 0
            else:
                head, size = size, size + 1
            edges.append((tail, l, head) if l.sign > 0 else (head, l.inverse, tail))
            tail = head
    parent = list(range(size))

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    # merge the ends of equally labelled edges at one vertex; an entry made
    # before a merge may name a vertex that is no longer a root, so the
    # pass reruns over the edge list until a whole pass merges nothing
    folded = False
    while not folded:
        folded = True
        out: dict[tuple[int, Letter], int] = {}
        into: dict[tuple[int, Letter], int] = {}
        for tail, l, head in edges:
            for table, here, there in ((out, tail, head), (into, head, tail)):
                here, there = find(here), find(there)
                other = find(table.setdefault((here, l), there))
                if other != there:
                    parent[other] = there
                    folded = False
    vertices = {find(v) for v in range(size)}
    arcs = {(find(tail), l, find(head)) for tail, l, head in edges}
    return len(arcs) - len(vertices) + 1 == len(gens)


def adjunction_free_oracle(w: FreeWord, Y, maxlen: int) -> bool:
    """Brute-force check that t -> w, y -> y is injective on all reduced
    words of length <= maxlen over {t} union Y."""
    Y = frozenset(Y)
    if not is_reduced_free(w) or all(_in_set(l, Y) for l in w):
        raise ValueError("oracle needs a reduced word using a letter outside Y")
    # t is a fresh symbol: pick an index beyond anything in w or Y
    top = max([l.index for l in w] + [i for _, i in Y]) + 1
    t = Letter("a", top)
    alphabet = [t] + [Letter(fam, i) for fam, i in sorted(Y)]
    image = {l: (l,) for l in alphabet}
    image[t] = w.letters
    seen: set[tuple[Letter, ...]] = set()
    for _, key in enumerate_images(alphabet, maxlen, image):
        if key in seen:
            return False
        seen.add(key)
    return True
