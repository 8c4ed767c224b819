"""Finite free-group words over the indexed alphabet {a_n, b_n, c_n}.

Letters carry a family, a natural index and a sign.  Words are plain
letter tuples; `reduce_free` computes the unique reduced form with a
single stack pass.  The factorization and freeness helpers at the bottom
back the free-embedding machinery: `split_for_adjunction` writes a word
as w0 w1 w2 w1^-1 w3 with w0/w3 over a designated generator subset Y and
w2 cyclically reduced, and `adjunction_free_oracle` brute-forces
injectivity of the substitution t -> w, y -> y on bounded-length words.
Injectivity sweeps run over `enumerate_images`, which walks the reduced
words over a signed alphabet, ordered by length and then by the sorted
signed alphabet, with the reduced image of each under a letterwise
substitution: a word's image is its prefix's image joined to the image
of its last letter, with cancellation only at the junction (the
reduced-word calculus of Cannon & Conner), so no image is ever reduced
from scratch.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

FAMILIES = ("a", "b", "c")
_FAM_OFFSET = {"a": 0, "b": 1, "c": 2}


@dataclass(frozen=True, order=True)
class Letter:
    fam: str
    index: int
    sign: int = 1

    def __post_init__(self):
        if self.fam not in FAMILIES:
            raise ValueError(f"unknown letter family {self.fam!r}")
        if self.index < 0:
            raise ValueError("letter index must be a natural number")
        if self.sign not in (1, -1):
            raise ValueError("letter sign must be +1 or -1")

    @property
    def inverse(self) -> "Letter":
        return Letter(self.fam, self.index, -self.sign)

    @property
    def rank(self) -> int:
        # interleaved rank: a_m -> 3m, b_m -> 3m+1, c_m -> 3m+2
        return 3 * self.index + _FAM_OFFSET[self.fam]

    def __str__(self) -> str:
        return f"{self.fam}{self.index}" + ("^-1" if self.sign < 0 else "")

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


def a_letter_set(n: int) -> frozenset[tuple[str, int]]:
    """The classic projection alphabet {a_0 .. a_{n-1}}."""
    return frozenset(("a", m) for m in range(n))


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
    """Whether y is the inverse of x, compared field by field so that no
    inverse letter is built."""
    return x.index == y.index and x.sign == -y.sign and x.fam == y.fam


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
    return not any(cancels(w[i], w[i + 1]) for i in range(len(w) - 1))


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
    """(u, reduced image of u) for every reduced word u of length <= maxlen
    over the alphabet and its inverses, by length and then
    lexicographically in the sorted signed alphabet, where `image` maps
    each letter of the alphabet to its reduced image (a letter tuple) and
    an inverse letter maps to the inverse image.  Each word is its parent
    prefix plus one letter, so its image is the parent's image joined to
    the letter's image, cancelling only at the junction: O(|piece|) steps
    per word, never a re-reduction of the whole image."""
    pieces = {l: tuple(image[l]) for l in alphabet}
    for l in alphabet:
        pieces.setdefault(l.inverse, tuple(x.inverse for x in reversed(pieces[l])))
    signed = sorted(pieces)
    # position of each letter's inverse in `signed`, to skip u x x^-1
    inverse_at = [signed.index(l.inverse) for l in signed]
    table = [(i, l, pieces[l]) for i, l in enumerate(signed)]
    yield EMPTY, ()
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
                while k < top and cancels(img[n - 1 - k], piece[k]):
                    k += 1
                ext = prefix + (l,)
                ext_img = img[: n - k] + piece[k:] if k else img + piece
                new_frontier.append((ext, ext_img, i))
                yield FreeWord(ext), ext_img
        frontier = new_frontier


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
