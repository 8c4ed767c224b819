"""Desk-scale abelian counterpart: mod-p reduction of finite-support
integer sequences and coordinate-sum functionals, whose evaluations on
basis vectors separate all 2^k subsets."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    return all(p % d for d in range(2, int(p**0.5) + 1))


@dataclass(frozen=True)
class IntSeq:
    """Finite-support map index -> integer."""

    entries: tuple[tuple[int, int], ...]

    def __init__(self, entries=()):
        if isinstance(entries, dict):
            entries = entries.items()
        cleaned = tuple(sorted((int(i), int(v)) for i, v in entries if int(v) != 0))
        if any(i < 0 for i, _ in cleaned):
            raise ValueError("indices must be naturals")
        if len({i for i, _ in cleaned}) != len(cleaned):
            raise ValueError("duplicate indices")
        object.__setattr__(self, "entries", cleaned)

    def __getitem__(self, i: int) -> int:
        return dict(self.entries).get(i, 0)

    def __add__(self, other: "IntSeq") -> "IntSeq":
        combined = dict(self.entries)
        for i, v in other.entries:
            combined[i] = combined.get(i, 0) + v
        return IntSeq(combined)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(i for i, _ in self.entries)


def basis(i: int) -> IntSeq:
    return IntSeq({i: 1})


def mod_p(v: IntSeq, p: int) -> IntSeq:
    """Entrywise reduction mod a prime p."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return IntSeq({i: val % p for i, val in v.entries})


def sum_functional(Scal, v: IntSeq, p: int) -> int:
    """Sum of the coordinates at the chosen indices, mod p."""
    Scal = set(Scal)
    return sum(val for i, val in v.entries if i in Scal) % p


def distinct_homs_demo(k: int, p: int) -> int:
    """Number of distinct evaluation vectors of the 2^k subset functionals
    on the k basis vectors; equals 2^k because the evaluations are exactly
    the characteristic vectors."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    return len(set(evaluation_matrix(k, p)))


def evaluation_matrix(k: int, p: int) -> list[tuple[int, ...]]:
    """All 2^k evaluation vectors in subset enumeration order."""
    if k < 0:
        raise ValueError(f"k must be a natural number, got {k}")
    out = []
    for r in range(k + 1):
        for subset in combinations(range(k), r):
            out.append(
                tuple(sum_functional(subset, mod_p(basis(i), p), p) for i in range(k))
            )
    return out
