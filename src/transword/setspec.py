"""Decidable subsets of the naturals: finite sets, eventually periodic
sets, and prefix-code sets (the code images of an infinite binary branch).

code(s) = int("1"+s, 2) - 1 is a bijection from finite bit strings to the
naturals; a PrefixCode spec denotes {code(branch restricted to k) : k >= 0}
for an eventually periodic branch.  Distinct branches give almost disjoint
infinite sets, which is what the separation machinery runs on.

Set specs are hash-consed like `Letter` and the schema values: each of
the three constructors returns the one object built for its set, so
equal sets are one object and `==` and `hash` are identity.  One set has
one spec: `EvPeriodic` refuses an all-zero period, the finite set
`Finite` spells.

Every other family choice (a finite set, an eventually periodic set, or
a schema entry's literal b, in at every step, or c, at none) is read
through one bit view, `_evp_bits`: membership as the bit sequence
prefix + period + period + ...  Sets are built back from checked bit
tuples by `_from_bits`, which demotes an all-zero period to Finite;
`make_evp` does the same for outside input.  Re-indexing a schema's
families at another width or start (`schema._progression`, behind fold,
unroll and the cursor shift), tail keys, agreement and intersection all
read this view.

The classification helpers at the bottom decide, for any two specs and an
integer shift, whether the agreement set {k : (k in S1) == (k+d in S2)} is
finite, cofinite, or neither ("mixed").  Stream cancellation, germ
equality and pattern validity all reduce to this.
"""

from __future__ import annotations

from math import lcm

from .freegroup import _Interned

Bits = tuple[int, ...]


_BIT_OF = {"0": 0, "1": 1}


def _parse_bits(s) -> Bits:
    if isinstance(s, str):
        if s.strip("01"):
            raise ValueError(f"bit string expected, got {s!r}")
        return tuple(map(_BIT_OF.__getitem__, s))
    bits = tuple(int(b) for b in s)
    if any(b not in (0, 1) for b in bits):
        raise ValueError(f"bit string expected, got {s!r}")
    return bits


def _canonical_evp(prefix: Bits, period: Bits) -> tuple[Bits, Bits]:
    """Minimal period, then minimal prefix, for an eventually periodic
    bit sequence.  Unique per sequence."""
    if not period:
        raise ValueError("period must be nonempty")
    # primitive period
    n = len(period)
    for d in range(1, n + 1):
        if n % d == 0 and period == period[:d] * (n // d):
            period = period[:d]
            break
    # pull trailing prefix bits into the period when they match its tail
    prefix = tuple(prefix)
    while prefix and prefix[-1] == period[-1]:
        prefix = prefix[:-1]
        period = (period[-1],) + period[:-1]
    return prefix, period


def _bit(prefix: Bits, period: Bits, n: int) -> int:
    """Bit n >= 0 of the sequence prefix + period + period + ..."""
    if n < len(prefix):
        return prefix[n]
    return period[(n - len(prefix)) % len(period)]


def code(bits) -> int:
    """Bijection from finite bit strings to naturals: int('1'+s, 2) - 1."""
    bits = _parse_bits(bits)
    v = 1
    for b in bits:
        v = 2 * v + b
    return v - 1


def decode(n: int) -> Bits:
    """Inverse of `code`."""
    if n < 0:
        raise ValueError("decode expects a natural number")
    s = bin(n + 1)[3:]  # strip '0b1'
    return tuple(int(ch) for ch in s)


# every set spec built so far, by class and arguments, both as given and
# canonical, and every `make_evp` result by its arguments; see `SetSpec`
_SETSPECS: dict[tuple, SetSpec] = {}


def _given(arg):
    """A constructor argument as a table key: a string or tuple as it is,
    any other iterable as a tuple."""
    return arg if isinstance(arg, (str, tuple)) else tuple(arg)


class SetSpec(_Interned):
    """Base of the three set variants, which are interned: `Finite(elems)`,
    `EvPeriodic(prefix, period)` and `PrefixCode(branch_prefix,
    branch_period)` return the one object built for their set, so
    `Finite([6, 3]) is Finite((3, 6))`, and `==` and `hash` are object
    identity.  The table holds each spec under its arguments as given and
    in canonical form, so a repeated spec costs one lookup; validation
    and canonicalisation run only for arguments not seen before, and an
    invalid spec never enters the table, so it raises on every call.

    A set has one spec: `EvPeriodic` refuses an all-zero period, whose
    set is finite, and `make_evp` and `_from_bits` demote such a period
    to the Finite variant."""

    __slots__ = ()

    @classmethod
    def _enter(cls, key: tuple, *canonical) -> SetSpec:
        """The spec with canonical arguments `canonical`, built unless the
        table holds it, and entered under `key` too."""
        spec = _SETSPECS.setdefault((cls, *canonical), cls._build(*canonical))
        return _SETSPECS.setdefault(key, spec)

    def contains(self, n: int) -> bool:
        raise NotImplementedError

    def is_infinite(self) -> bool:
        raise NotImplementedError


class Finite(SetSpec):
    __slots__ = __match_args__ = ("elems",)

    def __new__(cls, elems):
        key = (cls, _given(elems))
        self = _SETSPECS.get(key)
        if self is None:
            elems = tuple(sorted(set(map(int, key[1]))))
            if elems and elems[0] < 0:
                raise ValueError("finite set must consist of naturals")
            self = cls._enter(key, elems)
        return self

    def contains(self, n: int) -> bool:
        return n in self.elems

    def is_infinite(self) -> bool:
        return False

    def __str__(self) -> str:
        return "fin{" + ",".join(str(e) for e in self.elems) + "}"


class EvPeriodic(SetSpec):
    __slots__ = __match_args__ = ("prefix", "period")

    def __new__(cls, prefix, period):
        key = (cls, _given(prefix), _given(period))
        self = _SETSPECS.get(key)
        if self is None:
            prefix, period = _canonical_evp(_parse_bits(key[1]), _parse_bits(key[2]))
            if 1 not in period:
                raise ValueError(
                    "an all-zero period makes a finite set: use Finite, or make_evp"
                )
            self = cls._enter(key, prefix, period)
        return self

    def contains(self, n: int) -> bool:
        return n >= 0 and _bit(self.prefix, self.period, n) == 1

    def is_infinite(self) -> bool:
        return True

    def __str__(self) -> str:
        pre = "".join(map(str, self.prefix))
        per = "".join(map(str, self.period))
        return f'eper("{pre}","{per}")'


class PrefixCode(SetSpec):
    __slots__ = __match_args__ = ("branch_prefix", "branch_period")

    def __new__(cls, branch_prefix, branch_period):
        key = (cls, _given(branch_prefix), _given(branch_period))
        self = _SETSPECS.get(key)
        if self is None:
            prefix, period = _canonical_evp(_parse_bits(key[1]), _parse_bits(key[2]))
            self = cls._enter(key, prefix, period)
        return self

    def branch_bit(self, i: int) -> int:
        return _bit(self.branch_prefix, self.branch_period, i)

    def contains(self, n: int) -> bool:
        if n < 0:
            return False
        bits = decode(n)
        return all(b == self.branch_bit(i) for i, b in enumerate(bits))

    def is_infinite(self) -> bool:
        return True

    def member(self, depth: int) -> int:
        return code(tuple(self.branch_bit(i) for i in range(depth)))

    def __str__(self) -> str:
        pre = "".join(map(str, self.branch_prefix))
        per = "".join(map(str, self.branch_period))
        return f'pcode("{pre}","{per}")'


def carry_twin(spec: PrefixCode) -> PrefixCode | None:
    """For a branch ending in ones, the branch whose codes are one larger
    from some depth on: code(x0 1^j) + 1 == code(x1 0^j) and
    code(1^j) + 1 == code(0^(j+1)).  So {k : (k in S) == (k+1 in twin)}
    is cofinite.  None for every other branch; no other pair of distinct
    branches agrees cofinitely at any shift."""
    if spec.branch_period != (1,):
        return None
    x = spec.branch_prefix  # canonical: empty or ending in 0
    return PrefixCode(x[:-1] + (1,), (0,)) if x else PrefixCode((), (0,))


def carry_untwin(spec: PrefixCode) -> PrefixCode | None:
    """The branch whose carry twin is spec, or None."""
    if spec.branch_period != (0,):
        return None
    x = spec.branch_prefix  # canonical: empty or ending in 1
    return PrefixCode(x[:-1] + (0,), (1,)) if x else PrefixCode((), (1,))


def make_evp(prefix, period) -> SetSpec:
    """EvPeriodic, demoted to Finite when the period is all zeros;
    ValueError for an empty period, as from `EvPeriodic`.  The result is
    kept in the set-spec table under (make_evp, prefix, period), so that
    repeated arguments cost one lookup, whichever variant they give."""
    key = (make_evp, _given(prefix), _given(period))
    spec = _SETSPECS.get(key)
    if spec is None:
        prefix, period = _parse_bits(key[1]), _parse_bits(key[2])
        if not period:
            raise ValueError("period must be nonempty")
        spec = _SETSPECS.setdefault(key, _from_bits(prefix, period))
    return spec


def _from_bits(prefix: Bits, period: Bits) -> SetSpec:
    """The set with bit sequence prefix + period + period + ..., from bit
    tuples already checked: Finite when the period is all zeros, else
    EvPeriodic.  Both constructors look their arguments up in the
    set-spec table first, so a sequence seen before costs one lookup."""
    if 1 not in period:
        return Finite(tuple(n for n, b in enumerate(prefix) if b))
    return EvPeriodic(prefix, period)


def _evp_bits(spec) -> tuple[Bits, Bits] | None:
    """The bit view (module docstring): (prefix, period) of a finite or
    eventually periodic set, or of a literal 'b' (every step) or 'c' (no
    step); None for prefix-code sets and 'a'."""
    if isinstance(spec, EvPeriodic):
        return spec.prefix, spec.period
    if isinstance(spec, Finite):
        bits = [0] * (spec.elems[-1] + 1 if spec.elems else 0)
        for e in spec.elems:
            bits[e] = 1
        return tuple(bits), (0,)
    return _LITERAL_BITS.get(spec)


_LITERAL_BITS = {"b": ((), (1,)), "c": ((), (0,))}


def _shift_bits(bits: tuple[Bits, Bits], d: int) -> tuple[Bits, Bits]:
    """Bit sequence of {k : k+d in S} given S's bits; d may be negative."""
    prefix, period = bits
    if d < 0:
        return (0,) * (-d) + prefix, period
    if d <= len(prefix):
        return prefix[d:], period
    r = (d - len(prefix)) % len(period)
    return (), period[r:] + period[:r]


# ---------------------------------------------------------------------------
# agreement classification
#
# Results are ('finite', K)  -- the set in question is contained in [0, K)
#         or ('cofinite', K) -- the set contains [K, infinity)
#         or ('mixed', None) -- both it and its complement are infinite.

FINITE = "finite"
COFINITE = "cofinite"
MIXED = "mixed"


def _classify_bitstream(prefix: Bits, period: Bits):
    if all(period):
        zeros = [i for i, b in enumerate(prefix) if b == 0]
        return (COFINITE, (zeros[-1] + 1) if zeros else 0)
    if not any(period):
        ones = [i for i, b in enumerate(prefix) if b == 1]
        return (FINITE, (ones[-1] + 1) if ones else 0)
    return (MIXED, None)


def pair_agreement(s1: SetSpec, s2: SetSpec, shift: int = 0):
    """Classify {k >= 0 : (k in s1) == (k+shift in s2)}; either set may
    also be a literal 'b' or 'c', read through the bit view."""
    b1, b2 = _evp_bits(s1), _evp_bits(s2)
    if b1 is None and b2 is None:
        if s1 == s2 and shift == 0:
            return (COFINITE, 0)
        if (shift == 1 and carry_twin(s1) == s2) or (
            shift == -1 and carry_twin(s2) == s1
        ):
            # codes of depth past both prefixes pair off one apart; the
            # disagreements lie among the shallower codes
            top = 2 + max(s.member(len(s.branch_prefix)) for s in (s1, s2))
            misses = [k for k in range(top) if s1.contains(k) != s2.contains(k + shift)]
            return (COFINITE, misses[-1] + 1 if misses else 0)
        return (MIXED, None)
    if b1 is None or b2 is None:
        # a prefix-code set never eventually agrees with a periodic one:
        # infinite periodic sets are syndetic, prefix-code sets are not,
        # and finite sets differ from any infinite set infinitely often.
        return (MIXED, None)
    return _classify_bitstream(
        *_pointwise(b1, _shift_bits(b2, shift), lambda x, y: int(x == y))
    )


def _pointwise(b1: tuple[Bits, Bits], b2: tuple[Bits, Bits], op) -> tuple[Bits, Bits]:
    """The bit view of n -> op(bit n of b1, bit n of b2)."""
    (p1, q1), (p2, q2) = b1, b2
    start = max(len(p1), len(p2))
    bits = tuple(
        op(_bit(p1, q1, n), _bit(p2, q2, n))
        for n in range(start + lcm(len(q1), len(q2)))
    )
    return bits[:start], bits[start:]


def intersection_bound(s1: SetSpec, s2: SetSpec) -> int | None:
    """Least B with s1 & s2 contained in [0, B), or None if the
    intersection is infinite."""
    b1, b2 = _evp_bits(s1), _evp_bits(s2)
    if b1 is not None and b2 is not None:
        kind, bound = _classify_bitstream(*_pointwise(b1, b2, lambda x, y: x & y))
        return bound if kind == FINITE else None
    if b1 is None and b2 is None:
        # two branches share exactly their common prefixes
        assert isinstance(s1, PrefixCode) and isinstance(s2, PrefixCode)
        if s1 == s2:
            return None
        depth = 0
        while s1.branch_bit(depth) == s2.branch_bit(depth):
            depth += 1
        return s1.member(depth) + 1
    # periodic set against a prefix-code set: walk the code sequence of the
    # branch through the periodic set's residue automaton; the intersection
    # is infinite exactly when a member state lies on the automaton's cycle
    pc, (eprefix, eperiod) = (s1, b2) if b1 is None else (s2, b1)
    assert isinstance(pc, PrefixCode)
    plen, L = len(eprefix), len(eperiod)
    bper = len(pc.branch_period)
    cval, j = 0, 0  # cval = code(branch restricted to j)
    hits: list[int] = []
    seen: dict[tuple[int, int], int] = {}
    trail: list[bool] = []
    while True:
        member = _bit(eprefix, eperiod, cval) == 1
        if member:
            hits.append(cval)
        if cval >= plen and j >= len(pc.branch_prefix):
            state = ((cval - plen) % L, (j - len(pc.branch_prefix)) % bper)
            if state in seen:
                if any(trail[seen[state]:]):
                    return None
                return (hits[-1] + 1) if hits else 0
            seen[state] = len(trail)
            trail.append(member)
        cval = 2 * cval + 1 + pc.branch_bit(j)
        j += 1
