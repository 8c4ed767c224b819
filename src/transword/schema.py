"""Stream schemas: the finitely-presented description of omega-indexed
letter sequences.

A schema is a nonempty list of entries, cycled per step k = 0, 1, 2, ...;
entry (fam, idx, sign) emits the letter fam(idx(k))^sign at step k.  Index
functions are strictly increasing integer-valued polynomials of degree at
most two (quadratics cover pairing-based enumerations; the common case is
affine).  A famspec is a concrete family 'a'/'b'/'c' or a SetSpec S
meaning "b at steps in S, c elsewhere".

Positions are linear: position p maps to (step p // m, entry p % m).

`pair_cancellation` classifies, for two entries at shifted steps, the set
of steps where they emit mutually inverse letters; streams whose patterns
cancel on an infinite and co-infinite step set are outside the fragment
and rejected.  `tail_alignment` decides whether two schemas emit the same
letters from some position on, returning the position shift; this single
primitive drives stream cancellation, germ equality and the interval
decomposition.  `Schema.tail_key` filters: schemas with different keys
never align, so callers index candidates by key and `tail_alignment`
returns at once on a mismatch.  `tail_alignment` decides: equal keys do
not imply an alignment.

Schemas are hash-consed: `Schema(entries)` returns the one object for
that entries tuple, so a schema's hash, `fold`, validity (`schema_valid`)
and `tail_key` are computed once per distinct schema, however often
callers rebuild it.  The intern table lives for the whole process and
holds one object per distinct schema built, in place of the 4096-entry
bound of the validity cache it replaces.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import FrozenInstanceError, dataclass
from math import gcd, isqrt, lcm

from .freegroup import Letter
from .setspec import (
    COFINITE,
    FINITE,
    MIXED,
    EvPeriodic,
    Finite,
    PrefixCode,
    SetSpec,
    carry_twin,
    indicator_classification,
    make_evp,
    pair_agreement,
    shifted,
)

FamSpec = str | SetSpec  # 'a' | 'b' | 'c' | selector set


@dataclass(frozen=True)
class IndexFn:
    """(a2*k^2 + a1*k + a0) / div, integer-valued and strictly increasing
    on the naturals."""

    a2: int
    a1: int
    a0: int
    div: int = 1

    def __post_init__(self):
        if self.div <= 0:
            raise ValueError("div must be positive")
        g = gcd(gcd(abs(self.a2), abs(self.a1)), gcd(abs(self.a0), self.div))
        if g > 1:
            object.__setattr__(self, "a2", self.a2 // g)
            object.__setattr__(self, "a1", self.a1 // g)
            object.__setattr__(self, "a0", self.a0 // g)
            object.__setattr__(self, "div", self.div // g)
        for k in (0, 1, 2):
            num = self.a2 * k * k + self.a1 * k + self.a0
            if num % self.div:
                raise ValueError(f"index function not integer-valued at k={k}")
        if self.a2 < 0 or self.a2 + self.a1 <= 0:
            raise ValueError("index function must be strictly increasing")
        if self.a0 < 0:
            raise ValueError("index function must be natural-valued at 0")

    def value(self, k: int) -> int:
        return (self.a2 * k * k + self.a1 * k + self.a0) // self.div

    def solve(self, target: int) -> int | None:
        """The unique k >= 0 with value(k) == target, if any."""
        if target < self.value(0):
            return None
        if self.a2 == 0:
            num = target * self.div - self.a0
            if num % self.a1:
                return None
            k = num // self.a1
            return k if k >= 0 else None
        # strictly increasing quadratic: solve a2 k^2 + a1 k + (a0 - t*div) = 0
        c = self.a0 - target * self.div
        disc = self.a1 * self.a1 - 4 * self.a2 * c
        if disc < 0:
            return None
        r = isqrt(disc)
        if r * r != disc:
            return None
        num = -self.a1 + r
        if num % (2 * self.a2):
            return None
        k = num // (2 * self.a2)
        return k if k >= 0 and self.value(k) == target else None

    def shift(self, d: int) -> "IndexFn":
        """The function k -> self(k + d)."""
        a2, a1, a0 = self.a2, self.a1, self.a0
        return IndexFn(a2, 2 * a2 * d + a1, a2 * d * d + a1 * d + a0, self.div)

    def compose_affine(self, t: int, s: int) -> "IndexFn":
        """The function k -> self(t*k + s)."""
        a2, a1, a0 = self.a2, self.a1, self.a0
        return IndexFn(
            a2 * t * t,
            2 * a2 * t * s + a1 * t,
            a2 * s * s + a1 * s + a0,
            self.div,
        )

    def __str__(self) -> str:
        terms = []
        if self.a2:
            terms.append(f"{self.a2 if self.a2 != 1 else ''}k^2")
        if self.a1:
            terms.append(f"{self.a1 if self.a1 != 1 else ''}k")
        if self.a0 or not terms:
            terms.append(str(self.a0))
        body = "+".join(terms).replace("+-", "-")
        return f"({body})/{self.div}" if self.div != 1 else body


def affine(a1: int, a0: int = 0) -> IndexFn:
    return IndexFn(0, a1, a0)


K = affine(1)  # the identity index function


def poly_shift_match(f: IndexFn, g: IndexFn) -> int | None:
    """The integer d with f(k) == g(k+d) for all k, if one exists."""
    # g(k+d) = (g.a2 k^2 + (2 g.a2 d + g.a1) k + ...) / g.div; compare the
    # coefficients over the common denominator f.div * g.div
    if f.a2 * g.div != g.a2 * f.div:
        return None
    if g.a2:
        num, den = f.a1 * g.div - g.a1 * f.div, 2 * g.a2 * f.div
    elif g.a1:
        num, den = f.a0 * g.div - g.a0 * f.div, g.a1 * f.div
    else:
        return None
    if num % den:
        return None
    d = num // den
    try:
        return d if g.shift(d) == f else None
    except ValueError:  # shifted function dips below the naturals
        return None


@dataclass(frozen=True)
class Entry:
    fam: FamSpec
    idx: IndexFn
    sign: int = 1

    def __post_init__(self):
        if isinstance(self.fam, str) and self.fam not in ("a", "b", "c"):
            raise ValueError(f"bad famspec {self.fam!r}")
        if self.sign not in (1, -1):
            raise ValueError("entry sign must be +1 or -1")

    def family_at(self, k: int) -> str:
        if isinstance(self.fam, str):
            return self.fam
        return "b" if self.fam.contains(k) else "c"

    def letter_at(self, k: int) -> Letter:
        return Letter(self.family_at(k), self.idx.value(k), self.sign)


def fam_agreement(f1: FamSpec, f2: FamSpec, shift: int):
    """Classify {k >= 0 : family chosen by f1 at k == family by f2 at k+shift}."""
    if isinstance(f1, str) and isinstance(f2, str):
        return (COFINITE, 0) if f1 == f2 else (FINITE, 0)
    if isinstance(f1, str):
        if f1 == "a":
            return (FINITE, 0)
        kind, bound = indicator_classification(f2, shift)
        if f1 == "c":  # agree where k+shift is NOT in the set
            kind = {FINITE: COFINITE, COFINITE: FINITE, MIXED: MIXED}[kind]
        return (kind, bound)
    if isinstance(f2, str):
        if f2 == "a":
            return (FINITE, 0)
        kind, bound = indicator_classification(f1, 0)
        if f2 == "c":
            kind = {FINITE: COFINITE, COFINITE: FINITE, MIXED: MIXED}[kind]
        return (kind, bound)
    return pair_agreement(f1, f2, shift)


def pair_cancellation(e1: Entry, e2: Entry, shift: int):
    """Classify the steps k at which e1's letter at k and e2's letter at
    k+shift are mutually inverse.

    Returns ('finite', hits) with the explicit step tuple, or
    ('cofinite', K) meaning every step >= K cancels, or ('mixed', None).
    """
    if e1.sign != -e2.sign:
        return (FINITE, ())
    if e2.idx.shift(shift) == e1.idx:
        kind, bound = fam_agreement(e1.fam, e2.fam, shift)
        if kind == MIXED:
            return (MIXED, None)
        if kind == COFINITE:
            return (COFINITE, bound)
        hits = tuple(
            k for k in range(bound) if e1.family_at(k) == e2.family_at(k + shift)
        )
        return (FINITE, hits)
    # distinct index functions: finitely many index coincidences
    f, g = e1.idx, e2.idx.shift(shift)
    roots = []
    # (f - g)(k) = 0 over a common denominator
    D = lcm(f.div, g.div)
    A = f.a2 * (D // f.div) - g.a2 * (D // g.div)
    B = f.a1 * (D // f.div) - g.a1 * (D // g.div)
    C = f.a0 * (D // f.div) - g.a0 * (D // g.div)
    if A == 0:
        if B != 0 and (-C) % B == 0 and (-C) // B >= 0:
            roots.append((-C) // B)
    else:
        disc = B * B - 4 * A * C
        if disc >= 0 and isqrt(disc) ** 2 == disc:
            r = isqrt(disc)
            for num in (-B + r, -B - r):
                if num % (2 * A) == 0 and num // (2 * A) >= 0:
                    roots.append(num // (2 * A))
    hits = tuple(
        sorted(
            k
            for k in set(roots)
            if e1.family_at(k) == e2.family_at(k + shift)
        )
    )
    return (FINITE, hits)


def _ratio(num: int, den: int) -> tuple[int, int]:
    g = gcd(num, den)
    return num // g, den // g


# every schema built so far, by entries tuple; see `Schema`
_SCHEMAS: dict[tuple[Entry, ...], Schema] = {}


class Schema:
    """A nonempty tuple of entries, interned: `Schema(entries)` returns the
    one object built for an equal entries tuple, so equal schemas are
    identical and `==` is `is`.  The hash, `fold`, validity and `tail_key`
    are computed on first use and kept in the object's slots, once per
    distinct schema."""

    __slots__ = ("entries", "_hash", "_folded", "_valid", "_key")

    def __new__(cls, entries: tuple[Entry, ...]):
        entries = tuple(entries)
        self = _SCHEMAS.get(entries)
        if self is None:
            if not entries:
                raise ValueError("schema needs at least one entry")
            self = object.__new__(cls)
            object.__setattr__(self, "entries", entries)
            for slot in ("_hash", "_folded", "_valid", "_key"):
                object.__setattr__(self, slot, None)
            self = _SCHEMAS.setdefault(entries, self)
        return self

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return (Schema, (self.entries,))

    # `==` is object identity, which interning makes value equality
    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = hash((self.entries,))
            object.__setattr__(self, "_hash", h)
        return h

    def __repr__(self) -> str:
        return f"Schema(entries={self.entries!r})"

    @property
    def width(self) -> int:
        return len(self.entries)

    @property
    def tail_key(self) -> tuple:
        """A hashable invariant of the tail class, in integers only:
        `tail_alignment(su, sv) is not None` implies equal keys (not the
        converse).  Schemas are interned, so the key is computed once per
        distinct schema, on first use.

        Per position, an entry's letter index grows at rate a1/(div*m)
        (affine) or with leading coefficient a2/(div*m^2) (quadratic);
        those rates, the sign and whether the family is 'a' survive
        unrolling, rotation and step shifts, and so does each rate
        class's share of the period.  Prefix-code selectors neither
        decimate nor shift, so a schema carrying one aligns only with a
        schema of its own width whose entries match it one to one, with
        the same index function, or the twin branch's with the index
        shifted one step (`setspec.carry_twin`)."""
        key = self._key
        if key is None:
            key = _compute_tail_key(self)
            object.__setattr__(self, "_key", key)
        return key

    def letter_at(self, p: int) -> Letter:
        k, j = divmod(p, self.width)
        return self.entries[j].letter_at(k)

    def adjacent_pairs(self):
        """(position-of-first-entry-kind, e1, e2, step shift) for each
        adjacent pair, including the wrap pair across the period boundary."""
        m = self.width
        for j in range(m - 1):
            yield j, self.entries[j], self.entries[j + 1], 0
        yield m - 1, self.entries[m - 1], self.entries[0], 1


def _compute_tail_key(schema: Schema) -> tuple:
    m = schema.width
    rates: Counter = Counter()
    codes: Counter = Counter()
    for e in schema.entries:
        f = e.idx
        rate = _ratio(f.a2, f.div * m * m) if f.a2 else _ratio(f.a1, f.div * m)
        rates[(e.sign, e.fam == "a", f.a2 == 0) + rate] += 1
        if isinstance(e.fam, PrefixCode):
            fam, coeffs = e.fam, (f.a2, f.a1, f.a0)
            twin = carry_twin(fam)
            if twin is not None:  # (fam, f(k)) aligns with (twin, f(k-1))
                fam, coeffs = twin, (f.a2, f.a1 - 2 * f.a2, f.a2 - f.a1 + f.a0)
            codes[(e.sign, fam.branch_prefix, fam.branch_period, f.div) + coeffs] += 1
    # sorted flat tuples: canonical multisets, and small, since every
    # schema keeps its key
    shares = tuple(sorted(r + _ratio(n, m) for r, n in rates.items()))
    if not codes:
        return shares
    return shares, m, tuple(sorted(codes.items()))


def schema_valid(schema: Schema) -> bool:
    """False when some adjacent pair cancels on a step set that is both
    infinite and co-infinite (the word then has no schematic reduced form).
    Computed once per distinct schema."""
    valid = schema._valid
    if valid is None:
        valid = _compute_valid(schema)
        object.__setattr__(schema, "_valid", valid)
    return valid


def _compute_valid(schema: Schema) -> bool:
    for _, e1, e2, shift in schema.adjacent_pairs():
        if pair_cancellation(e1, e2, shift)[0] == MIXED:
            return False
    return True


def _decimate(spec: SetSpec, t: int, s: int) -> SetSpec | None:
    """{k : t*k + s in spec}, staying in the representation class."""
    if isinstance(spec, Finite):
        return Finite((e - s) // t for e in spec.elems if e >= s and (e - s) % t == 0)
    if isinstance(spec, EvPeriodic):
        plen, L = len(spec.prefix), len(spec.period)
        pre = []
        k = 0
        while t * k + s < plen:
            pre.append(1 if spec.contains(t * k + s) else 0)
            k += 1
        start = k
        per = [1 if spec.contains(t * (start + i) + s) else 0 for i in range(L)]
        return make_evp(tuple(pre), tuple(per))
    return None  # prefix-code sets do not decimate


def unroll(schema: Schema, t: int, phase: int = 0) -> Schema | None:
    """Present the same letter sequence with period width*t; step kappa of
    the result covers original steps t*kappa+phase .. t*kappa+phase+t-1,
    so positions on an original boundary at a step congruent to phase mod
    t land on a boundary of the result.  None when a selector set cannot
    be decimated."""
    if t == 1:
        return schema
    out = []
    for s in range(t):
        for e in schema.entries:
            fam = e.fam
            if isinstance(fam, SetSpec):
                fam = _decimate(fam, t, phase + s)
                if fam is None:
                    return None
            out.append(Entry(fam, e.idx.compose_affine(t, phase + s), e.sign))
    return Schema(tuple(out))


def _weave_fams(fams: list[FamSpec], t: int) -> FamSpec | None:
    """A single famspec F with F(t*k+s) == fams[s](k), for folding."""
    if all(isinstance(f, str) for f in fams):
        return fams[0] if len(set(fams)) == 1 else None
    if any(f == "a" for f in fams):
        return None
    tests = []
    stable = 0  # step from which every strand is periodic
    span = 1
    for f in fams:
        if f == "b":
            tests.append(lambda k: True)
        elif f == "c":
            tests.append(lambda k: False)
        elif isinstance(f, Finite):
            tests.append(f.contains)
            stable = max(stable, (f.elems[-1] + 1) if f.elems else 0)
        elif isinstance(f, EvPeriodic):
            tests.append(f.contains)
            stable = max(stable, len(f.prefix))
            span = lcm(span, len(f.period))
        else:
            return None  # prefix-code selectors do not weave
    prefix = tuple(1 if tests[n % t](n // t) else 0 for n in range(t * stable))
    period = tuple(
        1 if tests[(t * stable + n) % t]((t * stable + n) // t) else 0
        for n in range(t * span)
    )
    return make_evp(prefix, period)


def fold(schema: Schema) -> Schema:
    """Smallest-period presentation of the same letter sequence; computed
    once per distinct schema."""
    folded = schema._folded
    if folded is None:
        folded = _compute_fold(schema)
        object.__setattr__(schema, "_folded", folded)
    return folded


def _compute_fold(schema: Schema) -> Schema:
    changed = True
    while changed:
        changed = False
        m = schema.width
        for d in range(1, m):
            if m % d:
                continue
            t = m // d
            new_entries = []
            ok = True
            for j in range(d):
                copies = [schema.entries[j + d * s] for s in range(t)]
                if len({c.sign for c in copies}) != 1:
                    ok = False
                    break
                base = copies[0].idx
                try:
                    folded_idx = IndexFn(
                        base.a2, base.a1 * t, base.a0 * t * t, base.div * t * t
                    )
                except ValueError:
                    ok = False
                    break
                if any(
                    folded_idx.compose_affine(t, s) != copies[s].idx for s in range(t)
                ):
                    ok = False
                    break
                fam = _weave_fams([c.fam for c in copies], t)
                if fam is None:
                    ok = False
                    break
                new_entries.append(Entry(fam, folded_idx, copies[0].sign))
            if ok:
                schema = Schema(tuple(new_entries))
                changed = True
                break
    return schema


def tail_alignment(su: Schema, sv: Schema) -> tuple[int, int] | None:
    """(delta, Kpos) such that su's letter at p equals sv's letter at
    p + delta for every p >= Kpos; None when no such shift exists."""
    if su.tail_key != sv.tail_key:
        return None
    if su.width != sv.width:
        L = lcm(su.width, sv.width)
        su2 = unroll(su, L // su.width)
        sv2 = unroll(sv, L // sv.width)
        if su2 is None or sv2 is None:
            return None
        su, sv = su2, sv2
    m = su.width
    matches: list[tuple[int, int]] = []
    for phi in range(m):
        d: int | None = None
        K_steps = 0
        ok = True
        for j in range(m):
            jp = (j + phi) % m
            carry = 1 if j + phi >= m else 0
            eu, ev = su.entries[j], sv.entries[jp]
            if eu.sign != ev.sign:
                ok = False
                break
            D = poly_shift_match(eu.idx, ev.idx)
            if D is None:
                ok = False
                break
            dj = D - carry
            if d is None:
                d = dj
            elif d != dj:
                ok = False
                break
            kind, bound = fam_agreement(eu.fam, ev.fam, D)
            if kind != COFINITE:
                ok = False
                break
            K_steps = max(K_steps, bound)
        if ok and d is not None:
            delta = d * m + phi
            matches.append((delta, max(0, K_steps * m, -delta)))
    if not matches:
        return None
    # strictly increasing indices make self-overlaps impossible in practice;
    # prefer the smallest shift if a degenerate pattern ever ties
    matches.sort(key=lambda t: abs(t[0]))
    return matches[0]
