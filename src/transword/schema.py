"""Stream schemas: the finitely-presented description of omega-indexed
letter sequences.

A schema is a nonempty list of entries, cycled per step k = 0, 1, 2, ...;
entry (fam, idx, sign) emits the letter fam(idx(k))^sign at step k.  Index
functions are strictly increasing integer-valued polynomials of degree at
most two (quadratics cover pairing-based enumerations; the common case is
affine).  A famspec is a concrete family 'a'/'b'/'c' or a SetSpec S
meaning "b at steps in S, c elsewhere".

Positions are linear: position p maps to (step p // m, entry p % m).
Every run of letters the rewrite engine reads (a head cut, a step, a
tail) is read by `Schema.letters(p0, p1)`, and each letter of a walk that
stops at the first mismatch by `Schema.letter_at(p)`.

`pair_cancellation` classifies, for two entries at shifted steps, the set
of steps where they emit mutually inverse letters; streams whose patterns
cancel on an infinite and co-infinite step set are outside the fragment
and rejected.

Two schemas are in one tail class when they emit the same letters from
some position on.  `Schema.tail_key` is the class's normal presentation,
an interned schema: keys are one object exactly when the schemas are in
one class, and germs keep, compare and render keys.  It strips each b/c
choice to the purely periodic step pattern it follows from some step on
(literal b and c when constant), has the least width at which entries
repeat, with letter indices as polynomials in the position, times the
least factor at which no entry mixes a with b/c, and starts at the least
candidate, as a tuple, whose index functions are natural-valued at step
0.  Without prefix codes, a candidate puts an entry first at the least
step from which its index function is natural-valued and increasing (the
latest one qualifies); prefix codes pin the step numbering up to the
carry twin, which leaves finitely many starts.  A schema keeps with its
key where the key starts and from where it renders the key's letters;
`tail_alignment` reads the shift between two schemas of one class, and a
position from which their letters agree, off these slots, and stream
cancellation and the interval decomposition use it.
`fold` reads the same position view (`_in_position`): a schema folds to
the least width d at which every entry j has the sign and the position
polynomial of entry j mod d, the families of these copies weave into
one, and the folded index functions increase.

Schemas, entries and index functions are hash-consed (Filliatre &
Conchon, *Type-safe modular hash-consing*, 2006), like letters and the
set specs a selector holds: `Schema(entries)`, `Entry(fam, idx, sign)`
and `IndexFn(a2, a1, a0, div)` return the one object for their value, so
equality is identity and each constructor validates a value once; all
three hash by identity.  Every value derived from a schema alone is
computed once per distinct schema, however often callers rebuild it, and
kept in its slots.  Which are set when a schema is first built and which
on first use follows their traffic on the benchmark workloads.  Every
stream reads its schema's adjacent-pair classes (`Schema.pair_classes`:
the cofinite pairs pattern reduction drops), its validity
(`Schema.valid`) and its last finite hit (`Schema.last_hit`, which
settling cuts through and absorb refuses), so all three are set at
interning, and every interned schema of the `equality`, `cancel` and
`separation` runs read them.  Only some schemas are asked for the rest,
which are set on first use: `fold` (98–100% of schemas), `tail_key`
(0–80%), the shifts `unroll(schema, 1, d)`, None included (0–51%), and
the pattern tail (`words.pattern_tail`, 0–82%): the key of the stream
that pattern reduction leaves of a stream over this one, None when it
vanishes, which the archipelago quotient reads as each stream's germ.
An entry's DSL text is set on its first render (`dsl.render_entry`): the
`equality` run renders 78% of its interned entries, 1.5 times each per
pass over its queries, and the `cancel`, `separation` and `ladder` runs
render none.  The intern tables live for the whole process and hold one
object per distinct value built.
"""

from __future__ import annotations

from math import gcd, isqrt, lcm

from .freegroup import Letter, _Interned
from .setspec import (
    COFINITE,
    FINITE,
    MIXED,
    PrefixCode,
    SetSpec,
    _bit,
    _canonical_evp,
    _evp_bits,
    _from_bits,
    carry_twin,
    carry_untwin,
    decimated,
    pair_agreement,
)

FamSpec = str | SetSpec  # 'a' | 'b' | 'c' | selector set


# every index function built so far, by argument tuple, both as given and
# in lowest terms; see `IndexFn`
_INDEX_FNS: dict[tuple[int, int, int, int], IndexFn] = {}


class IndexFn(_Interned):
    """(a2*k^2 + a1*k + a0) / div, integer-valued and strictly increasing
    on the naturals, kept in lowest terms.  Interned like `Schema`:
    `IndexFn(a2, a1, a0, div)` returns the one object for that function,
    so `IndexFn(2, 2, 0, 2) is IndexFn(1, 1, 0, 1)` and `==` and `hash`
    are object identity.  Validation and the reduction to lowest terms run
    only when an argument tuple is first seen; an invalid tuple never
    enters the table, so it raises on every call."""

    __slots__ = __match_args__ = ("a2", "a1", "a0", "div")

    def __new__(cls, a2: int, a1: int, a0: int, div: int = 1):
        key = (a2, a1, a0, div)
        self = _INDEX_FNS.get(key)
        if self is None:
            terms = _lowest_terms(*key)
            self = _INDEX_FNS.setdefault(key, _INDEX_FNS.setdefault(terms, cls._build(*terms)))
        return self

    def value(self, k: int) -> int:
        return (self.a2 * k * k + self.a1 * k + self.a0) // self.div

    def solve(self, target: int) -> int | None:
        """The unique k >= 0 with value(k) == target, if any."""
        roots = _natural_roots(self.a2, self.a1, self.a0 - target * self.div)
        return roots[0] if roots else None

    def shift(self, d: int) -> "IndexFn":
        """The function k -> self(k + d)."""
        return self.compose_affine(1, d)

    def compose_affine(self, t: int, s: int) -> "IndexFn":
        """The function k -> self(t*k + s)."""
        return IndexFn(*_poly_at(self.a2, self.a1, self.a0, self.div, t, s))

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


def _lowest_terms(a2: int, a1: int, a0: int, div: int) -> tuple[int, int, int, int]:
    """The argument tuple of an index function in lowest terms; ValueError
    when it is not one."""
    if div <= 0:
        raise ValueError("div must be positive")
    g = gcd(a2, a1, a0, div)
    a2, a1, a0, div = a2 // g, a1 // g, a0 // g, div // g
    for k in (0, 1, 2):
        if (a2 * k * k + a1 * k + a0) % div:
            raise ValueError(f"index function not integer-valued at k={k}")
    if a2 < 0 or a2 + a1 <= 0:
        raise ValueError("index function must be strictly increasing")
    if a0 < 0:
        raise ValueError("index function must be natural-valued at 0")
    return a2, a1, a0, div


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


# every entry built so far, by (fam, idx, sign); see `Entry`
_ENTRIES: dict[tuple, Entry] = {}


class Entry(_Interned):
    """One entry of a schema: the letter fam(idx(k))^sign at step k.
    Interned like `IndexFn`: equal entries are one object, `==` and
    `hash` are object identity, and an invalid triple raises on every
    call.  `_text` keeps the entry's DSL text without set names, set on
    its first render (`dsl.render_entry`)."""

    __slots__ = ("fam", "idx", "sign", "_text")
    __match_args__ = ("fam", "idx", "sign")

    def __new__(cls, fam: FamSpec, idx: IndexFn, sign: int = 1):
        key = (fam, idx, sign)
        self = _ENTRIES.get(key)
        if self is None:
            if isinstance(fam, str) and fam not in ("a", "b", "c"):
                raise ValueError(f"bad famspec {fam!r}")
            if sign not in (1, -1):
                raise ValueError("entry sign must be +1 or -1")
            self = _ENTRIES.setdefault(key, cls._build(*key))
        return self

    def family_at(self, k: int) -> str:
        if isinstance(self.fam, str):
            return self.fam
        return "b" if self.fam.contains(k) else "c"


def fam_agreement(f1: FamSpec, f2: FamSpec, shift: int):
    """Classify {k >= 0 : family chosen by f1 at k == family by f2 at k+shift}."""
    if isinstance(f1, str) and isinstance(f2, str):
        return (COFINITE, 0) if f1 == f2 else (FINITE, 0)
    if "a" in (f1, f2):
        return (FINITE, 0)
    if isinstance(f2, str):  # a literal chooses alike at every step, even k+shift < 0
        shift = 0
    return pair_agreement(f1, f2, shift)


def pair_cancellation(e1: Entry, e2: Entry, shift: int):
    """Classify the steps k at which e1's letter at k and e2's letter at
    k+shift are mutually inverse.

    Returns ('finite', hits) with the explicit step tuple, or
    ('cofinite', K) meaning every step >= K cancels, or ('mixed', None).
    """
    if e1.sign != -e2.sign:
        return (FINITE, ())
    f, g = e1.idx, e2.idx.shift(shift)
    if f == g:
        kind, bound = fam_agreement(e1.fam, e2.fam, shift)
        if kind == MIXED:
            return (MIXED, None)
        if kind == COFINITE:
            return (COFINITE, bound)
        hits = tuple(
            k for k in range(bound) if e1.family_at(k) == e2.family_at(k + shift)
        )
        return (FINITE, hits)
    # distinct index functions: finitely many index coincidences, the
    # roots of (f - g)(k) over a common denominator
    D = lcm(f.div, g.div)
    A = f.a2 * (D // f.div) - g.a2 * (D // g.div)
    B = f.a1 * (D // f.div) - g.a1 * (D // g.div)
    C = f.a0 * (D // f.div) - g.a0 * (D // g.div)
    roots = _natural_roots(A, B, C)
    hits = tuple(k for k in roots if e1.family_at(k) == e2.family_at(k + shift))
    return (FINITE, hits)


def _natural_roots(a: int, b: int, c: int) -> tuple[int, ...]:
    """The k >= 0 with a*k^2 + b*k + c == 0, ascending; none when a = b = 0."""
    if a == 0:
        return ((-c) // b,) if b and (-c) % b == 0 and (-c) // b >= 0 else ()
    disc = b * b - 4 * a * c
    r = isqrt(max(disc, 0))
    if r * r != disc:
        return ()
    roots = {n // (2 * a) for n in (-b - r, -b + r) if n % (2 * a) == 0}
    return tuple(sorted(k for k in roots if k >= 0))


# every schema built so far, by entries tuple; see `Schema`
_SCHEMAS: dict[tuple[Entry, ...], Schema] = {}


class Schema(_Interned):
    """A nonempty tuple of entries, interned: `Schema(entries)` returns the
    one object built for an equal entries tuple, so equal schemas are
    identical, and `==` and `hash` are object identity.  Set with the
    entries, once per distinct schema: `width`, the number of entries;
    `pair_classes`, (j, kind, data) for each adjacent pair of entries in
    order of its first entry j, (kind, data) being `pair_cancellation` of
    entry j and the next, which for the last entry is entry 0 one step on
    (the wrap pair); `valid`, False when some pair cancels on a step set
    that is infinite and co-infinite (a stream over the schema then has no
    schematic reduced form); and `last_hit`, the last step at which some
    pair has a finite hit, -1 when none.  Every stream reads these
    three.  Set on first use, as only some schemas are asked: `fold`; in
    `_key` the `tail_key` schema, where it starts and from where this
    schema renders its letters (`_compute_tail_key`); in `_shifts` a dict
    d -> `unroll(schema, 1, d)`, failed shifts (None) included; and in
    `_tail` the key of the pattern tail (`words.pattern_tail`), False when
    the stream vanishes."""

    __slots__ = (
        "entries", "width", "pair_classes", "valid", "last_hit", "_folded", "_key",
        "_shifts", "_tail",
    )
    __match_args__ = ("entries",)

    def __new__(cls, entries: tuple[Entry, ...]):
        entries = tuple(entries)
        self = _SCHEMAS.get(entries)
        if self is None:
            if not entries:
                raise ValueError("schema needs at least one entry")
            m = len(entries)
            pairs = tuple(
                (j, *pair_cancellation(entries[j], entries[(j + 1) % m], (j + 1) // m))
                for j in range(m)
            )
            valid = all(kind != MIXED for _, kind, _ in pairs)
            last = max((d[-1] for _, kind, d in pairs if kind == FINITE and d), default=-1)
            self = _SCHEMAS.setdefault(entries, cls._build(entries, m, pairs, valid, last))
        return self

    @property
    def tail_key(self) -> Schema:
        """The normal presentation of the tail class (module docstring), an
        interned schema: keys are one object exactly when `tail_alignment`
        aligns the schemas.  Computed once, on first use."""
        if self._key is None:
            object.__setattr__(self, "_key", _compute_tail_key(self))
        return self._key[0]

    def letter_at(self, p: int) -> Letter:
        k, j = divmod(p, self.width)
        e = self.entries[j]
        return Letter(e.family_at(k), e.idx.value(k), e.sign)

    def letters(self, p0: int, p1: int) -> tuple[Letter, ...]:
        """The letters at positions p0 .. p1-1; the loop repeats `letter_at`
        rather than calling it, so that a run is read in one frame."""
        m, entries = self.width, self.entries
        out = []
        for p in range(p0, p1):
            k, j = divmod(p, m)
            e = entries[j]
            out.append(Letter(e.family_at(k), e.idx.value(k), e.sign))
        return tuple(out)


def _compute_tail_key(schema: Schema) -> tuple[Schema, int, int]:
    """(key, p0, k0): the normal presentation of the schema's tail class,
    built for the least candidate start only; the position p0 of the
    schema at which it starts; and the least position k0 >= 0 from which
    the schema's letter at p is the key's at p - p0, past each entry's
    lead: its selector's bit prefix, or for a prefix code moved D steps
    to or from its carry twin, the bound of their agreement at shift -D.
    Kept in the `_key` slot, and (key, 0, 0) in the key's."""
    n = m = schema.width
    entries, steps, leads = zip(*(_stripped(e, j, m) for j, e in enumerate(schema.entries)))
    leads = list(leads)
    span = m * lcm(*map(len, steps))
    woven = tuple(steps[p % m][p // m % len(steps[p % m])] for p in range(span))
    fams = _canonical_evp((), woven)[1]
    if _CODE in fams:
        # step numbering is pinned up to the carry twin: one step either way
        starts = range(-2 * m, 2 * m)
    else:
        # the minimal width: the least d at which the entries repeat
        m = next(d for d in range(1, m + 1) if entries == entries[:d] * (m // d))
        entries = entries[:m]
        # entry c first, from its least natural-valued increasing step
        starts = [c + m * _first_step(*_poly_at(*e[3:], m, c)) for c, e in enumerate(entries)]
    rows, p = min((r, p) for p in starts if (r := _presentation(entries, fams, p)))
    for j, e in enumerate(schema.entries):
        D = -((j - p) // n)  # entry j is rendered D steps earlier
        if D and isinstance(e.fam, PrefixCode):
            moved = carry_twin(e.fam) if D == -1 else carry_untwin(e.fam)
            leads[j] = pair_agreement(e.fam, moved, -D)[1]
    k0 = max((n * (lead - 1) + j + 1 for j, lead in enumerate(leads) if lead), default=0)
    # the least width, a multiple of m, at which no entry mixes a with b/c
    L, kinds = len(fams), [max(f, _B) for f in fams]
    d = next(d for d in range(m, m * L + 1, m) if kinds == kinds[d % L :] + kinds[: d % L])
    key = _key_schema(rows, d)
    object.__setattr__(key, "_key", (key, 0, 0))  # a key is its own, from position 0
    return key, p, k0


# the family at a position of the tail: c, b, a or a prefix-code choice
_C, _B, _A, _CODE = 0, 1, 2, 3


def _stripped(e: Entry, j: int, m: int) -> tuple[tuple, tuple, int]:
    """Entry j of m as its sign, prefix-code branch (empty for other
    families) and letter index as a polynomial in the position; the purely
    periodic step pattern of families it follows from some step on; and
    that step, the length of a b/c selector's bit prefix, else 0."""
    fam = e.fam
    branch, prefix = ((), ()), ()
    bits = _evp_bits(fam)
    if bits is not None:  # bits are _C/_B
        prefix, period = bits
        r = -len(prefix) % len(period)
        steps = period[r:] + period[:r]
    elif fam == "a":
        steps = (_A,)
    else:
        branch, steps = (fam.branch_prefix, fam.branch_period), (_CODE,)
    return (e.sign, *branch, *_in_position(e, j, m)), steps, len(prefix)


def _first_step(a2: int, a1: int, a0: int, _div: int) -> int:
    """The least step s <= 0 from which k -> a2*k^2 + a1*k + a0, natural
    and increasing from step 0 on, is natural and increasing."""
    lo, hi = (-a1 - a2) // (2 * a2) + 1 if a2 else -(a0 // a1), 0
    while lo < hi:  # from step lo on it increases; bisect for the sign
        mid = (lo + hi) // 2
        lo, hi = (mid + 1, hi) if a2 * mid * mid + a1 * mid + a0 < 0 else (lo, mid)
    return lo


def _in_position(e: Entry, j: int, m: int) -> tuple:
    """The letter index of entry j of m as a polynomial in the position:
    position p = m*k + j carries index f(k) = f((p - j) / m)."""
    f = e.idx
    return _poly_at(f.a2, f.a1 * m, f.a0 * m * m, f.div * m * m, 1, -j)


def _poly_at(a2: int, a1: int, a0: int, div: int, t: int, s: int) -> tuple:
    """The coefficients of k -> f(t*k + s) in lowest terms; unlike
    `IndexFn`, the result need not be an index function."""
    c2, c1, c0 = a2 * t * t, (2 * a2 * s + a1) * t, a2 * s * s + a1 * s + a0
    g = gcd(c2, c1, c0, div)
    return c2 // g, c1 // g, c0 // g, div // g


def _presentation(entries, fams: tuple, p: int) -> tuple | None:
    """The presentation starting at position p: the step pattern, then per
    entry its sign, index in the position and branch (twins order by
    index); None when an index function is not natural-valued at step 0
    or does not increase, or a prefix code cannot move as p requires."""
    m = len(entries)
    r = p % len(fams)
    out: list = [fams[r:] + fams[:r]]
    for j in range(m):
        sign, x, y, *index = entries[(j + p) % m]
        D = (j + p) // m  # entry j at step k renders the old entry at step k + D
        if y and D:  # a prefix code moves to its twin or back, or not at all
            code = PrefixCode(x, y)
            code = carry_twin(code) if D == -1 else carry_untwin(code) if D == 1 else None
            if code is None:
                return None
            x, y = code.branch_prefix, code.branch_period
        index = _poly_at(*index, 1, p)
        a2, a1, a0, _ = _poly_at(*index, m, j)
        if a0 < 0 or a2 + a1 <= 0:
            return None
        out.append((sign, *index, x, y))
    return tuple(out)


def _key_schema(rows: tuple, d: int) -> Schema:
    """The presentation as a schema of width d; a b/c pattern becomes a
    literal b or c when constant, else a selector set."""
    fams, *rows = rows
    out = []
    for j in range(d):
        sign, *index, x, y = rows[j % len(rows)]
        bits = tuple(fams[(j + d * k) % len(fams)] for k in range(len(fams)))
        if bits[0] in (_A, _CODE):
            fam = "a" if bits[0] == _A else PrefixCode(x, y)
        else:
            fam = "c" if _B not in bits else "b" if _C not in bits else _from_bits((), bits)
        out.append(Entry(fam, IndexFn(*_poly_at(*index, d, j)), sign))
    return Schema(tuple(out))


def unroll(schema: Schema, t: int, phase: int = 0) -> Schema | None:
    """Present the same letter sequence with period width*t; step kappa of
    the result covers original steps t*kappa+phase .. t*kappa+phase+t-1,
    so positions on an original boundary at a step congruent to phase mod
    t land on a boundary of the result.  For t = 1 this is a shift: the
    result emits at step k what the schema emits at step k + phase.  None
    when a selector set cannot be re-indexed (prefix codes, except at
    t = 1 and phase 0) or an index function leaves the naturals.  Shifts
    are computed once per (schema, phase) and kept in the schema's
    `_shifts` slot."""
    if t != 1:
        return _compute_unroll(schema, t, phase)
    shifts = schema._shifts
    if shifts is None:
        shifts = {}
        object.__setattr__(schema, "_shifts", shifts)
    if phase not in shifts:
        shifts[phase] = _compute_unroll(schema, 1, phase)
    return shifts[phase]


def _compute_unroll(schema: Schema, t: int, phase: int) -> Schema | None:
    out = []
    for s in range(t):
        for e in schema.entries:
            fam = e.fam
            if isinstance(fam, SetSpec):
                fam = decimated(fam, t, phase + s)
                if fam is None:
                    return None
            try:
                idx = e.idx.compose_affine(t, phase + s)
            except ValueError:
                return None
            out.append(Entry(fam, idx, e.sign))
    return Schema(tuple(out))


def _weave_fams(fams: list[FamSpec], t: int) -> FamSpec | None:
    """A single famspec F with F(t*k+s) == fams[s](k), for folding."""
    if all(isinstance(f, str) for f in fams):
        return fams[0] if len(set(fams)) == 1 else None
    strands = [_evp_bits(f) for f in fams]
    if None in strands:
        return None  # 'a' and prefix-code selectors do not weave
    stable = max(len(prefix) for prefix, _ in strands)  # every strand periodic
    span = lcm(*(len(period) for _, period in strands))
    bits = tuple(
        _bit(*strands[n % t], n // t) for n in range(t * (stable + span))
    )
    return _from_bits(bits[: t * stable], bits[t * stable :])


def fold(schema: Schema) -> Schema:
    """Smallest-period presentation of the same letter sequence; computed
    once per distinct schema."""
    folded = schema._folded
    if folded is None:
        folded = _compute_fold(schema)
        object.__setattr__(schema, "_folded", folded)
    return folded


def _compute_fold(schema: Schema) -> Schema:
    """The fold at the least width that works (module docstring); it is
    final, as folding twice is folding once at the smaller width."""
    m, entries = schema.width, schema.entries
    at = [(e.sign, _in_position(e, j, m)) for j, e in enumerate(entries)]
    for d in range(1, m):
        if m % d or any(at[j] != at[j % d] for j in range(d, m)):
            continue
        t = m // d
        out = []
        for j in range(d):
            fam = _weave_fams([entries[j + d * s].fam for s in range(t)], t)
            if fam is None:
                break
            try:
                idx = IndexFn(*_poly_at(*at[j][1], d, j))
            except ValueError:  # the folded index does not increase
                break
            out.append(Entry(fam, idx, at[j][0]))
        else:
            return Schema(tuple(out))
    return schema


def tail_alignment(su: Schema, sv: Schema) -> tuple[int, int] | None:
    """(delta, Kpos) such that su's letter at p equals sv's letter at
    p + delta for every p >= Kpos; None when no such shift exists.  Equal
    tail keys decide, and both values are read off the `_key` slots:
    delta is where the key starts in sv less where it starts in su, and
    from Kpos on both schemas render the key's letters, its pattern
    extended back to the positions before it starts."""
    if su is sv:
        return (0, 0)
    if su.tail_key is not sv.tail_key:
        return None
    _, pu, ku = su._key
    _, pv, kv = sv._key
    delta = pv - pu
    return delta, max(0, ku, kv - delta, -delta)
