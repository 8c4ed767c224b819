"""Independent reference implementations used to cross-check the library.

These deliberately use the naive algorithm in each case (repeated-scan
cancellation, brute-force letter enumeration over a horizon, stream
letters read entry by entry, a fold that composes and compares the index
function of every copy and weaves their families by membership) so that
the production code paths are checked against something computed
differently.
The quotient class is also computed through the whole-word pass, apart
from the library's per-schema pattern tails.
The helpers at the bottom serve only the tests: the random-site rewrite
order, cutting a word in two, `apply_Ff` as a rewrite of the pieces of
`decompose`, `psi_f` as the composite of reduce, `apply_Ff` and the
quotient map, set equality and indicator classification, truncated
sequences, pairing-row words, reduced-word enumeration, a free-basis
test by Nielsen reduction (apart from the library's Stallings folding)
and random reduced schematic words.  The embedding ladder's retraction
identity is checked on sampled words over the a-letters
(`a_letter_set`), apart from the library's exact check on the
projector's pieces.
"""

import itertools
from math import lcm

import transword.words
from transword.abelian import IntSeq
from transword.endo import InadmissibleError, cantor_row, projector
from transword.freegroup import (
    EMPTY,
    FreeWord,
    Letter,
    cancels,
    rank_letter_set,
)
from transword.hag import Germ, HagClass, _cancelled, hag_normal
from transword.randwords import random_word
from transword.schema import (
    COFINITE,
    FINITE,
    Entry,
    IndexFn,
    Schema,
    fam_agreement,
    poly_shift_match,
    unroll,
)
from transword.setspec import (
    MIXED,
    EvPeriodic,
    Finite,
    PrefixCode,
    SetSpec,
    _classify_bitstream,
    _evp_bits,
    _shift_bits,
    make_evp,
    pair_agreement,
)
from transword.sigma import SigmaFamily, apply_Ff, decompose, u_word
from transword.words import (
    EMPTY_WORD,
    CapError,
    FiniteBlock,
    SchematicWord,
    Segment,
    Stream,
    _binary,
    _split_head,
    _unary,
    canonicalize,
    concat,
    from_free,
    invert,
    occurrences,
    proj_rank,
    project_finite,
    reduce,
)


def scan_reduce(w: FreeWord) -> FreeWord:
    """Repeated-scan cancellation: delete the first adjacent inverse pair,
    restart from the beginning, until none remain."""
    out = list(w)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            if out[i + 1] == out[i].inverse:
                del out[i : i + 2]
                changed = True
                break
    return FreeWord(tuple(out))


def _entry_letter(e: Entry, k: int) -> Letter:
    fam = e.fam if isinstance(e.fam, str) else "b" if e.fam.contains(k) else "c"
    return Letter(fam, e.idx.value(k), e.sign)


def letter_by_entry(schema: Schema, p: int) -> Letter:
    """The letter at position p from its entry's parts: the family from
    `fam.contains`, the index from `idx.value`."""
    k, j = divmod(p, schema.width)
    return _entry_letter(schema.entries[j], k)


def adjacent_pairs(schema: Schema):
    """(j, e1, e2, step shift) for each adjacent pair of entries, the wrap
    pair across the period boundary included."""
    m = schema.width
    for j in range(m - 1):
        yield j, schema.entries[j], schema.entries[j + 1], 0
    yield m - 1, schema.entries[m - 1], schema.entries[0], 1


def step_hits_by_pairs(schema: Schema, s: int) -> bool:
    """Whether some adjacent entry pair whose cancellation class is finite
    emits mutually inverse letters at step s >= 0."""
    finite = {j for j, kind, _ in schema.pair_classes if kind == FINITE}
    return any(
        cancels(_entry_letter(e1, s), _entry_letter(e2, s + shift))
        for j, e1, e2, shift in adjacent_pairs(schema)
        if j in finite
    )


# twin branches: the codes of the first of each pair sit one below the
# codes of the second from some depth on (setspec.carry_twin)
TWINS = (
    PrefixCode("", "1"),
    PrefixCode("", "0"),
    PrefixCode("0", "1"),
    PrefixCode("1", "0"),
    PrefixCode("000", "1"),
    PrefixCode("001", "0"),
)


def fold_by_copies(schema: Schema) -> Schema:
    """`schema.fold` by composing and comparing: at the least width d that
    divides the width, each of the t = width / d copies of entry j must
    share its sign, be the folded index function f(k/t) composed with
    k -> t*k + s, and weave its family with the others; the result is
    folded again until no width works."""
    changed = True
    while changed:
        changed = False
        m = schema.width
        for d in range(1, m):
            if m % d:
                continue
            t = m // d
            new_entries = []
            for j in range(d):
                copies = [schema.entries[j + d * s] for s in range(t)]
                if len({c.sign for c in copies}) != 1:
                    break
                base = copies[0].idx
                try:
                    idx = IndexFn(base.a2, base.a1 * t, base.a0 * t * t, base.div * t * t)
                except ValueError:
                    break
                if any(idx.compose_affine(t, s) != copies[s].idx for s in range(t)):
                    break
                fam = _weave_by_members([c.fam for c in copies], t)
                if fam is None:
                    break
                new_entries.append(Entry(fam, idx, copies[0].sign))
            else:
                schema = Schema(tuple(new_entries))
                changed = True
                break
    return schema


def _weave_by_members(fams, t: int):
    """The famspec F with F(t*k + s) == fams[s](k), read off membership:
    one literal when every copy has it; None beside 'a' or a prefix code;
    else the set whose bit n is the choice of copy n % t at step n // t,
    over the copies' prefixes and one common period."""
    if all(f == fams[0] for f in fams) and isinstance(fams[0], str):
        return fams[0]
    if any(f == "a" or isinstance(f, PrefixCode) for f in fams):
        return None

    def lengths(f):  # (prefix, period) lengths of the set's bit sequence
        if isinstance(f, EvPeriodic):
            return len(f.prefix), len(f.period)
        return (f.elems[-1] + 1 if f.elems else 0, 1) if isinstance(f, Finite) else (0, 1)

    def bit(n):
        f, k = fams[n % t], n // t
        return int(f == "b" if isinstance(f, str) else f.contains(k))

    stable = max(lengths(f)[0] for f in fams)
    span = lcm(*(lengths(f)[1] for f in fams))
    bits = [bit(n) for n in range(t * (stable + span))]
    return make_evp(bits[: t * stable], bits[t * stable :])


def _stream_kept(seg: Stream, keep) -> list[Letter]:
    m = seg.schema.width
    kept = []
    k = seg.pos // m + 1
    horizon = max(keep_rank(keep), 0)
    while True:
        start = max(seg.pos, (k - 1) * m)
        for p in range(start, k * m):
            l = seg.schema.letter_at(p)
            if (l.fam, l.index) in keep:
                kept.append(l if seg.forward else l.inverse)
        if all(e.idx.value(k) * 3 > horizon for e in seg.schema.entries):
            break
        k += 1
    return kept if seg.forward else list(reversed(kept))


def keep_rank(keep) -> int:
    return max((3 * i + 2 for _, i in keep), default=0)


def project_oracle(w: SchematicWord, keep) -> FreeWord:
    """Brute-force projection: enumerate letters over a sufficient horizon,
    filter, repeatedly-scan reduce."""
    keep = frozenset(keep)
    letters: list[Letter] = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            letters.extend(l for l in seg.word if (l.fam, l.index) in keep)
        else:
            letters.extend(_stream_kept(seg, keep))
    return scan_reduce(FreeWord(tuple(letters)))


def admissible_by_scan(s, bound: int) -> bool:
    """The substitution audit letter by letter: for each letter of rank
    < bound, one occurrences scan over the first 3*bound+64 images,
    compared with support_query."""
    horizon = 3 * bound + 64
    images = [s.image_of(n) for n in range(horizon)]
    for fam, index in sorted(rank_letter_set(bound)):
        try:
            claimed = s.support_query(fam, index)
        except InadmissibleError:
            return False
        actual = {n for n, img in enumerate(images) if occurrences(img, (fam, index))}
        if {n for n in claimed if n < horizon} != actual:
            return False
    return True


def injectivity_by_projection(s, levels, len_max: int):
    """The injectivity sweep of the embedding ladder one word at a time:
    for n = 1, 2, ..., every reduced word over a_0..a_{n-1} of length
    <= len_max is projected from scratch by the projector to the letters
    of rank < levels[n - 1].  Returns (injective, words checked before the
    first collision, failure messages)."""
    checked = 0
    for n, level in enumerate(levels, start=1):
        project = projector(s, rank_letter_set(level))
        seen: dict[tuple, FreeWord] = {}
        for u in enumerate_reduced([Letter("a", i) for i in range(n)], len_max):
            key = project(from_free(u)).letters
            if key in seen:
                return False, checked, [
                    f"collision at level m_{n - 1}={level}: {seen[key]} and {u}"
                ]
            seen[key] = u
            checked += 1
    return True, checked, []


def a_letter_set(n: int) -> frozenset[tuple[str, int]]:
    """The classic projection alphabet {a_0 .. a_{n-1}}."""
    return frozenset(("a", m) for m in range(n))


def retraction_by_samples(s, n_max: int, samples: int, rng):
    """The retraction identity of the embedding ladder on random words over
    the a-letters: for n = 1..n_max, up to `samples` words are projected
    by the projector to the letters below level m_{n-1} (the least m at
    which the image of a_{n-1} projects nontrivially), once as drawn and
    once after keeping only a_0 .. a_{n-1}.  Returns (n, first word on
    which the two differ) for each n with such a word."""
    failures = []
    for n in range(1, n_max + 1):
        image = s.image_of(n - 1)
        level = next(m for m in range(1, 1000) if proj_rank(image, m))
        project = projector(s, rank_letter_set(level))
        for _ in range(samples):
            w = random_word(rng, pure_a=True)
            if project(w) != project(from_free(project_finite(w, a_letter_set(n)))):
                failures.append((n, w))
                break
    return failures


def alignment_by_search(su: Schema, sv: Schema) -> tuple[int, int] | None:
    """`tail_alignment` by search: unroll both schemas to a common width,
    then try every rotation of the entry cycle, matching each pair of
    entries by `poly_shift_match` and `fam_agreement`.  Returns (delta,
    Kpos) with su's letter at p equal to sv's at p + delta for p >= Kpos,
    preferring the smallest |delta|, or None."""
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
    matches.sort(key=lambda t: abs(t[0]))
    return matches[0]


def hag_normal_by_reduce(w: SchematicWord) -> HagClass:
    """The quotient class through the whole-word pass: reduce w, keep the
    streams it leaves as germs, cancel adjacent inverse germs."""
    germs = [
        Germ(seg.schema, 1 if seg.forward else -1)
        for seg in reduce(w).segments
        if isinstance(seg, Stream)
    ]
    return _cancelled(germs)


def hag_inverse(h: HagClass) -> HagClass:
    return HagClass(tuple(Germ(g.schema, -g.sign) for g in reversed(h.germs)))


def class_word(h: HagClass, min_rank: int = 0) -> SchematicWord:
    """A word representative of h whose letters all have rank >= min_rank
    (a witness that the quotient is onto from every tail subgroup)."""
    segs = []
    for g in h.germs:
        m = g.schema.width
        k = 0
        while min(g.schema.letter_at(p).rank for p in range(k * m, (k + 1) * m)) < min_rank:
            k += 1
        segs.append(Stream(g.sign > 0, k * m, g.schema))
    return canonicalize(SchematicWord(tuple(segs)))


def _sites(w: SchematicWord):
    """Cancellation moves on a canonical word as (start, stop, pieces):
    single segments first, then junctions, each from the left."""
    segs = w.segments
    sites = []
    for i, seg in enumerate(segs):
        pieces = _unary(seg, True)
        if pieces is not None:
            sites.append((i, i + 1, pieces))
    for i in range(len(segs) - 1):
        pieces = _binary(segs[i], segs[i + 1], True)
        if pieces is not None:
            sites.append((i, i + 2, pieces))
    return sites


def random_site_reduce(w: SchematicWord, rng) -> SchematicWord:
    """The confluence oracle for `reduce`: canonicalize, apply a random
    cancellation site, repeat.  Reads the cap from `transword.words` at
    call time, so a test that lowers it reaches this loop too."""
    cap = transword.words._REDUCE_CAP
    for _ in range(cap):
        w = canonicalize(w)
        sites = _sites(w)
        if not sites:
            return w
        i, j, pieces = sites[rng.randrange(len(sites))]
        w = SchematicWord(w.segments[:i] + tuple(pieces) + w.segments[j:])
    raise CapError(f"random-site reduction reached the cap _REDUCE_CAP = {cap} rounds")


def cut_points(w: SchematicWord, stream_depth: int = 4):
    """Boundary descriptors where w may be split in two, including spots
    inside streams up to `stream_depth` positions past each cursor."""
    pts = [(len(w.segments), 0)]
    for i, seg in enumerate(w.segments):
        if isinstance(seg, FiniteBlock):
            pts.extend((i, off) for off in range(len(seg.word)))
        else:
            pts.extend((i, off) for off in range(stream_depth))
    return pts


def split_word(w: SchematicWord, cut) -> tuple[SchematicWord, SchematicWord]:
    i, off = cut
    if i >= len(w.segments):
        return w, EMPTY_WORD
    before = w.segments[:i]
    after = w.segments[i + 1 :]
    seg = w.segments[i]
    if isinstance(seg, FiniteBlock):
        head: tuple[Segment, ...] = (
            (FiniteBlock(FreeWord(seg.word.letters[:off])),) if off else ()
        )
        tail: tuple[Segment, ...] = (FiniteBlock(FreeWord(seg.word.letters[off:])),)
        return (
            SchematicWord(before + head),
            SchematicWord(tail + after),
        )
    pieces = _split_head(seg, seg.pos + off) if off else [seg]
    # a forward stream keeps its rest on the right, a backward one on the left
    cut = len(pieces) - 1 if seg.forward else 1
    return (
        SchematicWord(before + tuple(pieces[:cut])),
        SchematicWord(tuple(pieces[cut:]) + after),
    )


def apply_Ff_by_pieces(
    w: SchematicWord, fam: SigmaFamily, f: dict[str, str]
) -> SchematicWord:
    """`apply_Ff` by its definition: decompose the word, swap the word of
    each member piece for the same-position word of its image, concat."""
    parts = []
    for piece in decompose(w, fam).pieces:
        if piece.tag is None:
            parts.append(piece.word)
        else:
            img = u_word(f[piece.tag.name], piece.tag.n, fam)
            parts.append(img if piece.tag.sign > 0 else invert(img))
    return concat(*parts) if parts else EMPTY_WORD


def psi_f_by_composite(w: SchematicWord, fam: SigmaFamily, f: dict[str, str]) -> HagClass:
    """`psi_f` as the composite of its definition: reduce the whole word,
    rewrite its member intervals with `apply_Ff`, take the quotient class."""
    return hag_normal(apply_Ff(reduce(w), fam, f))


def members_below(spec: SetSpec, bound: int) -> list[int]:
    return [n for n in range(bound) if spec.contains(n)]


def indicator_classification(spec: SetSpec, shift: int = 0):
    """Classify {k >= 0 : k+shift in spec}."""
    bits = _evp_bits(spec)
    if bits is None:
        return (MIXED, None)  # prefix-code sets are infinite and co-infinite
    return _classify_bitstream(*_shift_bits(bits, shift))


def sets_equal(s1: SetSpec, s2: SetSpec) -> bool:
    """Exact extensional equality."""
    kind, K = pair_agreement(s1, s2, 0)
    if kind != COFINITE or K is None:
        return False
    return all(s1.contains(n) == s2.contains(n) for n in range(K))


def eventually_equal(s1: SetSpec, s2: SetSpec) -> bool:
    """Finite symmetric difference."""
    return pair_agreement(s1, s2, 0)[0] == COFINITE


def truncate(v: IntSeq, n: int) -> IntSeq:
    """Keep only coordinates below n (the finite projection)."""
    return IntSeq({i: val for i, val in v.entries if i < n})


def row_product_word(m: int, length: int | None = None) -> SchematicWord:
    """The product of the a-letters along pairing row m: infinite as a
    quadratic stream, or a finite truncation when length is given."""
    row = cantor_row(m)
    if length is None:
        return SchematicWord((Stream(True, 0, Schema((Entry("a", row, 1),))),))
    return from_free(FreeWord(tuple(Letter("a", row.value(i)) for i in range(length))))


def enumerate_reduced(alphabet: list[Letter], maxlen: int):
    """All reduced words of length <= maxlen over the signed alphabet, in
    deterministic (length, lexicographic) order."""
    signed = sorted(set(alphabet) | {l.inverse for l in alphabet})
    yield EMPTY
    frontier: list[tuple[Letter, ...]] = [()]
    for _ in range(maxlen):
        new_frontier = []
        for prefix in frontier:
            for l in signed:
                if prefix and cancels(prefix[-1], l):
                    continue
                ext = prefix + (l,)
                new_frontier.append(ext)
                yield FreeWord(ext)
        frontier = new_frontier


def _major_half(w: tuple[Letter, ...]) -> tuple[Letter, ...]:
    return w[: (len(w) + 1) // 2]


def _nielsen_order(w: tuple[Letter, ...]):
    """The order of Lyndon & Schupp (Combinatorial Group Theory, I.2) on
    the pairs {w, w^-1} of reduced words: by length, then by the lesser
    and then the greater of the major initial halves of w and w^-1,
    lexicographically.  Each length holds finitely many pairs, so the
    order is a well-order."""
    inverse = tuple(l.inverse for l in reversed(w))
    low, high = sorted((_major_half(w), _major_half(inverse)))
    return len(w), low, high


def _nielsen_move(gens: list[tuple[Letter, ...]]) -> bool:
    """Replace one g_i by a product g_i^e g_j^d (j != i, e, d = +-1) that is
    below it in `_nielsen_order`; False when there is none."""
    signed = [(g, tuple(l.inverse for l in reversed(g))) for g in gens]
    for i, j in itertools.permutations(range(len(gens)), 2):
        for gi, gj in itertools.product(signed[i], signed[j]):
            product = scan_reduce(FreeWord(gi + gj)).letters
            if _nielsen_order(product) < _nielsen_order(gens[i]):
                gens[i] = product
                return True
    return False


def nielsen_free_basis(gens) -> bool:
    """Whether the words `gens` freely generate a free subgroup of rank
    len(gens), by Nielsen reduction: apply `_nielsen_move` until no
    generator is trivial or no move is left.  Each move keeps the subgroup
    and the number of generators.  A set with no move left satisfies
    Nielsen's conditions N1 and N2, since a violation of either gives a
    move (the proof of Lyndon & Schupp, Prop. I.2.2), so with no trivial
    generator it is a free basis (Prop. I.2.5).  A trivial generator
    leaves len(gens) - 1 generators of the subgroup, whose rank is then
    below len(gens).  Moves strictly descend a well-order, so the loop
    ends."""
    gens = [scan_reduce(FreeWord(tuple(g))).letters for g in gens]
    while all(gens):
        if not _nielsen_move(gens):
            return True
    return False


def random_reduced_word(rng, **kw) -> SchematicWord:
    return reduce(random_word(rng, **kw))
