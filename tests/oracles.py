"""Independent reference implementations used to cross-check the library.

These deliberately use the naive algorithm in each case (repeated-scan
cancellation, brute-force letter enumeration over a horizon) so that the
production code paths are checked against something computed differently.
The helpers at the bottom serve only the tests: the random-site rewrite
order, cutting a word in two, set equality and indicator classification,
truncated sequences, pairing-row words, reduced-word enumeration and
random reduced schematic words.
"""

from math import lcm

import transword.words
from transword.abelian import IntSeq
from transword.endo import InadmissibleError, cantor_row, projector
from transword.freegroup import EMPTY, FreeWord, Letter, cancels, rank_letter_set
from transword.hag import Germ, HagClass
from transword.randwords import random_word
from transword.schema import (
    COFINITE,
    Entry,
    Schema,
    fam_agreement,
    poly_shift_match,
    unroll,
)
from transword.setspec import (
    MIXED,
    SetSpec,
    _classify_bitstream,
    _evp_bits,
    _shift_bits,
    pair_agreement,
)
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
    from_free,
    occurrences,
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


def stream_display_prefix(seg: Stream, count: int) -> list[Letter]:
    """First `count` displayed letters of a forward stream."""
    assert seg.forward
    return [seg.schema.letter_at(p) for p in range(seg.pos, seg.pos + count)]


def stream_display_suffix(seg: Stream, count: int) -> list[Letter]:
    """Last `count` displayed letters of a backward stream."""
    assert not seg.forward
    return [
        seg.schema.letter_at(p).inverse
        for p in range(seg.pos + count - 1, seg.pos - 1, -1)
    ]


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


def display_prefixes_equal(w1: SchematicWord, w2: SchematicWord, depth: int) -> bool:
    """Letterwise comparison of leading display letters of all-forward words."""
    def prefix(w):
        out = []
        for seg in w.segments:
            if isinstance(seg, FiniteBlock):
                out.extend(seg.word)
            else:
                out.extend(stream_display_prefix(seg, depth))
                break
        return out[:depth]

    return prefix(w1) == prefix(w2)


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


def random_reduced_word(rng, **kw) -> SchematicWord:
    return reduce(random_word(rng, **kw))
