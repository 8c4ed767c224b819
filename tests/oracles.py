"""Independent reference implementations used to cross-check the library.

These deliberately use the naive algorithm in each case (repeated-scan
cancellation, brute-force letter enumeration over a horizon) so that the
production code paths are checked against something computed differently.
"""

from math import lcm

from transword.endo import InadmissibleError, projector
from transword.freegroup import FreeWord, Letter, enumerate_reduced, rank_letter_set
from transword.hag import Germ, HagClass
from transword.schema import COFINITE, Schema, fam_agreement, poly_shift_match, unroll
from transword.words import (
    FiniteBlock,
    SchematicWord,
    Stream,
    canonicalize,
    from_free,
    occurrences,
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
