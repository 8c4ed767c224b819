"""Independent reference implementations used to cross-check the library.

These deliberately use the naive algorithm in each case (repeated-scan
cancellation, brute-force letter enumeration over a horizon) so that the
production code paths are checked against something computed differently.
"""

from transword.endo import InadmissibleError, projector
from transword.freegroup import FreeWord, Letter, enumerate_reduced, rank_letter_set
from transword.words import (
    FiniteBlock,
    SchematicWord,
    Stream,
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
