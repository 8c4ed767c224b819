"""Textual syntax for words, set specs, family maps and substitutions.

Words:      `a0 b3^-1`  `[a0 a1^-1]`  `st(+,0,{a(k) a(k+1)^-1})`
            `st(-,2,{sel(pcode("","0"))(k)})`
Set specs:  `fin{0,3}`  `eper("011","10")`  `pcode("0","1")`
Family map: `f{S1->T, S2->S2}`   (member names need a family context)
Substitution: `sub{tail: a(n) -> [a(2n) a(2n+1)], except: 0 -> [a0 a1]}`
            or one of the named rules `identity`, `telescope`, `doubling`,
            `tau`.

The grammar is whitespace-insensitive; errors carry the offending
position.  `render_*` emit text that re-parses to an equal value.

The word grammar, over the tokens of `_TOKEN` (N a number, BITS a quoted
bit string, NAME a set name of the environment):

    word    := segment*
    segment := '[' letter* ']' | letter+
             | 'st' '(' ('+'|'-') ',' N ',' '{' entry+ '}' ')'
    letter  := a LETTER token such as `b3`, then exp?
    exp     := '^' ('+'|'-')? 1
    entry   := ('a' | 'b' | 'c' | 'sel' '(' spec ')') '(' index ')' exp?
    spec    := 'fin' '{' (N (',' N)*)? '}'
             | ('eper' | 'pcode') '(' BITS ',' BITS ')' | NAME
    index   := poly | '(' poly ')' ('/' N)?
    poly    := ('+'|'-')? term (('+'|'-') term)*
    term    := N | N? 'k' ('^' 2)?

No rule refers to itself, so the grammar is regular, and `parse_word`
reads a word with one `findall` of a compiled pattern, `_SEGMENT`: one
match per block, bare letter or stream, whose groups hold a stream's
header and first entry.  A block's letters, a stream's other entries and
a polynomial's terms take one more `findall` each, and the interned
values are built straight from the groups.  When a character starts no
segment, letter or entry there, or a constructor refuses what was read,
`parse_word` runs the descent parser `_Parser` on the whole text
instead, so the value or the `ParseError` (message, line and column) is
always the one `_Parser` gives.  `_Parser` also reads set specs, family
maps and substitutions (whose exceptional images are words), and it is
the reference the scanner is tested against.
"""

from __future__ import annotations

import re

from .freegroup import FreeWord, Letter
from .schema import Entry, IndexFn, Schema
from .setspec import Finite, PrefixCode, SetSpec, make_evp
from .words import FiniteBlock, SchematicWord, Stream, canonicalize


class ParseError(ValueError):
    def __init__(self, msg: str, text: str, pos: int):
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"parse error at line {line}, column {col}: {msg}")
        self.pos = pos
        self.line = line
        self.col = col


_TOKEN = re.compile(
    r"""\s*(?:
        (?P<string>"[01]*")
      | (?P<number>\d+)
      | (?P<letter>[abc][0-9]+(?![A-Za-z_0-9]))
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<arrow>->)
      | (?P<sym>[\[\](){},:+\-^/*])
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


# tokens are (kind, text, pos) tuples; a letter such as `b3` is a whole
# identifier, and a member or set name may look like one
_NAMES = ("ident", "letter")


def _tokenize(text: str) -> list[tuple[str, str, int]]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", text, m.start(kind))
        toks.append((kind, m[kind], m.start(kind)))
    toks.append(("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, env: dict[str, SetSpec] | None = None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.env = env or {}

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str):
        raise ParseError(msg, self.text, self.peek()[2])

    def expect(self, text: str) -> tuple[str, str, int]:
        t = self.next()
        if t[1] != text:
            raise ParseError(f"expected {text!r}, found {t[1]!r}", self.text, t[2])
        return t

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    # -- atoms ------------------------------------------------------------

    def number(self) -> int:
        kind, text, pos = self.next()
        if kind != "number":
            raise ParseError("expected a number", self.text, pos)
        return int(text)

    def sign_suffix(self) -> int:
        if self.at("^"):
            self.next()
            neg = False
            if self.at("-"):
                self.next()
                neg = True
            elif self.at("+"):
                self.next()
            if self.number() != 1:
                self.fail("only exponents +1 and -1 exist here")
            return -1 if neg else 1
        return 1

    def letter(self) -> Letter:
        kind, text, pos = self.next()
        if kind != "letter":
            raise ParseError(f"expected a letter, found {text!r}", self.text, pos)
        return Letter(text[0], int(text[1:]), self.sign_suffix())

    def poly(self, var: str) -> tuple[int, int, int, int]:
        """(a2, a1, a0, div) of a polynomial in `var`, deg <= 2."""
        if self.at("("):
            save = self.i
            self.next()
            a2, a1, a0 = self._poly_body(var)
            if self.at(")"):
                self.next()
                if self.at("/"):
                    self.next()
                    return a2, a1, a0, self.number()
                return a2, a1, a0, 1
            self.i = save
        a2, a1, a0 = self._poly_body(var)
        return a2, a1, a0, 1

    def _poly_body(self, var: str) -> tuple[int, int, int]:
        a2 = a1 = a0 = 0
        sign = 1
        first = True
        while True:
            t = self.peek()[1]
            if t == "-":
                self.next()
                sign = -1
            elif t == "+":
                self.next()
                sign = 1
            elif not first:
                break
            first = False
            coef = 1
            got_coef = False
            if self.peek()[0] == "number":
                coef = self.number()
                got_coef = True
            if self.peek()[:2] == ("ident", var):
                self.next()
                if self.at("^"):
                    self.next()
                    if self.number() != 2:
                        self.fail("only k and k^2 terms are allowed")
                    a2 += sign * coef
                else:
                    a1 += sign * coef
            elif got_coef:
                a0 += sign * coef
            else:
                self.fail(f"expected a {var}-term or number")
            sign = 1
            if self.peek()[1] not in ("+", "-"):
                break
        return a2, a1, a0

    def index_fn(self, var: str = "k") -> IndexFn:
        a2, a1, a0, div = self.poly(var)
        try:
            return IndexFn(a2, a1, a0, div)
        except ValueError as e:
            self.fail(str(e))
            raise  # unreachable

    # -- set specs ---------------------------------------------------------

    def setspec(self) -> SetSpec:
        kind, text, pos = self.peek()
        if text == "fin":
            self.next()
            self.expect("{")
            elems = []
            if not self.at("}"):
                elems.append(self.number())
                while self.at(","):
                    self.next()
                    elems.append(self.number())
            self.expect("}")
            return Finite(elems)
        if text in ("eper", "pcode"):
            kind = self.next()[1]
            self.expect("(")
            s1 = self._bitstring()
            self.expect(",")
            s2 = self._bitstring()
            self.expect(")")
            try:
                return make_evp(s1, s2) if kind == "eper" else PrefixCode(s1, s2)
            except ValueError as e:  # an empty period
                raise ParseError(str(e), self.text, pos) from None
        if kind in _NAMES and text in self.env:
            self.next()
            return self.env[text]
        self.fail(f"expected a set spec, found {text!r}")
        raise AssertionError

    def _bitstring(self) -> str:
        kind, text, pos = self.next()
        if kind != "string":
            raise ParseError("expected a quoted bit string", self.text, pos)
        return text[1:-1]

    # -- words -------------------------------------------------------------

    def entry(self) -> Entry:
        kind, text, _ = self.peek()
        if text == "sel":
            self.next()
            self.expect("(")
            fam: str | SetSpec = self.setspec()
            self.expect(")")
        elif kind == "ident" and text in ("a", "b", "c"):
            fam = self.next()[1]
        else:
            self.fail(f"expected an entry, found {text!r}")
            raise AssertionError
        self.expect("(")
        idx = self.index_fn("k")
        self.expect(")")
        return Entry(fam, idx, self.sign_suffix())

    def stream(self) -> Stream:
        self.expect("st")
        self.expect("(")
        _, text, pos = self.next()
        if text not in ("+", "-"):
            raise ParseError("stream direction must be + or -", self.text, pos)
        forward = text == "+"
        self.expect(",")
        k0 = self.number()
        self.expect(",")
        self.expect("{")
        entries = [self.entry()]
        while not self.at("}"):
            entries.append(self.entry())
        self.expect("}")
        self.expect(")")
        try:
            return Stream(forward, k0 * len(entries), Schema(tuple(entries)))
        except ValueError as e:
            self.fail(str(e))
            raise AssertionError

    def word(self) -> SchematicWord:
        segs = []
        while True:
            kind, text, _ = self.peek()
            if text == "[":
                self.next()
                letters = []
                while not self.at("]"):
                    letters.append(self.letter())
                self.next()
                segs.append(FiniteBlock(FreeWord(tuple(letters))))
            elif text == "st":
                segs.append(self.stream())
            elif kind == "letter":
                letters = [self.letter()]
                while self.peek()[0] == "letter":
                    letters.append(self.letter())
                segs.append(FiniteBlock(FreeWord(tuple(letters))))
            else:
                break
        return SchematicWord(tuple(segs))

    # -- maps ----------------------------------------------------------------

    def sigma_map(self) -> dict[str, str]:
        self.expect("f")
        self.expect("{")
        table: dict[str, str] = {}
        while not self.at("}"):
            kind, src, pos = self.next()
            if kind not in _NAMES:
                raise ParseError("expected a member name", self.text, pos)
            self.expect("->")
            kind, dst, pos = self.next()
            if kind not in _NAMES:
                raise ParseError("expected a member name or T", self.text, pos)
            table[src] = dst
            if self.at(","):
                self.next()
        self.expect("}")
        return table

    def substitution(self):
        from .endo import (
            AffineRule,
            SubstitutionMap,
            doubling_map,
            identity_map,
            tau_map,
            telescope_map,
        )

        kind, text, _ = self.peek()
        named = {
            "identity": identity_map,
            "telescope": telescope_map,
            "doubling": doubling_map,
            "tau": tau_map,
        }
        if kind == "ident" and text in named:
            self.next()
            return named[text]()
        self.expect("sub")
        self.expect("{")
        self.expect("tail")
        self.expect(":")
        self.expect("a")
        self.expect("(")
        _, text, pos = self.next()
        if text != "n":
            raise ParseError("tail rule variable must be n", self.text, pos)
        self.expect(")")
        self.expect("->")
        self.expect("[")
        pattern = []
        while not self.at("]"):
            kind, fam, pos = self.next()
            if kind != "ident" or fam not in ("a", "b", "c"):
                raise ParseError("expected a pattern letter", self.text, pos)
            self.expect("(")
            a2, a1, a0, div = self.poly("n")
            if a2 or div != 1:
                raise ParseError("tail patterns are affine in n", self.text, pos)
            self.expect(")")
            pattern.append((fam, a1, a0, self.sign_suffix()))
        self.next()
        exceptional = []
        while self.at(","):
            self.next()
            self.expect("except")
            self.expect(":")
            n = self.number()
            self.expect("->")
            exceptional.append((n, self.word()))
        self.expect("}")
        return SubstitutionMap(AffineRule(tuple(pattern)), tuple(exceptional))


# -- the segment scanner (module docstring) -----------------------------------

# An identifier (`st`, `k`, a letter, a set name) ends where `_TOKEN` ends
# it, and a number whose value is checked is matched whole.
_IDENT_END = r"(?![A-Za-z_0-9])"
_EXP = r"(?:\s*\^\s*([+-]?)\s*0*1(?!\d))?"  # group: the exponent's sign
_LETTER = rf"([abc])([0-9]+){_IDENT_END}{_EXP}"  # groups: family, index, sign
_TERM = r"(?:\d+\s*)?k(?:\s*\^\s*0*2(?!\d))?|\d+"
_POLY = rf"[+-]?\s*(?:{_TERM})(?:\s*[+-]\s*(?:{_TERM}))*"
# groups: literal family; the numbers of `fin{...}`; eper or pcode and its
# two bit strings; set name; a1 and a0 of a plain `k`, `2k` or `k+3`; any other
# polynomial, in parentheses with its divisor or bare; the exponent's sign
_ENTRY = (
    r"(?:([abc])|sel\s*\(\s*(?:"
    r"fin\s*\{\s*((?:\d+(?:\s*,\s*\d+)*)?)\s*\}"
    r'|(eper|pcode)\s*\(\s*"([01]*)"\s*,\s*"([01]*)"\s*\)'
    rf"|((?!(?:fin|eper|pcode){_IDENT_END})[A-Za-z_][A-Za-z_0-9]*)"
    r")\s*\))\s*\((?:(\d*)k(?:\+(\d+))?\)"
    rf"|\s*(?:\(\s*({_POLY})\s*\)(?:\s*/\s*(\d+))?|({_POLY}))\s*\)){_EXP}"
)


# One segment a match: a block (its bracket and the text up to the
# closing one), a letter of a bare run, a stream (direction, start, its
# first entry's groups, and the text of its other entries up to its
# closing brace), or any other character, which leaves every group empty
# and ends the scan.  A block's letters and a stream's other entries are
# read by `_LETTERS` and `_ENTRIES`, which match any other character too: a
# pattern that repeated the letter or entry pattern would hold the
# matcher's state for every repetition.  (19 groups: CPython 3.11 keeps
# freed 20-tuples on a free list that it never reuses.)
_SEGMENT = re.compile(
    r"\s*(?:(\[[^\]]*)\]"
    rf"|{_LETTER}"
    rf"|st\s*\(\s*([+-])\s*,\s*(\d+)\s*,\s*\{{\s*{_ENTRY}"
    r"([^{}]*(?:\{[^{}]*\}[^{}]*)*)\}\s*\)"
    r"|\S)"
)
_LETTERS = re.compile(rf"\s*(?:{_LETTER}|(\S))")
_ENTRIES = re.compile(rf"\s*(?:{_ENTRY}|(\S))")
# groups: sign, coefficient, `k`, `^2`; one match per term of a matched
# polynomial, and an empty one at its end
_TERMS = re.compile(r"\s*([+-]?)\s*(\d*)\s*(k?)(\s*\^\s*\d+)?")
_SIGN = {"": 1, "+": 1, "-": -1}


def _scan_word(text: str, env) -> SchematicWord | None:
    """The word `_Parser` reads from `text`, built from the matches of
    `_SEGMENT`; None when the scan meets a character no segment starts
    with, or a constructor refuses what it read, and `_Parser` decides."""
    segs: list = []
    run = None  # the letters of an open bare run
    try:
        for (
            block, fam, index, sign, direction, k0,
            lit, fin, kind, s1, s2, name, a1, a0, paren, div, bare, esign,
            more,
        ) in _SEGMENT.findall(text):
            if fam:
                if run is None:
                    run = []
                    segs.append(run)
                run.append(Letter(fam, int(index), _SIGN[sign]))
                continue
            if run is not None:
                segs[-1] = FiniteBlock(FreeWord(tuple(run)))
                run = None
            if direction:
                first = (lit, fin, kind, s1, s2, name, a1, a0, paren, div, bare, esign, "")
                entries = [_entry(*first, env)]
                if more:
                    for groups in _ENTRIES.findall(more):
                        entries.append(_entry(*groups, env))
                schema = Schema(tuple(entries))
                segs.append(Stream(direction == "+", int(k0) * schema.width, schema))
            elif block:
                # a character that starts no letter leaves the index empty,
                # and int("") raises
                found = _LETTERS.findall(block, 1)
                letters = tuple([Letter(f, int(i), _SIGN[s]) for f, i, s, _ in found])
                segs.append(FiniteBlock(FreeWord(letters)))
            else:
                return None
    except ValueError:
        return None
    if run is not None:
        segs[-1] = FiniteBlock(FreeWord(tuple(run)))
    return SchematicWord(tuple(segs))


def _entry(lit, fin, kind, s1, s2, name, a1, a0, paren, div, bare, sign, bad, env) -> Entry:
    """The entry of one match of `_ENTRY`; ValueError when the match is a
    character that starts no entry (`bad`), a constructor refuses it or
    its set name is not in `env`."""
    if bad:
        raise ValueError(f"no entry starts at {bad!r}")
    if lit:
        fam = lit
    elif kind:
        fam = make_evp(s1, s2) if kind == "eper" else PrefixCode(s1, s2)
    elif name:
        if name not in env:
            raise ValueError(f"unknown set name {name!r}")
        fam = env[name]
    else:  # `fin{...}`, the one alternative that may match no text
        fam = Finite(map(int, fin.split(","))) if fin else Finite(())
    poly = paren or bare
    if not poly:
        return Entry(fam, IndexFn(0, int(a1) if a1 else 1, int(a0) if a0 else 0), _SIGN[sign])
    a2 = a1 = a0 = 0
    for neg, coef, k, square in _TERMS.findall(poly):
        c = int(coef) if coef else 1
        if neg == "-":
            c = -c
        if square:
            a2 += c
        elif k:
            a1 += c
        elif coef:
            a0 += c
    return Entry(fam, IndexFn(a2, a1, a0, int(div) if div else 1), _SIGN[sign])


def parse_word(text: str, env: dict[str, SetSpec] | None = None) -> SchematicWord:
    w = _scan_word(text, env or {})
    return _descent_word(text, env) if w is None else w


def _parse_whole(text: str, rule: str, env=None):
    """What the `_Parser` method named `rule` reads from the whole text, or
    its `ParseError`; text left after the rule is an error naming its
    token."""
    p = _Parser(text, env)
    value = getattr(p, rule)()
    if p.peek()[0] != "eof":
        p.fail(f"trailing input {p.peek()[1]!r}")
    return value


def _descent_word(text: str, env=None) -> SchematicWord:
    """`_Parser`'s reading of a whole word, or its `ParseError`."""
    return _parse_whole(text, "word", env)


def parse_setspec(text: str, env=None) -> SetSpec:
    return _parse_whole(text, "setspec", env)


def parse_sigma_map(text: str) -> dict[str, str]:
    return _parse_whole(text, "sigma_map")


def parse_substitution(text: str):
    return _parse_whole(text, "substitution")


# ---------------------------------------------------------------------------
# rendering

def render_setspec(s: SetSpec, names: dict[SetSpec, str] | None = None) -> str:
    if names and s in names:
        return names[s]
    return str(s)


def render_entry(e: Entry, names=None) -> str:
    """The entry's text; without set names it is kept in the entry's
    `_text` slot on first render."""
    text = None if names else e._text
    if text is None:
        fam = e.fam if isinstance(e.fam, str) else f"sel({render_setspec(e.fam, names)})"
        text = f"{fam}({e.idx})" + ("^-1" if e.sign < 0 else "")
        if not names:
            object.__setattr__(e, "_text", text)
    return text


def render_word(w: SchematicWord, names=None) -> str:
    if any(
        isinstance(seg, Stream) and seg.pos % seg.schema.width for seg in w.segments
    ):
        w = canonicalize(w)  # renderable stream positions sit on period boundaries
    parts = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            parts.append("[" + " ".join(map(str, seg.word.letters)) + "]")
        else:
            m = seg.schema.width
            entries = " ".join([render_entry(e, names) for e in seg.schema.entries])
            parts.append(
                f"st({'+' if seg.forward else '-'},{seg.pos // m},{{{entries}}})"
            )
    return " ".join(parts) if parts else "[]"
