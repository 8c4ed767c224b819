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
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
      | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<arrow>->)
      | (?P<sym>[\[\](){},:+\-^/*])
      | (?P<bad>\S)
    )""",
    re.VERBOSE,
)


@dataclass
class _Tok:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Tok]:
    toks = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind == "bad":
            raise ParseError(f"unexpected character {m[kind]!r}", text, m.start(kind))
        toks.append(_Tok(kind, m[kind], m.start(kind)))
    toks.append(_Tok("eof", "", len(text)))
    return toks


class _Parser:
    def __init__(self, text: str, env: dict[str, SetSpec] | None = None):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0
        self.env = env or {}

    def peek(self) -> _Tok:
        return self.toks[self.i]

    def next(self) -> _Tok:
        t = self.toks[self.i]
        self.i += 1
        return t

    def fail(self, msg: str):
        raise ParseError(msg, self.text, self.peek().pos)

    def expect(self, text: str) -> _Tok:
        t = self.next()
        if t.text != text:
            raise ParseError(f"expected {text!r}, found {t.text!r}", self.text, t.pos)
        return t

    def at(self, text: str) -> bool:
        return self.peek().text == text

    # -- atoms ------------------------------------------------------------

    def number(self) -> int:
        t = self.next()
        if t.kind != "number":
            raise ParseError("expected a number", self.text, t.pos)
        return int(t.text)

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
        t = self.next()
        m = re.fullmatch(r"([abc])(\d+)", t.text)
        if t.kind != "ident" or m is None:
            raise ParseError(f"expected a letter, found {t.text!r}", self.text, t.pos)
        return Letter(m.group(1), int(m.group(2)), self.sign_suffix())

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
            t = self.peek()
            if t.text == "-":
                self.next()
                sign = -1
            elif t.text == "+":
                self.next()
                sign = 1
            elif not first:
                break
            first = False
            coef = 1
            got_coef = False
            if self.peek().kind == "number":
                coef = self.number()
                got_coef = True
            if self.peek().kind == "ident" and self.peek().text == var:
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
            if self.peek().text not in ("+", "-"):
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
        t = self.peek()
        if t.text == "fin":
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
        if t.text in ("eper", "pcode"):
            kind = self.next().text
            self.expect("(")
            s1 = self._bitstring()
            self.expect(",")
            s2 = self._bitstring()
            self.expect(")")
            return make_evp(s1, s2) if kind == "eper" else PrefixCode(s1, s2)
        if t.kind == "ident" and t.text in self.env:
            self.next()
            return self.env[t.text]
        self.fail(f"expected a set spec, found {t.text!r}")
        raise AssertionError

    def _bitstring(self) -> str:
        t = self.next()
        if t.kind != "string":
            raise ParseError("expected a quoted bit string", self.text, t.pos)
        return t.text[1:-1]

    # -- words -------------------------------------------------------------

    def entry(self) -> Entry:
        t = self.peek()
        if t.text == "sel":
            self.next()
            self.expect("(")
            fam: str | SetSpec = self.setspec()
            self.expect(")")
        elif t.kind == "ident" and t.text in ("a", "b", "c"):
            fam = self.next().text
        else:
            self.fail(f"expected an entry, found {t.text!r}")
            raise AssertionError
        self.expect("(")
        idx = self.index_fn("k")
        self.expect(")")
        return Entry(fam, idx, self.sign_suffix())

    def stream(self) -> Stream:
        self.expect("st")
        self.expect("(")
        t = self.next()
        if t.text not in ("+", "-"):
            raise ParseError("stream direction must be + or -", self.text, t.pos)
        forward = t.text == "+"
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
            t = self.peek()
            if t.text == "[":
                self.next()
                letters = []
                while not self.at("]"):
                    letters.append(self.letter())
                self.next()
                segs.append(FiniteBlock(FreeWord(tuple(letters))))
            elif t.text == "st":
                segs.append(self.stream())
            elif t.kind == "ident" and re.fullmatch(r"[abc]\d+", t.text):
                letters = [self.letter()]
                while self.peek().kind == "ident" and re.fullmatch(
                    r"[abc]\d+", self.peek().text
                ):
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
            src = self.next()
            if src.kind != "ident":
                raise ParseError("expected a member name", self.text, src.pos)
            self.expect("->")
            dst = self.next()
            if dst.kind != "ident":
                raise ParseError("expected a member name or T", self.text, dst.pos)
            table[src.text] = dst.text
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

        t = self.peek()
        named = {
            "identity": identity_map,
            "telescope": telescope_map,
            "doubling": doubling_map,
            "tau": tau_map,
        }
        if t.kind == "ident" and t.text in named:
            self.next()
            return named[t.text]()
        self.expect("sub")
        self.expect("{")
        self.expect("tail")
        self.expect(":")
        self.expect("a")
        self.expect("(")
        tok = self.next()
        if tok.text != "n":
            raise ParseError("tail rule variable must be n", self.text, tok.pos)
        self.expect(")")
        self.expect("->")
        self.expect("[")
        pattern = []
        while not self.at("]"):
            fam_tok = self.next()
            if fam_tok.kind != "ident" or fam_tok.text not in ("a", "b", "c"):
                raise ParseError("expected a pattern letter", self.text, fam_tok.pos)
            self.expect("(")
            a2, a1, a0, div = self.poly("n")
            if a2 or div != 1:
                raise ParseError(
                    "tail patterns are affine in n", self.text, fam_tok.pos
                )
            self.expect(")")
            pattern.append((fam_tok.text, a1, a0, self.sign_suffix()))
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


def parse_word(text: str, env: dict[str, SetSpec] | None = None) -> SchematicWord:
    p = _Parser(text, env)
    w = p.word()
    if p.peek().kind != "eof":
        p.fail(f"trailing input {p.peek().text!r}")
    return w


def parse_setspec(text: str, env=None) -> SetSpec:
    p = _Parser(text, env)
    s = p.setspec()
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return s


def parse_sigma_map(text: str) -> dict[str, str]:
    p = _Parser(text)
    m = p.sigma_map()
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return m


def parse_substitution(text: str):
    p = _Parser(text)
    s = p.substitution()
    if p.peek().kind != "eof":
        p.fail("trailing input")
    return s


# ---------------------------------------------------------------------------
# rendering

def render_setspec(s: SetSpec, names: dict[SetSpec, str] | None = None) -> str:
    if names and s in names:
        return names[s]
    return str(s)


def render_entry(e: Entry, names=None) -> str:
    fam = e.fam if isinstance(e.fam, str) else f"sel({render_setspec(e.fam, names)})"
    return f"{fam}({e.idx})" + ("^-1" if e.sign < 0 else "")


def render_word(w: SchematicWord, names=None) -> str:
    if any(
        isinstance(seg, Stream) and seg.pos % seg.schema.width for seg in w.segments
    ):
        w = canonicalize(w)  # renderable stream positions sit on period boundaries
    parts = []
    for seg in w.segments:
        if isinstance(seg, FiniteBlock):
            parts.append("[" + " ".join(str(l) for l in seg.word) + "]")
        else:
            m = seg.schema.width
            entries = " ".join(render_entry(e, names) for e in seg.schema.entries)
            parts.append(
                f"st({'+' if seg.forward else '-'},{seg.pos // m},{{{entries}}})"
            )
    return " ".join(parts) if parts else "[]"
