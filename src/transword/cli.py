"""Command-line front end.

Subcommands: reduce, project, decompose, apply-ff, apply-endo, hag,
demo-separation, demo-abelian, embedding-check.  Words and maps are given
in the textual DSL; `--family k=K` regenerates the deterministic family
of size K so member names S1..SK may appear in expressions.  Exit status:
0 on success, 1 on domain errors, 2 on parse errors, 3 when a rewrite or
cancellation scan reaches its cap (the message names the cap).
`demo-abelian` builds and prints all 2^K evaluation rows, so it refuses
K above ABELIAN_K_MAX = 16 with exit status 1 before building any.
`demo-separation` builds and keeps one K-bit pattern for each of the 2^K
subsets, evaluating at most K image words for each, so it refuses K above
SEPARATION_K_MAX = 16 with exit status 1 before building the family.
`--family k=K` builds K(K-1)/2 intersection bounds, so it refuses K above
FAMILY_K_MAX = 256 the same way.  `project` builds every letter of rank
below N, so it refuses N above PROJECT_N_MAX = 10**6 with exit status 1
before building any.  `embedding-check` filters a table of pieces per level
from one projector and reports a word count with about L*log10(2*NMAX) digits, so it refuses
--nmax above EMBEDDING_N_MAX = 200 and --lenmax above
EMBEDDING_LEN_MAX = 1000 with exit status 1 before parsing the map.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import abelian, dsl, endo, hag, sigma, words

ABELIAN_K_MAX = 16  # demo-abelian prints 2^K rows
SEPARATION_K_MAX = 16  # demo-separation keeps 2^K patterns, at most K words each
FAMILY_K_MAX = 256  # --family k=K builds K(K-1)/2 intersection bounds
PROJECT_N_MAX = 10**6  # project -N N builds every letter of rank < N
EMBEDDING_N_MAX = 200  # embedding-check filters a table of pieces per level
EMBEDDING_LEN_MAX = 1000  # the word count at --lenmax L has ~L*log10(2*NMAX) digits


def _family_arg(text: str):
    if not text.startswith("k="):
        raise dsl.ParseError("expected k=<size>", text, 0)
    try:
        size = int(text[2:])
    except ValueError:
        raise dsl.ParseError("expected an integer size after k=", text, 2) from None
    if size > FAMILY_K_MAX:
        raise ValueError(f"family size must be at most {FAMILY_K_MAX}, got {size}")
    return sigma.make_family(size)


def _emit(report: dict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    for key, value in report.items():
        if isinstance(value, list):
            print(f"{key}:")
            for item in value:
                print(f"  {item}")
        else:
            print(f"{key}: {value}")


def _add_common(p: argparse.ArgumentParser, expr=False, family=False):
    if expr:
        p.add_argument("-e", "--expr", required=True, help="word expression")
    if family:
        p.add_argument(
            "--family",
            type=str,
            default=None,
            help="k=K: deterministic family of size K for member names",
        )
    p.add_argument("--format", choices=("text", "json"), default="text")


def _parse_args(argv):
    ap = argparse.ArgumentParser(prog="transword")
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("reduce", help="reduced canonical form of a word")
    _add_common(p, expr=True, family=True)

    p = sub.add_parser("project", help="projection to letters of rank < N")
    _add_common(p, expr=True, family=True)
    p.add_argument("-N", type=int, required=True, help="rank level")

    p = sub.add_parser("decompose", help="maximal member-interval decomposition")
    _add_common(p, expr=True, family=True)

    p = sub.add_parser("apply-ff", help="rewrite member intervals along a map")
    _add_common(p, expr=True, family=True)
    p.add_argument("-f", "--map", required=True, help="f{S1->T, S2->S2, ...}")

    p = sub.add_parser("apply-endo", help="apply a substitution to a word")
    _add_common(p, expr=True, family=True)
    p.add_argument("-s", "--sub", required=True, help="substitution expression")

    p = sub.add_parser("hag", help="archipelago germ normal form")
    _add_common(p, expr=True, family=True)

    p = sub.add_parser("demo-separation", help="subset separation sweep")
    p.add_argument("-k", type=int, default=8, help="family size")
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("demo-abelian", help="coordinate-sum functional count")
    p.add_argument("-k", type=int, default=10)
    p.add_argument("-p", type=int, default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("embedding-check", help="verify the embedding ladder")
    p.add_argument("-s", "--sub", default="doubling", help="substitution expression")
    p.add_argument("--nmax", type=int, default=3)
    p.add_argument("--lenmax", type=int, default=4)
    p.add_argument("--format", choices=("text", "json"), default="text")

    return ap.parse_args(argv)


def _run(args) -> dict:
    fam = _family_arg(args.family) if getattr(args, "family", None) else None
    env = dict(fam.items()) if fam else {}
    names = fam.render_names() if fam else None

    if args.cmd == "reduce":
        w = dsl.parse_word(args.expr, env)
        return {
            "input": args.expr,
            "result": dsl.render_word(words.reduce(w), names),
        }
    if args.cmd == "project":
        if args.N > PROJECT_N_MAX:
            raise ValueError(f"N must be at most {PROJECT_N_MAX}, got {args.N}")
        w = dsl.parse_word(args.expr, env)
        return {
            "input": args.expr,
            "level": args.N,
            "result": str(words.proj_rank(w, args.N)),
        }
    if args.cmd == "decompose":
        if fam is None:
            raise ValueError("decompose needs --family k=K")
        w = dsl.parse_word(args.expr, env)
        dec = sigma.decompose(words.reduce(w), fam)
        pieces = []
        for piece in dec.pieces:
            if piece.tag is None:
                pieces.append(f"plain: {dsl.render_word(piece.word, names)}")
            else:
                t = piece.tag
                sign = "+" if t.sign > 0 else "-"
                pieces.append(
                    f"maximal({t.name},{t.n},{sign}): "
                    f"{dsl.render_word(piece.word, names)}"
                )
        return {"input": args.expr, "pieces": pieces}
    if args.cmd == "apply-ff":
        if fam is None:
            raise ValueError("apply-ff needs --family k=K")
        w = dsl.parse_word(args.expr, env)
        table = dsl.parse_sigma_map(args.map)
        out = sigma.apply_Ff(words.reduce(w), fam, table)
        return {
            "input": args.expr,
            "map": args.map,
            "result": dsl.render_word(out, names),
        }
    if args.cmd == "apply-endo":
        w = dsl.parse_word(args.expr, env)
        s = dsl.parse_substitution(args.sub)
        return {
            "input": args.expr,
            "result": dsl.render_word(endo.apply_endo(s, w), names),
        }
    if args.cmd == "hag":
        w = dsl.parse_word(args.expr, env)
        h = hag.hag_normal(w)
        return {"input": args.expr, "result": hag.render_class(h, names)}
    if args.cmd == "demo-separation":
        if args.k > SEPARATION_K_MAX:
            raise ValueError(f"k must be at most {SEPARATION_K_MAX}, got {args.k}")
        fam = sigma.make_family(args.k)
        patterns = set()
        total = 0
        ok = True
        subsets = range(1 << args.k)
        for mask in subsets:
            chosen = {fam.names[i] for i in range(args.k) if mask >> i & 1}
            pattern = sigma.separation_pattern(fam, chosen)
            expected = tuple(1 if fam.names[i] in chosen else 0 for i in range(args.k))
            ok = ok and pattern == expected
            patterns.add(pattern)
            total += 1
        verdict = f"{len(patterns)}/{total} patterns distinct"
        return {
            "family": args.k,
            "verdict": verdict,
            "characteristic": "all match" if ok else "MISMATCH",
        }
    if args.cmd == "demo-abelian":
        if args.k > ABELIAN_K_MAX:
            raise ValueError(f"k must be at most {ABELIAN_K_MAX}, got {args.k}")
        count = abelian.distinct_homs_demo(args.k, args.p)
        matrix = [
            "".join(str(b) for b in row)
            for row in abelian.evaluation_matrix(args.k, args.p)
        ]
        return {
            "k": args.k,
            "p": args.p,
            "distinct": count,
            "expected": 1 << args.k,
            "matrix": matrix,
        }
    if args.cmd == "embedding-check":
        if args.nmax > EMBEDDING_N_MAX:
            raise ValueError(f"nmax must be at most {EMBEDDING_N_MAX}, got {args.nmax}")
        if args.lenmax > EMBEDDING_LEN_MAX:
            raise ValueError(f"lenmax must be at most {EMBEDDING_LEN_MAX}, got {args.lenmax}")
        s = dsl.parse_substitution(args.sub)
        rep = endo.embedding_check(s, args.nmax, args.lenmax)
        return {"substitution": args.sub, "report": rep.lines()}
    raise AssertionError(args.cmd)


def main(argv=None) -> int:
    args = _parse_args(argv if argv is not None else sys.argv[1:])
    try:
        report = _run(args)
    except dsl.ParseError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except words.CapError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    _emit(report, args.format)
    return 0


if __name__ == "__main__":
    sys.exit(main())
