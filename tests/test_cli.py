import io
import json
from contextlib import redirect_stderr, redirect_stdout

import transword.abelian
import transword.sigma
from transword.cli import ABELIAN_K_MAX, FAMILY_K_MAX, SEPARATION_K_MAX, main
from transword.freegroup import reduced_word_count


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_reduce_inverse_pair():
    code, out, _ = run(
        ["reduce", "-e", "st(-,0,{sel(S1)(k)}) st(+,0,{sel(S1)(k)})", "--family", "k=2"]
    )
    assert code == 0
    assert "result: []" in out


def test_project_telescope():
    code, out, _ = run(["project", "-e", "st(+,0,{a(k) a(k+1)^-1})", "-N", "3"])
    assert code == 0
    assert "result: [a0]" in out


def test_project_rejects_negative_level():
    code, out, err = run(["project", "-e", "[a1 b2]", "-N", "-5"])
    assert code == 1
    assert out == ""
    assert "rank level" in err and "-5" in err


def test_demo_separation_verdict():
    code, out, _ = run(["demo-separation", "-k", "4"])
    assert code == 0
    assert "16/16 patterns distinct" in out
    assert "all match" in out


def test_demo_separation_refuses_large_k(monkeypatch):
    def refuse(k):
        raise AssertionError("make_family was called")

    monkeypatch.setattr(transword.sigma, "make_family", refuse)
    code, out, err = run(["demo-separation", "-k", str(SEPARATION_K_MAX + 1)])
    assert code == 1
    assert out == ""
    assert f"k must be at most {SEPARATION_K_MAX}" in err and "Traceback" not in err


def test_family_arg_refuses_large_k(monkeypatch):
    real = transword.sigma.make_family
    built = []

    def refuse(k):
        if k > FAMILY_K_MAX:
            raise AssertionError("make_family was called")
        built.append(k)
        return real(2)

    monkeypatch.setattr(transword.sigma, "make_family", refuse)
    expr = "st(+,0,{sel(S1)(k)})"
    for size in (FAMILY_K_MAX + 1, 99999):
        code, out, err = run(["decompose", "-e", expr, "--family", f"k={size}"])
        assert code == 1
        assert out == ""
        assert f"at most {FAMILY_K_MAX}" in err and "Traceback" not in err
    code, out, _ = run(["decompose", "-e", expr, "--family", f"k={FAMILY_K_MAX}"])
    assert code == 0 and built == [FAMILY_K_MAX]


def test_demo_abelian_json():
    code, out, _ = run(["demo-abelian", "-k", "4", "-p", "3", "--format", "json"])
    assert code == 0
    data = json.loads(out)
    assert data["distinct"] == 16 == data["expected"]


def test_demo_abelian_refuses_large_k(monkeypatch):
    def refuse(k, p):
        raise AssertionError("evaluation_matrix was called")

    monkeypatch.setattr(transword.abelian, "evaluation_matrix", refuse)
    code, out, err = run(["demo-abelian", "-k", str(ABELIAN_K_MAX + 1)])
    assert code == 1
    assert out == ""
    assert f"k must be at most {ABELIAN_K_MAX}" in err and "Traceback" not in err


def test_decompose_report():
    code, out, _ = run(
        ["decompose", "-e", "[b0] st(+,1,{sel(S1)(k)})", "--family", "k=2"]
    )
    assert code == 0
    assert "maximal(S1,0,+)" in out


def test_decompose_reduces_input_first():
    # as apply-ff does; the library's decompose still rejects unreduced words
    expr = "[a0 a0^-1] st(+,0,{sel(S1)(k)})"
    code, out, err = run(["decompose", "-e", expr, "--family", "k=2"])
    assert code == 0, err
    assert out.splitlines()[1:] == ["pieces:", "  maximal(S1,0,+): st(+,0,{sel(S1)(k)})"]
    code, out, _ = run(["apply-ff", "-e", expr, "-f", "f{S1->T, S2->S2}", "--family", "k=2"])
    assert code == 0
    assert "result: st(+,0,{a(k)})" in out


def test_decompose_mixed_pieces():
    code, out, _ = run(
        ["decompose", "-e", "[a0 b1] st(+,2,{sel(S1)(k)}) [c5]", "--family", "k=2"]
    )
    assert code == 0
    assert out.splitlines()[1:] == [
        "pieces:",
        "  plain: [a0]",
        "  maximal(S1,1,+): st(+,1,{sel(S1)(k)})",
        "  plain: [c5]",
    ]


def test_apply_ff():
    code, out, _ = run(
        [
            "apply-ff",
            "-e",
            "st(+,0,{sel(S1)(k)})",
            "-f",
            "f{S1->T, S2->S2}",
            "--family",
            "k=2",
        ]
    )
    assert code == 0
    assert "st(+,0,{a(k)})" in out


def test_apply_endo_named_rule():
    code, out, _ = run(["apply-endo", "-e", "[a1 a2]", "-s", "doubling"])
    assert code == 0
    assert "[a2 a3 a4 a5]" in out


def test_hag_germs():
    code, out, _ = run(["hag", "-e", "[a0] st(+,2,{sel(S2)(k)})", "--family", "k=2"])
    assert code == 0
    result = [l for l in out.splitlines() if l.startswith("result:")][0]
    assert "germ-seq" in result and "sel(S2)" in result


def test_hag_erases_the_cursor():
    # a germ renders the stream's schema, not the shift its cursor makes
    for expr in ("st(+,2,{a(k)})", "st(+,0,{a(k)})"):
        code, out, _ = run(["hag", "-e", expr])
        assert code == 0
        assert "result: germ-seq: [{a(k)}+]" in out


def test_embedding_check_cli():
    code, out, _ = run(["embedding-check", "-s", "doubling", "--nmax", "2", "--lenmax", "3"])
    assert code == 0
    assert "verdict: PASS" in out
    assert "retraction identity (all words): yes" in out


def test_embedding_check_cli_long_words():
    # the pieces are free bases, so the verdict covers every word unwalked
    code, out, _ = run(["embedding-check", "-s", "doubling", "--nmax", "3", "--lenmax", "10"])
    words = sum(reduced_word_count(n, 10) for n in (1, 2, 3))
    assert code == 0
    assert "verdict: PASS" in out
    assert f"injectivity ({words} reduced words): yes" in out


def test_embedding_check_cli_high_level():
    spec = "sub{tail: a(n) -> [a(n)], except: 2 -> [a2 a500 a2^-1]}"
    code, out, _ = run(["embedding-check", "-s", spec, "--nmax", "2", "--lenmax", "3"])
    assert code == 0
    assert "levels m_n: [1, 4, 1501]" in out
    assert "injectivity (60 reduced words): yes" in out
    assert "verdict: PASS" in out


def test_embedding_check_cli_inadmissible():
    spec = "sub{tail: a(n) -> [a(n) a(1)]}"
    code, out, _ = run(["embedding-check", "-s", spec, "--nmax", "2", "--lenmax", "3"])
    assert code == 0
    assert "admissible: NO" in out
    assert "verdict: FAIL" in out
    assert "failure: support audit failed" in out


def test_embedding_check_cli_rejects_malformed_input():
    for flags in (["--nmax", "0"], ["--lenmax", "-1"]):
        code, out, err = run(["embedding-check", "-s", "doubling", *flags])
        assert code == 1
        assert out == ""
        assert "n_max >= 1" in err and "Traceback" not in err


def test_parse_error_exit_code():
    code, _, err = run(["reduce", "-e", "[a0 oops]"])
    assert code == 2
    assert "parse error" in err and "column" in err
    for family in ("x=3", "k=abc", "k="):
        code, out, err = run(["reduce", "-e", "[a0]", "--family", family])
        assert code == 2
        assert out == ""
        assert "parse error" in err and "Traceback" not in err


def test_setspec_error_exit_code():
    for spec in ('pcode("","")', 'eper("01","")'):
        code, out, err = run(["reduce", "-e", f"st(+,0,{{sel({spec})(k)}})"])
        assert code == 2
        assert out == ""
        assert "column 13: period must be nonempty" in err and "Traceback" not in err


def test_domain_error_exit_code():
    for argv in (["decompose", "-e", "[a0]"], ["apply-ff", "-e", "[a0]", "-f", "f{S1->T}"]):
        code, out, err = run(argv)  # missing --family
        assert code == 1
        assert out == ""
        assert "family" in err and "Traceback" not in err
    code, out, err = run(["demo-abelian", "-k", "-1"])
    assert code == 1
    assert out == ""
    assert "k must be a natural number" in err and "shift count" not in err


def test_cap_exit_code(monkeypatch):
    import transword.words

    monkeypatch.setattr(transword.words, "_REDUCE_CAP", 2)
    code, out, err = run(["reduce", "-e", "[a0] [a1] [a2] [a3]"])
    assert code == 3
    assert out == ""
    assert "_REDUCE_CAP = 2" in err and "Traceback" not in err


def test_byte_determinism():
    args = ["demo-separation", "-k", "5", "--format", "json"]
    assert run(args) == run(args)
    args = ["embedding-check", "-s", "telescope", "--nmax", "1", "--lenmax", "2"]
    assert run(args) == run(args)
