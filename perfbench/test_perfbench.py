"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench -q
"""

import dataclasses
import json
import os
import subprocess
import sys

import pytest

import run
from tracing import LAYER_METRICS

run.use_checkout_library()
import workloads  # noqa: E402  (needs the library on the path)


def _run(args, **kw):
    return subprocess.run(
        [sys.executable, *args], cwd=run.ROOT, capture_output=True, text=True,
        timeout=600, check=True, **kw,
    ).stdout


def _inputs_digest(workload: str, seed: int, hash_seed: str) -> str:
    code = (
        "import hashlib, run; run.use_checkout_library(); import workloads; "
        f"text = workloads.build({workload!r}, {seed}).text(); "
        "print(hashlib.sha256(text.encode()).hexdigest())"
    )
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=str(run.HERE))
    return _run(["-c", code], env=env).strip()


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_same_seed_gives_identical_input_text(workload):
    first = _inputs_digest(workload, 5, "0")
    assert _inputs_digest(workload, 5, "1") == first
    assert _inputs_digest(workload, 6, "0") != first


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_traced_counts_repeat(workload):
    def counts():
        out = _run(["perfbench/run.py", "--workload", workload, "--seed", "3",
                    "--seconds", "1", "--trace", "1"])
        metrics = json.loads(out.splitlines()[-1])["metrics"]
        return {k: v["value"] for k, v in metrics.items()
                if k.endswith((".calls", "_ratio", ".passes_per_call"))
                and k != "trace.overhead_ratio"}

    first = counts()
    assert first == counts()
    assert any(v for v in first.values())


def test_planted_wrong_answers_are_counted(capsys):
    wl = workloads.build("separation", 1)
    queries = list(wl.queries[:6])
    queries[1] = dataclasses.replace(queries[1], expected=(9,))
    queries[3] = dataclasses.replace(queries[3], run=lambda: 1 / 0)
    checker = run.Checker()
    for q in queries:
        checker.run(q)
    assert (checker.attempted, checker.failed) == (6, 2)
    assert checker.errors == {"wrong answer": 1, "ZeroDivisionError": 1}
    assert not checker.correct()
    run.report_failures(checker)
    assert "failed_ratio=0.333333 (failed 2 of 6)" in capsys.readouterr().out


def test_ladder_expected_count_is_closed_form():
    assert workloads.reduced_word_count(3, 4) == 1107


def test_metric_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
