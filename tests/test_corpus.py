import os
import subprocess
import sys
from pathlib import Path

import transword

CORPUS = Path(__file__).with_name("corpus.py")


def _corpus(hash_seed: str) -> str:
    # run the tree under test, whatever put it on the path here
    src = str(Path(transword.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(CORPUS), "--seeds", "0-4"]
    return subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout


def test_corpus_is_deterministic():
    # two processes with different string hashing print the same bytes
    first, second = _corpus("1"), _corpus("2")
    assert first and first == second
    fields = [line.split(" ", 2) for line in first.splitlines()]
    assert [f[0] for f in fields if f[1] == "reduce"] == ["0", "1", "2", "3", "4"]
