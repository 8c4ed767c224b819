import hashlib
import os
import subprocess
import sys
from pathlib import Path

import transword

CORPUS = Path(__file__).with_name("corpus.py")


# SHA-256 of the output of `tests/corpus.py --seeds 0-199`.  A change that
# alters a normal form or a verdict on these seeds updates this digest and
# explains every changed corpus line in CHANGES.md.
CORPUS_DIGEST = "07829665d9540113bf08858006a9a3cc7501ee42ff35a0b36856422037b7b5ac"


def _corpus(hash_seed: str, seeds: str = "0-4") -> bytes:
    # run the tree under test, whatever put it on the path here
    src = str(Path(transword.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed)
    cmd = [sys.executable, str(CORPUS), "--seeds", seeds]
    return subprocess.run(cmd, env=env, capture_output=True, check=True).stdout


def test_corpus_is_deterministic():
    # two processes with different string hashing print the same bytes
    first, second = _corpus("1"), _corpus("2")
    assert first and first == second
    fields = [line.split(" ", 2) for line in first.decode().splitlines()]
    assert [f[0] for f in fields if f[1] == "reduce"] == ["0", "1", "2", "3", "4"]


def test_corpus_digest():
    # the normal forms and verdicts of the first 200 corpus seeds are pinned
    assert hashlib.sha256(_corpus("0", "0-199")).hexdigest() == CORPUS_DIGEST
