import importlib
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def counting(monkeypatch):
    """`counting(*paths)` wraps each named library callable and returns one
    list that records every call through any of them as an (args, result)
    pair, once the call returns.  A path is a dotted name under `transword`:
    a module function (`words.fold`), a method (`schema.Schema.letters`), a
    class or its `__init__` (`dsl._Parser`, `freegroup.FreeWord.__init__`).
    A function that other modules import is called through each of their
    names; give every name that should count (`schema.tail_alignment`,
    `words.tail_alignment`).  The wrappers go when the test ends."""

    def wrap(*paths):
        calls = []
        for path in paths:
            first, *middle, name = path.split(".")
            owner = importlib.import_module(f"transword.{first}")
            for attr in middle:
                owner = getattr(owner, attr)
            real = getattr(owner, name)

            def recorded(*args, _real=real, **kwargs):
                result = _real(*args, **kwargs)
                calls.append((args, result))
                return result

            monkeypatch.setattr(owner, name, recorded)
        return calls

    return wrap
