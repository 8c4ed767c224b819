import pytest
from hypothesis import given, strategies as st

from transword.abelian import (
    IntSeq,
    basis,
    distinct_homs_demo,
    evaluation_matrix,
    mod_p,
    sum_functional,
)

from oracles import truncate

seqs = st.builds(
    IntSeq,
    st.dictionaries(st.integers(0, 8), st.integers(-20, 20), max_size=6),
)


def test_mod_p_examples():
    v = IntSeq({0: 3, 1: 2})
    assert mod_p(v, 2) == basis(0)
    assert mod_p(IntSeq(), 5) == IntSeq()
    assert mod_p(IntSeq({5: 7}), 7) == IntSeq()
    with pytest.raises(ValueError):
        mod_p(v, 6)


def test_sum_functional_examples():
    v = basis(0) + basis(1)
    assert sum_functional({0, 2}, v, 2) == 1
    assert sum_functional(set(), v, 2) == 0
    assert sum_functional({1}, basis(1), 3) == 1


@given(seqs, seqs, st.sampled_from((2, 3, 5)))
def test_functional_additive(v, w, p):
    S = {0, 2, 5}
    lhs = sum_functional(S, mod_p(v + w, p), p)
    rhs = (sum_functional(S, mod_p(v, p), p) + sum_functional(S, mod_p(w, p), p)) % p
    assert lhs == rhs


@given(seqs, st.sampled_from((2, 3, 5)))
def test_mod_p_is_a_homomorphism(v, p):
    assert mod_p(v + v, p) == mod_p(mod_p(v, p) + mod_p(v, p), p)


def test_distinct_homs_counts():
    assert distinct_homs_demo(3, 2) == 8
    assert distinct_homs_demo(0, 2) == 1
    for p in (2, 3, 5):
        for k in (1, 4, 7):
            assert distinct_homs_demo(k, p) == 1 << k


def test_factors_through_finite_projection():
    S = {1, 3}
    n = max(S) + 1
    for v in (basis(0) + basis(3), IntSeq({1: 9, 7: 2}), IntSeq()):
        full = sum_functional(S, mod_p(v, 3), 3)
        cut = sum_functional(S, mod_p(truncate(v, n), 3), 3)
        assert full == cut


def test_evaluation_matrix_rows_distinct():
    rows = evaluation_matrix(5, 2)
    assert len(rows) == 32 and len(set(rows)) == 32
