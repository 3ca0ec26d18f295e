import gc
import math
from itertools import product

import pytest
import tscc.wwl as wwl_mod
from hypothesis import given, settings
import hypothesis.strategies as st

from tscc.core import ConvergenceError, ResourceLimitError, all_zero, psi
from tscc.wwl import (CountTable, WwlParams, build_state_set,
                      build_transition_matrix, count_wwl, dominant_eigenvalue,
                      enumerate_wwl, is_irreducible, is_wwl, merge, rank,
                      state_count, unrank, wwl_capacity)

GRID = [(b, p) for b in range(1, 7) for p in range(1, b + 1)]


def test_params_validation():
    with pytest.raises(ValueError):
        WwlParams(0, 1)
    with pytest.raises(ValueError):
        WwlParams(3, 0)
    with pytest.raises(ValueError):
        WwlParams(3, 4)  # p > beta never constrains anything extra


def test_is_wwl_windows():
    params = WwlParams(3, 2)
    assert is_wwl(params, (1, 0, 1, 1, 0, 0, 1, 0, 0, 1))
    assert not is_wwl(params, (0, 1, 1, 1, 0))
    # vectors shorter than the window: total weight carries the budget
    assert is_wwl(WwlParams(6, 3), (1, 1, 1))
    assert not is_wwl(WwlParams(6, 3), (1, 1, 1, 1))


def test_state_set_golden_small():
    assert build_state_set(WwlParams(3, 2)) == ((0, 0), (0, 1), (1, 0), (1, 1))


def test_state_set_golden_63():
    states = build_state_set(WwlParams(6, 3))
    assert len(states) == 26
    assert states[0] == (0, 0, 0, 0, 0)
    assert states[22] == (1, 1, 0, 0, 0)  # index 23 in 1-based value order


@pytest.mark.parametrize("beta,p", GRID)
def test_state_set_sorted_and_counted(beta, p):
    states = build_state_set(WwlParams(beta, p))
    assert len(states) == state_count(WwlParams(beta, p))
    values = [psi(s) for s in states]
    assert values == sorted(values)
    assert len(set(values)) == len(values)


def test_merge_overlap():
    assert merge((0, 0), (0, 1)) == (0, 0, 1)
    assert merge((0, 1), (0, 0)) is None
    assert merge((1, 0), (0, 1)) == (1, 0, 1)
    with pytest.raises(ValueError):
        merge((0, 1), (0,))


def test_transition_matrix_golden_32():
    assert build_transition_matrix(WwlParams(3, 2)) == [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
    ]


@pytest.mark.parametrize("beta,p", [(b, p) for b, p in GRID if b > 1])
def test_transition_matrix_matches_merge_rule(beta, p):
    """Entry (i,j) is 1 exactly when the states merge into a light window."""
    params = WwlParams(beta, p)
    states = build_state_set(params)
    a = build_transition_matrix(params)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            w = merge(si, sj)
            expect = 1 if w is not None and sum(w) <= p else 0
            assert a[i][j] == expect


def test_beta_one_degenerates_to_free_channel():
    params = WwlParams(1, 1)
    assert build_transition_matrix(params) == [[2]]
    assert count_wwl(params, 8) == 256
    cap = wwl_capacity(params)
    assert cap.lower <= 1.0 <= cap.upper + 1e-12


@pytest.mark.parametrize("beta,p", GRID)
def test_transition_matrix_irreducible(beta, p):
    assert is_irreducible(build_transition_matrix(WwlParams(beta, p)))


def test_reducible_matrix_detected():
    assert not is_irreducible([[1, 0], [0, 1]])
    assert not is_irreducible([[0, 1], [0, 1]])


def test_dominant_eigenvalue_golden_ratio():
    est = dominant_eigenvalue(build_transition_matrix(WwlParams(2, 1)))
    phi = (1 + math.sqrt(5)) / 2
    assert est.lower <= phi <= est.upper
    assert est.width <= 1e-9


def test_dominant_eigenvalue_iteration_cap():
    with pytest.raises(ConvergenceError) as err:
        dominant_eigenvalue(build_transition_matrix(WwlParams(6, 3)), max_iter=2)
    est = err.value.estimate
    assert est.lower <= est.upper and est.iterations == 2


def test_eigenvalue_never_exceeds_two():
    for beta, p in GRID:
        est = dominant_eigenvalue(build_transition_matrix(WwlParams(beta, p)),
                                  tol=1e-6)
        assert 1.0 <= est.lower and est.upper <= 2.0 + 1e-12


# --- counting ----------------------------------------------------------------

def test_count_golden():
    assert count_wwl(WwlParams(6, 3), 10) == 421
    assert count_wwl(WwlParams(3, 2), 4) == 13


def test_count_short_vectors():
    # below the prefix length the weight bound is the whole story
    assert count_wwl(WwlParams(6, 3), 3) == 8
    assert count_wwl(WwlParams(6, 2), 4) == 11


@pytest.mark.parametrize("beta,p", GRID)
def test_count_matches_enumeration(beta, p):
    params = WwlParams(beta, p)
    for n in range(1, 11):
        vectors = enumerate_wwl(params, n)
        assert len(vectors) == count_wwl(params, n)
        assert all(is_wwl(params, v) for v in vectors)


def test_enumeration_leaves_no_cyclic_garbage():
    """The vectors are freed with the list, not held until a full collection."""
    gc.collect()
    gc.disable()
    try:
        enumerate_wwl(WwlParams(4, 2), 12)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_enumeration_is_value_ordered():
    vectors = enumerate_wwl(WwlParams(3, 2), 6)
    values = [psi(v) for v in vectors]
    assert values == sorted(values)


def test_count_table_golden_63():
    table = CountTable(WwlParams(6, 3), 10)
    golden = {(14, 1): 236, (12, 5): 72, (11, 11): 35, (8, 23): 8,
              (5, 9): 1, (13, 3): 119, (6, 5): 2}
    for (length, k), want in golden.items():
        assert table.value(length, k) == want


def test_count_table_base_row_and_range():
    table = CountTable(WwlParams(6, 3), 10)
    assert table.min_length == 5 and table.max_length == 14
    assert table.row(5) == (1,) * 26
    with pytest.raises(ValueError):
        table.value(4, 1)
    with pytest.raises(ValueError):
        table.value(15, 1)
    with pytest.raises(ValueError):
        table.value(6, 27)


@pytest.mark.parametrize("beta,p", GRID)
def test_count_table_rows_sum_to_counts(beta, p):
    params = WwlParams(beta, p)
    table = CountTable(params, 9)
    for length in range(max(table.min_length, 1), table.max_length + 1):
        assert table.row_sum(length) == count_wwl(params, length)


# --- rank / unrank -----------------------------------------------------------

def test_rank_golden():
    assert rank(WwlParams(6, 3), (1, 0, 1, 1, 0, 0, 1, 0, 0, 1)) == 353


def test_unrank_golden():
    assert unrank(WwlParams(6, 3), 10, 353) == (1, 0, 1, 1, 0, 0, 1, 0, 0, 1)
    assert unrank(WwlParams(3, 2), 4, 13) == (1, 1, 0, 1)
    assert unrank(WwlParams(3, 2), 5, 1) == all_zero(5)


def test_rank_rejects_bad_vectors():
    with pytest.raises(ValueError):
        rank(WwlParams(3, 2), (1, 1, 1, 0))
    with pytest.raises(ValueError):
        rank(WwlParams(3, 2), ())


def test_unrank_range_check():
    with pytest.raises(ValueError):
        unrank(WwlParams(3, 2), 4, 0)
    with pytest.raises(ValueError):
        unrank(WwlParams(3, 2), 4, 14)


def test_shared_table_reuse():
    params = WwlParams(3, 2)
    table = CountTable(params, 12)
    assert rank(params, (1, 1, 0, 1), table) == 13
    assert unrank(params, 4, 13, table) == (1, 1, 0, 1)
    with pytest.raises(ValueError):
        rank(params, (0,) * 20, table)  # table too short
    with pytest.raises(ValueError):
        rank(WwlParams(4, 2), (0,) * 8, table)  # wrong parameters


@pytest.mark.parametrize("beta,p", GRID)
def test_rank_unrank_bijective_small(beta, p):
    params = WwlParams(beta, p)
    for n in range(1, 9):
        table = CountTable(params, n)
        vectors = enumerate_wwl(params, n)
        for pos, v in enumerate(vectors, start=1):
            assert rank(params, v, table) == pos
            assert unrank(params, n, pos, table) == v


def test_rank_preserves_value_order():
    params = WwlParams(4, 2)
    vectors = enumerate_wwl(params, 9)
    ranks = [rank(params, v) for v in vectors]
    assert ranks == list(range(1, len(vectors) + 1))
    values = [psi(v) for v in vectors]
    assert all(a < b for a, b in zip(values, values[1:]))


@settings(max_examples=150)
@given(st.data())
def test_rank_unrank_roundtrip_random(data):
    beta = data.draw(st.integers(1, 8))
    p = data.draw(st.integers(1, beta))
    n = data.draw(st.integers(1, 24))
    params = WwlParams(beta, p)
    m = data.draw(st.integers(1, count_wwl(params, n)))
    v = unrank(params, n, m)
    assert is_wwl(params, v)
    assert rank(params, v) == m


class CountingTable(CountTable):
    def __init__(self, params, n):
        super().__init__(params, n)
        self.lookups = 0

    def value(self, length, state_index):
        self.lookups += 1
        return super().value(length, state_index)


@pytest.mark.parametrize("n", [10, 20, 40, 80])
def test_codec_does_linear_lookups(n):
    """rank/unrank touch the table at most once per position."""
    params = WwlParams(5, 2)
    table = CountingTable(params, n)
    m = count_wwl(params, n) // 2 + 1
    v = unrank(params, n, m, table)
    unrank_lookups = table.lookups
    assert unrank_lookups <= n
    table.lookups = 0
    assert rank(params, v, table) == m
    assert table.lookups <= n


def test_rank_with_shared_table_builds_no_graph(monkeypatch):
    """A shared table carries the state index: rank builds nothing per call."""
    params = WwlParams(6, 3)
    table = CountTable(params, 10)

    def boom(*args, **kwargs):
        raise AssertionError("rank rebuilt the state set or transfer graph")

    for builder in ("_transfer_graph", "build_state_set", "build_transition_matrix"):
        monkeypatch.setattr(wwl_mod, builder, boom)
    assert rank(params, (1, 0, 1, 1, 0, 0, 1, 0, 0, 1), table) == 353


def test_graph_limit_raises_before_building(monkeypatch):
    monkeypatch.setattr(wwl_mod, "combinations", None)  # any build would fail
    with pytest.raises(ResourceLimitError):
        CountTable(WwlParams(40, 20), 4)
    with pytest.raises(ResourceLimitError):
        wwl_capacity(WwlParams(40, 20))
    with pytest.raises(ResourceLimitError):
        build_transition_matrix(WwlParams(16, 8))  # 22,819 squared entries


def test_capacity_reaches_beta_16():
    cap = wwl_capacity(WwlParams(16, 8))
    assert cap.states == 22819
    assert cap.eigen.width <= 1e-9
    assert 0.0 < cap.lower <= cap.upper < 1.0


def test_capacity_bracket_orders():
    cap = wwl_capacity(WwlParams(6, 3), tol=1e-9)
    assert 0.0 < cap.lower <= cap.upper < 1.0
    assert cap.states == 26
