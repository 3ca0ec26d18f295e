import gc
import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
import tscc.wwl as wwl_mod
from hypothesis import given, settings
import hypothesis.strategies as st

from tscc.core import ConvergenceError, ResourceLimitError, all_zero, bits_from_int, psi
from tscc.wwl import (CountTable, EigenEstimate, WwlParams, build_state_set,
                      build_transition_matrix, count_wwl, dominant_eigenvalue,
                      enumerate_wwl, is_irreducible, is_wwl, rank,
                      state_count, unrank, wwl_capacity, wwl_values)

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


def test_transition_matrix_golden_32():
    assert build_transition_matrix(WwlParams(3, 2)) == [
        [1, 1, 0, 0],
        [0, 0, 1, 1],
        [1, 1, 0, 0],
        [0, 0, 1, 0],
    ]


@pytest.mark.parametrize("beta,p", [(b, p) for b, p in GRID if b > 1])
def test_transition_matrix_matches_merge_rule(beta, p):
    """Entry (i,j) is 1 exactly when i slides into j and the window spanning both is light."""
    params = WwlParams(beta, p)
    states = build_state_set(params)
    a = build_transition_matrix(params)
    for i, si in enumerate(states):
        for j, sj in enumerate(states):
            light = si[1:] == sj[:-1] and sum(si) + sj[-1] <= p
            assert a[i][j] == (1 if light else 0)


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
    with pytest.raises(ValueError, match="max_iter >= 1"):
        dominant_eigenvalue(build_transition_matrix(WwlParams(6, 3)), max_iter=0)


def test_eigenvalue_never_exceeds_two():
    for beta, p in GRID:
        est = dominant_eigenvalue(build_transition_matrix(WwlParams(beta, p)),
                                  tol=1e-6)
        assert 1.0 <= est.lower and est.upper <= 2.0 + 1e-12


def _reference_bracket(adj, tol, max_iter):
    """Power iteration on one matrix alone, as it ran before batching, with
    no early stop: the bracket it converges to, or the one at max_iter."""
    size = len(adj)
    depth = max(1, max(map(len, adj)))
    pad = [(size, 0)] * depth
    table = np.array([row + pad[len(row):] for row in adj], dtype=np.float64)
    index = table[:, :, 0].T.astype(np.intp)
    weight = table[:, :, 1].T
    v = np.ones(size + 1)
    v[size] = 0.0
    lo, hi = 0.0, math.inf
    for it in range(1, max_iter + 1):
        w = weight[0] * v[index[0]]
        for k in range(1, depth):
            w += weight[k] * v[index[k]]
        ratios = w / v[:size]
        lo = max(lo, float(ratios.min()))
        hi = min(hi, float(ratios.max()))
        if hi - lo <= tol:
            return EigenEstimate(lo, hi, it)
        v[:size] = w / w.max()
    return EigenEstimate(lo, hi, max_iter)


def _wwl_adjacency(beta, p):
    """The rows wwl_capacity iterates on."""
    return [[(j, 1) for j in nxt] for nxt in wwl_mod._transfer_graph(WwlParams(beta, p))[1]]


@pytest.mark.parametrize("tol", [1e-6, 1e-9, 1e-12])
def test_batch_equals_single_graphs_on_every_wwl_graph(tol):
    adjs = [_wwl_adjacency(b, p) for b in range(1, 13) for p in range(1, b + 1)]
    batch = wwl_mod._power_brackets(adjs, tol, 10 ** 6)
    single = [wwl_mod._power_brackets([adj], tol, 10 ** 6)[0] for adj in adjs]
    assert batch == single == [_reference_bracket(adj, tol, 10 ** 6) for adj in adjs]


def test_batch_equals_single_graphs_on_random_weighted_matrices():
    rng = np.random.default_rng(7)
    matrices = []
    for _ in range(40):
        m = int(rng.integers(1, 8))
        a = rng.random((m, m)) * (rng.random((m, m)) < 0.4)
        for i in range(m):  # a cycle through every state, and a self-loop: primitive
            a[i, (i + 1) % m] += 0.5 + rng.random()
        a[0, 0] += 1.0
        matrices.append(a.tolist())
    adjs = [wwl_mod._adjacency(a) for a in matrices]
    want = [_reference_bracket(adj, 1e-9, 10 ** 4) for adj in adjs]
    assert all(est.iterations < 10 ** 4 for est in want)
    assert wwl_mod._power_brackets(adjs, 1e-9, 10 ** 4) == want
    assert [dominant_eigenvalue(a, max_iter=10 ** 4) for a in matrices] == want


def test_repeating_iterates_raise_at_once_with_the_final_bracket():
    """At tol 1e-300 the (3, 1) iterates fall into a cycle and never narrow."""
    adj = _wwl_adjacency(3, 1)
    with pytest.raises(ConvergenceError, match="iterates repeat") as err:
        wwl_mod._power_brackets([adj], 1e-300, 5000)
    assert err.value.estimate == _reference_bracket(adj, 1e-300, 5000)


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


@pytest.mark.parametrize("beta,p", GRID + [(9, 2)])
def test_values_match_brute_force_filter(beta, p):
    params = WwlParams(beta, p)
    for n in range(1, 11):
        want = [x for x in range(1 << n) if is_wwl(params, bits_from_int(x, n))]
        assert wwl_values(params, n).tolist() == want


def test_values_cover_the_int64_range():
    values = wwl_values(WwlParams(100, 1), 63)
    assert values.tolist() == [0] + [1 << j for j in range(63)]
    with pytest.raises(ValueError, match="63"):
        wwl_values(WwlParams(100, 1), 64)


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


def test_count_memory_does_not_grow_with_n():
    tracemalloc.start()
    try:
        count_wwl(WwlParams(3, 1), 10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2 ** 20


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
    monkeypatch.setattr(wwl_mod, "_strip_graph", None)  # any build would fail
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
