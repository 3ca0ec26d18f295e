import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tscc.core import all_zero, bits_from_int, check_constraint, psi, simulate
from tscc.wwl import WwlParams, enumerate_wwl, is_wwl, wwl_values
from tscc.cosets import (CosetCode, GoodCodeSearch, _adjoin, _gf2_rref, find_good_code,
                         is_s_good, xor_autocorrelation)


@settings(max_examples=60)
@given(st.data())
def test_autocorrelation_matches_brute_force(data):
    n = data.draw(st.integers(1, 10))
    members = data.draw(st.sets(st.integers(0, 2 ** n - 1), max_size=80))
    indicator = np.zeros(1 << n, dtype=np.int64)
    for x in members:
        indicator[x] = 1
    got = xor_autocorrelation(indicator)
    want = [sum(1 for x in members if (x ^ z) in members) for z in range(1 << n)]
    assert got.dtype == np.int64
    assert got.tolist() == want


def test_autocorrelation_exact_at_two_to_the_forty():
    """All-ones at n = 20: the transforms pass through 2^40, every entry is 2^20."""
    got = xor_autocorrelation(np.ones(1 << 20, dtype=bool))
    assert got.dtype == np.int64
    assert np.all(got == 1 << 20)


def brute_coverage(s_values, basis, n):
    span = {0}
    for z in basis:
        span |= {v ^ z for v in span}
    return {v ^ s for v in span for s in s_values}


@settings(max_examples=60)
@given(st.data())
def test_is_s_good_matches_brute_force(data):
    n = data.draw(st.integers(2, 7))
    beta = data.draw(st.integers(2, min(4, n)))
    p = data.draw(st.integers(1, beta))
    params = WwlParams(beta, p)
    s_values = [psi(v) for v in enumerate_wwl(params, n)]
    basis = data.draw(st.lists(st.integers(1, 2 ** n - 1), max_size=3))
    good, missed = is_s_good(basis, s_values, n)
    covered = brute_coverage(s_values, basis, n)
    assert missed == 2 ** n - len(covered)
    assert good == (len(covered) == 2 ** n)


def test_syndrome_surjectivity_equals_coverage():
    """A basis builds a code exactly when its span plus S covers everything."""
    params = WwlParams(3, 2)
    n = 6
    s_values = [psi(v) for v in enumerate_wwl(params, n)]
    for basis in ([0b100100], [0b000001], [0b100100, 0b010010], [0b111000]):
        good, missed = is_s_good(basis, s_values, n)
        if good:
            code = CosetCode(n, params, basis)
            syndromes = {code._syndrome_int(x) for x in range(2 ** n)}
            assert len(syndromes) == code.message_count(1)
        else:
            with pytest.raises(ValueError, match=f"not S-good: {missed} words uncovered"):
                CosetCode(n, params, basis)


def test_is_s_good_reads_syndromes_in_little_memory():
    """The 7-vector greedy basis at n = 22, (4, 2): no index over all 2^22 words."""
    basis = [2097150, 2099199, 65472, 67708, 6558, 788140, 46]
    s_values = wwl_values(WwlParams(4, 2), 22)
    tracemalloc.start()
    try:
        assert is_s_good(basis, s_values, 22) == (True, 0)
        assert is_s_good(basis[:-1], s_values, 22) == (False, 22848)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20


@pytest.mark.parametrize("basis,s_values,value", [
    ([32], [0, 1, 2], "basis vector 32"),
    ([-1], [0, 1, 2], "basis vector -1"),
    ([1], [0, 16, 1], "S value 16"),
    ([1], [0, -3, 1], "S value -3"),
])
def test_values_outside_the_word_are_refused(basis, s_values, value):
    with pytest.raises(ValueError, match=f"{value} does not fit in 4 bits"):
        is_s_good(basis, s_values, 4)
    with pytest.raises(ValueError, match=f"{value} does not fit in 4 bits"):
        CosetCode(4, WwlParams(2, 1), basis, s_values)


# --- greedy search -----------------------------------------------------------

@pytest.mark.parametrize("n", range(4, 13))
def test_greedy_reaches_goodness_within_bound(n):
    search = GoodCodeSearch(n, WwlParams(3, 2)).run()
    assert search.is_good
    assert len(search.basis) <= search.step_bound


@pytest.mark.parametrize("n", range(4, 11))
def test_greedy_q_squares_and_coverage_grows(n):
    search = GoodCodeSearch(n, WwlParams(3, 2))
    size = 2 ** n
    prev_missed = search.missed
    prev_covered = search.covered
    while not search.is_good:
        step = search.double()
        assert step.missed * size <= prev_missed * prev_missed
        assert step.covered > prev_covered
        prev_missed, prev_covered = step.missed, step.covered


def naive_greedy(n, s_values):
    """Full-space greedy: every z outside span(B), overlap counted directly."""
    size = 1 << n
    idx = np.arange(size)
    cov = np.zeros(size, dtype=bool)
    cov[list(s_values)] = True
    span = np.zeros(size, dtype=bool)
    span[0] = True
    basis, steps = [], []
    while not cov.all():
        overlaps = [(int(np.count_nonzero(cov & cov[idx ^ z])), z)
                    for z in range(size) if not span[z]]
        z = min(overlaps)[1]  # fewest overlaps, then smallest z
        cov |= cov[idx ^ z]
        span |= span[idx ^ z]
        covered = int(np.count_nonzero(cov))
        basis.append(z)
        steps.append((z, covered, size - covered, (size - covered) / size))
    return basis, steps


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_greedy_matches_naive_full_space_greedy(data):
    n = data.draw(st.integers(1, 10))
    beta = data.draw(st.integers(1, n + 1))
    p = data.draw(st.integers(1, beta))
    search = GoodCodeSearch(n, WwlParams(beta, p)).run()
    basis, steps = naive_greedy(n, search.s_values)
    assert search.basis == basis
    assert [(s.z, s.covered, s.missed, s.q) for s in search.steps] == steps


@pytest.mark.parametrize("m", range(1, 12))
def test_adjoin_matches_full_index_gather(m):
    """Every class zq at 2^m flags: the view-and-small-gather fold equals
    the gather through a full-length index of x ^ c."""
    cov = np.random.default_rng(m).random(1 << m) < 0.4
    for zq in range(1, 1 << m):
        split = cov.reshape(cov.size >> zq.bit_length(), 2, -1)
        length = split.shape[2]
        want = (split[:, 0, :] | split[:, 1, np.arange(length) ^ (zq - length)]).ravel()
        got = _adjoin(cov, zq)
        assert got.dtype == bool and np.array_equal(got, want), zq


def test_vacuous_budget_is_good_without_enumerating_s():
    search = GoodCodeSearch(9, WwlParams(4, 4))
    assert search._s is None and search.is_good and search.missed == 0
    assert search.s_values == tuple(range(1 << 9))
    assert search.step_bound == math.ceil(math.log2(9))
    with pytest.raises(ValueError, match="already S-good"):
        search.double()
    search, code = find_good_code(9, WwlParams(4, 4))
    assert search.basis == [] and code.k == 0
    assert np.array_equal(code._rep, np.arange(1 << 9))


@pytest.mark.parametrize("basis", [[], [0b100100100], [0b1, 0b110000000], [7, 56, 448]])
def test_vacuous_representatives_match_a_scan_of_every_word(basis):
    """Without S, a vacuous code deposits each syndrome into the free cells;
    that is the smallest word of each class, as a scan of all words finds."""
    params = WwlParams(3, 3)
    direct = CosetCode(9, params, basis)
    scanned = CosetCode(9, params, basis, np.arange(1 << 9)[::-1])
    assert np.array_equal(direct._rep, scanned._rep)


def _adjoin_covering(flags):
    """A stand-in for _adjoin that leaves exactly `flags` classes covered."""
    def fake(cov, zq):
        out = np.zeros(cov.size // 2, dtype=bool)
        out[:flags] = True
        return out
    return fake


def test_greedy_step_raises_when_the_uncovered_set_does_not_shrink(monkeypatch):
    search = GoodCodeSearch(8, WwlParams(3, 1))
    monkeypatch.setattr("tscc.cosets._adjoin", _adjoin_covering(0))
    with pytest.raises(RuntimeError, match="failed to shrink"):
        search.double()


def test_greedy_step_raises_when_q_does_not_square(monkeypatch):
    search = GoodCodeSearch(8, WwlParams(3, 1))
    before = search.missed
    # one step later each class holds two words: cover just more than S did
    flags = search.covered // 2 + 1
    after = 256 - 2 * flags
    assert before > after and after * 256 > before * before
    monkeypatch.setattr("tscc.cosets._adjoin", _adjoin_covering(flags))
    with pytest.raises(RuntimeError, match="doubling guarantee violated"):
        search.double()


def test_greedy_run_raises_past_its_step_bound(monkeypatch):
    monkeypatch.setattr(GoodCodeSearch, "step_bound", property(lambda self: -self.n - 1))
    with pytest.raises(RuntimeError, match="exceeded its guaranteed step bound"):
        GoodCodeSearch(8, WwlParams(3, 1)).run()


def test_greedy_is_deterministic():
    a = GoodCodeSearch(9, WwlParams(3, 2)).run()
    b = GoodCodeSearch(9, WwlParams(3, 2)).run()
    assert a.basis == b.basis
    assert [s.z for s in a.steps] == [s.z for s in b.steps]


def test_greedy_rejects_doubling_a_good_code():
    search = GoodCodeSearch(4, WwlParams(4, 3))
    if search.is_good:
        with pytest.raises(ValueError):
            search.double()
    else:
        search.run()
        with pytest.raises(ValueError):
            search.double()


# --- syndrome code -----------------------------------------------------------

def span_oracle(rows):
    """Every XOR of a subset of rows, by brute force."""
    span = {0}
    for r in rows:
        span |= {x ^ r for x in span}
    return span


@settings(max_examples=200)
@given(st.data())
def test_gf2_rref_matches_brute_force(data):
    n = data.draw(st.integers(1, 10))
    rows = data.draw(st.lists(st.integers(0, 2 ** n - 1), max_size=14))
    basis, pivots = _gf2_rref(rows, n)
    span = span_oracle(rows)
    assert span_oracle(basis) == span
    assert len(basis) == len(pivots) and 2 ** len(basis) == len(span)
    assert pivots == sorted(set(pivots))
    for i, (row, piv) in enumerate(zip(basis, pivots)):
        assert piv == n - row.bit_length()  # the pivot is the row's leading bit
        for j, other in enumerate(basis):
            if j != i:
                assert not other >> (n - 1 - piv) & 1


def gf2_syndrome(x, basis, n):
    """Syndrome by direct reduction: clear each pivot with its echelon row,
    then pack the free cells in column order; for an int or an int64 array."""
    rref, pivots = _gf2_rref(basis, n)
    for piv, row in zip(pivots, rref):
        x = x ^ (x >> (n - 1 - piv) & 1) * row
    d = x & 0
    for j in range(n):
        if j not in pivots:
            d = (d << 1) | (x >> (n - 1 - j) & 1)
    return d


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_byte_table_syndromes_match_gf2_reduction(data):
    n = data.draw(st.integers(1, 24))
    # rows with distinct leading bits are independent; k >= n - 14 keeps the
    # table at most 2^14 entries
    k = data.draw(st.integers(max(0, n - 14), n))
    leads = data.draw(st.lists(st.integers(0, n - 1), min_size=k, max_size=k, unique=True))
    basis = [1 << b | data.draw(st.integers(0, (1 << b) - 1)) for b in leads]
    code = CosetCode(n, WwlParams(1, 1), basis)
    words = data.draw(st.lists(st.integers(0, 2 ** n - 1), min_size=1, max_size=40))
    assert [code._syndrome_int(x) for x in words] == [gf2_syndrome(x, basis, n) for x in words]
    array = np.array(words, dtype=np.int64)
    got = code._syndrome_int(array)
    assert got.dtype == np.int64
    assert np.array_equal(got, gf2_syndrome(array, basis, n))
    # each representative lies in its own class
    classes = np.arange(code.message_count(1))
    assert np.array_equal(code._syndrome_int(code._rep), classes)


def test_coset_code_validation():
    params = WwlParams(3, 2)
    with pytest.raises(ValueError, match="dependent"):
        CosetCode(6, params, [0b101000, 0b101000])
    with pytest.raises(ValueError):
        CosetCode(2, params, [])  # narrower than beta


def test_coset_code_takes_its_basis_from_a_generator():
    from_list = CosetCode(8, WwlParams(3, 2), [60, 4])
    from_gen = CosetCode(8, WwlParams(3, 2), (z for z in [60, 4]))
    assert from_gen.k == from_list.k == 2
    assert np.array_equal(from_gen._rep, from_list._rep)


def test_coset_code_exhaustive_roundtrip():
    """Every state, every message: decode inverts encode and flips stay in S."""
    params = WwlParams(3, 2)
    _, code = find_good_code(6, params)
    messages = code.message_count(1)
    for x in range(2 ** 6):
        state = bits_from_int(x, 6)
        for m in range(1, messages + 1):
            nxt = code.encode(1, m, state)
            assert code.decode(1, nxt) == m
            flip = psi(nxt) ^ x
            assert is_wwl(params, bits_from_int(flip, 6))


@pytest.mark.parametrize("n,beta,p", [(6, 3, 2), (9, 3, 1), (10, 4, 2), (11, 5, 2)])
def test_coset_code_table_holds_smallest_pattern_per_syndrome(n, beta, p):
    search, code = find_good_code(n, WwlParams(beta, p))
    want = {}
    for s in search.s_values:
        want.setdefault(code._syndrome_int(s), s)
    syndromes = range(code.message_count(1))
    assert [code._rep[d] for d in syndromes] == [want[d] for d in syndromes]
    # caller-supplied S in any order builds the same table
    shuffled = CosetCode(n, WwlParams(beta, p), search.basis, search.s_values[::-1])
    assert [shuffled._rep[d] for d in syndromes] == [want[d] for d in syndromes]


def test_coset_code_rate_and_dimension():
    search, code = find_good_code(8, WwlParams(3, 2))
    assert code.k == len(search.basis)
    assert code.message_count(1) == 2 ** (8 - code.k)
    assert code.theoretical_rate == pytest.approx((8 - code.k) / 8)


@pytest.mark.parametrize("n,beta,p", [(4, 3, 2), (6, 3, 2), (8, 2, 1), (10, 4, 2)])
def test_coset_code_traces_satisfy_constraint(n, beta, p):
    _, code = find_good_code(n, WwlParams(beta, p))
    result = simulate(code, 400, seed=13)
    assert result.round_trip_ok
    assert check_constraint(result.trace, code.params).satisfied


def test_found_rate_meets_averaging_bound():
    # the doubling argument promises k within step_bound, so the rate
    # cannot fall below (n - step_bound) / n
    for n in (6, 9, 12):
        search, code = find_good_code(n, WwlParams(3, 2))
        assert code.theoretical_rate >= (n - search.step_bound) / n - 1e-12


def test_find_good_code_refuses_before_allocating():
    """The n range, then n < beta, are checked before S or the coverage exist."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="n=24 is narrower than beta=30"):
            find_good_code(24, WwlParams(30, 3))
        with pytest.raises(ValueError, match=r"n must be in \[1:24\]"):
            find_good_code(25, WwlParams(30, 3))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
