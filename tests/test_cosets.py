import math
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tscc.core import all_zero, bits_from_int, check_constraint, psi, simulate
from tscc.wwl import WwlParams, enumerate_wwl, is_wwl
from tscc.cosets import (CosetCode, GoodCodeSearch, find_good_code, is_s_good,
                         xor_autocorrelation)


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
    assert from_gen._rep == from_list._rep


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
