"""End-to-end acceptance checks, one test per criterion.

Run `pytest tests/test_acceptance.py -v -s` to see the pass lines with
timings.  Each test asserts both the substance and its runtime budget.
"""

import math
import time
from itertools import product

import pytest

from tscc.core import (all_zero, bits_from_int, check_constraint,
                       measure_rate, parse_state, psi, simulate)
from tscc.wwl import (CountTable, WwlParams, build_transition_matrix,
                      count_wwl, enumerate_wwl, is_irreducible, rank, unrank,
                      wwl_capacity)
from tscc.constructions import (BitPerWriteWom, DilutedSpaceCode,
                                DilutedTimeCode, RsWom, SpaceCode, TimeCode,
                                TimePCode, TrivialCode)
from tscc.bounds import count_2d_arrays, lower_bound, upper_bound
from tscc.cosets import GoodCodeSearch, find_good_code

CODEC_GRID = [(WwlParams(b, p), n)
              for b in range(1, 7) for p in range(1, b + 1)
              for n in range(1, 15)]


class Budget:
    """Wall-clock guard that prints one pass line on success."""

    def __init__(self, label, seconds):
        self.label = label
        self.seconds = seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        if exc_type is None:
            assert elapsed < self.seconds, (
                f"{self.label}: took {elapsed:.1f}s, budget {self.seconds}s")
            print(f"PASS {self.label} ({elapsed:.2f}s)")
        return False


def test_01_codec_golden_values():
    with Budget("1/10 enumerative codec goldens", 1.0):
        params = WwlParams(6, 3)
        vector = parse_state("1011001001")
        assert rank(params, vector) == 353
        assert unrank(params, 10, 353) == vector
        table = CountTable(params, 10)
        golden = {(14, 1): 236, (12, 5): 72, (11, 11): 35, (8, 23): 8,
                  (5, 9): 1, (13, 3): 119, (6, 5): 2}
        for (length, k), want in golden.items():
            assert table.value(length, k) == want


def test_02_counting_exact():
    with Budget("2/10 exact counting vs enumeration", 30.0):
        assert count_wwl(WwlParams(6, 3), 10) == 421
        assert count_wwl(WwlParams(3, 2), 4) == 13
        for params, n in CODEC_GRID:
            assert count_wwl(params, n) == len(enumerate_wwl(params, n))


def test_03_codec_bijective():
    with Budget("3/10 rank/unrank bijectivity and order", 60.0):
        for params, n in CODEC_GRID:
            table = CountTable(params, n)
            vectors = enumerate_wwl(params, n)
            values = [psi(v) for v in vectors]
            assert values == sorted(values)  # value order, no repeats
            assert len(set(values)) == len(values)
            for position, v in enumerate(vectors, start=1):
                assert rank(params, v, table) == position
                assert unrank(params, n, position, table) == v


def test_04_transition_matrix():
    with Budget("4/10 transition matrix golden and irreducibility", 5.0):
        assert build_transition_matrix(WwlParams(3, 2)) == [
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 0],
        ]
        for beta in range(1, 7):
            for p in range(1, beta + 1):
                assert is_irreducible(build_transition_matrix(WwlParams(beta, p)))


def test_05_capacity_convergence():
    with Budget("5/10 capacity eigenvalues", 10.0):
        est = wwl_capacity(WwlParams(2, 1), tol=1e-9).eigen
        phi = (1 + math.sqrt(5)) / 2
        assert est.lower <= phi <= est.upper
        assert est.upper - est.lower <= 1e-9
        for beta, p in [(2, 1), (3, 1), (3, 2), (6, 3)]:
            params = WwlParams(beta, p)
            growth = math.log2(count_wwl(params, 61) / count_wwl(params, 60))
            cap = wwl_capacity(params, tol=1e-9)
            mid = (cap.lower + cap.upper) / 2
            assert abs(growth - mid) <= 1e-3


def test_06_schedule_rate_table():
    with Budget("6/10 single-flip schedule rates", 1.0):
        published = {4: 0.290, 5: 0.256, 6: 0.235, 7: 0.216, 8: 0.201}
        for alpha, want in published.items():
            value, tag, _ = lower_bound(alpha, 1, 1)
            assert tag == "time-construction"
            assert value == pytest.approx(want, abs=3e-3)


def construction_grid():
    return [
        TrivialCode(3, 3, 2, 15),
        TrivialCode(2, 2, 1, 4),
        TrivialCode(1, 3, 3, 6),
        SpaceCode(3, 2, 4),
        SpaceCode(2, 1, 5),
        SpaceCode(4, 2, 8),
        TimeCode(4, RsWom()),
        TimeCode(2, BitPerWriteWom(3)),
        TimePCode(2, 2, BitPerWriteWom(1)),
        TimePCode(4, 3, BitPerWriteWom(1)),   # odd p: alternating resets
        TimePCode(3, 2, BitPerWriteWom(4)),   # widened schedule window
        TimePCode(3, 1, BitPerWriteWom(2)),
        DilutedTimeCode(SpaceCode(3, 2, 4), 2),
        DilutedSpaceCode(TimeCode(4, RsWom()), 3),
        find_good_code(6, WwlParams(3, 2))[1],
        find_good_code(4, WwlParams(3, 2))[1],
    ]


def drive(code, min_writes, seed):
    writes = -(-min_writes // code.period) * code.period
    result = simulate(code, writes, seed)
    assert result.round_trip_ok, type(code).__name__
    verdict = check_constraint(result.trace, code.params)
    assert verdict.satisfied, (type(code).__name__, verdict)


def test_07_constructions_obey_budgets():
    with Budget("7/10 16 constructions x 10^4 randomized writes", 300.0):
        codes = construction_grid()
        assert len(codes) >= 12
        for seed, code in enumerate(codes):
            drive(code, 10_000, seed)


def test_08_split_block_golden_trace():
    with Budget("8/10 split-block golden trace", 1.0):
        code = SpaceCode(3, 2, 4)
        state = all_zero(10)
        expect = ["1011000000", "1101001011", "0000001101", "0011000000"]
        for message, want in zip([11, 7, 13, 4], expect):
            state = code.encode(1, message, state)
            assert state == parse_state(want)
            assert code.decode(1, state) == message


def test_09_greedy_syndrome_codes():
    with Budget("9/10 greedy doubling search, n=4..12", 120.0):
        params = WwlParams(3, 2)
        for n in range(4, 13):
            search = GoodCodeSearch(n, params)
            size = 1 << n
            prev = search.missed
            while not search.is_good:
                step = search.double()
                assert step.missed * size <= prev * prev  # quadratic shrink
                prev = step.missed
            assert len(search.basis) <= search.step_bound
            code = find_good_code(n, params)[1]
            drive(code, 10_000, seed=n)


def test_10_rates_below_normalized_counts():
    with Budget("10/10 rates vs 2D array counts", 60.0):
        assert upper_bound(2, 2, 1) == (0.43431, "2d-reference")
        assert upper_bound(3, 3, 1) == (0.25681, "2d-reference")

        cases = [
            ((2, 2, 1), [TrivialCode(2, 2, 1, 4),
                         DilutedTimeCode(SpaceCode(2, 1, 8), 2)]),
            ((1, 3, 2), [TrivialCode(1, 3, 2, 6),
                         SpaceCode(3, 2, 4)]),
        ]
        for (a, b, p), codes in cases:
            normalized = [count_2d_arrays(a, b, p, m, n).normalized
                          for m in range(1, 9) for n in range(1, 9)]
            ceiling = min(normalized) + 0.02
            for code in codes:
                rate = measure_rate(code, 10 * code.period).rate
                assert rate <= ceiling, (type(code).__name__, rate, ceiling)
