import hashlib
import math
import time
import tracemalloc
from itertools import product

import pytest

from tscc import bounds as bounds_mod
from tscc import wwl as wwl_mod
from tscc.constructions import (BitPerWriteWom, RsWom, TimeCode, TimePCode,
                                timep_theoretical_rate)
from tscc.core import ResourceLimitError
from tscc.wwl import WwlParams, wwl_capacities, wwl_capacity
from tscc.bounds import (bounds_report, count_2d_arrays, emit_tables,
                         lower_bound, parse_grid, upper_bound)


# --- upper bound -------------------------------------------------------------

def test_upper_vacuous():
    assert upper_bound(2, 3, 6) == (1.0, "vacuous-1")
    assert upper_bound(1, 1, 1) == (1.0, "vacuous-1")


def test_upper_alpha_one_is_wwl_capacity():
    value, tag = upper_bound(1, 3, 2)
    assert tag == "wwl-alpha1"
    assert value == pytest.approx(wwl_capacity(WwlParams(3, 2)).upper)


def test_upper_beta_one_uses_alpha_window():
    value, tag = upper_bound(4, 1, 1)
    assert tag == "wwl-beta1"
    assert value == pytest.approx(wwl_capacity(WwlParams(4, 1)).upper)


def test_upper_reference_constants_verbatim():
    assert upper_bound(2, 2, 1) == (0.43431, "2d-reference")
    assert upper_bound(3, 3, 1) == (0.25681, "2d-reference")


def test_upper_unknown_point_falls_back_to_one():
    assert upper_bound(2, 3, 2) == (1.0, "vacuous-1")


def test_upper_monotone_in_beta_and_p():
    """Tighter windows cut capacity; looser budgets raise it."""
    for p in (1, 2):
        values = [upper_bound(1, beta, p)[0] for beta in range(p + 1, 9)]
        assert all(a >= b - 1e-12 for a, b in zip(values, values[1:]))
    for beta in (4, 6):
        values = [upper_bound(1, beta, p)[0] for p in range(1, beta + 1)]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))


# --- lower bound -------------------------------------------------------------

def test_lower_vacuous():
    assert lower_bound(2, 3, 6) == (1.0, "trivial", None)


def test_lower_trivial_floor():
    value, tag, _ = lower_bound(5, 4, 2)
    assert value >= 2 / 20 - 1e-12
    assert tag in ("trivial", "dilution")


def test_lower_published_time_table():
    """Write-once schedules for a single flip per cell per alpha writes."""
    published = {4: 0.290, 5: 0.256, 6: 0.235, 7: 0.216, 8: 0.201}
    t_opts = {4: 4, 5: 5, 6: 5, 7: 6, 8: 6}
    for alpha, want in published.items():
        value, tag, t_opt = lower_bound(alpha, 1, 1)
        assert tag == "time-construction"
        assert value == pytest.approx(want, abs=3e-3)
        assert t_opt == t_opts[alpha]


def test_lower_alpha_one_trivial_beats_halved_capacity():
    # writing p fresh cells per block every write gives p/beta, which the
    # split-block construction's C/2 cannot beat at this size
    value, tag, _ = lower_bound(1, 3, 2)
    assert tag == "trivial"
    assert value == pytest.approx(2 / 3)
    assert value >= wwl_capacity(WwlParams(3, 2)).lower / 2


def test_lower_alpha_one_coset_reaches_capacity():
    value, tag, _ = lower_bound(1, 3, 2, use_coset=True)
    assert tag == "coset"
    assert value == pytest.approx(wwl_capacity(WwlParams(3, 2)).lower, abs=1e-9)


def test_lower_multiphase_budget():
    # p=2 over alpha=8: two write-once phases beat the single-phase rate
    value, tag, t_opt = lower_bound(8, 1, 2)
    single, _, _ = lower_bound(8, 1, 1)
    assert tag == "time-construction"
    assert value > single
    assert value == pytest.approx(max(
        [2 * math.log2(t + 1) / (8 + t) for t in range(1, 9)]
        + [math.log2(9) / 8]), abs=1e-12)


def test_lower_epoch_endpoint_value():
    # alpha = (p-1) t: the reset-free epoch value log2(t+1)/t equals the
    # in-window formula p log2(t+1)/(alpha+t) at t = 4; no code runs at
    # that rate, as TimePCode(4, 2, BitPerWriteWom(4)) widens its window
    # to 5 and rates 0.516
    value, tag, t_opt = lower_bound(4, 1, 2)
    assert tag == "time-construction"
    assert value == pytest.approx(math.log2(5) / 4, abs=1e-12)
    assert t_opt == 4


def test_lower_time_value_is_the_first_maximum_over_its_candidates():
    """(value, t_opt) at (alpha, 1, p) is the first best of a brute-force scan."""
    for alpha in range(2, 61):
        for p in range(1, alpha):
            if p == 1:
                cands = [(timep_theoretical_rate(1, t, alpha), t) for t in range(1, 3 * alpha + 4)]
            else:
                tstar = math.ceil(alpha / (p - 1))
                cands = [(timep_theoretical_rate(p, t, alpha), t)
                         for t in range(1, alpha // (p - 1) + 1)]
                cands.append((math.log2(tstar + 1) / tstar, tstar))
            best = max(cands, key=lambda c: c[0])  # the first of equal values
            got = lower_bound(alpha, 1, p)
            if best[0] > p / alpha:
                assert got == (best[0], "time-construction", best[1]), (alpha, p)
            else:
                assert got == (p / alpha, "trivial", None), (alpha, p)


@pytest.mark.parametrize("alpha", range(2, 13))
def test_lower_bound_covers_every_executable_schedule(alpha):
    """No (alpha, 1, p) write-once schedule the codes run beats the bound."""
    for p in range(1, alpha):
        value, _, _ = lower_bound(alpha, 1, p)
        for t in range(1, 3 * alpha + 4):
            rate = TimePCode(alpha, p, BitPerWriteWom(t)).theoretical_rate
            assert rate <= value + 1e-12, (alpha, p, t)
            if p == 1:
                assert TimeCode(alpha, BitPerWriteWom(t)).theoretical_rate <= value + 1e-12
        if p == 1:
            assert TimeCode(alpha, RsWom()).theoretical_rate <= value + 1e-12


def test_lower_general_point_dilutes():
    # the alpha=4 single-flip schedule spread over 2-cell blocks beats 1/8
    value, tag, t_opt = lower_bound(4, 2, 1)
    assert tag == "dilution"
    v_time = lower_bound(4, 1, 1)[0]
    assert value == pytest.approx(v_time / 2, abs=1e-12)
    assert value > 1 / 8
    assert t_opt == 4


def test_lower_general_tie_prefers_trivial():
    # at (2,3,2) both dilutions collapse to the trivial 1/3
    value, tag, _ = lower_bound(2, 3, 2)
    assert tag == "trivial"
    assert value == pytest.approx(1 / 3)


@pytest.mark.parametrize("alpha,beta,p", [
    (1, 2, 1), (1, 6, 3), (2, 1, 1), (8, 1, 2), (2, 2, 1),
    (3, 3, 1), (2, 3, 2), (4, 2, 1), (3, 2, 2), (5, 5, 24),
])
def test_lower_never_exceeds_upper(alpha, beta, p):
    report = bounds_report(alpha, beta, p)
    assert 0.0 < report.lower <= report.upper <= 1.0
    coset = bounds_report(alpha, beta, p, use_coset=True)
    assert coset.lower <= coset.upper + 1e-9


def test_fig_style_monotone_grids():
    # alpha=1 lower bounds: rise with p, fall with beta
    for beta in range(2, 12):
        v1 = lower_bound(1, beta, 1)[0]
        v2 = lower_bound(1, beta, min(4, beta))[0]
        assert v2 >= v1 - 1e-12
    # beta=1: never below the trivial p/alpha floor, and the write-once
    # schedule wins outright once alpha is large against p
    for alpha in range(2, 14):
        for p in (1, 2, 3):
            if p >= alpha:
                continue
            value, tag, _ = lower_bound(alpha, 1, p)
            assert value >= p / alpha - 1e-12
            if alpha >= 4 * p:
                assert tag == "time-construction"
                assert value > p / alpha


# --- 2D counting -------------------------------------------------------------

def brute_2d(a, b, p, m, n):
    total = 0
    for bits in product((0, 1), repeat=m * n):
        grid = [bits[r * n:(r + 1) * n] for r in range(m)]
        ok = True
        for i in range(m - a + 1):
            for j in range(n - b + 1):
                s = sum(grid[i + r][j + c] for r in range(a) for c in range(b))
                if s > p:
                    ok = False
                    break
            if not ok:
                break
        total += ok
    return total


@pytest.mark.parametrize("a,b,p,m,n", [
    (1, 1, 1, 2, 2),
    (2, 2, 1, 3, 3),
    (2, 2, 1, 4, 3),
    (2, 3, 2, 3, 4),
    (3, 2, 2, 4, 3),   # transposed orientation internally
    (2, 2, 3, 3, 3),
    (1, 3, 2, 2, 5),
    (3, 3, 1, 4, 4),
    (2, 2, 2, 4, 4),
    (4, 2, 1, 5, 3),
    (2, 4, 2, 3, 5),
    (3, 2, 3, 4, 4),
])
def test_count_2d_matches_brute_force(a, b, p, m, n):
    assert count_2d_arrays(a, b, p, m, n).count == brute_2d(a, b, p, m, n)


@pytest.mark.parametrize("a,b,p,m,n,count", [
    (2, 2, 1, 8, 8, 1355115601),
    (3, 3, 1, 6, 6, 2875),
    (2, 2, 2, 7, 7, 516844071813),
    (2, 3, 2, 7, 7, 6404266939),
    (3, 3, 1, 8, 8, 704468),
])
def test_count_2d_golden(a, b, p, m, n, count):
    assert count_2d_arrays(a, b, p, m, n).count == count


def test_count_2d_unconstrained_window_is_free():
    assert count_2d_arrays(1, 1, 1, 2, 2).count == 16


def test_count_2d_vacuous_budget_returns_at_once():
    start = time.perf_counter()
    got = count_2d_arrays(2, 2, 4, 20, 20)
    assert time.perf_counter() - start < 1.0
    assert got.count == 1 << 400
    assert count_2d_arrays(2, 2, 9, 30, 30).count == 1 << 900  # past every size cap


def test_count_2d_vacuous_sizes():
    assert count_2d_arrays(3, 3, 1, 2, 5).count == 2 ** 10
    assert count_2d_arrays(3, 3, 1, 5, 2).count == 2 ** 10


def test_count_2d_single_row_windows_factor():
    from tscc.wwl import count_wwl
    got = count_2d_arrays(1, 3, 2, 8, 8)
    assert got.count == count_wwl(WwlParams(3, 2), 8) ** 8
    assert got.normalized == pytest.approx(math.log2(149) / 8)


def test_count_2d_transpose_invariant():
    a = count_2d_arrays(2, 3, 2, 4, 5).count
    b = count_2d_arrays(3, 2, 2, 5, 4).count
    assert a == b


def test_count_2d_resource_limit():
    with pytest.raises(ResourceLimitError):
        count_2d_arrays(4, 2, 1, 20, 20)  # 2^20 rows x 17 windows, transposed
    with pytest.raises(ResourceLimitError):
        count_2d_arrays(2, 2, 1, 30, 30)  # 2^30 rows x 29 windows


def brute_2d_single_ones(a, b, m, n):
    """p = 1: sets of cells with no two in one a-by-b window of the m-by-n array."""
    cells = [(r, c) for r in range(m) for c in range(n)]

    def count(k, chosen):
        if k == len(cells):
            return 1
        r, c = cells[k]
        total = count(k + 1, chosen)
        if all(abs(r - r2) >= a or abs(c - c2) >= b for r2, c2 in chosen):
            total += count(k + 1, chosen + [(r, c)])
        return total

    return count(0, [])


def test_count_2d_wide_state_counts_through_the_graph():
    """A 28-bit strip state, but only 77 of them: the graph cap alone decides."""
    assert brute_2d_single_ones(5, 5, 7, 7) == 725
    assert count_2d_arrays(5, 5, 1, 7, 7).count == 725


def test_count_2d_memory_does_not_grow_with_m():
    tracemalloc.start()
    try:
        count_2d_arrays(2, 2, 1, 800, 12)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2 ** 20


def test_count_2d_graph_limit_raises_before_building(monkeypatch):
    monkeypatch.setattr(wwl_mod, "_strip_rows", None)  # any row table would fail
    with pytest.raises(ResourceLimitError):
        count_2d_arrays(2, 2, 1, 17, 17)  # 2^17 rows x 16 windows
    monkeypatch.undo()
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError):
        count_2d_arrays(3, 2, 5, 30, 11)  # 2,048 one-row states x 2,048 rows
    assert time.perf_counter() - start < 1.0


def test_normalized_counts_bound_below_one():
    got = count_2d_arrays(2, 2, 1, 6, 6)
    assert 0.0 < got.normalized <= 1.0


# --- tables ------------------------------------------------------------------

def test_parse_grid():
    ranges = parse_grid("alpha=4:8,beta=1,p=1")
    assert ranges == {"alpha": [4, 5, 6, 7, 8], "beta": [1], "p": [1]}
    with pytest.raises(ValueError):
        parse_grid("alpha=4:8,beta=1")
    with pytest.raises(ValueError):
        parse_grid("alpha=8:4,beta=1,p=1")
    with pytest.raises(ValueError):
        parse_grid("gamma=1,alpha=1,beta=1,p=1")
    with pytest.raises(ValueError, match="'alpha' given twice"):
        parse_grid("alpha=1:2,beta=1,p=1,alpha=3")


def test_emit_tables_golden_row():
    csv = emit_tables("alpha=4:8,beta=1,p=1")
    lines = csv.strip().splitlines()
    assert lines[0] == "alpha,beta,p,t_opt,lower,upper,provenance"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[:4] == ["4", "1", "1", "4"]
    assert float(first[4]) == pytest.approx(0.290, abs=3e-3)
    assert first[6] == "time-construction|wwl-beta1"


def test_emit_tables_golden_grid():
    csv = emit_tables("alpha=1:6,beta=1:8,p=1:3")
    assert len(csv.splitlines()) == 1 + 6 * 8 * 3
    assert hashlib.sha256(csv.encode()).hexdigest() == (
        "7677ca3272c4d3f3dce1609f8e4d30f807937b59be1ae7c0be5134a5b7f3d1e5")


def test_emit_tables_computes_each_capacity_once(monkeypatch):
    batches = []

    def counting(params_list, *args, **kwargs):
        batches.append(list(params_list))
        return wwl_capacities(batches[-1], *args, **kwargs)

    monkeypatch.setattr(bounds_mod, "wwl_capacities", counting)
    emit_tables("alpha=1:6,beta=1:8,p=1:3")
    assert [len(b) for b in batches] == [len(set(batches[0]))] == [18]
    batches.clear()
    emit_tables("alpha=1:6,beta=1:12,p=1:4")
    assert [len(b) for b in batches] == [len(set(batches[0]))] == [38]
