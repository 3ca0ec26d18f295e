import math
from itertools import product

import pytest

from tscc.core import (ConstraintParams, all_one, all_zero, check_constraint,
                       hamming_weight, measure_rate, parse_state, simulate)
from tscc.constructions import (BitPerWriteWom, DilutedSpaceCode,
                                DilutedTimeCode, RsWom, SpaceCode,
                                TabulatedWom, TimeCode, TimePCode, TrivialCode,
                                parse_wom_table, timep_code,
                                timep_theoretical_rate)
from tscc.cosets import find_good_code
from tscc.wwl import WwlParams


def assert_valid_run(code, periods=3, seed=11):
    result = simulate(code, periods * code.period, seed)
    assert result.round_trip_ok
    assert check_constraint(result.trace, code.params).satisfied
    return result


# --- schedule-only code ------------------------------------------------------

def test_trivial_golden_rate():
    code = TrivialCode(3, 3, 2, 15)
    assert code.theoretical_rate == pytest.approx(2 / 9)
    assert measure_rate(code, 3 * code.period).rate == pytest.approx(2 / 9)


def test_trivial_schedule_shape():
    code = TrivialCode(3, 3, 2, 15)
    # q = 1 full-ish writes: the first write touches 2 cells per block
    assert code.message_count(1) == 2 ** 10
    assert code.message_count(2) == 1
    assert code.message_count(3) == 1
    assert code.message_count(4) == 2 ** 10  # next period


def test_trivial_vacuous_budget_writes_everything():
    code = TrivialCode(2, 2, 4, 6)
    assert code.params.vacuous
    for i in (1, 2):
        assert code.message_count(i) == 2 ** 6
    assert code.theoretical_rate == pytest.approx(1.0)
    assert_valid_run(code)


def test_trivial_partial_write_keeps_other_cells():
    code = TrivialCode(1, 3, 2, 6)
    state = code.encode(1, code.message_count(1), all_zero(6))
    # scheduled cells are the first two of each 3-block
    assert state == (1, 1, 0, 1, 1, 0)
    state2 = code.encode(2, 1, state)
    assert state2 == (0, 0, 0, 0, 0, 0)


def test_trivial_needs_block_multiple():
    with pytest.raises(ValueError):
        TrivialCode(3, 3, 2, 14)


@pytest.mark.parametrize("alpha,beta,p,n", [
    (3, 3, 2, 15), (2, 2, 1, 4), (1, 3, 3, 6), (4, 2, 5, 8),
])
def test_trivial_roundtrip_and_constraint(alpha, beta, p, n):
    assert_valid_run(TrivialCode(alpha, beta, p, n))


# --- per-write budget code ---------------------------------------------------

def test_space_golden_trace():
    code = SpaceCode(3, 2, 4)
    assert code.n_cells == 10
    state = all_zero(10)
    expect = ["1011000000", "1101001011", "0000001101", "0011000000"]
    for message, want in zip([11, 7, 13, 4], expect):
        state = code.encode(1, message, state)
        assert state == parse_state(want)
        assert code.decode(1, state) == message


def test_space_rate_golden():
    code = SpaceCode(3, 2, 4)
    assert code.theoretical_rate == pytest.approx(math.log2(13) / 10)
    assert measure_rate(code, 12).rate == pytest.approx(code.theoretical_rate)


def test_space_reachable_state_invariant():
    code = SpaceCode(2, 1, 5)
    result = assert_valid_run(code, periods=40)
    np_, beta = 5, 2
    prev_left = all_zero(np_)
    for state in result.trace.states[1:].tolist():
        state = tuple(state)
        left = state[:np_]
        mid = state[np_:np_ + beta - 1]
        right = state[np_ + beta - 1:]
        assert not any(mid)
        assert right == prev_left
        prev_left = left


def test_space_rejects_foreign_state():
    code = SpaceCode(3, 2, 4)
    with pytest.raises(ValueError):
        code.encode(1, 1, (0, 0, 0, 0, 1, 0, 0, 0, 0, 0))  # spacer raised
    with pytest.raises(ValueError):
        code.decode(1, all_zero(9))  # wrong width


@pytest.mark.parametrize("beta,p,nprime", [(3, 2, 4), (2, 1, 5), (4, 2, 8)])
def test_space_roundtrip_and_constraint(beta, p, nprime):
    assert_valid_run(SpaceCode(beta, p, nprime), periods=30)


# --- write-once codes --------------------------------------------------------

def test_rs_wom_exhaustive():
    wom = RsWom()
    for m1, m2 in product(range(1, 5), repeat=2):
        s1 = wom.encode_w(1, m1, (0, 0, 0))
        s2 = wom.encode_w(2, m2, s1)
        assert wom.decode_w(1, s1) == m1
        assert wom.decode_w(2, s2) == m2
        assert all(a <= b for a, b in zip(s1, s2))  # write-once in the epoch


def test_rs_wom_rejects_bad_states():
    wom = RsWom()
    with pytest.raises(ValueError):
        wom.encode_w(1, 2, (0, 1, 0))
    with pytest.raises(ValueError):
        wom.encode_w(2, 3, (1, 0, 1))
    with pytest.raises(ValueError):
        wom.decode_w(2, (1, 1, 0, 1))  # wrong width
    with pytest.raises(ValueError):
        wom.encode_w(3, 1, (0, 0, 0))


def test_bit_per_write_wom_restartable():
    """Each write owns one cell, so any starting state works."""
    wom = BitPerWriteWom(3)
    for start in product((0, 1), repeat=3):
        for w in (1, 2, 3):
            for m in (1, 2):
                out = wom.encode_w(w, m, start)
                assert wom.decode_w(w, out) == m
                changed = [i for i in range(3) if out[i] != start[i]]
                assert changed in ([], [w - 1])


def fill_rs_table():
    """Complete RS_TABLE's write-2 block from the reference implementation."""
    wom = RsWom()
    lines = ["3 2", "write 1"]
    for m in range(1, 5):
        out = wom.encode_w(1, m, (0, 0, 0))
        lines.append(f"000 {m} -> {''.join(map(str, out))}")
    lines.append("write 2")
    seen = set()
    for m1 in range(1, 5):
        s1 = wom.encode_w(1, m1, (0, 0, 0))
        if s1 in seen:
            continue
        seen.add(s1)
        for m2 in range(1, 5):
            out = wom.encode_w(2, m2, s1)
            lines.append(f"{''.join(map(str, s1))} {m2} -> {''.join(map(str, out))}")
    return "\n".join(lines)


def test_tabulated_wom_matches_reference():
    table = parse_wom_table(fill_rs_table())
    ref = RsWom()
    assert table.n_cells == 3 and table.writes == 2
    for m1, m2 in product(range(1, 5), repeat=2):
        s1 = table.encode_w(1, m1, (0, 0, 0))
        assert s1 == ref.encode_w(1, m1, (0, 0, 0))
        assert table.encode_w(2, m2, s1) == ref.encode_w(2, m2, s1)


def test_tabulated_wom_rejects_lowering():
    with pytest.raises(ValueError, match="lowers"):
        TabulatedWom(2, 1, {1: {((0, 0), 1): (0, 0), ((1, 0), 1): (0, 1)}})


def test_tabulated_wom_rejects_ambiguous_decode():
    with pytest.raises(ValueError, match="decode"):
        TabulatedWom(2, 1, {1: {((0, 0), 1): (0, 1), ((0, 0), 2): (0, 1)}})


def test_tabulated_wom_rejects_message_gaps():
    with pytest.raises(ValueError, match="messages"):
        TabulatedWom(2, 1, {1: {((0, 0), 1): (0, 0), ((0, 0), 3): (1, 0)}})


def test_tabulated_wom_requires_reachable_coverage():
    # write 2 lacks a transition from the reachable state 01
    with pytest.raises(ValueError, match="no transition"):
        TabulatedWom(2, 2, {
            1: {((0, 0), 1): (0, 0), ((0, 0), 2): (0, 1)},
            2: {((0, 0), 1): (1, 0), ((0, 0), 2): (1, 1)},
        })


def test_parse_wom_table_rejects_junk():
    with pytest.raises(ValueError):
        parse_wom_table("")
    with pytest.raises(ValueError):
        parse_wom_table("3\nwrite 1\n000 1 -> 000")
    with pytest.raises(ValueError):
        parse_wom_table("3 2\n000 1 -> 000")
    with pytest.raises(ValueError):
        parse_wom_table("3 2\nwrite 1\n000 1 000")


# --- time-scheduled codes ----------------------------------------------------

def test_time_code_rate_golden():
    code = TimeCode(4, RsWom())
    assert code.period == 12
    assert measure_rate(code, 12).rate == pytest.approx(8 / 36)
    assert code.theoretical_rate == pytest.approx(math.log2(3) / 6)
    assert timep_theoretical_rate(1, 2, 4) == pytest.approx(math.log2(3) / 6)


def test_time_code_trace_and_monotone_phases():
    code = TimeCode(4, RsWom())
    result = assert_valid_run(code, periods=6, seed=3)
    t, alpha, n = 2, 4, 3
    states = result.trace.states.tolist()
    for idx in range(1, len(states)):
        slot = (idx - 1) % code.period + 1
        prev, cur = states[idx - 1], states[idx]
        if slot <= t + 1:
            assert all(a <= b for a, b in zip(prev, cur))  # ascending half
        elif t + alpha + 1 <= slot <= 2 * t + alpha + 1:
            assert all(a >= b for a, b in zip(prev, cur))  # descending half
        else:
            assert prev == cur  # silence


def test_time_code_with_bit_per_write():
    assert_valid_run(TimeCode(2, BitPerWriteWom(3)), periods=5)


@pytest.mark.parametrize("alpha", range(1, 7))
@pytest.mark.parametrize("wom", [RsWom(), BitPerWriteWom(1), BitPerWriteWom(3)],
                         ids=["rs", "bitper1", "bitper3"])
def test_time_code_is_the_one_phase_timep_schedule(alpha, wom):
    """Every message from every visited state, over four TimeCode periods."""
    time_code, timep = TimeCode(alpha, wom), TimePCode(alpha, 1, wom)
    assert time_code.period == 2 * timep.period
    state = all_zero(wom.n_cells)
    for i in range(1, 4 * time_code.period + 1):
        count = time_code.message_count(i)
        assert timep.message_count(i) == count
        for m in range(1, count + 1):
            nxt = time_code.encode(i, m, state)
            assert timep.encode(i, m, state) == nxt
            assert time_code.decode(i, nxt) == timep.decode(i, nxt) == m
        state = time_code.encode(i, i % count + 1, state)


def test_timep_even_keeps_reset_zero():
    code = TimePCode(2, 2, BitPerWriteWom(1))
    assert code.period == 3
    result = assert_valid_run(code, periods=8, seed=9)
    for k in range(1, 9):
        assert result.trace.states[k * 3] == (0,)  # state after each reset


def test_timep_odd_alternates_reset_level():
    code = TimePCode(4, 3, BitPerWriteWom(1))
    assert code.period == 5
    result = assert_valid_run(code, periods=8, seed=1)
    for period_no in range(1, 9):
        state = result.trace.states[(period_no - 1) * 5 + 4]  # after reset write
        assert state == (all_one(1) if period_no % 2 else all_zero(1))


def test_timep_rejects_overfull_schedule():
    with pytest.raises(ValueError, match="timep_code"):
        TimePCode(3, 2, BitPerWriteWom(4))


def test_timep_compaction_fallback():
    code = timep_code(3, 2, BitPerWriteWom(4))
    assert code.is_compacted
    assert code.params == ConstraintParams(3, 1, 2)
    assert code.period == 9
    assert_valid_run(code, periods=5, seed=2)


def test_timep_uncompacted_when_alpha_fits():
    code = timep_code(4, 3, BitPerWriteWom(1))
    assert not code.is_compacted
    assert code.period == 5


def test_timep_rate_golden():
    assert timep_theoretical_rate(3, 1, 4) == pytest.approx(0.6)
    code = TimePCode(4, 3, BitPerWriteWom(1))
    assert measure_rate(code, 5).rate == pytest.approx(0.6)


@pytest.mark.parametrize("alpha,p,t", [(2, 1, 2), (5, 2, 2), (7, 3, 2), (3, 1, 2)])
def test_timep_grid(alpha, p, t):
    assert_valid_run(timep_code(alpha, p, BitPerWriteWom(t)), periods=4)


@pytest.mark.parametrize("p", [2, 3])
def test_timep_rejects_zero_start_wom_when_built(p):
    """Phases after the first start mid-epoch, which RsWom cannot do."""
    with pytest.raises(ValueError, match="BitPerWriteWom"):
        TimePCode(8, p, RsWom())
    with pytest.raises(ValueError, match="BitPerWriteWom"):
        timep_code(4, p, RsWom())


def test_timep_single_phase_keeps_rs_wom():
    assert_valid_run(timep_code(4, 1, RsWom()), periods=4)


# --- dilutions ---------------------------------------------------------------

def test_diluted_time_stretches_constraint():
    inner = SpaceCode(3, 2, 4)
    code = DilutedTimeCode(inner, 2)
    assert code.params == ConstraintParams(2, 3, 2)
    assert code.period == 2
    result = assert_valid_run(code, periods=20)
    # padding writes change nothing
    states = result.trace.states.tolist()
    for idx in range(2, len(states), 2):
        assert states[idx] == states[idx - 1]
    assert measure_rate(code, 20).rate == pytest.approx(inner.theoretical_rate / 2)


def test_diluted_time_rejects_wrong_inner():
    with pytest.raises(ValueError):
        DilutedTimeCode(TrivialCode(2, 2, 1, 4), 2)


def test_diluted_space_stretches_cells():
    inner = TimeCode(4, RsWom())
    code = DilutedSpaceCode(inner, 3)
    assert code.params == ConstraintParams(4, 3, 1)
    assert code.n_cells == 9
    result = assert_valid_run(code, periods=4)
    for state in result.trace.states:
        assert not any(state[j] for j in range(9) if j % 3)


def test_diluted_space_rejects_wrong_inner():
    with pytest.raises(ValueError):
        DilutedSpaceCode(SpaceCode(3, 2, 4), 3)


def test_diluted_space_rejects_foreign_state():
    code = DilutedSpaceCode(TimeCode(2, BitPerWriteWom(2)), 2)
    bad = (0, 1, 0, 0)
    with pytest.raises(ValueError, match="padding"):
        code.encode(1, 1, bad)


# --- state rule shared by every construction -----------------------------------

SEVEN_CODES = {
    "trivial": lambda: TrivialCode(3, 3, 2, 15),
    "space": lambda: SpaceCode(3, 2, 4),
    "time": lambda: TimeCode(3, BitPerWriteWom(2)),
    "timep": lambda: TimePCode(4, 2, BitPerWriteWom(1)),
    "dilute-time": lambda: DilutedTimeCode(SpaceCode(3, 2, 4), 2),
    "dilute-space": lambda: DilutedSpaceCode(TimeCode(4, RsWom()), 3),
    "coset": lambda: find_good_code(8, WwlParams(3, 2))[1],
}


@pytest.mark.parametrize("fault", ["short", "long", "holds-2"])
@pytest.mark.parametrize("name", list(SEVEN_CODES))
def test_codes_reject_states_that_are_not_n_binary_cells(name, fault):
    code = SEVEN_CODES[name]()
    zero = all_zero(code.n_cells)
    bad = {"short": zero[1:], "long": zero + (0,), "holds-2": (2,) + zero[1:]}[fault]
    with pytest.raises(ValueError, match=f"must be {code.n_cells} cells, each 0 or 1"):
        code.encode(1, 1, bad)
    with pytest.raises(ValueError, match=f"must be {code.n_cells} cells, each 0 or 1"):
        code.decode(1, bad)
    assert code.decode(1, code.encode(1, 1, zero)) == 1


@pytest.mark.parametrize("name", list(SEVEN_CODES))
def test_codes_decode_trace_rows(name):
    code = SEVEN_CODES[name]()
    result = simulate(code, 2 * code.period, seed=3)
    rows = result.trace.states
    assert [code.decode(i, rows[i]) for i in range(1, len(rows))] == list(result.messages)
    state = code.encode(1, code.message_count(1), rows[0])
    assert isinstance(state, tuple) and all(type(b) is int for b in state)
