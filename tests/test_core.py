import ast
import io
import itertools
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from tscc import core
from tscc.core import (ConstraintParams, WriteSequence, all_zero, bits_from_int,
                       check_constraint, check_lines, complement, flip_matrix,
                       format_state, measure_rate, parse_state, psi, simulate,
                       xor)
from tscc.constructions import TrivialCode


def test_parse_format_roundtrip():
    assert parse_state("1011001001") == (1, 0, 1, 1, 0, 0, 1, 0, 0, 1)
    assert format_state((1, 1, 0, 0, 0)) == "11000"


def test_parse_rejects_junk():
    with pytest.raises(ValueError):
        parse_state("10a1")
    with pytest.raises(ValueError):
        parse_state("")


def test_psi_is_msb_first():
    assert psi((1, 1, 0, 0, 0)) == 24
    assert psi((0, 0, 0)) == 0
    assert psi((0, 1)) == 1


@pytest.mark.parametrize("width", [12, 64])
def test_psi_reads_numpy_cells_as_ints(width):
    # int | np.uint8 stays uint8 under NumPy 2 promotion, which would wrap at 8 cells
    assert psi(tuple(np.ones(width, np.uint8))) == 2 ** width - 1
    cells = np.zeros(width, np.uint8)
    cells[0] = 1
    assert psi(tuple(cells)) == 2 ** (width - 1)


@given(st.integers(0, 2 ** 12 - 1))
def test_bits_from_int_inverts_psi(v):
    assert psi(bits_from_int(v, 12)) == v


def test_hamming_helpers():
    assert complement((1, 0, 1, 1)) == (0, 1, 0, 0)
    assert xor((1, 0, 1), (1, 1, 0)) == (0, 1, 1)


# --- WriteSequence -----------------------------------------------------------

def test_sequence_pins_zero_start():
    with pytest.raises(ValueError):
        WriteSequence([(1, 0), (0, 0)])
    ws = WriteSequence([(1, 0), (0, 0)], allow_nonzero_start=True)
    assert ws.writes == 1


def test_sequence_rejects_ragged_and_nonbinary():
    with pytest.raises(ValueError):
        WriteSequence([(0, 0), (0, 0, 1)])
    with pytest.raises(ValueError):
        WriteSequence([(0, 0), (0, 2)])
    with pytest.raises(ValueError):
        WriteSequence([])


def test_sequence_line_roundtrip():
    lines = ["0000", "1010", "1111"]
    ws = WriteSequence.from_lines(lines)
    assert ws.to_lines() == lines
    assert ws.writes == 2


def test_flip_matrix_rows_are_xors():
    ws = WriteSequence([(0, 0, 0), (1, 0, 1), (1, 1, 1)])
    flips = flip_matrix(ws)
    assert flips.dtype == np.uint8 and flips.tolist() == [[1, 0, 1], [0, 1, 0]]


@given(st.data())
def test_flip_row_sums_equal_write_costs(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 8))
    states = [tuple(data.draw(st.integers(0, 1)) for _ in range(n))
              for _ in range(m + 1)]
    ws = WriteSequence(states, allow_nonzero_start=True)
    for i, row in enumerate(flip_matrix(ws), start=1):
        assert row.sum() == sum(a != b for a, b in zip(states[i], states[i - 1]))


# --- constraint checker ------------------------------------------------------

def naive_check(ws, params):
    """Quadruple-loop reference for the windowed flip budget."""
    flips = flip_matrix(ws) if ws.writes else ()
    m, n = len(flips), ws.n
    if n < params.beta:
        raise ValueError("too narrow")
    rows = min(params.alpha, m)
    for i in range(1, max(1, m - params.alpha + 1) + 1):
        for j in range(1, n - params.beta + 2):
            cost = sum(flips[r][c]
                       for r in range(i - 1, i - 1 + rows)
                       for c in range(j - 1, j - 1 + params.beta))
            if cost > params.p:
                return (i, j, cost)
    return None


def assert_matches_naive(ws, params):
    verdict = check_constraint(ws, params)
    expect = naive_check(ws, params)
    if expect is None:
        assert verdict.satisfied
    else:
        assert (verdict.write, verdict.cell, verdict.cost) == expect


def test_checker_exhaustive_tiny():
    """Every 2-cell trace of up to 3 writes, against the naive scan."""
    for m in range(1, 4):
        for cells in itertools.product(range(4), repeat=m):
            states = [(0, 0)] + [bits_from_int(v, 2) for v in cells]
            ws = WriteSequence(states)
            for alpha in (1, 2, 3):
                for p in (1, 2, 3):
                    assert_matches_naive(ws, ConstraintParams(alpha, 2, p))


@settings(max_examples=300)
@given(st.data())
def test_checker_matches_naive_random(data):
    n = data.draw(st.integers(1, 8))
    m = data.draw(st.integers(1, 64 // n))
    states = [all_zero(n)] + [
        tuple(data.draw(st.integers(0, 1)) for _ in range(n)) for _ in range(m)]
    ws = WriteSequence(states)
    alpha = data.draw(st.integers(1, m + 1))
    beta = data.draw(st.integers(1, n))
    p = data.draw(st.integers(1, alpha * beta + 1))
    assert_matches_naive(ws, ConstraintParams(alpha, beta, p))


@given(st.data())
def test_vacuous_budget_always_satisfied(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(1, 6))
    states = [all_zero(n)] + [
        tuple(data.draw(st.integers(0, 1)) for _ in range(n)) for _ in range(m)]
    alpha = data.draw(st.integers(1, 4))
    beta = data.draw(st.integers(1, n))
    params = ConstraintParams(alpha, beta, alpha * beta)
    assert params.vacuous
    assert check_constraint(WriteSequence(states), params).satisfied


def test_checker_rejects_narrow_sequence():
    ws = WriteSequence([(0, 0), (1, 1)])
    with pytest.raises(ValueError):
        check_constraint(ws, ConstraintParams(1, 3, 1))


def test_checker_clips_short_traces():
    # one write of cost 2 against alpha=3: the lone clipped window is checked
    ws = WriteSequence([(0, 0), (1, 1)])
    assert not check_constraint(ws, ConstraintParams(3, 2, 1))
    assert check_constraint(ws, ConstraintParams(3, 2, 2)).satisfied


def test_first_violation_is_lexicographic():
    # flip rows 0000, 0011, 0011, 1110: windows starting at write 2 cell 3
    # and write 3 cell 2 both overflow, so (2, 3) must win
    ws = WriteSequence([
        (0, 0, 0, 0),
        (0, 0, 0, 0),
        (0, 0, 1, 1),
        (0, 0, 0, 0),
        (1, 1, 1, 0),
    ])
    verdict = check_constraint(ws, ConstraintParams(2, 2, 2))
    assert (verdict.write, verdict.cell, verdict.cost) == (2, 3, 4)


def test_checker_counts_past_sixteen_bits():
    # every cell flips on every write: the 300 x 300 window costs 90,000
    ws = WriteSequence([(k % 2,) * 300 for k in range(301)])
    verdict = check_constraint(ws, ConstraintParams(300, 300, 89_999))
    assert (verdict.write, verdict.cell, verdict.cost) == (1, 1, 90_000)
    assert check_constraint(ws, ConstraintParams(300, 300, 90_000)).satisfied


def test_verdict_is_truthy_only_when_satisfied():
    ws = WriteSequence([(0, 0), (1, 1)])
    assert bool(check_constraint(ws, ConstraintParams(1, 2, 2)))
    assert not bool(check_constraint(ws, ConstraintParams(1, 2, 1)))


def assert_streams_match(ws, params, expect, rows_per_block=(1, 2, 3)):
    """check_constraint and check_lines give `expect` at each block size."""
    lines = ws.to_lines()
    for rows in rows_per_block:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_CELLS", rows * ws.n)
            verdict, writes, cells = check_lines(lines, params)
            assert verdict == check_constraint(ws, params)
        assert (writes, cells) == (ws.writes, ws.n)
        if expect is None:
            assert verdict.satisfied
        else:
            assert (verdict.write, verdict.cell, verdict.cost) == expect


def assert_streams_match_naive(ws, params):
    """check_constraint and check_lines against naive_check at 1-3 rows a block."""
    assert_streams_match(ws, params, naive_check(ws, params))


@settings(max_examples=300)
@given(st.data())
def test_streamed_checker_matches_naive(data):
    n = data.draw(st.integers(1, 6))
    m = data.draw(st.integers(0, 16))
    states = [tuple(data.draw(st.integers(0, 1)) for _ in range(n))
              for _ in range(m + 1)]
    ws = WriteSequence(states, allow_nonzero_start=True)
    alpha = data.draw(st.integers(1, 8))
    beta = data.draw(st.integers(1, n))
    p = data.draw(st.integers(1, alpha * beta + 1))
    assert_streams_match_naive(ws, ConstraintParams(alpha, beta, p))


@pytest.mark.parametrize("rows, alpha, beta, p, expect", [
    # flip rows 0000, 0000, 0011, 0001, 1000, 0000: the window of writes
    # 3-4 at cells 3-4 costs 3; at one and two states a block, writes 3
    # and 4 fall in different blocks
    (["0000", "0000", "0000", "0011", "0010", "1010", "1010"], 2, 2, 2, (3, 3, 3)),
    # alpha = 5 is longer than every block; writes 1-5 at cells 1-2 cost 4
    (["00", "10", "00", "10", "00", "00", "00"], 5, 2, 3, (1, 1, 4)),
    # three writes against alpha = 4: the clipped window [1, 3] costs 3
    (["000", "100", "000", "100"], 4, 3, 2, (1, 1, 3)),
    (["000", "100", "000", "100"], 4, 3, 3, None),
    # no writes at all
    (["0101"], 1, 1, 1, None),
])
def test_streamed_checker_cases(rows, alpha, beta, p, expect):
    ws = WriteSequence.from_lines(rows)
    assert naive_check(ws, ConstraintParams(alpha, beta, p)) == expect
    assert_streams_match_naive(ws, ConstraintParams(alpha, beta, p))


def box_sum_check(ws, params):
    """First (write, cell, cost) over budget from an int64 box-sum table, or None."""
    if ws.writes == 0:
        return None
    a, b = min(params.alpha, ws.writes), params.beta
    table = np.zeros((ws.writes + 1, ws.n + 1), np.int64)
    table[1:, 1:] = flip_matrix(ws).astype(np.int64).cumsum(0).cumsum(1)
    cost = table[a:, b:] - table[:-a, b:] - table[a:, :-b] + table[:-a, :-b]
    over = np.argwhere(cost > params.p)
    if not len(over):
        return None
    i, j = over[0]
    return (int(i) + 1, int(j) + 1, int(cost[i, j]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_streamed_checker_matches_box_sums(data):
    # alpha is mostly longer than a block of 1-5 rows
    n = data.draw(st.integers(1, 48))
    m = data.draw(st.integers(0, 60))
    density = data.draw(st.sampled_from([0.05, 0.3, 0.9]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    ws = WriteSequence(rng.random((m + 1, n)) < density, allow_nonzero_start=True)
    alpha = data.draw(st.integers(1, 40))
    beta = data.draw(st.integers(1, n))
    p = data.draw(st.integers(1, min(alpha, max(m, 1)) * beta + 1))
    params = ConstraintParams(alpha, beta, p)
    rows = data.draw(st.integers(1, 5))
    assert_streams_match(ws, params, box_sum_check(ws, params), (rows,))


@pytest.mark.parametrize("alpha, beta", [
    # window costs alpha * beta on both sides of the uint8 and uint16 limits,
    # with beta alone on both sides of 255 | 256 too
    (15, 17), (1, 255), (16, 16), (1, 256), (255, 257), (256, 256)])
def test_checker_is_exact_at_type_limits(alpha, beta):
    # every cell flips on every write, so every window costs alpha * beta
    # and each cell's sums over writes run far past the type's limit
    ws = WriteSequence([(k % 2,) * (beta + 2) for k in range(alpha + 3)])
    assert_streams_match(ws, ConstraintParams(alpha, beta, alpha * beta - 1), (1, 1, alpha * beta))
    assert_streams_match(ws, ConstraintParams(alpha, beta, alpha * beta), None)


def test_checker_memory_does_not_follow_alpha():
    # a ring of alpha flip rows would need 2 * 10**12 bytes here
    ws = WriteSequence([(0, 0), (1, 1), (0, 1)])
    verdict = check_constraint(ws, ConstraintParams(10 ** 12, 2, 2))
    assert (verdict.write, verdict.cell, verdict.cost) == (1, 1, 3)


def test_one_row_blocks_stay_linear_when_alpha_exceeds_the_file(monkeypatch):
    # the sums of all 20,000 writes stay needed; copying them on every
    # block would take minutes, growing them by doubling takes well under 1 s
    monkeypatch.setattr(core, "_BLOCK_CELLS", 16)
    rng = np.random.default_rng(0)
    ws = WriteSequence(rng.random((20_001, 16)) < 0.01, allow_nonzero_start=True)
    start = time.perf_counter()
    verdict, writes, _ = check_lines(ws.to_lines(), ConstraintParams(10 ** 9, 4, 10 ** 6))
    assert verdict.satisfied and writes == 20_000
    assert time.perf_counter() - start < 10


def test_check_lines_reports_the_first_fault_in_file_order():
    # a ragged state 2 comes before a non-binary state 3
    lines = ["0000", "0101", "011", "01x1"]
    for rows in (1, 2, 4):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(core, "_BLOCK_CELLS", rows * 4)
            with pytest.raises(ValueError, match="state 2 has 3 cells, expected 4"):
                check_lines(lines, ConstraintParams(1, 1, 1))
            with pytest.raises(ValueError, match="'01x1'"):
                check_lines(lines[:2] + lines[3:], ConstraintParams(1, 1, 1))
            with pytest.raises(ValueError, match="empty write-sequence input"):
                check_lines(["", "  "], ConstraintParams(1, 1, 1))
            # a newline inside a given line is a fault, not a row boundary
            with pytest.raises(ValueError, match="nonempty 01-string"):
                check_lines(["0000", "0101\n0110"], ConstraintParams(1, 1, 1))


def test_from_lines_shares_the_parse_rules():
    ws = WriteSequence.from_lines([" 0000\n", "\n", "0110\r\n", "0100"])
    assert ws.states.tolist() == [[0, 0, 0, 0], [0, 1, 1, 0], [0, 1, 0, 0]]
    assert WriteSequence.from_lines(io.BytesIO(b" 0000\n\n0110\r\n0100")) == ws
    assert WriteSequence.from_lines(io.BytesIO(b"0000\n0110\n0100\n")) == ws
    with pytest.raises(ValueError, match="state 1 has 3 cells"):
        WriteSequence.from_lines(["0000", "011"])


def _rows(count, n, seed):
    rng = np.random.default_rng(seed)
    return [bytes(row) for row in (rng.random((count, n)) < 0.3).astype(np.uint8) + ord("0")]


def _outcome(fn):
    """fn()'s (verdict, writes, cells), or the type and text of its ValueError."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


def _both_paths(path, params):
    """check_lines on the file read as bytes and on the file opened as text."""
    with open(path, "rb") as fh:
        got = _outcome(lambda: check_lines(fh, params))
    with open(path) as fh:
        return got, _outcome(lambda: check_lines(fh, params))


_ROWS = _rows(13, 6, seed=7)  # state 0 is the first line; states 1-12 follow


def _join(rows, ends=None):
    """The rows each ended by "\n", or by ends[i] where given."""
    return b"".join(row + (ends or {}).get(i, b"\n") for i, row in enumerate(rows))


_IRREGULAR = {
    "regular": _join(_ROWS),
    "crlf-after-regular-rows": _join(_ROWS, {i: b"\r\n" for i in range(7, 13)}),
    "blank-line-in-a-later-block": _join(_ROWS, {8: b"\n\n"}),
    "space-padded-line-in-a-later-block": _join(_ROWS[:9] + [b" " + _ROWS[9] + b"\t "] + _ROWS[10:]),
    "digit-2-in-the-last-block": _join(_ROWS[:12] + [b"01201" + _ROWS[12][5:]]),
    "non-utf8-byte-in-the-last-block": _join(_ROWS[:12] + [b"0\xff" + _ROWS[12][2:]]),
    # state 6 ends a block at 1, 2 and 3 rows a block, so the block holds
    # only the first byte of the no-break space (U+00A0) after it, which
    # str.strip() removes once the two bytes are decoded together
    "utf8-character-across-a-block-boundary": _join(_ROWS, {6: "\u00a0\n".encode()}),
    "no-final-newline": _join(_ROWS)[:-1],
    "no-final-newline-after-crlf": _join(_ROWS, {i: b"\r\n" for i in range(13)})[:-2],
    "ragged-row-in-a-later-block": _join(_ROWS[:10] + [_ROWS[10][:5]] + _ROWS[11:]),
    # 13 cells: two rows' bytes, with a cell where the first row's newline goes
    "line-two-rows-wide": _join(_ROWS[:5] + [_ROWS[5] + b"1" + _ROWS[6]] + _ROWS[7:]),
}


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("name", list(_IRREGULAR))
def test_byte_blocks_match_the_line_path(tmp_path, monkeypatch, name, rows):
    """A binary file gives what the same file opened as text gives, however it turns irregular."""
    path = tmp_path / "trace.txt"
    path.write_bytes(_IRREGULAR[name])
    monkeypatch.setattr(core, "_BLOCK_CELLS", rows * 6)
    for params in (ConstraintParams(2, 3, 2), ConstraintParams(2, 3, 6)):
        got, want = _both_paths(path, params)
        assert got == want


@pytest.mark.parametrize("rows", [1, 2, 3])
@pytest.mark.parametrize("bad", [b"\xff", b"2", b"\xc3("])
def test_byte_blocks_match_decoding_errors_past_the_first_text_chunk(tmp_path, monkeypatch,
                                                                      bad, rows):
    # 30 kB of 100-cell states with a bad byte in state 150: decoding errors
    # name a position within the text chunk, which both paths must agree on
    lines = _rows(200, 100, seed=3)
    lines[150] = lines[150][:40] + bad + lines[150][40 + len(bad):]
    path = tmp_path / "trace.txt"
    path.write_bytes(_join(lines))
    monkeypatch.setattr(core, "_BLOCK_CELLS", rows * 100)
    got, want = _both_paths(path, ConstraintParams(2, 3, 2))
    assert got == want
    assert got[0] is (ValueError if bad == b"2" else UnicodeDecodeError)


@pytest.mark.parametrize("name", ["regular", "no-final-newline"])
def test_regular_files_never_take_the_line_path(tmp_path, monkeypatch, name):
    path = tmp_path / "trace.txt"
    path.write_bytes(_IRREGULAR[name])
    want = _both_paths(path, ConstraintParams(2, 3, 2))[1]
    monkeypatch.setattr(core, "_parse_block", None)  # only the line path parses str lines
    for rows in (1, 2, 3, 100):
        monkeypatch.setattr(core, "_BLOCK_CELLS", rows * 6)
        with open(path, "rb") as fh:
            assert check_lines(fh, ConstraintParams(2, 3, 2)) == want


def test_cr_only_file_is_read_in_blocks(tmp_path, monkeypatch):
    # no "\n" anywhere: a first-line read without a limit would hold the file
    path = tmp_path / "trace.txt"
    path.write_bytes(b"\r".join(_rows(4000, 6, seed=5)) + b"\r")
    monkeypatch.setattr(core, "_BLOCK_CELLS", 3 * 6)
    got, want = _both_paths(path, ConstraintParams(2, 3, 6))
    assert got == want and got[1:] == (3999, 6)
    with open(path, "rb") as fh:
        blocks = core._state_blocks(fh)
        assert next(blocks).shape == (3, 6)
        assert fh.tell() < path.stat().st_size // 2
        assert 1 + sum(1 for _ in blocks) > 1000


# --- rates and simulation ----------------------------------------------------

def test_measure_rate_golden():
    code = TrivialCode(3, 3, 2, 15)
    report = measure_rate(code, 30)
    assert report.rate == pytest.approx(2 / 9)
    assert report.cells == 15 and report.writes == 30


def test_measure_rate_warns_off_period():
    code = TrivialCode(3, 3, 2, 15)
    with pytest.warns(UserWarning):
        measure_rate(code, 4)


def test_single_message_write_decodes_to_one():
    code = TrivialCode(2, 2, 1, 4)
    state = all_zero(4)
    for i in range(1, 2 * code.period + 1):
        state = code.encode(i, 1, state)
        if code.message_count(i) == 1:
            assert code.decode(i, state) == 1


def test_simulate_is_deterministic():
    code = TrivialCode(3, 3, 2, 15)
    a = simulate(code, 30, seed=5)
    b = simulate(code, 30, seed=5)
    assert a.trace == b.trace and a.messages == b.messages
    assert a.round_trip_ok
    assert simulate(code, 30, seed=6).messages != a.messages


# --- package ---------------------------------------------------------------

def test_package_has_no_assert_statements():
    """Runtime checks must raise: `python -O` strips assert statements."""
    src = Path(__file__).resolve().parent.parent / "src" / "tscc"
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(src.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert not found
