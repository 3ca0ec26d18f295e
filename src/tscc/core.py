"""Cell-level primitives for time-space constrained rewriting codes.

A memory is a row of n binary cells.  A write replaces the whole state
vector; its cost at a cell is 1 exactly when the cell value changes.
The (alpha, beta, p) constraint bounds the total cost inside any window
of alpha consecutive writes and beta contiguous cells by p.

This module holds the shared vocabulary and decides what a state is:
a code state is a tuple of n cells, each 0 or 1 (check_state), and a
write sequence is one read-only (writes + 1) x n uint8 array of such
cells.  It also holds the flip matrix, the window checker, and the
abstract encoder/decoder interface every code construction implements.
"""

from __future__ import annotations

import io
import warnings
from abc import ABC, abstractmethod
from dataclasses import dataclass
from math import isqrt, log2
from random import Random

import numpy as np

# A cell state is a tuple of 0/1 ints; index 0 is cell 1, the leftmost
# and most significant position under psi().
Bits = tuple


class ConvergenceError(RuntimeError):
    """An iterative method hit its iteration cap before reaching tolerance."""

    def __init__(self, message, estimate=None):
        super().__init__(message)
        self.estimate = estimate


class ResourceLimitError(RuntimeError):
    """A computation would exceed a configured size limit."""


def parse_state(text: str) -> Bits:
    """Parse a 01-string such as '1011' into a state tuple."""
    if not text or any(ch not in "01" for ch in text):
        raise ValueError(f"state must be a nonempty 01-string, got {text!r}")
    return tuple(int(ch) for ch in text)


def check_state(state, n: int) -> Bits:
    """The state as a tuple of n cells, each 0 or 1; ValueError otherwise.

    A trace row (uint8 array) becomes Python ints, which shifts such as
    psi() need: uint8 arithmetic would wrap past 8 cells.
    """
    state = tuple(state.tolist() if isinstance(state, np.ndarray) else state)
    if len(state) != n or not {0, 1}.issuperset(state):
        raise ValueError(f"a state must be {n} cells, each 0 or 1; got {state}")
    return state


def format_state(bits: Bits) -> str:
    return "".join(str(b) for b in bits)


def psi(bits: Bits) -> int:
    """Decimal value of a state; cell 1 is the most significant bit."""
    value = 0
    for b in bits:
        value = (value << 1) | int(b)
    return value


def bits_from_int(value: int, width: int) -> Bits:
    """Inverse of psi for a fixed width."""
    if value < 0 or value >> width:
        raise ValueError(f"value {value} does not fit in {width} bits")
    return tuple((value >> (width - 1 - i)) & 1 for i in range(width))


def xor(u: Bits, v: Bits) -> Bits:
    if len(u) != len(v):
        raise ValueError(f"length mismatch: {len(u)} vs {len(v)}")
    return tuple(a ^ b for a, b in zip(u, v))


def complement(u: Bits) -> Bits:
    return tuple(1 - b for b in u)


def all_zero(n: int) -> Bits:
    return (0,) * n


def check_positive(**values):
    """ValueError naming the first of `values` that is not a positive int."""
    for name, v in values.items():
        if not isinstance(v, int) or v < 1:
            raise ValueError(f"{name} must be a positive integer, got {v!r}")


@dataclass(frozen=True)
class ConstraintParams:
    """The (alpha, beta, p) window budget.

    alpha: writes per window, beta: cells per window, p: cost budget.
    p >= alpha*beta makes the constraint vacuous (every sequence
    satisfies it); operations accept such parameters and report the
    fact rather than reject them.
    """

    alpha: int
    beta: int
    p: int

    def __post_init__(self):
        check_positive(alpha=self.alpha, beta=self.beta, p=self.p)

    @property
    def vacuous(self) -> bool:
        return self.p >= self.alpha * self.beta


class WriteSequence:
    """An initial state followed by the state after each write.

    `states` is a read-only (writes + 1) x n uint8 array of 0/1 cells.
    The initial state is pinned to all-zero, matching how every
    construction here starts; traces loaded from external files may
    override that explicitly.
    """

    def __init__(self, states, *, allow_nonzero_start=False):
        given = np.asarray(states)  # ragged rows raise ValueError here
        if given.ndim != 2 or not given.size:
            raise ValueError("a write sequence needs at least one state of at least one cell")
        binary = (given == 0) | (given == 1)
        if not binary.all():
            raise ValueError(f"state {int(binary.all(axis=1).argmin())} has non-binary entries")
        if given[0].any() and not allow_nonzero_start:
            raise ValueError("initial state must be all-zero "
                             "(pass allow_nonzero_start=True for external traces)")
        self.states = given.astype(np.uint8)
        self.states.flags.writeable = False

    @property
    def n(self) -> int:
        return self.states.shape[1]

    @property
    def writes(self) -> int:
        return len(self.states) - 1

    def __eq__(self, other):
        return isinstance(other, WriteSequence) and np.array_equal(self.states, other.states)

    @classmethod
    def from_lines(cls, lines, *, allow_nonzero_start=True):
        """Build from one 01-string per line; the first line is the initial state.

        `lines` are str lines or a binary file, parsed as check_lines()
        parses them: blank lines skipped, surrounding whitespace stripped.
        """
        return cls(np.concatenate(list(_state_blocks(lines))),
                   allow_nonzero_start=allow_nonzero_start)

    def to_lines(self):
        return (self.states + ord("0")).view(f"S{self.n}").ravel().astype(str).tolist()


def flip_matrix(ws: WriteSequence):
    """Cell flips as a writes x n uint8 array: row i - 1 is states[i] XOR states[i - 1]."""
    if ws.writes == 0:
        raise ValueError("write sequence has no writes, flip matrix is empty")
    return ws.states[1:] ^ ws.states[:-1]


@dataclass(frozen=True)
class ConstraintVerdict:
    """Outcome of a window check; write/cell/cost locate the first violation."""

    satisfied: bool
    write: int | None = None
    cell: int | None = None
    cost: int | None = None

    def __bool__(self):
        return self.satisfied


def check_constraint(ws: WriteSequence, params: ConstraintParams) -> ConstraintVerdict:
    """Test every complete alpha-by-beta window of the flip matrix.

    Cell windows run over 1 <= j <= n - beta + 1 only; a sequence
    narrower than beta cells is rejected.  Time windows cover writes
    [i, i + alpha - 1] for 1 <= i <= m - alpha + 1.  With fewer than
    alpha writes the single clipped window [1, m] is tested instead;
    shorter suffix windows of longer traces are subsets of the last
    complete window and need no separate test.

    Returns the first violation in (write, cell) lexicographic order.
    States are checked in row blocks, as check_lines() checks a file, in
    the narrowest unsigned types that hold the costs exactly.
    """
    rows = _block_rows(ws.n)
    blocks = (ws.states[i:i + rows] for i in range(0, len(ws.states), rows))
    return _check_blocks(blocks, params)[0]


def check_lines(lines, params: ConstraintParams):
    """check_constraint() on a write-sequence text, one state per line.

    `lines` is an iterable of str lines or a binary file, read as a text
    file opened with open() would be.  The lines are parsed and checked
    in row blocks, so memory is O((block + alpha) * n) cells whatever
    the length of the text.  Window checks stop at the first violation,
    but every later line is still read and validated.  Returns (verdict,
    writes, cells).
    """
    return _check_blocks(_state_blocks(lines), params)


# Cells per row block when states are parsed or checked in pieces.
_BLOCK_CELLS = 1 << 18


def _block_rows(n: int) -> int:
    return max(1, _BLOCK_CELLS // n)


# io.TextIOWrapper's read size: text decoded from a multiple of it meets
# the same decoding errors, at the same positions, as the whole file
_TEXT_CHUNK = 8192


def _state_blocks(lines, first=0, n=None):
    """Yield the states written in `lines` as uint8 arrays of whole rows.

    Blank lines are skipped and each line is stripped.  Every state must
    be a nonempty 01-string as wide as the first; the first fault in
    file order raises ValueError.  A binary file goes to _byte_blocks();
    a caller that has parsed states already gives their number and n.
    """
    if isinstance(lines, io.BufferedIOBase):
        yield from _byte_blocks(lines)
        return
    block, rows = [], n and _block_rows(n)
    for line in lines:
        line = line.strip()
        if not line:
            continue
        if n is None:
            n, rows = len(line), _block_rows(len(line))
        block.append(line)
        if len(block) == rows:
            yield _parse_block(block, first, n)
            first += rows
            block = []
    if n is None:
        raise ValueError("empty write-sequence input")
    if block:
        yield _parse_block(block, first, n)


def _byte_blocks(fh):
    """_state_blocks() on a binary file, read in blocks of rows that are
    each n bytes of 0/1 and a newline, n set by the first line; from the
    first block that is not so regular, the rest is decoded as text."""
    data = fh.readline(_BLOCK_CELLS + 1)
    n, first, seen, done = len(data) - 1, 0, 0, bytearray()
    buf = memoryview(bytearray(_block_rows(n) * (n + 1) if n > 0 else 0))
    while n > 0 and (cells := _regular_rows(data, n)) is not None:
        yield cells
        first, seen = first + len(cells), seen + len(data)
        done += data[-_TEXT_CHUNK:]  # the bytes since the last chunk boundary
        del done[:len(done) - seen % _TEXT_CHUNK]
        data = buf[:fh.readinto(buf)]
        if not data:
            return
    text = io.TextIOWrapper(_Rest(done + data, fh))
    text.read(len(done))
    yield from _state_blocks(text, first, n if first else None)


def _regular_rows(data, n: int):
    """data's rows as a uint8 array of cells if each row is n bytes of 0/1
    and a newline, which the last row may lack; otherwise None."""
    if len(data) % (n + 1) == n:
        data = bytes(data) + b"\n"
    if len(data) % (n + 1) == 0:
        rows = np.frombuffer(data, np.uint8).reshape(-1, n + 1)
        cells = rows[:, :n] ^ 48
        if cells.max() <= 1 and (rows[:, n] == 10).all():
            return cells


class _Rest(io.RawIOBase):
    """The bytes `head`, then the rest of the binary file fh, as a raw stream."""

    def __init__(self, head, fh):
        self.head, self.fh = io.BytesIO(head), fh

    def readable(self):
        return True

    def readinto(self, b):
        k = self.head.readinto(b)
        return k + self.fh.readinto(memoryview(b)[k:])


def _parse_block(block, first: int, n: int):
    """The states block[i] (state number first + i) as a uint8 array."""
    # latin-1 keeps one byte per character; '?' stands in for the rest
    cells = _regular_rows("\n".join(block).encode("latin-1", "replace"), n)
    if cells is None or len(cells) != len(block):
        for i, line in enumerate(block, start=first):
            parse_state(line)
            if len(line) != n:
                raise ValueError(f"state {i} has {len(line)} cells, expected {n}")
    return cells


def _check_blocks(blocks, params: ConstraintParams):
    """check_lines() on states given in row blocks: (verdict, writes, cells).

    _window_sums() sums each write's flips over every beta adjacent cells;
    buf sums those over writes 1 .. t for each t of the block and the
    alpha before it, so rows alpha apart differ by window costs.  Sums are
    kept in the narrowest unsigned type holding their bound, beta or
    alpha * beta; no window costs more, so differences of sums wrapping
    modulo 2^bits are exact.  Windows of one length end in the order they
    start, so the first over budget is the first in (write, cell) order.
    """
    alpha, beta, writes, verdict, last = params.alpha, params.beta, 0, None, None
    for states in blocks:
        if last is None:
            n = states.shape[1]
            if n < beta:
                raise ValueError(f"sequence has {n} cells, narrower than beta={beta}")
            # no file holds 2^64 flips, so uint64 is exact for any larger budget
            buf = np.zeros((1, n - beta + 1), np.min_scalar_type(min(alpha * beta, 2 ** 64 - 1)))
            end, last, states = 1, states[0], states[1:]  # buf[end - 1]: writes 1 .. `writes`
        done, k = writes, len(states)
        writes += k
        if k == 0 or verdict is not None:
            continue
        if end + k > len(buf):  # keep the rows later windows subtract, with room to double
            keep = min(alpha, done + 1)
            held = buf[end - keep:end]
            if 2 * (keep + k) > len(buf):
                buf = np.empty((2 * (keep + k), buf.shape[1]), buf.dtype)
            buf[:keep], end = held, keep
        flips = np.empty(states.shape, np.min_scalar_type(beta))
        np.bitwise_xor(states[0], last, out=flips[0])
        np.bitwise_xor(states[1:], states[:-1], out=flips[1:])
        last = states[-1]
        buf[end:end + k] = _window_sums(flips, beta)
        _cumsum_rows(buf[end - 1:end + k])
        skip = max(alpha - 1 - done, 0)  # windows ending before write alpha are clipped
        if skip < k:
            cost = buf[end + skip:end + k] - buf[end + skip - alpha:end + k - alpha]
            verdict = _first_over(cost, params.p, done + skip + 2 - alpha)
        end += k
    if verdict is None and 0 < writes < alpha:
        verdict = _first_over(buf[end - 1:end], params.p, 1)
    return ConstraintVerdict(True) if verdict is None else verdict, writes, n


def _first_over(cost, p: int, write: int):
    """The first window over budget p, or None; cost[r, j] is the cost of
    the window of writes from write + r and cells from j + 1."""
    over = cost > p
    if over.any():
        r, j = divmod(int(over.argmax()), cost.shape[1])
        return ConstraintVerdict(False, write=write + r, cell=j + 1, cost=int(cost[r, j]))


def _cumsum_rows(s):
    """np.cumsum(s, axis=0, out=s), which walks each column a cell at a time,
    as about 2 sqrt(rows) adds: within groups of g rows, then across them."""
    g = isqrt(len(s))
    for i in range(1, g):
        s[i::g] += s[i - 1:-1:g]
    for j in range(g, len(s), g):
        s[j:j + g] += s[j - 1]


def _window_sums(a, width: int):
    """Sums of `width` adjacent entries along each row of a, in its type.

    Doubling over the flattened rows, O(log width) adds: run sums `size`
    adjacent entries, the sizes in width's binary form are added side by
    side, and sums that cross a row end are dropped.
    """
    rows, n = a.shape
    run, size, span = a.reshape(-1), 1, 0
    out = np.zeros(rows * n, a.dtype)
    end = len(out) - width + 1
    while True:
        if width & size:
            out[:end] += run[span:span + end]
            span += size
        if 2 * size > width:
            return out.reshape(rows, n)[:, :n - width + 1]
        run = run[:-size] + run[size:]
        size *= 2


class RewritingCode(ABC):
    """Encoder/decoder pair over n cells with per-write message alphabets.

    Subclasses declare n_cells, period, and the (alpha, beta, p)
    constraint their write sequences satisfy.  message_count(i) == 1
    marks a write carrying no information; the encoder may still move
    cells on such writes (resets do).  Instances are immutable after
    construction and safe to share across threads.
    """

    n_cells: int
    period: int
    params: ConstraintParams

    @abstractmethod
    def message_count(self, write_index: int) -> int:
        """Size of the message alphabet of the given 1-based write."""

    @abstractmethod
    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        """New cell state storing the message on the given write."""

    @abstractmethod
    def decode(self, write_index: int, current: Bits) -> int:
        """Recover the message of the given write from the state after it."""

    def _check_write_index(self, write_index: int):
        if not isinstance(write_index, int) or write_index < 1:
            raise ValueError(f"write index must be a positive integer, got {write_index!r}")

    def _check(self, write_index: int, current, message: int | None = None) -> Bits:
        """Validate a write's index, its message when given, and its state; return the state."""
        if message is None:
            self._check_write_index(write_index)
        else:
            count = self.message_count(write_index)
            if not 1 <= message <= count:
                raise ValueError(
                    f"message {message} out of range [1:{count}] on write {write_index}")
        return check_state(current, self.n_cells)


@dataclass(frozen=True)
class RateReport:
    """Information written per cell per write over a span of writes."""

    bits_written: float
    writes: int
    cells: int
    rate: float


def measure_rate(code: RewritingCode, writes: int) -> RateReport:
    """Sum log2(message_count(i)) over the first `writes` writes.

    For an honest per-period figure `writes` should be a multiple of
    code.period; other spans still compute but carry a warning.
    """
    if writes < 1:
        raise ValueError("writes must be >= 1")
    if writes % code.period:
        warnings.warn(
            f"{writes} writes is not a multiple of the code period {code.period}; "
            "the rate is not a whole-period average", stacklevel=2)
    bits = 0.0
    for i in range(1, writes + 1):
        bits += log2(code.message_count(i))
    return RateReport(bits_written=bits, writes=writes, cells=code.n_cells,
                      rate=bits / (writes * code.n_cells))


@dataclass(frozen=True)
class SimulationResult:
    trace: WriteSequence
    messages: tuple
    decoded: tuple

    @property
    def round_trip_ok(self) -> bool:
        return self.messages == self.decoded


def simulate(code: RewritingCode, writes: int, seed: int) -> SimulationResult:
    """Deterministic random-message simulation from the all-zero state.

    Messages, uniform over each write's alphabet, come from
    random.Random(seed), the stdlib Mersenne Twister, whose randrange
    output is stable across platforms, so a (code, writes, seed) triple
    always reproduces the same trace.
    """
    rng = Random(seed)
    messages = tuple(rng.randrange(code.message_count(i)) + 1 for i in range(1, writes + 1))
    states = [all_zero(code.n_cells)]
    decoded = []
    for i, m in enumerate(messages, start=1):
        states.append(code.encode(i, m, states[-1]))
        decoded.append(code.decode(i, states[-1]))
    return SimulationResult(WriteSequence(states), messages, tuple(decoded))
