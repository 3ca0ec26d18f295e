"""Executable rewriting codes meeting (alpha, beta, p) flip budgets.

Four families live here, plus the write-once building blocks two of
them consume and two dilution wrappers that trade rate for a stricter
window in time or space:

* TrivialCode: fixed schedule spending the whole window budget p on a
  known subset of writes and cells, rate p / (alpha * beta).
* SpaceCode: per-write budget (alpha = 1); XOR-accumulates an
  enumerative window-weight-limited pattern into the left half while
  the right half remembers the previous left half.
* TimePCode: per-cell budget p; p alternating ascending/descending
  write-once phases packed into a period of alpha + t writes with a
  single reset, the window widened when alpha cannot hold the reset.
* TimeCode: the p = 1 TimePCode (beta = 1): an ascending write-once
  phase reset to all-ones, then a descending one reset to all-zero;
  its period counts both halves, 2 * (t + alpha) writes.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from math import ceil, log2

from .core import (Bits, ConstraintParams, RewritingCode, all_zero, bits_from_int,
                   check_state, complement, format_state, parse_state, psi, xor)
from .wwl import CountTable, WwlParams, count_wwl, rank, unrank


class TrivialCode(RewritingCode):
    """Schedule-only (alpha, beta, p) code, rate p / (alpha * beta).

    Writing q = ceil(p / beta) times per alpha writes spends the budget
    exactly: q - 1 unconstrained full writes, then one write touching
    the first r cells of every beta-block where r completes
    p = (q - 1) * beta + r, then silence.  Cells outside the scheduled
    sets on the partial write are left unchanged (they stay 0 when the
    schedule has no full writes).  Needs beta | n.
    """

    def __init__(self, alpha: int, beta: int, p: int, n: int):
        self.params = ConstraintParams(alpha, beta, p)
        if n < 1 or n % beta:
            raise ValueError(f"n must be a positive multiple of beta={beta}, got {n}")
        self.n_cells = n
        self.period = alpha
        if self.params.vacuous:
            # budget covers every cell of every write
            self.q, self.r = alpha, beta
        else:
            self.q = ceil(p / beta)
            self.r = (p - 1) % beta + 1
        self.partial_cells = tuple(j for j in range(n) if j % beta < self.r)

    def _phase(self, write_index: int) -> int:
        self._check_write_index(write_index)
        return (write_index - 1) % self.params.alpha + 1

    def message_count(self, write_index: int) -> int:
        phase = self._phase(write_index)
        if phase < self.q:
            return 1 << self.n_cells
        if phase == self.q:
            return 1 << len(self.partial_cells)
        return 1

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        current = self._check(write_index, current, message)
        phase = self._phase(write_index)
        if phase < self.q:
            return bits_from_int(message - 1, self.n_cells)
        if phase == self.q:
            bits = bits_from_int(message - 1, len(self.partial_cells))
            state = list(current)
            for b, j in zip(bits, self.partial_cells):
                state[j] = b
            return tuple(state)
        return current

    def decode(self, write_index: int, current: Bits) -> int:
        current = self._check(write_index, current)
        phase = self._phase(write_index)
        if phase < self.q:
            return psi(current) + 1
        if phase == self.q:
            return psi(tuple(current[j] for j in self.partial_cells)) + 1
        return 1

    @property
    def theoretical_rate(self) -> float:
        return ((self.q - 1) + self.r / self.params.beta) / self.params.alpha


class SpaceCode(RewritingCode):
    """Per-write budget code: every write flips a window-limited pattern.

    Cells split as [left n' | beta-1 spacer | right n'].  A write XORs
    the pattern of the message into the left half, clears the spacer,
    and copies the old left half into the right half; the decoder ranks
    left XOR right.  The spacer keeps windows from mixing flips of the
    two halves, so every write obeys the (1, beta, p) budget on its own.
    """

    def __init__(self, beta: int, p: int, nprime: int):
        if nprime < 1:
            raise ValueError("nprime must be >= 1")
        self.params = ConstraintParams(1, beta, p)
        self.wwl = WwlParams(beta, p)
        self.nprime = nprime
        self.n_cells = 2 * nprime + beta - 1
        self.period = 1
        self._table = CountTable(self.wwl, nprime)
        self._messages = count_wwl(self.wwl, nprime)

    def message_count(self, write_index: int) -> int:
        self._check_write_index(write_index)
        return self._messages

    def _split(self, state: Bits):
        np_, beta = self.nprime, self.params.beta
        left, mid, right = state[:np_], state[np_:np_ + beta - 1], state[np_ + beta - 1:]
        if any(mid):
            raise ValueError("spacer cells must stay zero; state is not one this code wrote")
        return left, right

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        left, _ = self._split(self._check(write_index, current, message))
        pattern = unrank(self.wwl, self.nprime, message, self._table)
        return xor(left, pattern) + all_zero(self.params.beta - 1) + left

    def decode(self, write_index: int, current: Bits) -> int:
        left, right = self._split(self._check(write_index, current))
        return rank(self.wwl, xor(left, right), self._table)

    @property
    def theoretical_rate(self) -> float:
        return log2(self._messages) / self.n_cells


class WomCode(ABC):
    """t-write write-once code over n_cells initially-zero cells.

    Within one epoch of t writes cells only move 0 -> 1; write i stores
    one of message_count(i) messages and decode_w reads it back from
    the state alone.
    """

    n_cells: int
    writes: int

    @abstractmethod
    def message_count(self, write_index: int) -> int: ...

    @abstractmethod
    def encode_w(self, write_index: int, message: int, state: Bits) -> Bits: ...

    @abstractmethod
    def decode_w(self, write_index: int, state: Bits) -> int: ...

    def _check(self, write_index: int, state=None, message=None):
        """Validate a write index, and its message and state when given; return the state."""
        if not 1 <= write_index <= self.writes:
            raise ValueError(f"write index {write_index} outside [1:{self.writes}]")
        if message is not None and not 1 <= message <= self.message_count(write_index):
            raise ValueError(f"message {message} out of range on write {write_index}")
        return None if state is None else check_state(state, self.n_cells)


class RsWom(WomCode):
    """The classic 3-cell 2-write code storing 4 messages per write.

    Write 1 maps message m to the weight <= 1 pattern with value order
    000, 001, 010, 100.  Write 2 keeps the state when the message is
    unchanged and otherwise programs the complement of the new
    message's pattern, raising at most two cells.  Decoding is by
    weight: read the pattern directly below weight 2, its complement
    otherwise.
    """

    n_cells = 3
    writes = 2
    _patterns = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))

    def message_count(self, write_index: int) -> int:
        self._check(write_index)
        return 4

    def encode_w(self, write_index: int, message: int, state: Bits) -> Bits:
        state = self._check(write_index, state, message)
        if write_index == 1:
            if any(state):
                raise ValueError("write 1 starts from the all-zero state")
            return self._patterns[message - 1]
        if state not in self._patterns:
            raise ValueError(f"state {format_state(state)} is not a write-1 output")
        if state == self._patterns[message - 1]:
            return state
        return complement(self._patterns[message - 1])

    def decode_w(self, write_index: int, state: Bits) -> int:
        state = self._check(write_index, state)
        if sum(state) < 2:
            probe = state
        else:
            probe = complement(state)
        if probe not in self._patterns:
            raise ValueError(f"state {format_state(state)} is not a codeword")
        return self._patterns.index(probe) + 1


class BitPerWriteWom(WomCode):
    """t cells, t writes, one bit per write: write i owns cell i.

    Each write touches only its own cell, so the code keeps working
    from any starting state, a property the alternating-phase schedules
    in TimePCode rely on when one phase begins where the previous one
    stopped.
    """

    def __init__(self, t: int):
        if t < 1:
            raise ValueError("t must be >= 1")
        self.n_cells = t
        self.writes = t

    def message_count(self, write_index: int) -> int:
        self._check(write_index)
        return 2

    def encode_w(self, write_index: int, message: int, state: Bits) -> Bits:
        out = list(self._check(write_index, state, message))
        out[write_index - 1] = message - 1
        return tuple(out)

    def decode_w(self, write_index: int, state: Bits) -> int:
        return self._check(write_index, state)[write_index - 1] + 1


class TabulatedWom(WomCode):
    """Write-once code defined by explicit per-write transition tables.

    transitions[i][(state, message)] = next_state for write i.  The
    constructor validates monotonicity of every listed transition, that
    each state reachable at write i has a transition for every message,
    and that decoding (next state back to message) is unambiguous.
    """

    def __init__(self, n_cells: int, writes: int, transitions):
        if n_cells < 1 or writes < 1:
            raise ValueError("n_cells and writes must be >= 1")
        self.n_cells = n_cells
        self.writes = writes
        self._enc = {}
        self._dec = {}
        self._counts = []
        reachable = {all_zero(n_cells)}
        for i in range(1, writes + 1):
            table = transitions.get(i, {})
            if not table:
                raise ValueError(f"write {i} has no transitions")
            messages = {m for _, m in table}
            count = max(messages)
            if messages != set(range(1, count + 1)):
                raise ValueError(f"write {i} messages must be 1..{count} with no gaps")
            enc_i, dec_i = {}, {}
            nxt = set()
            for (state, m), target in table.items():
                state, target = check_state(state, n_cells), check_state(target, n_cells)
                if any(s > t for s, t in zip(state, target)):
                    raise ValueError(
                        f"write {i}: transition {format_state(state)} -> "
                        f"{format_state(target)} lowers a cell")
                if target in dec_i and dec_i[target] != m:
                    raise ValueError(
                        f"write {i}: state {format_state(target)} would decode to "
                        f"both {dec_i[target]} and {m}")
                enc_i[(state, m)] = target
                dec_i[target] = m
            for state in reachable:
                for m in range(1, count + 1):
                    if (state, m) not in enc_i:
                        raise ValueError(
                            f"write {i}: no transition from {format_state(state)} "
                            f"for message {m}")
                    nxt.add(enc_i[(state, m)])
            self._enc[i] = enc_i
            self._dec[i] = dec_i
            self._counts.append(count)
            reachable = nxt

    def message_count(self, write_index: int) -> int:
        self._check(write_index)
        return self._counts[write_index - 1]

    def encode_w(self, write_index: int, message: int, state: Bits) -> Bits:
        state = self._check(write_index, state, message)
        try:
            return self._enc[write_index][(state, message)]
        except KeyError:
            raise ValueError(
                f"write {write_index}: state {format_state(state)} is not reachable "
                "in this table") from None

    def decode_w(self, write_index: int, state: Bits) -> int:
        state = self._check(write_index, state)
        try:
            return self._dec[write_index][state]
        except KeyError:
            raise ValueError(
                f"write {write_index}: state {format_state(state)} is not a codeword"
            ) from None


def parse_wom_table(text: str) -> TabulatedWom:
    """Parse the on-disk write-once table format.

    First non-comment line: `n t`.  A line `write i` opens the block of
    write i, followed by lines `state message -> state` in 01-string
    form.  Blank lines and lines starting with # are ignored.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise ValueError("empty write-once table")
    head = lines[0].split()
    if len(head) != 2:
        raise ValueError("header must be two integers: n t")
    n_cells, writes = int(head[0]), int(head[1])
    transitions = {}
    current = None
    for ln in lines[1:]:
        parts = ln.split()
        if parts[0] == "write":
            if len(parts) != 2:
                raise ValueError(f"bad section header: {ln!r}")
            current = int(parts[1])
            transitions.setdefault(current, {})
            continue
        if current is None:
            raise ValueError("transition line before any 'write i' header")
        if len(parts) != 4 or parts[2] != "->":
            raise ValueError(f"bad transition line: {ln!r}")
        try:
            key = parse_state(parts[0]), int(parts[1])
            transitions[current][key] = parse_state(parts[3])
        except ValueError as exc:
            raise ValueError(f"bad transition line {ln!r}: {exc}") from None
    return TabulatedWom(n_cells, writes, transitions)


def timep_theoretical_rate(p: int, t: int, alpha: int) -> float:
    """Rate of the p-phase schedule with a sum-optimal t-write code."""
    return p * log2(t + 1) / (alpha + t)


class TimePCode(RewritingCode):
    """p flips per cell per alpha writes (beta = 1) via p write-once phases.

    A period holds p phases of t writes each, alternating ascending and
    descending, one reset write, and silence up to schedule_alpha + t
    writes, where schedule_alpha is alpha widened to (p - 1) * t + 1 when
    the reset would otherwise get no slot of its own; the declared,
    shorter windows then still hold at most p flips.  For even p the
    phase pattern repeats every period and the reset clears to zero.
    For odd p a period ends in the same direction it started, so the
    reset alternates: all-ones after an ascending-start period, all-zero
    after a descending-start one, and the next period starts in the
    opposite direction.

    For p >= 2 a phase begins where the previous one stopped, which is
    not the all-zero epoch start a general write-once code assumes, so
    the code must work from any state (BitPerWriteWom); RsWom only fits
    p = 1, where every phase starts from a reset.
    """

    def __init__(self, alpha: int, p: int, wom: WomCode):
        if alpha < 1 or p < 1:
            raise ValueError("alpha and p must be >= 1")
        if p >= 2 and not isinstance(wom, BitPerWriteWom):
            raise ValueError(
                f"with p >= 2 each phase starts where the last one stopped, which "
                f"only BitPerWriteWom supports; got {type(wom).__name__}")
        self.params = ConstraintParams(alpha, 1, p)
        self.p = p
        self.wom = wom
        t = wom.writes
        self.t = t
        self.n_cells = wom.n_cells
        self.schedule_alpha = max(alpha, (p - 1) * t + 1)
        self.period = self.schedule_alpha + t
        # even p: every period ascends first and resets to zero
        self._alternating = bool(p % 2)

    def _locate(self, write_index: int):
        """(slot, write-once write or None, ascending) in a schedule_alpha + t cycle.

        On the reset slot ascending says whether the next phase ascends,
        so the reset clears to zero exactly when it is set.
        """
        self._check_write_index(write_index)
        cycle, slot = divmod(write_index - 1, self.schedule_alpha + self.t)
        phase, w = divmod(slot, self.t)
        ascending = (phase % 2 == 0) != (self._alternating and cycle % 2 == 1)
        return slot + 1, (w + 1 if phase < self.p else None), ascending

    def message_count(self, write_index: int) -> int:
        _, w, _ = self._locate(write_index)
        return 1 if w is None else self.wom.message_count(w)

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        current = self._check(write_index, current, message)
        slot, w, ascending = self._locate(write_index)
        if w is not None:
            if ascending:
                return self.wom.encode_w(w, message, current)
            return complement(self.wom.encode_w(w, message, complement(current)))
        if slot == self.p * self.t + 1:
            return all_zero(self.n_cells) if ascending else (1,) * self.n_cells
        return current

    def decode(self, write_index: int, current: Bits) -> int:
        current = self._check(write_index, current)
        _, w, ascending = self._locate(write_index)
        if w is None:
            return 1
        return self.wom.decode_w(w, current if ascending else complement(current))

    @property
    def theoretical_rate(self) -> float:
        return timep_theoretical_rate(self.p, self.t, self.schedule_alpha)


class TimeCode(TimePCode):
    """Single-flip-per-cell budget (alpha, 1, 1): the p = 1 TimePCode.

    t ascending write-once writes, a set-to-ones write, alpha - 1 silent
    writes, then the same on complemented cells ending in a set-to-zero
    write.  Its period counts both halves, 2 * (t + alpha) writes, so
    whole periods end at the all-zero state.
    """

    def __init__(self, alpha: int, wom: WomCode):
        super().__init__(alpha, 1, wom)
        self.period = 2 * (self.t + alpha)

    # own class entries: bench/tracer.py wraps each code's cls.__dict__["encode"]
    encode = TimePCode.encode
    decode = TimePCode.decode


# name kept for callers outside the package, such as bench/workloads.py
timep_code = TimePCode


class DilutedTimeCode(RewritingCode):
    """Stretch a per-write budget code (1, beta, p) to (alpha, beta, p).

    Only writes congruent to 1 mod alpha carry information (inner write
    ceil(i / alpha)); the rest leave the state alone, so any alpha
    consecutive writes contain at most one flip pattern.  Rate drops by
    a factor alpha.
    """

    def __init__(self, inner: RewritingCode, alpha: int):
        if inner.params.alpha != 1:
            raise ValueError("inner code must have a per-write budget (alpha = 1)")
        if alpha < 1:
            raise ValueError("alpha must be >= 1")
        self.inner = inner
        self.params = ConstraintParams(alpha, inner.params.beta, inner.params.p)
        self.n_cells = inner.n_cells
        self.period = alpha * inner.period

    def _inner_index(self, write_index: int):
        self._check_write_index(write_index)
        if (write_index - 1) % self.params.alpha == 0:
            return (write_index - 1) // self.params.alpha + 1
        return None

    def message_count(self, write_index: int) -> int:
        inner = self._inner_index(write_index)
        return self.inner.message_count(inner) if inner else 1

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        current = self._check(write_index, current, message)
        inner = self._inner_index(write_index)
        if inner is None:
            return current
        return self.inner.encode(inner, message, current)

    def decode(self, write_index: int, current: Bits) -> int:
        current = self._check(write_index, current)
        inner = self._inner_index(write_index)
        return self.inner.decode(inner, current) if inner else 1

    @property
    def theoretical_rate(self) -> float:
        return self.inner.theoretical_rate / self.params.alpha


class DilutedSpaceCode(RewritingCode):
    """Stretch a per-cell budget code (alpha, 1, p) to (alpha, beta, p).

    The inner code's cell i maps to physical cell (i - 1) * beta + 1;
    the beta - 1 cells after it stay zero forever, so any beta
    contiguous cells contain exactly one active cell.  Rate drops by a
    factor beta.
    """

    def __init__(self, inner: RewritingCode, beta: int):
        if inner.params.beta != 1:
            raise ValueError("inner code must have a per-cell budget (beta = 1)")
        if beta < 1:
            raise ValueError("beta must be >= 1")
        self.inner = inner
        self.params = ConstraintParams(inner.params.alpha, beta, inner.params.p)
        self.n_cells = inner.n_cells * beta
        self.period = inner.period

    def _project(self, state: Bits) -> Bits:
        beta = self.params.beta
        for j, b in enumerate(state):
            if j % beta and b:
                raise ValueError(f"padding cell {j + 1} must stay zero")
        return state[::beta]

    def _expand(self, inner_state: Bits) -> Bits:
        beta = self.params.beta
        out = [0] * self.n_cells
        for i, b in enumerate(inner_state):
            out[i * beta] = b
        return tuple(out)

    def message_count(self, write_index: int) -> int:
        return self.inner.message_count(write_index)

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        current = self._project(self._check(write_index, current, message))
        return self._expand(self.inner.encode(write_index, message, current))

    def decode(self, write_index: int, current: Bits) -> int:
        return self.inner.decode(write_index, self._project(self._check(write_index, current)))

    @property
    def theoretical_rate(self) -> float:
        return self.inner.theoretical_rate / self.params.beta
