"""Syndrome rewriting codes from linear codes whose cosets all meet S.

S is the set of admissible flip patterns (the window-weight-limited
vectors of length n, held here as their integer values).  A linear code
B is S-good when B + S covers all of {0,1}^n, equivalently when every
syndrome is realized by some pattern in S.  Then a write can move the
state into any chosen coset by flipping a pattern from S: messages are
syndromes, giving a (1, beta, p) code of rate (n - dim B) / n.

GoodCodeSearch grows B by greedy doubling: among all z outside B it
adjoins the one whose translate z + S_B overlaps the current coverage
S_B = B + S least, breaking ties toward the smallest value.  The
overlap of every candidate at once is the XOR autocorrelation of the
coverage indicator, computed exactly with a Walsh-Hadamard transform,
so the scan is always exhaustive.  Averaging over all candidates shows
the fraction Q of uncovered words at least squares with each step,
which bounds the number of steps by ceil(n - log2 |S| + log2 n).

S_B is a union of cosets of B, so the search keeps it on the quotient
{0,1}^n / B: one flag per pattern of the n - k free (non-pivot) columns
of B's reduced echelon basis (k = dim B), packed in column order.
Overlaps there are the full ones divided by 2^k, and quotient order is
the order of each class's smallest member (zeros in every pivot
column), so the first minimum gives the same z.  Each step transforms
2^(n-k) flags, under 2 * 2^n per transform over a search instead of
steps * 2^n.  A transform is a few products with Hadamard blocks of
order <= 16 between two reused buffers.  With 2^m <= 2^24 flags both are
exact: the first runs in float32 on integers of magnitude <= |A| <= 2^24,
the second in float64 on the squares, within 2^m * |A| <= 2^48 < 2^53.

Syndromes are GF(2)-linear, so CosetCode and is_s_good read them from one
256-entry table per byte of the word, built by XOR from the images of the
unit vectors.  Block by block of S, is_s_good marks the syndromes S
reaches and CosetCode fills its 2^(n-k) representatives.  A vacuous
budget (p = beta) admits every word: the empty basis is S-good at once,
and neither class enumerates S.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import ceil, log2

import numpy as np

from .core import Bits, ConstraintParams, RewritingCode, bits_from_int, psi
from .wwl import WwlParams, wwl_values

_MAX_N = 24
_BLOCK_BITS = 4
_LOW_BITS = 8  # index bits that _adjoin moves by a gather, not a view
_CHUNK = 1 << 16  # words per block when CosetCode fills its table


def _check_width(n: int, params: WwlParams | None = None):
    """Refuse n outside [1:_MAX_N], then (given params) n narrower than beta."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must be in [1:{_MAX_N}]")
    if params is not None and n < params.beta:
        raise ValueError(f"n={n} is narrower than beta={params.beta}")


@cache
def _hadamard(dtype) -> np.ndarray:
    """Read-only Sylvester Hadamard matrix of order 2^_BLOCK_BITS; its 2^s corner has order 2^s."""
    i = np.arange(1 << _BLOCK_BITS)
    h = np.where(np.bitwise_count(i[:, None] & i) & 1, -1, 1).astype(dtype)
    h.flags.writeable = False
    return h


def _walsh_hadamard(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^m array a, with b of the same
    size and dtype as the other buffer; returns the one that holds it.

    The m index bits are split into ceil(m / _BLOCK_BITS) near-equal
    blocks.  Each pass is one product that transforms the lowest s bits
    and writes them out as the highest, so the passes rotate the index
    bits by m in all, back to their places.
    """
    m = a.size.bit_length() - 1
    passes = -(-m // _BLOCK_BITS)
    for i in range(passes):
        s = m // passes + (i < m % passes)
        h = _hadamard(a.dtype)[:1 << s, :1 << s]
        np.matmul(h, a.reshape(-1, 1 << s).T, out=b.reshape(1 << s, -1))
        a, b = b, a
    return a


def _overlap_scores(indicator: np.ndarray, spare: np.ndarray, work: np.ndarray) -> np.ndarray:
    """2^m * corr (see xor_autocorrelation) for 2^m flags, as exact float64.

    The first transform runs in float32 in the halves of spare, the second
    from work to spare (float64 buffers of >= 2^m); returns a view of one.
    """
    size = indicator.size
    halves = spare.view(np.float32).reshape(2, -1)[:, :size]
    halves[0] = indicator
    f = _walsh_hadamard(halves[0], halves[1])
    np.square(f, out=work[:size], dtype=np.float64)
    return _walsh_hadamard(work[:size], spare[:size])


def xor_autocorrelation(indicator: np.ndarray) -> np.ndarray:
    """corr[z] = |{x : x in A and x ^ z in A}| for a 0/1 indicator of A.

    Exact for n <= 24, from the same exact overlap scores the greedy
    search ranks its candidates by.
    """
    size = indicator.size
    scores = _overlap_scores(indicator, np.empty(size), np.empty(size))
    return scores.astype(np.int64) >> (size.bit_length() - 1)


def _adjoin(cov: np.ndarray, zq: int) -> np.ndarray:
    """Quotient coverage flags after adjoining the class zq (0 < zq < cov.size).

    The new pivot is zq's leading bit: keep the classes with a 0 there, each
    OR its translate by zq, which has a 1 there and c, zq's low bits, below
    it.  x -> x ^ c needs no index of the full length: the bits of c above
    the lowest _LOW_BITS reverse size-2 axes of a view, and the low ones, if
    any are set, take a gather with a 2^_LOW_BITS index.
    """
    b = zq.bit_length() - 1
    c = zq - (1 << b)
    low = min(b, _LOW_BITS)
    cov = cov.reshape(-1, 2, *(2,) * (b - low), 1 << low)
    moved = cov[:, 1][(..., *(slice(None, None, -1 if c >> j & 1 else 1)
                              for j in reversed(range(low, b))), slice(None))]
    if c & ((1 << low) - 1):
        moved = np.take(moved, np.arange(1 << low) ^ (c & ((1 << low) - 1)), axis=-1)
    return (cov[:, 0] | moved).ravel()


def is_s_good(basis, s_values, n: int):
    """Whether span(basis) + S covers everything, and how many words it misses:
    a whole coset of 2^k for each syndrome no pattern of S reaches."""
    _check_width(n)
    k, _, tables, s = _syndrome_map(basis, n, s_values)
    reached = np.zeros(1 << (n - k), dtype=bool)
    for lo in range(0, s.size, _CHUNK):
        reached[_linear(tables, s[lo:lo + _CHUNK])] = True
    missed = (reached.size - int(np.count_nonzero(reached))) << k
    return missed == 0, missed


@dataclass(frozen=True)
class GreedyStep:
    """One doubling: the chosen translate and the coverage after it."""

    z: int
    covered: int
    missed: int
    q: float


class GoodCodeSearch:
    """Greedy search state for an S-good linear code; single-owner mutable.

    _cov flags the cosets of span(basis) inside the coverage, indexed by
    the bits of the free columns _free (0 = the first cell) in order, and
    covered counts the words they hold; _buffers holds two float64
    transform buffers of 2^n until it is good.  A vacuous budget leaves
    _s and _cov None: every word is covered from the start.
    """

    def __init__(self, n: int, params: WwlParams):
        _check_width(n)
        self.n = n
        self.params = params
        self.basis: list[int] = []
        self.steps: list[GreedyStep] = []
        self._free = list(range(n))
        self._buffers = None
        if ConstraintParams(1, params.beta, params.p).vacuous:
            self._s = self._cov = None
            self.covered = 1 << n
        else:
            self._s = wwl_values(params, n)
            self._cov = np.zeros(1 << n, dtype=bool)
            self._cov[self._s] = True
            self.covered = self._s.size

    @cached_property
    def s_values(self) -> tuple:
        """S as Python ints in increasing order."""
        return tuple(range(1 << self.n)) if self._s is None else tuple(self._s.tolist())

    @property
    def missed(self) -> int:
        return (1 << self.n) - self.covered

    @property
    def q(self) -> float:
        return self.missed / (1 << self.n)

    @property
    def is_good(self) -> bool:
        return self.missed == 0

    @property
    def step_bound(self) -> int:
        """Guaranteed upper bound on the number of doublings needed."""
        log_s = self.n if self._s is None else log2(self._s.size)
        return max(0, ceil(self.n - log_s + log2(self.n)))

    def double(self) -> GreedyStep:
        """Adjoin the translate overlapping current coverage least."""
        if self.is_good:
            raise ValueError("code is already S-good; nothing to double")
        size = 1 << self.n
        free = len(self._free)
        if self._buffers is None:
            self._buffers = np.empty((2, size))
        # scores[0] = 2^free |S_B| bounds every entry, so while S_B is not everything
        # the first minimum is a class outside B, with the smallest representative
        zq = int(np.argmin(_overlap_scores(self._cov, *self._buffers)))
        before = self.missed
        lead = free - zq.bit_length()
        self._cov = _adjoin(self._cov, zq)
        z = sum(1 << (self.n - 1 - col) for i, col in enumerate(self._free)
                if zq >> (free - 1 - i) & 1)
        del self._free[lead]
        self.basis.append(z)
        self.covered = int(np.count_nonzero(self._cov)) << len(self.basis)
        after = self.missed
        if after == 0:
            self._buffers = None
        if after >= before:
            raise RuntimeError(
                f"greedy step failed to shrink the uncovered set ({before} -> {after}); "
                "this contradicts the averaging argument")
        # averaging argument, exact in integers: Q_new <= Q_old^2
        if after * size > before * before:
            raise RuntimeError(f"doubling guarantee violated: {after} * {size} > {before}^2")
        step = GreedyStep(z=z, covered=self.covered, missed=after, q=self.q)
        self.steps.append(step)
        return step

    def run(self) -> "GoodCodeSearch":
        """Double until S-good; the step bound caps the loop."""
        while not self.is_good:
            if len(self.basis) > self.step_bound + self.n:
                raise RuntimeError("greedy search exceeded its guaranteed step bound")
            self.double()
        return self


def _gf2_rref(rows, n: int):
    """Reduced row-echelon basis and pivot columns of integer row vectors:
    each row is cleared at every pivot, and its leading bit, if any is
    left, becomes a pivot that is cleared from the other rows."""
    basis = {}  # pivot column -> the row with a 1 there and 0 at every other pivot
    for row in rows:
        for piv, b in basis.items():
            if row >> (n - 1 - piv) & 1:
                row ^= b
        if row:
            lead = 1 << (row.bit_length() - 1)
            for piv, b in basis.items():
                if b & lead:
                    basis[piv] = b ^ row
            basis[n - row.bit_length()] = row
    pivots = sorted(basis)
    return [basis[piv] for piv in pivots], pivots


def _byte_tables(units) -> np.ndarray:
    """Tables of a GF(2)-linear map on ints from units[i], the image of 1 << i:
    row r maps byte r of x (bits 8r to 8r + 7) to its share of the image."""
    tables = np.zeros((-(-len(units) // 8), 256), dtype=np.int64)
    for i, u in enumerate(units):
        row, bit = divmod(i, 8)
        tables[row, 1 << bit:2 << bit] = tables[row, :1 << bit] ^ u
    return tables


def _linear(tables, x):
    """The map of _byte_tables at x: an int with list rows, an int64 array with array rows."""
    image = 0
    for r, table in enumerate(tables):
        image ^= table[x >> 8 * r & 255]
    return image


def _syndrome_map(basis, n: int, s_values):
    """(k, free, tables, s): the dimension of span(basis), its free (non-pivot)
    columns, the _byte_tables of its syndrome map (a word's free-column bits
    after reduction mod the span, in column order) and S as int64 or None.
    A basis vector or S value outside [0, 2^n) is refused by value."""
    basis = [int(z) for z in basis]
    for z in basis:
        if z >> n:
            raise ValueError(f"basis vector {z} does not fit in {n} bits")
    s = None if s_values is None else np.asarray(s_values, dtype=np.int64)
    if s is not None and s.size and (s.min() < 0 or s.max() >> n):
        raise ValueError(f"S value {s[s >> n != 0][0]} does not fit in {n} bits")
    rref, pivots = _gf2_rref(basis, n)
    free = [j for j in range(n) if j not in pivots]
    rows = dict(zip(pivots, rref))

    def pack(x):  # the free-column bits of x, in column order
        return sum(1 << (len(free) - 1 - i) for i, j in enumerate(free) if x >> (n - 1 - j) & 1)

    # the syndrome of the unit vector 1 << i is that of its reduced form:
    # the basis row with its pivot in cell n - i, else the vector itself
    tables = _byte_tables([pack(rows.get(n - 1 - i, 1 << i)) for i in range(n)])
    return len(rref), free, tables, s


class CosetCode(RewritingCode):
    """Syndrome rewriting code over an S-good linear code.

    Messages are the 2^(n-k) syndromes of the dimension-k code; encode
    flips the smallest-value admissible pattern that shifts the state
    into the target coset, decode reads the syndrome back.  Every flip
    pattern lies in S, so each write obeys the (1, beta, p) budget.
    """

    def __init__(self, n: int, params: WwlParams, basis, s_values=None):
        _check_width(n, params)
        self.wwl = params
        self.params = ConstraintParams(1, params.beta, params.p)
        self.n_cells = n
        self.period = 1
        basis = list(basis)
        self.k, free, self._tables, s = _syndrome_map(basis, n, s_values)
        if self.k != len(basis):
            raise ValueError("basis vectors are linearly dependent")
        m = n - self.k
        self._table_lists = self._tables.tolist()
        if s is None and self.params.vacuous:
            # every word is admissible: each class's smallest member has 0 in every
            # pivot cell and the syndrome bits in the free ones
            deposit = _byte_tables([1 << (n - 1 - free[m - 1 - i]) for i in range(m)])
            self._rep = np.empty(1 << m, dtype=np.int64)
            for lo in range(0, 1 << m, _CHUNK):
                self._rep[lo:lo + _CHUNK] = _linear(deposit, np.arange(lo, min(lo + _CHUNK, 1 << m)))
            return
        s = wwl_values(params, n) if s is None else s
        self._rep = np.full(1 << m, 1 << n, dtype=np.int64)  # 2^n: not reached yet
        # smallest admissible pattern per syndrome; S-goodness makes this total
        for lo in range(0, s.size, _CHUNK):
            block = s[lo:lo + _CHUNK]
            np.minimum.at(self._rep, self._syndrome_int(block), block)
        unreachable = int(np.count_nonzero(self._rep >> n))
        if unreachable:
            # each unreached syndrome is a whole uncovered coset of 2^k words
            raise ValueError(
                f"code is not S-good: {unreachable << self.k} words uncovered, "
                f"{unreachable} syndromes unreachable")

    def _syndrome_int(self, x):
        """Free-coordinate bits of x reduced mod the code, packed in column order.

        x is an int (looked up in lists) or an int64 array (gathered).
        """
        return _linear(self._tables if isinstance(x, np.ndarray) else self._table_lists, x)

    def message_count(self, write_index: int) -> int:
        self._check_write_index(write_index)
        return 1 << (self.n_cells - self.k)

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        x = psi(self._check(write_index, current, message))
        pattern = int(self._rep[self._syndrome_int(x) ^ (message - 1)])
        return bits_from_int(x ^ pattern, self.n_cells)

    def decode(self, write_index: int, current: Bits) -> int:
        return self._syndrome_int(psi(self._check(write_index, current))) + 1

    @property
    def theoretical_rate(self) -> float:
        return (self.n_cells - self.k) / self.n_cells


def find_good_code(n: int, params: WwlParams):
    """Check n as CosetCode does, run the greedy search and build the code."""
    _check_width(n, params)
    search = GoodCodeSearch(n, params).run()
    code = CosetCode(n, params, search.basis, search._s)
    return search, code
