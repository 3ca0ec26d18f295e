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
steps * 2^n.  The transform runs in float64 as batched products with
Hadamard blocks of order <= 64; it is exact because every intermediate
is an integer of magnitude at most 2^n * |A| <= 2^48 < 2^53.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property
from math import ceil, log2

import numpy as np

from .core import Bits, ConstraintParams, RewritingCode, bits_from_int, psi
from .wwl import WwlParams, wwl_values

_MAX_N = 24
_BLOCK_BITS = 6


@cache
def _hadamard() -> np.ndarray:
    """Read-only Sylvester Hadamard matrix of order 64; its 2^s corner has order 2^s."""
    i = np.arange(1 << _BLOCK_BITS)
    h = np.where(np.bitwise_count(i[:, None] & i) & 1, -1.0, 1.0)
    h.flags.writeable = False
    return h


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """Walsh-Hadamard transform of a length-2^m float64 array (self-inverse up to 2^m).

    The m index bits are split into ceil(m / 6) near-equal blocks; each
    pass multiplies by a Hadamard block along one, batched over the rest.
    """
    m = a.size.bit_length() - 1
    passes = -(-m // _BLOCK_BITS)
    done = 0
    for i in range(passes):
        s = m // passes + (i < m % passes)
        h = _hadamard()[:1 << s, :1 << s]
        rest = m - done - s
        if rest:
            a = np.matmul(h, a.reshape(-1, 1 << s, 1 << rest))
        else:
            a = a.reshape(-1, 1 << s) @ h
        done += s
    return a.reshape(-1)


def xor_autocorrelation(indicator: np.ndarray) -> np.ndarray:
    """corr[z] = |{x : x in A and x ^ z in A}| for a 0/1 indicator of A.

    Exact for n <= 24: the float64 transforms only ever hold integers of
    magnitude at most 2^n * |A| <= 2^48 < 2^53.
    """
    f = _walsh_hadamard(indicator.astype(np.float64))
    g = _walsh_hadamard(f * f)
    return np.rint(g).astype(np.int64) >> (g.size.bit_length() - 1)


def _coverage(s_values, basis, n: int) -> np.ndarray:
    """Indicator of span(basis) + S, built by folding one translate per step."""
    cov = np.zeros(1 << n, dtype=bool)
    cov[np.asarray(s_values, dtype=np.int64)] = True
    idx = np.arange(1 << n)
    for z in basis:
        cov |= cov[idx ^ z]
    return cov


def is_s_good(basis, s_values, n: int):
    """Whether span(basis) + S covers everything, and how many words it misses."""
    if not 1 <= n <= _MAX_N:
        raise ValueError(f"n must be in [1:{_MAX_N}]")
    cov = _coverage(s_values, basis, n)
    missed = (1 << n) - int(np.count_nonzero(cov))
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
    the bits of the free columns _free (0 = the first cell) in order.
    """

    def __init__(self, n: int, params: WwlParams):
        if not 1 <= n <= _MAX_N:
            raise ValueError(f"n must be in [1:{_MAX_N}]")
        self.n = n
        self.params = params
        self._s = wwl_values(params, n)
        self.basis: list[int] = []
        self.steps: list[GreedyStep] = []
        self._free = list(range(n))
        self._cov = _coverage(self._s, (), n)

    @cached_property
    def s_values(self) -> tuple:
        """S as Python ints in increasing order."""
        return tuple(self._s.tolist())

    @property
    def covered(self) -> int:
        return int(np.count_nonzero(self._cov)) << len(self.basis)

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
        return max(0, ceil(self.n - log2(self._s.size) + log2(self.n)))

    def double(self) -> GreedyStep:
        """Adjoin the translate overlapping current coverage least."""
        if self.is_good:
            raise ValueError("code is already S-good; nothing to double")
        size = 1 << self.n
        free = len(self._free)
        # corr[0] = |S_B| bounds every entry, so while S_B is not everything
        # the first minimum is a class outside B, with the smallest representative
        corr = xor_autocorrelation(self._cov)
        zq = int(np.argmin(corr))
        before = self.missed
        self._cov |= self._cov[np.arange(1 << free) ^ zq]
        # the new pivot is zq's leading bit; keep the classes with a 0 there
        lead = free - zq.bit_length()
        self._cov = self._cov.reshape(1 << lead, 2, -1)[:, 0, :].ravel()
        z = sum(1 << (self.n - 1 - col) for i, col in enumerate(self._free)
                if zq >> (free - 1 - i) & 1)
        del self._free[lead]
        self.basis.append(z)
        after = self.missed
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
    """Reduced row-echelon basis and pivot columns of integer row vectors."""
    basis = []
    pivots = []
    for row in rows:
        for piv, b in zip(pivots, basis):
            if row >> (n - 1 - piv) & 1:
                row ^= b
        if row == 0:
            continue
        piv = n - 1 - row.bit_length() + 1  # leftmost set bit as a column index
        basis.append(row)
        pivots.append(piv)
        order = sorted(range(len(pivots)), key=lambda i: pivots[i])
        basis = [basis[i] for i in order]
        pivots = [pivots[i] for i in order]
        for i, b in enumerate(basis):
            for j, other in enumerate(basis):
                if i != j and other >> (n - 1 - pivots[i]) & 1:
                    basis[j] = other ^ b
    return basis, pivots


class CosetCode(RewritingCode):
    """Syndrome rewriting code over an S-good linear code.

    Messages are the 2^(n-k) syndromes of the dimension-k code; encode
    flips the smallest-value admissible pattern that shifts the state
    into the target coset, decode reads the syndrome back.  Every flip
    pattern lies in S, so each write obeys the (1, beta, p) budget.
    """

    def __init__(self, n: int, params: WwlParams, basis, s_values=None):
        if not 1 <= n <= _MAX_N:
            raise ValueError(f"n must be in [1:{_MAX_N}]")
        if n < params.beta:
            raise ValueError(f"n={n} is narrower than beta={params.beta}")
        self.wwl = params
        self.params = ConstraintParams(1, params.beta, params.p)
        self.n_cells = n
        self.period = 1
        s = np.sort(wwl_values(params, n) if s_values is None
                    else np.asarray(s_values, dtype=np.int64))
        rref, pivots = _gf2_rref([int(z) for z in basis], n)
        if len(rref) != len(list(basis)):
            raise ValueError("basis vectors are linearly dependent")
        self.k = len(rref)
        self._rref = rref
        self._pivots = pivots
        self._free = [j for j in range(n) if j not in pivots]
        # smallest admissible pattern per syndrome; S-goodness makes this total
        syndromes = self._syndrome_int(s)
        reached, first = np.unique(syndromes, return_index=True)
        unreachable = (1 << (n - self.k)) - reached.size
        if unreachable:
            # each unreached syndrome is a whole uncovered coset of 2^k words
            raise ValueError(
                f"code is not S-good: {unreachable << self.k} words uncovered, "
                f"{unreachable} syndromes unreachable")
        self._rep = s[first].tolist()

    def _syndrome_int(self, x):
        """Free-coordinate bits of x reduced mod the code, packed in column order.

        x is an int or an int64 array; the arithmetic is the same for both.
        """
        n = self.n_cells
        for piv, b in zip(self._pivots, self._rref):
            x = x ^ (x >> (n - 1 - piv) & 1) * b
        d = x & 0  # 0 of x's type and shape
        for j in self._free:
            d = (d << 1) | (x >> (n - 1 - j) & 1)
        return d

    def message_count(self, write_index: int) -> int:
        self._check_write_index(write_index)
        return 1 << (self.n_cells - self.k)

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        x = psi(self._check(write_index, current, message))
        pattern = self._rep[self._syndrome_int(x) ^ (message - 1)]
        return bits_from_int(x ^ pattern, self.n_cells)

    def decode(self, write_index: int, current: Bits) -> int:
        return self._syndrome_int(psi(self._check(write_index, current))) + 1

    @property
    def theoretical_rate(self) -> float:
        return (self.n_cells - self.k) / self.n_cells


def find_good_code(n: int, params: WwlParams):
    """Run the greedy search and build the resulting syndrome code."""
    search = GoodCodeSearch(n, params)
    if n < params.beta:  # CosetCode refuses it; say so before the search runs
        raise ValueError(f"n={n} is narrower than beta={params.beta}")
    search.run()
    code = CosetCode(n, params, search.basis, search._s)
    return search, code
