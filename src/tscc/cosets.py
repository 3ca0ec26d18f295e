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
coverage indicator, computed exactly with an integer Walsh-Hadamard
transform, so the scan is always exhaustive.  Averaging over all
candidates shows the fraction Q of uncovered words at least squares
with each step, which bounds the number of steps by
ceil(n - log2 |S| + log2 n).
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log2

import numpy as np

from .core import Bits, ConstraintParams, RewritingCode, bits_from_int, psi
from .wwl import WwlParams, enumerate_wwl

_MAX_N = 24


def _walsh_hadamard(a: np.ndarray) -> np.ndarray:
    """In-place integer Walsh-Hadamard transform (self-inverse up to 2^n)."""
    n = a.shape[0]
    h = 1
    while h < n:
        a = a.reshape(-1, 2, h)
        x = a[:, 0, :].copy()
        a[:, 0, :] = x + a[:, 1, :]
        a[:, 1, :] = x - a[:, 1, :]
        a = a.reshape(n)
        h *= 2
    return a


def xor_autocorrelation(indicator: np.ndarray) -> np.ndarray:
    """corr[z] = |{x : x in A and x ^ z in A}| for a 0/1 indicator of A.

    Exact in int64 for n <= 24: every intermediate is a signed sum of
    nonnegative entries bounded by 2^n * |A| < 2^48.
    """
    f = _walsh_hadamard(indicator.astype(np.int64))
    g = _walsh_hadamard(f * f)
    return g >> int(log2(g.shape[0]))


def _coverage(s_values, basis, n: int) -> np.ndarray:
    """Indicator of span(basis) + S, built by folding one translate per step."""
    cov = np.zeros(1 << n, dtype=bool)
    cov[list(s_values)] = True
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
    """Greedy search state for an S-good linear code; single-owner mutable."""

    def __init__(self, n: int, params: WwlParams):
        if not 1 <= n <= _MAX_N:
            raise ValueError(f"n must be in [1:{_MAX_N}]")
        self.n = n
        self.params = params
        self.s_values = tuple(psi(v) for v in enumerate_wwl(params, n))
        self.basis: list[int] = []
        self.steps: list[GreedyStep] = []
        self._cov = _coverage(self.s_values, (), n)
        self._member = np.zeros(1 << n, dtype=bool)
        self._member[0] = True

    @property
    def covered(self) -> int:
        return int(np.count_nonzero(self._cov))

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
        return max(0, ceil(self.n - log2(len(self.s_values)) + log2(self.n)))

    def double(self) -> GreedyStep:
        """Adjoin the translate overlapping current coverage least."""
        if self.is_good:
            raise ValueError("code is already S-good; nothing to double")
        size = 1 << self.n
        corr = xor_autocorrelation(self._cov)
        corr[self._member] = size + 1  # members never shrink the miss count
        z = int(np.argmin(corr))  # first minimum = smallest value
        before = self.missed
        idx = np.arange(size)
        self._cov |= self._cov[idx ^ z]
        self._member |= self._member[idx ^ z]
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


def greedy_double(search: GoodCodeSearch) -> GoodCodeSearch:
    """One greedy doubling step; returns the updated search."""
    search.double()
    return search


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
        if s_values is None:
            s_values = tuple(psi(v) for v in enumerate_wwl(params, n))
        rref, pivots = _gf2_rref([int(z) for z in basis], n)
        if len(rref) != len(list(basis)):
            raise ValueError("basis vectors are linearly dependent")
        self.k = len(rref)
        self._rref = rref
        self._pivots = pivots
        self._free = [j for j in range(n) if j not in pivots]
        # smallest admissible pattern per syndrome; S-goodness makes this total
        rep = {}
        for s in sorted(s_values):
            d = self._syndrome_int(s)
            if d not in rep:
                rep[d] = s
        if len(rep) != 1 << (n - self.k):
            good, missed = is_s_good(basis, s_values, n)
            if good:
                raise RuntimeError("coverage says S-good but some syndromes have no "
                                   "admissible representative")
            raise ValueError(
                f"code is not S-good: {missed} words uncovered, "
                f"{(1 << (n - self.k)) - len(rep)} syndromes unreachable")
        self._rep = rep

    def _syndrome_int(self, x: int) -> int:
        """Free-coordinate bits of x reduced mod the code, packed in column order."""
        n = self.n_cells
        for piv, b in zip(self._pivots, self._rref):
            if x >> (n - 1 - piv) & 1:
                x ^= b
        d = 0
        for j in self._free:
            d = (d << 1) | (x >> (n - 1 - j) & 1)
        return d

    def message_count(self, write_index: int) -> int:
        self._check_write_index(write_index)
        return 1 << (self.n_cells - self.k)

    def encode(self, write_index: int, message: int, current: Bits) -> Bits:
        self._check_message(write_index, message)
        x = psi(current)
        pattern = self._rep[self._syndrome_int(x) ^ (message - 1)]
        return bits_from_int(x ^ pattern, self.n_cells)

    def decode(self, write_index: int, current: Bits) -> int:
        self._check_write_index(write_index)
        return self._syndrome_int(psi(current)) + 1

    @property
    def theoretical_rate(self) -> float:
        return (self.n_cells - self.k) / self.n_cells


def build_coset_code(n: int, params: WwlParams, basis) -> CosetCode:
    """CosetCode over span(basis); raises when the code is not S-good."""
    return CosetCode(n, params, basis)


def find_good_code(n: int, params: WwlParams):
    """Run the greedy search and build the resulting syndrome code."""
    search = GoodCodeSearch(n, params).run()
    code = CosetCode(n, params, search.basis, search.s_values)
    return search, code
