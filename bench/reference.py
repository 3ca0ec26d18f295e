"""Reference computations the benchmark checks tscc's outputs against.

Nothing here imports tscc: each function is written from the problem
statement alone, with a different algorithm from the package where that
is cheap, so that a fault shared by the two is unlikely.

Run `python3 bench/reference.py` to test these functions against values
known without any program (Fibonacci counts, the golden ratio,
non-attacking king placements, the unconstrained 2^(mn)).
"""

from __future__ import annotations

import itertools
import math
import sys
from collections import defaultdict

import numpy as np


def first_violation(states, alpha: int, beta: int, p: int):
    """First (write, cell, cost) whose alpha x beta window exceeds p, or None.

    states is an (m+1) x n 0/1 array, row 0 the initial state.  Windows
    start at writes 1..m-alpha+1 and cells 1..n-beta+1, both 1-based,
    and are scanned write-major.  A trace with fewer than alpha writes
    is tested on its single clipped window of all m writes.
    """
    states = np.asarray(states, dtype=np.uint8)
    m, n = states.shape[0] - 1, states.shape[1]
    if n < beta:
        raise ValueError(f"{n} cells is narrower than beta={beta}")
    if m == 0:
        return None
    flips = (states[1:] ^ states[:-1]).astype(np.int32)
    by_cell = np.zeros((m, n + 1), dtype=np.int32)
    np.cumsum(flips, axis=1, out=by_cell[:, 1:])
    cols = by_cell[:, beta:] - by_cell[:, :n - beta + 1]
    rows = min(alpha, m)
    by_write = np.zeros((m + 1, cols.shape[1]), dtype=np.int32)
    np.cumsum(cols, axis=0, out=by_write[1:])
    window = by_write[rows:] - by_write[:m - rows + 1]
    over = np.flatnonzero(window > p)
    if over.size == 0:
        return None
    write, cell = divmod(int(over[0]), window.shape[1])
    return write + 1, cell + 1, int(window.flat[over[0]])


def _weights(width: int) -> np.ndarray:
    return np.array([v.bit_count() for v in range(1 << width)], dtype=np.int64)


def wwl_count(beta: int, p: int, n: int) -> int:
    """Number of n-bit vectors with at most p ones in every beta-window.

    Vectors shorter than beta are limited in total weight.  The DP state
    is the last beta-1 bits as an integer, seeded with zeros, so the
    windows that start before cell 1 see the short prefix only.
    """
    keep = (1 << (beta - 1)) - 1
    counts = {0: 1}
    for _ in range(n):
        nxt = defaultdict(int)
        for state, c in counts.items():
            for bit in (0, 1):
                window = (state << 1) | bit
                if window.bit_count() <= p:
                    nxt[window & keep] += c
        counts = nxt
    return sum(counts.values())


def wwl_perron(beta: int, p: int, rel_tol: float = 1e-14, max_iter: int = 200_000):
    """Bracket (lower, upper) of the growth rate of wwl_count(beta, p, n).

    Power iteration on the bitmask transfer graph; every positive iterate
    v gives min (Av)/v <= lambda <= max (Av)/v (Collatz-Wielandt), and
    the graph is irreducible and aperiodic (state 0 loops to itself).
    """
    if beta == 1:
        return 2.0, 2.0
    keep = (1 << (beta - 1)) - 1
    weight = _weights(beta)
    states = np.flatnonzero(weight[:keep + 1] <= p)
    index = np.full(keep + 1, -1, dtype=np.int64)
    index[states] = np.arange(states.size)
    zero_next = index[(states << 1) & keep]
    one_ok = weight[(states << 1) | 1] <= p
    one_next = np.where(one_ok, index[((states << 1) | 1) & keep], 0)
    v = np.ones(states.size)
    lo, hi = 0.0, math.inf
    for _ in range(max_iter):
        w = v[zero_next] + np.where(one_ok, v[one_next], 0.0)
        ratio = w / v
        lo, hi = max(lo, float(ratio.min())), min(hi, float(ratio.max()))
        if hi - lo <= rel_tol * hi:
            return lo, hi
        v = w / w.max()
    raise RuntimeError(f"power iteration for ({beta},{p}) did not reach {rel_tol}")


def wwl_values(n: int, beta: int, p: int) -> np.ndarray:
    """All n-bit integers whose pattern obeys the (beta, p) window limit."""
    width = min(beta, n)
    weight = _weights(width)
    x = np.arange(1 << n, dtype=np.int64)
    ok = np.ones(x.size, dtype=bool)
    for shift in range(n - width + 1):
        ok &= weight[(x >> shift) & ((1 << width) - 1)] <= p
    return np.flatnonzero(ok)


def uncovered(basis, s_values: np.ndarray, n: int) -> int:
    """Words of {0,1}^n outside span(basis) + S; -1 if the basis is dependent."""
    span = [0]
    for z in basis:
        span += [v ^ z for v in span]
    if len(set(span)) != len(span):
        return -1
    covered = np.zeros(1 << n, dtype=bool)
    for v in span:
        covered[s_values ^ v] = True
    return int(covered.size - np.count_nonzero(covered))


def count_2d(a: int, b: int, p: int, m: int, n: int) -> int:
    """Exact count of m x n 0/1 arrays whose every a x b window has <= p ones.

    Rows are n-bit integers; the DP state is the tuple of the last a-1
    rows, and a new row is allowed when each b-wide column band of the
    a stacked rows stays within p.
    """
    if m < a or n < b:
        return 1 << (m * n)
    bits = (np.arange(1 << n)[:, None] >> np.arange(n)) & 1
    prefix = np.zeros((1 << n, n + 1), dtype=np.int64)
    np.cumsum(bits, axis=1, out=prefix[:, 1:])
    band = prefix[:, b:] - prefix[:, :n - b + 1]
    allowed = {}
    dp = dict.fromkeys(itertools.product(range(1 << n), repeat=a - 1), 1)
    for _ in range(m - a + 1):
        nxt = defaultdict(int)
        for state, c in dp.items():
            rows = allowed.get(state)
            if rows is None:
                load = band[list(state)].sum(axis=0)
                rows = allowed[state] = np.flatnonzero(
                    (band + load <= p).all(axis=1)).tolist()
            for r in rows:
                nxt[(state + (r,))[1:]] += c
        dp = nxt
    return sum(dp.values())


def self_test():
    """Failures of the reference functions on independently known values."""
    fails = []

    def expect(label, got, want):
        if got != want:
            fails.append(f"{label}: got {got!r}, want {want!r}")

    fib = [0, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for n in range(1, 25):
        expect(f"wwl_count(2,1,{n})", wwl_count(2, 1, n), fib[n + 2])
    for n in range(1, 13):
        expect(f"|wwl_values({n},2,1)|", int(wwl_values(n, 2, 1).size), fib[n + 2])
    for beta, n in ((1, 9), (3, 7), (5, 4)):
        expect(f"wwl_count({beta},{beta},{n})", wwl_count(beta, beta, n), 1 << n)
    lo, hi = wwl_perron(2, 1)
    phi = (1 + math.sqrt(5)) / 2
    if not lo - 1e-12 <= phi <= hi + 1e-12 or hi - lo > 1e-12:
        fails.append(f"wwl_perron(2,1) = [{lo!r}, {hi!r}] misses phi")
    expect("kings 2x2", count_2d(2, 2, 1, 2, 2), 5)
    expect("kings 3x3", count_2d(2, 2, 1, 3, 3), 35)
    for a, b, m, n in ((2, 2, 3, 4), (3, 2, 4, 3), (1, 3, 2, 5)):
        expect(f"count_2d({a},{b},{a * b},{m},{n})", count_2d(a, b, a * b, m, n),
               1 << (m * n))
    expect("uncovered, S all words", uncovered([], np.arange(16), 4), 0)
    expect("uncovered, span of e1,e2 + {0}", uncovered([1, 2], np.array([0]), 2), 0)
    expect("uncovered, {0} alone", uncovered([], np.array([0]), 3), 7)
    expect("uncovered, dependent basis", uncovered([3, 3], np.array([0]), 2), -1)
    # hand-computed window checks: the first is the tscc README example,
    # the next two use the clipped window (2 writes against alpha = 5),
    # the last puts a later-cell violation on write 1 ahead of write 2's
    cases = [
        (["0000", "0110"], (2, 2, 1), (1, 2, 2)),
        (["000", "110", "011"], (5, 2, 2), (1, 1, 3)),
        (["000", "110", "011"], (5, 2, 3), None),
        (["0000", "0011", "1111"], (1, 2, 1), (1, 3, 2)),
    ]
    for rows, (alpha, beta, p), want in cases:
        states = [[int(ch) for ch in r] for r in rows]
        expect(f"first_violation({rows}, {alpha},{beta},{p})",
               first_violation(states, alpha, beta, p), want)
    return fails


if __name__ == "__main__":
    problems = self_test()
    for line in problems:
        print(line)
    print("reference self-test:", "FAILED" if problems else "ok")
    sys.exit(1 if problems else 0)
