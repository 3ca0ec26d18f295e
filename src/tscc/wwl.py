"""Window-weight-limited binary vectors and their enumerative codec.

A vector satisfies the (beta, p) window-weight-limit when every window
of beta contiguous bits holds at most p ones; vectors shorter than beta
must have total weight at most p.  These are exactly the flip patterns
a single write may apply under a (1, beta, p) budget.

The set of such vectors of a given length is counted and indexed here:
admissible prefixes of length beta-1 form the states of a transfer
graph, counts follow from iterating its transition matrix, the capacity
is log2 of its dominant eigenvalue, and rank/unrank convert between a
vector and its 1-based position in the value-ordered enumeration using
O(n) count-table lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, log2

from .core import Bits, ConvergenceError, hamming_weight, psi


@dataclass(frozen=True)
class WwlParams:
    """Window length beta >= 1 and weight budget 1 <= p <= beta."""

    beta: int
    p: int

    def __post_init__(self):
        if not isinstance(self.beta, int) or self.beta < 1:
            raise ValueError(f"beta must be a positive integer, got {self.beta!r}")
        if not isinstance(self.p, int) or not 1 <= self.p <= self.beta:
            raise ValueError(f"p must be in [1:{self.beta}], got {self.p!r}")


def is_wwl(params: WwlParams, bits: Bits) -> bool:
    """True when every window of min(beta, len) bits has weight <= p."""
    n = len(bits)
    w = min(params.beta, n)
    acc = sum(bits[:w])
    if acc > params.p:
        return False
    for j in range(w, n):
        acc += bits[j] - bits[j - w]
        if acc > params.p:
            return False
    return True


def build_state_set(params: WwlParams):
    """All length-(beta-1) vectors of weight <= p, sorted by increasing value.

    These are the admissible prefixes; their 1-based position in this
    ordering is the state index used everywhere else.  For beta = 1 the
    set is the single empty prefix.
    """
    width = params.beta - 1
    states = []
    for w in range(min(params.p, width) + 1):
        for ones in combinations(range(width), w):
            v = [0] * width
            for i in ones:
                v[i] = 1
            states.append(tuple(v))
    states.sort(key=psi)
    return tuple(states)


def state_count(params: WwlParams) -> int:
    """Closed form for the number of admissible prefixes."""
    return sum(comb(params.beta - 1, i) for i in range(min(params.p, params.beta - 1) + 1))


def merge(u: Bits, v: Bits):
    """Overlap-merge of two equal-length vectors, or None when they disagree.

    When the last len-1 bits of u equal the first len-1 bits of v the
    result is u extended by the last bit of v: the unique window a
    prefix u can slide into v through.
    """
    if len(u) != len(v):
        raise ValueError("merge needs equal-length vectors")
    if len(u) == 0:
        raise ValueError("merge is undefined for empty vectors")
    if u[1:] != v[:-1]:
        return None
    return u + (v[-1],)


def build_transition_matrix(params: WwlParams):
    """Adjacency of the admissible-prefix graph.

    Entry [i][j] is 1 when state j continues state i by one bit and the
    merged beta-window keeps weight <= p.  Every row has at most two
    ones since a prefix extends by a 0 or a 1 only.  For beta = 1 the
    single empty prefix extends by either bit, giving the 1x1 matrix
    [[2]]; this keeps the count recursion and capacity exact in the
    degenerate case.
    """
    if params.beta == 1:
        return [[2]]
    states = build_state_set(params)
    index = {s: k for k, s in enumerate(states)}
    m = len(states)
    a = [[0] * m for _ in range(m)]
    for i, s in enumerate(states):
        w = hamming_weight(s)
        a[i][index[s[1:] + (0,)]] = 1
        if w < params.p:
            a[i][index[s[1:] + (1,)]] = 1
    return a


def _adjacency(matrix):
    """Rows as (column, weight) lists, validating shape and sign."""
    m = len(matrix)
    if m == 0 or any(len(row) != m for row in matrix):
        raise ValueError("matrix must be square and nonempty")
    adj = []
    for row in matrix:
        entries = []
        for j, v in enumerate(row):
            if v < 0:
                raise ValueError("matrix entries must be nonnegative")
            if v:
                entries.append((j, v))
        adj.append(entries)
    return adj


def is_irreducible(matrix) -> bool:
    """True when the directed graph of positive entries is strongly connected."""
    adj = _adjacency(matrix)
    m = len(matrix)
    rev = [[] for _ in range(m)]
    for i, entries in enumerate(adj):
        for j, _ in entries:
            rev[j].append(i)

    def reaches_all(start, nbrs):
        seen = {start}
        stack = [start]
        while stack:
            i = stack.pop()
            for j in (x[0] for x in nbrs[i]) if nbrs is adj else nbrs[i]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == m

    return reaches_all(0, adj) and reaches_all(0, rev)


@dataclass(frozen=True)
class EigenEstimate:
    """Certified bracket lower <= lambda_max <= upper after `iterations` steps."""

    lower: float
    upper: float
    iterations: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def dominant_eigenvalue(matrix, tol: float = 1e-9, max_iter: int = 10 ** 6) -> EigenEstimate:
    """Power iteration with min/max ratio brackets around lambda_max.

    Requires a nonnegative irreducible matrix.  Each iterate v > 0
    yields min_i (Av)_i / v_i <= lambda_max <= max_i (Av)_i / v_i; the
    brackets from successive iterates are intersected and the method
    stops once the bracket is narrower than tol.  Exceeding max_iter
    raises ConvergenceError carrying the best bracket so far.
    """
    if not is_irreducible(matrix):
        raise ValueError("dominant_eigenvalue requires an irreducible matrix")
    adj = _adjacency(matrix)
    m = len(matrix)
    v = [1.0] * m
    best_lo, best_hi = 0.0, float("inf")
    for it in range(1, max_iter + 1):
        w = [sum(a * v[j] for j, a in row) for row in adj]
        ratios = [wi / vi for wi, vi in zip(w, v)]
        best_lo = max(best_lo, min(ratios))
        best_hi = min(best_hi, max(ratios))
        if best_hi - best_lo <= tol:
            return EigenEstimate(best_lo, best_hi, it)
        scale = max(w)
        if scale <= 0:
            raise ValueError("matrix has a zero row reachable from all states")
        v = [wi / scale for wi in w]
    raise ConvergenceError(
        f"eigenvalue bracket still {best_hi - best_lo:g} wide after {max_iter} iterations",
        estimate=EigenEstimate(best_lo, best_hi, max_iter))


@dataclass(frozen=True)
class CapacityBracket:
    """Bits per cell per write supported by the (beta, p) window limit."""

    params: WwlParams
    states: int
    eigen: EigenEstimate

    @property
    def lower(self) -> float:
        return log2(self.eigen.lower)

    @property
    def upper(self) -> float:
        return log2(self.eigen.upper)


def wwl_capacity(params: WwlParams, tol: float = 1e-9) -> CapacityBracket:
    """Capacity bracket log2(lambda) of the admissible-prefix graph."""
    eigen = dominant_eigenvalue(build_transition_matrix(params), tol=tol)
    return CapacityBracket(params=params, states=state_count(params), eigen=eigen)


class CountTable:
    """Exact completion counts X(L, k) for the enumerative codec.

    X(L, k) is the number of admissible vectors of length L whose first
    beta-1 bits equal state k (1-based, value order).  Rows run from
    L = beta-1, where every entry is 1, up to L = n + beta - 2, the
    largest length rank() can ask for on vectors of length n.  Rows
    satisfy x(L+1) = A x(L) with A the transition matrix; entries are
    exact Python integers.  Instances are immutable once built.
    """

    def __init__(self, params: WwlParams, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.params = params
        self.n = n
        self.min_length = params.beta - 1
        self.max_length = n + params.beta - 2
        adj = _adjacency(build_transition_matrix(params))
        row = [1] * len(adj)
        rows = [row]
        for _ in range(self.min_length, self.max_length):
            row = [sum(a * row[j] for j, a in entries) for entries in adj]
            rows.append(row)
        self._rows = rows

    @property
    def states(self) -> int:
        return len(self._rows[0])

    def value(self, length: int, state_index: int) -> int:
        """X(length, state_index); state_index is 1-based."""
        if not self.min_length <= length <= self.max_length:
            raise ValueError(
                f"length {length} outside table range "
                f"[{self.min_length}:{self.max_length}]")
        if not 1 <= state_index <= self.states:
            raise ValueError(f"state index {state_index} outside [1:{self.states}]")
        return self._rows[length - self.min_length][state_index - 1]

    def row(self, length: int):
        if not self.min_length <= length <= self.max_length:
            raise ValueError(f"length {length} outside table range")
        return tuple(self._rows[length - self.min_length])

    def row_sum(self, length: int) -> int:
        return sum(self.row(length))


def count_wwl(params: WwlParams, n: int) -> int:
    """Number of admissible vectors of length n, as an exact integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < params.beta - 1:
        return sum(comb(n, i) for i in range(min(params.p, n) + 1))
    adj = _adjacency(build_transition_matrix(params))
    row = [1] * len(adj)
    for _ in range(params.beta - 1, n):
        row = [sum(a * row[j] for j, a in entries) for entries in adj]
    return sum(row)


def enumerate_wwl(params: WwlParams, n: int):
    """All admissible vectors of length n in increasing value order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    beta, p = params.beta, params.p
    out = []
    prefix = []

    def extend():
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        prefix.append(0)
        extend()
        prefix.pop()
        # appending a 1 is allowed when the window ending here stays within budget
        if sum(prefix[max(0, len(prefix) - beta + 1):]) + 1 <= p:
            prefix.append(1)
            extend()
            prefix.pop()

    extend()
    return out


def _state_index_map(params: WwlParams):
    return {s: k for k, s in enumerate(build_state_set(params), start=1)}


def _require_table(params: WwlParams, n: int, table):
    if table is None:
        return CountTable(params, n)
    if table.params != params:
        raise ValueError("count table was built for different parameters")
    if table.n < n:
        raise ValueError(f"count table covers n up to {table.n}, need {n}")
    return table


def rank(params: WwlParams, c: Bits, table: CountTable | None = None) -> int:
    """1-based position of an admissible vector in value order.

    Scans c once; each 1 at position j adds the number of admissible
    vectors that agree with c before j and have a 0 there, read off the
    count table in O(1) per lookup (O(n) lookups total).
    """
    c = tuple(c)
    n = len(c)
    if n < 1:
        raise ValueError("vector must be nonempty")
    if any(b not in (0, 1) for b in c):
        raise ValueError("vector entries must be 0/1")
    if not is_wwl(params, c):
        raise ValueError(f"vector {''.join(map(str, c))} violates the "
                         f"({params.beta},{params.p}) window limit")
    table = _require_table(params, n, table)
    beta = params.beta
    index = _state_index_map(params)
    cnt = 0
    for j in range(1, n + 1):
        if c[j - 1] == 0:
            continue
        if beta == 1:
            k = 1
        else:
            # prefix state: the beta-2 bits left of j, left-padded with
            # zeros, then a 0 in place of the 1 at j
            left = c[max(0, j - 1 - (beta - 2)):j - 1]
            d = (0,) * (beta - 2 - len(left)) + left + (0,)
            k = index[d]
        cnt += table.value(n - j + beta - 1, k)
    return cnt + 1


def unrank(params: WwlParams, n: int, m: int, table: CountTable | None = None) -> Bits:
    """The admissible vector of length n at 1-based position m in value order.

    Greedy left-to-right: try a 1 at each position, test only the
    window ending there (earlier windows are already admissible and
    later bits are still zero), and keep the 1 when the count of
    vectors skipped stays below m.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = count_wwl(params, n)
    if not 1 <= m <= total:
        raise ValueError(f"m must be in [1:{total}] for n={n}, got {m}")
    table = _require_table(params, n, table)
    beta = params.beta
    index = _state_index_map(params) if beta > 1 else None
    c = [0] * n
    cnt = 0
    for i in range(1, n + 1):
        if sum(c[max(0, i - beta):i - 1]) + 1 > params.p:
            continue
        if beta == 1:
            k = 1
        else:
            left = c[max(0, i - 1 - (beta - 2)):i - 1]
            d = (0,) * (beta - 2 - len(left)) + tuple(left) + (0,)
            k = index[d]
        cnt_try = cnt + table.value(n - i + beta - 1, k)
        if cnt_try + 1 == m:
            c[i - 1] = 1
            return tuple(c)
        if cnt_try + 1 < m:
            c[i - 1] = 1
            cnt = cnt_try
    if cnt + 1 != m:
        raise RuntimeError(f"unrank bookkeeping broke: reached rank {cnt + 1}, wanted {m}")
    return tuple(c)
