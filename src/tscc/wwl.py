"""Window-weight-limited binary vectors and their enumerative codec.

A vector satisfies the (beta, p) window-weight-limit when every window
of beta contiguous bits holds at most p ones; vectors shorter than beta
must have total weight at most p.  These are exactly the flip patterns
a single write may apply under a (1, beta, p) budget.

One transfer graph counts and indexes them: its states are the
admissible prefixes of length beta-1 as ints (cell 1 the most
significant bit), each with the successor list of states it slides into
by one bit.  Counts iterate the successor lists, the capacity is log2
of the graph's dominant eigenvalue, and rank/unrank convert between a
vector and its 1-based position in value order using O(n) count-table
lookups.  The tuple state set and the dense matrix are views of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, log2

from .core import Bits, ConvergenceError, ResourceLimitError, bits_from_int

# Entries one graph build may hold: two successor slots per state in the
# transfer graph, M * M in the dense transition-matrix view.
MAX_GRAPH_ENTRIES = 1 << 20


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


def state_count(params: WwlParams) -> int:
    """Closed form for the number of admissible prefixes."""
    return sum(comb(params.beta - 1, i) for i in range(min(params.p, params.beta - 1) + 1))


def _require_entries(params: WwlParams, entries: int, what: str):
    if entries > MAX_GRAPH_ENTRIES:
        raise ResourceLimitError(
            f"({params.beta},{params.p}) {what} needs {entries} entries, over the "
            f"limit of {MAX_GRAPH_ENTRIES}")


def _transfer_graph(params: WwlParams):
    """The admissible-prefix graph as (states, successors).

    states: every length-(beta-1) prefix of weight <= p as an int, in
    increasing order.  successors[i]: the 0-based indices of
    ((s << 1) | b) & mask, b = 1 only while s has fewer than p ones.
    For beta = 1 the empty prefix 0 gets a double self-loop.
    """
    _require_entries(params, 2 * state_count(params), "transfer graph")
    width = params.beta - 1
    mask = (1 << width) - 1
    states = sorted(sum(1 << i for i in ones)
                    for w in range(min(params.p, width) + 1)
                    for ones in combinations(range(width), w))
    index = {s: k for k, s in enumerate(states)}
    successors = [(index[(s << 1) & mask], index[((s << 1) | 1) & mask])
                  if s.bit_count() < params.p else (index[(s << 1) & mask],)
                  for s in states]
    return states, successors


def build_state_set(params: WwlParams):
    """The admissible prefixes as 0/1 tuples, in state-index (value) order.

    For beta = 1 the set is the single empty prefix.
    """
    states, _ = _transfer_graph(params)
    return tuple(bits_from_int(s, params.beta - 1) for s in states)


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
    """Dense view of the transfer graph: [i][j] counts the bits taking i to j.

    Entry [i][j] is 1 when the merged beta-window keeps weight <= p; for
    beta = 1 the double self-loop gives the 1x1 matrix [[2]].
    """
    m = state_count(params)
    _require_entries(params, m * m, "dense transition matrix")
    _, successors = _transfer_graph(params)
    a = [[0] * m for _ in range(m)]
    for i, nxt in enumerate(successors):
        for j in nxt:
            a[i][j] += 1
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
    successors = [[j for j, _ in row] for row in _adjacency(matrix)]
    m = len(matrix)
    predecessors = [[i for i in range(m) if matrix[i][j]] for j in range(m)]

    def reaches_all(nbrs):
        seen, stack = {0}, [0]
        while stack:
            new = set(nbrs[stack.pop()]) - seen
            seen |= new
            stack.extend(new)
        return len(seen) == m

    return reaches_all(successors) and reaches_all(predecessors)


@dataclass(frozen=True)
class EigenEstimate:
    """Certified bracket lower <= lambda_max <= upper after `iterations` steps."""

    lower: float
    upper: float
    iterations: int

    @property
    def width(self) -> float:
        return self.upper - self.lower


def _power_bracket(adj, tol: float, max_iter: int) -> EigenEstimate:
    """Power iteration over (column, weight) rows of an irreducible matrix."""
    v = [1.0] * len(adj)
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
    return _power_bracket(_adjacency(matrix), tol, max_iter)


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
    """Capacity bracket log2(lambda), by power iteration on the successor lists.

    The graph is irreducible: zeros lead any state to 0, and a state's
    own bits lead 0 to it.
    """
    states, successors = _transfer_graph(params)
    eigen = _power_bracket([[(j, 1) for j in nxt] for nxt in successors], tol, 10 ** 6)
    return CapacityBracket(params=params, states=len(states), eigen=eigen)


class CountTable:
    """Exact completion counts X(L, k) for the enumerative codec.

    X(L, k) is the number of admissible vectors of length L whose first
    beta-1 bits equal state k (1-based, value order).  Rows run from
    L = beta-1, where every entry is 1, up to L = n + beta - 2, the
    largest length rank() can ask for on vectors of length n.  Each row
    sums the previous one over the successor lists, in exact integers;
    `index` maps a state int to its 1-based index.  Instances are
    immutable once built.
    """

    def __init__(self, params: WwlParams, n: int):
        if n < 1:
            raise ValueError("n must be >= 1")
        self.params = params
        self.n = n
        self.min_length = params.beta - 1
        self.max_length = n + params.beta - 2
        states, successors = _transfer_graph(params)
        self.index = {s: k for k, s in enumerate(states, start=1)}
        row = [1] * len(states)
        rows = [row]
        for _ in range(self.min_length, self.max_length):
            row = [sum(row[j] for j in nxt) for nxt in successors]
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
    return CountTable(params, n - params.beta + 2).row_sum(n)


def enumerate_wwl(params: WwlParams, n: int):
    """All admissible vectors of length n in increasing value order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    beta, p = params.beta, params.p
    vectors = [()]
    for k in range(n):
        # appending a 1 is allowed when the window ending here stays within budget
        vectors = [v + (b,) for v in vectors for b in (0, 1)
                   if not b or sum(v[max(0, k - beta + 1):]) < p]
    return vectors


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
    count table in O(1) per lookup (O(n) lookups total); with `prefix`
    the beta-1 bits before j, their state is (prefix << 1) & mask.
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
    mask = (1 << (beta - 1)) - 1
    prefix = cnt = 0
    for j, bit in enumerate(c, start=1):
        if bit:
            cnt += table.value(n - j + beta - 1, table.index[(prefix << 1) & mask])
        prefix = ((prefix << 1) | bit) & mask
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
    mask = (1 << (beta - 1)) - 1
    c = [0] * n
    prefix = cnt = 0
    for i in range(1, n + 1):
        bit = 0
        if prefix.bit_count() < params.p:
            cnt_try = cnt + table.value(n - i + beta - 1, table.index[(prefix << 1) & mask])
            if cnt_try < m:
                c[i - 1] = bit = 1
                cnt = cnt_try
        prefix = ((prefix << 1) | bit) & mask
    if cnt + 1 != m:
        raise RuntimeError(f"unrank bookkeeping broke: reached rank {cnt + 1}, wanted {m}")
    return tuple(c)
