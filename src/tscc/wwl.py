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
lookups.  The tuple state set and the dense matrix are views of it, and
it is the width-1 case of the strip graph that counts 2D arrays.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from math import comb, log2

import numpy as np

from .core import (Bits, ConvergenceError, ResourceLimitError, bits_from_int,
                   check_state)

# Entries one graph build may hold: two successor slots per state in the
# transfer graph, M * M in the dense view, a strip graph's row-weight
# table and each of its state-by-row scans.
MAX_GRAPH_ENTRIES = 1 << 20
# Entries of each per-chunk buffer of the batched power iteration.
_CHUNK_ENTRIES = 1 << 16


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


def _require_entries(entries: int, what: str):
    if entries > MAX_GRAPH_ENTRIES:
        raise ResourceLimitError(
            f"{what} needs {entries} entries, over the limit of {MAX_GRAPH_ENTRIES}")


def _strip_rows(a: int, b: int, p: int, w: int):
    """Rows of width w whose every b-wide window holds <= p ones.

    Returns (rows, guard, bias), rows as (row, packed window weights)
    in row order.  A field holds any sum of a rows' weights without
    carry; adding bias sets its top bit, in guard, exactly when the sum
    exceeds p.
    """
    field = (a * b).bit_length() + 1
    spans = range(w - b + 1)
    ones = sum(1 << (field * j) for j in spans)
    guard = ones << (field - 1)
    bias = ((1 << (field - 1)) - 1 - p) * ones
    window = (1 << b) - 1
    rows = []
    for r in range(1 << w):
        packed = sum(((r >> j) & window).bit_count() << (field * j) for j in spans)
        if not (packed + bias) & guard:
            rows.append((r, packed))
    return rows, guard, bias


def _strip_graph(a: int, b: int, p: int, w: int):
    """The window-constrained strip graph as (states, successors).

    A state is the last a-1 rows of a width-w strip as one int, oldest
    row high, kept when its every (a-1)-by-b window holds <= p ones (in
    an array of >= a rows each such block lies in a full window).
    States come in increasing order; successors[i], in increasing
    new-row order, reach the states whose appended row keeps every
    a-by-b window of the band <= p.  The row-weight table and each
    state-by-row scan are checked against MAX_GRAPH_ENTRIES first.
    """
    what = f"({a},{b},{p}) strip graph of width {w}"
    _require_entries((1 << w) * (w - b + 1), f"{what}: row-weight table")
    rows, guard, bias = _strip_rows(a, b, p, w)
    scan = f"{what}: state-by-row scan"
    # (state, packed window sums of its rows + bias), grown one row at a time
    level = [(0, bias)]
    for _ in range(a - 1):
        _require_entries(len(level) * len(rows), scan)
        level = [((s << w) | r, t + u) for s, t in level for r, u in rows
                 if not (t + u) & guard]
    _require_entries(len(level) * len(rows), scan)
    index = {s: k for k, (s, _) in enumerate(level)}
    mask = (1 << (w * (a - 1))) - 1
    successors = [tuple([index[((s << w) | r) & mask] for r, u in rows if not (t + u) & guard])
                  for s, t in level]
    return list(index), successors


def _transfer_graph(params: WwlParams):
    """The admissible-prefix graph, the (beta, 1, p, 1) strip graph.

    States are the (beta-1)-bit prefixes of weight <= p; successors[i]
    go to ((s << 1) | b) & mask, b = 1 only while s has fewer than p
    ones.  For beta = 1 the empty prefix 0 gets a double self-loop.
    """
    _require_entries(2 * state_count(params),
                     f"({params.beta},{params.p}) transfer graph")
    return _strip_graph(params.beta, 1, params.p, 1)


def _walk_rows(successors, steps: int):
    """Yield row k = 0..steps: the exact number of k-step walks from each state."""
    row = [1] * len(successors)
    yield row
    for _ in range(steps):
        row = [sum([row[j] for j in nxt]) for nxt in successors]
        yield row


def _walk_count(successors, steps: int) -> int:
    """Exact number of walks of `steps` steps, keeping one row of counts at a time."""
    return sum(deque(_walk_rows(successors, steps), maxlen=1).pop())


def build_state_set(params: WwlParams):
    """The admissible prefixes as 0/1 tuples, in state-index (value) order.

    For beta = 1 the set is the single empty prefix.
    """
    states, _ = _transfer_graph(params)
    return tuple(bits_from_int(s, params.beta - 1) for s in states)


def build_transition_matrix(params: WwlParams):
    """Dense view of the transfer graph: [i][j] counts the bits taking i to j.

    Entry [i][j] is 1 when state i slides into state j by one bit and
    the beta-window spanning both keeps weight <= p; for
    beta = 1 the double self-loop gives the 1x1 matrix [[2]].
    """
    m = state_count(params)
    _require_entries(m * m, f"({params.beta},{params.p}) dense transition matrix")
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
    if any(v < 0 for row in matrix for v in row):
        raise ValueError("matrix entries must be nonnegative")
    return [[(j, v) for j, v in enumerate(row) if v] for row in matrix]


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


def _table(adj):
    """Row k of (index, weight) holds entry k of every row of a matrix;
    short rows are padded with weight-0 references to slot len(adj)."""
    depth = max(1, max(map(len, adj)))
    pad = [(len(adj), 0)] * depth
    flat = chain.from_iterable(chain.from_iterable(row + pad[len(row):] for row in adj))
    table = np.fromiter(flat, np.float64).reshape(len(adj), depth, 2)
    return table[:, :, 0].T.astype(np.intp), np.ascontiguousarray(table[:, :, 1].T)


def _power_brackets(adjs, tol: float, max_iter: int) -> list[EigenEstimate]:
    """Power iteration over (column, weight) rows of irreducible matrices, in batches.

    Each matrix gets exactly the floats it would get alone: a step is one
    gather per column position, added left to right (the IEEE operations,
    in order, of summing each row in Python), and its ratios, bracket and
    max-scale are reduced over its own states.  A batch takes matrices
    until it holds _CHUNK_ENTRIES / 16 states, so it runs chunks of
    K <= 16 steps (K * states <= _CHUNK_ENTRIES), and a matrix leaves it
    at the chunk where it converges.  Brent's cycle test compares each
    iterate with one saved at doubling distances: an exact repeat means no
    later bracket can narrow, so ConvergenceError comes at once, with the
    bracket max_iter would end on.
    """
    if not (tol > 0 and max_iter >= 1):
        raise ValueError(f"power iteration needs tol > 0 and max_iter >= 1, "
                         f"got tol={tol!r}, max_iter={max_iter!r}")
    results, tables = [], []
    for table in map(_table, adjs):  # no row list outlives its table
        tables.append(table)
        if sum(index.shape[1] for index, _ in tables) >= _CHUNK_ENTRIES >> 4:
            results += _batch_brackets(tables, tol, max_iter)
            tables = []
    return results + _batch_brackets(tables, tol, max_iter)


@np.errstate(divide="ignore", invalid="ignore")  # steps after a stop are discarded
def _steps(rows, terms, starts, owner):
    """Power steps from row to row of (v with its zero slot, next v,
    ratios, max-scale per matrix): one gather per column position.  Its
    own function, so no loop variable keeps a dropped batch alive."""
    (w0, i0), *rest = terms
    for vk, new, ratio, scale in rows:
        w = w0 * vk[i0]
        for wd, idx in rest:
            w += wd * vk[idx]
        np.divide(w, vk[:-1], out=ratio)
        np.maximum.reduceat(w, starts, out=scale)
        np.divide(w, scale[owner], out=new)


def _batch_brackets(tables, tol, max_iter):
    """_power_brackets on one batch of tables, laid end to end with the
    padding pointing at slot -1, a zero after the states."""
    sizes = [index.shape[1] for index, _ in tables]
    owner = np.repeat(np.arange(len(sizes)), sizes)
    index = np.full((max((len(i) for i, _ in tables), default=1), owner.size), -1, dtype=np.intp)
    weight = np.zeros(index.shape)
    for (idx, wt), start, size in zip(tables, np.cumsum([0] + sizes), sizes):
        index[:len(idx), start:start + size] = np.where(idx == size, -1, idx + start)
        weight[:len(wt), start:start + size] = wt
    results, live = [None] * len(sizes), list(range(len(sizes)))
    v = saved = np.ones(owner.size)
    lo, hi = np.zeros(len(live)), np.full(len(live), np.inf)
    done = saved_at = 0
    stopped = np.ones(1, dtype=bool)
    while live:
        if stopped.any():  # buffers for the batch as it now stands
            total = owner.size
            starts = np.searchsorted(owner, np.arange(len(live)))
            vs = np.zeros((min(16, max(1, _CHUNK_ENTRIES // total)) + 1, total + 1))
            vs[0, :total] = v
            ratios = np.empty((len(vs) - 1, total))
            scales = np.empty((len(vs) - 1, len(live)))
            terms = list(zip(weight, index))
            rows = list(zip(vs, vs[1:, :total], ratios, scales))
        chunk = min(len(ratios), max_iter - done)
        _steps(rows[:chunk], terms, starts, owner)
        lows = np.fmax(np.fmax.accumulate(np.minimum.reduceat(ratios[:chunk], starts, axis=1)), lo)
        highs = np.fmin(np.fmin.accumulate(np.maximum.reduceat(ratios[:chunk], starts, axis=1)), hi)
        repeats = np.logical_and.reduceat(vs[1:chunk + 1, :total] == saved, starts, axis=1)
        zero = scales[:chunk] <= 0
        stopped = (highs[-1] - lows[-1] <= tol) | zero.any(axis=0) | repeats.any(axis=0)
        done += chunk
        for j in np.flatnonzero(stopped | (done == max_iter)):
            # the bracket only narrows, so it first met tol at step c of the chunk
            c = chunk - int(np.count_nonzero(highs[:, j] - lows[:, j] <= tol))
            if zero[:c, j].any():
                raise ValueError("matrix has a zero row reachable from all states")
            if c == chunk:
                cause = ("for good: the iterates repeat" if repeats[:, j].any()
                         else f"after {max_iter} iterations")
                raise ConvergenceError(
                    f"eigenvalue bracket still {highs[-1, j] - lows[-1, j]:g} wide {cause}",
                    estimate=EigenEstimate(float(lows[-1, j]), float(highs[-1, j]), max_iter))
            results[live[j]] = EigenEstimate(float(lows[c, j]), float(highs[c, j]),
                                             done - chunk + c + 1)
        lo, hi, v = lows[-1], highs[-1], vs[chunk, :total]
        if stopped.any():  # the stopped matrices leave, and the states are renumbered
            keep = ~stopped
            states = keep[owner]
            lo, hi, v, saved = lo[keep], hi[keep], v[states], saved[states]
            del vs, ratios, rows, terms  # free the old buffers first
            renumber = np.append(np.cumsum(states) - 1, -1)
            index, weight = renumber[index[:, states]], weight[:, states]
            owner = (np.cumsum(keep) - 1)[owner[states]]
            live = [g for g, kept in zip(live, keep) if kept]
        else:
            vs[0] = vs[chunk]
        if done >= 2 * saved_at:
            saved, saved_at = v.copy(), done
    return results


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
    return _power_brackets([_adjacency(matrix)], tol, max_iter)[0]


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


def wwl_capacities(params_list, tol: float = 1e-9) -> list[CapacityBracket]:
    """Capacity brackets log2(lambda), by batched power iteration on the
    successor lists.  Each graph is irreducible: zeros lead any state
    to 0, and a state's own bits lead 0 to it."""
    params_list = list(params_list)
    eigens = _power_brackets(([[(j, 1) for j in nxt] for nxt in _transfer_graph(params)[1]]
                              for params in params_list), tol, 10 ** 6)
    return [CapacityBracket(params, state_count(params), eigen)
            for params, eigen in zip(params_list, eigens)]


def wwl_capacity(params: WwlParams, tol: float = 1e-9) -> CapacityBracket:
    """Capacity bracket of one window limit, a batch of one."""
    return wwl_capacities([params], tol)[0]


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
        self._rows = list(_walk_rows(successors, self.max_length - self.min_length))

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
    """Number of admissible vectors of length n, as an exact integer.

    Counted as transfer-graph walks in memory that does not grow with n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if n < params.beta - 1:
        return sum(comb(n, i) for i in range(min(params.p, n) + 1))
    return _walk_count(_transfer_graph(params)[1], n - params.beta + 1)


def wwl_values(params: WwlParams, n: int) -> np.ndarray:
    """The admissible vectors of length n as sorted int64 values (cell 1 the MSB).

    Grown one bit at a time: appending 0 or 1 to sorted values keeps them
    sorted, and a value stays when the window ending at the new bit (its
    last beta bits) holds at most p ones.
    """
    if not 1 <= n <= 63:
        raise ValueError(f"n must be in [1:63] for int64 values, got {n}")
    window = (1 << min(params.beta, n)) - 1
    values = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        values = ((values << 1)[:, None] | np.arange(2)).ravel()
        values = values[np.bitwise_count(values & window) <= params.p]
    return values


def enumerate_wwl(params: WwlParams, n: int):
    """All admissible vectors of length n in increasing value order."""
    bits = (wwl_values(params, n)[:, None] >> np.arange(n - 1, -1, -1)) & 1
    return list(map(tuple, bits.tolist()))


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
    check_state(c, n)
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
