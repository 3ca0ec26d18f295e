"""Capacity bounds for the (alpha, beta, p) constraint.

Upper bounds: for a budget renewed every write (alpha = 1) or spent
per cell (beta = 1) the capacity equals the window-weight-limit
capacity of the flip patterns; two small time-space cases carry
published numeric bounds served from a reference table; p >= alpha*beta
makes the constraint vacuous with capacity exactly 1.

Lower bounds: the best of the fixed-schedule rate p/(alpha*beta), the
half-capacity of the pattern-accumulating space construction (or its
full capacity once the coset codes make every pattern addressable),
the write-once time schedules, and dilutions of the one-sided optima.

count_2d_arrays counts binary arrays whose every a-by-b window has at
most p ones: the two-dimensional relaxation whose normalized log is an
upper bound on any rate measured over the same span.  It counts walks
on the strip graph whose width-1 case is the WWL codec's transfer graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import ceil, inf, log2

from .constructions import timep_theoretical_rate
from .core import ConstraintParams, check_positive
from .wwl import WwlParams, _strip_graph, _walk_count, wwl_capacities, wwl_capacity

# published numeric upper bounds for the two smallest genuinely
# two-dimensional cases; served verbatim, never recomputed
REFERENCE_2D = {
    (2, 2, 1): 0.43431,
    (3, 3, 1): 0.25681,
}


def upper_bound(alpha: int, beta: int, p: int):
    """Capacity upper bound and its provenance tag."""
    return _upper_bound(alpha, beta, p, wwl_capacity)


def _upper_bound(alpha, beta, p, capacity):
    """upper_bound with capacity(WwlParams) -> CapacityBracket supplied."""
    if ConstraintParams(alpha, beta, p).vacuous:
        return 1.0, "vacuous-1"
    if alpha == 1:
        return capacity(WwlParams(beta, p)).upper, "wwl-alpha1"
    if beta == 1:
        return capacity(WwlParams(alpha, p)).upper, "wwl-beta1"
    if (alpha, beta, p) in REFERENCE_2D:
        return REFERENCE_2D[(alpha, beta, p)], "2d-reference"
    return 1.0, "vacuous-1"


def _best_time_rate(alpha: int, p: int):
    """Best write-once schedule rate for a per-cell budget, with its t.

    timep_theoretical_rate is quasi-concave in t (a concave log2(t+1)
    over a positive affine denominator), so climbing from t = 1 while
    the next t scores strictly higher stops at its first maximum.  For
    p >= 2 the reset needs a slot, so t <= alpha // (p - 1), and the
    reset-free epoch value log2(t*+1)/t* at t* = ceil(alpha / (p - 1))
    competes too.
    """
    rate = partial(timep_theoretical_rate, p, alpha=alpha)
    t_max = alpha // (p - 1) if p > 1 else inf
    t = 1
    while t < t_max and rate(t + 1) > rate(t):
        t += 1
    best = rate(t), t
    if p > 1:
        tstar = ceil(alpha / (p - 1))
        v = log2(tstar + 1) / tstar
        if v > best[0]:
            best = v, tstar
    return best


def lower_bound(alpha: int, beta: int, p: int, *, use_coset: bool = False):
    """Best achievable-rate lower bound: (value, provenance, t_opt).

    t_opt is the write-once epoch length behind a time-construction
    value, None otherwise.
    """
    return _lower_bound(alpha, beta, p, use_coset, wwl_capacity)


def _lower_bound(alpha, beta, p, use_coset, capacity):
    """lower_bound with capacity(WwlParams) -> CapacityBracket supplied."""
    if ConstraintParams(alpha, beta, p).vacuous:
        return 1.0, "trivial", None
    candidates = [(p / (alpha * beta), "trivial", None)]
    if alpha == 1:
        cap = capacity(WwlParams(beta, p)).lower
        candidates.append((cap / 2, "space-construction", None))
        if use_coset:
            candidates.append((cap, "coset", None))
    elif beta == 1:
        v, t = _best_time_rate(alpha, p)
        candidates.append((v, "time-construction", t))
    else:
        v_time, _, t = _lower_bound(alpha, 1, p, use_coset, capacity)
        v_space, _, _ = _lower_bound(1, beta, p, use_coset, capacity)
        candidates.append((v_time / beta, "dilution", t))
        candidates.append((v_space / alpha, "dilution", None))
    best = candidates[0]
    for cand in candidates[1:]:
        if cand[0] > best[0]:
            best = cand
    return best


@dataclass(frozen=True)
class BoundReport:
    alpha: int
    beta: int
    p: int
    lower: float
    lower_provenance: str
    upper: float
    upper_provenance: str
    t_opt: int | None = None


def bounds_report(alpha: int, beta: int, p: int, *,
                  use_coset: bool = False) -> BoundReport:
    lo, lo_prov, t_opt = lower_bound(alpha, beta, p, use_coset=use_coset)
    hi, hi_prov = upper_bound(alpha, beta, p)
    return BoundReport(alpha=alpha, beta=beta, p=p, lower=lo, lower_provenance=lo_prov,
                       upper=hi, upper_provenance=hi_prov, t_opt=t_opt)


@dataclass(frozen=True)
class Array2DCount:
    """Exact count of m-by-n binary arrays with every a-by-b window <= p ones."""

    a: int
    b: int
    p: int
    m: int
    n: int
    count: int

    @property
    def normalized(self) -> float:
        return log2(self.count) / (self.m * self.n)


def count_2d_arrays(a: int, b: int, p: int, m: int, n: int) -> Array2DCount:
    """Exact count: walks of length m-a+1 on the (a, b, p, n) strip graph.

    Arrays with no complete window, or a budget p >= a*b, all count, at
    once.  The orientation with the smaller state is chosen
    automatically (the count is transpose-invariant).  The strip graph
    build is capped at wwl.MAX_GRAPH_ENTRIES, and only the last row of
    walk counts is kept, so memory does not grow with m.
    """
    check_positive(a=a, b=b, p=p)
    if m < 1 or n < 1:
        raise ValueError("m and n must be >= 1")
    result_args = dict(a=a, b=b, p=p, m=m, n=n)
    if m < a or n < b or p >= a * b:
        return Array2DCount(count=1 << (m * n), **result_args)
    if (a - 1) * n > (b - 1) * m:
        a, b, m, n = b, a, n, m
    _, successors = _strip_graph(a, b, p, n)
    return Array2DCount(count=_walk_count(successors, m - a + 1), **result_args)


def parse_grid(text: str):
    """Parse 'alpha=4:8,beta=1,p=1:2' into ordered parameter lists."""
    ranges = {}
    for part in text.split(","):
        if "=" not in part:
            raise ValueError(f"bad grid component {part!r}, expected name=lo:hi or name=v")
        name, _, span = part.partition("=")
        name = name.strip()
        if name not in ("alpha", "beta", "p"):
            raise ValueError(f"unknown grid parameter {name!r}")
        if name in ranges:
            raise ValueError(f"grid parameter {name!r} given twice")
        lo, sep, hi = span.partition(":")
        lo = int(lo)
        hi = int(hi) if sep else lo
        if lo < 1 or hi < lo:
            raise ValueError(f"bad range for {name}: {span!r}")
        ranges[name] = list(range(lo, hi + 1))
    missing = {"alpha", "beta", "p"} - set(ranges)
    if missing:
        raise ValueError(f"grid is missing {sorted(missing)}")
    return ranges


def emit_tables(grid, *, use_coset: bool = False) -> str:
    """CSV of bounds over a parameter grid, rows in grid order.

    grid is in the textual form parse_grid() reads.  Columns:
    alpha,beta,p,t_opt,lower,upper,provenance with provenance holding
    the lower and upper tags joined by '|'.  Every capacity the rows
    request comes from one wwl_capacities call: (b, p) with p < b for
    each beta b, and each alpha b when beta = 1 is in the grid.
    """
    grid = parse_grid(grid)
    widths = set(grid["beta"]) | (set(grid["alpha"]) if 1 in grid["beta"] else set())
    wanted = [WwlParams(b, p) for b in sorted(widths) for p in grid["p"] if p < b]
    capacity = dict(zip(wanted, wwl_capacities(wanted))).__getitem__
    rows = ["alpha,beta,p,t_opt,lower,upper,provenance"]
    for alpha in grid["alpha"]:
        for beta in grid["beta"]:
            for p in grid["p"]:
                lo, lo_prov, t_opt = _lower_bound(alpha, beta, p, use_coset, capacity)
                hi, hi_prov = _upper_bound(alpha, beta, p, capacity)
                t_opt = "" if t_opt is None else str(t_opt)
                rows.append(f"{alpha},{beta},{p},{t_opt},{lo:.6g},{hi:.6g},{lo_prov}|{hi_prov}")
    return "\n".join(rows) + "\n"
