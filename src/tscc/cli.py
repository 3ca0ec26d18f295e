"""Command-line front end.

Subcommands: capacity, count, rank, unrank, verify, simulate, bounds,
table, count2d, findgood.  JSON output puts arbitrary-precision counts
in decimal strings.  Exit codes: 0 success, 2 bad parameters, 3 a
constraint-violation verdict.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

from . import bounds as bounds_mod
from . import constructions as cx
from . import cosets as cosets_mod
from . import wwl
from .core import (ConstraintParams, ConvergenceError, ResourceLimitError,
                   bits_from_int, check_constraint, check_lines, check_positive,
                   format_state, measure_rate, parse_state, simulate)

VIOLATION_EXIT = 3


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _verdict_json(verdict):
    if verdict.satisfied:
        return "satisfied"
    return {"write": verdict.write, "cell": verdict.cell, "cost": verdict.cost}


def cmd_capacity(args):
    cap = wwl.wwl_capacity(wwl.WwlParams(args.beta, args.p), tol=args.tol)
    _emit({
        "beta": args.beta,
        "p": args.p,
        "M": cap.states,
        "lambda_lower": cap.eigen.lower,
        "lambda_upper": cap.eigen.upper,
        "capacity_lower": cap.lower,
        "capacity_upper": cap.upper,
        "iterations": cap.eigen.iterations,
    })
    return 0


def cmd_count(args):
    print(wwl.count_wwl(wwl.WwlParams(args.beta, args.p), args.n))
    return 0


def cmd_rank(args):
    params = wwl.WwlParams(args.beta, args.p)
    print(wwl.rank(params, parse_state(args.vector)))
    return 0


def cmd_unrank(args):
    params = wwl.WwlParams(args.beta, args.p)
    print(format_state(wwl.unrank(params, args.n, args.m)))
    return 0


def cmd_verify(args):
    params = ConstraintParams(args.alpha, args.beta, args.p)
    with open(args.file, "rb") as fh:
        verdict, writes, cells = check_lines(fh, params)
    _emit({"alpha": args.alpha, "beta": args.beta, "p": args.p,
           "writes": writes, "cells": cells, "verdict": _verdict_json(verdict)})
    return 0 if verdict.satisfied else VIOLATION_EXIT


def _wom_from_args(args):
    choice = args.wom
    if choice == "rs":
        return cx.RsWom()
    if choice == "bitper":
        if args.t is None:
            raise ValueError("--wom bitper needs --t")
        return cx.BitPerWriteWom(args.t)
    if choice.startswith("file:"):
        with open(choice[5:]) as fh:
            return cx.parse_wom_table(fh.read())
    raise ValueError(f"unknown write-once code {choice!r}; use rs, bitper, or file:PATH")


def _build_code(args):
    name = args.construction
    if name == "trivial":
        _need(args, "alpha", "beta", "p", "n")
        return cx.TrivialCode(args.alpha, args.beta, args.p, args.n)
    if name == "space":
        _need(args, "beta", "p", "nprime")
        return cx.SpaceCode(args.beta, args.p, args.nprime)
    if name == "time":
        _need(args, "alpha")
        return cx.TimeCode(args.alpha, _wom_from_args(args))
    if name == "timep":
        _need(args, "alpha", "p")
        return cx.TimePCode(args.alpha, args.p, _wom_from_args(args))
    if name == "dilute-time":
        _need(args, "alpha", "beta", "p", "nprime")
        return cx.DilutedTimeCode(cx.SpaceCode(args.beta, args.p, args.nprime), args.alpha)
    if name == "dilute-space":
        _need(args, "alpha", "beta")
        wom = _wom_from_args(args)
        if args.p in (None, 1):
            inner = cx.TimeCode(args.alpha, wom)
        else:
            inner = cx.TimePCode(args.alpha, args.p, wom)
        return cx.DilutedSpaceCode(inner, args.beta)
    if name == "coset":
        _need(args, "beta", "p", "n")
        _, code = cosets_mod.find_good_code(args.n, wwl.WwlParams(args.beta, args.p))
        return code
    raise ValueError(f"unknown construction {name!r}")


def _need(args, *names):
    missing = [n for n in names if getattr(args, n.replace("-", "_"), None) is None]
    if missing:
        raise ValueError(f"construction {args.construction!r} needs "
                         + ", ".join("--" + n for n in missing))


def cmd_simulate(args):
    check_positive(writes=args.writes)
    code = _build_code(args)
    writes = args.writes
    if writes % code.period:
        writes += code.period - writes % code.period
    result = simulate(code, writes, args.seed)
    if not result.round_trip_ok:
        raise RuntimeError("decode mismatch in simulation")
    verdict = check_constraint(result.trace, code.params)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("\n".join(result.trace.to_lines()) + "\n")
    report = measure_rate(code, writes)
    _emit({
        "construction": args.construction,
        "alpha": code.params.alpha,
        "beta": code.params.beta,
        "p": code.params.p,
        "cells": code.n_cells,
        "period": code.period,
        "writes": writes,
        "seed": args.seed,
        "verdict": _verdict_json(verdict),
        "achieved_rate": report.rate,
        "theoretical_rate": code.theoretical_rate,
    })
    return 0 if verdict.satisfied else VIOLATION_EXIT


def cmd_bounds(args):
    _emit(dataclasses.asdict(
        bounds_mod.bounds_report(args.alpha, args.beta, args.p, use_coset=args.coset)))
    return 0


def cmd_table(args):
    csv = bounds_mod.emit_tables(args.grid, use_coset=args.coset)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(csv)
    else:
        sys.stdout.write(csv)
    return 0


def cmd_count2d(args):
    r = bounds_mod.count_2d_arrays(args.a, args.b, args.p, args.m, args.n)
    _emit({"a": r.a, "b": r.b, "p": r.p, "m": r.m, "n": r.n,
           "count": str(r.count), "normalized": r.normalized})
    return 0


def cmd_findgood(args):
    search, code = cosets_mod.find_good_code(args.n, wwl.WwlParams(args.beta, args.p))
    _emit({
        "n": args.n, "beta": args.beta, "p": args.p,
        "j": len(search.basis),
        "basis": [format_state(bits_from_int(z, args.n)) for z in search.basis],
        "rate": code.theoretical_rate,
        "steps": [{"z": format_state(bits_from_int(s.z, args.n)),
                   "N_B": s.covered, "Q_B": s.q}
                  for s in search.steps],
        "mode": "exhaustive",
    })
    return 0


def build_parser():
    ap = argparse.ArgumentParser(
        prog="tscc",
        description="Time-space constrained rewriting codes: capacities, "
                    "enumerative codecs, constructions, and bounds.")
    sub = ap.add_subparsers(dest="command", required=True)

    q = sub.add_parser("capacity", help="capacity of a window-weight limit")
    q.add_argument("kind", choices=["wwl"])
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--tol", type=float, default=1e-9)
    q.set_defaults(func=cmd_capacity)

    q = sub.add_parser("count", help="number of admissible vectors of length n")
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_count)

    q = sub.add_parser("rank", help="position of a vector in value order")
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--vector", required=True)
    q.set_defaults(func=cmd_rank)

    q = sub.add_parser("unrank", help="vector at a given position in value order")
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.set_defaults(func=cmd_unrank)

    q = sub.add_parser("verify", help="check a write-sequence file against a budget")
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--file", required=True)
    q.set_defaults(func=cmd_verify)

    q = sub.add_parser("simulate", help="drive a construction with random messages")
    q.add_argument("--construction", required=True,
                   choices=["trivial", "space", "time", "timep",
                            "dilute-time", "dilute-space", "coset"])
    q.add_argument("--alpha", type=int)
    q.add_argument("--beta", type=int)
    q.add_argument("--p", type=int)
    q.add_argument("--n", type=int)
    q.add_argument("--nprime", type=int)
    q.add_argument("--t", type=int)
    q.add_argument("--wom", default="rs", help="rs, bitper (needs --t), or file:PATH")
    q.add_argument("--writes", type=int, default=1000,
                   help="rounded up to a whole number of periods")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--trace", help="write the state sequence to this file")
    q.set_defaults(func=cmd_simulate)

    q = sub.add_parser("bounds", help="capacity bounds for one parameter point")
    q.add_argument("--alpha", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--coset", action="store_true",
                   help="allow syndrome-code rates in the lower bound")
    q.set_defaults(func=cmd_bounds)

    q = sub.add_parser("table", help="CSV of bounds over a parameter grid")
    q.add_argument("--grid", required=True, help="e.g. alpha=4:8,beta=1,p=1")
    q.add_argument("--out", help="output file (stdout when omitted)")
    q.add_argument("--coset", action="store_true")
    q.set_defaults(func=cmd_table)

    q = sub.add_parser("count2d", help="count arrays with bounded window weight")
    q.add_argument("--a", type=int, required=True)
    q.add_argument("--b", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.add_argument("--m", type=int, required=True)
    q.add_argument("--n", type=int, required=True)
    q.set_defaults(func=cmd_count2d)

    q = sub.add_parser("findgood", help="greedy search for a syndrome rewriting code")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--beta", type=int, required=True)
    q.add_argument("--p", type=int, required=True)
    q.set_defaults(func=cmd_findgood)

    return ap


# built on first use, once per process: parsing leaves no state in it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    if hasattr(sys, "set_int_max_str_digits"):  # 3.10.7+ cap printing at 4,300 digits
        sys.set_int_max_str_digits(0)
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ResourceLimitError, ConvergenceError, OSError) as exc:
        print(f"tscc: error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
