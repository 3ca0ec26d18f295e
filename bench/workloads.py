"""The three benchmark workloads: codec, verify and analysis.

Each workload class has the same life cycle, driven by run.py:

    w = Workload(seed, out_dir)   # set-up: build what the program needs
    w.make_inputs()               # the benchmark's own inputs, untimed
    w.measure(seconds, probe)     # whole rounds until `seconds` have passed
    w.op_seconds()                # operation times in reference seconds
    w.check()                     # compare outputs with bench/reference.py

attempted and failed count the program operations of all rounds.  The
metrics, the same for every workload, are made from op_seconds() and the
spans in run.py.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import statistics
import sys
from random import Random
from time import perf_counter

import numpy as np

import reference
import tscc
from tscc import cli
from timing import Probed


def _run_cli(argv):
    """tscc.cli.main in-process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


class Codec:
    """Encode and decode seeded random messages write by write, as run_trace does.

    One round is one write on every code.  Rounds are timed in blocks of
    about BLOCK_S seconds, each block between two probes.  The states
    each code writes are checked against its budget every CHECK_ROWS
    writes, between blocks, so the benchmark's own record of them stays
    small beside the program's memory.
    """

    name = "codec"
    BLOCK_S = 0.05
    CHECK_ROWS = 512
    SPACE = ((3, 1, 32), (6, 3, 48), (8, 4, 64), (10, 5, 40))

    def __init__(self, seed: int, out_dir):
        codes = [(f"space-{b}-{p}-{n}", tscc.SpaceCode(b, p, n)) for b, p, n in self.SPACE]
        codes.append(("dilute-time-5-2-40-a3",
                      tscc.DilutedTimeCode(tscc.SpaceCode(5, 2, 40), 3)))
        _, coset = tscc.find_good_code(18, tscc.WwlParams(4, 2))
        codes.append(("coset-18-4-2", coset))
        codes.append(("time-a3-rs", tscc.TimeCode(3, tscc.RsWom())))
        codes.append(("timep-a6-p2-bitper3", tscc.timep_code(6, 2, tscc.BitPerWriteWom(3))))
        self.codes = codes
        self.seed = seed

    def make_inputs(self):
        self.rng = Random(self.seed)
        self.states = [(0,) * code.n_cells for _, code in self.codes]
        self.index = [0] * len(self.codes)
        self.traces = [bytearray(s) for s in self.states]
        self.checked = [0] * len(self.codes)
        self.problems = []
        self.mismatches = 0
        self.attempted = self.failed = 0

    def _round(self, times):
        rng = self.rng
        for k, (_, code) in enumerate(self.codes):
            i = self.index[k] + 1
            m = rng.randrange(code.message_count(i)) + 1
            state = self.states[k]
            self.attempted += 1
            try:
                t0 = perf_counter()
                new = code.encode(i, m, state)
                got = code.decode(i, new)
                t1 = perf_counter()
            except Exception as exc:  # counted as failed; the round goes on
                self.failed += 1
                if self.failed <= 10:
                    print(f"bench: {self.codes[k][0]} write {i}: {exc!r}", file=sys.stderr)
                continue
            times.append(t1 - t0)
            if got != m:
                self.mismatches += 1
            self.states[k] = new
            self.index[k] = i
            self.traces[k] += bytes(new)

    def measure(self, seconds: float, probe):
        self.samples = Probed(probe)
        self.times = []
        self.block_of = []
        deadline = perf_counter() + seconds
        while True:
            first = len(self.times)
            start = perf_counter()
            while True:
                self._round(self.times)
                if perf_counter() - start >= self.BLOCK_S:
                    break
            block = len(self.samples.keys)
            self.block_of.extend([block] * (len(self.times) - first))
            self.samples.add(len(self.times) - first, math.fsum(self.times[first:]))
            self._check_traces(self.CHECK_ROWS)
            if perf_counter() >= deadline:
                break

    def _check_traces(self, min_rows: int):
        """Check each recorded trace of at least min_rows states, then keep
        only its last alpha states, which windows still to come overlap."""
        for k, (name, code) in enumerate(self.codes):
            n, p = code.n_cells, code.params
            rows = len(self.traces[k]) // n
            if rows < max(min_rows, 2):
                continue
            states = np.frombuffer(bytes(self.traces[k]), dtype=np.uint8).reshape(rows, n)
            bad = reference.first_violation(states, p.alpha, p.beta, p.p)
            if bad is not None:
                write, cell, cost = bad
                self.problems.append(f"{name}: writes break ({p.alpha},{p.beta},{p.p}) "
                                     f"at write {self.checked[k] + write}, cell {cell}, "
                                     f"cost {cost}")
            keep = min(rows, p.alpha)
            self.checked[k] += rows - keep
            self.traces[k] = self.traces[k][-keep * n:]

    def op_seconds(self):
        """Every timed write's encode+decode, in reference seconds."""
        return [t * self.samples.scale(b) for t, b in zip(self.times, self.block_of)]

    def raw(self):
        return {"blocks": self.samples.raw(), "write_seconds": self.times,
                "block_of": self.block_of}

    def check(self):
        self._check_traces(0)
        problems = list(self.problems)
        if self.mismatches:
            problems.append(f"{self.mismatches} writes decoded to another message")
        rng = Random(self.seed + 1)
        for (name, code), (beta, p, n) in zip(self.codes, self.SPACE):
            want = reference.wwl_count(beta, p, n)
            if code.message_count(1) != want:
                problems.append(f"{name}: {code.message_count(1)} messages, reference {want}")
            sample = sorted({1, want, *(rng.randrange(want) + 1 for _ in range(40))})
            table = tscc.CountTable(code.wwl, n)
            vectors = [tscc.unrank(code.wwl, n, m, table) for m in sample]
            values = [int("".join(map(str, v)), 2) for v in vectors]
            if any(a >= b for a, b in zip(values, values[1:])):
                problems.append(f"{name}: unrank is not increasing in value")
            back = [tscc.rank(code.wwl, v, table) for v in vectors]
            if back != sample:
                problems.append(f"{name}: rank(unrank(m)) != m")
        return problems


class Verify:
    """`tscc verify` on seeded write-sequence files of 1000 cells x 2000 writes.

    The satisfied files are scanned in full; each violation file has its
    first violation planted in its first alpha writes, so a checker can
    stop early.  One round verifies every file once.
    """

    name = "verify"
    ALPHA, BETA, P = 4, 8, 3
    CELLS, WRITES = 1000, 2000
    SATISFIED, VIOLATING = 2, 2

    def __init__(self, seed: int, out_dir):
        self.seed = seed
        self.dir = out_dir / "verify-inputs"

    def _flips(self, rng):
        """Flips obeying the budget: each beta-block of cells is open on one
        write in alpha and flips at most p // 2 of its cells there, so any
        window, which meets at most two blocks, sees at most p flips."""
        blocks = self.CELLS // self.BETA
        flips = np.zeros((self.WRITES, blocks, self.BETA), dtype=np.uint8)
        owner = np.arange(blocks) % self.ALPHA
        for w in range(self.WRITES):
            open_blocks = np.flatnonzero(owner == w % self.ALPHA)
            for _ in range(self.P // 2):
                hit = open_blocks[rng.random(open_blocks.size) < 0.7]
                flips[w, hit, rng.integers(0, self.BETA, hit.size)] = 1
        return flips.reshape(self.WRITES, blocks * self.BETA)

    def make_inputs(self):
        rng = np.random.default_rng(self.seed)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.files = []
        for k in range(self.SATISFIED + self.VIOLATING):
            flips = self._flips(rng)
            if k >= self.SATISFIED:
                write = int(rng.integers(0, self.ALPHA))
                cell = int(rng.integers(0, self.CELLS - self.BETA + 1))
                flips[write, cell:cell + self.BETA] = 1
            states = np.zeros((self.WRITES + 1, self.CELLS), dtype=np.uint8)
            np.bitwise_xor.accumulate(flips, axis=0, out=states[1:])
            path = self.dir / (f"sat-{k}.txt" if k < self.SATISFIED else f"viol-{k}.txt")
            text = np.full((states.shape[0], self.CELLS + 1), ord("\n"), dtype=np.uint8)
            text[:, :-1] = states + ord("0")
            path.write_bytes(text.tobytes())
            want = reference.first_violation(states, self.ALPHA, self.BETA, self.P)
            self.files.append((path, k < self.SATISFIED, want))
        self.outputs = {}
        self.attempted = self.failed = 0

    def measure(self, seconds: float, probe):
        self.samples = Probed(probe)
        deadline = perf_counter() + seconds
        while True:
            for k, (path, _, _) in enumerate(self.files):
                argv = ["verify", "--alpha", self.ALPHA, "--beta", self.BETA,
                        "--p", self.P, "--file", path]
                self.attempted += 1
                t0 = perf_counter()
                code, out = _run_cli(argv)
                self.samples.add(k, perf_counter() - t0)
                if code not in (0, 3):
                    self.failed += 1
                self.outputs.setdefault(k, set()).add((code, out))
            if perf_counter() >= deadline:
                break

    def op_seconds(self):
        """One round: each file's `tscc verify` at the median of the repeats
        on all files of its kind, satisfied or violating, which are alike."""
        by_kind = {}
        for i, k in enumerate(self.samples.keys):
            by_kind.setdefault(self.files[k][1], []).append(self.samples.scaled(i))
        return [statistics.median(by_kind[satisfied]) for _, satisfied, _ in self.files]

    def raw(self):
        return self.samples.raw()

    def check(self):
        problems = []
        for k, (path, satisfied, want) in enumerate(self.files):
            seen = self.outputs.get(k, set())
            if len(seen) != 1:
                problems.append(f"{path.name}: {len(seen)} distinct outputs over the rounds")
                continue
            code, out = next(iter(seen))
            if code not in (0, 3):
                problems.append(f"{path.name}: exit {code}")
                continue
            got = json.loads(out)
            if satisfied != (want is None):
                problems.append(f"{path.name}: generator and reference disagree")
            expect_verdict = "satisfied" if want is None else dict(
                zip(("write", "cell", "cost"), want))
            expect_code = 0 if want is None else 3
            if (code, got.get("verdict")) != (expect_code, expect_verdict):
                problems.append(f"{path.name}: tscc says {code} {got.get('verdict')}, "
                                f"reference {expect_code} {expect_verdict}")
            if (got.get("cells"), got.get("writes")) != (self.CELLS, self.WRITES):
                problems.append(f"{path.name}: wrong shape {got.get('cells')}x{got.get('writes')}")
        return problems


class Analysis:
    """The offline commands through tscc.cli.main: capacity, table, count2d, findgood.

    One round runs every call of the four fixed lists once, in a fixed
    order; the inputs do not depend on the seed, so neither does the
    memory high-water mark.
    """

    name = "analysis"
    CAPACITY = ((8, 4), (10, 5), (12, 4), (14, 3))
    GRID_MAX = (6, 8, 3)  # the table grid is alpha=1:6, beta=1:8, p=1:3
    COUNT2D = ((2, 2, 1, 8, 8), (3, 3, 1, 6, 6), (2, 2, 2, 7, 7), (2, 3, 2, 7, 7))
    FINDGOOD = ((16, 3, 1), (17, 4, 2), (18, 4, 2))
    TOL = 1e-9

    def __init__(self, seed: int, out_dir):
        pass

    def make_inputs(self):
        grid = ",".join(f"{k}=1:{v}" for k, v in zip(("alpha", "beta", "p"), self.GRID_MAX))
        self.grid_points = list(itertools.product(*(range(1, v + 1) for v in self.GRID_MAX)))
        calls = {
            "capacity": [("capacity", "wwl", "--beta", b, "--p", p) for b, p in self.CAPACITY],
            "table": [("table", "--grid", grid)],
            "count2d": [("count2d", "--a", a, "--b", b, "--p", p, "--m", m, "--n", n)
                        for a, b, p, m, n in self.COUNT2D],
            "findgood": [("findgood", "--n", n, "--beta", b, "--p", p)
                         for n, b, p in self.FINDGOOD],
        }
        self.calls = calls
        self.outputs = {}
        self.attempted = self.failed = 0

    def measure(self, seconds: float, probe):
        self.samples = Probed(probe)
        deadline = perf_counter() + seconds
        while True:
            for section, argvs in self.calls.items():
                for argv in argvs:
                    self.attempted += 1
                    t0 = perf_counter()
                    code, out = _run_cli(argv)
                    self.samples.add((section, argv), perf_counter() - t0)
                    if code != 0:
                        self.failed += 1
                    self.outputs.setdefault(argv, set()).add((code, out))
            if perf_counter() >= deadline:
                break

    def op_seconds(self):
        """One round: each call at the median of its repeats."""
        return list(self.samples.median_by_key().values())

    def raw(self):
        raw = self.samples.raw()
        raw["keys"] = [[section, list(map(str, argv))] for section, argv in raw["keys"]]
        return raw

    def check(self):
        problems = []
        for argv, seen in self.outputs.items():
            if len(seen) != 1:
                problems.append(f"{' '.join(map(str, argv))}: {len(seen)} distinct outputs")
                continue
            code, out = next(iter(seen))
            if code != 0:
                problems.append(f"{' '.join(map(str, argv))}: exit {code}")
                continue
            kind = argv[0]
            if kind == "capacity":
                problems += self._check_capacity(argv, json.loads(out))
            elif kind == "table":
                problems += self._check_table(out)
            elif kind == "count2d":
                got = json.loads(out)
                want = reference.count_2d(*argv[2::2])
                if int(got["count"]) != want:
                    problems.append(f"count2d {argv[2::2]}: {got['count']} != {want}")
            else:
                problems += self._check_findgood(argv, json.loads(out))
        return problems

    def _check_capacity(self, argv, got):
        beta, p = argv[3], argv[5]
        lo, hi = reference.wwl_perron(beta, p)
        cap = math.log2((lo + hi) / 2)
        slack = 1e-12
        problems = []
        if not got["capacity_lower"] - slack <= cap <= got["capacity_upper"] + slack:
            problems.append(f"capacity ({beta},{p}): log2 lambda {cap!r} outside "
                            f"[{got['capacity_lower']!r}, {got['capacity_upper']!r}]")
        if got["lambda_upper"] - got["lambda_lower"] > self.TOL:
            problems.append(f"capacity ({beta},{p}): bracket wider than {self.TOL}")
        return problems

    def _check_table(self, out):
        lines = out.strip().splitlines()
        rows = [ln.split(",") for ln in lines[1:]]
        problems = []
        if [tuple(map(int, r[:3])) for r in rows] != self.grid_points:
            problems.append("table: rows are not the grid in order")
        eps = 1e-6  # the CSV prints 6 significant digits
        for r in rows:
            alpha, beta, p = map(int, r[:3])
            lower, upper = float(r[4]), float(r[5])
            floor = min(1.0, p / (alpha * beta))
            if not floor - eps <= lower <= upper + eps <= 1 + 2 * eps:
                problems.append(f"table row {r[:3]}: {floor} <= {lower} <= {upper} <= 1 fails")
        return problems

    def _check_findgood(self, argv, got):
        n, beta, p = argv[2], argv[4], argv[6]
        s_values = reference.wwl_values(n, beta, p)
        basis = [int(z, 2) for z in got["basis"]]
        problems = []
        if reference.uncovered(basis, s_values, n) != 0:
            problems.append(f"findgood {n},{beta},{p}: basis is not S-good")
        bound = math.ceil(n - math.log2(s_values.size) + math.log2(n))
        if len(basis) > bound:
            problems.append(f"findgood {n},{beta},{p}: {len(basis)} steps > bound {bound}")
        size = 1 << n
        missed = size - s_values.size
        for step in got["steps"]:
            now = size - step["N_B"]
            if now * size > missed * missed:
                problems.append(f"findgood {n},{beta},{p}: Q_B did not square away")
            missed = now
        return problems


WORKLOADS = {w.name: w for w in (Codec, Verify, Analysis)}
