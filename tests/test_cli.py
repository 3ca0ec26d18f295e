import hashlib
import json
import re
import shlex
import subprocess
import sys
import time
from pathlib import Path

import pytest

from tscc import core
from tscc.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_rank_golden(capsys):
    code, out, _ = run_cli(capsys, "rank", "--beta", "6", "--p", "3",
                           "--vector", "1011001001")
    assert code == 0 and out.strip() == "353"


def test_count_golden(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "6", "--p", "3", "--n", "10")
    assert code == 0 and out.strip() == "421"


def test_unrank_golden(capsys):
    code, out, _ = run_cli(capsys, "unrank", "--beta", "6", "--p", "3",
                           "--n", "10", "--m", "353")
    assert code == 0 and out.strip() == "1011001001"


def test_rank_unrank_cli_matches_library(capsys):
    from tscc.wwl import WwlParams, count_wwl, rank, unrank
    params = WwlParams(4, 2)
    for m in (1, 5, 20, count_wwl(params, 9)):
        _, out, _ = run_cli(capsys, "unrank", "--beta", "4", "--p", "2",
                            "--n", "9", "--m", str(m))
        vec = out.strip()
        assert vec == "".join(map(str, unrank(params, 9, m)))
        _, out, _ = run_cli(capsys, "rank", "--beta", "4", "--p", "2",
                            "--vector", vec)
        assert int(out.strip()) == m


def test_capacity_schema(capsys):
    got = run_json(capsys, "capacity", "wwl", "--beta", "2", "--p", "1")
    assert set(got) == {"beta", "p", "M", "lambda_lower", "lambda_upper",
                        "capacity_lower", "capacity_upper", "iterations"}
    assert got["M"] == 2
    phi = (1 + 5 ** 0.5) / 2
    assert got["lambda_lower"] <= phi <= got["lambda_upper"]


# `tscc capacity wwl` output recorded before the transfer graph moved from a
# dense matrix to successor lists; the floats must not move by one ulp.
CAPACITY_GOLDEN = {
    (1, 1): '{"M": 1, "beta": 1, "capacity_lower": 1.0, "capacity_upper": 1.0, '
            '"iterations": 1, "lambda_lower": 2.0, "lambda_upper": 2.0, "p": 1}',
    (2, 1): '{"M": 2, "beta": 2, "capacity_lower": 0.6942419131450601, '
            '"capacity_upper": 0.6942419138160836, "iterations": 23, '
            '"lambda_lower": 1.6180339882053252, "lambda_upper": 1.6180339889579018, '
            '"p": 1}',
    (8, 4): '{"M": 99, "beta": 8, "capacity_lower": 0.8526982670904806, '
            '"capacity_upper": 0.8526982676942662, "iterations": 75, '
            '"lambda_lower": 1.8058752904474042, "lambda_upper": 1.8058752912031852, '
            '"p": 4}',
    (10, 5): '{"M": 382, "beta": 10, "capacity_lower": 0.8732468002872565, '
             '"capacity_upper": 0.8732468010396848, "iterations": 91, '
             '"lambda_lower": 1.8317807067878205, "lambda_upper": 1.8317807077431738, '
             '"p": 5}',
    (12, 4): '{"M": 562, "beta": 12, "capacity_lower": 0.7116514815087076, '
             '"capacity_upper": 0.7116514823854159, "iterations": 146, '
             '"lambda_lower": 1.6376777265723022, "lambda_upper": 1.637677727567499, '
             '"p": 4}',
    (14, 3): '{"M": 378, "beta": 14, "capacity_lower": 0.5332581984566959, '
             '"capacity_upper": 0.533258199402097, "iterations": 212, '
             '"lambda_lower": 1.4471938663044073, "lambda_upper": 1.4471938672527564, '
             '"p": 3}',
}


@pytest.mark.parametrize("beta,p", sorted(CAPACITY_GOLDEN))
def test_capacity_golden_output(capsys, beta, p):
    code, out, _ = run_cli(capsys, "capacity", "wwl", "--beta", str(beta), "--p", str(p))
    assert code == 0 and out == CAPACITY_GOLDEN[beta, p] + "\n"


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
def test_capacity_rejects_a_degenerate_tolerance_at_once(capsys, tol):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "capacity", "wwl", "--beta", "3", "--p", "1",
                             "--tol", tol)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (2, "")
    assert "tol > 0" in err and "Traceback" not in err


def test_capacity_over_graph_limit_exits_2(capsys):
    code, out, err = run_cli(capsys, "capacity", "wwl", "--beta", "40", "--p", "20")
    assert code == 2 and out == ""
    assert "limit" in err and "Traceback" not in err


@pytest.mark.parametrize("construction", [
    ("timep", "--alpha", "4", "--p", "2"),
    ("dilute-space", "--alpha", "4", "--beta", "3", "--p", "2"),
])
def test_simulate_rejects_rs_wom_for_several_phases(capsys, construction):
    code, out, err = run_cli(capsys, "simulate", "--construction", *construction,
                             "--writes", "20", "--seed", "1")
    assert code == 2 and out == ""
    assert "BitPerWriteWom" in err and "Traceback" not in err


@pytest.mark.parametrize("p", ["0", "-4"])
def test_simulate_dilute_space_rejects_a_nonpositive_p(capsys, p):
    code, out, err = run_cli(capsys, "simulate", "--construction", "dilute-space",
                             "--alpha", "4", "--beta", "3", f"--p={p}",
                             "--wom", "bitper", "--t", "1", "--writes", "20")
    assert code == 2 and out == ""
    assert "alpha and p must be >= 1" in err


def test_count_is_plain_decimal_for_big_n(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--p", "1", "--n", "300")
    assert code == 0
    assert int(out.strip()) > 10 ** 60  # arbitrary precision survives the pipe


def test_count2d_serializes_count_as_string(capsys):
    got = run_json(capsys, "count2d", "--a", "1", "--b", "3", "--p", "2",
                   "--m", "8", "--n", "8")
    assert got["count"] == str(149 ** 8)
    assert isinstance(got["count"], str)


@pytest.mark.parametrize("name", ["a", "b", "p"])
def test_count2d_names_its_own_parameters(capsys, name):
    values = {"a": 2, "b": 2, "p": 1, name: 0}
    argv = [f"--{k}={v}" for k, v in values.items()]
    code, out, err = run_cli(capsys, "count2d", *argv, "--m", "3", "--n", "3")
    assert (code, out) == (2, "")
    assert f"tscc: error: {name} must be a positive integer, got 0" in err
    assert "alpha" not in err and "beta" not in err


def test_bounds_schema(capsys):
    got = run_json(capsys, "bounds", "--alpha", "4", "--beta", "1", "--p", "1")
    assert got["lower_provenance"] == "time-construction"
    assert got["upper_provenance"] == "wwl-beta1"
    assert got["t_opt"] == 4
    assert got["lower"] == pytest.approx(0.290, abs=3e-3)


def test_table_csv(capsys, tmp_path):
    out_file = tmp_path / "grid.csv"
    code, _, _ = run_cli(capsys, "table", "--grid", "alpha=4:6,beta=1,p=1",
                         "--out", str(out_file))
    assert code == 0
    lines = out_file.read_text().strip().splitlines()
    assert lines[0] == "alpha,beta,p,t_opt,lower,upper,provenance"
    assert len(lines) == 4


def test_table_rejects_a_repeated_grid_parameter(capsys):
    code, out, err = run_cli(capsys, "table", "--grid", "alpha=1:2,beta=1,p=1,p=2")
    assert code == 2 and out == ""
    assert "'p' given twice" in err


def test_verify_good_and_bad(capsys, tmp_path):
    trace = tmp_path / "trace.txt"
    trace.write_text("0000\n0011\n")
    code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--beta", "3",
                           "--p", "2", "--file", str(trace))
    assert code == 0 and json.loads(out)["verdict"] == "satisfied"

    trace.write_text("0000\n0111\n")
    code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--beta", "3",
                           "--p", "2", "--file", str(trace))
    assert code == 3
    assert json.loads(out)["verdict"] == {"write": 1, "cell": 2, "cost": 3}


def test_parameter_errors_exit_2(capsys):
    code, _, err = run_cli(capsys, "rank", "--beta", "3", "--p", "2",
                           "--vector", "0111")
    assert code == 2 and "window limit" in err
    code, _, err = run_cli(capsys, "count", "--beta", "3", "--p", "4", "--n", "5")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--alpha", "1", "--beta", "3",
                           "--p", "2", "--file", "/definitely/not/here")
    assert code == 2


_PINNED_VERDICT = ('{"alpha": 2, "beta": 3, "cells": 4, "p": 1, '
                   '"verdict": {"cell": 1, "cost": 3, "write": 1}, "writes": 2}\n')


@pytest.mark.parametrize("content, expected", [
    (b"", None),
    (b"\n  \n\n", None),
    (b"0000\r\n0110\r\n0100\r\n", _PINNED_VERDICT),
    (b"0000\r0110\r0100\r", _PINNED_VERDICT),
    (b"0000\n0110\n0100", _PINNED_VERDICT),
    (b"  0000 \n\t0110  \n 0100\n", _PINNED_VERDICT),
    (b"0000\n01\xff0\n", None),
    (b"0000\n0120\n", None),
    (b"0000\n011\n", None),
    (b"00\n01\n", None),
    ("directory", None),
], ids=["empty", "blank-lines-only", "crlf", "bare-cr", "no-trailing-newline",
        "surrounding-spaces", "non-utf8-byte", "non-binary", "ragged",
        "narrower-than-beta", "directory"])
def test_verify_input_handling(capsys, tmp_path, content, expected):
    """Exact output for files that parse; exit 2 with one error line otherwise."""
    path = tmp_path / "trace.txt"
    if content == "directory":
        path.mkdir()
    else:
        path.write_bytes(content)
    code, out, err = run_cli(capsys, "verify", "--alpha", "2", "--beta", "3",
                             "--p", "1", "--file", str(path))
    if expected is None:
        assert (code, out) == (2, "")
        assert err.startswith("tscc: error: ") and err.count("\n") == 1
        assert "Traceback" not in err
    else:
        assert (code, out, err) == (3, expected, "")


def test_verify_checks_parameters_before_opening_the_file(capsys):
    code, _, err = run_cli(capsys, "verify", "--alpha", "0", "--beta", "3",
                           "--p", "2", "--file", "/definitely/not/here")
    assert code == 2 and "alpha must be a positive integer" in err


def test_verify_reads_the_whole_file_after_an_early_violation(capsys, tmp_path,
                                                             monkeypatch):
    # the violation is on write 1; the file goes on for 200 writes, in
    # blocks of two states
    monkeypatch.setattr(core, "_BLOCK_CELLS", 8)
    lines = ["0000", "1111"] + ["1111"] * 199
    trace = tmp_path / "trace.txt"
    trace.write_text("\n".join(lines) + "\n")
    argv = ("verify", "--alpha", "2", "--beta", "2", "--p", "1", "--file", str(trace))
    code, out, _ = run_cli(capsys, *argv)
    assert code == 3
    got = json.loads(out)
    assert got["writes"] == 200
    assert got["verdict"] == {"write": 1, "cell": 1, "cost": 2}

    trace.write_text("\n".join(lines + ["11x1"]) + "\n")
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "") and "'11x1'" in err


def test_missing_arguments_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--beta", "3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ("simulate", "--construction", "trivial", "--alpha", "3", "--beta", "3",
     "--p", "2", "--n", "15"),
    ("simulate", "--construction", "space", "--beta", "3", "--p", "2",
     "--nprime", "4"),
    ("simulate", "--construction", "time", "--alpha", "4"),
    ("simulate", "--construction", "timep", "--alpha", "4", "--p", "3",
     "--wom", "bitper", "--t", "1"),
    ("simulate", "--construction", "dilute-time", "--alpha", "2", "--beta", "3",
     "--p", "2", "--nprime", "4"),
    ("simulate", "--construction", "dilute-space", "--alpha", "4", "--beta", "3"),
    ("simulate", "--construction", "coset", "--n", "6", "--beta", "3", "--p", "2"),
])
def test_simulate_families(capsys, argv):
    got = run_json(capsys, *argv, "--writes", "60", "--seed", "1")
    assert got["verdict"] == "satisfied"
    assert got["achieved_rate"] > 0


def test_simulate_missing_construction_params(capsys):
    code, _, err = run_cli(capsys, "simulate", "--construction", "space",
                           "--beta", "3", "--p", "2")
    assert code == 2 and "--nprime" in err


def test_simulate_deterministic_and_trace_verifies(capsys, tmp_path):
    trace = tmp_path / "run.txt"
    args = ("simulate", "--construction", "space", "--beta", "3", "--p", "2",
            "--nprime", "4", "--writes", "50", "--seed", "9")
    _, out1, _ = run_cli(capsys, *args, "--trace", str(trace))
    first = trace.read_text()
    _, out2, _ = run_cli(capsys, *args, "--trace", str(trace))
    assert out1 == out2
    assert trace.read_text() == first

    code, out, _ = run_cli(capsys, "verify", "--alpha", "1", "--beta", "3",
                           "--p", "2", "--file", str(trace))
    assert code == 0 and json.loads(out)["verdict"] == "satisfied"


def test_simulate_rounds_up_to_whole_periods(capsys):
    got = run_json(capsys, "simulate", "--construction", "time", "--alpha", "4",
                   "--writes", "10", "--seed", "0")
    assert got["period"] == 12
    assert got["writes"] == 12


def _write_once_simulations():
    woms = {"rs": ("--wom", "rs"), "bitper1": ("--wom", "bitper", "--t", "1"),
            "bitper3": ("--wom", "bitper", "--t", "3")}
    for alpha in range(1, 5):
        a = ("--alpha", str(alpha))
        for name, wom in woms.items():
            yield ("time", *a, *wom)
            yield ("timep", *a, "--p", "1", *wom)
            yield ("dilute-space", *a, "--beta", "2", *wom)
            if name != "rs":
                yield ("timep", *a, "--p", "3", *wom)
                yield ("dilute-space", *a, "--beta", "2", "--p", "3", *wom)


def test_simulate_write_once_schedules_golden(capsys, tmp_path):
    """simulate stdout plus --trace bytes for the write-once time schedules."""
    digest = hashlib.sha256()
    trace = tmp_path / "run.txt"
    for argv in _write_once_simulations():
        for writes in ("7", "100"):
            code, out, err = run_cli(capsys, "simulate", "--construction", *argv,
                                     "--writes", writes, "--seed", "5",
                                     "--trace", str(trace))
            assert code == 0, (argv, err)
            digest.update(out.encode())
            digest.update(trace.read_bytes())
    assert digest.hexdigest() == (
        "8eb67d88b21b8c51f9bf41bc98c557c12c4755d94a7e1d15a156ffd303cce82d")


def test_simulate_wom_from_file(capsys, tmp_path):
    from tscc.constructions import RsWom
    wom = RsWom()
    lines = ["3 2", "write 1"]
    for m in range(1, 5):
        out = wom.encode_w(1, m, (0, 0, 0))
        lines.append(f"000 {m} -> {''.join(map(str, out))}")
    lines.append("write 2")
    seen = set()
    for m1 in range(1, 5):
        s1 = wom.encode_w(1, m1, (0, 0, 0))
        if s1 in seen:
            continue
        seen.add(s1)
        for m2 in range(1, 5):
            nxt = wom.encode_w(2, m2, s1)
            lines.append(f"{''.join(map(str, s1))} {m2} -> {''.join(map(str, nxt))}")
    table = tmp_path / "wom.txt"
    table.write_text("\n".join(lines) + "\n")
    got = run_json(capsys, "simulate", "--construction", "time", "--alpha", "3",
                   "--wom", f"file:{table}", "--writes", "30", "--seed", "4")
    assert got["verdict"] == "satisfied"


def test_simulate_wom_file_with_a_non_binary_cell_names_the_line(capsys, tmp_path):
    table = tmp_path / "wom.txt"
    table.write_text("1 1\nwrite 1\n0 1 -> 0\n0 2 -> 2\n")
    code, out, err = run_cli(capsys, "simulate", "--construction", "time", "--alpha", "2",
                             "--wom", f"file:{table}", "--writes", "8")
    assert (code, out) == (2, "")
    assert "'0 2 -> 2'" in err and "Traceback" not in err


def test_findgood_schema(capsys):
    got = run_json(capsys, "findgood", "--n", "8", "--beta", "3", "--p", "2")
    assert got["mode"] == "exhaustive"
    assert got["j"] == len(got["basis"])
    assert all(len(b) == 8 and set(b) <= set("01") for b in got["basis"])
    assert got["steps"][-1]["Q_B"] == 0.0
    assert all(set(s) == {"z", "N_B", "Q_B"} for s in got["steps"])
    assert got["rate"] == pytest.approx((8 - got["j"]) / 8)


def test_findgood_sample_flag_accepted(capsys):
    got = run_json(capsys, "findgood", "--n", "6", "--beta", "3", "--p", "2",
                   "--sample")
    assert got["mode"] == "exhaustive"


def test_findgood_golden_grid(capsys):
    """Whole findgood output (basis, N_B, Q_B) for beta <= n <= 14, p <= beta <= 5."""
    digest = hashlib.sha256()
    for beta in range(1, 6):
        for p in range(1, beta + 1):
            for n in range(beta, 15):
                code, out, err = run_cli(capsys, "findgood", "--n", str(n),
                                         "--beta", str(beta), "--p", str(p))
                assert code == 0, err
                digest.update(out.encode())
    assert digest.hexdigest() == (
        "00ed98c0e3c3f093503214db6e2ffd4755f1c9b0bbfc7a4911b963337ff3f485")


@pytest.mark.parametrize("n", ["0", "25"])
def test_findgood_rejects_n_outside_cap(capsys, n):
    code, out, err = run_cli(capsys, "findgood", "--n", n, "--beta", "3", "--p", "2")
    assert code == 2 and out == ""
    assert "n must be in [1:24]" in err and "Traceback" not in err


def test_findgood_rejects_n_below_beta_before_searching(capsys, monkeypatch):
    from tscc import cosets

    def no_search(indicator):
        raise AssertionError("the greedy search ran")

    monkeypatch.setattr(cosets, "xor_autocorrelation", no_search)
    code, out, err = run_cli(capsys, "findgood", "--n", "22", "--beta", "30", "--p", "3")
    assert code == 2 and out == ""
    assert "n=22 is narrower than beta=30" in err and "Traceback" not in err


def test_json_output_is_key_sorted(capsys):
    _, out, _ = run_cli(capsys, "bounds", "--alpha", "2", "--beta", "2", "--p", "1")
    keys = list(json.loads(out))
    assert keys == sorted(keys)


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "tscc.cli", "count",
                           "--beta", "6", "--p", "3", "--n", "10"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.strip() == "421"


def _fresh_process(*argv):
    """(exit code, stdout) of the same command in a new interpreter."""
    proc = subprocess.run([sys.executable, "-m", "tscc.cli", *argv],
                          capture_output=True, text=True)
    return proc.returncode, proc.stdout


def test_parser_kept_between_calls_carries_no_state(capsys, tmp_path):
    # an option given to one call must not reach the next call through the
    # parser main() keeps, and an argparse error must not break it
    out_file = tmp_path / "out.txt"
    simulate = ("simulate", "--construction", "time", "--alpha", "3",
                "--writes", "12", "--seed", "2")
    table = ("table", "--grid", "alpha=2:3,beta=1,p=1")
    for first, then in [(simulate + ("--trace", str(out_file)), simulate),
                        (table + ("--out", str(out_file)), table)]:
        assert run_cli(capsys, *first)[0] == 0 and out_file.exists()
        out_file.unlink()
        code, out, _ = run_cli(capsys, *then)
        assert (code, out) == _fresh_process(*then) and not out_file.exists()
    with pytest.raises(SystemExit) as exc:
        main(["rank", "--beta", "3", "--vector", "0110"])
    assert exc.value.code == 2 and "--p" in capsys.readouterr().err
    good = ("rank", "--beta", "3", "--p", "2", "--vector", "0110")
    code, out, _ = run_cli(capsys, *good)
    assert (code, out) == _fresh_process(*good) == (0, "7\n")


# --- README examples ---------------------------------------------------------

def _readme_sessions():
    """Each shell block of README.md as a list of (command, output lines)."""
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    sessions = []
    for block in re.findall(r"^```\w*\n(.*?)^```$", text, flags=re.S | re.M):
        if not block.startswith("$ "):
            continue
        steps = []
        for line in block.splitlines():
            if line.startswith("$ "):
                steps.append((line[2:], []))
            else:
                steps[-1][1].append(line)
        sessions.append(steps)
    return sessions


README_SESSIONS = _readme_sessions()


def test_readme_has_every_example():
    tscc = [cmd for steps in README_SESSIONS for cmd, _ in steps
            if cmd.startswith("tscc ")]
    assert len(tscc) == 10


@pytest.mark.parametrize("steps", README_SESSIONS,
                         ids=[next(c for c, _ in s if c.startswith("tscc "))
                              for s in README_SESSIONS])
def test_readme_example_output(steps, capsys, tmp_path, monkeypatch):
    """Every `$ tscc` line of README.md prints exactly the lines shown under it."""
    monkeypatch.chdir(tmp_path)
    status = None
    for k, (cmd, expected) in enumerate(steps):
        argv = shlex.split(cmd)
        if argv[0] == "printf":
            fmt, redirect, path = argv[1:]
            assert redirect == ">"
            Path(path).write_text(fmt.replace("\\n", "\n"))
        elif argv[0] == "echo":
            assert argv[1:] == ["$?"]
            assert expected == [str(status)]
        else:
            assert argv[0] == "tscc"
            status = main(argv[1:])
            out = capsys.readouterr().out
            assert out.splitlines() == expected, cmd
            if k + 1 == len(steps) or steps[k + 1][0] != "echo $?":
                assert status == 0, cmd
