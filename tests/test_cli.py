import json
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

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


def test_count_is_plain_decimal_for_big_n(capsys):
    code, out, _ = run_cli(capsys, "count", "--beta", "2", "--p", "1", "--n", "300")
    assert code == 0
    assert int(out.strip()) > 10 ** 60  # arbitrary precision survives the pipe


def test_count2d_serializes_count_as_string(capsys):
    got = run_json(capsys, "count2d", "--a", "1", "--b", "3", "--p", "2",
                   "--m", "8", "--n", "8")
    assert got["count"] == str(149 ** 8)
    assert isinstance(got["count"], str)


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
