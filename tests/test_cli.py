"""CLI contract: table formats, manifests, determinism, exit codes.

Most tests drive main(argv) in-process; one subprocess run covers the
``python -m`` entry.  Numerical assertions here are loose screws on top
of the module test suites; what this file pins down is the artifact
format (manifest comment line, 17-digit floats, summary JSON) and the
0/1/2 exit-code contract.
"""

import json
import math
import os
import subprocess
import sys
import types

import numpy as np
import pytest

from quatgamma import cli
from quatgamma.cli import main


def read_table(path):
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("# ")
    manifest = json.loads(lines[0][2:])
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return manifest, header, rows


def read_summary(csv_path):
    # out.csv sits next to out.summary.json
    summary = csv_path.parent / (csv_path.name[: -len(".csv")] + ".summary.json")
    return json.loads(summary.read_text(encoding="utf-8"))


# ---------------------------------------------------------------- gamma-table


def test_gamma_table_tau_mode(tmp_path):
    out = tmp_path / "gt.csv"
    rc = main(
        [
            "gamma-table",
            "--n-min", "0", "--n-max", "2",
            "--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.25",
            "--out", str(out),
        ]
    )
    assert rc == 0
    manifest, header, rows = read_table(out)
    assert manifest["command"] == "gamma-table"
    assert header == ["N", "re_s", "im_s", "re_gamma", "im_gamma", "abs_gamma"]
    assert len(rows) == 3 * 9
    for row in rows:
        assert abs(float(row[5]) - 1.0) <= 1e-10
    mid = [r for r in rows if r[0] == "0" and float(r[2]) == 0.0]
    assert len(mid) == 1 and abs(float(mid[0][5]) - 1.0) <= 1e-12
    summary = read_summary(out)
    assert summary["rows"] == 27
    assert summary["max_unit_modulus_error"] <= 1e-10
    assert summary["manifest"] == manifest
    assert "duration_seconds" in summary


def test_gamma_table_rerun_bit_identical(tmp_path):
    args = [
        "gamma-table",
        "--n-min", "0", "--n-max", "1",
        "--tau-min", "0", "--tau-max", "2", "--tau-step", "0.5",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gamma_table_strip_mode(tmp_path):
    out = tmp_path / "gs.csv"
    assert main(["gamma-table", "--s-grid", "3x4", "--out", str(out)]) == 0
    manifest, _, rows = read_table(out)
    assert manifest["s_grid"] == "3x4"
    assert len(rows) == 12
    sigmas = sorted({float(r[1]) for r in rows})
    assert sigmas == [0.25, 0.5, 0.75]


def test_gamma_table_mode_selection_errors(tmp_path):
    out = str(tmp_path / "x.csv")
    base = ["gamma-table", "--out", out]
    assert main(base) == 2  # neither grid
    assert main(base + ["--s-grid", "2x2", "--tau-min", "0", "--tau-max", "1", "--tau-step", "0.5"]) == 2
    assert main(base + ["--s-grid", "bogus"]) == 2
    assert main(base + ["--tau-min", "0", "--tau-max", "1", "--tau-step", "-1"]) == 2
    assert main(base + ["--tau-min", "1", "--tau-max", "0", "--tau-step", "0.5"]) == 2
    assert main(["gamma-table", "--n-min", "2", "--n-max", "0", "--s-grid", "2x2", "--out", out]) == 2


# -------------------------------------------------------------- spectral-scan


def test_spectral_scan_summary_and_symmetries(tmp_path):
    out = tmp_path / "ss.csv"
    rc = main(
        [
            "spectral-scan",
            "--n-min", "0", "--n-max", "2",
            "--tau-min", "-2", "--tau-max", "2", "--tau-step", "0.25",
            "--out", str(out),
        ]
    )
    assert rc == 0
    _, header, rows = read_table(out)
    assert header == ["N", "tau", "h", "k"]
    # k is odd: exactly zero on the tau = 0 rows
    for row in rows:
        if float(row[1]) == 0.0:
            assert float(row[3]) == 0.0
    # h is even in tau within each sector
    per_n = {}
    for row in rows:
        per_n.setdefault(row[0], []).append((float(row[1]), float(row[2])))
    for pairs in per_n.values():
        vals = dict(pairs)
        for t, h in pairs:
            assert abs(h - vals[-t]) <= 1e-12
    summary = read_summary(out)
    # global minimum of the conductor multiplier sits at N = 0, tau = 0
    assert abs(summary["min_h"] - (-9.6603709252435124)) <= 1e-6
    assert summary["min_h_at"] == [0, 0.0]
    assert summary["max_abs_k"] > 0.0


def test_spectral_scan_rerun_bit_identical(tmp_path):
    args = [
        "spectral-scan",
        "--n-min", "0", "--n-max", "3",
        "--tau-min", "-3", "--tau-max", "3", "--tau-step", "0.125",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_oversized_grids_refused_before_allocation(tmp_path):
    # each of these would ask for far more memory than exists; the count is
    # refused from the arguments alone, before any array is built
    out = str(tmp_path / "x.csv")
    tiny_step = ["--tau-min", "-1", "--tau-max", "1", "--tau-step", "1e-300"]
    assert main(["spectral-scan"] + tiny_step + ["--out", out]) == 2
    assert main(["gamma-table"] + tiny_step + ["--out", out]) == 2
    assert main(["gamma-table", "--s-grid", "100000x100000", "--out", out]) == 2
    assert main(["functional-eq", "--s-grid", "100000x100000", "--out", out]) == 2
    overflow = ["--tau-min=-1e308", "--tau-max=1e308", "--tau-step=1e-3"]
    assert main(["spectral-scan"] + overflow + ["--out", out]) == 2
    # a nan step is refused by argparse: test_non_finite_float_flags_refused
    assert not (tmp_path / "x.csv").exists()


TAU_0_1 = ["--tau-min", "0", "--tau-max", "1", "--tau-step", "0.5"]
FLOAT_FLAGS = [
    ("gamma-table", TAU_0_1, "--tau-min"),
    ("gamma-table", TAU_0_1, "--tau-max"),
    ("gamma-table", TAU_0_1, "--tau-step"),
    ("spectral-scan", TAU_0_1, "--tau-step"),
    ("oracle-check", [], "--grid-l"),
    ("trace-sweep", ["--lambda-list", "2,4"], "--profile-width"),
    ("trace-sweep", ["--lambda-list", "2,4"], "--profile-scale"),
    ("trace-sweep", ["--lambda-list", "2,4"], "--tol"),
    ("g-constant", [], "--tol"),
]


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command,base,flag", FLOAT_FLAGS)
def test_non_finite_float_flags_refused(command, base, flag, value, tmp_path, capsys):
    # every float flag refuses a non-finite value while parsing: exit 2,
    # nothing written, nothing computed
    out = tmp_path / "x.csv"
    argv = [command] + base + [f"{flag}={value}"]
    if command in ("gamma-table", "spectral-scan", "trace-sweep"):
        argv += ["--out", str(out)]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert f"argument {flag}: must be finite" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_non_finite_float_flag_refused_before_numpy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "from quatgamma.cli import main\n"
        "try:\n"
        "    main(['trace-sweep', '--tol', 'nan', '--out', 'never.csv'])\n"
        "except SystemExit as exc:\n"
        "    print(exc.code, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == ["2", "False"], proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_row_cap_counts_sectors_times_points(tmp_path):
    # every grid here is small on its own; the sectors multiply it past
    # 1,000,000 table rows, which is refused before anything is computed
    out = str(tmp_path / "x.csv")
    tau_1001 = ["--tau-min", "-1", "--tau-max", "1", "--tau-step", "0.002"]
    assert main(["spectral-scan", "--n-max", "999"] + tau_1001 + ["--out", out]) == 2
    assert main(["gamma-table", "--n-max", "999"] + tau_1001 + ["--out", out]) == 2
    assert main(["gamma-table", "--n-max", "2500", "--s-grid", "20x20", "--out", out]) == 2
    assert main(["functional-eq", "--n-max", "2500", "--s-grid", "20x20", "--out", out]) == 2
    huge = ["--n-min", "5", "--n-max", str(10**30), "--s-grid", "1x1", "--out", out]
    assert main(["functional-eq"] + huge) == 2
    assert main(["functional-eq", "--n-max", "11", "--s-grid", "300x300", "--out", out]) == 2
    assert not (tmp_path / "x.csv").exists()


# -------------------------------------------------------------- functional-eq


def test_functional_eq_residuals(tmp_path):
    out = tmp_path / "fe.csv"
    assert main(["functional-eq", "--n-min", "0", "--n-max", "1", "--s-grid", "1x1", "--out", str(out)]) == 0
    _, header, rows = read_table(out)
    assert header == ["N", "re_s", "im_s", "funceq_residual", "quad_residual"]
    assert len(rows) == 2
    # the 1x1 grid is the central point s = 1/2
    assert float(rows[0][1]) == 0.5 and float(rows[0][2]) == 0.0
    assert float(rows[0][3]) <= 1e-12
    for row in rows:
        assert float(row[3]) <= 1e-10
        assert float(row[4]) <= 1e-12
    summary = read_summary(out)
    assert summary["max_funceq_residual"] <= 1e-10
    assert summary["max_quad_residual"] <= 1e-12


def test_functional_eq_rerun_bit_identical(tmp_path):
    # 7 x 20 = 140 strip points: the moment quadrature runs in two blocks
    args = ["functional-eq", "--n-min", "0", "--n-max", "2", "--s-grid", "7x20"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    _, _, rows = read_table(a)
    assert len(rows) == 3 * 140
    for row in rows:
        assert float(row[3]) <= 1e-10
        assert float(row[4]) <= 1e-12


def test_functional_eq_near_re_s_zero(tmp_path):
    # abscissae down to Re(s) = 1/101 at Im(s) in {-2, 0, 2}
    out = tmp_path / "fe.csv"
    assert main(["functional-eq", "--n-max", "0", "--s-grid", "100x3", "--out", str(out)]) == 0
    assert read_summary(out)["max_quad_residual"] <= 1e-12


def test_functional_eq_refuses_unresolved_sectors(tmp_path):
    # the limit is the quadrature's and is refused before numpy is imported
    from quatgamma import additive_oracle

    limit = cli._MAX_MOMENT_N
    assert limit == additive_oracle._MOMENT_QUADRATURE_MAX_N
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "from quatgamma.cli import main\n"
        f"print(main(['functional-eq', '--n-max', '{limit + 1}', '--out', 'never.csv']), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == ["2", "False"], proc.stderr
    assert f"above {limit}" in proc.stderr
    assert list(tmp_path.iterdir()) == []
    out = tmp_path / "fe.csv"
    top = str(limit)
    assert main(["functional-eq", "--n-min", top, "--n-max", top, "--s-grid", "1x1", "--out", str(out)]) == 0
    # 3.1e-13 against the closed form, whose own error is part of it
    assert float(read_table(out)[2][0][4]) <= 1e-11


def test_functional_eq_empty_grid(tmp_path):
    out = tmp_path / "fe0.csv"
    assert main(["functional-eq", "--s-grid", "0x0", "--out", str(out)]) == 0
    manifest, header, rows = read_table(out)
    assert manifest["s_grid"] == "0x0"
    assert rows == []
    summary = read_summary(out)
    assert summary["max_funceq_residual"] is None
    assert summary["rows"] == 0


# --------------------------------------------------------------- oracle-check


def test_oracle_check_accuracy(tmp_path, capsys):
    out = tmp_path / "oc.json"
    rc = main(["oracle-check", "--probes", "4", "--seed", "19", "--out", str(out)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["self_dual_error"] <= 1e-3
    # coarsening the grid degrades the oracle; reported, not failed
    assert report["self_dual_error_m_halved"] > report["self_dual_error"]
    assert set(report["multiplier_vs_brute"]) == {"0", "1", "2"}
    for err in report["multiplier_vs_brute"].values():
        assert err <= 1e-2
    # one report, printed and written: the same duration too
    assert printed == report


def test_oracle_check_deterministic(tmp_path, capsys):
    args = ["oracle-check", "--grid-m", "17", "--probes", "3", "--seed", "5"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    da = json.loads(a.read_text(encoding="utf-8"))
    db = json.loads(b.read_text(encoding="utf-8"))
    da.pop("duration_seconds")
    db.pop("duration_seconds")
    assert da == db


def test_oracle_check_times_every_figure(tmp_path, monkeypatch, capsys):
    # each self-dual transform takes one tick of a fake clock; the duration
    # used to be read before either of them ran
    from quatgamma import additive_oracle

    ticks = [0.0]
    sample = additive_oracle.omega_grid_function

    def slow_sample(grid):
        ticks[0] += 1.0
        return sample(grid)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: ticks[0]))
    monkeypatch.setattr(additive_oracle, "omega_grid_function", slow_sample)
    out = tmp_path / "oc.json"
    assert main(["oracle-check", "--grid-m", "9", "--probes", "1", "--out", str(out)]) == 0
    capsys.readouterr()
    assert json.loads(out.read_text(encoding="utf-8"))["duration_seconds"] == 2.0


def test_table_duration_covers_the_csv_write(tmp_path, monkeypatch):
    # the CSV write takes one tick of a fake clock; the summary's duration
    # is read after it
    ticks = [0.0]
    write_csv = cli._write_csv

    def slow_write(*args):
        ticks[0] += 1.0
        return write_csv(*args)

    monkeypatch.setattr(cli, "time", types.SimpleNamespace(monotonic=lambda: ticks[0]))
    monkeypatch.setattr(cli, "_write_csv", slow_write)
    out = tmp_path / "gs.csv"
    assert main(["gamma-table", "--s-grid", "2x2", "--out", str(out)]) == 0
    assert read_summary(out)["duration_seconds"] == 1.0


def test_oracle_check_validation(tmp_path):
    assert main(["oracle-check", "--probes", "0"]) == 2
    assert main(["oracle-check", "--grid-m", "16"]) == 2
    assert main(["oracle-check", "--grid-l", "-1"]) == 2


def test_oracle_check_refuses_oversized_grid(capsys):
    # refused from the arguments alone: no 211^3 table is built
    assert main(["oracle-check", "--grid-m", "211"]) == 2
    err = capsys.readouterr().err
    assert "--grid-m 211" in err and "GB" in err and "211^3" in err
    assert main(["oracle-check", "--grid-m", "1001"]) == 2


def test_oracle_check_decay_failure_exits_1(capsys):
    # the box [-0.5, 0.5]^4 cuts the profiles where they are still large,
    # so the 4D decay surrogate fails: a numerical failure, not a traceback
    assert main(["oracle-check", "--grid-m", "5", "--grid-l", "0.5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: 4D decay surrogate: estimate ")


@pytest.mark.parametrize(
    "flags, message",
    [
        (["--seed", "-1"], "--seed must be at least 0, got -1"),
        (["--probes", "10000000"], "--probes 10000000 at --grid-m 33 needs 3.79e+11 units of work"),
        (["--grid-m", "3", "--probes", "27100"], "(27100 x (3^3 + 2000))"),
        (["--grid-m", "209", "--probes", "7"], "the limit is 5.48e+07, 6 probes at --grid-m 209"),
        # work exactly at the limit passes the work check and reaches the seed
        # check; one probe more is refused for its work first
        (["--grid-m", "209", "--probes", "6", "--seed", "-1"], "--seed must be at least 0, got -1"),
        (["--grid-m", "209", "--probes", "7", "--seed", "-1"], "the limit is 5.48e+07, 6 probes at --grid-m 209"),
    ],
    ids=["negative-seed", "many-probes", "small-box-probes", "one-probe-over", "at-work-limit", "over-work-limit"],
)
def test_oracle_check_refusals_before_numpy(flags, message, tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = (
        "import sys\n"
        "from quatgamma.cli import main\n"
        f"print(main(['oracle-check', *{flags!r}, '--out', 'never.json']), 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.stdout.split() == ["2", "False"], proc.stderr
    assert message in proc.stderr
    assert list(tmp_path.iterdir()) == []


def test_oracle_check_accepts_grid_above_old_limit(capsys):
    # 69 was refused while the command built M^4 arrays
    assert main(["oracle-check", "--grid-m", "69", "--probes", "2", "--seed", "3"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["manifest"]["grid_m"] == 69
    assert report["self_dual_error"] <= 1e-10
    assert max(report["multiplier_vs_brute"].values()) <= 1e-7


# ---------------------------------------------------------------- trace-sweep


def test_trace_sweep_table(tmp_path):
    out = tmp_path / "ts.csv"
    rc = main(["trace-sweep", "--lambda-list", "2,4", "--out", str(out)])
    assert rc == 0
    manifest, header, rows = read_table(out)
    assert header == ["lambda", "tr_direct", "tr_spectral", "residual"]
    assert len(rows) == 2
    for row in rows:
        direct, spectral = float(row[1]), float(row[2])
        assert abs(direct - spectral) <= 1e-7 * max(1.0, abs(spectral))
    summary = read_summary(out)
    assert abs(summary["f_at_1"] - 1.0) <= 1e-12
    # the exact slope and intercept at the top cutoff, 4: measured
    # relative errors 3.8e-5 and 2.1e-5
    assert abs(summary["slope"] - 1.0) <= 1e-4
    assert abs(summary["intercept"] - (-summary["h_at_1"])) <= 1e-4 * abs(summary["h_at_1"])
    assert summary["max_route_discrepancy"] <= 1e-7


def test_trace_sweep_zero_profile(tmp_path):
    out = tmp_path / "tz.csv"
    assert main(["trace-sweep", "--lambda-list", "2,4", "--profile-scale", "0", "--out", str(out)]) == 0
    _, _, rows = read_table(out)
    assert all(float(cell) == 0.0 for row in rows for cell in row[1:])


def test_trace_sweep_validation(tmp_path):
    out = str(tmp_path / "x.csv")
    assert main(["trace-sweep", "--lambda-list", "2,2", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "2,nan", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "2,inf", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "4,2", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "0.5", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "nope", "--out", out]) == 2
    assert main(["trace-sweep", "--lambda-list", "2,4", "--profile-width", "0", "--out", out]) == 2


def test_trace_sweep_numerical_failure_exits_1(tmp_path, capsys):
    # the two above-kink panel widths agree to about 1e-15, far above
    # tol = 1e-300, so the self-check trips and nothing is written
    out = tmp_path / "t.csv"
    assert main(["trace-sweep", "--lambda-list", "2,4", "--tol", "1e-300", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("numerical failure: trace_spectral at cutoff 2.0: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv, message",
    [
        (["trace-sweep", "--lambda-list", ","], "--lambda-list is empty"),
        (["spectral-scan"], "--tau-min, --tau-max and --tau-step are all required"),
        (["gamma-table", "--n-min", "-1", "--s-grid", "2x2"], "--n-min must be >= 0"),
        (["trace-sweep", "--n-min", "-1", "--lambda-list", "2,4"], "--n-min must be >= 0"),
        (["trace-sweep", "--lambda-list", "2,4", "--tol", "0"], "--tol must be positive"),
    ],
    ids=["empty-lambda-list", "no-tau-grid", "gamma-table-n-min", "trace-sweep-n-min", "zero-tol"],
)
def test_usage_errors_exit_2(argv, message, tmp_path, capsys):
    assert main(argv + ["--out", str(tmp_path / "x.csv")]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_trace_sweep_refuses_oversized_cutoff(tmp_path):
    # parsing only, so that no trace is ever computed; the refusal is a
    # _UsageError, which main turns into exit 2 before numpy is imported
    assert cli._trace_direct_bytes(64.0) == (40 + 16) * 24 * 100
    assert cli._parse_lambdas("2,4,8,16,32,64") == (2.0, 4.0, 8.0, 16.0, 32.0, 64.0)
    assert cli._parse_lambdas("2,4e10") == (2.0, 4e10)  # 0.96 GB
    with pytest.raises(cli._UsageError, match=r"cutoff 1e\+12 needs about 4\.8 GB"):
        cli._parse_lambdas("2,4,1e12")
    with pytest.raises(cli._UsageError, match=r"cutoff 7e\+13 needs about 40\.2 GB"):
        cli._parse_lambdas("7e13")
    # from e^32 on, the kink -2 log(cutoff) <= -64 falls outside
    # trace_spectral's log window [-64, 64]
    from quatgamma.gamma_op import DEFAULT_V_HALF_WIDTH

    assert cli._SPECTRAL_HALF_WIDTH == DEFAULT_V_HALF_WIDTH
    for text in (repr(math.exp(32.0)), "1e14", "1e300"):
        with pytest.raises(cli._UsageError, match="outside the spectral window"):
            cli._parse_lambdas("2," + text)
    out = tmp_path / "t.csv"
    assert main(["trace-sweep", "--lambda-list", repr(math.exp(32.0)), "--out", str(out)]) == 2
    assert not out.exists()


# ----------------------------------------------------------------- g-constant


def test_g_constant_report(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["g-constant", "--out", str(out)]) == 0
    text = capsys.readouterr().out
    report = json.loads(out.read_text(encoding="utf-8"))
    closed = report["closed_form"]
    assert abs(closed - 7.6603709252) <= 1e-9
    assert abs(report["epsilon2_coefficient"] - closed) <= 1e-12
    assert abs(report["epsilon_coefficient"] - 1.0) <= 1e-14
    # the printed figures are the written report's, to every digit
    assert text == (
        f"epsilon coefficient    {report['epsilon_coefficient']:.17g}\n"
        f"epsilon^2 coefficient  {report['epsilon2_coefficient']:.17g}\n"
        f"closed form            {closed:.17g}\n"
        f"difference             {report['difference']:.17g}\n"
    )


def test_g_constant_rerun_prints_identically(capsys):
    assert main(["g-constant"]) == 0
    first = capsys.readouterr().out
    assert main(["g-constant"]) == 0
    assert capsys.readouterr().out == first


def test_g_constant_tolerance_floor():
    assert main(["g-constant", "--tol", "1e-11"]) == 2


def test_parser_is_built_once():
    # main reuses one parser (test_g_constant_rerun_prints_identically runs
    # it twice in process); a parse leaves nothing behind for the next
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    assert parser.parse_args(["g-constant", "--tol", "1e-9"]).tol == 1e-9
    assert parser.parse_args(["g-constant"]).tol == 1e-7


# ------------------------------------------------------------------- plumbing


# each README invocation and the manifest its outputs carry
README_MANIFESTS = [
    ("gamma-table --n-min 0 --n-max 4 --tau-min -10 --tau-max 10 --tau-step 0.01 --out gamma.csv",
     {"n_max": 4, "n_min": 0, "tau_max": 10.0, "tau_min": -10.0, "tau_step": 0.01}),
    ("gamma-table --n-max 4 --s-grid 20x20 --out strip.csv", {"n_max": 4, "n_min": 0, "s_grid": "20x20"}),
    ("spectral-scan --n-max 20 --tau-min -100 --tau-max 100 --tau-step 0.1 --out scan.csv",
     {"n_max": 20, "n_min": 0, "tau_max": 100.0, "tau_min": -100.0, "tau_step": 0.1}),
    ("functional-eq --n-max 6 --s-grid 20x20 --out residuals.csv", {"n_max": 6, "n_min": 0, "s_grid": "20x20"}),
    ("oracle-check --grid-m 33 --grid-l 2.0 --probes 6 --seed 7 --out oracle.json",
     {"grid_l": 2.0, "grid_m": 33, "probes": 6, "seed": 7}),
    ("trace-sweep --n-min 0 --lambda-list 2,4,8,16,32,64 --out trace.csv",
     {"lambda_list": "2,4,8,16,32,64", "n_min": 0, "profile_scale": 1.0, "profile_width": 1.0, "tol": 1e-08}),
    ("g-constant", {"tol": 1e-07}),
]


@pytest.mark.parametrize("argv, flags", README_MANIFESTS, ids=[a.split()[0] + str(i) for i, (a, _) in enumerate(README_MANIFESTS)])
def test_manifest_is_read_off_the_arguments(argv, flags):
    args = cli.build_parser().parse_args(argv.split())
    want = {"command": argv.split()[0], "version": cli.__version__, **flags}
    assert cli._manifest(args) == want


# the figures the README invocations publish: each trace-sweep and
# functional-eq summary, the spectral-scan summary, and the oracle-check
# report less duration_seconds (numpy 2.4.6, scipy 1.17.1)
README_FIGURES = [
    ("trace-sweep --n-min 0 --lambda-list 2,4,8,16,32,64", "trace.csv",
     {"f_at_1": 0.9999999999999998, "h_at_1": -5.948985929717782, "intercept": 5.948985929717552,
      "max_route_discrepancy": 6.0102234449346675e-09, "rows": 6, "slope": 1.0000000000000275}),
    ("trace-sweep --n-min 1 --lambda-list 2,4,8", "trace_odd.csv",
     {"f_at_1": 1.9999999999999996, "h_at_1": -10.005843245854749, "intercept": 10.005840646847858,
      "max_route_discrepancy": 7.62007063130586e-10, "rows": 3, "slope": 2.0000005006764376}),
    ("functional-eq --n-max 6 --s-grid 20x20", "residuals.csv",
     {"max_funceq_residual": 2.0644773339064945e-15, "max_quad_residual": 3.300581162219783e-14, "rows": 2800}),
    ("spectral-scan --n-max 20 --tau-min -100 --tau-max 100 --tau-step 0.1", "scan.csv",
     {"max_abs_k": 6.90273807945035, "max_abs_k_at": [0, 0.30000000000001137], "min_h": -9.660370925243514,
      "min_h_at": [0, 0.0], "rows": 42021}),
    ("oracle-check --grid-m 33 --grid-l 2.0 --probes 6 --seed 7", "oracle.json",
     {"multiplier_vs_brute": {"0": 2.7139787098444736e-05, "1": 3.2886756793638184e-05, "2": 0.001725955813706043},
      "self_dual_error": 3.2438507401438306e-12, "self_dual_error_m_halved": 0.000366865164936217}),
]


def _assert_figures_close(got, want, where=""):
    if isinstance(want, dict):
        assert sorted(got) == sorted(want), where
        for key in want:
            _assert_figures_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_figures_close(g, w, f"{where}[{i}]")
    elif isinstance(want, int):
        assert got == want, where
    else:
        # another numpy or scipy moves the last bits: 1e-12 relative, and for
        # rounding-level figures (residuals, route gaps) 1e-13 absolute
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-13), f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("argv, name, figures", README_FIGURES, ids=[n for _, n, _ in README_FIGURES])
def test_readme_figures_are_pinned(argv, name, figures, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv.split() + ["--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8")) if name.endswith(".json") else read_summary(out)
    del report["manifest"], report["duration_seconds"]
    _assert_figures_close(report, figures)


def test_failed_write_keeps_previous_file(tmp_path):
    out = tmp_path / "t.csv"
    out.write_bytes(b"# old table\nN,x,y\n0,1,2\n")
    before = out.read_bytes()
    keys = (np.array([1.0]),)

    def blocks():
        yield 0, (np.array([2.0]),)
        raise RuntimeError("numerical failure mid-table")

    with pytest.raises(RuntimeError):
        cli._write_csv(str(out), {"command": "test"}, ("N", "x", "y"), keys, blocks())
    assert out.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]
    rows = cli._write_csv(str(out), {"command": "test"}, ("N", "x", "y"), keys, [(0, (np.array([2.0]),))])
    assert rows == 1
    assert out.read_text(encoding="utf-8").endswith("N,x,y\n0,1,2\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["t.csv"]


def _row_wise_csv(path, manifest, header, rows):
    """The reference writer: one "%d"/"%.17g" row format applied to each
    row tuple in turn."""
    fmt = ",".join("%d" if name == "N" else "%.17g" for name in header) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("# " + json.dumps(manifest, sort_keys=True) + "\n")
        fh.write(",".join(header) + "\n")
        fh.writelines(fmt % row for row in rows)


def _rows_of(keys, blocks):
    """The row tuples of a column table: (N,) keys, values per row."""
    return [
        (() if n is None else (n,)) + tuple(key[i] for key in keys) + tuple(v[i] for v in values)
        for n, values in blocks
        for i in range(len(keys[0]))
    ]


# nan, +-inf, -0.0, the smallest subnormal, 1e308, and values whose
# shortest repr is shorter than 17 digits (a "%r" format would differ)
SPECIAL = np.array([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e308, 0.1, 1.0 / 3.0, -2.5e-7])
RNG = np.random.default_rng(12)


@pytest.mark.parametrize(
    "header, keys, blocks",
    [
        # sector column and shared key columns
        (
            ("N", "re_s", "im_s", "a", "b"),
            (RNG.random(9), SPECIAL),
            [(0, (SPECIAL[::-1], RNG.normal(size=9))), (7, (RNG.normal(size=9) * 1e-300, SPECIAL))],
        ),
        # trace-sweep: no sector column, one block
        (("lambda", "x", "y", "z"), (SPECIAL,), [(None, (SPECIAL, -SPECIAL, RNG.normal(size=9)))]),
        # empty tables: no blocks, or blocks of no rows
        (("N", "re_s", "im_s", "a"), (np.empty(0), np.empty(0)), []),
        (("N", "tau", "h"), (np.empty(0),), [(0, (np.empty(0),)), (1, (np.empty(0),))]),
        # single rows
        (("N", "tau", "h", "k"), (SPECIAL[:1],), [(n, (SPECIAL[n : n + 1], SPECIAL[-1:])) for n in range(9)]),
        (("lambda", "x"), (np.array([-0.0]),), [(None, (np.array([5e-324]),))]),
    ],
    ids=["sectors", "trace-sweep", "empty", "empty-blocks", "single-rows", "single-row-no-sector"],
)
def test_column_writer_matches_row_wise_writer(header, keys, blocks, tmp_path):
    got, want = tmp_path / "got.csv", tmp_path / "want.csv"
    manifest = {"command": "test", "s_grid": "3x3"}
    rows = cli._write_csv(str(got), manifest, header, keys, iter(blocks))
    _row_wise_csv(str(want), manifest, header, _rows_of(keys, blocks))
    assert got.read_bytes() == want.read_bytes()
    assert rows == len(_rows_of(keys, blocks))


def test_readme_functional_eq_matches_row_wise_table(tmp_path):
    from quatgamma.additive_oracle import (
        functional_equation_residual,
        gaussian_moment,
        gaussian_moment_quadrature,
    )

    got, want = tmp_path / "residuals.csv", tmp_path / "want.csv"
    assert main(["functional-eq", "--n-max", "6", "--s-grid", "20x20", "--out", str(got)]) == 0
    manifest, header, _ = read_table(got)
    s = np.asarray(cli._parse_s_grid("20x20", range(7)))
    rows = []
    for n in range(7):
        fe = functional_equation_residual(n, s)
        closed = gaussian_moment(n, s)
        quad = np.abs(gaussian_moment_quadrature(n, s) - closed) / np.abs(closed)
        rows += [(n, z.real, z.imag, a, b) for z, a, b in zip(s.tolist(), fe.tolist(), quad.tolist())]
    _row_wise_csv(str(want), manifest, header, rows)
    assert got.read_bytes() == want.read_bytes()


def test_subcommand_required():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_module_entry_subprocess(tmp_path):
    out = tmp_path / "sub.csv"
    proc = subprocess.run(
        [
            sys.executable, "-m", "quatgamma.cli",
            "gamma-table", "--tau-min", "0", "--tau-max", "1", "--tau-step", "0.5",
            "--out", str(out),
        ],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.read_text(encoding="utf-8").startswith("# {")
