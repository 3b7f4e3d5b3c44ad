"""CLI contract: files, formats, exit codes, determinism."""

import json
import os
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sip_lab import GaussianParams
from sip_lab.cli import EXAMPLES, RunConfig, build_parser, main


def _run(tmp_path, example, *extra):
    out = tmp_path / example
    argv = [example, "--samples", "400", "--seed", "11", "--grid", "24",
            "--out", str(out), *extra]
    code = main(argv)
    return code, out


def test_unknown_example_exits_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["does-not-exist"])
    assert err.value.code == 2
    assert "two-to-one" in capsys.readouterr().err


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(example="two-to-one", samples=0)
    with pytest.raises(ValueError):
        RunConfig(example="two-to-one", grid=1)
    with pytest.raises(ValueError):
        RunConfig(example="two-to-one", seed=-1)
    with pytest.raises(ValueError):
        RunConfig(example="nope")
    with pytest.raises(ValueError):
        RunConfig(example="two-to-one", w=float("nan"))
    with pytest.raises(ValueError):
        RunConfig(example="two-to-one", w=1.5)
    with pytest.raises(ValueError):
        RunConfig(example="stochastic-map-mean", n=0)
    for sigma in (0.0, -1.0, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(example="cov-linear-mvn", sigma=sigma)
    for xstar in (float("nan"), float("inf")):
        with pytest.raises(ValueError):
            RunConfig(example="regression-compare", xstar=xstar)


def test_invalid_flag_exits_2(capsys):
    for argv in (["two-to-one", "--samples", "0"],
                 ["bjw-kde", "--samples", "1"],
                 ["intuitive-demo", "--samples", "1"],
                 ["stochastic-map-mean", "--n", "0"],
                 ["cov-linear-mvn", "--sigma", "0"],
                 ["cov-linear-mvn", "--sigma", "nan"],
                 ["regression-compare", "--xstar", "nan"]):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert argv[1] in capsys.readouterr().err


def test_parser_registers_all_examples():
    # one help page names every example and every flag
    parser = build_parser()
    text = parser.format_help()
    for name in EXAMPLES:
        assert name in text
    for f in fields(RunConfig)[1:]:
        assert f"--{f.name}" in text


@pytest.mark.parametrize("argv", [["bbe-linear", "--w", "0.3"], ["two-to-one", "--sigma", "2"],
                                  ["regression-compare", "--n", "3"], ["all", "--xstar", "1"]])
def test_flag_an_example_does_not_take_exits_2(capsys, monkeypatch, argv):
    monkeypatch.setattr("sip_lab.cli.run_example", lambda cfg: pytest.fail("ran"))
    with pytest.raises(SystemExit) as err:
        main(argv)
    assert err.value.code == 2
    assert argv[1] in capsys.readouterr().err


def test_parser_is_built_once_and_parses_each_call_afresh(monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr("sip_lab.cli.run_example", lambda cfg: seen.append(cfg) or 0)
    assert main(["two-to-one", "--w", "0.25", "--seed", "3"]) == 0
    assert main(["regression-compare", "--sigma", "2.5", "--format", "json"]) == 0
    assert main(["two-to-one"]) == 0
    assert seen == [RunConfig(example="two-to-one", w=0.25, seed=3),
                    RunConfig(example="regression-compare", sigma=2.5, format="json"),
                    RunConfig(example="two-to-one")]


@pytest.mark.parametrize("example", EXAMPLES)
def test_every_example_runs_and_passes(tmp_path, example):
    code, out = _run(tmp_path, example)
    assert code == 0
    report = json.loads((out / f"{example}_report.json").read_text())
    assert report["meta"]["example"] == example
    assert all(check["passed"] for check in report["checks"])


def test_holm_passes_a_correct_run_that_one_raw_p_value_fails(tmp_path):
    # stochastic-map-mean runs 11 tests; at this seed one KS p-value is
    # 0.0014, which failed the uncorrected check, and 11 x 0.0014 >= 0.01
    out = tmp_path / "smm"
    code = main(["stochastic-map-mean", "--samples", "2000", "--seed", "27",
                 "--out", str(out)])
    checks = json.loads((out / "stochastic-map-mean_report.json").read_text())["checks"]
    (check,) = [c for c in checks if c["name"] == "pushforward"]
    raw = [float(note.split("=")[1]) for note in check["details"].split(", ")]
    assert code == 0 and len(raw) == 11 and min(raw) < 0.01
    assert check["statistic"] == pytest.approx(11 * min(raw), rel=1e-3)


def test_csv_format_contract(tmp_path):
    _, out = _run(tmp_path, "two-to-one")
    raw = (out / "two-to-one_samples.csv").read_bytes()
    assert b"\r" not in raw  # LF endings only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "theta_1"
    values = np.array([float(v) for v in lines[1:]])
    assert values.shape[0] == 400
    # 17 significant digits round-trip exactly
    assert lines[1] == f"{values[0]:.17g}"


def test_json_format_contract(tmp_path):
    out = tmp_path / "json-mode"
    code = main(["regression-compare", "--samples", "200", "--seed", "3",
                 "--grid", "16", "--format", "json", "--out", str(out),
                 "--sigma", "1.0", "--xstar", "2.0"])
    assert code == 0
    payload = json.loads((out / "regression-compare.json").read_text())
    assert set(payload) == {"meta", "data", "params", "checks"}
    assert payload["meta"]["seed"] == 3
    predictive = payload["params"]["predictive"]
    assert predictive["mean"] == pytest.approx(2.0)
    assert predictive["variance"] == pytest.approx(0.5 * (1 + 4.0))
    assert payload["data"]["samples"]["labels"] == ["theta_1", "theta_2"]
    assert len(payload["data"]["samples"]["rows"]) == 200


def test_two_to_one_weight_flag(tmp_path):
    _, out = _run(tmp_path, "two-to-one", "--w", "1.0")
    samples = np.loadtxt(out / "two-to-one_samples.csv", skiprows=1)
    assert np.all(samples < 0)


def test_repeat_runs_byte_identical(tmp_path):
    _, first = _run(tmp_path / "a", "bbe-polar")
    _, second = _run(tmp_path / "b", "bbe-polar")
    for path in sorted(first.iterdir()):
        assert path.read_bytes() == (second / path.name).read_bytes()


def test_subprocess_runs_byte_identical(tmp_path):
    import subprocess
    import sys

    import sip_lab

    # the child imports the same sip_lab, installed or not
    package_parent = str(Path(sip_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = subprocess.run(
            [sys.executable, "-m", "sip_lab.cli", "two-to-one", "--samples",
             "300", "--seed", "5", "--grid", "16", "--out", str(out)],
            capture_output=True, env=env,
        )
        assert result.returncode == 0, result.stderr.decode()
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


def test_examples_never_import_scipy(tmp_path):
    # scipy is a test oracle only: importing sip_lab and running every
    # example must leave no scipy module loaded
    import subprocess
    import sys

    import sip_lab

    package_parent = str(Path(sip_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
    code = (
        "import contextlib, io, json, sys\n"
        "import sip_lab\n"
        "from sip_lab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main([ex, '--samples', '200', '--out', sys.argv[1]])\n"
        "             for ex in cli.EXAMPLES]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules\n"
        "                                if m == 'scipy' or m.startswith('scipy.'))]))\n"
    )
    result = subprocess.run([sys.executable, "-c", code, str(tmp_path)],
                            capture_output=True, env=env, text=True)
    assert result.returncode == 0, result.stderr
    codes, loaded = json.loads(result.stdout.splitlines()[-1])
    assert codes == [0] * len(EXAMPLES)
    assert loaded == []


def test_failed_check_exits_1(tmp_path, monkeypatch):
    from sip_lab import cli
    from sip_lab.verification import CheckReport

    def broken(cfg):
        result = cli.ExampleResult()
        result.checks.append(CheckReport("forced", statistic=1.0, threshold=0.5,
                                         comparison="le"))
        return result

    monkeypatch.setitem(cli._RUNNERS, "two-to-one", broken)
    code = main(["two-to-one", "--out", str(tmp_path / "broken")])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["cov-linear-mvn", "--sigma", "1e-12"],  # the augmented pullback is not positive definite
    ["cov-linear-mvn", "--sigma", "1e-17"],  # the grid box rounds to empty
    ["regression-compare", "--sigma", "1e-17"],
    ["regression-compare", "--sigma", "1e155"],  # sigma**2 overflows
    ["regression-compare", "--xstar", "1e160"],  # the predictive variance is inf
])
def test_flag_value_an_example_cannot_run_with_exits_2(tmp_path, argv):
    # the console script and python -m print one line and exit 2, no traceback
    import subprocess
    import sys

    import sip_lab

    package_parent = str(Path(sip_lab.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [package_parent, os.environ.get("PYTHONPATH")])))
    result = subprocess.run(
        [sys.executable, "-m", "sip_lab.cli", *argv, "--samples", "200", "--grid", "8",
         "--out", str(tmp_path / "out")], capture_output=True, env=env, text=True)
    assert result.returncode == 2, result.stderr
    assert "Traceback" not in result.stderr and "RuntimeWarning" not in result.stderr
    assert [line for line in result.stderr.splitlines()
            if line.startswith("sip-lab: error: ")] == [result.stderr.splitlines()[-1]]


def test_main_raises_where_the_console_script_exits_2(tmp_path):
    # in-process callers (the benchmark's worker) still see the error itself
    from sip_lab.errors import NotPositiveDefiniteError

    with pytest.raises(NotPositiveDefiniteError):
        main(["cov-linear-mvn", "--sigma", "1e-12", "--samples", "200", "--grid", "8",
              "--out", str(tmp_path)])


def test_csv_writer_matches_per_value_formatting(tmp_path):
    from sip_lab.cli import _write_csv

    rng = np.random.default_rng(17)
    rows = rng.standard_normal((16384, 4)) * 10.0 ** rng.integers(-300, 300, (16384, 4))
    special = [np.inf, -np.inf, np.nan, -0.0, 0.0, 1e-300, 1e22, 5e-324, 0.1]
    picks = rows.flat[::97].shape[0]
    rows.flat[::97] = np.resize(special, picks)
    labels = ("a", "b", "c", "d")
    path = tmp_path / "rows.csv"
    _write_csv(path, labels, rows)
    # reference: each value on its own through 17-significant-digit formatting
    expected = ",".join(labels) + "\n" + "".join(
        ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows
    )
    assert path.read_bytes() == expected.encode()


def _per_value_csv(labels, rows):
    return ",".join(labels) + "\n" + "".join(
        ",".join(f"{float(v):.17g}" for v in row) + "\n" for row in rows
    )


def test_csv_writer_formats_repeated_values_per_value(tmp_path):
    # the writer formats each distinct bit pattern of a column once; every
    # cell must still read as its own value formatted on its own
    from sip_lab.cli import CSV_BLOCK_ROWS, _write_csv

    axis = np.linspace(-3.0, 3.0, 40)
    x, y = np.meshgrid(axis, axis, indexing="ij")
    density = np.exp(-1000.0 * (x**2 + y**2))  # mostly underflows to exact 0
    assert np.mean(density == 0.0) > 0.5
    grid = np.column_stack([x.ravel(), y.ravel(), density.ravel()])

    nans = np.array([0x7FF8000000000001, 0x7FF8000000000002, -0x0008000000000000],
                    dtype=np.int64).view(np.float64)
    assert np.all(np.isnan(nans))
    specials = np.concatenate([nans, [np.inf, -np.inf, -0.0, 0.0, 1.0]])
    n = 3 * CSV_BLOCK_ROWS + 5
    straddle = np.resize([0.1, -0.0, 0.0, 2.5], n)
    straddle[CSV_BLOCK_ROWS - 2:CSV_BLOCK_ROWS + 2] = 7.25  # across a block boundary
    repeated = np.column_stack([np.resize(specials, n), straddle,
                                np.resize(nans[::-1], n)])

    tables = {
        "grid": (("x", "y", "density"), grid),
        "signed_zeros": (("z",), np.array([[-0.0], [0.0], [0.0], [-0.0]])),
        "repeated": (("a", "b", "c"), repeated),
        "no_rows": (("a", "b"), np.empty((0, 2))),
        "one_row": (("a", "b", "c"), np.array([[-0.0, 0.0, -0.0]])),
        "one_column": (("a",), np.resize([1e-300, 0.0, 5e-324], (50, 1))),
    }
    for name, (labels, rows) in tables.items():
        path = tmp_path / f"{name}.csv"
        _write_csv(path, labels, rows)
        assert path.read_bytes() == _per_value_csv(labels, rows).encode(), name
    assert (tmp_path / "signed_zeros.csv").read_text() == "z\n-0\n0\n0\n-0\n"


@pytest.mark.parametrize("example", EXAMPLES)
def test_example_tables_match_per_value_formatting(tmp_path, example):
    # %.17g round-trips a double, so each written table must equal the
    # per-value formatting of the values parsed back from it
    out = tmp_path / example
    main([example, "--samples", "200", "--seed", "5", "--grid", "24", "--out", str(out)])
    paths = sorted(out.glob("*.csv"))
    assert paths
    for path in paths:
        header, *lines = path.read_text().split("\n")[:-1]
        rows = [[float(v) for v in line.split(",")] for line in lines]
        assert rows
        expected = _per_value_csv(header.split(","), rows)
        assert path.read_bytes() == expected.encode(), path.name


def test_bjw_kde_evaluates_the_grid_once(tmp_path, monkeypatch):
    # The pushforward KDE is 1-D, so its exact kernels run once over the
    # nodes of its log-density table, a block of nodes per call, and the
    # grid reads the table: the KDE's log density sees each grid point once
    # while the grid table is made, in blocks of at most POINT_BLOCK + 1 points.
    from sip_lab import _kernels, cli
    from sip_lab.densities import KdeDensity

    grid, m = 128, 300
    real_kernel, real_log_pdf = _kernels.kde_log_pdf, KdeDensity._log_pdf
    real_table, real_build = cli._density_grid_table, _kernels.kde_table
    kernel_points, kde_grid_calls, in_table, in_build = [], [], [], []

    def counting_kernel(points, data, bandwidth, slope=None):
        kernel_points.append((len(points), len(data), bool(in_build)))
        return real_kernel(points, data, bandwidth, slope=slope)

    def watched_build(*args):
        in_build.append(True)
        try:
            return real_build(*args)
        finally:
            in_build.clear()

    def counting_log_pdf(self, pts):
        if in_table:
            kde_grid_calls.append((len(self.data), len(pts)))
        return real_log_pdf(self, pts)

    def watched_table(*args, **kwargs):
        in_table.append(True)
        try:
            return real_table(*args, **kwargs)
        finally:
            in_table.clear()

    monkeypatch.setattr(_kernels, "kde_log_pdf", counting_kernel)
    monkeypatch.setattr(_kernels, "kde_table", watched_build)
    monkeypatch.setattr(KdeDensity, "_log_pdf", counting_log_pdf)
    monkeypatch.setattr(cli, "_density_grid_table", watched_table)
    code = main(["bjw-kde", "--samples", str(m), "--seed", "11", "--grid", str(grid),
                 "--out", str(tmp_path / "kde")])
    assert code == 0
    assert {centres for centres, _ in kde_grid_calls} == {m}
    assert sum(n for _, n in kde_grid_calls) == grid**2
    report = json.loads((tmp_path / "kde" / "bjw-kde_report.json").read_text())
    table = report["params"]["pushforward_kde_table"]
    assert table["tabulated"] and table["log_error_estimate"] <= _kernels.KDE_TABLE_TOL
    assert sum(n for n, _, build in kernel_points if build) == table["nodes"]
    pairs = sum(n * centres for n, centres, _ in kernel_points)
    assert 10 * pairs <= grid**2 * m


@pytest.mark.parametrize("sigma", [1e-100, 1e-7, 1.0, 1e100])
def test_regression_checks_are_relative_to_sigma(sigma):
    # the covariances scale as sigma^2: both checks pass at every scale
    from sip_lab import cli

    *_, checks = cli._regression_closed_forms(sigma, 2.0)
    assert [c.name for c in checks] == ["cov_equals_flat_posterior", "predictive_formula"]
    assert all(c.passed for c in checks)


@pytest.mark.parametrize("sigma", [1e-7, 1e100])
def test_regression_check_fails_a_perturbed_covariance(monkeypatch, sigma):
    # at sigma = 1e-7 the covariance is about 5e-15, below an absolute 1e-12
    from sip_lab import cli

    real = cli.cov_linear_gaussian

    def perturbed(*args):
        solution = real(*args)
        return GaussianParams(solution.mean, solution.cov * (1.0 + 1e-9))

    monkeypatch.setattr(cli, "cov_linear_gaussian", perturbed)
    agreement, _ = cli._regression_closed_forms(sigma, 2.0)[-1]
    assert not agreement.passed


def _cov_grid_check(sigma):
    from sip_lab import cli

    cfg = RunConfig(example="cov-linear-mvn", samples=200, seed=11, grid=24, sigma=sigma)
    [check] = [c for c in cli._run_cov_linear_mvn(cfg).checks if c.name == "grid_compare"]
    return check


@pytest.mark.parametrize("sigma", [1e-4, 0.01, 1e4, 1e8])
def test_cov_linear_mvn_grid_check_is_relative_to_the_density(sigma):
    # the density scales as 1 / sigma^2: the check's tolerance scales with it
    assert _cov_grid_check(sigma).passed


def test_cov_linear_mvn_grid_check_fails_a_perturbed_column_at_large_sigma(monkeypatch):
    # at sigma = 1e8 the density's peak is about 3e-17, below an absolute 1e-12
    from sip_lab import cli

    real_table = cli._density_grid_table

    def perturbed(*args, **kwargs):
        labels, table = real_table(*args, **kwargs)
        table[:, -1] *= 1.0 + 1e-9
        return labels, table

    assert _cov_grid_check(1e8).passed
    monkeypatch.setattr(cli, "_density_grid_table", perturbed)
    assert not _cov_grid_check(1e8).passed


def _assert_formats_per_value(values):
    from sip_lab.cli import _format17

    values = np.asarray(values, dtype=np.float64).ravel()
    got = _format17(values)
    assert got.dtype == np.dtype("S24") and got.shape == values.shape
    want = np.array([f"{v:.17g}".encode() for v in values.tolist()], dtype="S24")
    bad = np.flatnonzero(got != want)
    assert bad.size == 0, [(values[i], got[i], want[i]) for i in bad[:5]]


def test_digit_tables_hold_each_four_digit_group_and_its_trailing_zeros():
    from sip_lab.cli import _digit_tables

    text, zeros = _digit_tables()
    groups = [f"{i:04d}".encode() for i in range(10_000)]
    np.testing.assert_array_equal(text, np.frombuffer(b"".join(groups), dtype=np.uint32))
    assert zeros.dtype == np.int8
    np.testing.assert_array_equal(zeros, [len(g) - len(g.rstrip(b"0")) for g in groups])


def test_format17_matches_per_value_formatting_on_random_bit_patterns():
    # uniform bit patterns: every exponent, NaN payloads, +-inf, +-0, subnormals
    rng = np.random.default_rng(36)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, 120_000,
                        dtype=np.int64, endpoint=True)
    specials = np.array([0x7FF8000000000001, -0x0008000000000000, 0x7FF0000000000000,
                         -0x0010000000000000, 0, -0x8000000000000000, 1, 0x000FFFFFFFFFFFFF],
                        dtype=np.int64)
    values = np.concatenate([specials, bits]).view(np.float64)
    assert np.isnan(values).any() and np.isinf(values).any()
    assert ((values != 0) & (np.abs(values) < 2.2250738585072014e-308)).any()
    _assert_formats_per_value(values)


def test_format17_matches_per_value_formatting_at_powers_of_ten():
    powers = np.array([float(f"1e{e}") for e in range(-330, 331)])
    neighbours = [np.nextafter(powers, 0.0), np.nextafter(powers, np.inf)]
    _assert_formats_per_value(np.concatenate([powers, *neighbours, -powers]))


def test_format17_matches_per_value_formatting_where_g_switches_notation():
    # %.17g is fixed for decimal exponents -4..16 and scientific outside
    edges = np.array([1e-5, 1e-4, 1e16, 1e17])
    near = (edges[:, None] * (1.0 + np.arange(-50, 51) * 2.0**-52)).ravel()
    rounded = np.array([9.9999e-5, 0.0001, 0.00010000000000000001, 9999999999999998.0,
                        1.0000000000000002e16, 99999999999999984.0, 1.2e17, 123456.0,
                        1.5, 100.0, 0.5, 3e-4])
    _assert_formats_per_value(np.concatenate([near, rounded, -rounded]))


def test_format17_matches_per_value_formatting_at_the_top_of_each_decade():
    # 18 nines would round up into the next decade at 17 digits, but no
    # double lies that close below a power of ten: 9.99999999999999999e22 is
    # the double 99999999999999991611392, whose 17 digits do not carry
    assert f"{9.99999999999999999e22:.17g}" == "9.9999999999999992e+22"
    nines = np.array([float("9" * 18 + f"e{e}") for e in range(-320, 300)])
    below = np.nextafter(np.array([float(f"1e{e}") for e in range(-320, 300)]), 0.0)
    _assert_formats_per_value(np.concatenate([nines, below, np.nextafter(nines, 0.0), -nines]))


def test_format17_matches_per_value_formatting_on_exact_ties():
    # M / 2^e with M odd, not a multiple of 5, and M 5^e of 18 digits has 18
    # significant digits, the last a 5: its 17-digit rounding is an exact tie
    # that round-half-even decides, e.g. 12345678901 / 2^10 = 12056327.0517578125
    assert 12345678901 / 2**10 == 12056327.0517578125
    rng = np.random.default_rng(7)
    ties = []
    for e in range(2, 25):  # e = 1 needs M above 2^53
        low, high = -(-10**17 // 5**e), (10**18 - 1) // 5**e
        for m in rng.integers(low, min(high, 2**53) + 1, 200).tolist():
            m |= 1
            if m % 5 and len(str(m * 5**e)) == 18:
                ties.append(m / 2**e)
    assert len(ties) > 3000
    _assert_formats_per_value(ties + [-v for v in ties] + [12056327.0517578125])


def test_format17_matches_per_value_formatting_on_rounded_decimals_and_empty():
    rng = np.random.default_rng(5)
    values = rng.standard_normal(20_000) * 10.0 ** rng.integers(-12, 12, 20_000)
    _assert_formats_per_value(np.concatenate([np.round(values, 3), values]))
    _assert_formats_per_value(np.empty(0))


def test_all_writes_the_files_of_ten_single_runs(tmp_path, capsys):
    flags = ["--seed", "7", "--samples", "200", "--grid", "8"]
    assert main(["all", *flags, "--out", str(tmp_path / "all")]) == 0
    for example in EXAMPLES:
        assert main([example, *flags, "--out", str(tmp_path / "one")]) == 0
    written = sorted(p.name for p in (tmp_path / "all").iterdir())
    assert written == sorted(p.name for p in (tmp_path / "one").iterdir())
    assert len(written) == 3 * len(EXAMPLES)
    for name in written:
        assert (tmp_path / "all" / name).read_bytes() == (tmp_path / "one" / name).read_bytes()
    assert "all" not in EXAMPLES


def test_all_exits_with_the_worst_code(monkeypatch):
    codes = dict.fromkeys(EXAMPLES, 0) | {"bbe-polar": 1}
    seen = []
    monkeypatch.setattr("sip_lab.cli.run_example",
                        lambda cfg: seen.append(cfg) or codes[cfg.example])
    assert main(["all", "--seed", "3"]) == 1
    assert seen == [RunConfig(example=name, seed=3) for name in EXAMPLES]
    with pytest.raises(SystemExit) as err:  # bjw-kde needs two samples: nothing runs
        main(["all", "--samples", "1"])
    assert err.value.code == 2 and len(seen) == len(EXAMPLES)
