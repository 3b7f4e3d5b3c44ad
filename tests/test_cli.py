"""CLI contract: files, formats, exit codes, determinism."""

import json

import numpy as np
import pytest

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


def test_parser_registers_all_examples():
    parser = build_parser()
    text = parser.format_help()
    for name in EXAMPLES:
        assert name in text


@pytest.mark.parametrize("example", EXAMPLES)
def test_every_example_runs_and_passes(tmp_path, example):
    code, out = _run(tmp_path, example)
    assert code == 0
    report = json.loads((out / f"{example}_report.json").read_text())
    assert report["meta"]["example"] == example
    assert all(check["passed"] for check in report["checks"])


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

    outs = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        result = subprocess.run(
            [sys.executable, "-m", "sip_lab.cli", "two-to-one", "--samples",
             "300", "--seed", "5", "--grid", "16", "--out", str(out)],
            capture_output=True,
        )
        assert result.returncode == 0, result.stderr.decode()
        outs.append({p.name: p.read_bytes() for p in out.iterdir()})
    assert outs[0] == outs[1]


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


def test_bjw_kde_evaluates_the_grid_once(tmp_path, monkeypatch):
    from sip_lab import _kernels

    grid = 20
    real = _kernels.kde_log_pdf
    grid_calls = []

    def counting(points, data, bandwidth):
        if len(points) == grid**2:
            grid_calls.append(len(data))
        return real(points, data, bandwidth)

    monkeypatch.setattr(_kernels, "kde_log_pdf", counting)
    code = main(["bjw-kde", "--samples", "300", "--seed", "11", "--grid", str(grid),
                 "--out", str(tmp_path / "kde")])
    assert code == 0
    assert grid_calls == [300]
