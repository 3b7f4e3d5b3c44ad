"""tools/artifact_digests.py, the tool that a byte-identity claim between two
checkouts is a ``diff`` of, and the other tools under ``tools/``."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from sip_lab import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def _digests(*flags):
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(TOOL), *flags, "--samples", "200", "--grid", "8"],
                          capture_output=True, text=True, check=True, timeout=120,
                          env=env).stdout


def test_artifact_digests_hash_every_example_the_same_twice():
    first = _digests()
    assert _digests() == first
    lines = first.splitlines()
    assert [line for line in lines if not line.startswith("  ")] == \
        [f"{example} exit 0" for example in cli.EXAMPLES]
    artifacts = [re.fullmatch(r"  [0-9a-f]{64}  (\S+)", line).group(1)
                 for line in lines if line.startswith("  ")]
    for example in cli.EXAMPLES:
        assert {f"{example}_report.json", f"{example}_samples.csv"} <= set(artifacts)


def test_artifact_digests_seed_range_prints_a_section_per_seed():
    # one process for the whole range, each section as a single-seed run prints it
    swept = _digests("--seeds", "0-1")
    sections = swept.split("seed ")[1:]
    assert [section.split("\n", 1)[0] for section in sections] == ["0", "1"]
    for seed, section in enumerate(sections):
        assert section.split("\n", 1)[1] == _digests("--seed", str(seed))
    assert sections[0].split("\n", 1)[1] != sections[1].split("\n", 1)[1]


def test_calibration_sweep_counts_every_example_at_every_seed():
    tool = TOOL.parent / "calibration_sweep.py"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, str(tool), "0", "1", "200"], capture_output=True,
                            text=True, check=True, timeout=120, env=env)
    assert result.stdout.splitlines()[-1].endswith("failing runs of 10")


def test_bench_record_quick_appends_a_point_of_every_measurement(tmp_path):
    # the schema only: a quick point's times are not comparable, so none is asserted
    tool = TOOL.parent / "bench_record.py"
    target = tmp_path / "BENCH_examples.json"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    target.write_text(json.dumps({"points": [{"label": "earlier"}]}))
    subprocess.run([sys.executable, str(tool), "--quick", "--file", str(target),
                    "--label", "quick"], capture_output=True, text=True, check=True,
                   timeout=300, env=env)
    points = json.loads(target.read_text())["points"]
    assert [p["label"] for p in points] == ["earlier", "quick"]
    point = points[-1]
    assert point["commit"] is None or re.fullmatch(r"[0-9a-f]{40}", point["commit"])
    assert isinstance(point["dirty"], bool)
    assert point["quick"] is True and point["repeats"] == 1
    assert {"date", "python", "numpy", "nproc", "unit"} <= point.keys()
    assert list(point["in_process_s"]) == list(cli.EXAMPLES)
    assert list(point["fresh_single_s"]) == list(cli.EXAMPLES)
    assert list(point["first_parse_s"]) == [*cli.EXAMPLES, "all"]
    times = [*point["in_process_s"].values(), *point["fresh_single_s"].values(),
             *point["first_parse_s"].values(), point["in_process_sum_s"],
             point["fresh_single_sum_s"], point["fresh_all_s"], point["tier1"]["s"]]
    assert all(isinstance(t, float) for t in times)
    assert point["tier1"]["exit"] == 0 and "1 passed" in point["tier1"]["summary"]
