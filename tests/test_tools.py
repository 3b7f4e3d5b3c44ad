"""tools/artifact_digests.py, the tool that a byte-identity claim between two
checkouts is a ``diff`` of."""

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
