"""tools/artifact_digests.py, the tool that a byte-identity claim between two
checkouts is a ``diff`` of."""

import os
import re
import subprocess
import sys
from pathlib import Path

from sip_lab import cli

TOOL = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"


def _digests():
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run([sys.executable, str(TOOL), "--samples", "200", "--grid", "8"],
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


def test_calibration_sweep_counts_every_example_at_every_seed():
    tool = TOOL.parent / "calibration_sweep.py"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    result = subprocess.run([sys.executable, str(tool), "0", "1", "200"], capture_output=True,
                            text=True, check=True, timeout=120, env=env)
    assert result.stdout.splitlines()[-1].endswith("failing runs of 10")
