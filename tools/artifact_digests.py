"""Print every example's exit code and the sha256 of each file it writes.

Usage:
    python3 tools/artifact_digests.py [--seeds A-B] [FLAGS...]

Run from anywhere in a checkout.  Each example of ``cli.EXAMPLES`` runs once,
in this process, with ``FLAGS`` (for instance ``--seed 7`` or ``--samples 1000
--grid 24``) and a fresh ``--out`` directory, pinned to one BLAS thread as
perfbench's worker is.  With ``--seeds A-B`` every example runs at each CLI
seed A..B in turn, and the output has a ``seed N`` section per seed.  The
output is one line per exit code and one per artifact, in a fixed order, so a
byte-identity claim between two checkouts is one ``diff`` of this tool's
output in each.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

os.environ.update({name: "1" for name in THREAD_VARS})  # before numpy loads

from sip_lab import cli  # noqa: E402


def main(flags: list[str]) -> int:
    if "--seeds" in flags:
        at = flags.index("--seeds")
        first, last = map(int, flags[at + 1].split("-"))
        rest = flags[:at] + flags[at + 2:]
        for seed in range(first, last + 1):
            print(f"seed {seed}")
            digests([*rest, "--seed", str(seed)])
    else:
        digests(flags)
    return 0


def digests(flags: list[str]) -> None:
    for example in cli.EXAMPLES:
        with tempfile.TemporaryDirectory() as out:
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main([example, *flags, "--out", out])
            print(f"{example} exit {code}")
            for path in sorted(Path(out).iterdir()):
                print(f"  {hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
