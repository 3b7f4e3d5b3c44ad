"""Count the runs that fail a check over a range of CLI seeds.

Usage:
    python3 tools/calibration_sweep.py FIRST STOP SAMPLES

Run from anywhere in a checkout.  Every example of ``cli.EXAMPLES`` runs at
each CLI seed in ``range(FIRST, STOP)`` with ``--samples SAMPLES`` and every
other flag at its default, one BLAS thread, as ``tools/benchmark_seeds.py``
runs them.  Each pushforward check is a test at level 0.01, so a correct
program fails a few runs in a hundred; a change that moves a generator stream
quotes this count beside its parent's (``100 300 1000`` is the ROADMAP's
sweep).  It prints each failing run, then ``N failing runs of M``, and exits 0.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from benchmark_seeds import cli, describe, run_checks  # noqa: E402


def main(first: int, stop: int, samples: int) -> int:
    runs = failed = 0
    for seed in range(first, stop):
        for example in cli.EXAMPLES:
            error, checks = run_checks(example, seed, samples)
            failing = [check for check in checks if not check["passed"]]
            runs += 1
            failed += bool(error or failing)
            if error:
                print(f"FAIL --seed {seed} {example} raised {type(error).__name__}: {error}")
            for check in failing:
                print(f"FAIL --seed {seed} {example} {describe(check)}", flush=True)
    print(f"{failed} failing runs of {runs}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 4:
        sys.exit(__doc__)
    sys.exit(main(*map(int, sys.argv[1:])))
