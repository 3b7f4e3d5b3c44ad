"""Check every benchmark workload's examples at every benchmark program seed.

Usage:
    python3 tools/benchmark_seeds.py

Run from anywhere in a checkout.  ``perfbench/run.py`` fails a run when an
example fails a check at the CLI seed that its benchmark seed maps to
(``PROGRAM_SEEDS``).  This tool runs each workload's examples in one process,
as perfbench's worker does (one BLAS thread, every flag at its default except
``--seed``, ``--samples`` and ``--out``), at every program seed and at the
workload's ``--samples``.  It prints each failing check with its statistic
and raw p-values, and each example that raises, as perfbench's worker counts
it a failed example; it exits 1 if any run fails.  For each workload it also
prints the passing check nearest its threshold (the smallest ratio of
statistic to threshold, threshold to statistic for an upper bound), so a
change that moves a generator stream can quote its margin, not just a pass.
Run it before such a change.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from run import PROGRAM_SEEDS, THREAD_VARS, WORKLOADS  # noqa: E402  (perfbench/run.py)

os.environ.update({name: "1" for name in THREAD_VARS})  # before numpy loads

from sip_lab import cli  # noqa: E402


def run_checks(example: str, seed: int, samples: int):
    """(the exception it raised or None, the checks of its report) for one CLI run."""
    with tempfile.TemporaryDirectory() as out:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([example, "--seed", str(seed), "--samples", str(samples),
                          "--out", out])
        except Exception as error:  # perfbench's worker counts it a failed example
            return error, []
        report = json.loads((Path(out) / f"{example}_report.json").read_text())
    return None, report["checks"]


def margin(check) -> float:
    """How many times over its threshold a check passes (below 1: it fails)."""
    low, high = check["threshold"], check["statistic"]
    if check["comparison"] == "le":
        low, high = high, low
    return high / low if low > 0 else float("inf")


def describe(check) -> str:
    return (f"{check['name']} statistic={check['statistic']:.6g} "
            f"threshold={check['threshold']:.6g} [{check['details']}]")


def main() -> int:
    failed = 0
    for name in sorted(WORKLOADS):
        examples, samples = WORKLOADS[name]
        runs, nearest = 0, None
        for n, seed in enumerate(PROGRAM_SEEDS):
            for example in examples:
                error, checks = run_checks(example, seed, samples)
                failing = [check for check in checks if not check["passed"]]
                runs += 1
                failed += bool(error or failing)
                where = f"benchmark seed {n} (CLI --seed {seed}) {example}"
                if error:
                    print(f"FAIL {name}: {where} raised {type(error).__name__}: {error}")
                for check in failing:
                    print(f"FAIL {name}: {where} {describe(check)}")
                for check in checks:
                    if check["passed"] and (nearest is None or margin(check) < nearest[0]):
                        nearest = margin(check), where, check
        print(f"{name}: {runs} runs ({len(PROGRAM_SEEDS)} seeds x {len(examples)} examples "
              f"at --samples {samples})", flush=True)
        if nearest is not None:
            ratio, where, check = nearest
            print(f"  nearest pass: {where} {describe(check)}, {ratio:.3g}x the threshold")
    print(f"{failed} failing runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
