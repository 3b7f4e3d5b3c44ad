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
it a failed example; it exits 1 if any run fails.  Run it before a change
that moves a generator stream.
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


def failing_checks(example: str, seed: int, samples: int):
    """(the exception it raised or None, the failed checks of its report) for
    one CLI run."""
    with tempfile.TemporaryDirectory() as out:
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                cli.main([example, "--seed", str(seed), "--samples", str(samples),
                          "--out", out])
        except Exception as error:  # perfbench's worker counts it a failed example
            return error, []
        report = json.loads((Path(out) / f"{example}_report.json").read_text())
    return None, [check for check in report["checks"] if not check["passed"]]


def main() -> int:
    failed = 0
    for name in sorted(WORKLOADS):
        examples, samples = WORKLOADS[name]
        runs = 0
        for n, seed in enumerate(PROGRAM_SEEDS):
            for example in examples:
                error, checks = failing_checks(example, seed, samples)
                runs += 1
                failed += bool(error or checks)
                if error:
                    print(f"FAIL {name}: benchmark seed {n} (CLI --seed {seed}) "
                          f"{example} raised {type(error).__name__}: {error}")
                for check in checks:
                    print(f"FAIL {name}: benchmark seed {n} (CLI --seed {seed}) {example} "
                          f"{check['name']} statistic={check['statistic']:.6g} "
                          f"threshold={check['threshold']:.6g} [{check['details']}]")
        print(f"{name}: {runs} runs ({len(PROGRAM_SEEDS)} seeds x {len(examples)} examples "
              f"at --samples {samples})", flush=True)
    print(f"{failed} failing runs")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
