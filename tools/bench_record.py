"""Append one end-to-end point to BENCH_examples.json.

Usage:
    python3 tools/bench_record.py [--quick] [--file PATH] [--label TEXT]

Run from anywhere in a checkout.  A point records the checkout's git hash
(null outside a git checkout) and whether tracked files differ from it, the
date, the Python and numpy versions, and these times, each scaled to
perfbench's reference CPU speed (``perfbench/speed.py``: the speed probe
runs every 50 ms while each is timed):

- ``in_process_s``: each example of ``cli.EXAMPLES`` run by ``cli.main`` in
  this process at its default flags, the median of REPEATS runs, and their sum;
- ``fresh_all_s``: one fresh interpreter running ``sip-lab all``, and
  ``fresh_single_s``: ten fresh interpreters, one example each, with their
  sum; each the median of REPEATS rounds;
- ``first_parse_s``: in each of those processes, the time from ``import
  sip_lab.cli`` done to the end of the first ``build_parser().parse_args``,
  the parse the first ``main()`` makes;
- ``tier1``: the wall time and summary line of the Tier-1 suite
  (``python -m pytest -q --continue-on-collection-errors``).

Every process runs with one BLAS thread, as perfbench's worker does, and
fresh interpreters with ``PYTHONDONTWRITEBYTECODE=1``, as perfbench is run.
``--quick`` checks the schema only: ``--samples 200 --grid 8``, one run of
each, and ``tests/test_readme.py`` in place of the suite; its times are not
comparable with a full point's.
"""

from __future__ import annotations

import argparse
import contextlib
import datetime
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import speed  # noqa: E402  (perfbench/speed.py)
from run import THREAD_VARS  # noqa: E402  (perfbench/run.py)

os.environ.update({name: "1" for name in THREAD_VARS})  # before numpy loads

import numpy  # noqa: E402

from sip_lab import cli  # noqa: E402

REPEATS = 5  # runs (rounds of fresh processes) per median; --quick makes one

# a fresh process: the first parse timed apart, then main() as the console
# script runs it (its own parse reuses the cached parser, tens of
# microseconds); one JSON line on stdout
FRESH_CODE = """\
import contextlib, io, json, sys, time
from sip_lab import cli
imported = time.perf_counter()
cli.build_parser().parse_args(sys.argv[1:])
parsed = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
print(json.dumps({"code": code, "parse_s": parsed - imported}))
"""


def timed(work):
    """(result of work(), its wall seconds at the reference speed, the factor
    from wall seconds to those)."""
    with speed.SpeedProbe() as probe:
        start = time.perf_counter()
        result = work()
        wall = time.perf_counter() - start
    factor = speed.scale(probe.times)
    return result, wall * factor, factor


def in_process(example: str, flags: list[str], out: str) -> float:
    def work():
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main([example, *flags, "--out", out])
    code, seconds, _ = timed(work)
    if code != 0:
        raise RuntimeError(f"{example} exited {code} in process")
    return seconds


def fresh(example: str, flags: list[str], out: str, env: dict) -> tuple[float, float]:
    """(process seconds, first-parse seconds), both at the reference speed."""
    def work():
        return subprocess.run([sys.executable, "-c", FRESH_CODE, example, *flags, "--out", out],
                              env=env, capture_output=True, text=True, check=True)
    proc, seconds, factor = timed(work)
    record = json.loads(proc.stdout.splitlines()[-1])
    if record["code"] != 0:
        raise RuntimeError(f"{example} exited {record['code']} in a fresh process")
    return seconds, record["parse_s"] * factor  # probed in this process as the child ran


def tier1(tests: str, env: dict) -> dict:
    def work():
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                               "--continue-on-collection-errors", tests],
                              cwd=ROOT, env=env, capture_output=True, text=True)
    proc, seconds, _ = timed(work)
    return {"tests": tests, "s": seconds, "summary": proc.stdout.strip().splitlines()[-1],
            "exit": proc.returncode}


def git(*args: str):
    """git's output in the checkout, or None outside a git checkout."""
    try:
        proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    except FileNotFoundError:  # no git installed
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def median_map(rounds: list[dict]) -> dict:
    return {key: statistics.median(r[key] for r in rounds) for key in rounds[0]}


def measure(quick: bool, repeats: int) -> dict:
    flags = ["--samples", "200", "--grid", "8"] if quick else []
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    names = [*cli.EXAMPLES, "all"]
    with tempfile.TemporaryDirectory() as out:
        in_proc = median_map([{ex: in_process(ex, flags, out) for ex in cli.EXAMPLES}
                              for _ in range(repeats)])
        rounds = [{ex: fresh(ex, flags, out, env) for ex in names} for _ in range(repeats)]
    process = median_map([{ex: r[ex][0] for ex in names} for r in rounds])
    parse = median_map([{ex: r[ex][1] for ex in names} for r in rounds])
    singles = {ex: process[ex] for ex in cli.EXAMPLES}
    return {
        "in_process_s": in_proc,
        "in_process_sum_s": sum(in_proc.values()),
        "fresh_all_s": process["all"],
        "fresh_single_s": singles,
        "fresh_single_sum_s": sum(singles.values()),
        "first_parse_s": parse,
        "tier1": tier1("tests/test_readme.py" if quick else "tests", env),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small flags and one run each: checks the schema only")
    parser.add_argument("--file", type=Path, default=ROOT / "BENCH_examples.json")
    parser.add_argument("--label", default="", help="a note stored with the point")
    args = parser.parse_args(argv)
    repeats = 1 if args.quick else REPEATS
    point = {
        "commit": git("rev-parse", "HEAD"),
        "dirty": git("status", "--porcelain", "--untracked-files=no") not in ("", None),
        "label": args.label,
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "quick": args.quick,
        "repeats": repeats,
        "unit": "s at perfbench's reference speed",
        **measure(args.quick, repeats),
    }
    record = json.loads(args.file.read_text()) if args.file.exists() else {"points": []}
    record["points"].append(point)
    args.file.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(point, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
