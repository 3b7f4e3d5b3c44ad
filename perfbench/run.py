"""sip-lab benchmark: time fixed sequences of CLI examples and check their output.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout that holds ``src/sip_lab``.  Each workload
pass runs its examples one after another in a fresh interpreter
(``worker.py``) with one thread (``SIP_LAB_THREADS=1`` and one BLAS/OpenMP
thread) and every CLI flag at its default except ``--seed``, ``--samples``
and ``--out``.  One untimed warm-up pass comes first; timed passes then
repeat until ``--seconds`` have elapsed (at least one).  A pass fails an
example on a nonzero exit, a failed check in its report, or artifacts that
differ by a byte from the warm-up pass of the same (example, seed).

With ``--trace 0`` the result holds the end-to-end metrics; with
``--trace 1`` untraced and traced passes alternate, and the result holds the
per-layer metrics plus the tracing overhead.  The last line of standard
output is the JSON result; the exit code is 0 only when every output was
correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import speed
from layers import METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (examples, --samples).  The CLI default is --samples 10000; at that
# size one ratio-rejection pass takes 30-40 s, too long to repeat within a
# run on a shared 2-core host whose speed drifts by tens of percent over
# seconds.  The sample counts below make each pass 3-4 s, so a run holds
# about ten passes and reports their median.
WORKLOADS = {
    "ratio-rejection": (("bjw-gauss-linear", "bjw-sequential"), 1000),
    "kde-update": (("bjw-kde",), 2000),
    "newton-verify": (("two-to-one", "bbe-linear", "bbe-polar", "cov-linear-mvn",
                       "intuitive-demo", "stochastic-map-mean", "regression-compare"),
                      2000),
}
# CLI seeds 0-39 on which every example of every workload, at the sample
# counts above, passes every check at the commit that added this benchmark.
# The pushforward checks are KS and energy tests at level 0.01, so by design
# a correct program fails one of them on some seeds: stochastic-map-mean runs
# ten KS tests and an energy test and needs every p-value >= 0.01, which
# failed on CLI seeds 3, 5, 18, 22, 24, 27 and 30 (lowest p 0.0014, seed 27).
# Benchmark seed n runs CLI seed PROGRAM_SEEDS[n % len(PROGRAM_SEEDS)].
FAILING_SEEDS = (3, 5, 18, 22, 24, 27, 30)
PROGRAM_SEEDS = tuple(s for s in range(40) if s not in FAILING_SEEDS)
THREAD_VARS = ("SIP_LAB_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS")
SETUP_PROBES = 3
SETUP_CODE = ("import time, sip_lab.cli; done = time.perf_counter(); import speed; "
              "print(done, *(speed.time_probe() for _ in range(20)))")
TIME_LIMIT_S = 170.0  # every pass ends before this, so a run ends within 180 s
TAIL_BEYOND = 10  # the tail percentile has at least this many passes beyond it


class WorkerError(RuntimeError):
    pass


class Bench:
    def __init__(self, examples, samples, seed, work: Path):
        self.examples = examples
        self.samples = samples
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(HERE))),
                        **{name: "1" for name in THREAD_VARS})
        self.start = time.monotonic()
        self.first_artifacts = None
        self.setup = []  # set-up probe seconds
        self.attempted = 0
        self.failures = []  # failed examples
        self.faults = []  # other wrong outputs

    def remaining(self) -> float:
        return TIME_LIMIT_S - (time.monotonic() - self.start)

    def _python(self, args) -> subprocess.CompletedProcess:
        proc = subprocess.run([sys.executable, *args], env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(1.0, self.remaining()))
        if proc.returncode != 0:
            raise WorkerError(f"{args[0]} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return proc

    def setup_probe(self) -> float:
        """Seconds from a fresh interpreter to ``import sip_lab.cli`` done.

        The interpreter then times the speed probe, and the set-up time is
        scaled to the reference speed.  ``perf_counter`` is the system-wide
        monotonic clock, so the two processes' readings compare.
        """
        start = time.perf_counter()
        proc = self._python(["-c", SETUP_CODE])
        done, *times = map(float, proc.stdout.split())
        return (done - start) * speed.scale(times)

    def run_pass(self, index: int, trace: bool) -> dict:
        out = self.work / f"pass{index}"
        proc = self._python([str(HERE / "worker.py"), str(out), str(self.seed),
                             str(self.samples), "1" if trace else "0", *self.examples])
        record = json.loads(proc.stdout.splitlines()[-1])
        scale = speed.scale(record["probe_s"])
        record["probes"] = len(record.pop("probe_s"))
        record["run_s"] = record["wall_s"] * scale
        record["cpu_ref_s"] = record["cpu_s"] * scale
        artifacts = {ex: {} for ex in self.examples}
        rows = 0
        for path in sorted(out.iterdir()):
            example = next(ex for ex in self.examples if path.name.startswith(ex + "_"))
            data = path.read_bytes()
            artifacts[example][path.name] = hashlib.sha256(data).hexdigest()
            if path.name == f"{example}_samples.csv":
                rows += data.count(b"\n") - 1
        if self.first_artifacts is None:
            self.first_artifacts = artifacts
        for example in self.examples:
            self.attempted += 1
            reason = self._fault(out, example, record["codes"][example],
                                 artifacts[example])
            if reason:
                self.failures.append(f"pass {index} {example}: {reason}")
        shutil.rmtree(out)
        record["rows"] = rows
        return record

    def _fault(self, out: Path, example: str, code: int, artifacts: dict) -> str:
        if code != 0:
            return f"exit code {code}"
        report = json.loads((out / f"{example}_report.json").read_text())
        failed = [c["name"] for c in report["checks"] if not c["passed"]]
        if failed:
            return f"failed checks {failed}"
        if artifacts != self.first_artifacts[example]:
            return "artifacts differ from the first pass"
        return ""

    def passes(self, seconds: float, traces, probe_setup: bool = False) -> list:
        """Run passes, cycling through ``traces``, until ``seconds`` have elapsed.

        With ``probe_setup`` a set-up probe runs before each pass, so set-up
        is sampled across the whole run.  A pass is started only if one like
        the last would end in time, so a run lasts about ``seconds``; there
        is at least one pass of each kind.
        """
        records = []
        began = time.monotonic()
        step = 0.0
        while True:
            trace = traces[len(records) % len(traces)]
            if len(records) >= len(traces):
                left = seconds - (time.monotonic() - began)
                if step > min(left, self.remaining() / 1.5):
                    break
            step_began = time.monotonic()
            if probe_setup:
                self.setup.append(self.setup_probe())
            records.append(self.run_pass(len(records) + 1, trace))
            records[-1]["trace"] = trace
            step = time.monotonic() - step_began
        return records


def tail(values: list) -> tuple[float, str]:
    """Highest percentile with TAIL_BEYOND values beyond it, else the maximum."""
    ordered = sorted(values)
    rank = len(ordered) - TAIL_BEYOND - 1
    if rank < 0:
        return ordered[-1], (f"max of {len(ordered)} passes; fewer than "
                             f"{TAIL_BEYOND + 1} passes, so no percentile has "
                             f"{TAIL_BEYOND} beyond it")
    pct = 100.0 * (rank + 1) / len(ordered)
    return ordered[rank], f"p{pct:.1f} of {len(ordered)} passes"


def end_to_end(bench: Bench, seconds: float) -> tuple[dict, dict]:
    for _ in range(SETUP_PROBES):
        bench.setup.append(bench.setup_probe())
    warm = bench.run_pass(0, trace=False)
    records = bench.passes(seconds, traces=(False,), probe_setup=True)
    times = [r["run_s"] for r in records]
    tail_s, tail_note = tail(times)
    rows = warm["rows"]
    wall = statistics.median(r["wall_s"] for r in records)
    metrics = {
        "run_s.p50": (statistics.median(times), "s",
                      f"median of {len(times)} passes at the reference speed; "
                      f"median wall time {wall:.4g} s; "
                      f"{min(r['probes'] for r in records)}+ speed probes per pass"),
        "run_s.tail": (tail_s, "s", tail_note),
        "rows_per_s": (statistics.median(r["rows"] / r["run_s"] for r in records),
                       "rows/s", f"{rows} rows per pass at --samples {bench.samples}"),
        "cpu_s": (statistics.median(r["cpu_ref_s"] for r in records), "s",
                  "process CPU seconds per pass at the reference speed, median"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MB",
                        "largest peak RSS of a pass process"),
        "setup_s": (statistics.median(bench.setup), "s",
                    f"median of {len(bench.setup)} imports of sip_lab.cli at the "
                    f"reference speed, {SETUP_PROBES} before the warm-up pass and "
                    "one before each timed pass"),
    }
    return metrics, warm["meta"]


def per_layer(bench: Bench, seconds: float) -> tuple[dict, dict]:
    warm = bench.run_pass(0, trace=False)
    records = bench.passes(seconds, traces=(False, True))
    untraced = [r["run_s"] for r in records if not r["trace"]]
    traced = [r for r in records if r["trace"]]
    exact = [name for name, (unit, _) in METRICS.items() if unit in ("count", "bytes")]
    counts = [{name: r["layers"][name] for name in exact} for r in traced]
    if any(c != counts[0] for c in counts[1:]):
        bench.faults.append(f"trace counts differ between passes: {counts}")
    metrics = {}
    for name, (unit, note) in METRICS.items():
        values = [r["layers"][name] for r in traced]
        value = values[0] if name in exact else statistics.median(values)
        metrics[name] = (value, unit, note)
    overhead = statistics.median(r["run_s"] for r in traced) - statistics.median(untraced)
    metrics["trace.overhead_s"] = (
        overhead, "s", f"run_s.p50 of {len(traced)} traced passes minus that of "
        f"{len(untraced)} untraced passes, alternating")
    return metrics, warm["meta"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "sip_lab" / "cli.py").is_file():
        print(f"perfbench: no sip_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    examples, samples = WORKLOADS[args.workload]
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        bench = Bench(examples, samples, PROGRAM_SEEDS[args.seed % len(PROGRAM_SEEDS)],
                      work)
        measure = per_layer if args.trace else end_to_end
        metrics, meta = measure(bench, args.seconds)
    except (WorkerError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    meta = dict(meta, nproc=len(os.sched_getaffinity(0)),
                threads={name: 1 for name in THREAD_VARS})
    print(f"workload {args.workload}: {', '.join(examples)}; --samples {samples}; "
          f"seed {args.seed} (CLI --seed {bench.seed}); trace {args.trace}")
    print("meta " + json.dumps(meta, sort_keys=True))
    for name, (value, unit, note) in metrics.items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"{name} = {shown} {unit}  ({note})")
    failed = len(bench.failures)
    print(f"fail_ratio = {failed / bench.attempted:.6g}  "
          f"({failed} failed of {bench.attempted} examples attempted)")
    for failure in bench.failures + bench.faults:
        print(f"FAIL {failure}")
    correct = not bench.failures and not bench.faults
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
