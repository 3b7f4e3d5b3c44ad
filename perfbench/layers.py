"""Per-layer counters and busy times, recorded around calls into ``sip_lab``.

The program is not changed: ``install`` replaces each traced callable with a
wrapper in every ``sip_lab`` module that holds a reference to it (a name
imported with ``from .x import f`` is a separate binding per module), and on
the ``Density`` class for ``pdf``/``log_pdf``.  Busy times are inclusive: the
time inside a traced call, including the traced calls it makes.
"""

from __future__ import annotations

import os
import sys
import time
from collections import defaultdict

# (module, attribute) of every traced callable.  The leading ``_`` names are
# the module-level helpers that do row retry/drop and artifact writing.
_TIMED = (
    ("sip_lab.solvers", "bjw_rejection_sample"),
    ("sip_lab.solvers", "newton_solve"),
    ("sip_lab.solvers", "_solve_rows"),
    ("sip_lab.sampling", "rng_for"),
    ("sip_lab._kernels", "kde_log_pdf"),
    ("sip_lab._kernels", "pairwise_dists"),
    ("sip_lab._kernels", "energy_stats"),
    ("sip_lab.forward_maps", "jacobian_at"),
    ("sip_lab.forward_maps", "eval_batch"),
    ("sip_lab.verification", "pushforward_check"),
    ("sip_lab.verification", "grid_compare"),
    ("sip_lab.verification", "normalization_check"),
    ("sip_lab.verification", "energy_distance_test"),
    ("sip_lab.cli", "_write_csv"),
    ("sip_lab.cli", "_write_json"),
)

# Per-layer metrics: name -> (unit, the end-to-end metric it should move on
# which workload, or the ratio it is the base count of).  The benchmark prints this beside each value.
METRICS = {
    "solvers.rejection.proposals": ("count", "moves run_s on ratio-rejection, kde-update"),
    "solvers.rejection.accepted": ("count", "base of solvers.rejection.acceptance"),
    "solvers.rejection.acceptance": ("ratio", "moves run_s on ratio-rejection, kde-update"),
    "solvers.rejection.us_per_proposal": ("us", "moves run_s on ratio-rejection, kde-update"),
    "solvers.newton_solve.calls": ("count", "moves run_s on newton-verify"),
    "solvers.newton_solve.us_per_call": ("us", "moves run_s on newton-verify"),
    "solvers.rows.requested": ("count", "base of solvers.rows.dropped"),
    "solvers.rows.dropped": ("count", "moves run_s, rows_per_s on newton-verify"),
    "solvers.rows.retries": ("count", "moves run_s on newton-verify"),
    "sampling.rng_for.calls": ("count", "moves run_s on newton-verify, ratio-rejection"),
    "sampling.rng_for.s": ("s", "moves run_s on newton-verify, ratio-rejection"),
    "kernels.kde_log_pdf.calls": ("count", "moves run_s on kde-update"),
    "kernels.kde_log_pdf.point_calls": ("count", "moves run_s on kde-update"),
    "kernels.kde_log_pdf.pairs": ("count", "moves run_s, peak_rss_mb on kde-update"),
    "kernels.kde_log_pdf.pairs_bulk": ("count", "base of kernels.kde_log_pdf.ns_per_pair_bulk"),
    "kernels.kde_log_pdf.ns_per_pair_bulk": ("ns", "moves run_s, peak_rss_mb on kde-update"),
    "kernels.kde_log_pdf.s": ("s", "moves run_s on kde-update"),
    "kernels.pairwise_dists.s": ("s", "moves run_s on newton-verify"),
    "kernels.energy_stats.s": ("s", "moves run_s on newton-verify"),
    "densities.pdf.calls": ("count", "moves run_s on ratio-rejection, kde-update"),
    "densities.pdf.points": ("count", "moves run_s on ratio-rejection, kde-update"),
    "forward_maps.jacobian_at.calls": ("count", "moves run_s on newton-verify"),
    "forward_maps.eval_batch.calls": ("count", "moves run_s on newton-verify"),
    "verification.pushforward_check.s": ("s", "moves run_s on all three workloads"),
    "verification.grid_compare.s": ("s", "moves run_s on all three, most on kde-update"),
    "verification.normalization_check.s": ("s", "moves run_s on all three workloads"),
    "verification.energy_distance_test.s": ("s", "moves run_s on newton-verify"),
    "cli.write.s": ("s", "moves run_s on newton-verify"),
    "cli.write.bytes": ("bytes", "moves run_s on newton-verify"),
}


class Tracer:
    """Counts (``n``) and inclusive busy seconds (``busy``) keyed by callable."""

    def __init__(self):
        self.n = defaultdict(int)
        self.busy = defaultdict(float)

    def _timed(self, key, func, after=None):
        """Wrap ``func``; ``after(args, result, elapsed)`` adds extra counts."""

        def wrapper(*args, **kwargs):
            self.n[key + ".calls"] += 1
            start = time.perf_counter()
            result = func(*args, **kwargs)
            elapsed = time.perf_counter() - start
            self.busy[key] += elapsed
            if after is not None:
                after(args, result, elapsed)
            return result

        return wrapper

    # --- extra counts read at the layer boundary -------------------------

    def _after_rejection(self, args, result, elapsed):
        solution = args[0]
        self.n["rejection.proposals"] += int(solution.diagnostics["proposals"])
        self.n["rejection.accepted"] += int(result.data.shape[0])

    def _after_rows(self, args, result, elapsed):
        diag = result[1]
        self.n["rows.requested"] += int(diag["rows_requested"])
        self.n["rows.dropped"] += int(diag["failures"])
        self.n["rows.retries"] += int(diag["retries"])

    def _after_kde(self, args, result, elapsed):
        n_points = int(result.shape[0])
        pairs = n_points * int(len(args[1]))
        self.n["kde.pairs"] += pairs
        if n_points == 1:
            self.n["kde.point_calls"] += 1
        else:
            self.n["kde.pairs_bulk"] += pairs
            self.busy["kde.bulk"] += elapsed

    def _after_write(self, args, result, elapsed):
        self.n["write.bytes"] += os.path.getsize(args[0])
        self.busy["write"] += elapsed

    def _pdf(self, func):
        def wrapper(density, x):
            self.n["pdf.calls"] += 1
            out = func(density, x)
            self.n["pdf.points"] += 1 if isinstance(out, float) else len(out)
            return out

        return wrapper

    def install(self) -> None:
        """Swap every traced callable in the imported ``sip_lab`` modules."""
        from sip_lab.densities import Density

        after = {
            "bjw_rejection_sample": self._after_rejection,
            "_solve_rows": self._after_rows,
            "kde_log_pdf": self._after_kde,
            "_write_csv": self._after_write,
            "_write_json": self._after_write,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "sip_lab" or name.startswith("sip_lab.")]
        for owner, attr in _TIMED:
            func = getattr(sys.modules[owner], attr)
            wrapper = self._timed(attr, func, after.get(attr))
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is func:
                        setattr(module, name, wrapper)
        Density.pdf = self._pdf(Density.pdf)
        Density.log_pdf = self._pdf(Density.log_pdf)

    def metrics(self) -> dict:
        """The per-layer metrics of ``METRICS`` from what was recorded."""
        n, busy = self.n, self.busy
        proposals = n["rejection.proposals"]
        newton = n["newton_solve.calls"]
        bulk_pairs = n["kde.pairs_bulk"]
        return {
            "solvers.rejection.proposals": proposals,
            "solvers.rejection.accepted": n["rejection.accepted"],
            "solvers.rejection.acceptance":
                n["rejection.accepted"] / proposals if proposals else 0.0,
            "solvers.rejection.us_per_proposal":
                1e6 * busy["bjw_rejection_sample"] / proposals if proposals else 0.0,
            "solvers.newton_solve.calls": newton,
            "solvers.newton_solve.us_per_call":
                1e6 * busy["newton_solve"] / newton if newton else 0.0,
            "solvers.rows.requested": n["rows.requested"],
            "solvers.rows.dropped": n["rows.dropped"],
            "solvers.rows.retries": n["rows.retries"],
            "sampling.rng_for.calls": n["rng_for.calls"],
            "sampling.rng_for.s": busy["rng_for"],
            "kernels.kde_log_pdf.calls": n["kde_log_pdf.calls"],
            "kernels.kde_log_pdf.point_calls": n["kde.point_calls"],
            "kernels.kde_log_pdf.pairs": n["kde.pairs"],
            "kernels.kde_log_pdf.pairs_bulk": bulk_pairs,
            "kernels.kde_log_pdf.ns_per_pair_bulk":
                1e9 * busy["kde.bulk"] / bulk_pairs if bulk_pairs else 0.0,
            "kernels.kde_log_pdf.s": busy["kde_log_pdf"],
            "kernels.pairwise_dists.s": busy["pairwise_dists"],
            "kernels.energy_stats.s": busy["energy_stats"],
            "densities.pdf.calls": n["pdf.calls"],
            "densities.pdf.points": n["pdf.points"],
            "forward_maps.jacobian_at.calls": n["jacobian_at.calls"],
            "forward_maps.eval_batch.calls": n["eval_batch.calls"],
            "verification.pushforward_check.s": busy["pushforward_check"],
            "verification.grid_compare.s": busy["grid_compare"],
            "verification.normalization_check.s": busy["normalization_check"],
            "verification.energy_distance_test.s": busy["energy_distance_test"],
            "cli.write.s": busy["write"],
            "cli.write.bytes": n["write.bytes"],
        }
