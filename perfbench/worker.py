"""One workload pass in a fresh interpreter: run CLI examples in order.

Usage: python3 worker.py OUT_DIR SEED SAMPLES TRACE EXAMPLE [EXAMPLE ...]

Each example runs as ``sip-lab EXAMPLE --seed SEED --samples SAMPLES --out
OUT_DIR`` with every other flag at its CLI default.  The last line of standard
output is a JSON object with the pass's wall and CPU seconds, the CPU-speed
probe times taken while it ran (``speed.py``), the process's peak RSS, each
example's exit code, the versions the program ran with and, when TRACE is 1,
the per-layer metrics.
"""

import contextlib
import io
import json
import resource
import sys
import time
import traceback

import numpy
import scipy

from sip_lab import _kernels, cli

from layers import Tracer
from speed import SpeedProbe


def main(argv):
    out, seed, samples, trace = argv[0], argv[1], argv[2], argv[3] == "1"
    examples = argv[4:]
    tracer = Tracer()
    if trace:
        tracer.install()
    codes = {}
    log = io.StringIO()
    with SpeedProbe() as speed:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for example in examples:
            try:
                with contextlib.redirect_stdout(log):
                    codes[example] = cli.main([example, "--seed", seed,
                                               "--samples", samples, "--out", out])
            except Exception:  # an example that raises is a failed example
                traceback.print_exc()
                codes[example] = -1
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    print(json.dumps({
        "wall_s": wall,
        "cpu_s": cpu,
        "probe_s": speed.times,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "codes": codes,
        "layers": tracer.metrics() if trace else None,
        "meta": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "numba_importable": _kernels.NUMBA_AVAILABLE,
            "kernels_backend": _kernels.backend(),
        },
    }))


if __name__ == "__main__":
    main(sys.argv[1:])
