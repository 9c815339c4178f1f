"""One benchmark repetition in a fresh process.

    python3 perfbench/child.py RESULT SPAWN_TIME TRACE [CLI ARGS...]

SPAWN_TIME is the parent's ``time.monotonic()`` just before it started this
process (the clock is shared between processes on Linux), so ``setup_s``
covers interpreter start, the numpy import and the ``spolab.cli`` import.
Right after set-up the child times a burst of host-speed probes
(``probe.py``); an untraced repetition also probes the host while the CLI
runs, and the probes' own time is taken out of ``wall_s``.  With no CLI
arguments the child stops after set-up.  The result is written as JSON to
RESULT.
"""
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import spolab.cli  # noqa: E402

READY = time.monotonic()

import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import probe  # noqa: E402

# Probes timed right after set-up, about 10 ms of work.
SETUP_PROBES = 24
# A repetition with fewer probes than this during the run adds a burst.
MIN_RUN_PROBES = 10


def blas_threads() -> int | None:
    """Threads the bundled OpenBLAS will use, or None if it is not found."""
    libdir = os.path.dirname(np.__file__) + ".libs"
    for path in glob.glob(os.path.join(libdir, "libscipy_openblas*")):
        fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_", None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def main() -> None:
    result_path, spawn_time, trace = sys.argv[1], float(sys.argv[2]), sys.argv[3] == "1"
    argv = sys.argv[4:]
    result = {"setup_s": READY - spawn_time, "spolab_file": spolab.cli.__file__,
              "setup_probes": probe.burst(SETUP_PROBES), "blas_threads": blas_threads()}
    if argv:
        tracer = hooks = None
        sampler = probe.Sampler()
        if trace:
            import spans
            tracer = spans.Tracer()
            hooks = spans.install(tracer)
        rc, error = None, None
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
            if tracer is None:
                sampler.start()
            start = time.perf_counter()
            try:
                rc = spolab.cli.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # the run failed; the parent counts it
                error = traceback.format_exc()
            wall = time.perf_counter() - start
            sampler.stop()
        if tracer is None and len(sampler.samples) < MIN_RUN_PROBES:
            sampler.samples += probe.burst(MIN_RUN_PROBES)
        usage = resource.getrusage(resource.RUSAGE_SELF)
        result.update(rc=rc, error=error, wall_s=wall - sampler.spent_s,
                      probe_spent_s=sampler.spent_s, run_probes=sampler.samples,
                      maxrss_kb=usage.ru_maxrss, cpu_s=usage.ru_utime + usage.ru_stime)
        if tracer is not None:
            result["spans"] = spans.finish(tracer, hooks)
            result["rebinds"] = tracer.rebinds
            result["per_call_overhead_s"] = spans.per_call_overhead_s()
            tracer.save(os.path.splitext(result_path)[0] + ".spans.npz")
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
