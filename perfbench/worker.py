"""One repetition of one workload, in a fresh interpreter.

Usage (from run.py, with PYTHONPATH pointing at the checkout's src):

    python3 perfbench/worker.py SPAWN_TIME setup
    python3 perfbench/worker.py SPAWN_TIME WORKLOAD SEED CACHE_DIR MODE

SPAWN_TIME is the parent's CLOCK_MONOTONIC reading just before it started
this process; set-up is measured from it to the end of
``import truncgrp.cli``.  MODE is ``plain`` (no tracing), ``spans``
(per-layer times and counters) or ``peaks`` (tracemalloc peaks only).
The last line of standard output is one JSON object with the
measurements and the problems the correctness checks found; the checks
run after the timed interval and after peak RSS is read.
"""

import sys
import time

import truncgrp.cli  # noqa: F401  (set-up ends here)

_READY = time.clock_gettime(time.CLOCK_MONOTONIC)

import json  # noqa: E402
import resource  # noqa: E402

MODES = ("plain", "spans", "peaks")


def main(argv):
    setup_s = _READY - float(argv[0])
    if argv[1] == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0
    workload, seed, cache_dir, mode = argv[1], int(argv[2]), argv[3], argv[4]
    if mode not in MODES:
        raise SystemExit(f"unknown mode {mode!r}")
    import checks
    import workloads

    tracer = None
    if mode != "plain":
        from tracer import Tracer
        tracer = Tracer(peaks=mode == "peaks")
        tracer.install()
    t0, c0 = time.perf_counter(), time.process_time()
    ops = workloads.run(workload, seed, cache_dir)
    t1, c1 = time.perf_counter(), time.process_time()
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    layers = None
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics()
    problems = checks.check(workload, ops, seed=seed, cache_dir=cache_dir)
    print(json.dumps({
        "setup_s": setup_s, "wall_s": t1 - t0, "cpu_s": c1 - c0,
        "peak_rss_mb": peak_kb / 1024, "attempted": len(ops),
        "failed": len(checks.failed_ops(ops)), "problems": problems,
        "layers": layers}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
