"""truncgrp benchmark: end-to-end metrics per workload, per-layer metrics
from a traced run.

    python3 perfbench/run.py --workload compare-cold --seed 1 --seconds 30 --trace 0

Run from the root of a truncgrp checkout; the package is imported from
its ``src`` directory.  Every repetition of a workload runs in a fresh
interpreter started from this process, so that no memo table or cache
carries over.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
CHILD_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}
# the traced run's own cost: cpu_s of the repetition with spans, and that
# minus cpu_s of an untraced repetition in the same run
TRACE_UNITS = {"trace.cpu_s": "s", "trace.overhead_s": "s"}


class BenchError(Exception):
    pass


def _child_env(root, tmp):
    env = {k: v for k, v in os.environ.items() if k != "TRUNCGRP_CACHE_DIR"}
    env["PYTHONPATH"] = str(root / "src")
    env["TMPDIR"] = str(tmp)  # the `cache` check's temporary directory
    return env


def spawn(env, *args, deadline):
    """Run worker.py with args in a fresh interpreter; its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a repetition")
    t_spawn = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), repr(t_spawn), *args],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
            text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _repeat(env, workload, seed, mode, tmp, deadline):
    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=tmp)
    try:
        return spawn(env, workload, str(seed), cache_dir, mode, deadline=deadline)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)


def _untraced(env, workload, seed, seconds, tmp, deadline):
    """As many whole repetitions as fit in `seconds`, at least one; medians.

    Another repetition starts only if one more of the last one's length
    still ends within `seconds`, so a repetition longer than the run is
    made once.
    """
    reps = [_repeat(env, workload, seed, "plain", tmp, deadline)]
    while sum(r["wall_s"] for r in reps) + reps[-1]["wall_s"] <= seconds:
        reps.append(_repeat(env, workload, seed, "plain", tmp, deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(env, "setup", deadline=deadline)["setup_s"])
    values = {"wall_s": statistics.median(r["wall_s"] for r in reps),
              "cpu_s": statistics.median(r["cpu_s"] for r in reps),
              "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
              "setup_s": statistics.median(setups)}
    print(f"repetitions: {len(reps)}; set-up samples: "
          f"{', '.join(f'{s:.3f}' for s in setups)}", file=sys.stderr)
    return reps, {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}


def _traced(env, workload, seed, tmp, deadline):
    """An untraced repetition, then one with spans and counters, then (if
    any measured stage ran) one with tracemalloc peaks."""
    plain = _repeat(env, workload, seed, "plain", tmp, deadline)
    spans = _repeat(env, workload, seed, "spans", tmp, deadline)
    reps = [plain, spans]
    layers = dict(spans["layers"])
    if any(layers[f"{stage}_s.{k}"] for stage in tracer.PEAK_STAGES for k in tracer.KINDS):
        peaks = _repeat(env, workload, seed, "peaks", tmp, deadline)
        layers.update(peaks["layers"])
        reps.append(peaks)
    layers["trace.cpu_s"] = spans["cpu_s"]
    layers["trace.overhead_s"] = spans["cpu_s"] - plain["cpu_s"]
    units = tracer.metric_units()
    units.update(TRACE_UNITS)
    return reps, {k: {"value": layers[k], "unit": u} for k, u in units.items()}


def measure(workload, seed, seconds, trace, root, tmp, deadline):
    env = _child_env(root, tmp)
    if trace:
        reps, metrics = _traced(env, workload, seed, tmp, deadline)
    else:
        reps, metrics = _untraced(env, workload, seed, seconds, tmp, deadline)
    problems = [p for rep in reps for p in rep["problems"]]
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in reps),
            "failed": sum(r["failed"] for r in reps),
            "metrics": metrics}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    # on SIGTERM, unwind: subprocess.run kills and reaps the running child
    # and the finally clause below removes the run's scratch directory
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    root = Path.cwd()
    if not (root / "src" / "truncgrp" / "cli.py").is_file():
        print(f"error: {root} holds no truncgrp checkout (src/truncgrp)",
              file=sys.stderr)
        return 2
    # the first interpreter start after checkout would otherwise pay for
    # compiling the package, which no later start does
    compileall.compile_dir(str(root / "src"), quiet=1)
    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace,
                         root, tmp, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:  # another run is still using it
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
