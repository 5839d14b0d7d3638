"""Per-layer spans and counters, recorded around calls into truncgrp.

The tracer wraps public names of the package's modules from outside:
a module function is replaced in every truncgrp module that holds a
reference to it, a method on its class.  Nothing under ``src/`` changes.
Spans (metric name, start, end) and counters stay in memory and become
metrics in ``Tracer.metrics`` at the end of the repetition.

Time metrics are inclusive: ``groups.profile_s`` contains the power map
it calls, ``oracle.profile_s`` the class profile it checks against.

tracemalloc slows every allocation, several-fold in the Python loops of
the Sylow walk, so the ``*_peak_mb`` metrics come from a tracer of their
own (``peaks=True``) in a separate repetition that records nothing else:
the tracemalloc peak of each call above the traced level at its entry,
the largest over the calls.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

from workloads import CHECKS_SMALL

KINDS = ("witt", "poly")

_TIME_PER_KIND = ("batch.matmul_s", "batch.encode_s", "batch.block_s",
                  "groups.enumerate_s", "groups.classes_s", "groups.power_map_s",
                  "groups.profile_s", "matrix.p_exponent_s")
_COUNT_PER_KIND = ("batch.matmul_calls", "batch.matmul_rows", "groups.elements",
                   "groups.classes", "matrix.sylow_elements")
# the stages timed as <stage>_s.{k} whose memory peak is <stage>_peak_mb.{k}
PEAK_STAGES = ("groups.enumerate", "groups.classes", "groups.profile",
               "matrix.p_exponent")


def metric_units():
    """Every per-layer metric name and its unit, in report order."""
    units = {f"ring.selftest_s.{k}": "s" for k in KINDS}
    units.update({"ring.fermat_s": "s", "ring.fermat_fields": "count",
                  "ring.fq_mul_calls": "count", "ring.ring_mul_calls": "count",
                  "ring.rings_checked": "count"})
    peaks = tuple(f"{stage}_peak_mb" for stage in PEAK_STAGES)
    for names, unit in ((_TIME_PER_KIND, "s"), (_COUNT_PER_KIND, "count"),
                        (peaks, "MB")):
        units.update({f"{n}.{k}": unit for n in names for k in KINDS})
    units.update({"groups.cache_save_s": "s", "groups.cache_load_s": "s",
                  "groups.cache_bytes": "bytes", "matrix.mat_mul_calls": "count",
                  "oracle.table_s": "s", "oracle.profile_s": "s",
                  "oracle.dim_total": "count"})
    units.update({f"cli.verify_s.{c}": "s" for c in CHECKS_SMALL})
    units.update({"cli.render_s": "s", "cli.report_bytes": "bytes"})
    return units


class _PeakStack:
    """Nested tracemalloc peaks: each open call sees the peak of its own
    interval, inner calls included.  tracemalloc runs only while a call
    is open."""

    def __init__(self):
        self.frames = []  # [traced bytes at entry, highest peak seen so far]

    def enter(self):
        if not tracemalloc.is_tracing():
            tracemalloc.start()
        current, peak = tracemalloc.get_traced_memory()
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        tracemalloc.reset_peak()
        self.frames.append([current, current])

    def exit(self):
        _, peak = tracemalloc.get_traced_memory()
        base, seen = self.frames.pop()
        peak = max(seen, peak)
        if self.frames:
            self.frames[-1][1] = max(self.frames[-1][1], peak)
        else:
            tracemalloc.stop()
        return peak - base


def _kind(obj):
    """Ring kind of a BatchRing, GroupDesc, ElementTable or Partition."""
    for path in (("ring",), ("group", "ring"), ("table", "group", "ring")):
        x = obj
        try:
            for attr in path:
                x = getattr(x, attr)
        except AttributeError:
            continue
        return x.kind
    raise TypeError(f"no ring kind on {obj!r}")


class Tracer:
    def __init__(self, peaks=False):
        self.peaks = peaks
        self.times = defaultdict(float)
        self.maxima = defaultdict(float)
        self.counts = defaultdict(int)
        self.fields = set()
        self._stack = _PeakStack()
        self._undo = []

    # -- wrappers -------------------------------------------------------------

    def _timed(self, fn, metric, after=None):
        """Add each call's duration to metric(*args); then after(result, *args)."""
        times = self.times

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                times[metric(*args)] += time.perf_counter() - t0
            if after is not None:
                after(result, *args, **kwargs)
            return result
        return wrapper

    def _peaked(self, fn, metric):
        maxima, stack = self.maxima, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.enter()
            try:
                return fn(*args, **kwargs)
            finally:
                name = metric(*args)
                maxima[name] = max(maxima[name], stack.exit() / 2 ** 20)
        return wrapper

    def _counted(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _set(self, owner, name, new):
        if isinstance(owner, dict):
            self._undo.append((owner, name, owner[name]))
            owner[name] = new
        else:
            self._undo.append((owner, name, vars(owner)[name]))
            setattr(owner, name, new)

    def _replace(self, fn, new):
        """Replace fn in every truncgrp module that refers to it."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or modname.split(".")[0] != "truncgrp":
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    self._set(mod, attr, new)

    def install(self):
        from truncgrp import groups, matrix
        counts = self.counts

        def enumerated(table, group, *a, **k):
            counts[f"groups.elements.{_kind(group)}"] += len(table)

        def classified(part, table, *a, **k):
            counts[f"groups.classes.{_kind(table)}"] += part.num_classes

        stages = dict(zip(PEAK_STAGES, (
            (groups.enumerate_group, enumerated), (groups.conjugacy_classes, classified),
            (groups.kuelshammer_profile, None), (matrix.p_exponent, None))))
        for stage, (fn, after) in stages.items():
            if self.peaks:
                wrapped = self._peaked(fn, lambda x, *a, _s=stage: f"{_s}_peak_mb.{_kind(x)}")
            else:
                wrapped = self._timed(fn, lambda x, *a, _s=stage: f"{_s}_s.{_kind(x)}", after)
            self._replace(fn, wrapped)
        if not self.peaks:
            self._install_spans()

    def _install_spans(self):
        from truncgrp import batch, cli, groups, matrix, oracle, ring
        counts = self.counts

        # ring: the scalar multiplies are only counted, a timer per call
        # would cost more than the multiply
        self._set(ring.Fq, "mul", self._counted(ring.Fq.mul, "ring.fq_mul_calls"))
        self._set(ring.Ring, "mul", self._counted(ring.Ring.mul, "ring.ring_mul_calls"))

        def selftested(rep, ring_, *a, **k):
            counts["ring.rings_checked"] += 1
        self._set(ring.Ring, "selftest", self._timed(
            ring.Ring.selftest, lambda r, *a: f"ring.selftest_s.{r.kind}", selftested))

        def fermat(bad, field, *a, **k):
            self.fields.add((field.p, field.f))
        self._set(ring.Fq, "fermat_check", self._timed(
            ring.Fq.fermat_check, lambda *a: "ring.fermat_s", fermat))

        # batch
        br = batch.BatchRing

        def multiplied(out, self_, a, b):
            kind = _kind(self_)
            counts[f"batch.matmul_calls.{kind}"] += 1
            counts[f"batch.matmul_rows.{kind}"] += math.prod(
                np.broadcast_shapes(np.shape(a)[:-2], np.shape(b)[:-2]))
        self._set(br, "matmul", self._timed(
            br.matmul, lambda s, *a: f"batch.matmul_s.{_kind(s)}", multiplied))
        self._set(br, "encode", self._timed(
            br.encode, lambda s, *a: f"batch.encode_s.{_kind(s)}"))
        self._set(br, "block", self._timed(
            br.block, lambda s, *a: f"batch.block_s.{_kind(s)}"))

        # groups: the rest of the pipeline and the partition cache
        self._replace(groups.class_power_map, self._timed(
            groups.class_power_map, lambda part, *a: f"groups.power_map_s.{_kind(part)}"))

        def saved(_, path, *a, **k):
            counts["groups.cache_bytes"] += os.path.getsize(path)
        self._replace(groups.save_cache, self._timed(
            groups.save_cache, lambda *a: "groups.cache_save_s", saved))
        self._replace(groups.load_cache, self._timed(
            groups.load_cache, lambda *a: "groups.cache_load_s"))

        # matrix: Sylow stream length and scalar matrix products
        stream = matrix.sylow_p_elements

        @functools.wraps(stream)
        def counted_stream(group, *a, **k):
            key = f"matrix.sylow_elements.{_kind(group)}"
            for m in stream(group, *a, **k):
                counts[key] += 1
                yield m
        self._replace(stream, counted_stream)
        self._set(matrix.Mat, "__mul__", self._counted(matrix.Mat.__mul__,
                                                       "matrix.mat_mul_calls"))

        # oracle
        alg = oracle.AlgebraTable
        self._set(alg, "from_element_table", classmethod(self._timed(
            alg.from_element_table.__func__, lambda *a: "oracle.table_s")))

        def oracled(rep, A, *a, **k):
            counts["oracle.dim_total"] += A.dim
        self._replace(oracle.oracle_profile, self._timed(
            oracle.oracle_profile, lambda *a: "oracle.profile_s", oracled))

        # cli: one timer per verify check, and report rendering
        for check in CHECKS_SMALL:
            self._set(cli.CHECKS, check, self._timed(
                cli.CHECKS[check], lambda *a, _c=check: f"cli.verify_s.{_c}"))

        def rendered(text, *a, **k):
            counts["cli.report_bytes"] += len(text.encode())
        self._set(cli.Report, "render", self._timed(
            cli.Report.render, lambda *a: "cli.render_s", rendered))

    def uninstall(self):
        while self._undo:
            owner, name, old = self._undo.pop()
            if isinstance(owner, dict):
                owner[name] = old
            else:
                setattr(owner, name, old)

    # -- results --------------------------------------------------------------

    def metrics(self):
        """{name: value} for the metrics this tracer records."""
        units = metric_units()
        if self.peaks:
            return {n: self.maxima.get(n, 0.0) for n, u in units.items() if u == "MB"}
        values = {n: 0.0 if u in ("s", "MB") else 0 for n, u in units.items()}
        values.update(self.times)
        values.update(self.counts)
        values["ring.fermat_fields"] = len(self.fields)
        unknown = set(values) - set(units)
        if unknown:
            raise KeyError(f"metrics missing from metric_units: {sorted(unknown)}")
        return {n: values[n] for n in units}
