"""Inputs of the three workloads and the code that runs them.

Nothing here imports truncgrp at module level: the worker imports the
package itself, so that its import time is measured as set-up.  Each
operation that raises is recorded with its error and counts as failed.
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stdout

COMPARE = {"family": "GL", "n": 2, "p": 3, "f": 1, "r": 3}

# the verify checks other than `rings` and `compare-pair`, in CLI order
CHECKS_SMALL = ("lemma-chu", "lemma-power", "lemma-bmatrix", "lemma-expstep",
                "prop-pexp", "order-witness", "oracle", "prop-stab", "cache")

LARGE_PRIME_FIELDS = ((101, 1, 1), (499, 1, 1), (1009, 1, 1), (4999, 1, 1),
                      (9973, 1, 1))

GRID_LIMIT = 10_000
GRID_TRIPLES = 146


def _primes_below(n):
    sieve = bytearray([1]) * n
    sieve[:2] = b"\0\0"
    for i in range(2, int(n ** 0.5) + 1):
        if sieve[i]:
            sieve[i * i::i] = bytearray(len(sieve[i * i::i]))
    return [i for i in range(n) if sieve[i]]


def ring_grid():
    """Tier-1's self-test grid: (p, f, r) with p^(fr) <= 10^4 over the
    primes p <= 97 (those with p^2 <= 10^4), then five large prime
    fields.  Each triple is tested as a witt and as a poly ring."""
    triples = []
    for p in _primes_below(98):
        m = 1
        while p ** (m + 1) <= GRID_LIMIT:
            m += 1
        for f in range(1, m + 1):
            for r in range(1, m // f + 1):
                if p ** (f * r) <= GRID_LIMIT:
                    triples.append((p, f, r))
    if len(triples) != GRID_TRIPLES:
        raise AssertionError(f"grid has {len(triples)} triples, not {GRID_TRIPLES}")
    return triples + list(LARGE_PRIME_FIELDS)


def _guarded(record, fn):
    try:
        record.update(fn())
    except Exception as exc:  # an operation that raises is a failed operation
        record["error"] = f"{type(exc).__name__}: {exc}"
    return record


def _cli_json(cli, argv):
    """Run the truncgrp CLI in-process on argv; its exit code and report.

    ``--canonical`` zeroes the report's timings, so its bytes repeat."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(["--format", "json", "--canonical"] + argv)
    text = buf.getvalue()
    return {"rc": rc, "report": json.loads(text) if text else None}


def run_compare_cold(cli, seed, cache_dir):
    """One compare of the headline pair through the CLI, cache dir empty."""
    c = COMPARE
    argv = ["--seed", str(seed), "--cache-dir", cache_dir, "compare",
            "--family", c["family"], "-n", str(c["n"]), "-p", str(c["p"]),
            "-f", str(c["f"]), "-r", str(c["r"])]
    return [_guarded({"op": "compare"}, lambda: _cli_json(cli, argv))]


def run_ring_grid(ringmod, seed):
    """Ring.selftest(seed) for both kinds over the grid: 302 operations."""
    def selftest(kind, p, f, r):
        ring = ringmod.ring_make(kind, p, f, r)
        rep = ring.selftest(seed=seed)
        return {"ok": rep.ok, "characteristic": ring.characteristic,
                "modulus": list(ring.field.modulus),
                "checks": [[c.name, c.ok, c.mode] for c in rep.checks]}

    ops = []
    for p, f, r in ring_grid():
        for kind in (ringmod.WITT, ringmod.POLY):
            rec = {"op": f"{kind}:{p}:{f}:{r}", "kind": kind, "p": p, "f": f, "r": r}
            ops.append(_guarded(rec, lambda: selftest(kind, p, f, r)))
    return ops


def run_checks_small(cli, seed):
    """One `truncgrp verify <name>` call per check, all in this process."""
    return [_guarded({"op": name},
                     lambda: _cli_json(cli, ["--seed", str(seed), "verify", name]))
            for name in CHECKS_SMALL]


def run(workload, seed, cache_dir):
    """Run one repetition of a workload; the list of operation records."""
    if workload == "compare-cold":
        from truncgrp import cli
        return run_compare_cold(cli, seed, cache_dir)
    if workload == "ring-grid":
        from truncgrp import ring
        return run_ring_grid(ring, seed)
    if workload == "checks-small":
        from truncgrp import cli
        return run_checks_small(cli, seed)
    raise ValueError(f"unknown workload {workload!r}")


WORKLOADS = ("compare-cold", "ring-grid", "checks-small")
