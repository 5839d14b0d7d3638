"""Correctness checks on the workloads' outputs, computed apart from truncgrp.

Each ``check_*`` function takes the operation records a worker produced
and returns a list of problems; an empty list means the outputs are
correct.  Orders, exponents and field identities are recomputed here
with plain integers or sympy; truncgrp is used only to read back the
cache files it wrote, through its public ``load_cache``.
"""

from __future__ import annotations

import random
from pathlib import Path

import workloads

# dimension chains of the headline pair, computed independently and
# recorded in tests/test_acceptance.py
COMPARE_DIMS = {"witt": (720, 72, 8, 6), "poly": (720, 12, 6)}
COMPARE_CLASSES = 720

# the order-25 element of SL_3(F_5[t]/t^2); entries are (a0, a1) = a0 + a1 t
WITNESS_TEXT = "1,1,0;t,1,1;t,0,1"
WITNESS = (((1, 0), (1, 0), (0, 0)),
           ((0, 1), (1, 0), (1, 0)),
           ((0, 1), (0, 0), (1, 0)))

FIELD_SAMPLES = 8


def ceil_log(p, n):
    k, v = 0, 1
    while v < n:
        v *= p
        k += 1
    return k


def gl_order(n, q, r):
    """|GL_n(O_r)| for a length-r local ring with residue field F_q."""
    order = 1
    for i in range(n):
        order *= q ** n - q ** i
    return order * q ** (n * n * (r - 1))


def _mat_order(mat, mul, one, cap=10_000):
    ident = tuple(tuple(one if i == j else mul.zero for j in range(len(mat)))
                  for i in range(len(mat)))
    power, k = mat, 1
    while power != ident:
        power = mul(power, mat)
        k += 1
        if k > cap:
            return None
    return k


class _ZMod:
    """2-argument matrix product over Z/m, entries plain ints."""

    def __init__(self, m):
        self.m, self.zero = m, 0

    def __call__(self, a, b):
        n, m = len(a), self.m
        return tuple(tuple(sum(a[i][k] * b[k][j] for k in range(n)) % m
                           for j in range(n)) for i in range(n))


class _TruncPoly2:
    """Matrix product over F_p[t]/t^2, entries (a0, a1)."""

    def __init__(self, p):
        self.p, self.zero = p, (0, 0)

    def __call__(self, a, b):
        n, p = len(a), self.p
        out = []
        for i in range(n):
            row = []
            for j in range(n):
                c0 = sum(a[i][k][0] * b[k][j][0] for k in range(n)) % p
                c1 = sum(a[i][k][0] * b[k][j][1] + a[i][k][1] * b[k][j][0]
                         for k in range(n)) % p
                row.append((c0, c1))
            out.append(tuple(row))
        return tuple(out)


def witt_witness_order():
    """Order of [[1,1],[0,1]] in GL_2(Z/27), by integer powering."""
    return _mat_order(((1, 1), (0, 1)), _ZMod(27), 1)


def witness_order():
    """Order of the SL_3(F_5[t]/t^2) witness, by plain-integer powering."""
    return _mat_order(WITNESS, _TruncPoly2(5), (1, 0))


def failed_ops(ops):
    return [f"{o['op']}: {o.get('error') or 'exit code ' + str(o.get('rc'))}"
            for o in ops if "error" in o or o.get("rc", 0) != 0]


# ---------------------------------------------------------------------------
# compare-cold

def check_compare(res):
    """The compare report of GL_2 over Z/27 against GL_2 over F_3[t]/t^3."""
    c = workloads.COMPARE
    n, p, r = c["n"], c["p"], c["r"]
    q = p ** c["f"]
    problems = []
    order = gl_order(n, q, r)
    if res["order"] != order:
        problems.append(f"order {res['order']} != {order}")
    if not res["classes_a"] == res["classes_b"] == COMPARE_CLASSES:
        problems.append(f"class counts {res['classes_a']}, {res['classes_b']} "
                        f"are not both {COMPARE_CLASSES}")
    for side, kind in (("a", "witt"), ("b", "poly")):
        prof, classes = res[f"profile_{side}"], res[f"classes_{side}"]
        dims = tuple(prof["dims"])
        if dims[0] != classes:
            problems.append(f"{kind}: dims[0] = {dims[0]} != classes {classes}")
        if any(x <= y for x, y in zip(dims, dims[1:])):
            problems.append(f"{kind}: dims {dims} not strictly decreasing")
        if dims[-1] != prof["p_regular_classes"]:
            problems.append(f"{kind}: dims[-1] != p-regular classes")
        if p ** prof["stab_index"] != prof["p_exponent"]:
            problems.append(f"{kind}: p^stab_index != p_exponent")
        if dims != COMPARE_DIMS[kind]:
            problems.append(f"{kind}: dims {dims} != {COMPARE_DIMS[kind]}")
        if res[f"sylow_exponent_{side}"] != prof["p_exponent"]:
            problems.append(f"{kind}: Sylow exponent != profile p-exponent")
    witt_exp = res["profile_a"]["p_exponent"]
    attained = witt_witness_order()
    if not witt_exp == attained == p ** (r - 1 + ceil_log(p, n)):
        problems.append(f"witt exponent {witt_exp}: witness order {attained}, "
                        f"bound {p ** (r - 1 + ceil_log(p, n))}")
    poly_bound = p ** (ceil_log(p, r) + ceil_log(p, n))
    if res["profile_b"]["p_exponent"] > poly_bound:
        problems.append(f"poly exponent {res['profile_b']['p_exponent']} > {poly_bound}")
    if res["verdict"] != "DISTINGUISHED" or not res["in_proven_regime"]:
        problems.append(f"verdict {res['verdict']!r}, proven {res['in_proven_regime']}")
    return problems


def check_cache_files(cache_dir, order):
    """Both partition caches load back and cover the whole group."""
    from truncgrp import GroupDesc, load_cache, ring_make
    c = workloads.COMPARE
    problems = []
    files = sorted(Path(cache_dir).glob("*.kkg"))
    for kind in ("witt", "poly"):
        mine = [f for f in files if kind in f.name]
        if len(mine) != 1:
            problems.append(f"{kind}: {len(mine)} cache files in {sorted(f.name for f in files)}")
            continue
        group = GroupDesc(c["family"], c["n"], ring_make(kind, c["p"], c["f"], c["r"]))
        loaded = load_cache(mine[0], group)
        if loaded is None:
            problems.append(f"{kind}: cache file {mine[0].name} does not load")
            continue
        table, part = loaded
        if len(table) != order or int(part.sizes.sum()) != order:
            problems.append(f"{kind}: cached partition covers "
                            f"{int(part.sizes.sum())} of {order} elements")
    return problems


# ---------------------------------------------------------------------------
# ring-grid

def expected_grid_ops():
    return [f"{kind}:{p}:{f}:{r}" for p, f, r in workloads.ring_grid()
            for kind in ("witt", "poly")]


def check_ring_grid(ops):
    problems = []
    if [o["op"] for o in ops] != expected_grid_ops():
        problems.append("the self-tests run are not the grid's 302 rings in order")
    for o in ops:
        if "error" in o:
            continue
        p, f, r = o["p"], o["f"], o["r"]
        if not o["ok"] or not all(ok for _, ok, _ in o["checks"]):
            problems.append(f"{o['op']}: self-test failed")
        want = p ** r if o["kind"] == "witt" else p
        if o["characteristic"] != want:
            problems.append(f"{o['op']}: characteristic {o['characteristic']} != {want}")
        modes = {name: mode for name, _, mode in o["checks"]}
        for name in ("characteristic", "teichmuller-multiplicative"):
            if name not in modes:
                problems.append(f"{o['op']}: no {name} check")
        if p ** f <= workloads.GRID_LIMIT and modes.get("teichmuller-fixed") != "exhaustive":
            problems.append(f"{o['op']}: teichmuller-fixed ran "
                            f"{modes.get('teichmuller-fixed')!r}, not 'exhaustive'")
    return problems


def check_fields(ops, seed):
    """Every grid field's modulus is irreducible and a^q = a on a sample,
    by sympy's dense F_p[x] arithmetic."""
    from sympy.polys.domains import ZZ
    from sympy.polys.galoistools import gf_irreducible_p, gf_pow_mod, gf_strip

    problems = []
    fields = {}
    for o in ops:
        if "modulus" in o:
            fields.setdefault((o["p"], o["f"]), set()).add(tuple(o["modulus"]))
    rng = random.Random(seed)
    for (p, f), moduli in sorted(fields.items()):
        if len(moduli) != 1:
            problems.append(f"F_{p}^{f}: {len(moduli)} different moduli")
            continue
        (low_first,) = moduli
        m = [int(c) % p for c in reversed(low_first)]
        if len(m) != f + 1 or m[0] != 1 or not gf_irreducible_p(m, p, ZZ):
            problems.append(f"F_{p}^{f}: modulus {low_first} is not monic irreducible of degree {f}")
            continue
        q = p ** f
        for _ in range(FIELD_SAMPLES):
            a = gf_strip([rng.randrange(p) for _ in range(f)])
            if gf_pow_mod(a, q, m, p, ZZ) != a:
                problems.append(f"F_{p}^{f}: a^q != a for a = {a}")
                break
    expected = {(p, f) for p, f, _ in workloads.ring_grid()}
    if set(fields) != expected:
        problems.append(f"fields checked {len(fields)} != grid fields {len(expected)}")
    return problems


# ---------------------------------------------------------------------------
# checks-small

def check_checks_small(ops):
    problems = []
    if [o["op"] for o in ops] != list(workloads.CHECKS_SMALL):
        problems.append("the checks run are not the workload's nine checks in order")
    out = {}
    for o in ops:
        if "error" in o or o.get("report") is None:
            continue
        res = o["report"]["results"]
        detail = res["checks"].get(o["op"], {})
        if not res["ok"] or not detail.get("ok"):
            problems.append(f"{o['op']}: check reports not ok")
        out[o["op"]] = detail
    wit = out.get("order-witness")
    if wit is not None:
        attained = witness_order()
        if not (wit.get("matrix") == WITNESS_TEXT and wit.get("order") == attained == 25):
            problems.append(f"order-witness: order {wit.get('order')} of "
                            f"{wit.get('matrix')!r}, plain integers give {attained}")
    step = out.get("lemma-expstep")
    if step is not None:
        for row in step.get("cases", []):
            if row["kind"] != "witt":
                continue
            p = row["p"]
            got = {int(r): v for r, v in row["exponents"].items()}
            if got != {r: p ** r for r in (1, 2, 3)}:
                problems.append(f"lemma-expstep: {row['family']} witt p={p} "
                                f"exponents {got} are not p^r")
        if not any(row["kind"] == "witt" for row in step.get("cases", [])):
            problems.append("lemma-expstep: no witt cases reported")
    return problems


def check(workload, ops, seed, cache_dir):
    """All problems with one repetition's outputs."""
    problems = failed_ops(ops)
    if workload == "compare-cold":
        good = [o for o in ops if "error" not in o and o.get("report")]
        if len(ops) != 1:
            problems.append(f"{len(ops)} compares run, not 1")
        for o in good:
            problems += check_compare(o["report"]["results"])
            problems += check_cache_files(cache_dir, o["report"]["results"]["order"])
    elif workload == "ring-grid":
        problems += check_ring_grid(ops)
        problems += check_fields(ops, seed)
    elif workload == "checks-small":
        problems += check_checks_small(ops)
    else:
        problems.append(f"unknown workload {workload!r}")
    return problems
