"""Command-line front end.

Commands:
  ring selftest   axiom / encoding checks for one ring or a small grid
  order           exact order of a matrix literal in GL_n / SL_n
  exponent        p-exponent of a group (exhaustive Sylow walk or sampled)
  classes         enumerate a group and its conjugacy classes
  kuelshammer     the dimension profile dim T_n(F_p G)^perp
  compare         Witt-kind vs poly-kind group of the same shape
  verify          run named consistency checks (or 'all')

Reports print as text, JSON, or CSV; --canonical zeroes timings and
leaves out the cache directory, so two runs with the same arguments are
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import random
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import groups as groupsmod
from . import matrix as matmod
from . import oracle as oraclemod
from . import ring as ringmod
from .errors import ParseError, TruncgrpError

SCHEMA_VERSION = 1

# named small groups used by the oracle checks:
# name -> (family, n, kind, p, f, r, profile prime)
ORACLE_GROUPS = {
    "C4": ("GL", 1, ringmod.WITT, 5, 1, 1, 2),
    "S3": ("SL", 2, ringmod.WITT, 2, 1, 1, 3),
    "SL2F2": ("SL", 2, ringmod.WITT, 2, 1, 1, 2),
    "SL2Z4": ("SL", 2, ringmod.WITT, 2, 1, 2, 2),
    "SL2F2T2": ("SL", 2, ringmod.POLY, 2, 1, 2, 2),
    "GL2F3": ("GL", 2, ringmod.WITT, 3, 1, 1, 3),
}

# ---------------------------------------------------------------------------
# report plumbing

def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return str(obj)


def _flatten(obj, prefix, rows):
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(v, f"{prefix}.{k}" if prefix else str(k), rows)
    elif isinstance(obj, (list, tuple)):
        for i, v in enumerate(obj):
            _flatten(v, f"{prefix}.{i}", rows)
    else:
        rows.append((prefix, obj))


class Report:
    def __init__(self, command, params, results, elapsed, seed, canonical):
        self.data = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "params": params,
            "results": results,
            "timings": {"total_s": 0.0 if canonical else round(elapsed, 6)},
            "versions": {
                "truncgrp": __version__,
                "python": ".".join(map(str, sys.version_info[:3])),
                "numpy": np.__version__,
            },
            "seed": seed,
        }

    def to_json(self):
        return json.dumps(self.data, indent=2, sort_keys=True,
                          default=_json_default) + "\n"

    def to_csv(self):
        rows = []
        _flatten(self.data, "", rows)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "value"])
        for k, v in rows:
            writer.writerow([k, "" if v is None else v])
        return buf.getvalue()

    def to_text(self):
        rows = []
        _flatten(self.data["results"], "", rows)
        head = f"== {self.data['command']} =="
        params = " ".join(f"{k}={v}" for k, v in self.data["params"].items())
        lines = [head] + ([f"   {params}"] if params else [])
        lines += [f"{k} = {v}" for k, v in rows]
        if self.data["timings"]["total_s"]:
            lines.append(f"elapsed: {self.data['timings']['total_s']}s")
        return "\n".join(lines) + "\n"

    def render(self, fmt):
        return {"json": self.to_json, "csv": self.to_csv,
                "text": self.to_text}[fmt]()


# ---------------------------------------------------------------------------
# argument helpers

def _ring_from_args(args) -> ringmod.Ring:
    return ringmod.ring_make(args.kind, args.p, args.f, args.r)


def _group_from_args(args) -> matmod.GroupDesc:
    return matmod.GroupDesc(args.family, args.n, _ring_from_args(args))


def _add_ring_args(sub, kind_required=True):
    sub.add_argument("--kind", choices=[ringmod.WITT, ringmod.POLY],
                     required=kind_required)
    sub.add_argument("-p", type=int, default=None, required=kind_required)
    sub.add_argument("-f", type=int, default=1)
    sub.add_argument("-r", type=int, default=1)


def _add_group_args(sub):
    sub.add_argument("--family", choices=["GL", "SL"], default="GL")
    sub.add_argument("-n", type=int, required=True)
    _add_ring_args(sub)


# (kind, p, f, r) with p^(fr) <= 10^4, for `ring selftest --all-small`
# and `verify rings`
_SMALL_RING_GRID = [(kind, p, f, r)
                    for kind in (ringmod.WITT, ringmod.POLY)
                    for p in (2, 3, 5, 7) for f in (1, 2) for r in (1, 2, 3)
                    if p ** (f * r) <= 10_000]


# ---------------------------------------------------------------------------
# commands

def cmd_ring(args):
    if args.all_small:
        params = _SMALL_RING_GRID
    else:
        if args.kind is None or args.p is None:
            raise ParseError("selftest needs --kind and -p (or --all-small)", 0)
        params = [(args.kind, args.p, args.f, args.r)]
    reports = []
    ok = True
    for kind, p, f, r in params:
        ring = ringmod.ring_make(kind, p, f, r)
        rep = ring.selftest(seed=args.seed)
        ok = ok and rep.ok
        reports.append({
            "ring": ring.label,
            "ok": rep.ok,
            "checks": {c.name: c.mode if c.ok else f"FAILED ({c.witness})"
                       for c in rep.checks},
        })
    return {"ok": ok, "count": len(reports), "rings": reports}, ok


def cmd_order(args):
    ring = _ring_from_args(args)
    group = _group_from_args(args)
    mat = matmod.parse_matrix(ring, args.matrix)
    order = matmod.element_order(mat, group)  # raises MembershipError if outside
    return {
        "group": group.label,
        "matrix": mat.render(),
        "det": ring.render(mat.det()),
        "order": order,
    }, True


def cmd_exponent(args):
    group = _group_from_args(args)
    strategy = args.strategy
    if strategy == "auto":
        strategy = ("exhaustive" if group.sylow_size() <= matmod.SYLOW_CAP
                    else "sampled")
    res = matmod.p_exponent(group, strategy=strategy, trials=args.trials,
                            seed=args.seed)
    out = {"group": group.label, "p": group.ring.p,
           "sylow_size": group.sylow_size()}
    out.update(res.payload())
    return out, True


def cmd_classes(args):
    group = _group_from_args(args)
    table, part = groupsmod.partition_for(group, cache_dir=args.cache_dir)
    out = {
        "group": group.label,
        "order": len(table),
        "num_classes": part.num_classes,
    }
    if part.num_classes <= 1000:
        out["class_sizes"] = part.sizes.tolist()
    else:
        out["largest_class"] = int(part.sizes.max())
    return out, True


def cmd_kuelshammer(args):
    group = _group_from_args(args)
    table, part = groupsmod.partition_for(group, cache_dir=args.cache_dir)
    prof = groupsmod.kuelshammer_profile(part, group.ring.p)
    out = {"group": group.label, "order": len(table),
           "num_classes": part.num_classes}
    out.update(prof.payload())
    return out, True


def cmd_compare(args):
    ring_w = ringmod.ring_make(ringmod.WITT, args.p, args.f, args.r)
    ring_p = ringmod.ring_make(ringmod.POLY, args.p, args.f, args.r)
    ga = matmod.GroupDesc(args.family, args.n, ring_w)
    gb = matmod.GroupDesc(args.family, args.n, ring_p)
    rep = groupsmod.compare_groups(ga, gb, cache_dir=args.cache_dir)
    # a proven-regime pair that fails to separate is a hard error
    ok = rep.verdict == "DISTINGUISHED" or not rep.in_proven_regime
    return rep.payload(), ok


def cmd_verify(args):
    names = list(CHECKS) if args.check == "all" else [args.check]
    for name in names:
        if name not in CHECKS:
            raise ParseError(f"unknown check {name!r}; "
                             f"known: {', '.join(CHECKS)} or 'all'", 0)
    ctx = SimpleNamespace(seed=args.seed, cache_dir=args.cache_dir)
    results = {}
    all_ok = True
    for name in names:
        t0 = time.perf_counter()
        out = CHECKS[name](ctx)
        out["elapsed_s"] = 0.0 if args.canonical else round(
            time.perf_counter() - t0, 3)
        results[name] = out
        all_ok = all_ok and out["ok"]
        if args.format == "text":
            status = "PASS" if out["ok"] else "FAIL"
            print(f"{status} {name}", flush=True)
    if args.format == "text":
        # per-check lines were already printed; keep the report terse
        return {"ok": all_ok,
                "checks": {n: r["ok"] for n, r in results.items()}}, all_ok
    return {"ok": all_ok, "checks": results}, all_ok


# ---------------------------------------------------------------------------
# verification checks

def _check_rings(ctx):
    failures = []
    for kind, p, f, r in _SMALL_RING_GRID:
        rep = ringmod.ring_make(kind, p, f, r).selftest(seed=ctx.seed)
        if not rep.ok:
            failures.append({"ring": rep.ring_label,
                             "failed": [c.name for c in rep.failures()]})
    return {"ok": not failures, "rings_checked": len(_SMALL_RING_GRID),
            "failures": failures}


def _check_lemma_chu(ctx):
    pmax = 23
    bad = []
    in_regime = 0
    for p in [q for q in range(2, pmax + 1) if ringmod._is_prime(q)]:
        for n in range(1, p // 2 + 1):  # p >= 2n
            for k in range(n):
                for ell in range(n):
                    in_regime += 1
                    if matmod.chu_sum(p, k, ell) != 0:
                        bad.append((p, k, ell))
    # sharpness: outside the p >= 2n range the sum need not vanish
    witness = matmod.chu_sum(3, 1, 1)
    return {"ok": not bad and witness != 0, "pmax": pmax,
            "cases_in_range": in_regime, "nonvanishing": bad,
            "outside_witness": {"p": 3, "k": 1, "ell": 1, "value": witness}}


def _rand_mat(ring, n, rng, unitriangular=False):
    m = matmod.Mat.identity(ring, n) if unitriangular else matmod.Mat.zero(ring, n)
    for i in range(n):
        for j in range(n):
            if unitriangular and j <= i:
                continue
            m = m.with_entry(i, j, ring.rand(rng))
    return m


def _check_lemma_power(ctx):
    rings = [ringmod.ring_make(ringmod.POLY, 5, 1, 2),
             ringmod.ring_make(ringmod.WITT, 5, 1, 2)]
    rng = random.Random(ctx.seed)
    trials = 0
    for ring in rings:
        ident = None
        for n in (2, 3):
            for _ in range(50):
                A = _rand_mat(ring, n, rng, unitriangular=True)
                X = _rand_mat(ring, n, rng)
                m = rng.randrange(0, 2 * ring.p + 1)
                g = A * (matmod.Mat.identity(ring, n) +
                         X.scale(ring.pi))
                direct = g ** m
                closed = matmod.unitriangular_power(A, X, m)
                if direct != closed:
                    return {"ok": False, "ring": ring.label, "n": n, "m": m,
                            "A": A.render(), "X": X.render()}
                trials += 1
    return {"ok": True, "trials": trials, "rings": [r.label for r in rings]}


def _check_lemma_bmatrix(ctx):
    rng = random.Random(ctx.seed)
    # p = 5 >= 2n for n = 2: B must vanish mod pi
    vanish_trials = 0
    for kind in (ringmod.POLY, ringmod.WITT):
        ring = ringmod.ring_make(kind, 5, 1, 2)
        for _ in range(50):
            A = _rand_mat(ring, 2, rng, unitriangular=True)
            X = _rand_mat(ring, 2, rng)
            B = matmod.b_matrix(A, X)
            if not B.reduce_to(1).is_zero():
                return {"ok": False, "phase": "vanishing", "ring": ring.label,
                        "A": A.render(), "X": X.render()}
            vanish_trials += 1
    # n = 3, p = 5 < 2n: search for a nonvanishing B
    ring = ringmod.ring_make(ringmod.POLY, 5, 1, 2)
    witness = None
    for _ in range(500):
        A = _rand_mat(ring, 3, rng, unitriangular=True)
        X = _rand_mat(ring, 3, rng)
        if not matmod.b_matrix(A, X).reduce_to(1).is_zero():
            witness = {"A": A.render(), "X": X.render()}
            break
    return {"ok": witness is not None, "vanish_trials": vanish_trials,
            "counterexample_n3_p5": witness}


def _check_lemma_expstep(ctx):
    rows = []
    ok = True
    for family in ("GL", "SL"):
        for kind in (ringmod.WITT, ringmod.POLY):
            for p in (2, 3):
                values = {}
                for r in (1, 2, 3):
                    g = matmod.GroupDesc(family, 2, ringmod.ring_make(kind, p, 1, r))
                    values[r] = matmod.p_exponent(g).value
                step_ok = all(values[r] <= p * values[r - 1] for r in (2, 3))
                if kind == ringmod.WITT:
                    exact_ok = all(values[r] == p ** r for r in (1, 2, 3))
                else:
                    # p >= n = 2 always here; ceil(log_p r) + 1 exponent bound
                    exact_ok = all(values[r] <= p ** (matmod._ceil_log(p, r) + 1)
                                   for r in (1, 2, 3))
                rows.append({"family": family, "kind": kind, "p": p,
                             "exponents": values, "step_ok": step_ok,
                             "bound_ok": exact_ok})
                ok = ok and step_ok and exact_ok
    return {"ok": ok, "cases": rows}


def _check_prop_pexp(ctx):
    cases = []
    ok = True
    for family, n, p, f, r in [("SL", 2, 2, 1, 4), ("GL", 2, 3, 1, 3)]:
        gw = matmod.GroupDesc(family, n, ringmod.ring_make(ringmod.WITT, p, f, r))
        gp = matmod.GroupDesc(family, n, ringmod.ring_make(ringmod.POLY, p, f, r))
        ew = matmod.p_exponent(gw).value
        ep = matmod.p_exponent(gp).value
        case_ok = ew == p ** r and ep < p ** r
        cases.append({"witt": gw.label, "poly": gp.label,
                      "witt_exponent": ew, "poly_exponent": ep,
                      "separated": case_ok})
        ok = ok and case_ok
    return {"ok": ok, "cases": cases}


def _check_order_witness(ctx):
    ring = ringmod.ring_make(ringmod.POLY, 5, 1, 2)
    text = "1,1,0;t,1,1;t,0,1"
    mat = matmod.parse_matrix(ring, text)
    reparsed = matmod.parse_matrix(ring, mat.render())
    group = matmod.GroupDesc("SL", 3, ring)
    det = mat.det()
    order = matmod.element_order(mat, group)
    inv_ok = (mat * mat.inverse()).is_identity()
    res = matmod.p_exponent(group, strategy="sampled", trials=500, seed=ctx.seed)
    ok = (det == ring.one and group.contains(mat) and order == 25
          and reparsed == mat and inv_ok
          and res.value == 25 and res.upper_bound == 25)
    return {"ok": ok, "matrix": text, "det": ring.render(det), "order": order,
            "sampled_exponent": res.value, "upper_bound": res.upper_bound,
            "group": group.label}


def _named_group(name):
    family, n, kind, p, f, r, profile_p = ORACLE_GROUPS[name]
    return matmod.GroupDesc(family, n, ringmod.ring_make(kind, p, f, r)), profile_p


def _check_oracle(ctx):
    rows = []
    ok = True
    for name in ORACLE_GROUPS:
        group, profile_p = _named_group(name)
        table, part = groupsmod.partition_for(group)
        alg = oraclemod.AlgebraTable.from_element_table(table, profile_p)
        rep = oraclemod.oracle_profile(alg, part, profile_p)
        rows.append({"name": name, "group": group.label, "p": profile_p,
                     "ok": rep.ok, "dims": list(rep.dims_linalg),
                     "first_mismatch": rep.first_mismatch})
        ok = ok and rep.ok
    return {"ok": ok, "groups": rows}


def _check_prop_stab(ctx):
    rows = []
    ok = True
    for name in ("SL2Z4", "SL2F2T2", "GL2F3"):
        group, profile_p = _named_group(name)
        table, part = groupsmod.partition_for(group)
        prof = groupsmod.kuelshammer_profile(part, profile_p)
        exp = None
        consistent = True
        if profile_p == group.ring.p:
            exp = matmod.p_exponent(group).value
            consistent = exp == prof.p_exponent
        rows.append({"name": name, "dims": list(prof.dims),
                     "stab_index": prof.stab_index,
                     "profile_exponent": prof.p_exponent,
                     "sylow_exponent": exp})
        ok = ok and consistent
    return {"ok": ok, "groups": rows}


def _check_compare_pair(ctx):
    ring_args = SimpleNamespace(family="GL", n=2, p=3, f=1, r=3,
                                cache_dir=ctx.cache_dir)
    payload, ok = cmd_compare(ring_args)
    return {"ok": ok, "report": payload}


def _check_cache(ctx):
    import tempfile
    from pathlib import Path
    group, _ = _named_group("GL2F3")
    with tempfile.TemporaryDirectory() as tmp:
        t1, p1 = groupsmod.partition_for(group, cache_dir=tmp)
        path = Path(tmp) / f"{groupsmod.cache_slug(group)}.kkg"
        wrote = path.exists()
        t2, p2 = groupsmod.partition_for(group, cache_dir=tmp)
        same = (np.array_equal(t1.coords, t2.coords)
                and np.array_equal(p1.class_of, p2.class_of))
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        rejected = groupsmod.load_cache(path, group) is None
        t3, p3 = groupsmod.partition_for(group, cache_dir=tmp)  # recomputes
        recovered = np.array_equal(p1.class_of, p3.class_of)
    return {"ok": wrote and same and rejected and recovered,
            "wrote": wrote, "roundtrip": same,
            "corruption_rejected": rejected, "recovered": recovered}


CHECKS = {
    "rings": _check_rings,
    "lemma-chu": _check_lemma_chu,
    "lemma-power": _check_lemma_power,
    "lemma-bmatrix": _check_lemma_bmatrix,
    "lemma-expstep": _check_lemma_expstep,
    "prop-pexp": _check_prop_pexp,
    "order-witness": _check_order_witness,
    "oracle": _check_oracle,
    "prop-stab": _check_prop_stab,
    "compare-pair": _check_compare_pair,
    "cache": _check_cache,
}

# ---------------------------------------------------------------------------

def build_parser():
    ap = argparse.ArgumentParser(
        prog="truncgrp",
        description="group invariants over truncated local rings")
    ap.add_argument("--format", choices=["text", "json", "csv"], default="text")
    ap.add_argument("--canonical", action="store_true",
                    help="zero out timings and leave out the cache directory "
                         "for byte-stable output")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--cache-dir",
                    default=os.environ.get("TRUNCGRP_CACHE_DIR"))
    sub = ap.add_subparsers(dest="command", required=True)

    s = sub.add_parser("ring", help="base ring utilities")
    s.add_argument("action", choices=["selftest"])
    _add_ring_args(s, kind_required=False)
    s.add_argument("--all-small", action="store_true",
                   help="run the whole small parameter grid")
    s.set_defaults(func=cmd_ring)

    s = sub.add_parser("order", help="order of one matrix")
    _add_group_args(s)
    s.add_argument("--matrix", required=True,
                   help="rows ';'-separated, entries ','-separated")
    s.set_defaults(func=cmd_order)

    s = sub.add_parser("exponent", help="p-exponent of the group")
    _add_group_args(s)
    s.add_argument("--strategy", choices=["auto", "exhaustive", "sampled"],
                   default="auto")
    s.add_argument("--trials", type=int, default=1000)
    s.set_defaults(func=cmd_exponent)

    s = sub.add_parser("classes", help="enumerate conjugacy classes")
    _add_group_args(s)
    s.set_defaults(func=cmd_classes)

    s = sub.add_parser("kuelshammer", help="dimension profile of F_p G")
    _add_group_args(s)
    s.set_defaults(func=cmd_kuelshammer)

    s = sub.add_parser("compare", help="Witt-kind vs poly-kind pair")
    s.add_argument("--family", choices=["GL", "SL"], default="GL")
    s.add_argument("-n", type=int, required=True)
    s.add_argument("-p", type=int, required=True)
    s.add_argument("-f", type=int, default=1)
    s.add_argument("-r", type=int, required=True)
    s.set_defaults(func=cmd_compare)

    s = sub.add_parser("verify", help="run consistency checks")
    s.add_argument("check", help=f"one of {', '.join(CHECKS)} or 'all'")
    s.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    t0 = time.perf_counter()
    try:
        results, ok = args.func(args)
    except (ParseError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (TruncgrpError, ArithmeticError, MemoryError) as exc:
        # a detected failure, or an arithmetic or memory limit reached
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = time.perf_counter() - t0
    # the cache directory changes no result, so canonical reports omit it
    hidden = {"func", "format", "canonical"}
    if args.canonical:
        hidden.add("cache_dir")
    params = {k: v for k, v in vars(args).items()
              if k not in hidden and v is not None}
    report = Report(args.command, params, results, elapsed, args.seed,
                    args.canonical)
    out = report.render(args.format)
    sys.stdout.write(out)
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
