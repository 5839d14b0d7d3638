"""Quick tests of the benchmark itself: each correctness check accepts a
good output and rejects a tampered one.

    python3 -m pytest perfbench -q
"""

import copy
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def test_independent_recomputations():
    assert checks.witt_witness_order() == 27
    assert checks.witness_order() == 25
    assert checks.gl_order(2, 3, 3) == 314_928
    assert len(workloads.ring_grid()) * 2 == 302


# ---------------------------------------------------------------------------
# compare-cold

GOOD_COMPARE = {
    "group_a": "GL_2(Z/27)", "group_b": "GL_2(F_3[t]/t^3)", "p": 3,
    "order": 314_928, "classes_a": 720, "classes_b": 720,
    "profile_a": {"p": 3, "dims": [720, 72, 8, 6], "stab_index": 3,
                  "p_exponent": 27, "reynolds_dim": 6, "p_regular_classes": 6},
    "profile_b": {"p": 3, "dims": [720, 12, 6], "stab_index": 2,
                  "p_exponent": 9, "reynolds_dim": 6, "p_regular_classes": 6},
    "sylow_exponent_a": 27, "sylow_exponent_b": 9,
    "in_proven_regime": True, "verdict": "DISTINGUISHED",
}


def _tampered(path, value):
    res = copy.deepcopy(GOOD_COMPARE)
    *head, last = path
    target = res
    for key in head:
        target = target[key]
    target[last] = value
    return res


def test_compare_accepts_good_report():
    assert checks.check_compare(GOOD_COMPARE) == []


@pytest.mark.parametrize("path,value", [
    (("order",), 314_929),
    (("classes_b",), 719),
    (("profile_a", "dims"), [720, 72, 9, 6]),
    (("profile_b", "dims"), [720, 6, 12]),
    (("profile_b", "p_regular_classes"), 5),
    (("profile_a", "p_exponent"), 9),
    (("profile_a", "stab_index"), 2),
    (("profile_b", "p_exponent"), 27),
    (("sylow_exponent_b", ), 3),
    (("verdict",), "NOT DISTINGUISHED"),
])
def test_compare_rejects_tampered_report(path, value):
    assert checks.check_compare(_tampered(path, value))


def test_cache_check_rejects_missing_and_corrupt_files(tmp_path):
    order = GOOD_COMPARE["order"]
    assert len(checks.check_cache_files(tmp_path, order)) == 2
    (tmp_path / "gl2_witt_p3_f1_r3.kkg").write_bytes(b"KKG1" + bytes(100))
    (tmp_path / "gl2_poly_p3_f1_r3.kkg").write_bytes(b"")
    problems = checks.check_cache_files(tmp_path, order)
    assert len(problems) == 2 and all("does not load" in p for p in problems)


# ---------------------------------------------------------------------------
# ring-grid

def _good_grid():
    from truncgrp import field_make
    ops = []
    for p, f, r in workloads.ring_grid():
        for kind in ("witt", "poly"):
            ops.append({
                "op": f"{kind}:{p}:{f}:{r}", "kind": kind, "p": p, "f": f, "r": r,
                "ok": True, "characteristic": p ** r if kind == "witt" else p,
                "modulus": list(field_make(p, f).modulus),
                "checks": [["characteristic", True, "exhaustive"],
                           ["teichmuller-fixed", True, "exhaustive"],
                           ["teichmuller-multiplicative", True, "sampled"]]})
    return ops


@pytest.fixture(scope="module")
def good_grid():
    return _good_grid()


def test_ring_grid_accepts_good_reports(good_grid):
    assert checks.check_ring_grid(good_grid) == []
    assert checks.check_fields(good_grid, seed=3) == []


def test_ring_grid_rejects_sampled_fermat_mode(good_grid):
    ops = copy.deepcopy(good_grid)
    ops[-1]["checks"][1][2] = "sampled"  # F_9973: teichmuller-fixed sampled
    assert checks.check_ring_grid(ops)


@pytest.mark.parametrize("tamper", [
    lambda ops: ops.pop(7),
    lambda ops: ops[3].update(ok=False),
    lambda ops: ops[5]["checks"][0].__setitem__(1, False),
    lambda ops: ops[10].update(characteristic=ops[10]["characteristic"] * ops[10]["p"]),
    lambda ops: ops[2]["checks"].pop(2),
])
def test_ring_grid_rejects_tampered_reports(good_grid, tamper):
    ops = copy.deepcopy(good_grid)
    tamper(ops)
    assert checks.check_ring_grid(ops)


def test_fields_reject_reducible_modulus(good_grid):
    ops = copy.deepcopy(good_grid)
    for o in ops:
        if (o["p"], o["f"]) == (2, 2):
            o["modulus"] = [1, 0, 1]  # x^2 + 1 = (x + 1)^2 over F_2
    assert any("irreducible" in p for p in checks.check_fields(ops, seed=0))


def test_fields_reject_two_moduli_for_one_field(good_grid):
    ops = copy.deepcopy(good_grid)
    o = next(o for o in ops if (o["p"], o["f"]) == (3, 2))
    # x^2 + 1 and x^2 + x + 2 are both irreducible over F_3
    o["modulus"] = [2, 1, 1] if o["modulus"] != [2, 1, 1] else [1, 0, 1]
    assert any("different moduli" in p for p in checks.check_fields(ops, seed=0))


# ---------------------------------------------------------------------------
# checks-small

def _good_checks():
    details = {name: {"ok": True} for name in workloads.CHECKS_SMALL}
    details["order-witness"].update(matrix=checks.WITNESS_TEXT, order=25)
    details["lemma-expstep"]["cases"] = [
        {"family": fam, "kind": kind, "p": p,
         "exponents": {str(r): p ** r if kind == "witt" else min(p ** r, 9)
                       for r in (1, 2, 3)}}
        for fam in ("GL", "SL") for kind in ("witt", "poly") for p in (2, 3)]
    return [{"op": name, "rc": 0,
             "report": {"results": {"ok": True, "checks": {name: details[name]}}}}
            for name in workloads.CHECKS_SMALL]


def test_checks_small_accepts_good_reports():
    assert checks.check_checks_small(_good_checks()) == []
    assert checks.check("checks-small", _good_checks(), seed=0, cache_dir=None) == []


def _detail(ops, name):
    return next(o for o in ops if o["op"] == name)["report"]["results"]["checks"][name]


@pytest.mark.parametrize("tamper", [
    lambda ops: _detail(ops, "order-witness").update(order=5),
    lambda ops: _detail(ops, "order-witness").update(matrix="1,1,0;0,1,1;0,0,1"),
    lambda ops: _detail(ops, "lemma-expstep")["cases"][1]["exponents"].update({"3": 9}),
    lambda ops: _detail(ops, "lemma-expstep").update(cases=[]),
    lambda ops: _detail(ops, "oracle").update(ok=False),
    lambda ops: ops.pop(),
])
def test_checks_small_rejects_tampered_reports(tamper):
    ops = _good_checks()
    tamper(ops)
    assert checks.check_checks_small(ops)


def test_failed_operations_are_problems():
    ops = _good_checks()
    ops[0]["rc"] = 1
    ops[1] = {"op": ops[1]["op"], "error": "ArithmeticError: boom"}
    assert len(checks.failed_ops(ops)) == 2
    assert len(checks.check("checks-small", ops, seed=0, cache_dir=None)) >= 2


# ---------------------------------------------------------------------------
# harness

def test_metric_names_are_listed_in_benchmark_json():
    import json
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    import run
    units = tracer.metric_units()
    units.update(run.TRACE_UNITS)
    assert listed == units
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_run_refuses_a_directory_without_a_checkout(tmp_path):
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload",
                           "checks-small", "--seed", "1", "--seconds", "1"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
