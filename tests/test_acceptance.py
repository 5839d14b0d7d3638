"""End-to-end checks, one per headline claim, each with a pinned wall-clock
budget.  The claims themselves are the `truncgrp verify` checks
(`cli.CHECKS`); this file runs every one of them and pins their payloads.
Every numeric constant asserted here was computed independently (brute
force or by hand) before being frozen into the test."""

import contextlib
import hashlib
import json
import time

import pytest
from sympy import primerange

from truncgrp import (AlgebraTable, GroupDesc, chu_sum, conjugacy_classes,
                      element_order, enumerate_group, field_make,
                      kuelshammer_profile, oracle_profile, p_exponent,
                      ring_make)
from truncgrp.cli import CHECKS, main


@contextlib.contextmanager
def criterion(name, bound_s):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - t0
        print(f"[acceptance] {name}: FAIL ({elapsed:.2f}s)")
        raise
    elapsed = time.perf_counter() - t0
    status = "PASS" if elapsed <= bound_s else "FAIL"
    print(f"[acceptance] {name}: {status} ({elapsed:.2f}s, bound {bound_s}s)")
    assert elapsed <= bound_s, f"{name} took {elapsed:.2f}s (> {bound_s}s)"


def _order_witness(res):
    # 1,1,0;t,1,1;t,0,1 in SL_3(F_5[t]/t^2)
    assert res["order"] == 25


def _compare_pair(res):
    # GL_2(Z/27) against GL_2(F_3[t]/t^3)
    rep = res["report"]
    assert rep["order"] == 314928
    assert rep["verdict"] == "DISTINGUISHED"
    assert rep["in_proven_regime"] is True
    assert rep["classes_a"] == rep["classes_b"] == 720
    assert rep["profile_a"]["dims"] == [720, 72, 8, 6]
    assert rep["profile_b"]["dims"] == [720, 12, 6]
    assert rep["profile_a"]["p_exponent"] == rep["sylow_exponent_a"] == 27
    assert rep["profile_b"]["p_exponent"] == rep["sylow_exponent_b"] == 9


def _lemma_chu(res):
    # every prime p <= 23 and n <= p // 2: sum of n^2 over those (p, n)
    assert res["pmax"] == 23
    assert res["cases_in_range"] == 1162


def _lemma_power(res):
    # 50 trials for each of n = 2, 3 and each of the two rings
    assert res["trials"] == 200
    assert res["rings"] == ["F_5[t]/t^2", "Z/25"]


def _lemma_bmatrix(res):
    assert res["vanish_trials"] == 100


def _oracle(res):
    names = {row["name"] for row in res["groups"]}
    assert {"C4", "S3", "SL2F2", "SL2Z4", "SL2F2T2"} <= names


def _lemma_expstep(res):
    # exhaustive Sylow walks of GL_2 and SL_2, both kinds, p = 2, 3, r = 1, 2, 3
    cases = sorted((c["family"], c["kind"], c["p"], *c["exponents"]) for c in res["cases"])
    assert cases == sorted((family, kind, p, "1", "2", "3") for family in ("GL", "SL")
                           for kind in ("witt", "poly") for p in (2, 3))


# check name -> (wall-clock budget in seconds, assertions on its payload)
ACCEPTANCE = {
    "order-witness": (1.0, _order_witness),
    "compare-pair": (600.0, _compare_pair),
    "lemma-chu": (1.0, _lemma_chu),
    "lemma-power": (5.0, _lemma_power),
    "lemma-bmatrix": (5.0, _lemma_bmatrix),
    "oracle": (30.0, _oracle),
    "lemma-expstep": (60.0, _lemma_expstep),
}


def test_acceptance_table_names_are_checks():
    assert set(ACCEPTANCE) <= set(CHECKS)


@pytest.mark.parametrize("name", list(CHECKS))
def test_verify_check(name, monkeypatch, capsys):
    monkeypatch.delenv("TRUNCGRP_CACHE_DIR", raising=False)
    budget, pins = ACCEPTANCE.get(name, (None, None))
    with criterion(name, budget) if budget else contextlib.nullcontext():
        rc = main(["--format", "json", "--canonical", "verify", name])
        out = capsys.readouterr().out
    results = json.loads(out)["results"]
    assert rc == 0
    assert results["ok"] is True
    res = results["checks"][name]
    assert res["ok"] is True
    if pins:
        pins(res)


def test_r2_p5_exponent_gap():
    with criterion("r2-p5-exponent-gap", 10.0):
        witt = GroupDesc("GL", 2, ring_make("witt", 5, 1, 2))
        poly = GroupDesc("GL", 2, ring_make("poly", 5, 1, 2))
        assert witt.sylow_size() == poly.sylow_size() == 3125
        rw = p_exponent(witt, strategy="exhaustive")
        rp = p_exponent(poly, strategy="exhaustive")
        assert rw.method == rp.method == "exhaustive"
        assert rw.value == 25 and rp.value == 5
        assert element_order(rw.witness, witt) == 25
        assert element_order(rp.witness, poly) == 5


def test_r4_p2_exponent_gap_strict():
    with criterion("r4-p2-strict-gap", 10.0):
        witt = GroupDesc("SL", 2, ring_make("witt", 2, 1, 4))
        poly = GroupDesc("SL", 2, ring_make("poly", 2, 1, 4))
        rw = p_exponent(witt, strategy="exhaustive")
        assert rw.value == 16  # p^r exactly
        rp = p_exponent(poly, strategy="exhaustive")
        # char-p bound p^(ceil(log_p r) + 1) = 2^3
        assert rp.upper_bound == 8
        assert rp.value <= 8
        # exact value cross-checked over the whole group, all 3072 elements
        assert poly.order() == 3072
        table = enumerate_group(poly)
        assert len(table) == 3072
        prof = kuelshammer_profile(conjugacy_classes(table), 2)
        assert prof.p_exponent == rp.value == 8
        assert rp.value < rw.value  # strict


def test_binomial_double_sum_vanishes():
    with criterion("binomial-double-sum", 1.0):
        for p in (5, 7, 11, 13, 17, 19, 23):
            n = p // 2  # largest n with p >= 2n
            for k in range(n):
                for ell in range(n):
                    assert chu_sum(p, k, ell) == 0, (p, k, ell)


def test_oracle_agreement_small_groups():
    with criterion("oracle-agreement", 30.0):
        cases = [
            ("GL", 1, "witt", 5, 1, 1, 2),   # C_4, the unit group of F_5
            ("SL", 2, "witt", 2, 1, 1, 3),   # S_3 at p = 3
            ("SL", 2, "witt", 2, 1, 1, 2),   # S_3 at p = 2
            ("SL", 2, "witt", 2, 1, 2, 2),   # SL_2(Z/4)
            ("SL", 2, "poly", 2, 1, 2, 2),   # SL_2(F_2[t]/t^2)
        ]
        for fam, n, kind, p, f, r, prof_p in cases:
            grp = GroupDesc(fam, n, ring_make(kind, p, f, r))
            table = enumerate_group(grp)
            part = conjugacy_classes(table)
            A = AlgebraTable.from_element_table(table, prof_p)
            rep = oracle_profile(A, part, prof_p)
            assert rep.ok, (grp.label, rep)
            assert rep.dims_linalg == rep.dims_classes
            assert rep.chain_ok and rep.dual_rank_ok and rep.terminal_ok


def _selftest_grid():
    # every (kind, p, f, r) with p^(rf) <= 10^4 over the primes that admit
    # a non-trivial truncation (p <= 97, i.e. p^2 <= 10^4), plus a spread
    # of single-parameter prime fields up to the size bound
    triples = []
    for p in primerange(2, 98):
        m = 1
        while p ** (m + 1) <= 10_000:
            m += 1
        for f in range(1, m + 1):
            for r in range(1, m // f + 1):
                if p ** (f * r) <= 10_000:
                    triples.append((int(p), f, r))
    assert len(triples) == 146
    return triples + [(101, 1, 1), (499, 1, 1), (1009, 1, 1), (4999, 1, 1),
                      (9973, 1, 1)]


# sha256 of every grid SelfTestReport (label, kind, p, f, r and each check's
# name, ok, mode and witness), as computed by the scalar self test that
# walked every element in Python loops
_GRID_REPORTS_SHA256 = "728cc1ed22263628e596b3864cbcbb227a7c907b44c3ab2071d817038bc83151"


# sha256 of [p, f, modulus] for every field of the grid, in (p, f) order,
# as chosen by the modulus scan when the irreducibility test still had its
# own multiply, remainder and power loops
_GRID_MODULI_SHA256 = "64e7ada81776a1fd3db9386db1d68ac368949c9b58606cf0952d75c96d43ce00"


def test_field_moduli_pinned():
    fields = sorted({(p, f) for p, f, _ in _selftest_grid()})
    assert len(fields) == 81
    blob = json.dumps([[p, f, list(field_make(p, f).modulus)] for p, f in fields]).encode()
    assert hashlib.sha256(blob).hexdigest() == _GRID_MODULI_SHA256


def _grid_reports_sha256(seed):
    """sha256 of the grid's self-test reports at seed, each report ok."""
    reports = []
    for p, f, r in _selftest_grid():
        for kind in ("witt", "poly"):
            ring = ring_make(kind, p, f, r)
            # the two kinds differ exactly in additive characteristic
            assert ring.characteristic == (p ** r if kind == "witt" else p)
            rep = ring.selftest(seed=seed)
            assert rep.ok, (kind, p, f, r, rep.failures())
            names = {c.name for c in rep.checks}
            assert "characteristic" in names
            assert "teichmuller-multiplicative" in names
            assert "teichmuller-fixed" in names
            reports.append([rep.ring_label, rep.kind, rep.p, rep.f, rep.r,
                            [[c.name, c.ok, c.mode, c.witness] for c in rep.checks]])
    return hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()


def test_ring_selftest_grid():
    # one seed-0 walk of the grid: every report ok and pinned
    with criterion("ring-selftest-grid", 30.0):
        assert _grid_reports_sha256(0) == _GRID_REPORTS_SHA256


def test_ring_selftest_grid_reports_pinned():
    assert _grid_reports_sha256(1) == _GRID_REPORTS_SHA256
