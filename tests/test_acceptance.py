"""End-to-end checks, one per headline claim, each with a pinned wall-clock
budget.  Every numeric constant asserted here was computed independently
(brute force or by hand) before being frozen into the test."""

import contextlib
import hashlib
import json
import random
import time

from sympy import primerange

from truncgrp import (AlgebraTable, GroupDesc, Mat, b_matrix, chu_sum,
                      compare_groups, conjugacy_classes, element_order,
                      enumerate_group, field_make, kuelshammer_profile,
                      oracle_profile, p_exponent, parse_matrix, ring_make,
                      unitriangular_power)


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


def test_witness_matrix_has_order_25():
    with criterion("order-witness", 1.0):
        R = ring_make("poly", 5, 1, 2)
        g = parse_matrix(R, "1,1,0;t,1,1;t,0,1")
        grp = GroupDesc("SL", 3, R)
        assert grp.contains(g)
        assert element_order(g, grp) == 25
        assert not (g ** 5).is_identity()
        assert (g ** 25).is_identity()


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


def test_r3_p3_full_comparison_distinguishes():
    with criterion("r3-p3-comparison", 600.0):
        a = GroupDesc("GL", 2, ring_make("witt", 3, 1, 3))
        b = GroupDesc("GL", 2, ring_make("poly", 3, 1, 3))
        assert a.order() == b.order() == 314928
        rep = compare_groups(a, b)
        assert rep.verdict == "DISTINGUISHED"
        assert rep.in_proven_regime
        assert rep.classes_a == rep.classes_b == 720
        assert rep.profile_a.dims == (720, 72, 8, 6)
        assert rep.profile_b.dims == (720, 12, 6)
        assert rep.profile_a.p_exponent == 27
        assert rep.profile_b.p_exponent == 9
        # exhaustive Sylow exponents were computed and agreed (compare_groups
        # raises on any mismatch with the profile-derived values)
        assert rep.sylow_exponent_a == 27
        assert rep.sylow_exponent_b == 9


def test_binomial_double_sum_vanishes():
    with criterion("binomial-double-sum", 1.0):
        for p in (5, 7, 11, 13, 17, 19, 23):
            n = p // 2  # largest n with p >= 2n
            for k in range(n):
                for ell in range(n):
                    assert chu_sum(p, k, ell) == 0, (p, k, ell)


def test_length_two_power_identities():
    with criterion("length-two-powers", 5.0):
        rng = random.Random(20240915)
        for kind in ("poly", "witt"):
            R = ring_make(kind, 5, 1, 2)
            ident = Mat.identity(R, 2)
            for _ in range(100):
                A = ident.with_entry(0, 1, R.rand(rng))
                X = Mat(R, [[R.rand(rng) for _ in range(2)] for _ in range(2)])
                B = b_matrix(A, X)
                assert B.reduce_to(1).is_zero()
                g = A * (ident + X.scale(R.pi))
                for m in (0, 1, 2, 5, 7, 10):
                    assert g ** m == unitriangular_power(A, X, m)
                assert g ** 5 == (A ** 5) + B.scale(R.pi)


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


def test_exponent_step_inequality():
    with criterion("exponent-step", 60.0):
        for kind in ("witt", "poly"):
            for p in (2, 3):
                values = {}
                for r in (1, 2, 3):
                    grp = GroupDesc("GL", 2, ring_make(kind, p, 1, r))
                    res = p_exponent(grp, strategy="exhaustive")
                    values[r] = res.value
                for r in (2, 3):
                    assert values[r] <= p * values[r - 1], (kind, p, r, values)


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


def test_ring_selftest_grid():
    with criterion("ring-selftest-grid", 30.0):
        triples = _selftest_grid()
        for p, f, r in triples:
            for kind in ("witt", "poly"):
                ring = ring_make(kind, p, f, r)
                # the two kinds differ exactly in additive characteristic
                assert ring.characteristic == (p ** r if kind == "witt" else p)
                rep = ring.selftest(seed=0)
                assert rep.ok, (kind, p, f, r, rep.failures())
                names = {c.name for c in rep.checks}
                assert "characteristic" in names
                assert "teichmuller-multiplicative" in names
                assert "teichmuller-fixed" in names


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


def test_ring_selftest_grid_reports_pinned():
    for seed in (0, 1):
        reports = []
        for p, f, r in _selftest_grid():
            for kind in ("witt", "poly"):
                rep = ring_make(kind, p, f, r).selftest(seed=seed)
                reports.append([rep.ring_label, rep.kind, rep.p, rep.f, rep.r,
                                [[c.name, c.ok, c.mode, c.witness] for c in rep.checks]])
        blob = json.dumps(reports, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == _GRID_REPORTS_SHA256, seed
