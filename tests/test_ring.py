import hashlib
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import Poly, factorint, symbols
from sympy.polys.domains import ZZ
from sympy.polys.galoistools import gf_irreducible_p, gf_mul, gf_rem, gf_strip

from truncgrp import (NonUnitError, ParseError, field_make, parse_element,
                      ring_make)
from truncgrp import ring as ringmod
from truncgrp.ring import Fq, Ring

from test_acceptance import _selftest_grid


def _naive_irreducible(coeffs, p):
    """Degree <= 3 polynomial irreducibility by root search (no factor of
    degree 1 exists iff irreducible for deg 2 and 3)."""
    deg = len(coeffs) - 1
    assert deg in (2, 3)
    for a in range(p):
        v = sum(c * a ** i for i, c in enumerate(coeffs)) % p
        if v == 0:
            return False
    return True


def test_field_modulus_choices_are_frozen_and_minimal():
    assert field_make(2, 2).modulus == (1, 1, 1)
    assert field_make(3, 2).modulus == (1, 0, 1)
    assert field_make(5, 2).modulus == (2, 0, 1)
    assert field_make(2, 3).modulus == (1, 1, 0, 1)
    # independently: each is irreducible and every smaller candidate in the
    # little-endian constant-coefficient scan is reducible
    for p, f in [(2, 2), (3, 2), (5, 2), (2, 3)]:
        mod = field_make(p, f).modulus
        assert mod[-1] == 1 and len(mod) == f + 1
        assert _naive_irreducible(mod, p)
        code = sum(c * p ** i for i, c in enumerate(mod[:-1]))
        for smaller in range(code):
            cand = []
            k = smaller
            for _ in range(f):
                cand.append(k % p)
                k //= p
            cand.append(1)
            assert not _naive_irreducible(tuple(cand), p)


def test_prime_field_matches_integer_arithmetic(rng):
    F = field_make(7, 1)
    for _ in range(200):
        a, b = rng.randrange(7), rng.randrange(7)
        assert F.add(F.from_int(a), F.from_int(b)) == F.from_int(a + b)
        assert F.mul(F.from_int(a), F.from_int(b)) == F.from_int(a * b)
        if a:
            assert F.mul(F.from_int(a), F.inv(F.from_int(a))) == F.one


def test_f4_multiplication_table():
    F = field_make(2, 2)
    o, x = F.one, (0, 1)
    x1 = F.add(x, o)
    # x^2 = x + 1 with modulus x^2 + x + 1
    assert F.mul(x, x) == x1
    assert F.mul(x, x1) == o
    assert F.mul(x1, x1) == x
    assert F.pow(x, 3) == o
    # frobenius is squaring
    for a in F.elements():
        assert F.frobenius(a) == F.mul(a, a)


def test_field_index_bijective():
    for p, f in [(2, 1), (3, 1), (2, 2), (3, 2), (5, 1)]:
        F = field_make(p, f)
        seen = {F.index(a) for a in F.elements()}
        assert seen == set(range(F.q))
        for k in range(F.q):
            assert F.index(F.from_index(k)) == k


def test_multiplicative_generator_has_full_order():
    for p, f in [(2, 1), (3, 1), (5, 1), (2, 2), (3, 2), (7, 1)]:
        F = field_make(p, f)
        g = F.multiplicative_generator()
        seen = set()
        a = F.one
        for _ in range(F.q - 1):
            seen.add(a)
            a = F.mul(a, g)
        assert a == F.one
        assert len(seen) == F.q - 1


# ---------------------------------------------------------------------------

def test_witt_f1_matches_integers_mod_pr(rng):
    R = ring_make("witt", 3, 1, 3)
    assert R.label == "Z/27"
    for _ in range(300):
        a, b = rng.randrange(27), rng.randrange(27)
        assert R.add(R.from_int(a), R.from_int(b)) == R.from_int(a + b)
        assert R.mul(R.from_int(a), R.from_int(b)) == R.from_int(a * b)
    assert R.characteristic == 27
    assert R.int_mul(R.one, 27) == R.zero
    assert R.int_mul(R.one, 9) != R.zero


def test_poly_characteristic_is_p():
    R = ring_make("poly", 3, 1, 3)
    assert R.characteristic == 3
    assert R.int_mul(R.one, 3) == R.zero
    a = parse_element(R, "1+2t+t^2")
    assert R.add(R.add(a, a), a) == R.zero


def test_galois_ring_reduction_by_hand():
    # GR(4, 2) with modulus lifted from x^2 + x + 1: x^2 = -x - 1 = 3 + 3x
    R = ring_make("witt", 2, 2, 2)
    assert R.mhat == (1, 1, 1)
    x = R.from_coords((0, 1))
    assert R.mul(x, x) == R.from_coords((3, 3))
    one_x = R.from_coords((1, 1))
    assert R.mul(one_x, x) == R.from_coords((3, 0))
    # unit count: |GR(4,2)^x| = q^(r-1) (q - 1) = 4 * 3
    units = sum(1 for a in R.elements() if R.is_unit(a))
    assert units == 12


def test_teichmuller_values_frozen():
    R25 = ring_make("witt", 5, 1, 2)
    t2 = R25.teichmuller(R25.residue(R25.from_int(2)))
    assert t2 == R25.from_int(7)  # 2^5 = 32 = 7 mod 25
    assert R25.pow(t2, 5) == t2
    R27 = ring_make("witt", 3, 1, 3)
    assert R27.teichmuller(R27.residue(R27.from_int(2))) == R27.from_int(26)
    R9 = ring_make("witt", 3, 1, 2)
    assert R9.teichmuller(R9.residue(R9.from_int(2))) == R9.from_int(8)


def test_teichmuller_is_multiplicative_and_fixed():
    for kind, p, f, r in [("witt", 5, 1, 2), ("witt", 2, 2, 2), ("poly", 3, 1, 3)]:
        R = ring_make(kind, p, f, r)
        F = R.field
        lifts = {a: R.teichmuller(a) for a in F.elements()}
        for a in F.elements():
            ta = lifts[a]
            assert R.residue(ta) == a
            assert R.pow(ta, R.q) == ta
            for b in F.elements():
                assert R.mul(ta, lifts[b]) == lifts[F.mul(a, b)]


def test_witt_digits_of_12_in_z25():
    R = ring_make("witt", 5, 1, 2)
    d = R.witt_digits(R.from_int(12))
    assert d == (R.field.from_int(2), R.field.from_int(1))
    # greedy expansion by hand: tau(2) = 7, (12 - 7)/5 = 1, tau(1) = 1
    assert R.from_digits(d) == R.from_int(7 + 5 * 1)
    assert R.from_int(7 + 5) == R.from_int(12)


def test_digit_expansion_roundtrip_everywhere():
    for kind, p, f, r in [("witt", 2, 1, 3), ("witt", 3, 2, 2),
                          ("poly", 2, 2, 2), ("poly", 5, 1, 3)]:
        R = ring_make(kind, p, f, r)
        for a in R.elements():
            d = R.witt_digits(a)
            assert len(d) == r
            assert R.from_digits(d) == a


def test_valuation_and_units():
    R = ring_make("poly", 3, 1, 3)
    assert R.valuation(R.zero) == 3
    assert R.valuation(R.one) == 0
    assert R.valuation(R.pi) == 1
    assert R.valuation(R.mul(R.pi, R.pi)) == 2
    units = [a for a in R.elements() if R.is_unit(a)]
    assert len(units) == 2 * 9  # (q-1) q^(r-1)
    for a in units:
        assert R.mul(a, R.inv(a)) == R.one
    with pytest.raises(NonUnitError):
        R.inv(R.pi)
    with pytest.raises(NonUnitError):
        R.inv(R.zero)


def test_inverse_on_random_units(rng):
    for kind, p, f, r in [("witt", 2, 1, 4), ("witt", 7, 1, 2),
                          ("witt", 2, 2, 3), ("poly", 3, 2, 2)]:
        R = ring_make(kind, p, f, r)
        found = 0
        while found < 25:
            a = R.rand(rng)
            if not R.is_unit(a):
                continue
            assert R.mul(a, R.inv(a)) == R.one
            found += 1


def test_reduction_is_a_homomorphism(rng):
    R = ring_make("witt", 3, 1, 3)
    R9 = R.truncate(2)
    assert R9.label == "Z/9"
    for _ in range(100):
        a, b = R.rand(rng), R.rand(rng)
        assert R.reduce_to(R.mul(a, b), 2) == R9.mul(R.reduce_to(a, 2), R.reduce_to(b, 2))
        assert R.reduce_to(R.add(a, b), 2) == R9.add(R.reduce_to(a, 2), R.reduce_to(b, 2))
    # composing two reductions = reducing once
    for a in R.elements():
        assert R9.reduce_to(R.reduce_to(a, 2), 1) == R.reduce_to(a, 1)


def test_truncate_caches_and_degenerate_cases():
    R = ring_make("poly", 2, 2, 3)
    assert R.truncate(3) is R
    assert R.truncate(1) is ring_make("poly", 2, 2, 1)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(["witt", "poly"]), p=st.sampled_from([2, 3, 5]),
       f=st.integers(1, 3), r=st.integers(1, 4), data=st.data())
def test_every_element_is_its_flat_coordinate_tuple(kind, p, f, r, data):
    R = ring_make(kind, p, f, r)
    F = R.field

    def flat(x):
        return (type(x) is tuple and len(x) == R.w
                and all(type(c) is int and 0 <= c < R.coord_mod for c in x))
    ks = data.draw(st.lists(st.integers(0, R.size - 1), min_size=2, max_size=2))
    for k, row in zip(ks, ringmod._index_coords(ks, R.coord_mod, R.w).tolist()):
        assert R.from_index(k) == tuple(row)
    a, b = (R.from_index(k) for k in ks)
    fel = F.from_index(data.draw(st.integers(0, R.q - 1)))
    digits = [F.from_index(data.draw(st.integers(0, R.q - 1))) for _ in range(r)]
    unit = a if R.is_unit(a) else R.add(a, R.one)
    for x in (R.add(a, b), R.sub(a, b), R.neg(a), R.mul(a, b),
              R.pow(a, data.draw(st.integers(0, 40))), R.inv(unit),
              R.teichmuller(fel), R.lift(fel),
              R.from_int(data.draw(st.integers(-1000, 1000))),
              R.from_digits(digits), parse_element(R, R.render(a))):
        assert flat(x), x
    if R.size <= 729:
        assert list(R.elements()) == [R.from_index(k) for k in range(R.size)]


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["witt", "poly"]), p=st.sampled_from([2, 3, 5, 7]),
       f=st.integers(1, 3), data=st.data())
def test_field_is_the_length_one_ring(kind, p, f, data):
    F, R = field_make(p, f), ring_make(kind, p, f, 1)
    assert (F.w, F.coord_mod, F.size, F.zero, F.one) == (R.w, R.coord_mod, R.size, R.zero, R.one)
    ks = data.draw(st.lists(st.integers(0, F.size - 1), min_size=2, max_size=2))
    a, b = (F.from_index(k) for k in ks)
    assert [R.from_index(k) for k in ks] == [a, b]
    assert [F.index(a), F.index(b)] == [R.index(a), R.index(b)] == ks
    k = data.draw(st.integers(-1000, 1000))
    e = data.draw(st.integers(-40, 40)) if a != F.zero else data.draw(st.integers(0, 40))
    assert F.from_int(k) == R.from_int(k)
    assert (F.add(a, b), F.sub(a, b), F.neg(a), F.mul(a, b), F.pow(a, e)) == \
        (R.add(a, b), R.sub(a, b), R.neg(a), R.mul(a, b), R.pow(a, e))
    assert np.array_equal(F.structure_tensor(), R.structure_tensor())
    seed = data.draw(st.integers(0, 2 ** 32))
    assert F.rand(random.Random(seed)) == R.rand(random.Random(seed))
    if F.size <= 125:
        assert list(F.elements()) == list(R.elements())


def test_index_and_coords_roundtrip():
    for kind, p, f, r in [("witt", 3, 1, 2), ("witt", 2, 2, 2), ("poly", 3, 2, 2)]:
        R = ring_make(kind, p, f, r)
        idxs = sorted(R.index(a) for a in R.elements())
        assert idxs == list(range(R.size))
        for a in R.elements():
            assert R.from_index(R.index(a)) == a
            assert R.from_coords(a) == a


@pytest.mark.parametrize("kind, p, f, r", [("poly", 3, 1, 2), ("witt", 3, 1, 2), ("poly", 2, 2, 2),
                                           ("field", 3, 2, 1)])
def test_from_index_rejects_out_of_range(kind, p, f, r):
    R = field_make(p, f) if kind == "field" else ring_make(kind, p, f, r)
    assert R.from_index(R.size - 1) == (R.coord_mod - 1,) * R.w
    for k in (R.size, R.size + 1, -1):
        with pytest.raises(ValueError):
            R.from_index(k)


def test_encode_decode_roundtrip(rng):
    for kind, p, f, r in [("witt", 251, 1, 2), ("poly", 7, 2, 2)]:
        R = ring_make(kind, p, f, r)
        for _ in range(50):
            a = R.rand(rng)
            blob = R.encode(a)
            assert isinstance(blob, bytes)
            assert R.decode(blob) == a


def test_selftest_grid():
    for kind, p, f, r in [("witt", 2, 1, 3), ("witt", 5, 2, 2),
                          ("poly", 2, 2, 3), ("poly", 7, 1, 2)]:
        rep = ring_make(kind, p, f, r).selftest(seed=3)
        assert rep.ok, rep.failures()
        names = {c.name for c in rep.checks}
        assert "characteristic" in names
        assert "teichmuller-multiplicative" in names


def test_selftest_zmod_agreement_runs_for_f1():
    rep = ring_make("witt", 3, 1, 2).selftest()
    modes = {c.name: c.mode for c in rep.checks}
    assert modes["zmod-agreement"] != "skipped"


# ---------------------------------------------------------------------------
# parser

def test_parse_witt_integers():
    R = ring_make("witt", 5, 1, 2)
    assert parse_element(R, "7") == R.from_int(7)
    assert parse_element(R, "-1") == R.from_int(24)
    assert parse_element(R, "2^3") == R.from_int(8)
    assert parse_element(R, "3*4+1") == R.from_int(13)
    assert parse_element(R, "2(3+4)") == R.from_int(14)


def test_parse_poly_literals():
    R = ring_make("poly", 5, 1, 2)
    assert parse_element(R, "t") == R.pi
    assert parse_element(R, "1+2t") == R.add(R.one, R.int_mul(R.pi, 2))
    assert parse_element(R, "t^2") == R.zero
    assert parse_element(R, "(1+2t)^2") == parse_element(R, "1+4t")
    R3 = ring_make("poly", 3, 1, 3)
    a = parse_element(R3, "1+2t+t^2")
    assert R3.render(a) == "1+2t+t^2"


def test_parse_extension_generator():
    R = ring_make("witt", 2, 2, 2)
    x = parse_element(R, "x")
    assert x == R.from_coords((0, 1))
    assert parse_element(R, "x^2") == R.from_coords((3, 3))
    assert parse_element(R, "1+2x") == R.from_coords((1, 2))
    Rp = ring_make("poly", 2, 2, 2)
    xt = parse_element(Rp, "x t")
    assert Rp.valuation(xt) == 1


@pytest.mark.parametrize("p, digest", [
    (2, "fa83a9cc5550a2893ea024ca6294474865107374775ef7213a8d5d00c60d4e12"),
    (3, "e815a77adcdab467b7047ec2fbcc8b3a6e623196bba5faf6cd0a5ae9ad2ba3dd"),
])
def test_poly_extension_text_form_pinned(p, digest):
    R = ring_make("poly", p, 2, 2)  # F_4[t]/t^2 and F_9[t]/t^2
    texts = [R.render(a) for a in R.elements()]
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == digest
    assert [parse_element(R, text) for text in texts] == list(R.elements())


def test_parse_render_roundtrip(rng):
    for kind, p, f, r in [("witt", 3, 1, 3), ("witt", 2, 2, 2),
                          ("poly", 5, 1, 2), ("poly", 2, 2, 2)]:
        R = ring_make(kind, p, f, r)
        for _ in range(60):
            a = R.rand(rng)
            assert parse_element(R, R.render(a)) == a


def test_parse_errors_carry_positions():
    R = ring_make("witt", 5, 1, 2)
    with pytest.raises(ParseError) as ei:
        parse_element(R, "1+")
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_element(R, "(2")
    with pytest.raises(ParseError) as ei:
        parse_element(R, "1+t")  # no 't' in witt kind
    assert ei.value.position == 2
    with pytest.raises(ParseError):
        parse_element(R, "x")  # f = 1
    with pytest.raises(ParseError) as ei:
        parse_element(R, "3 @ 4")
    assert "@" in str(ei.value)
    with pytest.raises(ParseError):
        parse_element(R, "1 2^")
    # base position offsets propagate (matrix parsing relies on this)
    with pytest.raises(ParseError) as ei:
        parse_element(R, "1+", base_pos=10)
    assert ei.value.position == 12


def test_parse_rejects_trailing_garbage():
    R = ring_make("poly", 3, 1, 2)
    with pytest.raises(ParseError):
        parse_element(R, "1+t)")


def test_pow_negative_exponent_inverts():
    R = ring_make("witt", 5, 1, 2)
    a = R.from_int(7)
    assert R.pow(a, -1) == R.from_int(18)
    assert R.pow(a, -2) == R.mul(R.from_int(18), R.from_int(18))
    assert math.gcd(7, 25) == 1  # sanity: 7 really is a unit


# ---------------------------------------------------------------------------
# powers and the self test's batched checks

def _count_calls(monkeypatch, cls, name):
    calls = [0]
    orig = getattr(cls, name)

    def counted(*args):
        calls[0] += 1
        return orig(*args)
    monkeypatch.setattr(cls, name, counted)
    return calls


@pytest.mark.parametrize("e", [1, 2, 3, 4, 5, 7, 8, 13, 64, 255, 1000])
def test_pow_makes_no_product_by_one(monkeypatch, e):
    F = Fq(3, 2)
    R = ring_make("witt", 2, 2, 3)
    fq_calls = _count_calls(monkeypatch, Fq, "mul")
    ring_calls = _count_calls(monkeypatch, Ring, "mul")
    expected = e.bit_length() - 1 + bin(e).count("1") - 1
    a = (2, 1)
    got = F.pow(a, e)
    assert fq_calls[0] == expected
    ref = F.one
    for _ in range(e):
        ref = F.mul(ref, a)
    assert got == ref
    got = R.pow((3, 5), e)
    assert ring_calls[0] == expected
    ref = R.one
    for _ in range(e):
        ref = R.mul(ref, (3, 5))
    assert got == ref
    assert F.pow(a, 0) == F.one and R.pow((3, 5), 0) == R.one


def _scalar_fermat_witness(F):
    for a in F.elements():
        x = a
        for _ in range(F.f):
            x = F.frobenius(x)
        if x != a:
            return a
    return None


@pytest.mark.parametrize("p, f, modulus, witness", [
    (2, 2, (0, 0, 1), (0, 1)),        # F_2[x]/x^2: x^2 = 0
    (2, 2, (1, 0, 1), (0, 1)),        # F_2[x]/(x+1)^2: x^4 = 1
    (3, 2, (2, 0, 1), None),          # F_3[x]/(x^2-1) = F_3 x F_3
    (3, 2, (0, 0, 1), (0, 1)),        # F_3[x]/x^2
    (2, 3, (0, 1, 0, 1), (0, 1, 0)),  # F_2[x]/x(x+1)^2: x^8 = x^2
    (5, 2, (2, 0, 1), None),          # the field itself
])
def test_batch_fermat_matches_scalar_on_replaced_modulus(p, f, modulus, witness):
    F = Fq(p, f)
    F.modulus = modulus  # after construction: no irreducibility check
    assert F.fermat_check() == _scalar_fermat_witness(F) == witness


def test_fermat_disagreement_between_batch_and_scalar_is_a_witness(monkeypatch):
    F = Fq(2, 3)  # 8 elements: every one is an agreement sample
    wrong = (1, 1, 0)
    frob = F.frobenius
    monkeypatch.setattr(F, "frobenius", lambda a: F.zero if a == wrong else frob(a))
    assert F.fermat_check() == wrong


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["witt", "poly"]), p=st.sampled_from([2, 3, 5]),
       f=st.integers(1, 3), r=st.integers(1, 4), data=st.data())
def test_batch_digits_and_units_agree_with_scalar(kind, p, f, r, data):
    R = ring_make(kind, p, f, r)
    idx = data.draw(st.lists(st.integers(0, R.size - 1), min_size=1, max_size=16))
    a = ringmod._index_coords(idx, R.coord_mod, R.w)
    digits, back, stuck = ringmod._digit_roundtrip(R, ringmod._teichmuller_table(R), a)
    units = ringmod._unit_mask(R, a)
    assert not stuck.any()
    for k, row, d_row, b_row, unit in zip(idx, a.tolist(), digits.tolist(),
                                          back.tolist(), units.tolist()):
        x = R.from_index(k)
        assert x == tuple(row)
        d = R.witt_digits(x)
        assert d == tuple(map(tuple, d_row))
        assert R.from_digits(d) == R.from_coords(b_row) == x
        assert R.is_unit(x) == unit


def test_selftest_batch_checks_report_failures():
    R = ring_make("witt", 3, 1, 2)  # Z/9, tau = (0, 1, 8)
    good = ringmod._teichmuller_table(R)
    assert ringmod._exhaustive_walk(R, good, 6) == (None, None, None)
    assert ringmod._teichmuller_product_failure(R, good) is None
    # tau(2) = 2 keeps the residues, so the digits still round-trip, but
    # the scalar digits of 2 (sampled) disagree, and tau(2)^2 != tau(1)
    lifts = good.copy()
    lifts[2] = 2
    assert ringmod._exhaustive_walk(R, lifts, 6)[2] == "2"
    assert ringmod._teichmuller_product_failure(R, lifts) == 2 * 3 + 2
    # tau(2) = 0 has the wrong residue: 2 - tau(2) does not shift down by 3
    a = ringmod._index_coords(range(9), 9, 1)
    lifts[2] = 0
    stuck = ringmod._digit_roundtrip(R, lifts, a)[2]
    assert np.flatnonzero(stuck).tolist() == [2, 5, 8]
    assert ringmod._exhaustive_walk(R, lifts, 6)[2] == "2"


def _check(report, name):
    return next(c for c in report.checks if c.name == name)


def test_selftest_walk_checks_scalar_encode_and_is_unit(monkeypatch):
    R = ring_make("witt", 2, 1, 9)  # Z/512: two bytes per coordinate
    assert R.coeff_width == 2
    encode = Ring.encode
    monkeypatch.setattr(Ring, "encode", lambda self, a: encode(self, a)[::-1])
    card = _check(R.selftest(), "cardinality")
    assert not card.ok and card.mode == "exhaustive"
    assert card.witness == "encode disagrees with the batch bytes on 32"
    monkeypatch.setattr(Ring, "encode", encode)
    monkeypatch.setattr(Ring, "valuation", lambda self, a: 0)
    units = _check(R.selftest(), "unit-count")
    assert not units.ok and units.mode == "exhaustive"
    assert units.witness == "is_unit disagrees with the batch mask on 32"


@pytest.mark.parametrize("p, f, r", [
    (3, 1, 20),  # tau(2)^2 = (3^20 - 1)^2 wraps int64
    (3, 1, 41),  # 3^41 > 2^63: the lifts themselves do not fit
    (3, 2, 20),  # f > 1: the lifts fit, their products do not
    (2, 2, 64),  # 2^64 > 2^63
])
def test_selftest_teichmuller_pairs_exact_beyond_int64(monkeypatch, p, f, r):
    R = ring_make("witt", p, f, r)
    assert R.structure_tensor().dtype == object  # products on Python ints
    monkeypatch.setattr(ringmod, "_SAMPLES", 5)
    report = R.selftest()
    assert report.ok, report.failures()
    assert _check(report, "teichmuller-multiplicative").mode == "exhaustive"


@pytest.mark.parametrize("kind", ["witt", "poly"])
def test_selftest_teichmuller_fixed_samples_above_the_cap(monkeypatch, kind):
    R = ring_make(kind, 5, 1, 2)
    assert _check(R.selftest(), "teichmuller-fixed").mode == "exhaustive"
    monkeypatch.setattr(ringmod, "_EXHAUSTIVE_CAP", 4)  # q = 5 lifts to walk
    fixed = _check(R.selftest(), "teichmuller-fixed")
    assert fixed.ok and fixed.mode == "sampled"


# ---------------------------------------------------------------------------
# the one multiply-mod-monic kernel (Fq.mul, Ring.mul and the irreducibility
# test) against arithmetic written outside truncgrp

def _gf(coeffs):
    """Ascending coefficient tuple to a galoistools list (leading first)."""
    return gf_strip([int(c) for c in reversed(coeffs)])


def _from_gf(g, n):
    """A galoistools list of degree < n to n ascending coefficients."""
    return tuple(reversed(g)) + (0,) * (n - len(g))


@settings(max_examples=200, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), f=st.integers(1, 4), data=st.data())
def test_fq_mul_matches_sympy_galoistools(p, f, data):
    F = field_make(p, f)
    elem = st.tuples(*[st.integers(0, p - 1)] * f)
    a, b = data.draw(elem), data.draw(elem)
    ref = gf_rem(gf_mul(_gf(a), _gf(b), p, ZZ), _gf(F.modulus), p, ZZ)
    assert F.mul(a, b) == _from_gf(ref, f)


def test_factorize_matches_sympy_on_every_grid_field_order():
    # q^d - 1 for d <= 6: the values exponent_multiple factors for n <= 6
    fields = {(p, f) for p, f, _ in _selftest_grid()}
    values = sorted({p ** (f * d) - 1 for p, f in fields for d in range(1, 7)})
    assert len(values) == 335
    for n in values:
        got = ringmod._factorize(n)
        assert got == factorint(n) and list(got) == sorted(got), n


@pytest.mark.parametrize("n", [
    1, 2, 2 ** 89 - 1,                  # a prime beyond the deterministic MR range
    (2 ** 61 - 1) ** 2,                 # rho would need ~2^30 steps
    3 * (2 ** 31 - 1) ** 2,
    561, 41041,                         # Carmichael numbers
    3215031751,                         # strong pseudoprime to bases 2, 3, 5, 7
    2 ** 64 - 1,
])
def test_factorize_matches_sympy_on_edge_cases(n):
    got = ringmod._factorize(n)
    assert got == factorint(n) and list(got) == sorted(got)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_irreducibility_matches_sympy_on_every_small_monic(p):
    for f in (2, 3, 4):
        for low in itertools.product(range(p), repeat=f):
            m = low + (1,)
            assert ringmod._is_irreducible(m, p) == gf_irreducible_p(_gf(m), p, ZZ), m


def test_irreducibility_matches_sympy_without_the_root_screen():
    # p > 1000 skips the linear-factor screen: every degree runs the powers
    p, rng = 1009, random.Random(7)
    verdicts = set()
    for f in (2, 3):
        for _ in range(60):
            m = tuple(rng.randrange(p) for _ in range(f)) + (1,)
            verdict = ringmod._is_irreducible(m, p)
            assert verdict == gf_irreducible_p(_gf(m), p, ZZ), m
            verdicts.add(verdict)
    assert verdicts == {True, False}


_X = symbols("x")


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), f=st.integers(2, 4), r=st.integers(1, 4),
       data=st.data())
def test_witt_mul_matches_integer_polynomial_remainder(p, f, r, data):
    R = ring_make("witt", p, f, r)
    elem = st.tuples(*[st.integers(0, R.pr - 1)] * f)
    a, b = data.draw(elem), data.draw(elem)

    def poly(c):
        return Poly(list(reversed(c)), _X, domain=ZZ)
    rem = (poly(a) * poly(b)).rem(poly(R.mhat)).all_coeffs()[::-1]
    ref = tuple(int(c) % R.pr for c in rem) + (0,) * (f - len(rem))
    assert R.mul(a, b) == ref


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([2, 3, 5]), f=st.integers(1, 3), r=st.integers(1, 5),
       data=st.data())
def test_poly_mul_matches_schoolbook_over_fq(p, f, r, data):
    R = ring_make("poly", p, f, r)
    F = R.field
    a, b = (R.from_index(data.draw(st.integers(0, R.size - 1))) for _ in range(2))
    da, db = R.witt_digits(a), R.witt_digits(b)  # the t^k coefficients
    ref = [F.zero] * r
    for i in range(r):
        for j in range(r - i):
            ref[i + j] = F.add(ref[i + j], F.mul(da[i], db[j]))
    assert R.witt_digits(R.mul(a, b)) == tuple(ref)
