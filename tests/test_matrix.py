
import time
import tracemalloc

import pytest

from truncgrp import (GroupDesc, Mat, MembershipError, NonUnitError,
                      ParseError, b_matrix, chu_sum, diagonal, element_order,
                      enumerate_group, exponent_multiple, mat_coords,
                      mat_from_coords, p_exponent, parse_matrix, ring_make,
                      sylow_p_elements, transvection, unitriangular_power)
from truncgrp import matrix
from truncgrp.ring import Ring


def _rand_mat(R, n, rng):
    return Mat(R, [[R.rand(rng) for _ in range(n)] for _ in range(n)])


def _det_cofactor(R, rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = R.zero
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        term = R.mul(rows[0][j], _det_cofactor(R, minor))
        total = R.sub(total, term) if j % 2 else R.add(total, term)
    return total


def _brute_order(m):
    ident = Mat.identity(m.ring, m.n)
    x = m
    for k in range(1, 100_000):
        if x == ident:
            return k
        x = x * m
    raise AssertionError("order did not terminate")


def test_det_matches_cofactor_expansion(rng):
    for kind, p, f, r in [("witt", 2, 1, 3), ("poly", 2, 1, 2), ("witt", 3, 1, 2)]:
        R = ring_make(kind, p, f, r)
        for n in (1, 2, 3, 4, 5, 6):
            for _ in range(15):
                m = _rand_mat(R, n, rng)
                assert m.det() == _det_cofactor(R, [list(row) for row in m.rows])


def test_det_multiplicative(rng):
    R = ring_make("witt", 2, 2, 2)
    for _ in range(40):
        a, b = _rand_mat(R, 3, rng), _rand_mat(R, 3, rng)
        assert (a * b).det() == R.mul(a.det(), b.det())


def test_det_of_diagonal_and_triangular():
    R = ring_make("poly", 3, 1, 2)
    d = diagonal(R, (R.from_int(2), R.one, R.pi))
    assert d.det() == R.int_mul(R.pi, 2)
    t = transvection(R, 4, 0, 2, R.pi)
    assert t.det() == R.one


def test_inverse_roundtrip(rng):
    for kind, p, f, r in [("witt", 2, 1, 4), ("poly", 3, 1, 3), ("witt", 5, 2, 2)]:
        R = ring_make(kind, p, f, r)
        n = 3
        found = 0
        while found < 15:
            m = _rand_mat(R, n, rng)
            if not R.is_unit(m.det()):
                continue
            inv = m.inverse()
            assert (m * inv).is_identity()
            assert (inv * m).is_identity()
            found += 1


def test_inverse_of_singular_raises():
    R = ring_make("witt", 3, 1, 2)
    m = Mat(R, [[R.from_int(3), R.zero], [R.zero, R.one]])
    with pytest.raises(NonUnitError):
        m.inverse()


def test_pow_matches_repeated_multiplication(rng):
    R = ring_make("poly", 2, 2, 2)
    m = _rand_mat(R, 2, rng)
    acc = Mat.identity(R, 2)
    for k in range(8):
        assert m ** k == acc
        acc = acc * m


def test_pow_multiplies_only_what_it_needs(monkeypatch, rng):
    R = ring_make("witt", 3, 1, 2)
    m = _rand_mat(R, 2, rng)
    calls = [0]
    mul = Mat.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)
    monkeypatch.setattr(Mat, "__mul__", counted)
    for e, expected in ((0, 0), (1, 0), (2, 1), (3, 2), (8, 3), (13, 5)):
        calls[0] = 0
        got = m ** e
        assert calls[0] == expected, e
        ref = Mat.identity(R, 2)
        for _ in range(e):
            ref = mul(ref, m)
        assert got == ref, e


def test_negative_power_is_inverse_power(rng):
    R = ring_make("witt", 5, 1, 2)
    g = GroupDesc("GL", 2, R)
    while True:
        m = _rand_mat(R, 2, rng)
        if g.contains(m):
            break
    assert m ** -3 == (m.inverse()) ** 3
    assert (m ** -1) * m == Mat.identity(R, 2)


def test_matrix_literal_roundtrip():
    R = ring_make("poly", 5, 1, 2)
    m = parse_matrix(R, "1,1,0;t,1,1;t,0,1")
    assert m.n == 3
    assert m.entry(1, 0) == R.pi
    assert parse_matrix(R, m.render()) == m
    with pytest.raises(ParseError):
        parse_matrix(R, "1,2;3")  # not square
    with pytest.raises(ParseError) as ei:
        parse_matrix(R, "1,,2;3,4,5;6,7,8")
    assert ei.value.position == 2


def test_mat_coords_roundtrip(rng):
    R = ring_make("witt", 2, 2, 2)
    m = _rand_mat(R, 3, rng)
    assert mat_from_coords(R, mat_coords(m)) == m


# ---------------------------------------------------------------------------
# orders

def test_order_witness_is_25():
    R = ring_make("poly", 5, 1, 2)
    m = parse_matrix(R, "1,1,0;t,1,1;t,0,1")
    grp = GroupDesc("SL", 3, R)
    assert m.det() == R.one
    assert grp.contains(m)
    assert element_order(m, grp) == 25
    assert _brute_order(m) == 25
    assert not (m ** 5).is_identity()
    assert (m ** 25).is_identity()


def test_transvection_order_depends_on_kind():
    for r in (1, 2, 3):
        Rw = ring_make("witt", 3, 1, r)
        Rp = ring_make("poly", 3, 1, r)
        gw = GroupDesc("SL", 2, Rw)
        gp = GroupDesc("SL", 2, Rp)
        tw = transvection(Rw, 2, 0, 1, Rw.one)
        tp = transvection(Rp, 2, 0, 1, Rp.one)
        assert element_order(tw, gw) == 3 ** r
        assert element_order(tp, gp) == 3


def test_element_order_random_vs_brute(rng):
    R = ring_make("witt", 3, 1, 2)
    grp = GroupDesc("GL", 2, R)
    found = 0
    while found < 20:
        m = _rand_mat(R, 2, rng)
        if not grp.contains(m):
            continue
        assert element_order(m, grp) == _brute_order(m)
        found += 1


def test_element_order_rejects_outsiders():
    R = ring_make("witt", 2, 1, 2)
    grp = GroupDesc("SL", 2, R)
    m = Mat(R, [[R.one, R.zero], [R.zero, R.from_int(3)]])  # det 3 != 1
    with pytest.raises(MembershipError):
        element_order(m, grp)


def test_exponent_multiple_kills_every_element(rng):
    for fam, kind, p, r in [("GL", "witt", 2, 2), ("SL", "poly", 3, 2)]:
        R = ring_make(kind, p, 1, r)
        grp = GroupDesc(fam, 2, R)
        m_exp = 1
        for ell, e in exponent_multiple(grp).items():
            m_exp *= ell ** e
        found = 0
        while found < 10:
            m = _rand_mat(R, 2, rng)
            if not grp.contains(m):
                continue
            assert (m ** m_exp).is_identity()
            found += 1


# ---------------------------------------------------------------------------
# binomial double sums and length-2 identities

def test_chu_sum_small_value_by_hand():
    # p=5, k=l=1: sum C(5-i,1) C(i,1) for i=0..4 = 0+4+6+6+4 = 20
    assert sum((5 - i) * i for i in range(5)) == 20
    assert chu_sum(5, 1, 1) == 20 % 5 == 0
    assert chu_sum(3, 1, 1) == 4 % 3 == 1


def test_chu_sum_vanishes_in_range():
    for p in (5, 7, 11, 13):
        for n in range(1, p // 2 + 1):
            for k in range(n):
                for ell in range(n):
                    assert chu_sum(p, k, ell) == 0, (p, k, ell)


def test_chu_sum_rejects_negative():
    with pytest.raises(ValueError):
        chu_sum(5, -1, 0)


def test_unitriangular_power_identity(rng):
    for kind in ("poly", "witt"):
        R = ring_make(kind, 5, 1, 2)
        ident = Mat.identity(R, 3)
        for _ in range(40):
            A = ident
            for i in range(3):
                for j in range(i + 1, 3):
                    A = A.with_entry(i, j, R.rand(rng))
            X = _rand_mat(R, 3, rng)
            m = rng.randrange(0, 12)
            g = A * (ident + X.scale(R.pi))
            assert g ** m == unitriangular_power(A, X, m)


def test_unitriangular_power_validates_input():
    R2 = ring_make("poly", 3, 1, 2)
    R3 = ring_make("poly", 3, 1, 3)
    ident = Mat.identity(R3, 2)
    with pytest.raises(ValueError):
        unitriangular_power(ident, ident, 2)  # r != 2
    bad = Mat(R2, [[R2.from_int(2), R2.zero], [R2.zero, R2.one]])
    with pytest.raises(ValueError):
        unitriangular_power(bad, Mat.zero(R2, 2), 2)


def test_b_matrix_vanishes_mod_pi_for_large_p(rng):
    for kind in ("poly", "witt"):
        R = ring_make(kind, 5, 1, 2)
        for _ in range(30):
            A = Mat.identity(R, 2).with_entry(0, 1, R.rand(rng))
            X = _rand_mat(R, 2, rng)
            B = b_matrix(A, X)
            assert B.reduce_to(1).is_zero()
            # and then the p-th power of A(1 + pi X) stays "diagonal-free":
            g = A * (Mat.identity(R, 2) + X.scale(R.pi))
            assert g ** 5 == (A ** 5) + B.scale(R.pi)


# ---------------------------------------------------------------------------
# Sylow streams and p-exponents

def test_sylow_stream_counts_and_membership():
    cases = [
        ("SL", 2, "witt", 2, 1, 2, 16),
        ("GL", 2, "poly", 3, 1, 2, 243),
        ("SL", 2, "poly", 3, 1, 2, 81),
        ("GL", 2, "witt", 2, 2, 1, 4),
    ]
    for fam, n, kind, p, f, r, expected in cases:
        R = ring_make(kind, p, f, r)
        grp = GroupDesc(fam, n, R)
        assert grp.sylow_size() == expected
        elems = list(sylow_p_elements(grp))
        assert len(elems) == expected
        keys = {e.render() for e in elems}
        assert len(keys) == expected  # pairwise distinct
        for m in elems[:50]:
            assert grp.contains(m)
            # reduction mod pi is upper unitriangular
            assert m.reduce_to(1).is_unitriangular() or r == 1 and m.is_unitriangular()
            o = element_order(m, grp)
            while o % p == 0:
                o //= p
            assert o == 1  # a genuine p-element


def test_sylow_cap_enforced(monkeypatch):
    grp = GroupDesc("GL", 2, ring_make("witt", 3, 1, 3))
    from truncgrp import CapExceededError
    monkeypatch.setattr(matrix, "SYLOW_CAP", 100)
    with pytest.raises(CapExceededError):
        list(sylow_p_elements(grp))


def test_sylow_stream_is_the_unitriangular_preimage():
    # independent of the stream: filter the enumerated group by reduction
    for fam, n, p, f, r in [("GL", 2, 2, 1, 2), ("SL", 2, 3, 1, 2),
                            ("GL", 2, 2, 2, 1), ("SL", 2, 2, 2, 2),
                            ("SL", 3, 2, 1, 1)]:
        for kind in ("witt", "poly"):
            grp = GroupDesc(fam, n, ring_make(kind, p, f, r))
            table = enumerate_group(grp)
            mats = (table.mat(i) for i in range(len(table)))
            preimage = {m for m in mats if m.reduce_to(1).is_unitriangular()}
            stream = list(sylow_p_elements(grp))
            assert len(stream) == grp.sylow_size() == len(preimage), grp.label
            assert set(stream) == preimage, grp.label


def test_p_exponent_pinned_witnesses():
    exhaustive = [
        (("GL", 2, "witt", 3, 1, 3), 27, "1,1;0,1"),
        (("GL", 2, "poly", 3, 1, 3), 9, "1,1+t;0,1+t"),
        (("SL", 2, "poly", 2, 1, 4), 8, "1+t,1;t,1"),
    ]
    for (fam, n, kind, p, f, r), value, witness in exhaustive:
        res = p_exponent(GroupDesc(fam, n, ring_make(kind, p, f, r)))
        assert (res.method, res.value, res.witness.render()) == ("exhaustive", value, witness)
    sampled = [
        (("SL", 2, "witt", 3, 2, 2), 300, 1, 9, "1+3x,4+5x;6x,7+3x"),
        (("SL", 3, "poly", 5, 1, 2), 500, 0, 25, "1+2t,1+2t,4+3t;3t,1+3t,1;4t,t,1+t"),
    ]
    for (fam, n, kind, p, f, r), trials, seed, value, witness in sampled:
        res = p_exponent(GroupDesc(fam, n, ring_make(kind, p, f, r)),
                         strategy="sampled", trials=trials, seed=seed)
        assert (res.method, res.value, res.witness.render()) == ("sampled", value, witness)


def test_sampled_p_exponent_builds_only_the_drawn_kernel_entries(monkeypatch):
    # pi * O_r of Z/2^20 has 2^19 elements; 5 trials draw at most 5 x 4
    R = ring_make("witt", 2, 1, 20)
    calls = []
    from_digits = Ring.from_digits
    monkeypatch.setattr(Ring, "from_digits",
                        lambda self, digits: calls.append(1) or from_digits(self, digits))
    res = p_exponent(GroupDesc("GL", 2, R), strategy="sampled", trials=5)
    assert res.method == "sampled"
    assert 1 <= len(calls) <= 5 * 4


def test_sampled_p_exponent_draws_in_chunks(monkeypatch):
    # GL_2 over Z/9, 100k trials: all draws held at once peaked at 16.5 MB
    # (165 bytes a trial); one _ORDER_CHUNK of rows at a time peaks at 3.2
    grp = GroupDesc("GL", 2, ring_make("witt", 3, 1, 2))
    p_exponent(grp, strategy="sampled", trials=1)
    tracemalloc.start()
    try:
        p_exponent(grp, strategy="sampled", trials=100_000)
        assert tracemalloc.get_traced_memory()[1] < 6_000_000
    finally:
        tracemalloc.stop()
    # the same seeded stream in chunks of 64: the first strict maximum
    # over the chunks is the first argmax over all the draws
    whole = p_exponent(grp, strategy="sampled", trials=1000, seed=5)
    monkeypatch.setattr(matrix, "_ORDER_CHUNK", 64)
    chunked = p_exponent(grp, strategy="sampled", trials=1000, seed=5)
    assert (chunked.value, chunked.witness, chunked.note) == (whole.value, whole.witness, whole.note)


def test_exhaustive_p_exponent_builds_no_scalar_table(monkeypatch):
    # pi * O_r of Z/2^20 has 2^19 elements: the kernel entries come from
    # batched digits, with one scalar from_digits per chunk, not per element
    R = ring_make("witt", 2, 1, 20)
    calls = []
    from_digits = Ring.from_digits
    monkeypatch.setattr(Ring, "from_digits",
                        lambda self, digits: calls.append(1) or from_digits(self, digits))
    res = p_exponent(GroupDesc("GL", 1, R))
    assert (res.method, res.value) == ("exhaustive", 2 ** 18)
    assert 1 <= len(calls) <= -(-(2 ** 19) // matrix._ORDER_CHUNK) == 32


def test_p_exponent_checks_its_witness_with_few_products(monkeypatch):
    # x^(p^(k-1)) != 1 and x^(p^k) = 1, not the full exponent multiple
    grp = GroupDesc("GL", 2, ring_make("poly", 3, 2, 45))
    calls = [0]
    mul = Mat.__mul__

    def counted(self, other):
        calls[0] += 1
        return mul(self, other)
    monkeypatch.setattr(Mat, "__mul__", counted)
    res = p_exponent(grp, strategy="sampled", trials=3)
    assert res.value == 3 ** 5
    assert 0 < calls[0] <= 2 * res.value.bit_length()


@pytest.mark.parametrize("shift", [1, -1])
def test_p_exponent_rejects_a_wrong_batch_order(monkeypatch, shift):
    grp = GroupDesc("GL", 2, ring_make("witt", 3, 1, 2))
    batch_orders = matrix._batch_orders
    monkeypatch.setattr(matrix, "_batch_orders",
                        lambda *args: batch_orders(*args) + shift)
    with pytest.raises(ArithmeticError, match="batch order disagrees"):
        p_exponent(grp)


def test_p_exponent_exhaustive_values():
    cases = [
        ("SL", 2, "witt", 2, 1, 2, 4),
        ("SL", 2, "poly", 2, 1, 2, 4),
        ("SL", 2, "witt", 2, 1, 4, 16),
        ("SL", 2, "poly", 2, 1, 4, 8),
        ("GL", 2, "witt", 5, 1, 2, 25),
        ("GL", 2, "poly", 5, 1, 2, 5),
    ]
    for fam, n, kind, p, f, r, expected in cases:
        grp = GroupDesc(fam, n, ring_make(kind, p, f, r))
        res = p_exponent(grp)
        assert res.method == "exhaustive"
        assert res.value == expected, grp.label
        assert element_order(res.witness, grp) == expected
        assert res.value <= res.upper_bound


def test_p_exponent_sampled_finds_lower_bound():
    grp = GroupDesc("SL", 2, ring_make("witt", 2, 1, 4))
    res = p_exponent(grp, strategy="sampled", trials=200, seed=7)
    assert res.method == "sampled"
    assert res.value in (8, 16)
    assert element_order(res.witness, grp) == res.value
    with pytest.raises(ValueError):
        p_exponent(grp, strategy="bogus")
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials must be >= 1"):
            p_exponent(grp, strategy="sampled", trials=trials)


def test_group_order_formulas():
    assert GroupDesc("GL", 2, ring_make("witt", 3, 1, 1)).order() == 48
    assert GroupDesc("SL", 2, ring_make("witt", 2, 1, 2)).order() == 48
    assert GroupDesc("GL", 2, ring_make("witt", 3, 1, 3)).order() == 314928
    assert GroupDesc("GL", 2, ring_make("poly", 3, 1, 3)).order() == 314928
    assert GroupDesc("GL", 2, ring_make("witt", 2, 2, 1)).order() == 180
    assert GroupDesc("SL", 1, ring_make("poly", 3, 1, 2)).order() == 1
    # GL_1 is the unit group
    R = ring_make("witt", 3, 1, 2)
    g1 = GroupDesc("GL", 1, R)
    assert g1.order() == sum(1 for a in R.elements() if R.is_unit(a))


def test_group_desc_validation():
    R = ring_make("witt", 2, 1, 1)
    with pytest.raises(ValueError):
        GroupDesc("PGL", 2, R)
    with pytest.raises(ValueError):
        GroupDesc("GL", 0, R)


def test_contains_checks_ring_and_det():
    R = ring_make("witt", 3, 1, 2)
    g_gl = GroupDesc("GL", 2, R)
    g_sl = GroupDesc("SL", 2, R)
    m = Mat(R, [[R.from_int(2), R.zero], [R.zero, R.one]])
    assert g_gl.contains(m)
    assert not g_sl.contains(m)
    other = Mat(ring_make("witt", 3, 1, 3), [[ring_make("witt", 3, 1, 3).one]])
    assert not g_gl.contains(other)


def test_unit_pivot_elimination_handles_pi_blocks():
    # a 5x5 determinant with non-unit diagonal blocks
    R = ring_make("poly", 2, 1, 2)
    t = R.pi
    rows = [[R.zero] * 5 for _ in range(5)]
    for i in range(5):
        rows[i][i] = t
    m = Mat(R, rows)
    assert m.det() == R.zero  # t^5 = 0 in length 2
    rows[0][0] = R.one
    rows[1][1] = R.one
    rows[2][2] = R.one
    m2 = Mat(R, rows)
    assert m2.det() == R.zero  # t^2 = 0
    assert _det_cofactor(R, rows) == R.zero


def test_det_of_10x10_non_units_is_exact_within_budget(rng):
    # no unit pivot exists in pi*I or below row 2 of the second matrix;
    # the determinant must not fall back to a factorial expansion there
    for kind in ("poly", "witt"):
        R = ring_make(kind, 2, 1, 12)
        n, pi = 10, R.pi
        start = time.perf_counter()
        assert Mat.identity(R, n).scale(pi).det() == R.pow(pi, n)
        # [[U, B], [0, pi L]] V with U, V upper and L lower unitriangular
        # has det pi^8, and every entry of its last 8 rows is a non-unit
        rows = [[R.zero] * n for _ in range(n)]
        V = Mat.identity(R, n)
        for i in range(n):
            for j in range(n):
                if i < 2 <= j or i < j < 2:
                    rows[i][j] = R.rand(rng)
                elif 2 <= j < i:
                    rows[i][j] = R.mul(pi, R.rand(rng))
                if i < j:
                    V = V.with_entry(i, j, R.rand(rng))
            rows[i][i] = R.one if i < 2 else pi
        m = Mat(R, rows) * V
        assert all(not R.is_unit(a) for row in m.rows[2:] for a in row)
        assert m.det() == R.pow(pi, n - 2)
        assert time.perf_counter() - start < 2.0


def test_mat_is_hashable_and_immutable():
    R = ring_make("witt", 2, 1, 1)
    m = Mat.identity(R, 2)
    assert hash(m) == hash(Mat.identity(R, 2))
    with pytest.raises(AttributeError):
        m.rows = ()
    s = {m, Mat.identity(R, 2)}
    assert len(s) == 1
