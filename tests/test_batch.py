import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgrp import Mat, mat_coords, mat_from_coords, ring_make
from truncgrp import batch as batchmod
from truncgrp import ring as ringmod
from truncgrp.batch import BatchRing, _regrep
from truncgrp.matrix import determinant


def _rand_mat(R, n, rng):
    return Mat(R, [[R.rand(rng) for _ in range(n)] for _ in range(n)])


def test_batch_matmul_agrees_with_scalar(rng):
    rings = [
        ring_make("witt", 2, 1, 3),
        ring_make("witt", 3, 2, 2),
        ring_make("poly", 2, 2, 2),
        ring_make("poly", 5, 1, 3),
    ]
    for R in rings:
        br = BatchRing.get(R)
        for n in (1, 2, 3):
            for _ in range(5):
                a = _rand_mat(R, n, rng)
                b = _rand_mat(R, n, rng)
                prod = br.matmul(np.array([mat_coords(a)]), np.array([mat_coords(b)]))
                assert mat_from_coords(R, prod[0]) == a * b
            top = Mat(R, [[R.from_coords([R.coord_mod - 1] * R.w)] * n] * n)
            mats = [top, a, b]
            coords = np.array([mat_coords(m) for m in mats])
            assert _to_mats(R, br.matpow(coords, 5)) == [m ** 5 for m in mats]
            # the (N, 1) x (1, N) outer broadcast of the oracle's table
            table = br.matmul(coords[:, None], coords[None])
            assert [_to_mats(R, row) for row in table] == [[x * y for y in mats] for x in mats]


@pytest.mark.parametrize("kind", ["witt", "poly"])
def test_batched_determinant_agrees_with_scalar(kind, rng):
    # the SL corner solve runs determinant on coordinate stacks
    R = ring_make(kind, 3, 2, 2)
    br = BatchRing.get(R)
    for n in (1, 2, 3, 4):
        mats = [_rand_mat(R, n, rng) for _ in range(6)]
        coords = np.array([mat_coords(m) for m in mats])
        got = determinant(br, np.moveaxis(coords, 0, 2))
        assert [tuple(row) for row in got.tolist()] == [m.det() for m in mats]


@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("kind", ["witt", "poly"])
def test_block_matches_dense_regrep(kind, f, rng):
    # block is the coordinate-major copy of the coordinates, and the
    # multiplication matrices that products read off it, R(a)[k, y] at the
    # nonzero (k, y) only, are the dense regrep of each entry
    R = ring_make(kind, 2, f, 2)
    br = BatchRing.get(R)
    top = R.from_coords([R.coord_mod - 1] * R.w)
    for n in (1, 2, 3):
        mats = [Mat(R, [[top] * n] * n)] + [_rand_mat(R, n, rng) for _ in range(5)]
        coords = np.array([mat_coords(m) for m in mats])
        got = br.block(coords)
        assert got.dtype == br._dtype(n) and got.flags.c_contiguous
        assert np.array_equal(got, np.moveaxis(coords, 0, -1))
        assert np.array_equal(br.block(coords[0]), coords[0])
        reps = br._reps(got)
        sparse = np.zeros((R.w, R.w) + got.shape[:2] + got.shape[3:], dtype=np.int64)
        for k, y, term in br._pairs:
            sparse[k, y] = reps[term]
        assert np.array_equal(sparse.transpose(4, 2, 3, 0, 1), _regrep(br.T, br.M, coords))


def test_regrep_is_multiplicative(rng):
    R = ring_make("poly", 3, 2, 2)
    br = BatchRing.get(R)
    for _ in range(20):
        a, b = R.rand(rng), R.rand(rng)
        ra = _regrep(br.T, br.M, np.array(a))
        rb = _regrep(br.T, br.M, np.array(b))
        rab = _regrep(br.T, br.M, np.array(R.mul(a, b)))
        assert np.array_equal(ra @ rb % br.M, rab)
        # column 0 of the rep is the element itself
        assert np.array_equal(ra[:, 0], np.array(a))


def test_matpow_agrees_with_scalar_pow(rng):
    R = ring_make("witt", 2, 1, 4)
    br = BatchRing.get(R)
    mats = [_rand_mat(R, 2, rng) for _ in range(6)]
    coords = np.array([mat_coords(m) for m in mats])
    for e in (0, 1, 2, 7, 16):
        pw = br.matpow(coords, e)
        assert pw.shape == coords.shape
        for i, m in enumerate(mats):
            assert mat_from_coords(R, pw[i]) == m ** e
    with pytest.raises(ValueError):
        br.matpow(coords, -1)


def test_is_identity_mask(rng):
    R = ring_make("poly", 3, 1, 2)
    br = BatchRing.get(R)
    ident = Mat.identity(R, 2)
    m = _rand_mat(R, 2, rng)
    while m == ident:
        m = _rand_mat(R, 2, rng)
    coords = np.array([mat_coords(ident), mat_coords(m)])
    mask = br.is_identity(coords)
    assert mask.tolist() == [True, False]
    assert np.array_equal(br.identity(2), mat_coords(ident))


def test_encode_is_injective_exhaustively():
    R = ring_make("witt", 2, 1, 2)  # 4 elements, 2x2 matrices: 256 total
    br = BatchRing.get(R)
    all_coords = np.array(list(itertools.product(range(4), repeat=4)), dtype=np.int64)
    coords = np.zeros((256, 2, 2, 1), dtype=np.int64)
    coords[..., 0] = all_coords.reshape(256, 2, 2)
    keys = br.encode(coords)
    assert len(np.unique(keys)) == 256
    assert keys.min() == 0 and keys.max() == 255


@pytest.mark.parametrize("kind, p, f, r, n", [
    ("poly", 3, 1, 3, 2),   # uint8 coordinates, the headline rings
    ("witt", 3, 2, 2, 2),   # n != w
    ("witt", 2, 1, 40, 1),  # uint64 coordinates up to 2^40 - 1
])
def test_encode_is_the_mixed_radix_key(kind, p, f, r, n, rng):
    R = ring_make(kind, p, f, r)
    br = BatchRing.get(R)
    d = n * n * R.w
    top = Mat(R, [[R.from_coords([R.coord_mod - 1] * R.w)] * n] * n)
    coords = np.array([mat_coords(top)] + [mat_coords(_rand_mat(R, n, rng)) for _ in range(7)])
    flat = coords.reshape(-1, d)
    want = [sum(int(x) * R.coord_mod ** i for i, x in enumerate(row)) for row in flat]
    # the table's contiguous unsigned coordinates, and the transposed
    # (D, N) rows that apply_map returns
    table = coords.astype(br.coord_dtype)
    assert br.encode(table).tolist() == want
    assert br.encode(np.ascontiguousarray(flat.T).T.reshape(coords.shape)).tolist() == want
    assert br.encode(coords).tolist() == want


def test_encode_overflow_guard():
    R = ring_make("witt", 2, 1, 40)  # M = 2^40, 2x2: 4*40 bits >> 62
    br = BatchRing.get(R)
    with pytest.raises(OverflowError, match="matrix does not fit in an int64 key"):
        br.encode(np.zeros((1, 2, 2, 1), dtype=np.int64))
    # the blocks and their products are exact past int64
    top = R.from_coords([R.coord_mod - 1])
    x = Mat(R, [[top, top], [R.one, top]])
    coords = mat_coords(x)
    blocked = br.block(coords[None])
    assert blocked.dtype == object and np.array_equal(blocked[..., 0], coords)
    assert mat_from_coords(R, br.matmul(coords, coords)) == x * x
    # M >= 2^64: the guard compares exactly, with no float conversion
    R = ring_make("witt", 2, 1, 70)
    with pytest.raises(OverflowError, match="matrix does not fit in an int64 key"):
        BatchRing.get(R).encode(np.zeros((1, 1, 1, 1), dtype=object))


def test_batchring_is_cached_per_ring():
    R = ring_make("poly", 2, 1, 2)
    assert BatchRing.get(R) is BatchRing.get(R)


def test_matpow_multiplies_only_what_it_needs(monkeypatch, rng):
    R = ring_make("poly", 3, 1, 2)
    br = BatchRing.get(R)
    coords = np.array([mat_coords(_rand_mat(R, 2, rng)) for _ in range(4)])
    calls = {"block": 0, "_product": 0}

    def counted(name):
        method = getattr(BatchRing, name)

        def call(self, *args):
            calls[name] += 1
            return method(self, *args)
        return call
    for name in calls:
        monkeypatch.setattr(BatchRing, name, counted(name))
    for e, expected in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (12, 4)):
        ref = np.broadcast_to(br.identity(2), coords.shape)
        for _ in range(e):
            ref = br.matmul(ref, coords)
        calls.update(block=0, _product=0)
        got = br.matpow(coords, e)
        # one block in, squarings and products on it, one view out
        assert calls == {"block": int(e > 0), "_product": expected}, e
        assert np.array_equal(got, ref), e


# -- scalar vs batch properties ---------------------------------------------

def _fits_encode(kind, p, f, r, n):
    R = ring_make(kind, p, f, r)
    return n * n * R.w * math.log2(R.coord_mod) <= 62


# both kinds, p in 2, 3, 5, f = 1-3, r = 1-4, n = 1-3, within the encode limit
_SHAPES = [s for s in itertools.product(("witt", "poly"), (2, 3, 5), (1, 2, 3),
                                        (1, 2, 3, 4), (1, 2, 3))
           if _fits_encode(*s)]


def _draw_mats(data, R, n, count):
    entry = st.integers(0, R.size - 1).map(R.from_index)
    row = st.lists(entry, min_size=n, max_size=n)
    mats = st.lists(row, min_size=n, max_size=n).map(lambda rows: Mat(R, rows))
    return data.draw(st.lists(mats, min_size=1, max_size=count))


def _to_mats(R, coords):
    return [mat_from_coords(R, c) for c in coords]


@settings(max_examples=80, deadline=None)
@given(shape=st.sampled_from(_SHAPES), data=st.data())
def test_matmul_and_roundtrip_agree_with_scalar(shape, data):
    kind, p, f, r, n = shape
    R = ring_make(kind, p, f, r)
    br = BatchRing.get(R)
    a = _draw_mats(data, R, n, 4)
    b = _draw_mats(data, R, n, 1) * len(a)
    ca = np.array([mat_coords(m) for m in a])
    cb = np.array([mat_coords(m) for m in b])
    prods = br.matmul(ca, cb)
    assert prods.shape == ca.shape
    assert _to_mats(R, prods) == [x * y for x, y in zip(a, b)]
    # one right-hand factor broadcast over the batch
    prods = br.matmul(ca, cb[0])
    assert _to_mats(R, prods) == [x * b[0] for x in a]
    # and one left-hand factor
    prods = br.matmul(cb[0], ca)
    assert _to_mats(R, prods) == [b[0] * x for x in a]
    # the (N, 1) x (1, N) outer broadcast of the oracle's table
    prods = br.matmul(ca[:, None], ca[None])
    assert prods.shape == (len(a), len(a), n, n, R.w)
    assert [_to_mats(R, row) for row in prods] == [[x * y for y in a] for x in a]


@settings(max_examples=60, deadline=None)
@given(shape=st.sampled_from(_SHAPES), data=st.data())
def test_matpow_and_is_identity_agree_with_scalar(shape, data):
    kind, p, f, r, n = shape
    R = ring_make(kind, p, f, r)
    br = BatchRing.get(R)
    ident = Mat.identity(R, n)
    mats = [ident] + _draw_mats(data, R, n, 3)
    e = data.draw(st.integers(0, p * p + 1))
    coords = np.array([mat_coords(m) for m in mats])
    powed = br.matpow(coords, e)
    assert _to_mats(R, powed) == [m ** e for m in mats]
    assert br.is_identity(powed).tolist() == [(m ** e).is_identity() for m in mats]
    assert br.is_identity(coords).tolist() == [m.is_identity() for m in mats]


@pytest.mark.parametrize("kind, p, r, n, dtype", [
    ("poly", 3, 3, 2, np.int8),     # 3 * 2 * 2^2 = 24
    ("poly", 5, 4, 2, np.int16),    # 4 * 2 * 4^2 = 128, one past int8
    ("witt", 2, 8, 2, np.int32),    # 2 * 255^2 = 130050
    ("witt", 2, 16, 2, np.int64),   # 2 * 65535^2 > 2^31
])
def test_stack_dtype_is_narrowest_that_holds_the_sums(kind, p, r, n, dtype, rng):
    R = ring_make(kind, p, 1, r)
    br = BatchRing.get(R)
    # every coordinate M - 1 makes each sum of the top slice as large as it can be
    top = R.from_coords([R.coord_mod - 1] * R.w)
    mats = [Mat(R, [[top] * n] * n)] + [_rand_mat(R, n, rng) for _ in range(4)]
    coords = np.array([mat_coords(m) for m in mats])
    prods = br.matmul(coords, coords[0])
    assert prods.dtype == dtype
    assert _to_mats(R, prods) == [x * mats[0] for x in mats]
    prods = br.matmul(coords[0], coords)
    assert _to_mats(R, prods) == [mats[0] * x for x in mats]


@pytest.mark.parametrize("kind, p, f, r", [
    ("witt", 2, 2, 20),  # GR(2^20, 2): n * 2 * (2^20 - 1)^2 < 2^63
    ("witt", 3, 2, 2),
    ("poly", 2, 2, 3),
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_matmul_dtype_is_never_wider_than_the_bound(kind, p, f, r, n, rng):
    # the multiplication matrices are reduced before they meet the right
    # factor: scaling products of coordinates by structure constants up to
    # M - 1 first would need (M - 1)^3 and push GR(2^20, 2) to object
    R = ring_make(kind, p, f, r)
    br = BatchRing.get(R)
    top = Mat(R, [[R.from_coords([R.coord_mod - 1] * R.w)] * n] * n)
    mats = [top] + [_rand_mat(R, n, rng) for _ in range(3)]
    coords = np.array([mat_coords(m) for m in mats])
    prods = br.matmul(coords, coords[0])
    assert prods.dtype == batchmod._min_int_dtype(R.e * n * R.f * (R.coord_mod - 1) ** 2)
    assert _to_mats(R, prods) == [x * mats[0] for x in mats]


@pytest.mark.parametrize("kind, p, r, a, b, total, negated", [
    ("poly", 3, 3, (1, 0, 0), (2, 2, 2), (0, 2, 2), (2, 0, 0)),  # F_3[t]/t^3
    ("witt", 3, 5, (242,), (242,), (241,), (1,)),                 # Z/3^5
    ("witt", 2, 8, (1,), (255,), (0,), (255,)),                   # Z/2^8
])
def test_add_and_neg_are_exact_on_table_rows(kind, p, r, a, b, total, negated):
    # the table's unsigned coord_dtype rows: no wrap, no out-of-range M
    br = BatchRing.get(ring_make(kind, p, 1, r))
    a, b = (np.array([x], dtype=br.coord_dtype) for x in (a, b))
    assert a.dtype == np.uint8
    assert br.add(a, b).tolist() == [list(total)]
    assert br.neg(a).tolist() == [list(negated)]
    assert br.add(br.neg(a), a).tolist() == [[0] * len(total)]


def _rand_unit_mat(R, n, rng):
    while True:
        m = _rand_mat(R, n, rng)
        if R.is_unit(m.det()):
            return m


@pytest.mark.parametrize("kind, p, f, r, acc", [
    ("witt", 3, 1, 2, None),
    ("witt", 2, 2, 2, None),
    ("poly", 3, 1, 2, None),
    ("poly", 2, 2, 2, None),
    ("witt", 2, 1, 8, np.int32),    # D * 255^2 > 2^15 from D = 1
    ("witt", 2, 1, 16, np.int64),   # D * 65535^2 > 2^31 from D = 1
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_product_map_agrees_with_stacks_and_scalar(kind, p, f, r, acc, n, rng):
    R = ring_make(kind, p, f, r)
    br = BatchRing.get(R)
    ident = Mat.identity(R, n)
    # every coordinate M - 1 puts the largest residues into the sums
    top = Mat(R, [[R.from_coords([R.coord_mod - 1] * R.w)] * n] * n)
    xs = [top, ident] + [_rand_mat(R, n, rng) for _ in range(6)]
    coords = np.array([mat_coords(x) for x in xs])
    s = _rand_unit_mat(R, n, rng)
    a, b = _rand_mat(R, n, rng), _rand_mat(R, n, rng)
    for left, right in ((a, None), (None, b), (top, top), (s, s.inverse())):
        got = br.apply_map(br.product_map(n, left, right), br.block(coords))
        if acc is not None:
            assert got.dtype == acc
        got = got.reshape(coords.shape)
        prods = coords
        if left is not None:
            prods = br.matmul(mat_coords(left), prods)
        if right is not None:
            prods = br.matmul(prods, mat_coords(right))
        assert np.array_equal(got, prods)
        lm, rm = left or ident, right or ident
        assert _to_mats(R, got) == [lm * x * rm for x in xs]


def test_apply_map_overflow_is_defined():
    R = ring_make("witt", 2, 1, 40)  # D (M - 1)^2 = (2^40 - 1)^2 >= 2^63: Python ints
    br = BatchRing.get(R)
    x = Mat(R, [[R.from_coords([3])]])
    lin = br.product_map(1, right=x)
    assert lin.tolist() == [[3]]
    coords = np.array([[[[R.coord_mod - 1]]], [[[5]]]], dtype=np.int64)
    assert br.apply_map(lin, br.block(coords)).tolist() == [[R.coord_mod - 3], [15]]


@pytest.mark.parametrize("p, f, r", [
    (2, 1, 40),  # the coordinates fit int64, sums of their products do not
    (2, 1, 70),  # the coordinates do not fit either
    (3, 2, 41),
    (2, 1, 63),  # uint64 coordinates
    (5, 1, 27),  # int64 holds 5^27, not (5^27 - 1)^2
])
def test_matmul_and_matpow_exact_beyond_int64(p, f, r, rng):
    R = ring_make("witt", p, f, r)
    br = BatchRing.get(R)
    top = Mat(R, [[R.from_coords([R.coord_mod - 1] * R.w)] * 2] * 2)
    mats = [top] + [_rand_mat(R, 2, rng) for _ in range(3)]
    coords = np.array([mat_coords(m) for m in mats])
    prods = br.matmul(coords, coords[::-1])
    assert prods.dtype == object
    assert _to_mats(R, prods) == [x * y for x, y in zip(mats, mats[::-1])]
    assert _to_mats(R, br.matpow(coords, 5)) == [m ** 5 for m in mats]
    # the (N, 1) x (1, N) outer broadcast of the oracle's table
    table = br.matmul(coords[:, None], coords[None])
    assert [_to_mats(R, row) for row in table] == [[x * y for y in mats] for x in mats]


def _product_to(R, a, b, k):
    """R's structure tensor with basis[a] * basis[b] moved to coordinate k."""
    T = R.structure_tensor()
    T[a, b] = 0
    T[a, b, k] = 1
    return T


@pytest.mark.parametrize("p, f, r, a, b, k", [
    (3, 1, 3, 1, 1, 1),   # t * t = t
    (2, 1, 2, 1, 1, 0),   # t * t = 1: wraps past t^r
    (2, 2, 2, 2, 3, 3),   # t * tx = tx: x-component in the wrong t-degree
])
def test_batchring_rejects_a_tensor_that_is_no_truncated_convolution(
        monkeypatch, p, f, r, a, b, k):
    R = ringmod.Ring("poly", p, f, r)
    T = _product_to(R, a, b, k)
    monkeypatch.setattr(R, "structure_tensor", lambda: T.copy())
    with pytest.raises(ArithmeticError):
        BatchRing(R)
