import itertools

import numpy as np
import pytest

from truncgrp import Mat, mat_coords, mat_from_coords, ring_make
from truncgrp.batch import BatchRing


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
                blk = br.matmul(br.block(np.array([mat_coords(a)])),
                                br.block(np.array([mat_coords(b)])))
                got = mat_from_coords(R, br.unblock(blk, n)[0])
                assert got == a * b


def test_block_unblock_roundtrip(rng):
    R = ring_make("witt", 3, 2, 2)  # n != w exercises the axis layout
    br = BatchRing.get(R)
    coords = np.array([mat_coords(_rand_mat(R, 3, rng)) for _ in range(7)])
    back = br.unblock(br.block(coords), 3)
    assert np.array_equal(back, coords)


def test_regrep_is_multiplicative(rng):
    R = ring_make("poly", 3, 2, 2)
    br = BatchRing.get(R)
    for _ in range(20):
        a, b = R.rand(rng), R.rand(rng)
        ra = br.regrep(np.array(R.coords(a)))
        rb = br.regrep(np.array(R.coords(b)))
        rab = br.regrep(np.array(R.coords(R.mul(a, b))))
        assert np.array_equal(ra @ rb % br.M, rab)
        # column 0 of the rep is the element itself
        assert np.array_equal(ra[:, 0], np.array(R.coords(a)))


def test_matpow_agrees_with_scalar_pow(rng):
    R = ring_make("witt", 2, 1, 4)
    br = BatchRing.get(R)
    mats = [_rand_mat(R, 2, rng) for _ in range(6)]
    blocks = br.block(np.array([mat_coords(m) for m in mats]))
    for e in (0, 1, 2, 7, 16):
        pw = br.matpow(blocks, e)
        for i, m in enumerate(mats):
            assert mat_from_coords(R, br.unblock(pw[None, i], 2)[0]) == m ** e
    with pytest.raises(ValueError):
        br.matpow(blocks, -1)


def test_is_identity_mask(rng):
    R = ring_make("poly", 3, 1, 2)
    br = BatchRing.get(R)
    ident = Mat.identity(R, 2)
    m = _rand_mat(R, 2, rng)
    while m == ident:
        m = _rand_mat(R, 2, rng)
    blocks = br.block(np.array([mat_coords(ident), mat_coords(m)]))
    mask = br.is_identity(blocks)
    assert mask.tolist() == [True, False]
    eye = mat_coords(Mat.identity(R, 2))
    assert np.array_equal(br.unblock(br.block(eye[None])[0], 2), eye)


def test_encode_is_injective_exhaustively():
    R = ring_make("witt", 2, 1, 2)  # 4 elements, 2x2 matrices: 256 total
    br = BatchRing.get(R)
    all_coords = np.array(list(itertools.product(range(4), repeat=4)), dtype=np.int64)
    coords = np.zeros((256, 2, 2, 1), dtype=np.int64)
    coords[..., 0] = all_coords.reshape(256, 2, 2)
    keys = br.encode(coords)
    assert len(np.unique(keys)) == 256
    assert keys.min() == 0 and keys.max() == 255


def test_encode_overflow_guard():
    R = ring_make("witt", 2, 1, 40)  # M = 2^40, 2x2: 4*40 bits >> 62
    br = BatchRing.get(R)
    with pytest.raises(OverflowError):
        br.encode(np.zeros((1, 2, 2, 1), dtype=np.int64))
    with pytest.raises(OverflowError):
        br.block(np.zeros((1, 2, 2, 1), dtype=np.int64))


def test_batchring_is_cached_per_ring():
    R = ring_make("poly", 2, 1, 2)
    assert BatchRing.get(R) is BatchRing.get(R)


def test_matpow_multiplies_only_what_it_needs(monkeypatch, rng):
    R = ring_make("poly", 3, 1, 2)
    br = BatchRing.get(R)
    blocks = br.block(np.array([mat_coords(_rand_mat(R, 2, rng)) for _ in range(4)]))
    calls = [0]
    matmul = BatchRing.matmul

    def counted(self, a, b):
        calls[0] += 1
        return matmul(self, a, b)
    monkeypatch.setattr(BatchRing, "matmul", counted)
    for e, expected in ((0, 0), (1, 0), (2, 1), (3, 2), (4, 2), (5, 3), (12, 4)):
        calls[0] = 0
        got = br.matpow(blocks, e)
        assert calls[0] == expected, e
        ref = np.broadcast_to(np.eye(blocks.shape[-1], dtype=np.int64), blocks.shape)
        for _ in range(e):
            ref = matmul(br, ref, blocks)
        assert np.array_equal(got, ref), e
