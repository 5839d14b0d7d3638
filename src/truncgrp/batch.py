"""Vectorized batch arithmetic for matrices over a truncated local ring.

A ring element with coordinate vector a (w coordinates mod M, see
``ring.Ring.coords``) is expanded to the w x w integer matrix of
multiplication-by-a on the coordinate basis.  An n x n ring matrix then
becomes an (n*w) x (n*w) integer block matrix, and because the
expansion is a ring homomorphism, batched ``np.matmul`` followed by
``% M`` multiplies whole arrays of group elements exactly.  The
coordinate form is recovered from the first column of each block (the
image of 1, which is the 0th basis vector).

This module only moves arrays around; all structure constants are
produced by the scalar layer in ``ring``, so the two layers cannot
drift apart silently.
"""

from __future__ import annotations

import numpy as np


def _min_uint_dtype(bound):
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise OverflowError("coordinate modulus too large")


def tensor_from_mul(mul, basis, coords) -> np.ndarray:
    """T[i, j, k] with basis[i] * basis[j] = sum_k T[i, j, k] basis[k],
    from the scalar ``mul``; ``coords`` reads an element's coordinates."""
    w = len(basis)
    T = np.zeros((w, w, w), dtype=np.int64)
    for i in range(w):
        for j in range(w):
            T[i, j] = coords(mul(basis[i], basis[j]))
    return T


def products_fit_int64(w, M) -> bool:
    """Whether sums of w products of residues mod M stay inside int64,
    as every partial sum of ``tensor_mul`` and of block matmuls must."""
    return w * (M - 1) ** 2 < 2 ** 63


def _regrep(T, M, a):
    """(..., w) coordinate vectors to their (..., w, w) multiplication
    matrices mod M: R(a)[k, j] = sum_i a_i T[i, j, k]."""
    rep = np.tensordot(np.asarray(a, dtype=np.int64), T, axes=([-1], [0]))  # (..., j, k)
    return rep.swapaxes(-1, -2) % M


def tensor_mul(T, M, a, b):
    """Products of (..., w) coordinate vectors mod M under the tensor T.

    The multiplication matrix of a (reduced mod M) is applied to b, so a
    partial sum stays below w * (M - 1)^2 (see ``products_fit_int64``)."""
    return np.einsum("...kj,...j->...k", _regrep(T, M, a), b) % M


def square_and_multiply(mul, a, e: int):
    """a^e for e >= 1, left to right: bit_length(e) - 1 squarings and
    popcount(e) - 1 further products, none of them by one."""
    result = a
    for bit in bin(e)[3:]:
        result = mul(result, result)
        if bit == "1":
            result = mul(result, a)
    return result


class BatchRing:
    _cache = {}

    @classmethod
    def get(cls, ring) -> "BatchRing":
        br = cls._cache.get(ring)
        if br is None:
            br = cls(ring)
            cls._cache[ring] = br
        return br

    def __init__(self, ring):
        self.ring = ring
        self.w = ring.w
        self.M = ring.coord_mod
        self.coord_dtype = _min_uint_dtype(self.M - 1)
        w = self.w
        # structure tensor of ring.mul: e_i * e_j = sum_k T[i, j, k] e_k
        self.T = ring.structure_tensor()
        # ring operations on (..., w) coordinate vectors, named as on ring.Ring
        self.zero = np.zeros(w, dtype=np.int64)
        self.one = np.array(ring.coords(ring.one), dtype=np.int64)

    def add(self, a, b):
        return (a + b) % self.M

    def neg(self, a):
        return -a % self.M

    def mul(self, a, b):
        return tensor_mul(self.T, self.M, a, b)

    # -- block packing -------------------------------------------------------

    def regrep(self, coords: np.ndarray) -> np.ndarray:
        """(..., w) coordinate vectors to (..., w, w) multiplication matrices."""
        return _regrep(self.T, self.M, coords)

    def block(self, mats: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinate matrices to (..., n*w, n*w) blocks."""
        m = np.asarray(mats, dtype=np.int64)
        n = m.shape[-2]
        rep = self.regrep(m)  # (..., n, n, w, w) = (row, col, rep-row, rep-col)
        rep = np.moveaxis(rep, -3, -2)  # (..., n, w, n, w)
        shape = rep.shape[:-4] + (n * self.w, n * self.w)
        blk = rep.reshape(shape)
        if not products_fit_int64(n * self.w, self.M):
            raise OverflowError("block products would overflow int64")
        return blk

    def unblock(self, blocks: np.ndarray, n: int) -> np.ndarray:
        """Inverse of ``block``: read coordinates off the image-of-1 columns."""
        b = np.asarray(blocks)
        w = self.w
        shape = b.shape[:-2] + (n, w, n, w)
        rep = b.reshape(shape)
        coords = rep[..., :, :, :, 0]  # (..., n, w, n): image-of-1 column per block
        return coords.swapaxes(-1, -2) % self.M  # (..., n, n, w)

    # -- batched operations ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.matmul(a, b) % self.M

    def matpow(self, blocks: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            n = blocks.shape[-1]
            return np.broadcast_to(np.eye(n, dtype=np.int64), blocks.shape).copy()
        return square_and_multiply(self.matmul, blocks % self.M, e)

    def is_identity(self, blocks: np.ndarray) -> np.ndarray:
        n = blocks.shape[-1]
        eye = np.eye(n, dtype=np.int64)
        return np.all(blocks == eye, axis=(-1, -2))

    # -- canonical integer keys --------------------------------------------------

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinates to int64 keys (mixed-radix, base M)."""
        c = np.asarray(coords, dtype=np.int64)
        n = c.shape[-2]
        d = n * n * self.w
        if d * np.log2(max(self.M, 2)) > 62:
            raise OverflowError("matrix does not fit in an int64 key")
        flat = c.reshape(c.shape[:-3] + (d,))
        weights = (self.M ** np.arange(d, dtype=np.int64)).astype(np.int64)
        return flat @ weights
