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
        # structure tensor: e_i * e_j = sum_k T[i, j, k] e_k
        w = self.w
        T = np.zeros((w, w, w), dtype=np.int64)
        basis = [ring.from_coords(tuple(1 if i == k else 0 for k in range(w))) for i in range(w)]
        for i in range(w):
            for j in range(w):
                T[i, j] = ring.coords(ring.mul(basis[i], basis[j]))
        self.T = T
        # ring operations on (..., w) coordinate vectors, named as on ring.Ring
        self.zero = np.zeros(w, dtype=np.int64)
        self.one = np.array(ring.coords(ring.one), dtype=np.int64)

    def add(self, a, b):
        return (a + b) % self.M

    def neg(self, a):
        return -a % self.M

    def mul(self, a, b):
        # regrep(a) applied to b: partial sums stay within block's bound
        return np.einsum("...kj,...j->...k", self.regrep(a), b) % self.M

    # -- block packing -------------------------------------------------------

    def regrep(self, coords: np.ndarray) -> np.ndarray:
        """(..., w) coordinate vectors to (..., w, w) multiplication matrices."""
        a = np.asarray(coords, dtype=np.int64)
        # R(a)[k, j] = sum_i a_i T[i, j, k]
        rep = np.tensordot(a, self.T, axes=([-1], [0]))  # (..., j, k)
        return rep.swapaxes(-1, -2) % self.M

    def block(self, mats: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinate matrices to (..., n*w, n*w) blocks."""
        m = np.asarray(mats, dtype=np.int64)
        n = m.shape[-2]
        rep = self.regrep(m)  # (..., n, n, w, w) = (row, col, rep-row, rep-col)
        rep = np.moveaxis(rep, -3, -2)  # (..., n, w, n, w)
        shape = rep.shape[:-4] + (n * self.w, n * self.w)
        blk = rep.reshape(shape)
        bound = n * self.w * (self.M - 1) ** 2
        if bound >= 2 ** 63:
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
        n = blocks.shape[-1]
        result = np.broadcast_to(np.eye(n, dtype=np.int64), blocks.shape).copy()
        base = blocks % self.M
        while e:
            if e & 1:
                result = self.matmul(result, base)
            e >>= 1
            if e:
                base = self.matmul(base, base)
        return result

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
