"""Vectorized batch arithmetic for matrices over a truncated local ring.

Products by fixed matrices, X -> A X B, are Z/M-linear on the
D = n*n*w flat coordinates of X, M = coord_mod: ``product_map`` builds
that (D, D) matrix from scalar ``Mat`` products and ``apply_map`` applies
it to (N, D) coordinate rows with one vector addition per nonzero entry,
in the narrowest signed dtype that holds D*(M-1)^2.  The BFS and the
class graph multiply only by fixed generators and use this form.

Where both factors vary (powers, the Sylow walk, the oracle table), a
matrix over the ring is held as a t-stack: an integer array of shape
(..., L, m, m) with m = n*c.  For the poly kind F_q[t]/t^r, L = r and
c = f: slice k is the F_q-block of the t^k coefficient matrix, each
F_q entry expanded to its c x c multiplication matrix over F_p.  For the
witt kind, L = 1 and c = f: the one slice is the matrix with each entry
expanded to its f x f multiplication matrix over Z/p^r.  Either way the
expansion is a ring homomorphism, so a product of stacks is the
truncated convolution C_k = sum_{i+j=k} A_i @ B_j mod M: r(r+1)/2 small
``np.matmul`` calls for poly, one for witt.  Stacks use the narrowest
signed dtype that holds the sums, L*m*(M-1)^2.  Coordinates are read
off the image-of-1 column of each c x c block.

This module only moves arrays around; all structure constants are
produced by the scalar layer in ``ring``, and ``BatchRing`` checks that
the ring's structure tensor is the truncated convolution of its t^0
slice, so the two layers cannot drift apart silently.
"""

from __future__ import annotations

import numpy as np


def _min_uint_dtype(bound):
    for dt in (np.uint8, np.uint16, np.uint32, np.uint64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise OverflowError("coordinate modulus too large")


def _min_int_dtype(bound):
    for dt in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dt).max:
            return dt
    raise OverflowError("block products would overflow int64")


def _reduce(a, M):
    """a %= M in place, as a - (a // M) * M: numpy divides by a scalar
    with multiply-and-shift, several times faster than % on int8 and
    int16."""
    a -= a // M * M


def tensor_from_mul(mul, w: int) -> np.ndarray:
    """T[i, j, k] with e_i * e_j = sum_k T[i, j, k] e_k, from the scalar
    ``mul`` on the w unit coordinate tuples e_i."""
    basis = [tuple(int(i == k) for k in range(w)) for i in range(w)]
    T = np.zeros((w, w, w), dtype=np.int64)
    for i in range(w):
        for j in range(w):
            T[i, j] = mul(basis[i], basis[j])
    return T


def products_fit_int64(w, M) -> bool:
    """Whether sums of w products of residues mod M stay inside int64,
    as every partial sum of ``tensor_mul`` must."""
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


def _convolution_tensor(T0, L):
    """(L*c, L*c, L*c) structure tensor of (R[t]/t^L) from the (c, c, c)
    tensor T0 of R, on the basis t^k e_a (index k*c + a)."""
    c = len(T0)
    T = np.zeros((L, c, L, c, L, c), dtype=np.int64)
    for i in range(L):
        for j in range(L - i):
            T[i, :, j, :, i + j] = T0
    return T.reshape(L * c, L * c, L * c)


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
        # t-stack slices: L coefficients of c coordinates each
        self.c = ring.f
        self.L = self.w // self.c
        # structure tensor of ring.mul: e_i * e_j = sum_k T[i, j, k] e_k
        self.T = ring.structure_tensor()
        self.T0 = self.T[:self.c, :self.c, :self.c]
        if not np.array_equal(self.T, _convolution_tensor(self.T0, self.L)):
            raise ArithmeticError(f"{ring!r}: multiplication is not a truncated "
                                  "convolution of its t^0 coefficients")
        # ring operations on (..., w) coordinate vectors, named as on ring.Ring
        self.zero = np.zeros(self.w, dtype=np.int64)
        self.one = np.array(ring.one, dtype=np.int64)

    def add(self, a, b):
        return (a + b) % self.M

    def neg(self, a):
        return -a % self.M

    def mul(self, a, b):
        return tensor_mul(self.T, self.M, a, b)

    # -- t-stack packing -------------------------------------------------------

    def regrep(self, coords: np.ndarray) -> np.ndarray:
        """(..., w) coordinate vectors to (..., w, w) multiplication matrices."""
        return _regrep(self.T, self.M, coords)

    def _dtype(self, n):
        """Narrowest signed dtype for n x n stacks: an entry of a product
        sums at most L*m products of residues mod M, m = n*c."""
        return _min_int_dtype(self.L * n * self.c * (self.M - 1) ** 2)

    def identity(self, n: int) -> np.ndarray:
        """The (L, m, m) t-stack of the n x n identity: [I, 0, ..., 0]."""
        m = n * self.c
        ident = np.zeros((self.L, m, m), dtype=self._dtype(n))
        ident[0] = np.eye(m, dtype=ident.dtype)
        return ident

    def block(self, mats: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinate matrices to (..., L, n*c, n*c) t-stacks."""
        a = np.asarray(mats, dtype=np.int64)
        n, L, c = a.shape[-2], self.L, self.c
        dtype = self._dtype(n)
        a = a.reshape(a.shape[:-1] + (L, c))
        rep = _regrep(self.T0, self.M, a)  # (..., n, n, L, c, c) = (row, col, t, rep-row, rep-col)
        rep = np.moveaxis(rep, -3, -5).swapaxes(-3, -2)  # (..., L, n, c, n, c)
        return rep.reshape(rep.shape[:-4] + (n * c, n * c)).astype(dtype)

    def unblock(self, blocks: np.ndarray, n: int) -> np.ndarray:
        """Inverse of ``block``: (..., n, n, w) int64 coordinates, read off
        the image-of-1 column of each c x c block.  Stacks from ``block``,
        ``matmul`` and ``matpow`` are reduced mod M, so this only copies."""
        b = np.asarray(blocks)
        L, c = self.L, self.c
        coords = b.reshape(b.shape[:-3] + (L, n, c, n, c))[..., 0]  # (..., L, n, c, n)
        coords = np.moveaxis(coords, (-4, -3, -2, -1), (-2, -4, -1, -3))  # (..., n, n, L, c)
        return coords.astype(np.int64).reshape(coords.shape[:-2] + (self.w,))

    # -- batched operations ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of t-stacks, broadcast over the leading axes: the
        truncated convolution C_k = sum_{i+j=k} A_i @ B_j mod M."""
        out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=np.result_type(a, b))
        for k in range(self.L):
            ck = out[..., k, :, :]
            np.matmul(a[..., 0, :, :], b[..., k, :, :], out=ck)
            for i in range(1, k + 1):
                ck += np.matmul(a[..., i, :, :], b[..., k - i, :, :])
        _reduce(out, self.M)
        return out

    def matpow(self, blocks: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            ident = self.identity(blocks.shape[-1] // self.c)
            return np.broadcast_to(ident, blocks.shape).copy()
        return square_and_multiply(self.matmul, blocks % self.M, e)

    def is_identity(self, blocks: np.ndarray) -> np.ndarray:
        ident = self.identity(blocks.shape[-1] // self.c)
        return np.all(blocks == ident, axis=(-3, -2, -1))

    # -- products by fixed matrices ----------------------------------------------

    def product_map(self, n: int, left=None, right=None) -> np.ndarray:
        """The (D, D) matrix over Z/M, D = n*n*w, of X -> left*X*right on
        the flat coordinates of X (identity where a factor is None).

        The map is Z/M-linear because the ring is a free Z/M-module on its
        coordinates; row d is the scalar ``Mat`` product of the unit
        coordinate matrix E_d, so the scalar layer alone fixes its entries."""
        from .matrix import Mat, mat_coords  # matrix imports this module

        R, w = self.ring, self.w
        D = n * n * w
        zero = Mat.zero(R, n)
        units = [tuple(int(k == c) for c in range(w)) for k in range(w)]
        lin = np.empty((D, D), dtype=np.int64)
        for d in range(D):
            i, j, k = d // (n * w), d // w % n, d % w
            x = zero.with_entry(i, j, units[k])
            if left is not None:
                x = left * x
            if right is not None:
                x = x * right
            lin[d] = mat_coords(x).reshape(D)
        return lin

    def apply_map(self, lin: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Images x @ lin mod M of (N, D) coordinate rows x, exactly.

        Each output coordinate adds, over the nonzero entries of its
        column of ``lin``, rows of a coordinate-major (D, N) copy of x,
        in the narrowest signed dtype that holds D*(M-1)^2; the result is
        the (N, D) transpose of that (D, N) array, reduced mod M."""
        lin = np.asarray(lin)
        D, E = lin.shape
        dtype = _min_int_dtype(D * (self.M - 1) ** 2)
        xt = np.array(np.asarray(coords).T, dtype=dtype, order="C")
        out = np.zeros((E, xt.shape[1]), dtype=dtype)
        scaled = np.empty_like(out[0])
        for d, e in zip(*np.nonzero(lin)):
            v = int(lin[d, e])
            if v == 1:
                out[e] += xt[d]
            else:
                np.multiply(xt[d], v, out=scaled)
                out[e] += scaled
        _reduce(out, self.M)
        return out.T

    # -- canonical integer keys --------------------------------------------------

    def encode(self, coords: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinates to int64 keys (mixed-radix, base M)."""
        c = np.asarray(coords, dtype=np.int64)
        n = c.shape[-2]
        d = n * n * self.w
        if d * np.log2(max(self.M, 2)) > 62:
            raise OverflowError("matrix does not fit in an int64 key")
        flat = c.reshape(c.shape[:-3] + (d,))
        weights = self.M ** np.arange(d, dtype=np.int64)
        return flat @ weights
