"""Vectorized batch arithmetic for matrices over a truncated local ring.

Products by fixed matrices, X -> A X B, are Z/M-linear on the
D = n*n*w flat coordinates of X, M = coord_mod: ``product_map`` builds
that (D, D) matrix from scalar ``Mat`` products and ``apply_map`` applies
it to (N, D) coordinate rows with one vector addition per nonzero entry,
in the narrowest signed dtype that holds D*(M-1)^2.  The BFS and the
conjugacy classes multiply only by fixed generators and use this form.

Where both factors vary (powers, the Sylow walk, the oracle table),
``matmul`` takes and returns (..., n, n, w) coordinates too.  Only its
left factor becomes a t-stack, (..., L, m, m) with m = n*c: for the poly
kind F_q[t]/t^r, L = r, c = f and slice k is the t^k coefficient matrix
with each F_q entry expanded to its c x c multiplication matrix over
F_p; for the witt kind, L = 1, c = f and entries of Z/p^r[x]/(mhat)
expand over Z/p^r.  Column 0 of each c x c block, the image of 1, is
the entry's coordinates, so the right factor stays coordinate columns
and the product is the truncated convolution C_k = sum_{i+j=k} A_i @ B_j
mod M: r(r+1)/2 small ``np.matmul`` calls for poly, one for witt, in the
narrowest signed dtype that holds L*m*(M-1)^2.

One rule picks every dtype: the narrowest integer type (int64 at least
for arrays built from Python ints, ``int_dtype``) that holds the largest
value an array can take, else object (exact Python ints, slower).  So
the one arithmetic limit is ``encode``'s: a key must fit in int64.

This module only moves arrays around; all structure constants are
produced by the scalar layer in ``ring``, and ``BatchRing`` checks that
the ring's structure tensor is the truncated convolution of its t^0
slice, so the two layers cannot drift apart silently.
"""

from __future__ import annotations

import numpy as np


def _min_uint_dtype(bound):
    """Narrowest unsigned dtype that holds bound, else object."""
    return next((dt for dt in (np.uint8, np.uint16, np.uint32, np.uint64)
                 if bound <= np.iinfo(dt).max), object)


def _min_int_dtype(bound):
    """Narrowest signed dtype that holds bound, else object."""
    return next((dt for dt in (np.int8, np.int16, np.int32, np.int64)
                 if bound <= np.iinfo(dt).max), object)


def int_dtype(bound):
    """int64 where it holds bound, else object: the dtype of coordinate,
    structure-constant and index arrays built from Python ints, which
    numpy must never infer (it reads [1, 2**64 - 1] as float64)."""
    return np.promote_types(np.int64, _min_int_dtype(bound))


def _reduce(a, M):
    """a %= M in place, as a - (a // M) * M: numpy divides by a scalar
    with multiply-and-shift, several times faster than % on int8 and
    int16."""
    a -= a // M * M


def tensor_from_mul(mul, w: int, M: int) -> np.ndarray:
    """T[i, j, k] with e_i * e_j = sum_k T[i, j, k] e_k, from the scalar
    ``mul`` on the w unit coordinate tuples e_i mod M, in the dtype that
    holds every partial sum of ``tensor_mul``, w * (M - 1)^2."""
    basis = [tuple(int(i == k) for k in range(w)) for i in range(w)]
    T = np.zeros((w, w, w), dtype=int_dtype(w * (M - 1) ** 2))
    for i in range(w):
        for j in range(w):
            T[i, j] = mul(basis[i], basis[j])
    return T


def _regrep(T, M, a):
    """(..., w) coordinate vectors to their (..., w, w) multiplication
    matrices mod M: R(a)[k, j] = sum_i a_i T[i, j, k]."""
    rep = np.tensordot(np.asarray(a, dtype=T.dtype), T, axes=([-1], [0]))  # (..., j, k)
    return rep.swapaxes(-1, -2) % M


def tensor_mul(T, M, a, b):
    """Products of (..., w) coordinate vectors mod M under the tensor T,
    exactly: the multiplication matrix of a (reduced mod M) is applied to
    b, so a partial sum stays below w * (M - 1)^2, which T's dtype holds
    (``tensor_from_mul``)."""
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
    T = np.zeros((L, c, L, c, L, c), dtype=T0.dtype)
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
        # ring operations on (..., w) coordinate vectors, named as on ring.Ring;
        # the dtype of their operands holds the sum of two residues and M
        self.add_dtype = int_dtype(2 * (self.M - 1))
        self.zero = np.zeros(self.w, dtype=self.add_dtype)
        self.one = np.array(ring.one, dtype=self.add_dtype)

    def add(self, a, b):
        return (a + b) % self.M

    def neg(self, a):
        return -a % self.M

    def mul(self, a, b):
        """Products of (..., w) coordinate vectors: 1 x 1 ``matmul``, so
        exact for every M (Python ints where int64 cannot hold the sums)."""
        return self.matmul(a[..., None, None, :], b[..., None, None, :])[..., 0, 0, :]

    def _dtype(self, n):
        """Narrowest signed dtype for n x n stacks: an entry of a product
        sums at most L*m products of residues mod M, m = n*c."""
        return _min_int_dtype(self.L * n * self.c * (self.M - 1) ** 2)

    def identity(self, n: int) -> np.ndarray:
        """(n, n, w) coordinates of the n x n identity."""
        ident = np.zeros((n, n, self.w), dtype=self.add_dtype)
        ident[range(n), range(n)] = self.one
        return ident

    def block(self, mats: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinate matrices to (..., L, n*c, n*c) t-stacks:
        entry (r, s) of the block of a coefficient x is sum_u x_u T0[u, s, r],
        one vector addition per nonzero entry of T0."""
        a = np.asarray(mats)
        n, L, c = a.shape[-2], self.L, self.c
        lead = a.shape[:-3]
        dtype = self._dtype(n)
        # coefficient-major (c, ..., L, n, n) copy of the coordinates
        src = np.ascontiguousarray(
            np.moveaxis(a.reshape(lead + (n, n, L, c)), (-1, -2), (0, -3)), dtype=dtype)
        out = np.zeros(lead + (L, n, c, n, c), dtype=dtype)
        for u, s, r in zip(*np.nonzero(self.T0)):
            out[..., r, :, s] += int(self.T0[u, s, r]) * src[u]
        _reduce(out, self.M)
        return out.reshape(lead + (L, n * c, n * c))

    # -- batched operations ----------------------------------------------------

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of (..., n, n, w) coordinate matrices, broadcast over
        the leading axes: the t-stack of a times the (..., L, n*c, n)
        coordinate columns of b, C_k = sum_{i+j=k} A_i @ B_j mod M."""
        A = self.block(a)
        b = np.asarray(b)
        n, L, c = b.shape[-2], self.L, self.c
        # (..., i, j, t, coefficient) -> (..., t, i, coefficient, j)
        B = np.moveaxis(b.reshape(b.shape[:-3] + (n, n, L, c)), (-2, -4, -1, -3), (-4, -3, -2, -1))
        B = np.ascontiguousarray(B, dtype=A.dtype).reshape(B.shape[:-4] + (L, n * c, n))
        out = np.empty(np.broadcast_shapes(A.shape[:-3], B.shape[:-3]) + B.shape[-3:], A.dtype)
        for k in range(L):
            ck = out[..., k, :, :]
            np.matmul(A[..., 0, :, :], B[..., k, :, :], out=ck)
            for i in range(1, k + 1):
                ck += np.matmul(A[..., i, :, :], B[..., k - i, :, :])
        _reduce(out, self.M)
        out = out.reshape(out.shape[:-2] + (n, c, n))
        out = np.moveaxis(out, (-4, -3, -2, -1), (-2, -4, -1, -3))
        return out.reshape(out.shape[:-2] + (self.w,))

    def matpow(self, coords: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            ident = self.identity(np.shape(coords)[-2])
            return np.broadcast_to(ident, np.shape(coords)).copy()
        return square_and_multiply(self.matmul, coords, e)

    def is_identity(self, coords: np.ndarray) -> np.ndarray:
        ident = self.identity(np.shape(coords)[-2])
        return np.all(coords == ident, axis=(-3, -2, -1))

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
        lin = np.empty((D, D), dtype=int_dtype(self.M - 1))
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
        """(..., n, n, w) coordinates to int64 keys (mixed-radix, base M),
        accumulated by Horner's rule over the n*n*w coordinate columns."""
        c = np.asarray(coords)
        n = c.shape[-2]
        d = n * n * self.w
        if self.M ** d > 2 ** 62:
            raise OverflowError("matrix does not fit in an int64 key")
        flat = c.reshape(c.shape[:-3] + (d,))
        keys = flat[..., d - 1].astype(np.int64)
        for i in reversed(range(d - 1)):
            keys *= self.M
            keys += flat[..., i]
        return keys
