"""Vectorized batch arithmetic for matrices over a truncated local ring.

Every product works on one coordinate-major form: ``block`` turns
(..., n, n, w) coordinates into an (n, n, w, ...) signed copy, so each
coordinate of each entry is one row over the batch, in the narrowest
signed dtype that holds the sums of a product (``_dtype``).

Products by fixed matrices, X -> A X B, are Z/M-linear on the
D = n*n*w flat coordinates of X, M = coord_mod: ``product_map`` builds
that (D, D) matrix from scalar ``Mat`` products and ``apply_map`` applies
it to a block, one row addition per nonzero entry, in the narrowest
signed dtype that holds D*(M-1)^2.  The BFS and the conjugacy classes
multiply only by fixed generators and use this form, one block per row
range for all generators.

Where both factors vary (powers, the Sylow walk, the oracle table),
``matmul`` takes and returns (..., n, n, w) coordinates too, and blocks
both factors.  Entry (i, j) of the product is sum_l A_il B_lj, and a
ring product is linear in its right factor: (a b)_k = sum_y R(a)[k, y]
b_y with R(a)[k, y] = sum_x a_x T[x, y, k] mod M, T the ring's
structure tensor.  So C[i, j, k] accumulates R(A_il)[k, y] B_lj[y] over
the nonzero (k, y) of R only, one multiply-add over the batch rows per
(k, y), summed over l by broadcasting; (k, y) with the same sum over x
share one row of R (for the poly kind, R(a)[k, y] = a_(k-y), no
arithmetic at all).  A sum then adds at most n*w products of residues,
L*n*c*(M-1)^2 with w = L*c (both ring kinds are GR(p^s, f)[u]/(u^e - p),
an element e slices of f coordinates mod p^s, see ``ring``: L = e,
c = f).  ``matpow`` blocks once and squares on the block.

One rule picks every dtype: the narrowest integer type (int64 at least
for arrays built from Python ints, ``int_dtype``) that holds the largest
value an array can take, else object (exact Python ints, slower).  So
the one arithmetic limit is ``encode``'s: a key must fit in int64.

This module only moves arrays around; all structure constants are
produced by the scalar layer in ``ring``, and ``BatchRing`` checks that
the ring's structure tensor is the truncated convolution of its u^0
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
        # structure tensor of ring.mul: e_i * e_j = sum_k T[i, j, k] e_k
        self.T = ring.structure_tensor()
        c = ring.f
        if not np.array_equal(self.T, _convolution_tensor(self.T[:c, :c, :c], ring.e)):
            raise ArithmeticError(f"{ring!r}: multiplication is not a truncated "
                                  "convolution of its u^0 coefficients")
        # the nonzero entries R(a)[k, y] = sum_x a_x T[x, y, k] of a
        # multiplication matrix: (k, y, term), a term being the (x, T[x, y, k])
        # pairs of the sum, shared by every (k, y) with the same sum
        terms, self._pairs = {}, []
        for k, y in np.argwhere((self.T != 0).any(axis=0).T).tolist():
            term = tuple((int(x), int(self.T[x, y, k])) for x in np.flatnonzero(self.T[:, y, k]))
            self._pairs.append((k, y, terms.setdefault(term, len(terms))))
        self._terms = list(terms)
        # ring operations on (..., w) coordinate vectors, named as on ring.Ring;
        # their dtype holds the sum of two residues and M
        self.add_dtype = int_dtype(2 * (self.M - 1))
        self.zero = np.zeros(self.w, dtype=self.add_dtype)
        self.one = np.array(ring.one, dtype=self.add_dtype)

    def add(self, a, b):
        return (np.asarray(a, self.add_dtype) + np.asarray(b, self.add_dtype)) % self.M

    def neg(self, a):
        return -np.asarray(a, self.add_dtype) % self.M

    def mul(self, a, b):
        """Products of (..., w) coordinate vectors: 1 x 1 ``matmul``, so
        exact for every M (Python ints where int64 cannot hold the sums)."""
        return self.matmul(a[..., None, None, :], b[..., None, None, :])[..., 0, 0, :]

    def _dtype(self, n):
        """Narrowest signed dtype for products of n x n matrices: an entry
        sums at most n*w = L*n*c products of residues mod M."""
        return _min_int_dtype(n * self.w * (self.M - 1) ** 2)

    def identity(self, n: int) -> np.ndarray:
        """(n, n, w) coordinates of the n x n identity."""
        ident = np.zeros((n, n, self.w), dtype=self.add_dtype)
        ident[range(n), range(n)] = self.one
        return ident

    def block(self, mats: np.ndarray) -> np.ndarray:
        """(..., n, n, w) coordinate matrices to their coordinate-major
        (n, n, w, ...) copy, signed, in the dtype of their products."""
        a = np.asarray(mats)
        return np.array(np.moveaxis(a, (-3, -2, -1), (0, 1, 2)),
                        dtype=self._dtype(a.shape[-2]), order="C")

    # -- batched operations ----------------------------------------------------

    def _reps(self, A):
        """One (n, n, ...) array per term: the entries R(A_il)[k, y] of the
        (k, y) that share it, reduced mod M; a lone x with T = 1 is a view
        of A's coordinate x."""
        reps = []
        for (x, v), *rest in self._terms:
            if v == 1 and not rest:
                reps.append(A[:, :, x])
                continue
            rep = v * A[:, :, x]
            for x, v in rest:
                rep += v * A[:, :, x]
            _reduce(rep, self.M)
            reps.append(rep)
        return reps

    def _product(self, A, B):
        """Product of two blocks (``block``) with broadcast leading axes,
        as a block reduced mod M: C[i, j, k] = sum over l and the nonzero
        (k, y) of R(A_il)[k, y] B_lj[y]."""
        reps = self._reps(A)
        C = np.zeros(A.shape[:3] + np.broadcast_shapes(A.shape[3:], B.shape[3:]), A.dtype)
        for k, y, term in self._pairs:
            C[:, :, k] += (reps[term][:, :, None] * B[None, :, :, y]).sum(axis=1, dtype=C.dtype)
        _reduce(C, self.M)
        return C

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Products of (..., n, n, w) coordinate matrices, broadcast over
        the leading axes, as a (..., n, n, w) view of the product block."""
        a, b = np.asarray(a), np.asarray(b)
        # as many leading axes on both, so that the blocks' trailing ones broadcast
        ndim = max(a.ndim, b.ndim)
        A = self.block(a.reshape((1,) * (ndim - a.ndim) + a.shape))
        B = self.block(b.reshape((1,) * (ndim - b.ndim) + b.shape))
        return np.moveaxis(self._product(A, B), (0, 1, 2), (-3, -2, -1))

    def matpow(self, coords: np.ndarray, e: int) -> np.ndarray:
        if e < 0:
            raise ValueError("negative exponent")
        if e == 0:
            ident = self.identity(np.shape(coords)[-2])
            return np.broadcast_to(ident, np.shape(coords)).copy()
        power = square_and_multiply(self._product, self.block(coords), e)
        return np.moveaxis(power, (0, 1, 2), (-3, -2, -1))

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

    def apply_map(self, lin: np.ndarray, blocked: np.ndarray) -> np.ndarray:
        """Images x @ lin mod M of the (..., D) flat coordinates x of a
        block (``block``), exactly, as (..., D) rows.

        Each output coordinate adds, over the nonzero entries of its
        column of ``lin``, the coordinate rows of the block, in the
        narrowest signed dtype that holds D*(M-1)^2; the result is a view
        of that coordinate-major (D, ...) array, reduced mod M."""
        lin = np.asarray(lin)
        D, E = lin.shape
        dtype = _min_int_dtype(D * (self.M - 1) ** 2)
        # at least the block's dtype, which holds n*w*(M-1)^2
        xt = blocked.reshape((D,) + blocked.shape[3:]).astype(dtype, copy=False)
        out = np.zeros((E,) + xt.shape[1:], dtype=dtype)
        scaled = np.empty_like(out[0])
        for d, e in zip(*np.nonzero(lin)):
            v = int(lin[d, e])
            if v == 1:
                out[e] += xt[d]
            else:
                np.multiply(xt[d], v, out=scaled)
                out[e] += scaled
        _reduce(out, self.M)
        return np.moveaxis(out, 0, -1)

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
