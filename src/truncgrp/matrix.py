"""Matrices over truncated local rings and the p-subgroup toolkit.

``Mat`` is an immutable matrix over a ``ring.Ring``; ``GroupDesc``
names one of the groups GL_n(O_r) or SL_n(O_r).  On top of the plain
matrix operations this module provides the number-theoretic helpers
the rest of the package is built on: exact element orders, the
closed-form expansion of powers of A(I + pi X) over length-2 rings,
the binomial double sum controlling when that expansion collapses,
and the p-exponent.

The p-exponent walks a Sylow p-subgroup, the preimage u * k of the
upper unitriangular group (u an entrywise lift, k in the congruence
kernel), built chunk by chunk as numpy coordinate arrays by one
generator: exhaustive mode indexes the whole subgroup, sampled mode
seeded random elements of it.  Orders come from batched p-th powers,
and the witness is re-checked with the scalar ``element_order``.

Matrix literals use ';' between rows and ',' between entries, each
entry a ring-element expression: ``"1,1,0;t,1,1;t,0,1"``.  Witt-kind
entries are plain integers (f = 1) or x-polynomials.
"""

from __future__ import annotations

import functools
import math
import operator
import random
from dataclasses import dataclass

import numpy as np

from . import batch as batchmod
from . import ring as ringmod
from .errors import CapExceededError, MembershipError, NonUnitError, ParseError

SYLOW_CAP = 20_000_000

_ORDER_CHUNK = 16384


class Mat:
    """Immutable n x n matrix over a truncated local ring."""

    __slots__ = ("ring", "rows", "_hash")

    def __init__(self, ring, rows):
        rows = tuple(tuple(row) for row in rows)
        n = len(rows)
        if n == 0 or any(len(row) != n for row in rows):
            raise ValueError("matrix must be square and nonempty")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, *a):
        raise AttributeError("Mat is immutable")

    @property
    def n(self):
        return len(self.rows)

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Mat(ring, tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)))

    @staticmethod
    def zero(ring, n):
        z = ring.zero
        return Mat(ring, ((z,) * n,) * n)

    def entry(self, i, j):
        return self.rows[i][j]

    def with_entry(self, i, j, value):
        rows = [list(row) for row in self.rows]
        rows[i][j] = value
        return Mat(self.ring, rows)

    def __eq__(self, other):
        return isinstance(other, Mat) and self.ring == other.ring and self.rows == other.rows

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.ring, self.rows))
            object.__setattr__(self, "_hash", h)
        return h

    def __add__(self, other):
        R = self.ring
        return Mat(R, tuple(tuple(R.add(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __sub__(self, other):
        R = self.ring
        return Mat(R, tuple(tuple(R.sub(a, b) for a, b in zip(ra, rb))
                            for ra, rb in zip(self.rows, other.rows)))

    def __mul__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        R = self.ring
        if R != other.ring or self.n != other.n:
            raise ValueError("matrix shape or base ring mismatch")
        n = self.n
        add, mul, zero = R.add, R.mul, R.zero
        bcols = tuple(zip(*other.rows))
        out = []
        for row in self.rows:
            orow = []
            for col in bcols:
                acc = zero
                for a, b in zip(row, col):
                    if a != zero and b != zero:
                        acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(tuple(orow))
        return Mat(R, tuple(out))

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        if e == 0:
            return Mat.identity(self.ring, self.n)
        return batchmod.square_and_multiply(operator.mul, self, e)

    def scale(self, u):
        R = self.ring
        return Mat(R, tuple(tuple(R.mul(u, a) for a in row) for row in self.rows))

    def is_identity(self):
        return self == Mat.identity(self.ring, self.n)

    def is_zero(self):
        z = self.ring.zero
        return all(a == z for row in self.rows for a in row)

    def is_unitriangular(self):
        R = self.ring
        for i, row in enumerate(self.rows):
            if row[i] != R.one:
                return False
            for j in range(i):
                if row[j] != R.zero:
                    return False
        return True

    def det(self):
        """Exact determinant by Bird's division-free algorithm (see
        ``determinant``): O(n^4) ring operations whatever the entries."""
        return determinant(self.ring, self.rows)

    def inverse(self):
        """Invert the residue matrix over F_q, then Newton-lift the result."""
        R = self.ring
        n = self.n
        res_inv = _field_inverse(R, self.rows)
        x = Mat(R, tuple(tuple(R.lift(e) for e in row) for row in res_inv))
        two_i = Mat.identity(R, n) + Mat.identity(R, n)
        steps = max(0, (R.r - 1).bit_length())
        for _ in range(steps):
            x = x * (two_i - self * x)
        if not (self * x).is_identity():
            raise ArithmeticError("inverse lift failed")
        return x

    def reduce_to(self, s: int):
        R = self.ring
        target = R.truncate(s)
        return Mat(target, tuple(tuple(R.reduce_to(a, s) for a in row) for row in self.rows))

    def render(self):
        R = self.ring
        return ";".join(",".join(R.render(a) for a in row) for row in self.rows)

    def __str__(self):
        return self.render()

    def __repr__(self):
        return f"Mat({self.ring.label}, {self.render()!r})"


def determinant(R, rows):
    """det of the n x n matrix rows over R, without division (R. S. Bird,
    IPL 111 (2011)): X_1 = A, X_(k+1) = mu(X_k) A and det A =
    (-1)^(n-1) (X_n)_11, where mu(X) is the strict upper triangle of X
    with -(X_(i+1,i+1) + ... + X_(n,n)) at (i, i).  The last of the n - 1
    products forms only (1, 1).  R needs zero, one, add, neg and mul: a
    ``ring.Ring``, or a ``batch.BatchRing`` with rows[i][j] the (N, w)
    coordinates of N matrices at once.  The empty matrix has det one."""
    n = len(rows)
    if n == 0:
        return R.one
    x = rows
    for step in range(1, n):
        mu, below = [None] * n, R.zero
        for i in reversed(range(n)):
            mu[i] = [R.neg(below)] + list(x[i][i + 1:])
            below = R.add(below, x[i][i])
        m = n if step < n - 1 else 1
        x = [[functools.reduce(R.add, map(R.mul, mu[i], (row[j] for row in rows[i:])))
              for j in range(m)] for i in range(m)]
    return x[0][0] if n % 2 else R.neg(x[0][0])


def _field_inverse(R, rows):
    """Gauss-Jordan inverse of the residue matrix, entries in F_q."""
    F = R.field
    n = len(rows)
    aug = [[R.residue(rows[i][j]) for j in range(n)]
           + [F.one if i == j else F.zero for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((i for i in range(c, n) if aug[i][c] != F.zero), None)
        if piv is None:
            raise NonUnitError("matrix is not invertible over the ring "
                               "(residue matrix is singular)")
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = F.inv(aug[c][c])
        aug[c] = [F.mul(inv, e) for e in aug[c]]
        for i in range(n):
            if i != c and aug[i][c] != F.zero:
                factor = aug[i][c]
                aug[i] = [F.sub(e, F.mul(factor, pe)) for e, pe in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def transvection(ring, n, i, j, u):
    """I + u E_ij (i != j)."""
    if i == j:
        raise ValueError("transvections live off the diagonal")
    return Mat.identity(ring, n).with_entry(i, j, u)


def diagonal(ring, entries):
    entries = tuple(entries)
    n = len(entries)
    m = Mat.identity(ring, n)
    for i, e in enumerate(entries):
        m = m.with_entry(i, i, e)
    return m


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GroupDesc:
    """GL_n or SL_n over a truncated local ring."""

    family: str
    n: int
    ring: ringmod.Ring

    def __post_init__(self):
        if self.family not in ("GL", "SL"):
            raise ValueError("family must be 'GL' or 'SL'")
        if self.n < 1:
            raise ValueError("n must be >= 1")

    @property
    def label(self):
        return f"{self.family}_{self.n}({self.ring.label})"

    @property
    def kernel_dim(self):
        return self.n * self.n if self.family == "GL" else self.n * self.n - 1

    def residue_order(self) -> int:
        q, n = self.ring.q, self.n
        order = 1
        for i in range(n):
            order *= q ** n - q ** i
        if self.family == "SL":
            order //= q - 1
        return order

    def order(self) -> int:
        return self.residue_order() * self.ring.q ** ((self.ring.r - 1) * self.kernel_dim)

    def sylow_size(self) -> int:
        q, n, r = self.ring.q, self.n, self.ring.r
        return q ** (n * (n - 1) // 2) * q ** ((r - 1) * self.kernel_dim)

    def identity_mat(self) -> Mat:
        return Mat.identity(self.ring, self.n)

    def contains(self, mat: Mat) -> bool:
        if not isinstance(mat, Mat) or mat.ring != self.ring or mat.n != self.n:
            return False
        d = mat.det()
        if self.family == "SL":
            return d == self.ring.one
        return self.ring.is_unit(d)


def _ceil_log(p: int, n: int) -> int:
    k, v = 0, 1
    while v < n:
        v *= p
        k += 1
    return k


def exponent_multiple(group: GroupDesc) -> dict:
    """A factored multiple of the exponent of GL_n(O_r).

    lcm of q^d - 1 for d <= n covers semisimple parts over the residue
    field; the p-part p^(ceil(log_p n) + r - 1) covers unipotents and
    the congruence kernel (one factor of p per extra length step).
    """
    R = group.ring
    factors = {R.p: _ceil_log(R.p, group.n) + R.r - 1}
    for d in range(1, group.n + 1):
        for ell, e in ringmod._factorize(R.q ** d - 1).items():
            factors[ell] = max(factors.get(ell, 0), e)
    return factors


def element_order(mat: Mat, group: GroupDesc) -> int:
    """Exact multiplicative order, via a factored exponent multiple."""
    if not group.contains(mat):
        raise MembershipError(f"matrix is not in {group.label}")
    factors = exponent_multiple(group)
    m = 1
    for ell, e in factors.items():
        m *= ell ** e
    if not (mat ** m).is_identity():
        raise ArithmeticError("exponent multiple failed; arithmetic bug")
    order = m
    for ell in sorted(factors):
        while order % ell == 0 and (mat ** (order // ell)).is_identity():
            order //= ell
    return order


# ---------------------------------------------------------------------------
# length-2 power expansion helpers

def _expansion_terms(A: Mat, X: Mat, m: int):
    """A^m and sum_{i=0}^{m-1} A^(m-i) X A^i, the two parts of the
    length-2 expansion of (A (I + pi X))^m, from one list of powers."""
    R = A.ring
    pows = [Mat.identity(R, A.n)]
    for _ in range(m):
        pows.append(pows[-1] * A)
    total = Mat.zero(R, A.n)
    for i in range(m):
        total = total + pows[m - i] * X * pows[i]
    return pows[m], total


def unitriangular_power(A: Mat, X: Mat, m: int) -> Mat:
    """A^m + pi * sum_{i=0}^{m-1} A^(m-i) X A^i, over a length-2 ring.

    Equals (A (I + pi X))^m there, because pi^2 = 0 makes the expansion
    of the product collapse to the linear terms.
    """
    R = A.ring
    if R.r != 2:
        raise ValueError("the closed-form expansion needs a length-2 ring")
    if X.ring != R or X.n != A.n:
        raise ValueError("A and X must match")
    if not A.is_unitriangular():
        raise ValueError("A must be upper unitriangular")
    if m < 0:
        raise ValueError("m must be >= 0")
    power, total = _expansion_terms(A, X, m)
    return power + total.scale(R.pi)


def chu_sum(p: int, k: int, ell: int) -> int:
    """sum_{i=0}^{p-1} C(p-i, k) C(i, ell) mod p.

    Vanishes whenever k, ell < n and p >= 2n (the tail of the
    Vandermonde convolution C(p+1, k+ell+1) is divisible by p there).
    """
    if k < 0 or ell < 0:
        raise ValueError("binomial indices must be nonnegative")
    total = sum(math.comb(p - i, k) * math.comb(i, ell) for i in range(p))
    return total % p


def b_matrix(A: Mat, X: Mat) -> Mat:
    """B = sum_{i=0}^{p-1} A^(p-i) X A^i over a length-2 ring.

    g = A(I + pi X) has g^p = A^p + pi B, so B mod pi decides whether
    p-th powers leave the congruence kernel pattern; it vanishes mod pi
    whenever p >= 2n.
    """
    R = A.ring
    if R.r != 2:
        raise ValueError("B is defined over length-2 rings")
    if not A.is_unitriangular():
        raise ValueError("A must be upper unitriangular")
    return _expansion_terms(A, X, R.p)[1]


# ---------------------------------------------------------------------------
# Sylow p-subgroup stream and p-exponent

def _sylow_positions(group: GroupDesc):
    """Upper entries of u and free entries of k, row-major (u k = Sylow element)."""
    n = group.n
    upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
    free = [(i, j) for i in range(n) for j in range(n)]
    if group.family == "SL":
        free.remove((n - 1, n - 1))
    return upper, free


def _sylow_tables(R, pim_indices):
    """Coordinates of the lifts of F_q, in F.elements() order, and of the
    elements of pi * O_r with these indices in canonical digit order
    (first digit slowest)."""
    F, q = R.field, R.q
    fels = list(F.elements())
    pim = [R.from_digits([F.zero] + [fels[k // q ** e % q] for e in reversed(range(R.r - 1))])
           for k in pim_indices]
    dtype = batchmod.BatchRing.get(R).add_dtype  # _sylow_coords adds them
    return (np.array([R.lift(a) for a in fels], dtype=dtype),
            np.array(pim, dtype=dtype))


def _sylow_coords(group: GroupDesc, lifts, pim, digits) -> np.ndarray:
    """(N, n, n, w) coordinates of u * k, one Sylow element per row of digits.

    A row holds an index into lifts per upper entry of the unitriangular
    u, then an index into pim per free entry of the congruence-kernel
    element k = I + (pi-multiples).  For SL the corner of k is solved so
    that det k = 1: det k = det0 + e * cof is affine in the corner e, and
    the leading minor cof is = 1 mod pi, so Newton from 1 inverts it.
    """
    R, n = group.ring, group.n
    br = batchmod.BatchRing.get(R)
    upper, free = _sylow_positions(group)
    u = np.broadcast_to(br.identity(n), (len(digits), n, n, R.w)).astype(lifts.dtype)
    k = u.copy()
    cols = iter(digits.T)
    for i, j in upper:
        u[:, i, j] = lifts[next(cols)]
    for i, j in free:
        k[:, i, j] = br.add(k[:, i, j], pim[next(cols)])
    if group.family == "SL":
        c = n - 1
        rows = np.moveaxis(k, 0, 2)  # view: rows[i][j] is entry (i, j) of every k
        k[:, c, c] = 0
        det0 = determinant(br, rows)
        cof = determinant(br, rows[:c, :c])
        inv = br.one
        for _ in range((R.r - 1).bit_length()):
            inv = br.mul(inv, br.add(2 * br.one, br.neg(br.mul(cof, inv))))
        k[:, c, c] = br.mul(br.add(br.one, br.neg(det0)), inv)
        if not np.all(determinant(br, rows) == br.one):
            raise ArithmeticError("corner solve failed")
    return br.matmul(u, k)


def _sylow_chunks(group: GroupDesc):
    """The whole Sylow subgroup in coordinate chunks: u outer, k inner,
    the first entry slowest."""
    size = group.sylow_size()
    if size > SYLOW_CAP:
        raise CapExceededError(f"Sylow subgroup of {group.label} has {size} elements, cap {SYLOW_CAP}")
    lifts, pim = _sylow_tables(group.ring, range(group.ring.q ** (group.ring.r - 1)))
    upper, free = _sylow_positions(group)
    radices = np.array([len(lifts)] * len(upper) + [len(pim)] * len(free), dtype=np.int64)
    weights = np.cumprod(radices[::-1])[::-1] // radices
    for start in range(0, size, _ORDER_CHUNK):
        flat = np.arange(start, min(start + _ORDER_CHUNK, size))
        yield _sylow_coords(group, lifts, pim, flat[:, None] // weights % radices)


def _sampled_digits(group: GroupDesc, trials: int, seed: int) -> np.ndarray:
    """Digits of seeded random Sylow elements: per trial one randrange(q)
    per upper entry, then r - 1 per free kernel entry (one pim index)."""
    rng = random.Random(seed)
    q, r = group.ring.q, group.ring.r
    upper, free = _sylow_positions(group)

    def pim_index():
        idx = 0
        for _ in range(r - 1):
            idx = idx * q + rng.randrange(q)
        return idx
    rows = [[rng.randrange(q) for _ in upper] + [pim_index() for _ in free]
            for _ in range(trials)]
    dtype = batchmod.int_dtype(q ** (r - 1) - 1)
    return np.array(rows, dtype=dtype).reshape(trials, len(upper) + len(free))


def sylow_p_elements(group: GroupDesc):
    """Stream the preimage of the unitriangular subgroup under reduction.

    This preimage is a Sylow p-subgroup of the group, of size
    q^(n(n-1)/2) * q^((r-1) d); every element is a p-element.  The order
    is the one p_exponent walks.  A subgroup of more than ``SYLOW_CAP``
    elements raises ``CapExceededError`` at the first element drawn.
    """
    for chunk in _sylow_chunks(group):
        for coords in chunk:
            yield mat_from_coords(group.ring, coords)


@dataclass
class ExponentResult:
    value: int
    method: str  # "exhaustive" or "sampled"
    witness: Mat
    upper_bound: int
    note: str

    def payload(self):
        return {
            "value": self.value,
            "method": self.method,
            "witness": self.witness.render(),
            "upper_bound": self.upper_bound,
            "note": self.note,
        }


def mat_coords(mat: Mat) -> np.ndarray:
    return np.array(mat.rows, dtype=batchmod.int_dtype(mat.ring.coord_mod - 1))


def mat_from_coords(ring, arr) -> Mat:
    arr = np.asarray(arr)
    n = arr.shape[0]
    return Mat(ring, tuple(tuple(ring.from_coords(tuple(int(c) for c in arr[i, j]))
                                 for j in range(n)) for i in range(n)))


def _batch_orders(group: GroupDesc, coords: np.ndarray, max_steps: int):
    """Orders (as powers of p) of a batch of Sylow elements."""
    br = batchmod.BatchRing.get(group.ring)
    p = group.ring.p
    powers = coords.copy()
    steps = np.zeros(len(coords), dtype=np.int64)
    alive = ~br.is_identity(powers)
    rounds = 0
    while alive.any():
        if rounds > max_steps:
            raise ArithmeticError("Sylow element order exceeds the proven bound")
        powers[alive] = br.matpow(powers[alive], p)
        steps[alive] += 1
        alive[alive] = ~br.is_identity(powers[alive])
        rounds += 1
    return steps


def p_exponent(group: GroupDesc, strategy: str = "exhaustive", trials: int = 1000,
               seed: int = 0) -> ExponentResult:
    """Largest order of a p-element (= exponent of a Sylow p-subgroup).

    Exhaustive mode walks the whole Sylow subgroup (more than
    ``SYLOW_CAP`` elements raise ``CapExceededError`` before any is
    built); sampled mode draws seeded random elements of it and reports
    a lower bound.
    """
    R = group.ring
    p = R.p
    nil_exp = _ceil_log(p, group.n)
    if R.kind == ringmod.POLY:
        # in characteristic p the binomial theorem gives (1 + t*m)^p =
        # 1 + t^p m^p, so the kernel of reduction mod t has exponent
        # p^ceil(log_p r); reduction mod t of a p-element is unipotent
        bound_exp = _ceil_log(p, R.r) + nil_exp
        upper = p ** bound_exp
        note = (f"upper bound p^(ceil(log_p r)+ceil(log_p n)) = {upper}: congruence "
                f"kernel exponent collapses under the characteristic-p Frobenius")
    else:
        bound_exp = R.r - 1 + nil_exp
        upper = p ** bound_exp
        note = (f"upper bound p^(r-1+ceil(log_p n)) = {upper}: unipotent exponent over the "
                f"residue field times one factor of p per extra length step")
    if strategy == "exhaustive":
        chunks = _sylow_chunks(group)
    elif strategy == "sampled":
        if trials < 1:
            raise ValueError("trials must be >= 1")
        # pi * O_r has q^(r-1) elements: build only the drawn ones, and
        # point the kernel columns at them
        digits = _sampled_digits(group, trials, seed)
        kernel = digits[:, len(_sylow_positions(group)[0]):]
        drawn, inverse = np.unique(kernel, return_inverse=True)
        kernel[:] = inverse.reshape(kernel.shape)
        chunks = [_sylow_coords(group, *_sylow_tables(R, drawn.tolist()), digits.astype(np.int64))]
        note += f"; lower bound from {trials} samples"
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    best_k = -1
    for coords in chunks:
        steps = _batch_orders(group, coords, bound_exp)
        k = int(steps.max())
        if k > best_k:
            best_k = k
            best = coords[int(np.argmax(steps))]
    witness = mat_from_coords(R, best)
    value = p ** best_k
    if element_order(witness, group) != value:
        raise ArithmeticError("batch order disagrees with scalar order")
    return ExponentResult(value, strategy, witness, upper, note)


# ---------------------------------------------------------------------------
# matrix literals

def parse_matrix(ring, text: str) -> Mat:
    """Parse ';'-separated rows of ','-separated ring-element expressions."""
    rows = []
    row = []
    pos = 0
    for piece, sep in _split_with_seps(text):
        if not piece.strip():
            raise ParseError("empty matrix entry", pos)
        row.append(ringmod.parse_element(ring, piece, pos))
        pos += len(piece) + 1
        if sep in (";", None):
            rows.append(row)
            row = []
    n = len(rows)
    if n == 0 or any(len(r) != n for r in rows):
        raise ParseError("matrix must be square (rows ';', entries ',')", 0)
    return Mat(ring, rows)


def _split_with_seps(text: str):
    start = 0
    for i, ch in enumerate(text):
        if ch in ",;":
            yield text[start:i], ch
            start = i + 1
    yield text[start:], None
