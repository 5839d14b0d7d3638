"""Exact arithmetic for truncated local rings with residue field F_q.

Two ring kinds of length r over F_q (q = p^f) are supported.  Both are
the ring GR(p^s, f)[u]/(u^e - p) with r = e s, where GR(p^s, f) =
(Z/p^s)[x]/(mhat) is the Galois ring and mhat the field modulus read
mod p^s:

* ``witt``: (e, s) = (1, r), the unramified length-r lift of F_q.  Then
  u = p, the ring is GR(p^r, f) and its characteristic is p^r.
* ``poly``: (e, s) = (r, 1), F_q[t]/t^r.  Then u = t, u^r = p = 0 and
  the characteristic is p.

An element is the flat tuple of its w = e f integer coordinates, each in
[0, coord_mod), coord_mod = p^s: e slices of f coordinates, slice k the
coefficient of u^k and coordinate j of a slice the coefficient of x^j.
So for r = 1 an element of either kind is an Fq element.  u is the
uniformizer pi.  mhat is the monic lift of the field modulus with the
same integer coefficients; any monic lift of an irreducible polynomial
yields the ring up to isomorphism.  The self-test suite checks the
properties that pin the construction down (unit count, Teichmueller
fixed points), so a failed lift cannot pass silently.

Ring arithmetic reads only (e, s, f, p).  The kind is a name: the label,
equality, ``truncate``'s target, the parser's ``t`` and the
``zmod-agreement`` self-test check read it.

Field elements are tuples of f integers in [0, p).  The field modulus
is chosen deterministically: scanning the non-leading coefficients as
little-endian base-p digits, the first monic irreducible wins.  All
derived encodings are therefore reproducible across runs and platforms.

Multiplication: one kernel, ``_mulmod``, multiplies two integer
coefficient tuples modulo a monic polynomial and an integer.  ``Fq.mul``
uses it with (m, p), ``Ring.mul`` with (mhat, p^s), for e > 1 at
x = y^(2e-1) on a packed form (see ``Ring.mul``),
and the irreducibility test behind the modulus scan for its powers of x
(``batch.square_and_multiply``) and its gcd remainders.  Only rings and
fields with one coordinate skip it.

One factoriser, ``_factorize``, splits f for the irreducibility test and
q^d - 1 for ``Fq.multiplicative_generator`` and ``matrix.exponent_multiple``.

Fq and Ring share ``_FlatTuples``: every operation but ``mul`` and
``inv`` that needs only w, coord_mod and the element count ``size``,
so on all of them F_q is the length-1 ring of either kind.

Elements are immutable tuples and Fq/Ring instances are read-only
context objects, so everything here is safe for concurrent use.

Coordinate layout (``ENCODING_VERSION`` 1): an element is the flat
tuple of its w coordinates described above.  A matrix entry of the
batch arrays holds them in that order, and so do the partition cache's
coordinate bytes, each coordinate a little-endian
``BatchRing.coord_dtype``.

Self test: each check of ``Ring.selftest`` is one predicate.  A check
runs exhaustively when what it walks has at most ``_EXHAUSTIVE_CAP``
members: the Teichmueller fixed points (the q lifts; for r = 1 the
residue field's Fermat identity), cardinality (coord_mod^w = size, and
the scalar index maps against the batch coordinates), unit count and
the digit round trip (the ring's elements, in one chunk walk), and
Teichmueller multiplicativity (q^2 pairs).  Above the cap it samples,
or is skipped (cardinality).  Every sampled check goes through one
driver: at most ``_SAMPLES`` trials, each drawing its elements from
the one seeded stream, up to the first trial that fails.  The
exhaustive checks run on numpy coordinate arrays in chunks of
``_SELFTEST_CHUNK`` elements.
Products there come from ``structure_tensor``, which the scalar ``mul``
of the very Fq or Ring under test computes on its basis, and
Teichmueller digits from one table of the q lifts of ``teichmuller``,
divided and multiplied by u slice-wise as ``_div_u`` and ``_times_u``
do; the batched digits -> element map, ``digit_coords``, also builds
the Sylow elements of ``matrix.p_exponent``.  The Fermat
identity a^q = a takes one p-th power per element of F_q, kept as an
index table of a -> a^p, and reads a^q off it by composing the table f
times, with no further product.  A few elements of each batched check
also run through the scalar Frobenius, index, ``is_unit`` or digit
maps; a disagreement fails the check.  Lift tables and structure
tensors hold Python ints where int64 cannot hold their sums
(``batch.int_dtype``), so the batched checks are exact at every r.  The
sampled checks stay scalar and tie the tensors to ``Fq.mul`` and
``Ring.mul``.

Text forms: an element renders slice by slice, slice k times t^k, like
``1+2t+t^2``; a witt element has one slice, so it renders as a plain
integer (f = 1) or an x-polynomial.  ``parse_element`` accepts
sums, differences, products, powers, parentheses, integers, ``t``
(poly kind) and ``x`` (extension coordinate, f > 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import re
from dataclasses import dataclass

import numpy as np

from .batch import _reduce, int_dtype, square_and_multiply, tensor_from_mul, tensor_mul
from .errors import NonUnitError, ParseError

POLY = "poly"
WITT = "witt"

ENCODING_VERSION = 1  # of the coordinate layout (module doc), in the cache header

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_EXHAUSTIVE_CAP = 10_000  # the self test walks at most this many elements or pairs
_SAMPLES = 100  # random draws per sampled self-test check
# rows per coordinate array in the self test's batched checks
_SELFTEST_CHUNK = 512
# elements per batched check that are also computed by the scalar code
_AGREE_SAMPLES = 8


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in _MR_BASES:
        if n % small == 0:
            return n == small
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _factorize(n: int) -> dict:
    """{prime: exponent} of n >= 1, primes ascending.  A cofactor that
    ``_is_prime`` rejects is split by its least divisor below 1000, else
    by isqrt when that divides it (rho would need about sqrt(p) steps
    for p^2), else by Brent's variant of Pollard rho."""
    out, todo = {}, [n] if n > 1 else []
    while todo:
        m = todo.pop()
        if _is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = next((s for s in range(2, 1000) if m % s == 0), math.isqrt(m))
        c = 0
        while m % d or d == m:  # rho on y -> y^2 + c; next c if it closes mod m
            c += 1
            y, r, k, d = 2, 1, 1, 1
            while d == 1:
                if k == r:  # Brent: move x to y at each power of two
                    x, r, k = y, 2 * r, 0
                y = (y * y + c) % m
                k += 1
                d = math.gcd(y - x, m)
        todo += [d, m // d]
    return dict(sorted(out.items()))


def _index_coords(indices, M, w):
    """(N, w) coordinates of the elements with these indices: their
    little-endian base-M digits, the inverse of ``index``."""
    return np.asarray(indices, dtype=np.int64)[:, None] // M ** np.arange(w, dtype=np.int64) % M


def _agreement_indices(n):
    """_AGREE_SAMPLES indices spread over range(n), one in the middle of
    each equal slice."""
    return sorted({(2 * i + 1) * n // (2 * _AGREE_SAMPLES) for i in range(_AGREE_SAMPLES)})


# ---------------------------------------------------------------------------
# dense polynomial helpers over Z/p (coefficient tuples, ascending degree)

def _ptrim(a):
    i = len(a)
    while i > 0 and a[i - 1] == 0:
        i -= 1
    return a[:i]


def _mulmod(a, b, m, M):
    """a * b modulo the monic polynomial m and the integer M.

    a, b and m are integer coefficient tuples in ascending degree; the
    result has deg m coefficients in [0, M).  Coefficients are reduced
    mod M as they are formed, and the reduction skips zero coefficients
    of m."""
    d = len(m) - 1
    prod = [0] * max(len(a) + len(b) - 1, d)
    for i, ai in enumerate(a):
        if ai:
            for k, bj in enumerate(b, i):
                prod[k] = (prod[k] + ai * bj) % M
    for top in range(len(prod) - 1, d - 1, -1):
        c = prod[top]
        if c:
            for k, mi in enumerate(m, top - d):
                if mi:
                    prod[k] = (prod[k] - c * mi) % M
    return tuple(prod[:d])


def _pgcd(a, b, p):
    a, b = _ptrim(a), _ptrim(b)
    while b:
        inv_lead = pow(b[-1], -1, p)
        bm = tuple(c * inv_lead % p for c in b)
        a, b = b, _ptrim(_mulmod(a, (1,), bm, p))
    return a


def _has_root(m, p):
    for c in range(p):
        acc = 0
        for coef in reversed(m):
            acc = (acc * c + coef) % p
        if acc == 0:
            return True
    return False


def _is_irreducible(m, p):
    """Monic m over Z/p: x^(p^f) = x mod m and gcd(x^(p^(f/l)) - x, m) = 1."""
    f = len(m) - 1
    if f == 1:
        return True
    if p <= 1000:
        # cheap screen: a linear factor kills most scan candidates, and
        # for degree 2 or 3 rootlessness is already equivalent
        if _has_root(m, p):
            return False
        if f <= 3:
            return True
    x = (0, 1) + (0,) * (f - 2)
    mul = functools.partial(_mulmod, m=m, M=p)
    if square_and_multiply(mul, x, p ** f) != x:
        return False
    for ell in _factorize(f):
        diff = list(square_and_multiply(mul, x, p ** (f // ell)))
        diff[1] = (diff[1] - 1) % p
        if len(_pgcd(diff, m, p)) > 1:
            return False
    return True


def _find_modulus(p, f):
    for k in range(p ** f):
        coeffs = []
        v = k
        for _ in range(f):
            coeffs.append(v % p)
            v //= p
        m = tuple(coeffs) + (1,)
        if _is_irreducible(m, p):
            return m
    raise ArithmeticError(f"no monic irreducible of degree {f} over F_{p}")


# ---------------------------------------------------------------------------

class _FlatTuples:
    """Fq and Ring arithmetic on tuples of w integers in [0, coord_mod),
    size elements in all; a subclass supplies ``mul`` and ``inv``."""

    def __init__(self, w: int, coord_mod: int, size: int):
        self.w = w
        self.coord_mod = coord_mod
        self.size = size
        self.zero = (0,) * w
        self.one = (1,) + (0,) * (w - 1)

    def from_int(self, k: int) -> tuple:
        return (k % self.coord_mod,) + (0,) * (self.w - 1)

    def add(self, a, b):
        m = self.coord_mod
        return tuple((x + y) % m for x, y in zip(a, b))

    def sub(self, a, b):
        m = self.coord_mod
        return tuple((x - y) % m for x, y in zip(a, b))

    def neg(self, a):
        m = self.coord_mod
        return tuple(-x % m for x in a)

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        if self.w == 1:
            return (pow(a[0], e, self.coord_mod),)
        return square_and_multiply(self.mul, a, e) if e else self.one

    def structure_tensor(self):
        """(w, w, w) structure tensor of this instance's ``mul`` on the
        coordinate basis."""
        return tensor_from_mul(self.mul, self.w, self.coord_mod)

    def index(self, a) -> int:
        k = 0
        for c in reversed(a):
            k = k * self.coord_mod + c
        return k

    def from_index(self, k: int) -> tuple:
        k = operator.index(k)
        if not 0 <= k < self.size:
            raise ValueError(f"index {k} out of range for {self!r}")
        return self._digits(k)

    def _digits(self, k: int) -> tuple:
        """The w base-coord_mod digits of an index k in [0, size), least
        significant first."""
        if self.w == 1:
            return (k,)
        M = self.coord_mod
        coords = []
        for _ in range(self.w):
            k, c = divmod(k, M)
            coords.append(c)
        return tuple(coords)

    def elements(self):
        # index order: coordinate 0 varies fastest
        for tup in itertools.product(range(self.coord_mod), repeat=self.w):
            yield tup[::-1]

    def rand(self, rng: random.Random):
        # one randrange per element: pinned self-test digests depend on
        # the stream; the draw is in range, so from_index's checks are not
        # needed
        return self._digits(rng.randrange(self.size))


class Fq(_FlatTuples):
    """The finite field F_q, q = p^f; elements are coefficient tuples.

    The modulus is the lexicographically least monic irreducible of
    degree f (non-leading coefficients read as base-p digits), so
    f = 1 always uses m = x.
    """

    def __init__(self, p: int, f: int):
        if not _is_prime(p):
            raise ValueError(f"p = {p} is not prime")
        if f < 1:
            raise ValueError("f must be >= 1")
        super().__init__(f, p, p ** f)
        self.p = p
        self.f = f
        self.q = self.size
        self.modulus = _find_modulus(p, f)
        self._gen = None
        self._fermat = "unchecked"

    def __repr__(self):
        return f"Fq(p={self.p}, f={self.f})"

    def __eq__(self, other):
        return (isinstance(other, Fq)
                and (self.p, self.f, self.modulus) == (other.p, other.f, other.modulus))

    def __hash__(self):
        return hash((self.p, self.f, self.modulus))

    def mul(self, a, b):
        if self.f == 1:
            return (a[0] * b[0] % self.p,)
        return _mulmod(a, b, self.modulus, self.p)

    def inv(self, a):
        if a == self.zero:
            raise NonUnitError("0 has no inverse in F_q")
        if self.f == 1:
            return (pow(a[0], -1, self.p),)
        return self.pow(a, self.q - 2)

    def frobenius(self, a):
        return self.pow(a, self.p)

    def fermat_check(self):
        """Witness that a^q != a for some element, or None; memoized.

        Exhaustive for q <= ``_EXHAUSTIVE_CAP`` (skipped above).  Each
        element is raised to the p-th power once, as coordinate arrays
        in chunks multiplied through ``structure_tensor``, which gives
        the index table of a -> a^p; a^q is that table composed f
        times.  A few elements also run through the scalar f-fold
        ``frobenius``, and one whose two results differ is a witness
        too.  The witness is the first in index order.
        """
        if self._fermat == "unchecked":
            self._fermat = None if self.q > _EXHAUSTIVE_CAP else self._fermat_failure()
        return self._fermat

    def _fermat_failure(self):
        """First element, in index order, with a^q != a or on which the
        batch and the scalar Frobenius disagree; None if there is none."""
        p, f, q = self.p, self.f, self.q
        mul = functools.partial(tensor_mul, self.structure_tensor(), p)
        place = p ** np.arange(f, dtype=np.int64)
        # frob[k] is the index of a^p for the element a of index k, so
        # a^(p^f) is frob composed f times: (a^p)^p is read off a^p's row
        frob = np.empty(q, dtype=np.int64)
        for start in range(0, q, _SELFTEST_CHUNK):
            a = _index_coords(range(start, min(q, start + _SELFTEST_CHUNK)), p, f)
            frob[start:start + len(a)] = square_and_multiply(mul, a, p) @ place
        image = frob
        for _ in range(f - 1):
            image = frob[image]
        bad = np.flatnonzero(image != np.arange(q))[:1].tolist()
        for k in _agreement_indices(q):
            x = self.from_index(k)
            for _ in range(f):
                x = self.frobenius(x)
            if self.index(x) != image[k]:
                bad.append(k)
                break
        return self.from_index(min(bad)) if bad else None

    def multiplicative_generator(self) -> tuple:
        """First element of F_q^x, in index order, of order q - 1."""
        if self._gen is None:
            cofactors = [(self.q - 1) // ell for ell in _factorize(self.q - 1)]
            for k in range(1, self.q):
                a = self.from_index(k)
                if all(self.pow(a, c) != self.one for c in cofactors):
                    self._gen = a
                    break
        return self._gen

    def render(self, a) -> str:
        terms = []
        for i, c in enumerate(a):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                var = "x" if i == 1 else f"x^{i}"
                terms.append(var if c == 1 else f"{c}{var}")
        return "+".join(terms) if terms else "0"


@functools.lru_cache(maxsize=None)
def field_make(p: int, f: int) -> Fq:
    return Fq(p, f)


# ---------------------------------------------------------------------------

class Ring(_FlatTuples):
    """A truncated local ring O_r of the given kind over F_q (see module doc)."""

    def __init__(self, kind: str, p: int, f: int, r: int):
        if kind not in (POLY, WITT):
            raise ValueError(f"unknown ring kind {kind!r}")
        if r < 1:
            raise ValueError("r must be >= 1")
        self.kind = kind
        self.field = field_make(p, f)
        self.p = p
        self.f = f
        self.r = r
        self.q = self.field.q
        # GR(p^s, f)[u]/(u^e - p), r = e s: the two ends of that family
        self.e, self.s = (1, r) if kind == WITT else (r, 1)
        e = self.e
        self.characteristic = p ** self.s
        super().__init__(e * f, self.characteristic, self.q ** r)
        self.mhat = tuple(c % self.characteristic for c in self.field.modulus)
        if e > 1:
            # see mul: mhat(x) at x = y^(2e-1), and the packed position
            # k + j (2e-1) of each coordinate k f + j
            step = 2 * e - 1
            mpack = [0] * (f * step + 1)
            mpack[::step] = self.mhat
            self._mpack = tuple(mpack)
            packed = [k + j * step for k in range(e) for j in range(f)]
            gather = [self.w] * ((f - 1) * step + e)  # self.w: a padding 0
            for i, pos in enumerate(packed):
                gather[pos] = i
            self._pack = operator.itemgetter(*gather)
            self._unpack = operator.itemgetter(*packed)
        self._teich = {}
        self.pi = self._times_u(self.one)  # p for witt, t for poly; 0 if r = 1

    # -- identity / description ------------------------------------------

    def __repr__(self):
        return f"Ring({self.kind}, p={self.p}, f={self.f}, r={self.r})"

    @property
    def label(self) -> str:
        if self.kind == POLY:
            return f"F_{self.q}[t]/t^{self.r}"
        if self.f == 1:
            return f"Z/{self.characteristic}"
        return f"GR({self.p}^{self.r}, {self.f})"

    def __eq__(self, other):
        return (isinstance(other, Ring)
                and (self.kind, self.p, self.f, self.r)
                == (other.kind, other.p, other.f, other.r))

    def __hash__(self):
        return hash((self.kind, self.p, self.f, self.r))

    # -- arithmetic --------------------------------------------------------

    def mul(self, a, b):
        if self.w == 1:
            return (a[0] * b[0] % self.coord_mod,)
        if self.e == 1:  # the one slice: GR(p^s, f) itself
            return _mulmod(a, b, self.mhat, self.coord_mod)
        # Packed as polynomials in y with u = y and x = y^(2e-1), the
        # u-degrees of a product (at most 2e-2) never reach the next power
        # of x, so reducing by _mpack = mhat(y^(2e-1)) mod p^s reduces mod
        # mhat in every u-degree.  The u-degrees >= e are then dropped:
        # e > 1 only when s = 1, where u^e = p = 0 (BatchRing checks that
        # the product is this truncated convolution).
        pack = self._pack
        return self._unpack(_mulmod(pack(a + (0,)), pack(b + (0,)), self._mpack, self.coord_mod))

    def _times_u(self, a):
        """u a: the slices move up one and the top one wraps to slice 0
        times u^e = p."""
        p, M, f = self.p, self.coord_mod, self.f
        return tuple(p * c % M for c in a[-f:]) + a[:-f]

    def _div_u(self, a):
        """The preimage of a under ``_times_u`` whose top slice is below
        p; a's slice 0 must be divisible by p."""
        p, f = self.p, self.f
        if any(c % p for c in a[:f]):
            raise ArithmeticError("not divisible by the uniformizer")
        return a[f:] + tuple(c // p for c in a[:f])

    def int_mul(self, a, k: int):
        """k-fold sum of a (k may be any integer), by double-and-add on k
        itself, not on k mod the characteristic, which the self-test checks."""
        if k < 0:
            return self.int_mul(self.neg(a), -k)
        return square_and_multiply(self.add, a, k) if k else self.zero

    # -- valuation / units --------------------------------------------------

    def valuation(self, a) -> int:
        """pi-adic valuation, with valuation(0) = r by convention: the
        least e v_p(c) + k over the nonzero coordinates c of slice k."""
        e, f, p = self.e, self.f, self.p
        v = self.r
        for i, c in enumerate(a):
            k = i // f
            if k >= v:
                break
            if c:
                vc = 0
                while c % p == 0:
                    c //= p
                    vc += 1
                v = min(v, e * vc + k)
        return v

    def is_unit(self, a) -> bool:
        return self.valuation(a) == 0

    def inv(self, a):
        """Newton lift of the residue inverse; ceil(log2 r) iterations."""
        if not self.is_unit(a):
            raise NonUnitError(f"{self.render(a)} is not a unit in {self.label}")
        x = self.lift(self.field.inv(self.residue(a)))
        two = self.from_int(2)
        steps = max(0, (self.r - 1).bit_length())
        for _ in range(steps):
            x = self.mul(x, self.sub(two, self.mul(a, x)))
        if self.mul(a, x) != self.one:
            raise ArithmeticError("inverse lift failed")
        return x

    # -- reduction / truncation ---------------------------------------------

    def truncate(self, s: int) -> "Ring":
        if not 1 <= s <= self.r:
            raise ValueError(f"target length {s} outside [1, {self.r}]")
        if s == self.r:
            return self
        return ring_make(self.kind, self.p, self.f, s)

    def reduce_to(self, a, s: int):
        """Image of a in O_s: its first min(e, s) slices mod p^ceil(s/e).
        When that modulus is p^s (always for e > 1), they are reduced."""
        if not 1 <= s <= self.r:
            raise ValueError(f"target length {s} outside [1, {self.r}]")
        a, m = a[:min(self.e, s) * self.f], self.p ** -(-s // self.e)
        return a if m == self.coord_mod else tuple(c % m for c in a)

    def residue(self, a) -> tuple:
        """Image in the residue field F_q, as an Fq element."""
        p = self.p
        return tuple(c % p for c in a[:self.f])

    def lift(self, a):
        """The element whose slice 0 holds the field element a's integer
        coefficients, read mod p^s, and whose other slices are zero."""
        return tuple(a) + (0,) * (self.w - self.f)

    # -- Teichmueller section and digits -------------------------------------

    def teichmuller(self, a):
        """The multiplicative section of F_q -> O_r: tau(a) = (any
        lift)^(q^(r-1)), the unique root of X^q = X over a; memoized for
        r > 1.  For r = 1 it is the lift itself, and a memo of it would
        hold q entries for every field a self-test grid walks."""
        if self.r == 1:
            return self.lift(a)
        t = self._teich.get(a)
        if t is None:
            t = self.pow(self.lift(a), self.q ** (self.r - 1))
            self._teich[a] = t
        return t

    def witt_digits(self, a) -> tuple:
        """The r Teichmueller digits of a: a = sum tau(d_i) pi^i."""
        digits = []
        x = a
        for i in range(self.r):
            d = self.residue(x)
            digits.append(d)
            if i < self.r - 1:
                x = self._div_u(self.sub(x, self.teichmuller(d)))
        return tuple(digits)

    def from_digits(self, digits) -> tuple:
        digits = tuple(digits)
        if len(digits) != self.r:
            raise ValueError(f"need {self.r} digits")
        acc = self.zero
        for d in reversed(digits):
            acc = self.add(self.teichmuller(d), self._times_u(acc))
        return acc

    # -- coordinates ---------------------------------------------------------

    def from_coords(self, coords):
        """The element with these coordinates, checked: they may come from
        outside the program (matrix literals, cache files)."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.w:
            raise ValueError(f"need {self.w} coordinates")
        if any(not 0 <= c < self.coord_mod for c in coords):
            raise ValueError("coordinate out of range")
        return coords

    # -- text form ------------------------------------------------------------

    def render(self, a) -> str:
        """Slice k times t^k; slice 0 alone is ``Fq.render``'s form."""
        f, fld = self.f, self.field
        terms = []
        for k in range(self.e):
            c = a[k * f:(k + 1) * f]
            if c == fld.zero:
                continue
            if k == 0:
                terms.append(fld.render(c))
                continue
            var = "t" if k == 1 else f"t^{k}"
            if c == fld.one:
                terms.append(var)
            elif f == 1:
                terms.append(f"{c[0]}{var}")
            else:
                terms.append(f"({fld.render(c)}){var}")
        return "+".join(terms) if terms else "0"

    def selftest(self, seed: int = 0):
        return _run_selftest(self, seed)


@functools.lru_cache(maxsize=None)
def ring_make(kind: str, p: int, f: int, r: int) -> Ring:
    return Ring(kind, p, f, r)


# ---------------------------------------------------------------------------
# self test

@dataclass(frozen=True)
class SelfTestCheck:
    name: str
    ok: bool
    mode: str  # "exhaustive", "sampled", or "skipped"
    witness: str | None = None


@dataclass(frozen=True)
class SelfTestReport:
    ring_label: str
    kind: str
    p: int
    f: int
    r: int
    checks: tuple

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self):
        return [c for c in self.checks if not c.ok]


def _teichmuller_table(ring):
    """(q, w) coordinates of tau(a) for a over F_q in index order, in a
    dtype that holds tau + p * (M - 1), a step of ``digit_coords``."""
    dtype = int_dtype((ring.p + 1) * (ring.coord_mod - 1))
    if ring.r == 1:  # tau is the lift, as in teichmuller: F_q's coordinates
        return _index_coords(range(ring.q), ring.p, ring.f).astype(dtype)
    return np.array([ring.teichmuller(a) for a in ring.field.elements()], dtype=dtype).reshape(ring.q, ring.w)


def digit_coords(ring, taus, idx):
    """``from_digits`` on (N, r) digit rows, each digit an index into F_q
    (index order): the (N, w) coordinates of sum tau(d_i) pi^i, with
    taus from ``_teichmuller_table``."""
    p, f = ring.p, ring.f
    back = np.zeros((len(idx), ring.w), dtype=taus.dtype)
    for i in reversed(range(ring.r)):
        # tau(d_i) + u back, u back unreduced as in Ring._times_u
        back = taus.take(idx[:, i], axis=0) + np.concatenate((p * back[:, -f:], back[:, :-f]), axis=1)
        _reduce(back, ring.coord_mod)
    return back


def _digit_roundtrip(ring, taus, a):
    """``witt_digits`` and then ``from_digits`` on (N, w) coordinates,
    with taus from ``_teichmuller_table``.

    Returns the (N, r, f) digits, the (N, w) coordinates rebuilt from
    them, and a mask of the rows whose expansion cannot divide by pi
    (a lift tau(d) with the wrong residue)."""
    n, p, f = len(a), ring.p, ring.f
    weights = p ** np.arange(f, dtype=np.int64)
    digits = np.empty((n, ring.r, f), dtype=np.int64)
    stuck = np.zeros(n, dtype=bool)
    x = a
    for i in range(ring.r):
        digits[:, i] = x[:, :f] % p
        if i < ring.r - 1:
            x = (x - taus[digits[:, i] @ weights]) % ring.coord_mod
            stuck |= (x[:, :f] % p != 0).any(axis=1)
            x = np.concatenate((x[:, f:], x[:, :f] // p), axis=1)  # as Ring._div_u
    return digits, digit_coords(ring, taus, digits @ weights), stuck


def _unit_mask(ring, a):
    """``is_unit`` on (N, w) coordinates: valuation 0, a nonzero residue."""
    return (a[:, :ring.f] % ring.p).any(axis=1)


def _exhaustive_walk(ring, taus, expected_units):
    """Cardinality, unit count and digit round trip over every element,
    as chunks of the coordinate array in index order.

    The batch maps (``_index_coords``, ``_unit_mask``,
    ``_digit_roundtrip``) run once on each chunk.  At
    ``_agreement_indices`` the scalar ``from_index`` and ``index``,
    ``is_unit``, ``witt_digits`` and ``from_digits`` also run, on that
    chunk's rows, and a disagreement fails the check it belongs to.
    Returns the witnesses of the cardinality, unit-count and
    digits-roundtrip checks, None where a check passes; a digit witness
    is the first bad element in index order."""
    M, w = ring.coord_mod, ring.w
    total = M ** w
    sample = _agreement_indices(total)
    units, index_bad, unit_bad, digit_bad = 0, None, None, None
    for start in range(0, total, _SELFTEST_CHUNK):
        a = _index_coords(range(start, min(total, start + _SELFTEST_CHUNK)), M, w)
        unit_rows = _unit_mask(ring, a)
        units += int(unit_rows.sum())
        here = [(k - start, ring.from_index(k)) for k in sample if start <= k < start + len(a)]
        for i, x in here:
            row = tuple(a[i].tolist())
            if index_bad is None and (x != row or ring.index(x) != start + i):
                index_bad = row
            if unit_bad is None and ring.is_unit(x) != unit_rows[i]:
                unit_bad = x
        if digit_bad is None:
            digits, back, stuck = _digit_roundtrip(ring, taus, a)
            bad = np.flatnonzero((back != a).any(axis=1) | stuck)[:1].tolist()
            for i, x in here:
                d = ring.witt_digits(x)
                if d != tuple(map(tuple, digits[i].tolist())) or ring.from_digits(d) != ring.from_coords(back[i]):
                    bad.append(i)
                    break
            if bad:
                digit_bad = ring.from_index(start + min(bad))

    def witness(count, expected, bad, disagreement):
        if count != expected:
            return f"{count} != {expected}"
        return None if bad is None else f"{disagreement} on {ring.render(bad)}"

    return (witness(total, ring.size, index_bad, "from_index or index disagrees with the batch coordinates"),
            witness(units, expected_units, unit_bad, "is_unit disagrees with the batch mask"),
            None if digit_bad is None else ring.render(digit_bad))


def _teichmuller_product_failure(ring, taus):
    """First pair index a * q + b (a outer, index order) with
    tau(a) tau(b) != tau(ab), or None.

    Ring and field products come from the structure tensors of
    ``ring.mul`` and ``ring.field.mul``, on the lift table ``taus``; both
    hold Python ints where int64 cannot, so the products are exact."""
    fld, q, p, M = ring.field, ring.q, ring.p, ring.coord_mod
    ring_t, field_t = ring.structure_tensor(), fld.structure_tensor()
    fels = _index_coords(range(q), p, ring.f)
    weights = p ** np.arange(ring.f, dtype=np.int64)
    for start in range(0, q * q, _SELFTEST_CHUNK):
        ia, ib = np.divmod(np.arange(start, min(q * q, start + _SELFTEST_CHUNK)), q)
        lhs = tensor_mul(ring_t, M, taus[ia], taus[ib])
        rhs = taus[tensor_mul(field_t, p, fels[ia], fels[ib]) @ weights]
        rows = np.flatnonzero((lhs != rhs).any(axis=1))
        if rows.size:
            return start + int(rows[0])
    return None


def _shown(space, *xs):
    """Witness text of sampled elements of a ring or field: one renders
    alone, several as a parenthesised list."""
    return space.render(xs[0]) if len(xs) == 1 else f"({', '.join(map(space.render, xs))})"


def _run_selftest(ring: Ring, seed: int) -> SelfTestReport:
    rng = random.Random(seed)
    fld, ch = ring.field, ring.characteristic
    checks = []

    def note(name, mode, wit):
        checks.append(SelfTestCheck(name, wit is None, mode, wit))

    def sampled(space, k, fails, trials=_SAMPLES):
        """Witness of the first of ``trials`` draws of k seeded random
        elements of space (the ring or its field) that ``fails``: the
        elements, after the label ``fails`` returns unless that is True;
        None if no draw fails."""
        for _ in range(trials):
            xs = [space.rand(rng) for _ in range(k)]
            why = fails(*xs)
            if why:
                return _shown(space, *xs) if why is True else f"{why}: {_shown(space, *xs)}"
        return None

    small = ring.size <= _EXHAUSTIVE_CAP
    pairs_exhaustive = ring.q * ring.q <= _EXHAUSTIVE_CAP
    # the Teichmueller lifts of F_q in index order, for the batched
    # digit round trip and the exhaustive multiplicativity check
    taus = _teichmuller_table(ring) if small or pairs_exhaustive else None

    if small:
        expected_units = ring.q ** (ring.r - 1) * (ring.q - 1)
        witnesses = _exhaustive_walk(ring, taus, expected_units)
        for name, wit in zip(("cardinality", "unit-count", "digits-roundtrip"), witnesses):
            note(name, "exhaustive", wit)
    else:
        checks.append(SelfTestCheck("cardinality", True, "skipped", "size above exhaustive cap"))
        wit = sampled(ring, 1, lambda a: ring.is_unit(a) and ring.mul(a, ring.inv(a)) != ring.one)
        checks.append(SelfTestCheck("unit-count", wit is None, "sampled",
                                    wit or "inverses of sampled units verified only"))
        note("digits-roundtrip", "sampled", sampled(ring, 1, lambda a: ring.from_digits(ring.witt_digits(a)) != a))

    note("associativity", "sampled",
         sampled(ring, 3, lambda a, b, c: ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c))))
    note("distributivity", "sampled",
         sampled(ring, 3, lambda a, b, c: ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c))))

    ok = ring.int_mul(ring.one, ch) == ring.zero and ring.int_mul(ring.one, ch // ring.p) != ring.zero
    note("characteristic", "exhaustive", None if ok else f"additive order of 1 is not {ch}")
    ok = ring.pow(ring.pi, ring.r) == ring.zero and ring.pow(ring.pi, ring.r - 1) != ring.zero
    note("uniformizer-nilpotence", "exhaustive", None if ok else "pi^r or pi^(r-1) wrong")

    def unfixed(a):
        ta = ring.teichmuller(a)
        return ring.residue(ta) != a or ring.pow(ta, ring.q) != ta

    exhaustive = fld.q <= _EXHAUSTIVE_CAP
    if ring.r == 1:
        # the ring is the field and tau is the identity: X^q = X is the
        # field's own Fermat identity, checked once per field and shared;
        # a witness among the 20 samples that follow it wins
        bad = fld.fermat_check()
        wit = sampled(fld, 1, unfixed, min(_SAMPLES, 20)) or (None if bad is None else _shown(fld, bad))
    elif exhaustive:
        wit = next((_shown(fld, a) for a in fld.elements() if unfixed(a)), None)
    else:
        wit = sampled(fld, 1, unfixed)
    note("teichmuller-fixed", "exhaustive" if exhaustive else "sampled", wit)

    if pairs_exhaustive:
        k = _teichmuller_product_failure(ring, taus)
        wit = None if k is None else _shown(fld, fld.from_index(k // ring.q), fld.from_index(k % ring.q))
    else:
        wit = sampled(fld, 2, lambda a, b: ring.mul(ring.teichmuller(a), ring.teichmuller(b))
                      != ring.teichmuller(fld.mul(a, b)))
    note("teichmuller-multiplicative", "exhaustive" if pairs_exhaustive else "sampled", wit)

    def unreduced(a, b):
        # s = r is omitted: truncate(r) is the ring and reduce_to(x, r) is
        # x.  a and b are drawn even for r = 1, which keeps the random
        # stream of the checks that follow
        ab, a_plus_b = ring.mul(a, b), ring.add(a, b)
        for s in range(1, ring.r):
            sub, a_s, b_s = ring.truncate(s), ring.reduce_to(a, s), ring.reduce_to(b, s)
            if ring.reduce_to(ab, s) != sub.mul(a_s, b_s) or ring.reduce_to(a_plus_b, s) != sub.add(a_s, b_s):
                return f"s={s}"
        return None

    note("reduction-homomorphism", "sampled", sampled(ring, 2, unreduced))

    if ring.kind == WITT and ring.f == 1:  # one coordinate, rendered as the integer it is
        note("zmod-agreement", "sampled",
             sampled(ring, 2, lambda a, b: ring.mul(a, b)[0] != a[0] * b[0] % ch
                     or ring.add(a, b)[0] != (a[0] + b[0]) % ch))

    return SelfTestReport(ring.label, ring.kind, ring.p, ring.f, ring.r, tuple(checks))


# ---------------------------------------------------------------------------
# element expression parser

_TOKEN_RE = re.compile(r"(\d+)|([A-Za-z])|([+\-*^()])|(\s+)|(.)")


def _tokenize(text: str, base: int = 0):
    tokens = []
    for m in _TOKEN_RE.finditer(text):
        pos = base + m.start()
        if m.group(1):
            tokens.append(("INT", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("NAME", m.group(2), pos))
        elif m.group(3):
            tokens.append(("OP", m.group(3), pos))
        elif m.group(4):
            continue
        else:
            raise ParseError(f"unexpected character {m.group(5)!r}", pos)
    tokens.append(("END", None, base + len(text)))
    return tokens


class _ExprParser:
    def __init__(self, ring: Ring, tokens):
        self.ring = ring
        self.tokens = tokens
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expr(self):
        kind, val, pos = self.peek()
        negate = False
        if kind == "OP" and val in "+-":
            self.take()
            negate = val == "-"
        acc = self.term()
        if negate:
            acc = self.ring.neg(acc)
        while True:
            kind, val, pos = self.peek()
            if kind == "OP" and val in "+-":
                self.take()
                rhs = self.term()
                acc = self.ring.sub(acc, rhs) if val == "-" else self.ring.add(acc, rhs)
            else:
                return acc

    def term(self):
        acc = self.primary()
        while True:
            kind, val, pos = self.peek()
            if kind == "OP" and val == "*":
                self.take()
                acc = self.ring.mul(acc, self.primary())
            elif kind in ("NAME",) or (kind == "OP" and val == "("):
                acc = self.ring.mul(acc, self.primary())
            else:
                return acc

    def primary(self):
        kind, val, pos = self.take()
        if kind == "INT":
            base = self.ring.from_int(val)
        elif kind == "NAME":
            base = self._symbol(val, pos)
        elif kind == "OP" and val == "(":
            base = self.expr()
            kind2, val2, pos2 = self.take()
            if not (kind2 == "OP" and val2 == ")"):
                raise ParseError("expected ')'", pos2)
        else:
            raise ParseError(f"expected a value, got {val!r}" if val else "expected a value", pos)
        kind, val, pos = self.peek()
        if kind == "OP" and val == "^":
            self.take()
            kind2, e, pos2 = self.take()
            if kind2 != "INT":
                raise ParseError("exponent must be a nonnegative integer", pos2)
            base = self.ring.pow(base, e)
        return base

    def _symbol(self, name, pos):
        ring = self.ring
        if name == "t":
            if ring.kind != POLY:
                raise ParseError("'t' is only available for poly-kind rings", pos)
            return ring.pi
        if name == "x":
            if ring.f == 1:
                raise ParseError("'x' is not available when f = 1", pos)
            return ring.lift((0, 1) + (0,) * (ring.f - 2))
        raise ParseError(f"unknown symbol {name!r}", pos)


def parse_element(ring: Ring, text: str, base_pos: int = 0):
    """Parse a single ring-element expression; see the module docstring."""
    parser = _ExprParser(ring, _tokenize(text, base_pos))
    value = parser.expr()
    kind, val, pos = parser.peek()
    if kind != "END":
        raise ParseError(f"trailing input {val!r}", pos)
    return value
