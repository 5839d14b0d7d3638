"""Exact arithmetic for truncated local rings with residue field F_q.

Two ring kinds of length r over F_q (q = p^f) are supported, and an
element of either is the flat tuple of its w integer coordinates, each
in [0, coord_mod):

* ``poly``: F_q[t]/t^r, w = r f and coord_mod = p.  The coefficient of
  t^k, a field element, sits at positions k f, ..., (k+1) f - 1, so for
  r = 1 an element is an Fq element.  The uniformizer is t and the
  characteristic is p.
* ``witt``: the unramified length-r lift of F_q, realized as the Galois
  ring (Z/p^r)[x]/(mhat), w = f and coord_mod = p^r.  The coordinates
  are the coefficients of 1, x, ..., x^(f-1).  The uniformizer is p and
  the characteristic is p^r.  mhat is the monic lift of the field
  modulus with the same integer coefficients; any monic lift of an
  irreducible polynomial yields this ring up to isomorphism.  The
  self-test suite checks the properties that pin the construction down
  (unit count, Teichmueller fixed points), so a failed lift cannot pass
  silently.

Field elements are tuples of f integers in [0, p).  The field modulus
is chosen deterministically: scanning the non-leading coefficients as
little-endian base-p digits, the first monic irreducible wins.  All
derived encodings are therefore reproducible across runs and platforms.

Multiplication: one kernel, ``_mulmod``, multiplies two integer
coefficient tuples modulo a monic polynomial and an integer.  ``Fq.mul``
uses it with (m, p), the witt ``Ring.mul`` with (mhat, p^r), the poly
``Ring.mul`` with m at x = y^(2r-1) on a packed form (see ``Ring.mul``),
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

Byte encoding (version 1): the coordinates, each little-endian in the
fixed width of coord_mod - 1.

Self test: ``Ring.selftest`` runs a check exhaustively when what it
walks has at most ``_EXHAUSTIVE_CAP`` members: the Teichmueller fixed
points (the q lifts; for r = 1 the residue field's Fermat identity),
cardinality, unit count and the digit round trip (the ring's elements),
and Teichmueller multiplicativity (q^2 pairs).  Above the cap it samples, or is skipped (cardinality); a
sampled check draws at most ``_SAMPLES`` seeded random elements.  The
exhaustive checks run on numpy coordinate arrays in chunks of
``_SELFTEST_CHUNK`` elements.  Products there come from
``structure_tensor``, which the scalar ``mul`` of the very Fq or Ring
under test computes on its basis, and Witt digits from one table of
the q lifts of ``teichmuller``.  A few elements of each batched check
also run through the scalar Frobenius, ``encode``, ``is_unit`` or
digit maps; a disagreement fails the check.  Lift tables and structure
tensors hold Python ints where int64 cannot hold their sums
(``batch.int_dtype``), so the batched checks are exact at every r.  The
sampled checks stay scalar and tie the tensors to ``Fq.mul`` and
``Ring.mul``.

Text forms: poly elements render like ``1+2t+t^2``, witt elements as
plain integers (f = 1) or x-polynomials.  ``parse_element`` accepts
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

from .batch import int_dtype, square_and_multiply, tensor_from_mul, tensor_mul
from .errors import NonUnitError, ParseError

POLY = "poly"
WITT = "witt"

ENCODING_VERSION = 1

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
        return self.from_index(rng.randrange(self.size))


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

        Exhaustive for q <= ``_EXHAUSTIVE_CAP`` (skipped above), using
        f-fold Frobenius so the exponent never exceeds p.  The elements
        run as coordinate arrays in chunks, multiplied through
        ``structure_tensor``; a few of them also run through the scalar
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

        def frobenius_f(x):
            for _ in range(f):
                x = square_and_multiply(mul, x, p)
            return x

        bad = []
        sample = _agreement_indices(q)
        for k, row in zip(sample, frobenius_f(_index_coords(sample, p, f)).tolist()):
            x = self.from_index(k)
            for _ in range(f):
                x = self.frobenius(x)
            if x != tuple(row):
                bad.append(k)
                break
        for start in range(0, q, _SELFTEST_CHUNK):
            a = _index_coords(range(start, min(q, start + _SELFTEST_CHUNK)), p, f)
            rows = np.flatnonzero((frobenius_f(a) != a).any(axis=1))
            if rows.size:
                bad.append(start + int(rows[0]))
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
        if kind == WITT:
            self.pr = p ** r
            super().__init__(f, self.pr, self.q ** r)
            self.mhat = tuple(c % self.pr for c in self.field.modulus)
            self.characteristic = self.pr
            self.pi = (p % self.pr,) + (0,) * (f - 1)
        else:
            super().__init__(r * f, p, self.q ** r)
            self.characteristic = p
            self.pi = tuple(int(i == f) for i in range(self.w))  # t; 0 if r = 1
            # see mul: the field modulus m(x) at x = y^(2r-1), and the
            # packed position k + j (2r-1) of each coordinate k f + j
            step = 2 * r - 1
            mpack = [0] * (f * step + 1)
            mpack[::step] = self.field.modulus
            self._mpack = tuple(mpack)
            packed = [k + j * step for k in range(r) for j in range(f)]
            gather = [self.w] * ((f - 1) * step + r)  # self.w: a padding 0
            for i, pos in enumerate(packed):
                gather[pos] = i
            self._pack = operator.itemgetter(*gather)
            self._unpack = operator.itemgetter(*packed)
        self.coeff_width = max(1, ((self.coord_mod - 1).bit_length() + 7) // 8)
        self._teich = {}

    # -- identity / description ------------------------------------------

    def __repr__(self):
        return f"Ring({self.kind}, p={self.p}, f={self.f}, r={self.r})"

    @property
    def label(self) -> str:
        if self.kind == POLY:
            return f"F_{self.q}[t]/t^{self.r}"
        if self.f == 1:
            return f"Z/{self.pr}"
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
        if self.kind == WITT:
            return _mulmod(a, b, self.mhat, self.pr)
        # F_q[t]/t^r = (F_p[t]/t^r)[x]/(m).  Packed as polynomials in y
        # with t = y and x = y^(2r-1), the t-degrees of a product (at most
        # 2r-2) never reach the next power of x, so reducing by _mpack =
        # m(y^(2r-1)) reduces mod m in every t-degree; truncation mod t^r
        # is then a read-off
        pack = self._pack
        return self._unpack(_mulmod(pack(a + (0,)), pack(b + (0,)), self._mpack, self.p))

    def int_mul(self, a, k: int):
        """k-fold sum of a (k may be any integer)."""
        k %= self.characteristic
        result = self.zero
        base = a
        while k:
            if k & 1:
                result = self.add(result, base)
            base = self.add(base, base)
            k >>= 1
        return result

    # -- valuation / units --------------------------------------------------

    def valuation(self, a) -> int:
        """pi-adic valuation, with valuation(0) = r by convention."""
        if self.kind == POLY:
            return next((i // self.f for i, c in enumerate(a) if c), self.r)
        v = self.r
        for c in a:
            if c:
                vc = 0
                while c % self.p == 0:
                    c //= self.p
                    vc += 1
                v = min(v, vc)
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
        """Image of a in O_s (coefficientwise truncation)."""
        target = self.truncate(s)
        if target is self:
            return a
        if self.kind == POLY:
            return a[:s * self.f]
        m = target.pr
        return tuple(c % m for c in a)

    def residue(self, a) -> tuple:
        """Image in the residue field F_q, as an Fq element."""
        p = self.p
        return tuple(c % p for c in a[:self.f])

    def lift(self, a):
        """The element whose first f coordinates are the field element a's
        integer coefficients: the constant a (poly kind), or a's
        coefficients read mod p^r (witt)."""
        return tuple(a) + (0,) * (self.w - self.f)

    # -- Teichmueller section and digits -------------------------------------

    def teichmuller(self, a):
        """The multiplicative section of F_q -> O_r.

        Witt kind: tau(a) = (any lift)^(q^(r-1)), the unique root of
        X^q = X over a.  Poly kind: the constant-coefficient embedding.
        """
        if self.kind == POLY or self.r == 1:
            return self.lift(a)  # r = 1: the q^0-th power of the lift
        t = self._teich.get(a)
        if t is None:
            t = self.pow(self.lift(a), self.q ** (self.r - 1))
            self._teich[a] = t
        return t

    def _shift_down(self, a):
        # witt kind: preimage under multiplication by p, canonical (top
        # digit zero)
        if any(c % self.p for c in a):
            raise ArithmeticError("not divisible by the uniformizer")
        return tuple(c // self.p for c in a)

    def witt_digits(self, a) -> tuple:
        """The r Teichmueller digits of a: a = sum tau(d_i) pi^i."""
        if self.kind == POLY:
            f = self.f  # tau is the embedding and pi shifts: read-off
            return tuple(a[k * f:(k + 1) * f] for k in range(self.r))
        if self.r == 1:
            return (tuple(a),)
        digits = []
        x = a
        for i in range(self.r):
            d = self.residue(x)
            digits.append(d)
            if i < self.r - 1:
                x = self._shift_down(self.sub(x, self.teichmuller(d)))
        return tuple(digits)

    def from_digits(self, digits) -> tuple:
        digits = tuple(digits)
        if len(digits) != self.r:
            raise ValueError(f"need {self.r} digits")
        if self.kind == POLY:
            return tuple(c for d in digits for c in d)  # see witt_digits
        acc = self.zero
        for d in reversed(digits):
            acc = self.add(self.teichmuller(d), self.mul(self.pi, acc))
        return acc

    # -- coordinates / enumeration / encoding --------------------------------

    def from_coords(self, coords):
        """The element with these coordinates, checked: they may come from
        outside the program (matrix literals, cache files)."""
        coords = tuple(int(c) for c in coords)
        if len(coords) != self.w:
            raise ValueError(f"need {self.w} coordinates")
        if any(not 0 <= c < self.coord_mod for c in coords):
            raise ValueError("coordinate out of range")
        return coords

    def encode(self, a) -> bytes:
        wdt = self.coeff_width
        return b"".join(c.to_bytes(wdt, "little") for c in a)

    def decode(self, data: bytes):
        wdt = self.coeff_width
        if len(data) != wdt * self.w:
            raise ValueError(f"expected {wdt * self.w} bytes, got {len(data)}")
        coords = [int.from_bytes(data[i * wdt:(i + 1) * wdt], "little") for i in range(self.w)]
        return self.from_coords(coords)

    # -- text form ------------------------------------------------------------

    def render(self, a) -> str:
        if self.kind == WITT:
            return self.field.render(a)  # the same x-polynomial form
        terms = []
        for j, c in enumerate(self.witt_digits(a)):
            if c == self.field.zero:
                continue
            if j == 0:
                terms.append(self.field.render(c))
                continue
            var = "t" if j == 1 else f"t^{j}"
            if c == self.field.one:
                terms.append(var)
            elif self.f == 1:
                terms.append(f"{c[0]}{var}")
            else:
                terms.append(f"({self.field.render(c)}){var}")
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
    """(q, w) coordinates of tau(a) for a over F_q in index order."""
    return np.array([ring.teichmuller(a) for a in ring.field.elements()],
                    dtype=int_dtype(ring.coord_mod - 1)).reshape(ring.q, ring.w)


def _digit_roundtrip(ring, taus, a):
    """``witt_digits`` and then ``from_digits`` on (N, w) coordinates,
    with taus from ``_teichmuller_table`` (unused for the poly kind).

    Returns the (N, r, f) digits, the (N, w) coordinates rebuilt from
    them, and a mask of the rows whose expansion cannot shift down by pi
    (a lift tau(d) with the wrong residue)."""
    n = len(a)
    if ring.kind == POLY:
        # tau is the embedding and pi shifts: the digits are a read-off
        return a.reshape(n, ring.r, ring.f), a, np.zeros(n, dtype=bool)
    p, pr = ring.p, ring.pr
    weights = p ** np.arange(ring.f, dtype=np.int64)
    digits = np.empty((n, ring.r, ring.f), dtype=np.int64)
    stuck = np.zeros(n, dtype=bool)
    x = a
    for i in range(ring.r):
        digits[:, i] = x % p
        if i < ring.r - 1:
            x = (x - taus[digits[:, i] @ weights]) % pr
            stuck |= (x % p != 0).any(axis=1)
            x = x // p
    back = np.zeros_like(a)
    for i in reversed(range(ring.r)):
        back = (taus[digits[:, i] @ weights] + p * back) % pr
    return digits, back, stuck


def _unit_mask(ring, a):
    """``is_unit`` on (N, w) coordinates: valuation 0, a nonzero residue."""
    return (a[:, :ring.f] % ring.p).any(axis=1)


def _encode_rows(ring, a):
    """``encode`` on (N, w) coordinates: (N, w * coeff_width) bytes."""
    shifts = 8 * np.arange(ring.coeff_width, dtype=np.int64)
    return (a[:, :, None] >> shifts & 0xFF).astype(np.uint8).reshape(len(a), -1)


def _exhaustive_walk(ring, taus, expected_units):
    """Cardinality, unit count and digit round trip over every element,
    as chunks of the coordinate array in index order.

    The batch maps (``_encode_rows``, ``_unit_mask``, ``_digit_roundtrip``)
    run on every element.  At ``_agreement_indices`` the scalar
    ``encode``, ``is_unit``, ``witt_digits`` and ``from_digits`` run too,
    and a disagreement fails the check it belongs to.  Returns the
    witnesses of the cardinality, unit-count and digits-roundtrip checks,
    None where a check passes; a digit witness is the first bad element
    in index order."""
    M, w = ring.coord_mod, ring.w
    total = M ** w
    sample = _agreement_indices(total)
    a = _index_coords(sample, M, w)
    enc_rows, unit_rows = _encode_rows(ring, a), _unit_mask(ring, a).tolist()
    digits, back, _ = _digit_roundtrip(ring, taus, a)
    encode_bad = unit_bad = sample_bad = walk_bad = None
    for i, k in enumerate(sample):
        x = ring.from_index(k)
        if encode_bad is None and ring.encode(x) != enc_rows[i].tobytes():
            encode_bad = x
        if unit_bad is None and ring.is_unit(x) != unit_rows[i]:
            unit_bad = x
        if sample_bad is None:
            d = ring.witt_digits(x)
            if d != tuple(map(tuple, digits[i].tolist())) or ring.from_digits(d) != ring.from_coords(back[i]):
                sample_bad = k
    encodings, units = [], 0
    for start in range(0, total, _SELFTEST_CHUNK):
        a = _index_coords(range(start, min(total, start + _SELFTEST_CHUNK)), M, w)
        encodings.append(_encode_rows(ring, a))
        units += int(_unit_mask(ring, a).sum())
        if walk_bad is None:
            _, back, stuck = _digit_roundtrip(ring, taus, a)
            rows = np.flatnonzero((back != a).any(axis=1) | stuck)
            if rows.size:
                walk_bad = start + int(rows[0])
    encodings = np.concatenate(encodings)
    # one opaque item per row: np.unique then sorts bytes, not columns
    distinct = len(np.unique(encodings.view(np.dtype((np.void, encodings.shape[1])))))
    if distinct != ring.size:
        card_wit = f"{distinct} != {ring.size}"
    elif encode_bad is not None:
        card_wit = f"encode disagrees with the batch bytes on {ring.render(encode_bad)}"
    else:
        card_wit = None
    if units != expected_units:
        unit_wit = f"{units} != {expected_units}"
    elif unit_bad is not None:
        unit_wit = f"is_unit disagrees with the batch mask on {ring.render(unit_bad)}"
    else:
        unit_wit = None
    digit_bad = min((k for k in (sample_bad, walk_bad) if k is not None), default=None)
    digit_wit = None if digit_bad is None else ring.render(ring.from_index(digit_bad))
    return card_wit, unit_wit, digit_wit


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


def _run_selftest(ring: Ring, seed: int) -> SelfTestReport:
    rng = random.Random(seed)
    checks = []
    small = ring.size <= _EXHAUSTIVE_CAP

    def note(name, ok, mode, witness=None):
        checks.append(SelfTestCheck(name, ok, mode, witness))

    def rnd():
        return ring.rand(rng)

    # the Teichmueller lifts of F_q in index order, for the batched witt
    # digit round trip and the exhaustive multiplicativity check
    pairs_exhaustive = ring.q * ring.q <= _EXHAUSTIVE_CAP
    need_taus = (small and ring.kind == WITT) or pairs_exhaustive
    taus = _teichmuller_table(ring) if need_taus else None

    # one exhaustive walk when the ring is small enough: distinctness of
    # encodings (cardinality), unit count, and digit round-trips all
    # share the same chunks of the element array
    if small:
        expected_units = ring.q ** (ring.r - 1) * (ring.q - 1)
        witnesses = _exhaustive_walk(ring, taus, expected_units)
        for name, wit in zip(("cardinality", "unit-count", "digits-roundtrip"), witnesses):
            note(name, wit is None, "exhaustive", wit)
    else:
        note("cardinality", True, "skipped", "size above exhaustive cap")
        ok, wit = True, None
        for _ in range(_SAMPLES):
            a = rnd()
            if ring.is_unit(a):
                if ring.mul(a, ring.inv(a)) != ring.one:
                    ok, wit = False, ring.render(a)
                    break
        note("unit-count", ok, "sampled", wit or "inverses of sampled units verified only")
        ok, wit = True, None
        for _ in range(_SAMPLES):
            a = rnd()
            if ring.from_digits(ring.witt_digits(a)) != a:
                ok, wit = False, ring.render(a)
                break
        note("digits-roundtrip", ok, "sampled", wit)

    ok, wit = True, None
    for _ in range(_SAMPLES):
        a, b, c = rnd(), rnd(), rnd()
        if ring.mul(ring.mul(a, b), c) != ring.mul(a, ring.mul(b, c)):
            ok, wit = False, f"({ring.render(a)}, {ring.render(b)}, {ring.render(c)})"
            break
    note("associativity", ok, "sampled", wit)

    ok, wit = True, None
    for _ in range(_SAMPLES):
        a, b, c = rnd(), rnd(), rnd()
        if ring.mul(a, ring.add(b, c)) != ring.add(ring.mul(a, b), ring.mul(a, c)):
            ok, wit = False, f"({ring.render(a)}, {ring.render(b)}, {ring.render(c)})"
            break
    note("distributivity", ok, "sampled", wit)

    ch = ring.characteristic
    ok = ring.int_mul(ring.one, ch) == ring.zero and ring.int_mul(ring.one, ch // ring.p) != ring.zero
    note("characteristic", ok, "exhaustive", None if ok else f"additive order of 1 is not {ch}")

    ok = ring.pow(ring.pi, ring.r) == ring.zero and ring.pow(ring.pi, ring.r - 1) != ring.zero
    note("uniformizer-nilpotence", ok, "exhaustive", None if ok else "pi^r or pi^(r-1) wrong")

    fld = ring.field
    if ring.r == 1:
        # the ring is the field and tau is the identity: X^q = X is the
        # field's own Fermat identity, checked once per field and shared
        bad = fld.fermat_check()
        ok, wit = bad is None, None if bad is None else fld.render(bad)
        for _ in range(min(_SAMPLES, 20)):
            a = fld.rand(rng)
            ta = ring.teichmuller(a)
            if ring.residue(ta) != a or ring.pow(ta, ring.q) != ta:
                ok, wit = False, fld.render(a)
                break
        note("teichmuller-fixed", ok, "exhaustive" if fld.q <= _EXHAUSTIVE_CAP else "sampled", wit)
    else:
        exhaustive = fld.q <= _EXHAUSTIVE_CAP
        ok, wit = True, None
        for a in fld.elements() if exhaustive else (fld.rand(rng) for _ in range(_SAMPLES)):
            ta = ring.teichmuller(a)
            if ring.pow(ta, ring.q) != ta or ring.residue(ta) != a:
                ok, wit = False, fld.render(a)
                break
        note("teichmuller-fixed", ok, "exhaustive" if exhaustive else "sampled", wit)

    ok, wit = True, None
    if pairs_exhaustive:
        mode = "exhaustive"
        k = _teichmuller_product_failure(ring, taus)
        if k is not None:
            a, b = fld.from_index(k // ring.q), fld.from_index(k % ring.q)
            ok, wit = False, f"({fld.render(a)}, {fld.render(b)})"
    else:
        mode = "sampled"
        for _ in range(_SAMPLES):
            a, b = fld.rand(rng), fld.rand(rng)
            if ring.mul(ring.teichmuller(a), ring.teichmuller(b)) != ring.teichmuller(fld.mul(a, b)):
                ok, wit = False, f"({fld.render(a)}, {fld.render(b)})"
                break
    note("teichmuller-multiplicative", ok, mode, wit)

    ok, wit = True, None
    for _ in range(_SAMPLES):
        a, b = rnd(), rnd()
        for s in range(1, ring.r + 1):
            sub = ring.truncate(s)
            if (ring.reduce_to(ring.mul(a, b), s) != sub.mul(ring.reduce_to(a, s), ring.reduce_to(b, s))
                    or ring.reduce_to(ring.add(a, b), s) != sub.add(ring.reduce_to(a, s), ring.reduce_to(b, s))):
                ok, wit = False, f"s={s}: ({ring.render(a)}, {ring.render(b)})"
                break
        if not ok:
            break
    note("reduction-homomorphism", ok, "sampled", wit)

    if ring.kind == WITT and ring.f == 1:
        ok, wit = True, None
        for _ in range(_SAMPLES):
            a, b = rnd(), rnd()
            if (ring.mul(a, b)[0] != a[0] * b[0] % ring.pr
                    or ring.add(a, b)[0] != (a[0] + b[0]) % ring.pr):
                ok, wit = False, f"({a[0]}, {b[0]})"
                break
        note("zmod-agreement", ok, "sampled", wit)

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
