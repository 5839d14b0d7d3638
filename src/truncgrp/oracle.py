"""Independent verification of the profile invariants by dense linear algebra.

The main pipeline never touches the group algebra itself: it counts
classes hit by power maps.  This module rebuilds everything the slow,
definitional way over F_p -- an explicit multiplication table, the
commutator subspace [A,A] as a row-reduced span of e_gh - e_hg, the
subspaces T_n = {x : x^(p^n) in [A,A]} as kernels, and their
orthogonal spaces under the symmetrizing form (e_g, e_h) = [gh = 1] --
and reports where the two computations agree or diverge.  It is only
meant for small groups: ``AlgebraTable.from_element_table`` raises
``CapExceededError`` above ``ORACLE_CAP`` elements, before any product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import groups as groupsmod
from .batch import square_and_multiply
from .errors import CapExceededError

ORACLE_CAP = 300


class AlgebraTable:
    """Multiplication table of a group algebra F_p G, identity at id 0."""

    def __init__(self, p: int, mult: np.ndarray):
        self.p = int(p)
        self.mult = np.asarray(mult, dtype=np.int64)
        self.dim = self.mult.shape[0]
        if self.mult.shape != (self.dim, self.dim):
            raise ValueError("mult table must be square")
        self._check()
        self.inv = np.argmax(self.mult == 0, axis=1)
        if not (self.mult[self.inv, np.arange(self.dim)] == 0).all():
            raise ArithmeticError("left and right inverses disagree")

    def _check(self):
        n = self.dim
        idx = np.arange(n)
        if not (self.mult[0] == idx).all() or not (self.mult[:, 0] == idx).all():
            raise ArithmeticError("id 0 is not the identity of the table")
        if n <= 64:
            # [a,b,c]: mult[mult[a,b],c] vs mult[a,mult[b,c]], all triples
            if not np.array_equal(self.mult[self.mult], self.mult[:, self.mult]):
                raise ArithmeticError("multiplication table is not associative")
        else:
            rng = np.random.default_rng(0)
            t = rng.integers(0, n, size=(100_000, 3))
            a, b, c = t[:, 0], t[:, 1], t[:, 2]
            if not np.array_equal(self.mult[self.mult[a, b], c],
                                  self.mult[a, self.mult[b, c]]):
                raise ArithmeticError("multiplication table is not associative")

    @classmethod
    def from_element_table(cls, table, p: int) -> "AlgebraTable":
        n = len(table)
        if n > ORACLE_CAP:
            raise CapExceededError(f"group of size {n} exceeds oracle cap {ORACLE_CAP}")
        br = table.batch
        keys = br.encode(br.matmul(table.coords[:, None], table.coords[None]))
        mult = table.ids_from_keys(keys.reshape(-1)).reshape(n, n)
        return cls(p, mult)

    def order_of(self, g: int) -> int:
        k, x = 1, g
        while x != 0:
            x = int(self.mult[x, g])
            k += 1
        return k


def alg_mul(A: AlgebraTable, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Product of two coefficient vectors via the raw table."""
    out = np.zeros(A.dim, dtype=np.int64)
    np.add.at(out, A.mult, np.outer(x, y))
    return out % A.p


def alg_pow(A: AlgebraTable, x: np.ndarray, e: int) -> np.ndarray:
    if e < 0:
        raise ValueError("negative exponent")
    if e == 0:  # e_0, the identity of the algebra
        return np.eye(1, A.dim, dtype=np.int64)[0]
    return square_and_multiply(lambda a, b: alg_mul(A, a, b),
                               np.asarray(x, dtype=np.int64) % A.p, e)


def _id_pow(A: AlgebraTable, g: int, e: int) -> int:
    return square_and_multiply(lambda a, b: int(A.mult[a, b]), g, e) if e else 0


# ---------------------------------------------------------------------------
# F_p linear algebra

def _rref(mat: np.ndarray, p: int):
    a = np.array(mat, dtype=np.int64) % p
    nrows, ncols = a.shape
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            a[[r, pr]] = a[[pr, r]]
        a[r] = (a[r] * pow(int(a[r, c]), -1, p)) % p
        others = np.nonzero(a[:, c])[0]
        others = others[others != r]
        if others.size:
            a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        pivots.append(c)
        r += 1
    return a[:r], pivots


def nullspace(mat: np.ndarray, p: int) -> np.ndarray:
    """Basis (rows) of {x : mat @ x = 0 over F_p}."""
    mat = np.atleast_2d(np.asarray(mat, dtype=np.int64))
    ncols = mat.shape[1]
    rr, pivots = _rref(mat, p)
    free = [c for c in range(ncols) if c not in set(pivots)]
    basis = np.zeros((len(free), ncols), dtype=np.int64)
    for k, fc in enumerate(free):
        basis[k, fc] = 1
        for j, pc in enumerate(pivots):
            basis[k, pc] = (-rr[j, fc]) % p
    return basis


class Subspace:
    """Row space in F_p^dim kept in reduced echelon form."""

    def __init__(self, p: int, dim: int):
        self.p = p
        self.dim = dim
        self.rows = np.zeros((0, dim), dtype=np.int64)
        self.pivots: list[int] = []

    @property
    def rank(self) -> int:
        return len(self.pivots)

    def reduce(self, vec) -> np.ndarray:
        v = np.asarray(vec, dtype=np.int64) % self.p
        if self.pivots:
            v = (v - v[self.pivots] @ self.rows) % self.p
        return v

    def insert(self, vec) -> bool:
        v = self.reduce(vec)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = (v * pow(int(v[c]), -1, self.p)) % self.p
        if self.pivots:
            col = self.rows[:, c].copy()
            self.rows = (self.rows - np.outer(col, v)) % self.p
        at = int(np.searchsorted(np.asarray(self.pivots + [self.dim]), c))
        self.rows = np.insert(self.rows, at, v, axis=0)
        self.pivots.insert(at, c)
        return True

    def contains(self, vec) -> bool:
        return not self.reduce(vec).any()

    def leq(self, other: "Subspace") -> bool:
        return all(other.contains(row) for row in self.rows)

    def eq(self, other: "Subspace") -> bool:
        return self.rank == other.rank and self.leq(other)

    @classmethod
    def from_rows(cls, p: int, dim: int, rows) -> "Subspace":
        s = cls(p, dim)
        for row in rows:
            s.insert(row)
        return s


def commutator_space(A: AlgebraTable) -> Subspace:
    """span{e_gh - e_hg}, deduplicated to distinct unordered id pairs."""
    n = A.dim
    lo = np.minimum(A.mult, A.mult.T).ravel()
    hi = np.maximum(A.mult, A.mult.T).ravel()
    keep = lo != hi
    pairs = np.unique(lo[keep] * n + hi[keep])
    s = Subspace(A.p, n)
    for code in pairs:
        x, y = divmod(int(code), n)
        v = np.zeros(n, dtype=np.int64)
        v[x] = 1
        v[y] = A.p - 1
        s.insert(v)
    return s


def kuelshammer_space(A: AlgebraTable, n: int, comm: Subspace | None = None) -> Subspace:
    """T_n = {x : x^(p^n) in [A,A]}, with every basis vector re-verified.

    On basis vectors the map x -> x^(p^n) mod [A,A] is F_p-linear, so
    T_n is the kernel of the reduced power-permutation matrix; each
    kernel basis vector is then re-checked by honest algebra powering.
    """
    if comm is None:
        comm = commutator_space(A)
    e = A.p ** n
    pow_ids = np.array([_id_pow(A, g, e) for g in range(A.dim)])
    eye = np.eye(A.dim, dtype=np.int64)
    reduced = np.stack([comm.reduce(eye[t]) for t in range(A.dim)])
    mat = reduced[pow_ids].T  # column g = e_(g^(p^n)) mod [A,A]
    basis = nullspace(mat, A.p)
    t = Subspace.from_rows(A.p, A.dim, basis)
    if t.rank != len(basis):
        raise ArithmeticError("kernel basis was not independent")
    for row in basis:
        if not comm.contains(alg_pow(A, row, e)):
            raise ArithmeticError(
                f"claimed T_{n} vector fails the direct powering check")
    return t


def perp(S: Subspace, A: AlgebraTable) -> Subspace:
    """Orthogonal space under the symmetrizing form (e_g, e_h) = [gh = 1]."""
    if S.rank == 0:
        return Subspace.from_rows(S.p, S.dim, np.eye(S.dim, dtype=np.int64))
    constraints = S.rows[:, A.inv]
    out = Subspace.from_rows(S.p, S.dim, nullspace(constraints, S.p))
    if out.rank != S.dim - S.rank:
        raise ArithmeticError("form is degenerate on the group basis")
    return out


# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class OracleReport:
    group: str
    p: int
    dim: int
    num_classes: int
    dims_linalg: tuple[int, ...]
    dims_classes: tuple[int, ...]
    stab_linalg: int
    stab_classes: int
    commutator_rank_ok: bool
    t0_is_commutator: bool
    chain_ok: bool
    dual_rank_ok: bool
    terminal_ok: bool
    ok: bool
    first_mismatch: int | None


def oracle_profile(A: AlgebraTable, part, p: int) -> OracleReport:
    """Recompute the dimension sequence by linear algebra and diff it
    against the class-counting pipeline.  Disagreements are reported,
    not raised."""
    prof = groupsmod.kuelshammer_profile(part, p)
    if A.p != p:
        raise ValueError("algebra table was built for a different prime")
    comm = commutator_space(A)
    comm_rank_ok = comm.rank == A.dim - part.num_classes
    t0_ok = kuelshammer_space(A, 0, comm).eq(comm)
    dims = []
    chain_ok = True
    dual_ok = True
    spaces = []
    n = 0
    while True:
        t = kuelshammer_space(A, n, comm)
        if spaces:
            chain_ok = chain_ok and spaces[-1].leq(t)
            if t.eq(spaces[-1]):
                break
        spaces.append(t)
        pp = perp(t, A)
        dual_ok = dual_ok and (pp.rank == A.dim - t.rank)
        dims.append(pp.rank)
        n += 1
        if n > A.dim:
            raise ArithmeticError("T_n chain failed to stabilize")
    stab_linalg = len(dims) - 1
    regular = sum(1 for rep in part.reps
                  if A.order_of(int(rep)) % p != 0)
    terminal_ok = dims[-1] == regular
    a, b = groupsmod._padded(tuple(dims), prof.dims)
    first_mismatch = next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), None)
    ok = (comm_rank_ok and t0_ok and chain_ok and dual_ok and terminal_ok
          and first_mismatch is None and stab_linalg == prof.stab_index)
    return OracleReport(
        group=part.table.group.label, p=p, dim=A.dim,
        num_classes=part.num_classes,
        dims_linalg=tuple(dims), dims_classes=prof.dims,
        stab_linalg=stab_linalg, stab_classes=prof.stab_index,
        commutator_rank_ok=comm_rank_ok, t0_is_commutator=t0_ok,
        chain_ok=chain_ok, dual_rank_ok=dual_ok, terminal_ok=terminal_ok,
        ok=ok, first_mismatch=first_mismatch)
