"""Group enumeration, conjugacy classes, and Kuelshammer-type invariants.

The pipeline: ``enumerate_group`` closes a deterministic generator set
into an ``ElementTable`` (every element gets a stable integer id, the
identity is id 0), ``conjugacy_classes`` splits the table into classes,
and ``kuelshammer_profile`` iterates the class-level p-power map to get
the dimension sequence dim T_n(F_p G)^perp, its stabilization index,
and the Reynolds (terminal) dimension.  ``compare_groups`` runs the
whole pipeline for a Witt-kind and a poly-kind group of the same shape
and reports whether the profiles tell them apart.

All ids, class labels, and cache bytes are deterministic functions of
(family, n, kind, p, f, r): generator order is fixed, BFS batches have
a fixed size, and classes are labeled by their smallest element id.

Both stages multiply only by fixed matrices: the BFS maps a frontier
batch X to X*g for g in ``generators``, the class stage maps the table to
s*X*s^-1 for s in ``conjugating_set``, each product one
``BatchRing.product_map`` applied with ``BatchRing.apply_map`` to the
coordinate-major copy (``BatchRing.block``) of a row range, made once
for all the matrices.  The power maps and the p-regular check raise
the coordinates of varying elements to powers with ``BatchRing.matpow``.

Elements are found by their ``BatchRing.encode`` keys in [0, K), K =
M^(n n w) = |R|^(n n).  A table has one ``KeyIndex``, a bitmap over that
range with the count of set bits before each 64-bit word: the BFS fills
it as it asks which products are new, and the table ranks keys in it to
find ids.  It takes about K/4 bytes, 133 KB for GL_2 over Z/27 and
F_3[t]/t^3 and at most 11 MB under ``CLASS_CAP`` (K = 81^4, SL_2 over a
ring of 81 elements), so no sorted-key search is kept beside it.

The classes are the orbits of the conjugation permutations X -> s*X*s^-1,
one per s in a set S that generates the group: the orbits depend only on
the group S generates, so S need not be the BFS list, whose order fixes
the ids.  For GL_n, n >= 2, S is the n(n-1) transvections E_ij(1) and
diag(u, 1, ..., 1) for u in a short list U of units, and
``conjugating_set`` certifies each time it is called that S generates:
the closure of U has all q^r - q^(r-1) units of R, so it holds every
diagonal entry of the list, and every list transvection E_ij(b) is
rebuilt from S, by unit conjugation, E_1j(b) = d E_1j(1) d^-1 with
d = diag(b, 1, ..., 1) (for a non-unit b, d = diag(b + 1, 1, ..., 1)
and a factor E_1j(1)^-1; E_i1 likewise with d^-1 on the left), and by
the Steinberg relation E_ij(b) = [E_i1(b), E_1j(1)] for i, j != 1.
GL_1 is abelian: S is empty.  SL_n keeps the whole list: conjugation by
diag(u, u^-1, ...) scales E_ij(1) only by squares of units, which need
not reach every E_ij(b) (SL_2 in characteristic 2), so SL lacks a
proof.  ``orbit_labels`` finds the orbits by label propagation
with pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each
element starts as its own label, takes the least label among its images,
and labels are then followed to their own labels until nothing changes.

The BFS writes each batch's new rows, one generator's products at a
time, into the table's one coordinate array: it holds n n w coordinates
and a 4-byte ``sort_perm`` entry per element beside the index, and one
coordinate-major copy of the frontier range it expands.  Other passes
walk the table in ``_BFS_CHUNK`` row blocks (``sort_perm``, the
conjugation permutations, the power maps), each block copied
coordinate-major once for all its matrices, so temporaries are sized by
the block, and the class stage holds about 4 * |S| + 16 bytes per
element beyond the table: one int32 permutation per s in S and the
labeller's four int32 arrays (|S| = 3 for GL_2 over Z/27 and 4 over
F_3[t]/t^3, where the list has 5 and 9).
"""

from __future__ import annotations

import logging
import os
import struct
import uuid
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import matrix as matmod
from . import ring as ringmod
from .batch import BatchRing
from .errors import CapExceededError, ClosureMismatchError
from .matrix import (GroupDesc, Mat, diagonal, exponent_multiple, mat_coords,
                     mat_from_coords, p_exponent, transvection)

log = logging.getLogger(__name__)

CLASS_CAP = 500_000

_BFS_CHUNK = 32768  # fixed: batch boundaries feed the id order


def generators(group: GroupDesc) -> list[Mat]:
    """Deterministic generating set, in the order that fixes the BFS ids.

    Transvections I + u E_ij over an additive basis generate SL_n
    (elementary = special linear over a local ring); GL_n additionally
    needs diagonal matrices covering the unit group of the base ring:
    a Teichmueller generator for the residue part and 1 + pi^k x^m for
    each level of the congruence filtration.  The transvections come
    first, n(n-1)w of them.  The class stage conjugates by this list
    only for SL_n (``conjugating_set``).
    """
    R = group.ring
    n = group.n
    F = R.field
    gens: list[Mat] = []
    basis = [R.from_coords(tuple(1 if c == k else 0 for c in range(R.w)))
             for k in range(R.w)]
    if n >= 2:
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                for u in basis:
                    gens.append(transvection(R, n, i, j, u))
    if R.q > 2:
        tz = R.teichmuller(F.multiplicative_generator())
        if group.family == "GL":
            gens.append(diagonal(R, (tz,) + (R.one,) * (n - 1)))
        elif n >= 2:
            gens.append(diagonal(R, (tz, R.inv(tz)) + (R.one,) * (n - 2)))
    if group.family == "GL":
        for k in range(1, R.r):
            for m in range(R.f):
                u = R.add(R.one, R.mul(R.pow(R.pi, k), basis[m]))
                gens.append(diagonal(R, (u,) + (R.one,) * (n - 1)))
    return gens


def _unit_closure(R, units) -> set:
    """The subgroup of R^x that units of R generate: R^x is finite, so it
    is their closure under multiplication, grown breadth first from 1."""
    closure, frontier = {R.one}, {R.one}
    while frontier:
        frontier = {R.mul(x, u) for x in frontier for u in units} - closure
        closure |= frontier
    return closure


def _unit_generators(R, units) -> list:
    """A short list U of units whose closure holds the given units (the
    diagonal entries of ``generators``, in list order).

    The Teichmueller generator, of order dividing q - 1, times the first
    1 + pi entry, of p-power order, is one cyclic generator covering both;
    each later entry is kept if the closure so far misses it.
    """
    if R.q > 2 and len(units) > 1:
        units = [R.mul(units[0], units[1])] + units[2:]
    U = []
    for u in units:
        if u not in _unit_closure(R, U):
            U.append(u)
    return U


def _rebuilt(R, n: int, i: int, j: int, b) -> Mat:
    """I + b E_ij as a word in the E_kl(1) and diag(u, 1, ..., 1), u a
    unit (0-based indices: E_0j is the module docstring's E_1j)."""
    if i and j:  # Steinberg relation [E_i0(b), E_0j(1)] = E_ij(b)
        x, y = _rebuilt(R, n, i, 0, b), transvection(R, n, 0, j, R.one)
        return x * y * x.inverse() * y.inverse()
    e = transvection(R, n, i, j, R.one)
    u = b if R.is_unit(b) else R.add(b, R.one)  # 1 + b is a unit
    d = diagonal(R, (u,) + (R.one,) * (n - 1))
    word = d * e * d.inverse() if i == 0 else d.inverse() * e * d  # E_ij(u)
    return word if u == b else word * e.inverse()


def conjugating_set(group: GroupDesc) -> list[Mat]:
    """A generating set S of the group for the class stage to conjugate by.

    GL_1 is abelian, so S is empty; SL_n keeps ``generators(group)``.  For
    GL_n, n >= 2, S is the E_ij(1) and diag(u, 1, ..., 1) for u in
    ``_unit_generators``, certified on every call (module docstring): the
    units of S must generate all q^r - q^(r-1) units of R, and every list
    transvection not in S must equal its ``_rebuilt`` word.  Either
    failure raises ``ArithmeticError``.
    """
    gens = generators(group)
    if group.family == "SL":
        return gens
    R, n = group.ring, group.n
    S = [transvection(R, n, i, j, R.one)
         for i in range(n) for j in range(n) if i != j]
    if not S:
        return S
    ntrans = len(S) * R.w  # the list's transvections come first
    U = _unit_generators(R, [g.entry(0, 0) for g in gens[ntrans:]])
    reached = len(_unit_closure(R, U))
    units = R.q ** R.r - R.q ** (R.r - 1)
    if reached != units or not all(map(R.is_unit, U)):
        raise ArithmeticError(
            f"{group.label}: diagonal units {U} generate {reached} of "
            f"{units} units")
    kept = set(S)
    for g in gens[:ntrans]:
        if g in kept:
            continue
        i, j = next((i, j) for i in range(n) for j in range(n)
                    if i != j and g.entry(i, j) != R.zero)
        if _rebuilt(R, n, i, j, g.entry(i, j)) != g:
            raise ArithmeticError(
                f"{group.label}: generator {g} is not its word in the "
                f"conjugating set")
    return S + [diagonal(R, (u,) + (R.one,) * (n - 1)) for u in U]


class KeyIndex:
    """A set of integer keys in [0, size), one bit per key in uint64 words.

    ``rank`` gives each key's position among the set's keys in ascending
    order, as ``np.searchsorted`` over the sorted keys would: the set
    bits in the words below the key's word (counted once per ``add``)
    plus the set bits below the key in its own word.  Bits and counts
    take about size/4 bytes.  A key at or above ``size`` reads as the
    always clear bit ``size``: absent, with rank ``len(self)``.
    """

    def __init__(self, size: int):
        self.size = int(size)
        self.words = np.zeros(self.size // 64 + 1, dtype=np.uint64)
        self._before = None

    def __len__(self):
        return int(self._counts()[-1])

    def _locate(self, keys):
        k = np.minimum(np.asarray(keys, dtype=np.int64), self.size)
        return k >> 6, np.left_shift(np.uint64(1), (k & 63).astype(np.uint64))

    def _counts(self):
        """Set bits before each word, and the total as a last entry."""
        if self._before is None:
            self._before = np.zeros(len(self.words) + 1, dtype=np.int64)
            np.cumsum(np.bitwise_count(self.words), out=self._before[1:])
        return self._before

    def add(self, keys) -> None:
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and not 0 <= keys.min() <= keys.max() < self.size:
            raise ValueError(f"key outside [0, {self.size})")
        np.bitwise_or.at(self.words, *self._locate(keys))
        self._before = None

    def contains(self, keys) -> np.ndarray:
        word, bit = self._locate(keys)
        return (self.words[word] & bit) != 0

    def rank(self, keys) -> tuple[np.ndarray, np.ndarray]:
        """(position among the set's keys in ascending order, whether
        present) for each key."""
        word, bit = self._locate(keys)
        w = self.words[word]
        return (self._counts()[word] + np.bitwise_count(w & (bit - 1)),
                (w & bit) != 0)


class ElementTable:
    """All group elements, coordinate arrays indexed by a stable id."""

    def __init__(self, group: GroupDesc, coords: np.ndarray, index: KeyIndex | None = None):
        self.group = group
        self.ring = group.ring
        self.batch = BatchRing.get(group.ring)
        self.coords = np.ascontiguousarray(coords, dtype=self.batch.coord_dtype)
        N = len(self.coords)
        if index is None:  # the BFS passes the index it filled with these rows
            # by the largest key, not M^(n n w): SL_1 over F_2[t]/t^40 has
            # one element but 2^40 possible keys
            index = KeyIndex(max(int(keys.max()) for _, keys in self._keys()) + 1)
            for _, keys in self._keys():
                index.add(keys)
        self.index = index
        if len(index) != N:
            raise ClosureMismatchError("duplicate elements in table")
        self.sort_perm = np.full(N, -1, dtype=np.int32)  # ids fit, as in Partition.class_of
        for start, keys in self._keys():
            pos, present = index.rank(keys)
            if not present.all():
                raise ClosureMismatchError("table row missing from its key index")
            self.sort_perm[pos] = np.arange(start, start + len(keys), dtype=np.int32)
        if (self.sort_perm < 0).any():  # two rows with one key left a slot empty
            raise ClosureMismatchError("no row for a key of the index")

    def _keys(self):
        """(first id, keys) of each row block of the table."""
        for start in range(0, len(self.coords), _BFS_CHUNK):
            yield start, self.batch.encode(self.coords[start:start + _BFS_CHUNK])

    def __len__(self):
        return len(self.coords)

    def mat(self, i: int) -> Mat:
        return mat_from_coords(self.ring, self.coords[i])

    def ids_from_keys(self, keys: np.ndarray) -> np.ndarray:
        pos, present = self.index.rank(keys)
        if not present.all():
            raise ClosureMismatchError("product left the enumerated set")
        return self.sort_perm[pos]


def enumerate_group(group: GroupDesc) -> ElementTable:
    """Close the generator set under right multiplication (BFS).

    Ids are assigned in discovery order: identity first, then for each
    FIFO batch the products batch*g0, batch*g1, ... with in-batch
    duplicates dropped at first occurrence.  A group of more than
    ``CLASS_CAP`` elements raises ``CapExceededError`` before any work,
    and a closure that does not fill its ``group.order()`` rows exactly
    raises ``ClosureMismatchError``.
    """
    expected = group.order()
    if expected > CLASS_CAP:
        raise CapExceededError(
            f"{group.label} has {expected} elements, cap {CLASS_CAP}")
    br = BatchRing.get(group.ring)
    n = group.n
    gens = generators(group)
    coords = np.empty((expected, n, n, br.w), dtype=br.coord_dtype)
    coords[0] = mat_coords(group.identity_mat())
    total = 1
    seen = None
    if gens:
        # the whole key range: at most 81^4 keys (module docstring)
        seen = KeyIndex(br.M ** (n * n * br.w))
        seen.add(br.encode(coords[:1]))
        maps = [br.product_map(n, right=g) for g in gens]
        frontier = deque([(0, 1)])  # row ranges of coords
        while frontier:
            start, stop = frontier.popleft()
            batch_start = total
            batch = br.block(coords[start:stop])
            # one generator at a time: what batch*g adds to seen is not
            # new for batch*g', g' later, so the fresh rows come out in
            # first-occurrence order of batch*g0, batch*g1, ...
            for lin in maps:
                prod = br.apply_map(lin, batch).reshape(-1, n, n, br.w)
                keys = br.encode(prod)
                unseen = np.flatnonzero(~seen.contains(keys))
                _, first = np.unique(keys[unseen], return_index=True)
                fresh = unseen[np.sort(first)]
                if total + len(fresh) > expected:
                    raise ClosureMismatchError(
                        f"closure of {group.label} outgrows its order {expected}")
                seen.add(keys[fresh])
                coords[total:total + len(fresh)] = prod[fresh]
                total += len(fresh)
            frontier.extend((s, min(s + _BFS_CHUNK, total))
                            for s in range(batch_start, total, _BFS_CHUNK))
    if total != expected:
        raise ClosureMismatchError(
            f"closure of {group.label} has {total} elements, expected {expected}")
    return ElementTable(group, coords, seen)


class Partition:
    """Conjugacy classes over an ElementTable.

    ``class_of[i]`` is the class label of element id i; labels are
    assigned by ascending smallest member id, so the identity's class
    is 0 and ``reps[c]`` (the smallest id in class c) is increasing:
    the reps are the ids where the running maximum of ``class_of`` rises.
    """

    def __init__(self, table: ElementTable, class_of: np.ndarray, num_classes: int):
        self.table = table
        self.class_of = np.asarray(class_of, dtype=np.int32)
        self.num_classes = int(num_classes)
        self.sizes = np.bincount(self.class_of, minlength=self.num_classes)
        rises = np.diff(np.maximum.accumulate(self.class_of), prepend=np.int32(-1)) > 0
        self.reps = np.flatnonzero(rises)


def orbit_labels(perms, size: int) -> np.ndarray:
    """The smallest member of each point's orbit under permutations of
    [0, size).

    Every label stays a member of its point's orbit and no larger than
    its point: a round takes ``min(lab, lab[perm])`` over the perms, then
    jumps ``lab = lab[lab]`` until that is stable.  Labels only fall, so
    the rounds stop.  When a round changes nothing, ``lab[i] <=
    lab[perm[i]]`` for every i and perm, and along a cycle of a perm,
    which returns to its start, the labels can only be equal.  So each
    orbit has one label, and as a member of the orbit it is its
    smallest member.
    """
    lab = np.arange(size, dtype=np.int32)  # ids fit, as in Partition.class_of
    while True:
        new = lab.copy()
        for perm in perms:
            np.minimum(new, new[perm], out=new)
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def _conjugation_perms(table: ElementTable, conj: list[Mat]) -> np.ndarray:
    """One int32 permutation of the ids per s in conj, X -> s*X*s^-1,
    filled one row block at a time, each block blocked once for all s."""
    br = table.batch
    n = table.group.n
    N = len(table)
    maps = [br.product_map(n, s, s.inverse()) for s in conj]
    perms = np.empty((len(conj), N), dtype=np.int32)  # ids fit, as in orbit_labels
    for start in range(0, N, _BFS_CHUNK):
        block = br.block(table.coords[start:start + _BFS_CHUNK])
        for lin, perm in zip(maps, perms):
            conj = br.apply_map(lin, block).reshape(-1, n, n, br.w)
            perm[start:start + _BFS_CHUNK] = table.ids_from_keys(br.encode(conj))
    return perms


def conjugacy_classes(table: ElementTable) -> Partition:
    """Classes = orbits of conjugation by ``conjugating_set``.

    ``orbit_labels`` gives each element the smallest id in its class;
    those roots, the ids that label themselves, number the classes in
    ascending order.
    """
    group = table.group
    conj = conjugating_set(group)
    log.debug("%s: conjugating by %d matrices, the generator list has %d",
              group.label, len(conj), len(generators(group)))
    N = len(table)
    lab = orbit_labels(_conjugation_perms(table, conj), N)
    number = np.cumsum(lab == np.arange(N, dtype=np.int32), dtype=np.int32) - 1
    return Partition(table, number[lab], number[-1] + 1)


def build_power_map(table: ElementTable, e: int) -> np.ndarray:
    """ids of x^e for every element id x, one row block at a time."""
    br = table.batch
    ids = np.empty(len(table), dtype=table.sort_perm.dtype)
    for start in range(0, len(table), _BFS_CHUNK):
        block = table.coords[start:start + _BFS_CHUNK]
        ids[start:start + len(block)] = table.ids_from_keys(br.encode(br.matpow(block, e)))
    return ids


def class_power_map(part: Partition, e: int) -> np.ndarray:
    """Class label of (class)^e, verified well-defined on every element."""
    img = part.class_of[build_power_map(part.table, e)]
    cls_img = img[part.reps]  # reps[c] is a member of class c
    if not np.array_equal(img, cls_img[part.class_of]):
        raise ArithmeticError("power map is not constant on a conjugacy class")
    return cls_img


@dataclass(frozen=True)
class KuelshammerProfile:
    """dims[n] = dim T_n(F_p G)^perp = #classes of p^n-th powers."""

    p: int
    dims: tuple[int, ...]
    stab_index: int
    reynolds_dim: int
    p_regular_classes: int

    @property
    def p_exponent(self) -> int:
        return self.p ** self.stab_index

    def payload(self):
        return {
            "p": self.p,
            "dims": list(self.dims),
            "stab_index": self.stab_index,
            "p_exponent": self.p_exponent,
            "reynolds_dim": self.reynolds_dim,
            "p_regular_classes": self.p_regular_classes,
        }


def _p_regular_class_count(part: Partition, p: int) -> int:
    """Classes whose elements have order prime to p (batch check on reps)."""
    group = part.table.group
    factors = exponent_multiple(group)
    mprime = 1
    for ell, e in factors.items():
        if ell != p:
            mprime *= ell ** e
    br = part.table.batch
    return int(br.is_identity(br.matpow(part.table.coords[part.reps], mprime)).sum())


def kuelshammer_profile(part: Partition, p: int) -> KuelshammerProfile:
    """Iterate the class p-power map from the full class set to stability.

    The image chain is nested, so the sizes strictly decrease until the
    first repeat; dims lists the sizes up to and including the stable
    one.  The terminal size must equal the number of p-regular classes
    (checked against an independent order computation on class reps).
    """
    if not ringmod._is_prime(p):
        raise ValueError(f"p = {p} is not prime")
    pmap = class_power_map(part, p)
    current = np.arange(part.num_classes)
    dims = [part.num_classes]
    while True:
        nxt = np.unique(pmap[current])
        if len(nxt) == len(current):
            break
        dims.append(len(nxt))
        current = nxt
    stab = len(dims) - 1
    regular = _p_regular_class_count(part, p)
    if regular != dims[-1]:
        raise ArithmeticError(
            f"terminal dimension {dims[-1]} != p-regular class count {regular}")
    return KuelshammerProfile(p, tuple(dims), stab, dims[-1], regular)


# ---------------------------------------------------------------------------
# comparison

def proven_regime(family: str, n: int, p: int, r: int) -> bool:
    """Parameter range where the profiles are proven to differ."""
    if n < 2 or r < 2 or p < n:
        return False
    if r == 2:
        return p >= 2 * n
    if r == 3:
        return p >= 3
    return True


@dataclass(frozen=True)
class ComparisonReport:
    group_a: str
    group_b: str
    p: int
    order: int
    classes_a: int
    classes_b: int
    profile_a: KuelshammerProfile
    profile_b: KuelshammerProfile
    sylow_exponent_a: int | None
    sylow_exponent_b: int | None
    in_proven_regime: bool
    verdict: str

    def payload(self):
        return {
            "group_a": self.group_a,
            "group_b": self.group_b,
            "p": self.p,
            "order": self.order,
            "classes_a": self.classes_a,
            "classes_b": self.classes_b,
            "profile_a": self.profile_a.payload(),
            "profile_b": self.profile_b.payload(),
            "sylow_exponent_a": self.sylow_exponent_a,
            "sylow_exponent_b": self.sylow_exponent_b,
            "in_proven_regime": self.in_proven_regime,
            "verdict": self.verdict,
        }


def _padded(dims_a, dims_b):
    m = max(len(dims_a), len(dims_b))
    return (tuple(dims_a) + (dims_a[-1],) * (m - len(dims_a)),
            tuple(dims_b) + (dims_b[-1],) * (m - len(dims_b)))


def _invariants(group: GroupDesc, p: int, cache_dir):
    """(profile, class count, exhaustive Sylow exponent or None) of one
    group; its table and partition are freed on return."""
    _, part = partition_for(group, cache_dir=cache_dir)
    prof = kuelshammer_profile(part, p)
    if group.sylow_size() > matmod.SYLOW_CAP:
        return prof, part.num_classes, None
    res = p_exponent(group, strategy="exhaustive")
    if res.value != prof.p_exponent:
        raise ArithmeticError(
            f"Sylow exponent {res.value} != profile p-exponent "
            f"{prof.p_exponent} for {group.label}")
    return prof, part.num_classes, res.value


def compare_groups(group_a: GroupDesc, group_b: GroupDesc,
                   cache_dir=None) -> ComparisonReport:
    """Full invariant comparison of two groups sharing p (and usually order).

    Computes both Kuelshammer profiles at the residue characteristic and
    cross-checks each p-exponent against an exhaustive Sylow-subgroup
    exponent when that subgroup has at most ``matrix.SYLOW_CAP``
    elements (else the report's exponent is None).
    """
    if group_a.ring.p != group_b.ring.p:
        raise ValueError("comparison needs a common residue characteristic")
    p = group_a.ring.p
    prof_a, classes_a, sylow_a = _invariants(group_a, p, cache_dir)
    prof_b, classes_b, sylow_b = _invariants(group_b, p, cache_dir)
    pa, pb = _padded(prof_a.dims, prof_b.dims)
    distinguished = pa != pb or prof_a.p_exponent != prof_b.p_exponent
    verdict = "DISTINGUISHED" if distinguished else "NOT DISTINGUISHED"
    return ComparisonReport(
        group_a=group_a.label, group_b=group_b.label, p=p,
        order=group_a.order(), classes_a=classes_a, classes_b=classes_b,
        profile_a=prof_a, profile_b=prof_b,
        sylow_exponent_a=sylow_a, sylow_exponent_b=sylow_b,
        in_proven_regime=proven_regime(group_a.family, group_a.n, p,
                                        group_a.ring.r),
        verdict=verdict)


# ---------------------------------------------------------------------------
# cache

CACHE_MAGIC = b"KKG1"
CACHE_VERSION = 1

_HEADER = struct.Struct("<4sII2sI4sIIIQIII")


def cache_slug(group: GroupDesc) -> str:
    R = group.ring
    return f"{group.family.lower()}{group.n}_{R.kind}_p{R.p}_f{R.f}_r{R.r}"


def save_cache(path, part: Partition) -> None:
    table = part.table
    group = table.group
    R = group.ring
    coords = np.ascontiguousarray(table.coords, dtype=table.coords.dtype.newbyteorder("<"))
    header = _HEADER.pack(
        CACHE_MAGIC, CACHE_VERSION, ringmod.ENCODING_VERSION,
        group.family.encode(), group.n, R.kind.encode(), R.p, R.f, R.r,
        len(table), R.w, coords.dtype.itemsize, part.num_classes)
    pieces = (header, coords, part.class_of.astype("<u4"))
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write a file of its own beside the cache, then rename it over the
    # cache: a write that stops part-way leaves the previous file whole
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            # header, coordinates and labels in turn, the checksum of all
            # three after them
            crc = 0
            for piece in pieces:
                data = memoryview(piece).cast("B")
                fh.write(data)
                crc = zlib.crc32(data, crc)
            fh.write(struct.pack("<I", crc))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path, group: GroupDesc):
    """(table, partition) from a cache file, or None if unusable."""
    path = Path(path)
    try:
        raw = memoryview(path.read_bytes())  # slices of it copy nothing
    except OSError:
        return None
    if len(raw) < _HEADER.size + 4:
        log.warning("cache %s: truncated, ignoring", path)
        return None
    body, trailer = raw[:-4], raw[-4:]
    if struct.unpack("<I", trailer)[0] != zlib.crc32(body):
        log.warning("cache %s: checksum mismatch, ignoring", path)
        return None
    (magic, version, encver, family, n, kind, p, f, r,
     size, w, coord_bytes, ncls) = _HEADER.unpack(body[:_HEADER.size])
    R = group.ring
    coord_dtype = np.dtype(BatchRing.get(R).coord_dtype)
    expected = (CACHE_MAGIC, CACHE_VERSION, ringmod.ENCODING_VERSION,
                group.family.encode(), group.n, R.kind.encode().ljust(4, b"\0"),
                R.p, R.f, R.r, group.order(), R.w, coord_dtype.itemsize)
    got = (magic, version, encver, family, n, kind.ljust(4, b"\0"),
           p, f, r, size, w, coord_bytes)
    if got != expected:
        log.warning("cache %s: parameter mismatch, ignoring", path)
        return None
    coords_len = size * group.n * group.n * w * coord_bytes
    payload = body[_HEADER.size:]
    if len(payload) != coords_len + 4 * size:
        log.warning("cache %s: wrong payload size, ignoring", path)
        return None
    coords = np.frombuffer(payload[:coords_len], dtype=f"<u{coord_bytes}")
    if coords.max() >= R.coord_mod:
        log.warning("cache %s: coordinates out of range, ignoring", path)
        return None
    coords = coords.reshape(size, group.n, group.n, w).astype(coord_dtype)
    labels = np.frombuffer(payload[coords_len:], dtype="<u4")
    # checked before the int32 cast, which would make 2^31 and up negative
    if ncls > size or labels.max() >= ncls:
        log.warning("cache %s: class labels out of range, ignoring", path)
        return None
    class_of = labels.astype(np.int32)
    try:
        table = ElementTable(group, coords)
    except ClosureMismatchError:
        log.warning("cache %s: duplicate elements, ignoring", path)
        return None
    part = Partition(table, class_of, ncls)
    # the labels at the reps rise and lie in [0, ncls): ncls of them are
    # 0, 1, ..., in first-occurrence order, and every class is nonempty
    if len(part.reps) != ncls:
        log.warning("cache %s: class labels not in first-occurrence order, "
                    "ignoring", path)
        return None
    return table, part


def partition_for(group: GroupDesc, cache_dir=None):
    """Enumerate + classify, with optional transparent file caching;
    ``enumerate_group`` raises above ``CLASS_CAP`` elements."""
    path = None
    if cache_dir is not None:
        path = Path(cache_dir) / f"{cache_slug(group)}.kkg"
        cached = load_cache(path, group)
        if cached is not None:
            return cached
    table = enumerate_group(group)
    part = conjugacy_classes(table)
    if path is not None:
        try:
            save_cache(path, part)
        except OSError as exc:
            log.warning("cache %s: cannot write (%s), not cached", path, exc)
    return table, part
