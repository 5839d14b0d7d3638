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

Both stages multiply only by fixed generators: the BFS maps a frontier
batch X to X*g, the class stage maps the table to s*X*s^-1, each product
one ``BatchRing.product_map`` applied with ``BatchRing.apply_map``.  The
power maps and the p-regular check raise the coordinates of varying
elements to powers with ``BatchRing.matpow``.

Elements are found by their ``BatchRing.encode`` keys, which lie in
[0, K) with K = M^(n n w) = |R|^(n n).  ``KeyIndex`` is a bitmap over
that range with the count of set bits before each 64-bit word: the BFS
asks it which products are new, and ``ElementTable`` turns a key's rank
into an id.  It takes about K/4 bytes, 133 KB for GL_2 over Z/27 and
F_3[t]/t^3.  Under ``CLASS_CAP`` the largest K of a group with
generators is 81^4 (SL_2 over a ring of 81 elements, 11 MB), so one
code path serves every group and no sorted-key search is kept beside it.

The classes are the orbits of the conjugation permutations X -> s*X*s^-1,
one per generator s.  ``orbit_labels`` finds them by label propagation
with pointer jumping (Shiloach and Vishkin, J. Algorithms 3, 1982): each
element starts as its own label, takes the least label among its images,
and labels are then followed to their own labels until nothing changes.
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
from .errors import CapExceededError, ClosureMismatchError, MembershipError
from .matrix import (GroupDesc, Mat, diagonal, exponent_multiple, mat_coords,
                     mat_from_coords, p_exponent, transvection)

log = logging.getLogger(__name__)

CLASS_CAP = 500_000

_BFS_CHUNK = 32768  # fixed: batch boundaries feed the id order


def generators(group: GroupDesc) -> list[Mat]:
    """Deterministic generating set.

    Transvections I + u E_ij over an additive basis generate SL_n
    (elementary = special linear over a local ring); GL_n additionally
    needs diagonal matrices covering the unit group of the base ring:
    a Teichmueller generator for the residue part and 1 + pi^k x^m for
    each level of the congruence filtration.
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

    def __init__(self, group: GroupDesc, coords: np.ndarray):
        self.group = group
        self.ring = group.ring
        self.batch = BatchRing.get(group.ring)
        self.coords = np.ascontiguousarray(coords, dtype=self.batch.coord_dtype)
        keys = self.batch.encode(self.coords)
        # sized by the largest key, not M^(n n w): SL_1 over F_2[t]/t^40
        # has one element but 2^40 possible keys
        self.index = KeyIndex(int(keys.max()) + 1)
        self.index.add(keys)
        if len(self.index) != len(keys):
            raise ClosureMismatchError("duplicate elements in table")
        self.sort_perm = np.empty(len(keys), dtype=np.int64)
        self.sort_perm[self.index.rank(keys)[0]] = np.arange(len(keys))

    def __len__(self):
        return len(self.coords)

    def mat(self, i: int) -> Mat:
        return mat_from_coords(self.ring, self.coords[i])

    def ids_from_keys(self, keys: np.ndarray) -> np.ndarray:
        pos, present = self.index.rank(keys)
        if not present.all():
            raise ClosureMismatchError("product left the enumerated set")
        return self.sort_perm[pos]

    def id_of(self, mat: Mat) -> int:
        if mat.ring != self.ring or mat.n != self.group.n:
            raise MembershipError("matrix shape or base ring mismatch")
        pos, present = self.index.rank(self.batch.encode(mat_coords(mat)[None]))
        if not present[0]:
            raise MembershipError(f"matrix is not in {self.group.label}")
        return int(self.sort_perm[pos[0]])


def enumerate_group(group: GroupDesc) -> ElementTable:
    """Close the generator set under right multiplication (BFS).

    Ids are assigned in discovery order: identity first, then for each
    FIFO batch the products batch*g0, batch*g1, ... with in-batch
    duplicates dropped at first occurrence.  A group of more than
    ``CLASS_CAP`` elements raises ``CapExceededError`` before any work.
    """
    expected = group.order()
    if expected > CLASS_CAP:
        raise CapExceededError(
            f"{group.label} has {expected} elements, cap {CLASS_CAP}")
    R = group.ring
    br = BatchRing.get(R)
    n = group.n
    gens = generators(group)
    ident = mat_coords(group.identity_mat()).astype(br.coord_dtype)
    chunks = [ident[None]]
    total = 1
    if gens:
        # the whole key range: at most 81^4 keys (module docstring)
        seen = KeyIndex(br.M ** (n * n * br.w))
        seen.add(br.encode(ident[None]))
        maps = [br.product_map(n, right=g) for g in gens]
        frontier = deque([ident[None]])
        while frontier:
            rows = frontier.popleft().reshape(-1, n * n * br.w)
            coords = np.concatenate([br.apply_map(lin, rows) for lin in maps])
            coords = coords.reshape(-1, n, n, br.w)
            keys = br.encode(coords)
            unseen = np.flatnonzero(~seen.contains(keys))
            _, first = np.unique(keys[unseen], return_index=True)
            fresh = unseen[np.sort(first)]
            if fresh.size:
                new_coords = coords[fresh].astype(br.coord_dtype)
                total += len(new_coords)
                if total > CLASS_CAP:
                    raise CapExceededError(
                        f"closure of {group.label} exceeded cap {CLASS_CAP}")
                chunks.append(new_coords)
                for s in range(0, len(new_coords), _BFS_CHUNK):
                    frontier.append(new_coords[s:s + _BFS_CHUNK])
                seen.add(keys[fresh])
    all_coords = np.concatenate(chunks)
    if len(all_coords) != expected:
        raise ClosureMismatchError(
            f"closure of {group.label} has {len(all_coords)} elements, "
            f"expected {expected}")
    return ElementTable(group, all_coords)


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
        rises = np.diff(np.maximum.accumulate(self.class_of), prepend=-1) > 0
        self.reps = np.flatnonzero(rises)

    def elements_of(self, c: int) -> np.ndarray:
        return np.nonzero(self.class_of == c)[0]


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
        new = lab
        for perm in perms:
            new = np.minimum(new, new[perm])
        while True:
            jumped = new[new]
            if np.array_equal(jumped, new):
                break
            new = jumped
        if np.array_equal(new, lab):
            return lab
        lab = new


def conjugacy_classes(table: ElementTable) -> Partition:
    """Classes = orbits of conjugation by the generators.

    Conjugation by a generator s permutes the ids; ``orbit_labels``
    gives each element the smallest id in its class, and those roots in
    ascending order number the classes.
    """
    group = table.group
    br = table.batch
    n = group.n
    N = len(table)
    flat = table.coords.reshape(N, n * n * br.w)
    perms = []
    for s in generators(group):
        conj = br.apply_map(br.product_map(n, s, s.inverse()), flat)
        ids = table.ids_from_keys(br.encode(conj.reshape(N, n, n, br.w)))
        perms.append(ids.astype(np.int32))
    roots, class_of = np.unique(orbit_labels(perms, N), return_inverse=True)
    return Partition(table, class_of, len(roots))


def build_power_map(table: ElementTable, e: int) -> np.ndarray:
    """ids of x^e for every element id x."""
    br = table.batch
    return table.ids_from_keys(br.encode(br.matpow(table.coords, e)))


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
    profiles = []
    sylows = []
    classes = []
    for g in (group_a, group_b):
        table, part = partition_for(g, cache_dir=cache_dir)
        prof = kuelshammer_profile(part, p)
        profiles.append(prof)
        classes.append(part.num_classes)
        if g.sylow_size() <= matmod.SYLOW_CAP:
            res = p_exponent(g, strategy="exhaustive")
            if res.value != prof.p_exponent:
                raise ArithmeticError(
                    f"Sylow exponent {res.value} != profile p-exponent "
                    f"{prof.p_exponent} for {g.label}")
            sylows.append(res.value)
        else:
            sylows.append(None)
    pa, pb = _padded(profiles[0].dims, profiles[1].dims)
    distinguished = pa != pb or profiles[0].p_exponent != profiles[1].p_exponent
    verdict = "DISTINGUISHED" if distinguished else "NOT DISTINGUISHED"
    return ComparisonReport(
        group_a=group_a.label, group_b=group_b.label, p=p,
        order=group_a.order(), classes_a=classes[0], classes_b=classes[1],
        profile_a=profiles[0], profile_b=profiles[1],
        sylow_exponent_a=sylows[0], sylow_exponent_b=sylows[1],
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
    coords = np.ascontiguousarray(table.coords)
    body = _HEADER.pack(
        CACHE_MAGIC, CACHE_VERSION, ringmod.ENCODING_VERSION,
        group.family.encode(), group.n, R.kind.encode(), R.p, R.f, R.r,
        len(table), R.w, coords.dtype.itemsize, part.num_classes)
    body += coords.astype(coords.dtype.newbyteorder("<")).tobytes()
    body += part.class_of.astype("<u4").tobytes()
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # write a file of its own beside the cache, then rename it over the
    # cache: a write that stops part-way leaves the previous file whole
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            fh.write(body + struct.pack("<I", zlib.crc32(body)))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load_cache(path, group: GroupDesc):
    """(table, partition) from a cache file, or None if unusable."""
    path = Path(path)
    try:
        raw = path.read_bytes()
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
    class_of = np.frombuffer(payload[coords_len:], dtype="<u4").astype(np.int32)
    if class_of.size and class_of.max() >= ncls:
        log.warning("cache %s: class labels out of range, ignoring", path)
        return None
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
        save_cache(path, part)
    return table, part
