import hashlib
import logging
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from truncgrp import (CapExceededError, ClosureMismatchError, GroupDesc, Mat,
                      MembershipError, build_power_map, class_power_map,
                      compare_groups, conjugacy_classes, element_order,
                      enumerate_group, generators, kuelshammer_profile,
                      load_cache, partition_for, ring_make,
                      save_cache, proven_regime)
from truncgrp import groups
from truncgrp.groups import ElementTable, KeyIndex, cache_slug, orbit_labels
from truncgrp.matrix import mat_coords


def _group(fam, n, kind, p, f, r):
    return GroupDesc(fam, n, ring_make(kind, p, f, r))


def _pipeline(fam, n, kind, p, f, r):
    grp = _group(fam, n, kind, p, f, r)
    table = enumerate_group(grp)
    return grp, table, conjugacy_classes(table)


# ---------------------------------------------------------------------------
# enumeration

def test_enumerated_sizes_match_order_formula():
    cases = [
        ("SL", 2, "witt", 2, 1, 1, 6),       # SL_2(F_2) ~ S_3
        ("SL", 2, "witt", 2, 1, 2, 48),      # SL_2(Z/4)
        ("SL", 2, "poly", 2, 1, 2, 48),      # SL_2(F_2[t]/t^2)
        ("GL", 2, "witt", 3, 1, 1, 48),      # GL_2(F_3)
        ("GL", 2, "witt", 2, 2, 1, 180),     # GL_2(F_4)
        ("GL", 1, "witt", 3, 1, 2, 6),       # (Z/9)^x
        ("GL", 1, "witt", 2, 1, 3, 4),       # (Z/8)^x
        ("SL", 1, "poly", 3, 1, 2, 1),       # trivial
        ("SL", 1, "poly", 2, 1, 40, 1),      # trivial, 2^40 possible keys
        ("GL", 2, "poly", 3, 1, 2, 3888),
    ]
    for fam, n, kind, p, f, r, size in cases:
        grp = _group(fam, n, kind, p, f, r)
        assert grp.order() == size
        table = enumerate_group(grp)
        assert len(table) == size
        assert table.mat(0).is_identity()


def test_enumeration_ids_are_deterministic():
    grp = _group("GL", 2, "poly", 2, 1, 2)
    t1 = enumerate_group(grp)
    t2 = enumerate_group(grp)
    assert np.array_equal(t1.coords, t2.coords)
    p1 = conjugacy_classes(t1)
    p2 = conjugacy_classes(t2)
    assert np.array_equal(p1.class_of, p2.class_of)


def test_enumeration_cap(monkeypatch):
    grp = _group("GL", 2, "witt", 3, 1, 3)  # 314928 elements
    monkeypatch.setattr(groups, "CLASS_CAP", 1000)
    with pytest.raises(CapExceededError):
        enumerate_group(grp)


def _outsider(R):
    """diag(1, 1 + pi): in GL_2, not in SL_2."""
    return Mat(R, [[R.one, R.zero], [R.zero, R.add(R.one, R.pi)]])


def test_table_lookup_roundtrip():
    for kind in ("witt", "poly"):
        grp, table, _ = _pipeline("SL", 2, kind, 2, 1, 2)
        for i in range(len(table)):
            assert table.id_of(table.mat(i)) == i
        with pytest.raises(MembershipError):
            table.id_of(_outsider(grp.ring))


def test_table_rejects_keys_outside_it():
    grp, table, _ = _pipeline("SL", 2, "poly", 2, 1, 2)
    br = table.batch
    inside = br.encode(table.coords[[3, 0]])
    assert list(table.ids_from_keys(inside)) == [3, 0]
    outsider = br.encode(mat_coords(_outsider(grp.ring))[None])
    largest = br.M ** (2 * 2 * br.w) - 1  # every coordinate M - 1
    for key in (outsider[0], largest):
        with pytest.raises(ClosureMismatchError):
            table.ids_from_keys(np.append(inside, key))


def test_table_rejects_duplicate_elements():
    grp, table, _ = _pipeline("SL", 2, "witt", 2, 1, 2)
    with pytest.raises(ClosureMismatchError, match="duplicate"):
        ElementTable(grp, np.concatenate([table.coords, table.coords[5:6]]))


# ---------------------------------------------------------------------------
# key index

def _check_key_index(size, keys, queries):
    """contains and rank against np.isin and np.searchsorted over the
    sorted keys, after each of two adds (the second repeats a key)."""
    keys = np.array(keys, dtype=np.int64)
    queries = np.array(list(queries) + list(keys), dtype=np.int64)
    idx = KeyIndex(size)
    for added, part in ((keys[::2], keys[::2]),
                        (keys, np.append(keys[1::2], keys[:1]))):
        idx.add(part)
        added = np.sort(added)
        assert len(idx) == len(added)
        assert np.array_equal(idx.contains(queries), np.isin(queries, added))
        pos, present = idx.rank(queries)
        assert np.array_equal(present, np.isin(queries, added))
        assert np.array_equal(pos, np.searchsorted(added, queries))


@pytest.mark.parametrize("size, keys", [
    (192, [0, 63, 64, 191]),        # word boundaries, K a multiple of 64
    (130, [0, 63, 64, 129]),        # K not a multiple of 64
    (130, []),                      # empty set
    (1, []),
    (1, [0]),
    (64, [63]),
    # the headline pair's key range, sparsely filled
    (531_441, np.random.default_rng(0).choice(531_441, 5000, replace=False)),
])
def test_key_index_edges(size, keys):
    _check_key_index(size, keys, range(size + 70))


@settings(max_examples=150, deadline=None)
@given(data=st.data(), size=st.integers(1, 1000))
def test_key_index_agrees_with_sorted_search(data, size):
    keys = data.draw(st.lists(st.integers(0, size - 1), unique=True))
    queries = data.draw(st.lists(st.integers(0, size + 100)))
    _check_key_index(size, keys, queries)


def test_key_index_add_rejects_keys_outside_its_range():
    idx = KeyIndex(100)
    for bad in ([100], [-1], [5, 1 << 40]):
        with pytest.raises(ValueError):
            idx.add(np.array(bad))
    assert len(idx) == 0


def test_generator_counts_follow_layout():
    for fam, n, kind, p, f, r in [("SL", 2, "witt", 2, 1, 2),
                                  ("GL", 2, "poly", 3, 1, 3),
                                  ("GL", 1, "witt", 5, 1, 2),
                                  ("SL", 2, "witt", 2, 2, 1),
                                  ("SL", 1, "poly", 2, 1, 2)]:
        grp = _group(fam, n, kind, p, f, r)
        R = grp.ring
        expected = (n * (n - 1) * R.w if n >= 2 else 0)
        if R.q > 2 and (fam == "GL" or n >= 2):
            expected += 1
        if fam == "GL":
            expected += (r - 1) * f
        gens = generators(grp)
        assert len(gens) == expected, grp.label
        for g in gens:
            assert grp.contains(g)


# ---------------------------------------------------------------------------
# conjugacy classes vs a brute-force oracle

def _brute_partition(table):
    n = len(table)
    mats = [table.mat(i) for i in range(n)]
    index = {m: i for i, m in enumerate(mats)}
    seen = [False] * n
    classes = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = {index[s * mats[i] * s.inverse()] for s in mats}
        for j in orbit:
            seen[j] = True
        classes.append(frozenset(orbit))
    return set(classes)


def test_classes_match_all_element_conjugation():
    for fam, n, kind, p, f, r in [("SL", 2, "witt", 2, 1, 1),
                                  ("SL", 2, "witt", 2, 1, 2),
                                  ("SL", 2, "poly", 2, 1, 2),
                                  ("GL", 2, "witt", 3, 1, 1),
                                  ("GL", 1, "witt", 3, 1, 2)]:
        grp, table, part = _pipeline(fam, n, kind, p, f, r)
        got = {frozenset(part.elements_of(c).tolist())
               for c in range(part.num_classes)}
        assert got == _brute_partition(table), grp.label


def _draw_perm(data, size):
    """The identity, a permutation of a random subset (the rest fixed),
    or a permutation of all of [0, size)."""
    perm = np.arange(size)
    shape = data.draw(st.sampled_from(["identity", "subset", "full"]))
    if shape != "identity":
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        moved = perm if shape == "full" else np.flatnonzero(
            rng.random(size) < data.draw(st.floats(0, 1)))
        perm[moved] = rng.permutation(moved)
    return perm


@settings(max_examples=150, deadline=None)
@given(data=st.data(), size=st.integers(1, 2000))
def test_orbit_labels_match_scipy_weak_components(data, size):
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    perms = [_draw_perm(data, size) for _ in range(data.draw(st.integers(1, 4)))]
    rows = np.tile(np.arange(size), len(perms))
    graph = coo_matrix((np.ones(len(rows), dtype=np.int8),
                        (rows, np.concatenate(perms))), shape=(size, size))
    ncls, labels = connected_components(graph, directed=True, connection="weak")
    _, first = np.unique(labels, return_index=True)
    rank = np.empty(ncls, dtype=np.int64)
    rank[np.argsort(first, kind="stable")] = np.arange(ncls)

    lab = orbit_labels(perms, size)
    assert np.array_equal(lab, first[labels])  # the smallest member
    roots, class_of = np.unique(lab, return_inverse=True)
    assert len(roots) == ncls
    assert np.array_equal(class_of, rank[labels])


@pytest.mark.parametrize("fam, n, kind, p, r", [
    ("GL", 1, "witt", 3, 2),    # abelian: every class a singleton
    ("SL", 1, "witt", 2, 40),   # the trivial group: no generators
])
def test_classes_of_abelian_and_trivial_groups(fam, n, kind, p, r):
    grp, table, part = _pipeline(fam, n, kind, p, 1, r)
    N = len(table)
    assert N == grp.order()
    assert part.num_classes == N
    assert np.array_equal(part.class_of, np.arange(N))
    assert np.array_equal(part.reps, np.arange(N))
    assert part.class_of[0] == 0
    assert (np.diff(part.reps) > 0).all()


def test_class_counts_frozen():
    cases = [
        ("SL", 2, "witt", 2, 1, 1, 3),
        ("SL", 2, "witt", 2, 1, 2, 10),
        ("SL", 2, "poly", 2, 1, 2, 10),
        ("GL", 2, "witt", 3, 1, 1, 8),
        ("GL", 2, "witt", 2, 2, 1, 15),
        ("SL", 2, "witt", 2, 1, 3, 30),
        ("SL", 2, "poly", 2, 1, 3, 24),
    ]
    for fam, n, kind, p, f, r, ncls in cases:
        _, _, part = _pipeline(fam, n, kind, p, f, r)
        assert part.num_classes == ncls
        assert part.sizes.sum() == len(part.table)
        # labels sorted by smallest member id, identity first
        assert part.class_of[0] == 0
        assert np.all(np.diff(part.reps) > 0)


def test_power_map_matches_scalar_powers():
    grp, table, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    for e in (0, 1, 2, 3, 4, 7):
        pmap = build_power_map(table, e)
        for i in (0, 1, 13, 29, 47):
            assert table.mat(i) ** e == table.mat(int(pmap[i]))
    cmap = class_power_map(part, 2)
    for i in range(len(table)):
        sq = table.id_of(table.mat(i) * table.mat(i))
        assert cmap[part.class_of[i]] == part.class_of[sq]


def test_class_power_map_rejects_a_map_that_splits_a_class(monkeypatch):
    _, table, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    c = int(np.flatnonzero(part.sizes > 1)[0])  # class 0 is the identity alone
    split = np.arange(len(table))
    monkeypatch.setattr(groups, "build_power_map", lambda table, e: split)
    assert np.array_equal(class_power_map(part, 1), np.arange(part.num_classes))
    split[part.elements_of(c)[-1]] = 0  # one member of c, not its rep, to class 0
    with pytest.raises(ArithmeticError, match="not constant on a conjugacy class"):
        class_power_map(part, 1)


# ---------------------------------------------------------------------------
# power-image dimension sequences

def test_profiles_frozen_small_groups():
    cases = [
        ("GL", 1, "witt", 5, 1, 1, 2, (4, 2, 1)),   # C_4 at p = 2
        ("SL", 2, "witt", 2, 1, 1, 3, (3, 2)),      # S_3 at p = 3
        ("SL", 2, "witt", 2, 1, 1, 2, (3, 2)),      # S_3 at p = 2
        ("SL", 2, "witt", 2, 1, 2, 2, (10, 4, 2)),
        ("SL", 2, "poly", 2, 1, 2, 2, (10, 3, 2)),
        ("GL", 2, "witt", 3, 1, 1, 3, (8, 6)),
    ]
    for fam, n, kind, p, f, r, prof_p, dims in cases:
        _, _, part = _pipeline(fam, n, kind, p, f, r)
        prof = kuelshammer_profile(part, prof_p)
        assert prof.dims == dims
        assert prof.stab_index == len(dims) - 1
        assert prof.p_exponent == prof_p ** (len(dims) - 1)
        # strictly decreasing until stable
        assert all(a > b for a, b in zip(dims, dims[1:]))


def test_reynolds_dim_counts_p_regular_classes():
    grp, table, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    prof = kuelshammer_profile(part, 2)
    by_order = 0
    for rep in part.reps:
        if element_order(table.mat(int(rep)), grp) % 2 != 0:
            by_order += 1
    assert prof.reynolds_dim == by_order == prof.p_regular_classes == 2


def test_profile_rejects_composite_p():
    _, _, part = _pipeline("SL", 2, "witt", 2, 1, 1)
    with pytest.raises(ValueError):
        kuelshammer_profile(part, 4)


def test_profile_exponent_equals_group_exponent_p_part():
    # stab index must reproduce the exact p-part of the group exponent
    for fam, n, kind, p, f, r in [("SL", 2, "witt", 2, 1, 2),
                                  ("SL", 2, "poly", 2, 1, 2),
                                  ("GL", 2, "witt", 3, 1, 1)]:
        grp, table, part = _pipeline(fam, n, kind, p, f, r)
        prof = kuelshammer_profile(part, p)
        best = 1
        for i in range(len(table)):
            o = element_order(table.mat(i), grp)
            pe = 1
            while o % p == 0:
                o //= p
                pe *= p
            best = max(best, pe)
        assert prof.p_exponent == best


# ---------------------------------------------------------------------------
# comparisons

def test_compare_unit_groups_length_two_ties():
    # the unit groups of Z/p^2 and F_p[t]/t^2 are both cyclic of order
    # p(p-1): every invariant agrees, so no separation at r = 2, n = 1
    for p, dims in [(3, (6, 2)), (5, (20, 4))]:
        a = _group("GL", 1, "witt", p, 1, 2)
        b = _group("GL", 1, "poly", p, 1, 2)
        rep = compare_groups(a, b)
        assert rep.verdict == "NOT DISTINGUISHED"
        assert not rep.in_proven_regime
        assert rep.profile_a.dims == rep.profile_b.dims == dims
        assert rep.sylow_exponent_a == rep.sylow_exponent_b == p


def test_compare_unit_groups_length_three_separates():
    a = _group("GL", 1, "witt", 3, 1, 3)
    b = _group("GL", 1, "poly", 3, 1, 3)
    rep = compare_groups(a, b)
    assert rep.verdict == "DISTINGUISHED"
    assert rep.profile_a.dims == (18, 6, 2)
    assert rep.profile_b.dims == (18, 2)
    assert rep.profile_a.p_exponent == 9
    assert rep.profile_b.p_exponent == 3
    assert not rep.in_proven_regime  # n = 1 is outside the matrix statement


def test_compare_sl2_p2_r2_separates_by_dims_not_exponent():
    a = _group("SL", 2, "witt", 2, 1, 2)
    b = _group("SL", 2, "poly", 2, 1, 2)
    rep = compare_groups(a, b)
    assert rep.verdict == "DISTINGUISHED"
    assert rep.profile_a.p_exponent == rep.profile_b.p_exponent == 4
    assert rep.profile_a.dims == (10, 4, 2)
    assert rep.profile_b.dims == (10, 3, 2)
    assert rep.classes_a == rep.classes_b == 10
    assert rep.order == 48
    assert rep.sylow_exponent_a == 4 and rep.sylow_exponent_b == 4


def test_compare_requires_common_characteristic():
    with pytest.raises(ValueError):
        compare_groups(_group("GL", 1, "witt", 2, 1, 2),
                       _group("GL", 1, "poly", 3, 1, 2))


def test_proven_regime_boundaries():
    assert proven_regime("GL", 2, 5, 2)
    assert not proven_regime("GL", 2, 3, 2)   # r = 2 needs p >= 2n
    assert proven_regime("GL", 2, 3, 3)
    assert not proven_regime("SL", 2, 2, 3)   # r = 3 needs p >= 3
    assert proven_regime("GL", 2, 2, 4)
    assert not proven_regime("GL", 1, 5, 3)   # n >= 2 required
    assert not proven_regime("GL", 3, 5, 2)
    assert proven_regime("GL", 3, 7, 2)
    assert not proven_regime("GL", 2, 5, 1)   # residue groups are equal


# ---------------------------------------------------------------------------
# cache

def test_cache_roundtrip(tmp_path):
    grp, table, part = _pipeline("SL", 2, "poly", 2, 1, 2)
    path = tmp_path / f"{cache_slug(grp)}.kkg"
    save_cache(path, part)
    loaded = load_cache(path, grp)
    assert loaded is not None
    t2, p2 = loaded
    assert np.array_equal(t2.coords, table.coords)
    assert np.array_equal(p2.class_of, part.class_of)
    assert p2.num_classes == part.num_classes


def test_cache_rejects_wrong_group(tmp_path):
    grp_a, _, part = _pipeline("SL", 2, "poly", 2, 1, 2)
    grp_b = _group("SL", 2, "witt", 2, 1, 2)
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    assert load_cache(path, grp_b) is None
    assert load_cache(path, grp_a) is not None


def test_cache_rejects_corruption(tmp_path):
    grp, _, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    raw = bytearray(path.read_bytes())
    raw[len(raw) // 2] ^= 0xFF
    path.write_bytes(bytes(raw))
    assert load_cache(path, grp) is None
    path.write_bytes(path.read_bytes()[:10])
    assert load_cache(path, grp) is None
    assert load_cache(tmp_path / "missing.kkg", grp) is None


def _rewrite_elements(path, edit):
    """Apply edit to the coordinate bytes of a cache file (one row per
    element) and write it back with a valid checksum."""
    body = bytearray(path.read_bytes()[:-4])
    size = groups._HEADER.unpack_from(body)[9]
    start = groups._HEADER.size
    coords_len = (len(body) - start) - 4 * size
    rows = np.frombuffer(body[start:start + coords_len], np.uint8).reshape(size, -1).copy()
    edit(rows)
    body[start:start + coords_len] = rows.tobytes()
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))


def _repeat_first_element(rows):
    rows[1] = rows[0]


def _put_4_in_z_mod_4(rows):
    rows[1, 0] = 4


@pytest.mark.parametrize("edit, reason", [
    (_repeat_first_element, "duplicate elements"),
    (_put_4_in_z_mod_4, "coordinates out of range"),
], ids=["duplicate", "out-of-range"])
def test_cache_rejects_bad_elements_with_valid_checksum(tmp_path, caplog, edit, reason):
    grp, _, part = _pipeline("SL", 2, "witt", 2, 1, 2)  # Z/4: one byte per entry
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    _rewrite_elements(path, lambda rows: None)
    assert load_cache(path, grp) is not None
    _rewrite_elements(path, edit)
    with caplog.at_level(logging.WARNING, logger="truncgrp.groups"):
        assert load_cache(path, grp) is None
    assert reason in caplog.text


@pytest.mark.parametrize("width", [2, 3])
def test_cache_rejects_wrong_coordinate_width(tmp_path, caplog, width):
    grp, _, part = _pipeline("SL", 2, "witt", 2, 1, 2)  # Z/4: one byte per entry
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    body = path.read_bytes()[:-4]
    header = list(groups._HEADER.unpack_from(body))
    size, start = header[9], groups._HEADER.size
    header[11] = width
    # the same coordinates, each widened to width bytes
    coords = np.frombuffer(body[start:len(body) - 4 * size], np.uint8)
    wide = np.zeros((coords.size, width), np.uint8)
    wide[:, 0] = coords
    body = groups._HEADER.pack(*header) + wide.tobytes() + body[len(body) - 4 * size:]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with caplog.at_level(logging.WARNING, logger="truncgrp.groups"):
        assert load_cache(path, grp) is None
    assert "parameter mismatch" in caplog.text


def test_cache_rejects_labels_out_of_first_occurrence_order(tmp_path, caplog):
    grp, _, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    body = bytearray(path.read_bytes()[:-4])
    labels = np.frombuffer(body[-4 * len(part.class_of):], "<u4")
    swap = np.arange(part.num_classes, dtype="<u4")
    swap[[1, 2]] = 2, 1  # the same partition, classes 1 and 2 renamed
    body[-4 * len(labels):] = swap[labels].tobytes()
    path.write_bytes(bytes(body) + struct.pack("<I", zlib.crc32(body)))
    with caplog.at_level(logging.WARNING, logger="truncgrp.groups"):
        assert load_cache(path, grp) is None
    assert "first-occurrence order" in caplog.text


def test_cache_write_failing_part_way_keeps_previous_file(tmp_path, monkeypatch):
    grp, _, part = _pipeline("SL", 2, "witt", 2, 1, 2)
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    before = path.read_bytes()
    real_open = open

    class HalfWriter:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def write(self, data):
            self.fh.write(data[:len(data) // 2])
            raise OSError("no space left on device")

    monkeypatch.setattr(groups, "open", lambda *a: HalfWriter(real_open(*a)), raising=False)
    with pytest.raises(OSError):
        save_cache(path, part)
    assert path.read_bytes() == before
    assert load_cache(path, grp) is not None
    assert [q.name for q in tmp_path.iterdir()] == ["x.kkg"]


_CACHE_DIGESTS = [
    ("GL", 2, "poly", 2, 1, 2, "aa9612968b92309b7ba25f81f5d242c8255cc05116f75aa2fb0ee8c9be06d521"),
    ("SL", 2, "witt", 2, 1, 2, "1cc2f86ea55a95016858bd4918e1b653f8172252afd2356017983025442bdded"),
    # several t-slices and several coordinates per slice (F_4[t]/t^2, F_3[t]/t^3)
    ("GL", 2, "poly", 2, 2, 2, "10aec036796f1cc92c38d5cde7cf154db94b49d0e9d18bc035acc9fbefbfde5b"),
    ("SL", 2, "poly", 3, 1, 3, "c75650b832953df4289542e1e1b688ef81d22f3e94bc332f583debcfde634ea5"),
    # 43,008 elements: the BFS order across more than one _BFS_CHUNK
    ("SL", 3, "poly", 2, 1, 2, "225a6a0b0ca0b159947b5289664082d1e2b099b56c5ef8e36ff6f9e80096679d"),
    ("SL", 3, "witt", 2, 1, 2, "c868e493f2f6803ed158795a6793151de08029ee073175d634688a50c1f8f923"),
]


@pytest.mark.parametrize("fam, n, kind, p, f, r, sha256", _CACHE_DIGESTS,
                         ids=[f"{c[0]}-{c[2]}-{c[-1]}" for c in _CACHE_DIGESTS])
def test_cache_bytes_pinned(tmp_path, fam, n, kind, p, f, r, sha256):
    # digests of files written by earlier code: a plain write_bytes before
    # the rename (first two), the dense-block batch arithmetic (next two),
    # the sorted-key BFS (last two)
    _, _, part = _pipeline(fam, n, kind, p, f, r)
    path = tmp_path / "x.kkg"
    save_cache(path, part)
    save_cache(path, part)  # replaces an existing file
    assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256
    assert [q.name for q in tmp_path.iterdir()] == ["x.kkg"]


def test_partition_for_uses_cache(tmp_path):
    grp = _group("SL", 2, "witt", 2, 1, 2)
    t1, p1 = partition_for(grp, cache_dir=tmp_path)
    path = tmp_path / f"{cache_slug(grp)}.kkg"
    assert path.exists()
    t2, p2 = partition_for(grp, cache_dir=tmp_path)
    assert np.array_equal(t1.coords, t2.coords)
    assert np.array_equal(p1.class_of, p2.class_of)
