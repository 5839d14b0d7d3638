import itertools

import numpy as np
import pytest

from truncgrp import (AlgebraTable, CapExceededError, GroupDesc, Subspace,
                      alg_mul, alg_pow, commutator_space, conjugacy_classes,
                      enumerate_group, kuelshammer_space, nullspace,
                      oracle_profile, perp, ring_make)
from truncgrp import oracle


def _cyclic_table(n):
    i = np.arange(n)
    return (i[:, None] + i[None, :]) % n


def _s3_table():
    # explicit composition table of S_3 on {0,1,2}, identity first
    perms = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    index = {s: k for k, s in enumerate(perms)}
    mult = np.zeros((6, 6), dtype=np.int64)
    for a, sa in enumerate(perms):
        for b, sb in enumerate(perms):
            mult[a, b] = index[tuple(sa[sb[k]] for k in range(3))]
    return mult


def _pipeline(fam, n, kind, p, f, r):
    grp = GroupDesc(fam, n, ring_make(kind, p, f, r))
    table = enumerate_group(grp)
    return table, conjugacy_classes(table)


def test_cyclic_table_basics():
    A = AlgebraTable(2, _cyclic_table(6))
    assert A.dim == 6
    assert A.inv.tolist() == [0, 5, 4, 3, 2, 1]
    assert A.order_of(1) == 6
    assert A.order_of(2) == 3
    assert A.order_of(3) == 2
    assert commutator_space(A).rank == 0


def test_table_check_catches_bad_identity():
    mult = _cyclic_table(6)
    mult[0, 1] = 2
    with pytest.raises(ArithmeticError):
        AlgebraTable(2, mult)


def test_table_check_catches_nonassociativity():
    mult = _cyclic_table(6)
    mult[5, 5] = 3  # should be 4; (4*5)*5 != 4*(5*5) now
    with pytest.raises(ArithmeticError):
        AlgebraTable(2, mult)


def test_alg_mul_by_hand():
    A = AlgebraTable(5, _cyclic_table(4))
    one_plus_g = np.array([1, 1, 0, 0])
    sq = alg_mul(A, one_plus_g, one_plus_g)
    assert sq.tolist() == [1, 2, 1, 0]
    assert alg_pow(A, one_plus_g, 2).tolist() == [1, 2, 1, 0]
    with pytest.raises(ValueError):
        alg_pow(A, one_plus_g, -1)


def test_alg_pow_matches_repeated_mul(rng):
    A = AlgebraTable(3, _s3_table())
    for _ in range(10):
        x = np.array([rng.randrange(3) for _ in range(6)])
        acc = np.zeros(6, dtype=np.int64)
        acc[0] = 1
        for e in range(6):
            assert alg_pow(A, x, e).tolist() == acc.tolist()
            acc = alg_mul(A, acc, x)


def test_frobenius_expansion_in_char_two():
    # in F_2[C_6], squaring permutes the group basis: (sum a_i g^i)^2
    # = sum a_i g^(2i)
    A = AlgebraTable(2, _cyclic_table(6))
    x = np.array([1, 1, 0, 1, 0, 0])
    sq = alg_pow(A, x, 2)
    expect = np.zeros(6, dtype=np.int64)
    for i in np.nonzero(x)[0]:
        expect[(2 * i) % 6] ^= 1
    assert sq.tolist() == expect.tolist()


# ---------------------------------------------------------------------------
# F_p linear algebra helpers

def test_rref_nullspace_properties(rng):
    for p in (2, 3, 5):
        for _ in range(10):
            mat = np.array([[rng.randrange(p) for _ in range(7)]
                            for _ in range(4)])
            ns = nullspace(mat, p)
            assert ((mat @ ns.T) % p == 0).all()
            rank = Subspace.from_rows(p, 7, mat).rank
            assert rank + len(ns) == 7


def test_subspace_insert_and_membership():
    s = Subspace(3, 4)
    assert s.insert([1, 2, 0, 0])
    assert s.insert([0, 0, 1, 1])
    assert not s.insert([2, 4, 1, 1])  # dependent combination
    assert s.rank == 2
    assert s.contains([1, 2, 1, 1])
    assert not s.contains([1, 0, 0, 0])
    t = Subspace.from_rows(3, 4, [[0, 0, 2, 2], [1, 2, 0, 0]])
    assert s.eq(t)  # span is insertion-order independent
    bigger = Subspace.from_rows(3, 4, [[1, 2, 0, 0], [0, 0, 1, 1], [1, 0, 0, 0]])
    assert s.leq(bigger) and not bigger.leq(s)


def test_subspace_reduce_is_linear(rng):
    s = Subspace.from_rows(5, 6, [[1, 0, 2, 0, 0, 1], [0, 1, 1, 1, 0, 0]])
    for _ in range(20):
        u = np.array([rng.randrange(5) for _ in range(6)])
        v = np.array([rng.randrange(5) for _ in range(6)])
        assert (s.reduce(u + v) == (s.reduce(u) + s.reduce(v)) % 5).all()
        assert s.contains(u - s.reduce(u))
        assert (s.reduce(s.reduce(u)) == s.reduce(u)).all()


def test_commutator_space_of_s3():
    for p in (2, 3):
        A = AlgebraTable(p, _s3_table())
        comm = commutator_space(A)
        assert comm.rank == 6 - 3  # dim - number of classes
        # e_gh - e_hg lands in it for every pair
        for g in range(6):
            for h in range(6):
                v = np.zeros(6, dtype=np.int64)
                v[A.mult[g, h]] += 1
                v[A.mult[h, g]] -= 1
                assert comm.contains(v)


def test_t0_equals_commutator_space():
    for mult, p in [(_s3_table(), 3), (_cyclic_table(6), 2)]:
        A = AlgebraTable(p, mult)
        comm = commutator_space(A)
        assert kuelshammer_space(A, 0, comm).eq(comm)


def test_kuelshammer_chain_c6_by_hand():
    # F_2[C_6]: x^2 = 0 forces a_i = a_(i+3), a 3-dim kernel; stable after
    A = AlgebraTable(2, _cyclic_table(6))
    t1 = kuelshammer_space(A, 1)
    assert t1.rank == 3
    t2 = kuelshammer_space(A, 2)
    assert t2.eq(t1)
    assert perp(t1, A).rank == 3
    assert perp(commutator_space(A), A).rank == 6


def test_perp_is_orthogonal_complement():
    for mult, p in [(_s3_table(), 2), (_s3_table(), 3), (_cyclic_table(4), 2)]:
        A = AlgebraTable(p, mult)
        for n in (0, 1):
            s = kuelshammer_space(A, n)
            sp = perp(s, A)
            assert s.rank + sp.rank == A.dim
            for x in s.rows:
                for y in sp.rows:
                    form = sum(int(x[g]) * int(y[A.inv[g]]) for g in range(A.dim))
                    assert form % p == 0


# ---------------------------------------------------------------------------
# the full cross-check

def test_oracle_agrees_with_class_pipeline():
    cases = [
        ("GL", 1, "witt", 5, 1, 1, 2),   # C_4 at p = 2
        ("SL", 2, "witt", 2, 1, 1, 3),   # S_3 at p = 3
        ("SL", 2, "witt", 2, 1, 2, 2),
        ("SL", 2, "poly", 2, 1, 2, 2),
    ]
    for fam, n, kind, p, f, r, prof_p in cases:
        table, part = _pipeline(fam, n, kind, p, f, r)
        A = AlgebraTable.from_element_table(table, prof_p)
        rep = oracle_profile(A, part, prof_p)
        assert rep.ok, rep
        assert rep.first_mismatch is None
        assert rep.dims_linalg == rep.dims_classes
        assert rep.stab_linalg == rep.stab_classes
        assert rep.commutator_rank_ok and rep.t0_is_commutator
        assert rep.chain_ok and rep.dual_rank_ok and rep.terminal_ok


def test_oracle_rejects_mismatched_prime():
    table, part = _pipeline("SL", 2, "witt", 2, 1, 1)
    A = AlgebraTable.from_element_table(table, 2)
    with pytest.raises(ValueError):
        oracle_profile(A, part, 3)


def test_from_element_table_respects_cap(monkeypatch):
    table, _ = _pipeline("SL", 2, "witt", 2, 1, 2)
    monkeypatch.setattr(oracle, "ORACLE_CAP", 10)
    with pytest.raises(CapExceededError):
        AlgebraTable.from_element_table(table, 2)


def test_from_element_table_matches_scalar_products():
    table, _ = _pipeline("SL", 2, "witt", 2, 1, 1)
    A = AlgebraTable.from_element_table(table, 3)
    for i, j in itertools.product(range(6), repeat=2):
        assert table.mat(int(A.mult[i, j])) == table.mat(i) * table.mat(j)
