import random

import numpy as np
import pytest

from test_alcove import reference_fold
from test_rootsys import weight_dict
from wzwcat import fusion
from wzwcat.alcove import Alcove, make_alcove
from wzwcat.fusion import FusionTensor, fuse_weights
from wzwcat.rootsys import CapacityError, weight_system


def fuse(a, lam, gamma):
    """fuse_weights on alcove weights, keyed by weight."""
    prod = fuse_weights(a, a.index[tuple(lam)], a.index[tuple(gamma)])
    return {a.weights[l]: c for l, c in prod.items()}


def test_ising_table_complete():
    a = make_alcove("A", 1, 2)
    ft = FusionTensor(a)
    one, sigma, psi = (0,), (1,), (2,)
    assert fuse(a, sigma, sigma) == {one: 1, psi: 1}
    assert fuse(a, sigma, psi) == {sigma: 1}
    assert fuse(a, psi, psi) == {one: 1}
    for w in a.weights:
        assert fuse(a, one, w) == {w: 1}
    assert ft.is_multiplicity_free()


def test_su2_truncation_levels():
    # spin-1/2 times spin-j truncates at the level cutoff
    a = make_alcove("A", 1, 4)
    assert fuse(a, (1,), (3,)) == {(2,): 1, (4,): 1}
    assert fuse(a, (1,), (4,)) == {(3,): 1}
    assert fuse(a, (2,), (2,)) == {(0,): 1, (2,): 1, (4,): 1}
    assert fuse(a, (4,), (4,)) == {(0,): 1}


def test_su3_k3_currents_and_multiplicity():
    a = make_alcove("A", 2, 3)
    # simple current rotates the triality corner
    assert fuse(a, (3, 0), (3, 0)) == {(0, 3): 1}
    assert fuse(a, (3, 0), (0, 3)) == {(0, 0): 1}
    # adjoint squared: the 27 falls on the affine wall, the adjoint survives twice
    prod = fuse(a, (1, 1), (1, 1))
    assert prod == {(0, 0): 1, (1, 1): 2, (3, 0): 1, (0, 3): 1}


def test_b2_level1_ising_structure():
    a = make_alcove("B", 2, 1)
    sigma = (0, 1)
    psi = (1, 0)
    assert fuse(a, sigma, sigma) == {(0, 0): 1, psi: 1}
    assert fuse(a, psi, psi) == {(0, 0): 1}
    assert fuse(a, psi, sigma) == {sigma: 1}


def test_g2_level1_fibonacci():
    a = make_alcove("G", 2, 1)
    tau = (1, 0)
    assert fuse(a, tau, tau) == {(0, 0): 1, tau: 1}


def test_quantum_dimension_homomorphism():
    rng = random.Random(99)
    for series, rank, k in [("A", 2, 3), ("B", 2, 3), ("C", 3, 2), ("G", 2, 2)]:
        a = make_alcove(series, rank, k)
        for _ in range(5):
            x = a.weights[rng.randrange(a.rank)]
            y = a.weights[rng.randrange(a.rank)]
            prod = fuse(a, x, y)
            q = dict(zip(a.weights, a.qdims))
            lhs = q[x] * q[y]
            rhs = sum(c * q[w] for w, c in prod.items())
            assert lhs == pytest.approx(rhs, rel=1e-9)


def test_fusion_commutative_and_unit_dual():
    a = make_alcove("B", 2, 2)
    ft = FusionTensor(a)
    r = a.rank
    for i in range(r):
        for j in range(r):
            assert ft.row(i, j) == ft.row(j, i)
        # N_{i i*}^0 = 1 exactly once
        row = ft.row(i, int(a.duals[i]))
        assert row.get(0) == 1


def test_fusion_associative_numpy():
    for series, rank, k in [("A", 1, 4), ("A", 2, 2), ("B", 2, 2), ("G", 2, 2)]:
        a = make_alcove(series, rank, k)
        ft = FusionTensor(a)
        mats = [ft.matrix(i) for i in range(a.rank)]
        for i in range(a.rank):
            for j in range(a.rank):
                assert np.array_equal(mats[i] @ mats[j], mats[j] @ mats[i])
                # N_i N_j = sum_l N_{ij}^l N_l
                rhs = sum(c * mats[l] for l, c in ft.row(i, j).items())
                assert np.array_equal(mats[i] @ mats[j], rhs)


def test_full_table_size():
    a = make_alcove("A", 1, 3)
    ft = FusionTensor(a)
    table = {(i, j) for i, j, _, _ in ft.triples()}
    assert len(table) == 4 * 5 // 2


def test_negative_coefficient_raises(monkeypatch):
    # folds with every sign flipped leave negative sums, which must raise
    fold = Alcove.fold

    def flipped(self, mu):
        sign, index = fold(self, mu)
        return -sign, index

    monkeypatch.setattr(Alcove, "fold", flipped)
    a = make_alcove("B", 2, 2)
    with pytest.raises(AssertionError, match="negative fusion coefficients"):
        fuse(a, (1, 0), (0, 1))


@pytest.mark.parametrize("chunk", [4096, fusion.FOLD_CHUNK, 7])
def test_block_rows_match_scalar_folds(chunk, monkeypatch):
    # every product read from the cached blocks equals the Kac-Walton sum
    # over the weight system of either factor, folded one point at a time
    # by the scalar reference fold, at the default chunk, at a smaller one of
    # 4096 points, and at 7: a chunk of 7 points splits blocks into
    # one partner per group, and the points of a partner new to the
    # alcove's fold memo into folds of at most 7.  D4 k2 has two
    # non-identity currents that compose (Z2 x Z2), A4 k2 a Z5
    monkeypatch.setattr(fusion, "FOLD_CHUNK", chunk)
    for series, rank, k in [("B", 2, 3), ("G", 2, 3), ("A", 3, 2),
                            ("D", 4, 2), ("A", 4, 2)]:
        a = make_alcove(series, rank, k)
        for x in a.weights:
            for y in a.weights:
                direct = {}
                ws = weight_dict(weight_system(a.rs, x))
                for nu, mult in ws.items():
                    sign, w = reference_fold(
                        a, tuple(g + v for g, v in zip(y, nu)))
                    if sign:
                        direct[w] = direct.get(w, 0) + sign * mult
                direct = {w: c for w, c in direct.items() if c}
                assert fuse(a, x, y) == direct


# orbits by Burnside's lemma: (weights + fixed points of each non-unit
# current) / |Z|, the currents permuting the affine labels (a_0, ..., a_r)
@pytest.mark.parametrize("series, rank, k, orbits", [
    # Z4 rotates (a0, a1, a2, a3), sum 4: J and J^3 fix (1,1,1,1), J^2
    # fixes a0 = a2, a1 = a3 (3 points): (35 + 1 + 3 + 1) / 4
    ("A", 3, 4, 10),
    # each of the three double transpositions of the outer labels, with
    # a0 + a1 + a3 + a4 + 2 a2 = 2, fixes 3 points: (11 + 3 * 3) / 4
    ("D", 4, 2, 5),
    # J swaps a0 and a1, with a0 + a1 + a2 = 3: fixes (0,0,3), (1,1,1)
    ("B", 2, 3, 6),
])
def test_full_table_runs_one_recursion_per_alcove(series, rank, k, orbits,
                                                   monkeypatch):
    # only products of orbit representatives are folded, and one
    # Freudenthal recursion gives the multiplicities of every
    # representative, one row each, with no weight system built
    calls = []
    recursion = fusion.freudenthal

    def counted(rs, doms, tops, points, owner):
        calls.append([tuple(doms[t].tolist()) for t in tops])
        return recursion(rs, doms, tops, points, owner)

    def refused(rs, lam):
        raise AssertionError("a weight system built on the fold route")

    monkeypatch.setattr(fusion, "freudenthal", counted)
    monkeypatch.setattr(fusion, "weight_system", refused)
    a = make_alcove(series, rank, k)
    list(FusionTensor(a).triples())
    (tops,) = calls
    assert len(tops) == len(set(tops)) == orbits
    assert {a.index[w] for w in tops} == set(a._orbits[1])


class _NoLookups(dict):
    """An Alcove.index that fails on any lookup by weight."""

    def __getitem__(self, key):
        raise AssertionError(f"weight lookup {key!r} on the fold route")

    get = __contains__ = __getitem__


@pytest.mark.parametrize("series, rank, k", [("B", 2, 3), ("D", 4, 2),
                                             ("A", 3, 4)])
def test_rows_are_read_without_weight_lookups(series, rank, k, monkeypatch):
    # rows, matrices and triples stay in alcove indices end to end: with
    # every weight lookup refused they still give the table of an alcove
    # left alone
    a = make_alcove(series, rank, k)
    monkeypatch.setattr(a, "index", _NoLookups())
    ft, plain = FusionTensor(a), FusionTensor(make_alcove(series, rank, k))
    assert list(ft.triples()) == list(plain.triples())
    for i in range(a.rank):
        assert np.array_equal(ft.matrix(i), plain.matrix(i))


@pytest.mark.parametrize("series, rank, k", [("A", 3, 4), ("D", 4, 2),
                                             ("G", 2, 5), ("B", 3, 3)])
def test_each_distinct_point_is_folded_once_per_alcove(series, rank, k,
                                                        monkeypatch):
    # a full table folds lambda_b + nu for every pair e <= b of current-orbit
    # representatives in (Weyl dimension, index) order and every nu in e's
    # weight system; each distinct point reaches Alcove.fold exactly once
    passed = []
    fold = Alcove.fold

    def recorded(self, mu):
        passed.extend(map(tuple, np.asarray(mu).tolist()))
        return fold(self, mu)

    monkeypatch.setattr(Alcove, "fold", recorded)
    a = make_alcove(series, rank, k)
    list(FusionTensor(a).triples())
    order = {x: (a.weyl_dims[x], x) for x in range(a.rank)}
    reps = sorted({min(a.current_actions[:, x].tolist(), key=order.get)
                   for x in range(a.rank)}, key=order.get)
    points = set()
    for p, e in enumerate(reps):
        for nu in weight_dict(weight_system(a.rs, a.weights[e])):
            points.update(tuple(g + v for g, v in zip(a.weights[b], nu))
                          for b in reps[p:])
    assert len(passed) == len(set(passed))
    assert set(passed) == points


def test_lone_product_of_a_refused_table_raises_before_any_walk(
        monkeypatch):
    # C40 level 1: the full table expands omega_20, of dimension over the
    # cap, so even the product of the vector with itself is refused, with
    # no orbit walk, no recursion and no fold
    def refused(*args):
        raise AssertionError("work done before the refusal")

    for name in ("orbit_walk", "freudenthal"):
        monkeypatch.setattr(fusion, name, refused)
    monkeypatch.setattr(Alcove, "fold", refused)
    a = make_alcove("C", 40, 1)
    x = (1,) + (0,) * 39
    with pytest.raises(CapacityError, match=r"^dim C40 \(0, .*\) exceeds "
                       r"10000000$"):
        fuse(a, x, x)
    with pytest.raises(CapacityError):
        FusionTensor(a).check_full_table()
    assert a._table is None and a._folds is None


def test_rows_past_int64_codes_match_the_pointed_rules():
    # A40 level 1: every label of lambda_b + nu lies in [-1, 2], a box of
    # 4**40 > 2**63 points, so the fold memo codes them as Python ints.  The
    # category is pointed, Z_41: omega_i x omega_j = omega_{i + j mod 41}
    a = make_alcove("A", 40, 1)
    node = {w: w.index(1) + 1 if any(w) else 0 for w in a.weights}
    for x in a.weights:
        for y in a.weights:
            z = (node[x] + node[y]) % 41
            assert fuse(a, x, y) == {next(w for w in a.weights
                                          if node[w] == z): 1}
    assert a._folds[2].dtype == object
