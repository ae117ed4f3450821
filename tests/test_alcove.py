import itertools
import math
import time

import numpy as np
import pytest

from wzwcat import alcove
from wzwcat.alcove import make_alcove, qint, quantum_dimensions
from wzwcat.modular import ModularData
from wzwcat.rootsys import CapacityError, longest_element


def quantum_dimension(rs, k, lam) -> float:
    """Scalar reference: product over the positive roots of
    [<lam + rho, alpha>] / [<rho, alpha>] at altitude lacing (k + h_dual),
    with the pairing <x, alpha> = sum_j alpha_j x_j d_j written out."""
    ell = rs.lacing * (k + rs.h_dual)
    val = 1.0
    for alpha in rs.pos_roots:
        val *= qint(sum(c * (x + 1) * d
                        for c, x, d in zip(alpha, lam, rs.d)), ell)
        val /= qint(sum(c * d for c, d in zip(alpha, rs.d)), ell)
    return val


def test_alcove_sizes_closed_forms():
    # type A_n at level k: binomial(k+n, n)
    assert make_alcove("A", 1, 10).rank == 11
    assert make_alcove("A", 2, 5).rank == 21
    assert make_alcove("A", 3, 4).rank == 35
    # B2: all comarks 1, so (k+1)(k+2)/2
    for k in (1, 2, 5, 9):
        assert make_alcove("B", 2, k).rank == (k + 1) * (k + 2) // 2


def test_alcove_lex_order_and_unit_first():
    a = make_alcove("C", 3, 2)
    assert a.weights[0] == (0, 0, 0)
    assert list(a.weights) == sorted(a.weights)
    assert all(a.rs.level(w) <= 2 for w in a.weights)


@pytest.mark.parametrize("rank, k", [(40, 2), (41, 2), (42, 2), (64, 1)])
def test_lookup_past_int64_codes(rank, k):
    # the largest mixed-radix place passes int64 here; numpy inferred
    # float64 for A41 k2 and A64 k1, which merged distinct codes
    a = make_alcove("A", rank, k)
    assert (a.lookup(a.labels) == np.arange(a.rank)).all()


def test_altitude():
    assert make_alcove("A", 1, 2).ell == 4
    assert make_alcove("B", 2, 1).ell == 8
    assert make_alcove("G", 2, 1).ell == 15
    assert make_alcove("F", 4, 2).ell == 22


def simple_reflection(rs, w, i):
    """s_i on Dynkin labels: subtract w_i times row i of the Cartan matrix."""
    return tuple(x - w[i] * c for x, c in zip(w, rs.cartan[i]))


def reference_fold(a, mu):
    """The scalar fold the array fold replaced: (sign, weight or None)."""
    rs = a.rs
    kh = a.k + rs.h_dual
    comarks = rs.comarks
    theta_labels = rs.root_labels(rs.highest_root)
    x = tuple(m + 1 for m in mu)
    sign = 1
    for _ in range(100_000):
        i = next((j for j, v in enumerate(x) if v < 0), None)
        if i is not None:
            x = simple_reflection(rs, x, i)
            sign = -sign
            continue
        if 0 in x:
            return 0, None
        t = sum(c * v for c, v in zip(comarks, x))
        if t == kh:
            return 0, None
        if t > kh:
            x = tuple(v - (t - kh) * c for v, c in zip(x, theta_labels))
            sign = -sign
            continue
        return sign, tuple(v - 1 for v in x)
    raise AssertionError(f"fold did not terminate for {mu}")


def fold_all(a, mus):
    """Array fold of a list of weights, read back as (sign, weight or None)."""
    sign, index = a.fold(np.array(mus, dtype=np.int64).reshape(-1, a.rs.rank))
    assert sign.shape == index.shape == (len(mus),)
    assert ((sign == 0) == (index == -1)).all()
    return [(int(s), a.weights[i] if s else None) for s, i in zip(sign, index)]


def test_fold_examples_a1():
    a = make_alcove("A", 1, 2)
    assert fold_all(a, [(1,), (3,), (4,), (6,), (-1,), (-2,)]) == [
        (1, (1,)),
        (0, None),      # on the affine wall
        (-1, (2,)),
        (-1, (0,)),
        (0, None),      # on the finite wall
        (-1, (0,)),
    ]


def test_fold_b2_walls_and_interior():
    a = make_alcove("B", 2, 2)
    assert fold_all(a, a.weights) == [(1, w) for w in a.weights]
    # level(x) = k + h_dual wall: mu + rho = (2, 3) has level 5
    assert fold_all(a, [(1, 2)]) == [(0, None)]


def test_fold_idempotent_on_random_weights():
    import random
    rng = random.Random(7)
    for series, rank, k in [("A", 2, 3), ("B", 2, 4), ("G", 2, 2), ("C", 3, 2)]:
        a = make_alcove(series, rank, k)
        mus = [tuple(rng.randint(-6, 9) for _ in range(rank))
               for _ in range(200)]
        for sign, w in fold_all(a, mus):
            assert sign in (-1, 0, 1)
            if sign:
                assert w in a.index
                assert fold_all(a, [w]) == [(1, w)]


# one level of each fold_sweep type; box [-2, k + 2]^rank around the alcove,
# which holds both kinds of wall (a label -1; level(mu) = k + 1)
BOX_CASES = [("A", 1, 6), ("A", 2, 4), ("A", 3, 3), ("A", 4, 2), ("B", 2, 4),
             ("B", 3, 2), ("B", 4, 2), ("C", 3, 2), ("C", 4, 1), ("D", 4, 1),
             ("D", 5, 1), ("G", 2, 4), ("F", 4, 2), ("E", 6, 1)]


@pytest.mark.parametrize("series,rank,k", BOX_CASES)
def test_fold_matches_scalar_reference_on_box(series, rank, k):
    a = make_alcove(series, rank, k)
    box = list(itertools.product(range(-2, k + 3), repeat=rank))
    got = fold_all(a, box)
    assert got == [reference_fold(a, mu) for mu in box]
    signs = {s for s, _ in got}
    assert signs == {-1, 0, 1}


def test_fold_refuses_a_point_that_does_not_terminate(monkeypatch):
    import wzwcat.alcove
    a = make_alcove("B", 2, 3)
    monkeypatch.setattr(wzwcat.alcove, "_FOLD_ITER_CAP", 1)
    # mu + rho = (-2, 9): no zero label, level 7 != k + h_dual = 6
    with pytest.raises(AssertionError, match="did not terminate"):
        a.fold(np.array([[-3, 8]]))


def test_fold_cancels_a_wall_point_in_one_round(monkeypatch):
    import wzwcat.alcove
    a = make_alcove("B", 2, 3)
    monkeypatch.setattr(wzwcat.alcove, "_FOLD_ITER_CAP", 1)
    # mu + rho = (0, -2): fixed by s_1 although not dominant
    sign, index = a.fold(np.array([[-1, -3]]))
    assert sign.tolist() == [0] and index.tolist() == [-1]


def test_qdim_b2_small_levels():
    a = make_alcove("B", 2, 1)
    got = dict(zip(a.weights, a.qdims))
    assert got[(0, 0)] == pytest.approx(1.0)
    assert got[(1, 0)] == pytest.approx(1.0)          # simple current
    assert got[(0, 1)] == pytest.approx(math.sqrt(2))  # Ising-type spinor
    a = make_alcove("B", 2, 2)
    got = dict(zip(a.weights, a.qdims))
    assert got[(1, 0)] == pytest.approx(2.0)
    assert got[(0, 1)] == pytest.approx(math.sqrt(5))
    assert got[(2, 0)] == pytest.approx(1.0)


def test_qdim_b2_k5_bracket_form():
    # [5][6]/([2][3]) at altitude 16
    a = make_alcove("B", 2, 5)
    ell = a.ell
    assert ell == 16
    expect = qint(5, ell) * qint(6, ell) / (qint(2, ell) * qint(3, ell))
    assert a.qdims[a.index[(1, 0)]] == pytest.approx(expect, abs=1e-12)


def test_qdim_current_exactly_one():
    # level-weighted corner weights of qdim 1
    for series, rank, k, w in [("A", 1, 7, (7,)), ("B", 2, 6, (6, 0)),
                               ("A", 3, 3, (0, 0, 3)), ("C", 3, 2, (0, 0, 2))]:
        a = make_alcove(series, rank, k)
        assert a.qdims[a.index[w]] == pytest.approx(1.0, abs=1e-12)


def test_qdims_positive_and_vacuum_minimal():
    for series, rank, k in [("A", 2, 4), ("D", 4, 2), ("F", 4, 1), ("G", 2, 3)]:
        a = make_alcove(series, rank, k)
        qs = a.qdims
        assert min(qs) >= 1.0 - 1e-9
        assert qs[a.index[(0,) * rank]] == pytest.approx(1.0)


# bit-identical to the scalar product, root by root, across all types
QDIM_CASES = [
    ("A", 3, 8), ("G", 2, 10), ("C", 3, 4), ("D", 4, 4), ("B", 2, 10),
    ("A", 1, 50), ("E", 6, 2), ("F", 4, 4), ("E", 8, 2), ("E", 7, 3),
    ("B", 2, 20), ("G", 2, 20), ("A", 7, 8), ("C", 4, 4), ("D", 5, 4),
]


@pytest.mark.parametrize("series,rank,k", QDIM_CASES)
def test_qdims_equal_scalar_reference(series, rank, k):
    a = make_alcove(series, rank, k)
    assert a.qdims.tolist() == [quantum_dimension(a.rs, k, w)
                                for w in a.weights]


def test_quantum_dimensions_refuse_non_dominant_weights():
    a = make_alcove("A", 2, 3)
    with pytest.raises(ValueError):
        quantum_dimensions(a.rs, 3, [(1, -2)])


def test_global_dim_ising():
    assert ModularData("A", 1, 2).global_dim == pytest.approx(4.0)


def test_bad_level():
    with pytest.raises(ValueError):
        make_alcove("A", 1, 0)


def _refuse(*args):
    raise AssertionError("called for an alcove past the cap")


def test_alcove_over_the_cap_is_refused_before_any_weight(monkeypatch):
    # the A_r level-k alcove has C(k + r, r) weights: C(1003, 3) =
    # 167 668 501 for A3 k1000, C(702, 2) = 246 051 for A2 k700
    monkeypatch.setattr(alcove.Alcove, "_enumerate", _refuse)
    t0 = time.perf_counter()
    with pytest.raises(CapacityError, match="at least 167668501 weights, "
                       "over the cap 200000"):
        ModularData("A", 3, 1000)
    with pytest.raises(CapacityError, match="at least 246051 weights"):
        make_alcove("A", 2, 700)
    assert time.perf_counter() - t0 < 1


def test_huge_level_is_refused_by_its_bound_alone(monkeypatch):
    # n omega_1 lies in the A1 alcove for n = 0..k: k + 1 weights at least,
    # found with neither a count nor a list
    monkeypatch.setattr(alcove, "count_alcove", _refuse)
    monkeypatch.setattr(alcove.Alcove, "_enumerate", _refuse)
    with pytest.raises(CapacityError, match="at least 1000000001 weights"):
        make_alcove("A", 1, 10 ** 9)


@pytest.mark.parametrize("series,rank,k", [
    ("D", 6, 1), ("A", 4, 3), ("B", 3, 3), ("E", 6, 2)])
def test_duals_and_current_actions_walk_w0_once(monkeypatch, series, rank, k):
    full = []

    def counted(rs, nodes):
        nodes = list(nodes)
        full.append(len(nodes) == rs.rank)
        return longest_element(rs, nodes)

    monkeypatch.setattr(alcove, "longest_element", counted)
    a = make_alcove(series, rank, k)
    a.current_actions, a.duals
    assert full.count(True) == 1


@pytest.mark.parametrize("series,rank,k", [
    ("A", 9, 1), ("D", 5, 2), ("D", 6, 2), ("E", 6, 1), ("C", 4, 2)])
def test_current_actions_walk_only_generators(monkeypatch, series, rank, k):
    # w0 and at most two Levi walks: the centre is cyclic or Z2 x Z2, and
    # D_r walks its vector node before a spinor node
    calls = []

    def counted(rs, nodes):
        calls.append(nodes)
        return longest_element(rs, nodes)

    monkeypatch.setattr(alcove, "longest_element", counted)
    make_alcove(series, rank, k).current_actions
    assert len(calls) <= 3


PER_NODE_TYPES = [*(("A", r) for r in range(1, 10)),
                  *(("B", r) for r in range(2, 6)),
                  *(("C", r) for r in range(3, 6)),
                  *(("D", r) for r in range(4, 10)), ("E", 6), ("E", 7)]


@pytest.mark.parametrize("series,rank", PER_NODE_TYPES)
def test_current_actions_equal_per_node_walks(series, rank):
    # reference: J.lambda = k omega_n + w0^(n) w0 lambda walked for every
    # node n of mark 1, in node order after the unit
    for k in (1, 2, 3):
        a = make_alcove(series, rank, k)
        rs, nodes = a.rs, set(range(rank))
        w0 = longest_element(rs, nodes)
        rows = [np.arange(a.rank)]
        for n in sorted(nodes):
            if rs.marks[n] == 1:
                image = a.labels @ (longest_element(rs, nodes - {n}) @ w0).T
                image[:, n] += k
                rows.append(a.lookup(image))
        assert np.array_equal(a.current_actions, np.array(rows))
