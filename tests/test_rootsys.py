import dataclasses
import functools
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wzwcat import rootsys
from wzwcat.alcove import Alcove, make_alcove
from wzwcat.modular import integer_form
from wzwcat.rootsys import (
    DIMENSION_CAP,
    CapacityError,
    build_root_system,
    weight_system,
    weyl_dimensions,
    weyl_group_order,
    weyl_orbit_signs,
)


def weight_dict(ws) -> dict:
    """A weight_system array read back as {Dynkin labels: multiplicity};
    fails if a weight is listed twice."""
    result = {tuple(p): m
              for p, m in zip(ws["point"].tolist(), ws["mult"].tolist())}
    assert len(result) == len(ws), "a weight is listed twice"
    return result


def weyl_dimension(rs, lam) -> int:
    """Scalar reference: prod <lam + rho, alpha> / prod <rho, alpha> over
    the positive roots, with the pairing <x, alpha> = sum_j alpha_j x_j d_j
    written out."""
    num = den = 1
    for alpha in rs.pos_roots:
        num *= sum(c * (x + 1) * d for c, x, d in zip(alpha, lam, rs.d))
        den *= sum(c * d for c, d in zip(alpha, rs.d))
    assert num % den == 0
    return num // den


def simple_reflection(rs, w, i):
    """s_i on Dynkin labels: subtract w_i times row i of the Cartan matrix."""
    return tuple(x - w[i] * c for x, c in zip(w, rs.cartan[i]))


def dominate(rs, w):
    """Weyl-translate w into the dominant chamber; returns (weight, det sign)."""
    w = tuple(w)
    sign = 1
    while True:
        i = next((j for j, x in enumerate(w) if x < 0), None)
        if i is None:
            return w, sign
        w = simple_reflection(rs, w, i)
        sign = -sign


def dual_weight(rs, lam):
    """Scalar reference: -w0(lam), the dominant weight in the orbit of -lam."""
    return dominate(rs, tuple(-x for x in lam))[0]


def alcove_dual(rs, lam):
    """Dual of lam read from Alcove.duals at the level of lam (at least 1)."""
    alc = Alcove(rs, max(1, rs.level(lam)))
    return alc.weights[alc.duals[alc.index[lam]]]


# (series, rank) -> (#positive roots, dual Coxeter number)
CLASSICAL_TABLE = {
    ("A", 1): (1, 2),
    ("A", 2): (3, 3),
    ("A", 3): (6, 4),
    ("A", 7): (28, 8),
    ("B", 2): (4, 3),
    ("B", 3): (9, 5),
    ("B", 5): (25, 9),
    ("C", 3): (9, 4),
    ("C", 4): (16, 5),
    ("D", 4): (12, 6),
    ("D", 5): (20, 8),
    ("E", 6): (36, 12),
    ("E", 7): (63, 18),
    ("E", 8): (120, 30),
    ("F", 4): (24, 9),
    ("G", 2): (6, 4),
}
# the classical series beyond rank 8 (Bourbaki, Planches I-IV): |Phi+| is
# n(n+1)/2, n^2, n^2, n(n-1) and h_dual is n+1, 2n-1, n+1, 2n-2
CLASSICAL_TABLE.update({
    ("A", 40): (40 * 41 // 2, 41),
    ("B", 30): (30 * 30, 2 * 30 - 1),
    ("C", 30): (30 * 30, 30 + 1),
    ("D", 30): (30 * 29, 2 * 30 - 2),
})


@pytest.mark.parametrize("series,rank", sorted(CLASSICAL_TABLE))
def test_root_counts_and_dual_coxeter(series, rank):
    rs = build_root_system(series, rank)
    n_pos, h_dual = CLASSICAL_TABLE[(series, rank)]
    assert len(rs.pos_roots) == n_pos
    assert rs.h_dual == h_dual
    # highest root is the unique height maximum
    heights = [sum(a) for a in rs.pos_roots]
    assert heights.count(max(heights)) == 1
    assert rs.pos_roots[-1] == rs.highest_root


@pytest.mark.parametrize("series,rank", sorted(CLASSICAL_TABLE))
def test_quad_form_inverts_cartan(series, rank):
    rs = build_root_system(series, rank)
    n = rs.rank
    # sum_m F[i][m] a[j][m] = d_i delta_ij  (F is the Gram matrix of the
    # fundamental weights, exact rationals)
    for i in range(n):
        for j in range(n):
            got = sum(rs.quad_form[i][m] * rs.cartan[j][m] for m in range(n))
            assert got == (rs.d[i] if i == j else 0)


def test_quad_form_is_checked_against_the_cartan_matrix():
    # B3 has h_dual 5: a root system that claims 6 fails the integer check
    wrong = dataclasses.replace(build_root_system("B", 3), h_dual=6)
    with pytest.raises(AssertionError):
        wrong.quad_form


def test_type_a_positive_roots_are_contiguous_blocks():
    # e_i - e_j for i < j (Bourbaki, Planche I) is alpha_i + ... + alpha_{j-1}:
    # coordinate 1 on nodes i..j-1; sorted by height, then lexicographically
    for n in range(1, 61):
        blocks = [tuple(int(i <= m < j) for m in range(n))
                  for i in range(n) for j in range(i + 1, n + 1)]
        assert build_root_system("A", n).pos_roots == tuple(
            sorted(blocks, key=lambda c: (sum(c), c)))


def test_b2_quad_form_values():
    rs = build_root_system("B", 2)
    assert rs.quad_form == ((Fraction(2), Fraction(1)), (Fraction(1), Fraction(1)))
    assert rs.d == (2, 1)
    assert rs.comarks == (1, 1)
    # <lambda, lambda + 2 rho> = 12 for the spinor-type weight at level 2
    denom, gram = integer_form(rs)
    assert (0, 2) @ gram @ np.array((2, 4)) == 12 * denom


def test_a3_quad_form_values():
    rs = build_root_system("A", 3)
    f = rs.quad_form
    expect = [[Fraction(3, 4), Fraction(1, 2), Fraction(1, 4)],
              [Fraction(1, 2), Fraction(1), Fraction(1, 2)],
              [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]]
    assert [list(row) for row in f] == expect


def test_g2_orientation():
    # node 1 short (7-dim fundamental), node 2 long (adjoint)
    rs = build_root_system("G", 2)
    assert rs.d == (1, 3)
    assert rs.cartan == ((2, -1), (-3, 2))
    assert weyl_dimensions(rs, [(1, 0), (0, 1)]) == [7, 14]
    assert rs.highest_root == (3, 2)  # adjoint highest weight = (0,1) labels
    assert rs.root_labels(rs.highest_root) == (0, 1)


def test_f4_marks_and_comarks():
    rs = build_root_system("F", 4)
    assert rs.marks == (2, 3, 4, 2)
    assert rs.comarks == (2, 3, 2, 1)
    assert weyl_dimensions(rs, [(0, 0, 0, 1)]) == [26]


WEYL_DIMS = [
    ("A", 1, (1,), 2),
    ("A", 2, (1, 1), 8),
    ("A", 3, (0, 1, 0), 6),
    ("A", 3, (1, 0, 1), 15),
    ("B", 2, (1, 0), 5),
    ("B", 2, (0, 1), 4),
    ("B", 3, (0, 0, 1), 8),
    ("C", 3, (1, 0, 0), 6),
    ("C", 3, (0, 1, 0), 14),
    ("D", 4, (1, 0, 0, 0), 8),
    ("D", 5, (0, 0, 0, 0, 1), 16),
    ("E", 6, (1, 0, 0, 0, 0, 0), 27),
    ("E", 6, (0, 1, 0, 0, 0, 0), 78),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1), 56),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1), 248),
    ("G", 2, (2, 0), 27),
]


@pytest.mark.parametrize("series,rank,lam,dim", WEYL_DIMS)
def test_weyl_dimensions(series, rank, lam, dim):
    rs = build_root_system(series, rank)
    assert weyl_dimensions(rs, [lam]) == [dim]


def test_adjoint_dimension_is_highest_root_rep():
    for series, rank, dim_g in [("A", 2, 8), ("B", 2, 10), ("G", 2, 14),
                                ("D", 4, 28), ("F", 4, 52), ("E", 6, 78)]:
        rs = build_root_system(series, rank)
        assert weyl_dimensions(rs, [rs.root_labels(rs.highest_root)]) \
            == [dim_g]
        assert len(rs.pos_roots) * 2 + rank == dim_g


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 2, (1, 1)),
    ("A", 3, (1, 0, 1)),
    ("B", 2, (1, 1)),
    ("B", 3, (1, 0, 1)),
    ("C", 3, (0, 1, 1)),
    ("D", 4, (0, 1, 0, 0)),
    ("G", 2, (1, 1)),
    ("F", 4, (1, 0, 0, 0)),
])
def test_weight_system_total_dimension(series, rank, lam):
    rs = build_root_system(series, rank)
    ws = weight_dict(weight_system(rs, lam))
    assert [sum(ws.values())] == weyl_dimensions(rs, [lam])
    # all weights lie under lam in the root-lattice order
    assert ws[tuple(lam)] == 1


def test_weight_system_known_multiplicities():
    rs = build_root_system("A", 2)
    # adjoint of sl3: zero weight twice
    ws = weight_dict(weight_system(rs, (1, 1)))
    assert ws[(0, 0)] == 2
    rs = build_root_system("G", 2)
    ws = weight_dict(weight_system(rs, (0, 1)))
    assert ws[(0, 0)] == 2  # Cartan of g2
    ws = weight_dict(weight_system(rs, (1, 0)))
    assert ws[(0, 0)] == 1  # 7-dim rep has a single zero weight


def test_weight_system_weyl_symmetry_random():
    rng = random.Random(20260823)
    for series, rank in [("A", 3), ("B", 3), ("C", 3), ("G", 2)]:
        rs = build_root_system(series, rank)
        lam = tuple(rng.randint(0, 2) for _ in range(rank))
        if sum(lam) == 0:
            lam = (1,) + lam[1:]
        ws = weight_dict(weight_system(rs, lam))
        for mu, m in ws.items():
            for i in range(rank):
                assert ws[simple_reflection(rs, mu, i)] == m


@functools.cache
def _full_lattice_weight_system(rs, lam):
    """Reference: Freudenthal over every weight, not only dominant ones.

    Descends from the highest weight one simple-root layer at a time and
    runs the recursion on each weight met, in exact integer arithmetic.
    Cached, as several tests compare against the same systems; callers
    only read the dict.
    """
    lam = tuple(lam)
    n = rs.rank
    d = rs.d
    root_data = [(tuple(c * dj for c, dj in zip(alpha, d)), rs.root_labels(alpha))
                 for alpha in rs.pos_roots]
    simple_labels = [rs.cartan[i] for i in range(n)]
    mult = {lam: 1}
    coords = {lam: (0,) * n}  # coordinates of lam - mu in the root basis
    lam2 = tuple(x + 2 for x in lam)
    layer = [lam]
    while layer:
        cands = {}
        for mu in layer:
            base = coords[mu]
            for i in range(n):
                nxt = tuple(m - s for m, s in zip(mu, simple_labels[i]))
                if nxt not in cands and nxt not in mult:
                    c = list(base)
                    c[i] += 1
                    cands[nxt] = tuple(c)
        layer = []
        for mu, cmu in cands.items():
            num = 0
            for cd, alab in root_data:
                x = tuple(m + a for m, a in zip(mu, alab))
                while x in mult:
                    num += mult[x] * sum(ci * xi for ci, xi in zip(cd, x))
                    x = tuple(m + a for m, a in zip(x, alab))
            if num == 0:
                continue
            lam_mu = tuple(a + b for a, b in zip(lam2, mu))
            den = sum(ci * di * li for ci, di, li in zip(cmu, d, lam_mu))
            if (2 * num) % den:
                raise AssertionError("Freudenthal division failed")
            mult[mu] = (2 * num) // den
            coords[mu] = cmu
            layer.append(mu)
    assert sum(mult.values()) == weyl_dimension(rs, lam)
    return mult


# the highest level with at most 36 simples, per type of the fold sweep
FOLD_SWEEP_TOP_LEVELS = [
    ("A", 1, 35), ("A", 2, 7), ("A", 3, 4), ("A", 4, 3), ("B", 2, 7),
    ("B", 3, 5), ("B", 4, 4), ("C", 3, 4), ("C", 4, 3), ("D", 4, 3),
    ("D", 5, 3), ("G", 2, 10), ("F", 4, 5), ("E", 6, 3),
]


@pytest.mark.parametrize("series,rank,k", FOLD_SWEEP_TOP_LEVELS)
def test_weight_system_matches_full_lattice_on_alcove(series, rank, k):
    alc = make_alcove(series, rank, k)
    assert alc.rank <= 36 < make_alcove(series, rank, k + 1).rank
    for lam in alc.weights:
        assert weight_dict(weight_system(alc.rs, lam)) == \
            _full_lattice_weight_system(alc.rs, lam), lam


@pytest.mark.parametrize("series,rank,k", FOLD_SWEEP_TOP_LEVELS)
def test_weyl_dimensions_and_duals_match_scalar_references(series, rank, k):
    alc = make_alcove(series, rank, k)
    assert alc.weyl_dims == [weyl_dimension(alc.rs, w) for w in alc.weights]
    assert [alc.weights[d] for d in alc.duals] == \
        [dual_weight(alc.rs, w) for w in alc.weights]


@pytest.mark.parametrize("series,rank,k", [
    ("A", 2, 6), ("B", 3, 4), ("C", 3, 4), ("D", 4, 3), ("G", 2, 9),
    ("F", 4, 4), ("E", 6, 3), ("E", 7, 2), ("E", 8, 2)])
def test_batched_multiplicities_match_full_lattice(series, rank, k):
    # one recursion over the whole alcove, a downward-closed set, with every
    # weight a top: row t holds the multiplicity of each alcove weight in
    # the representation of weight t, 0 where it is no weight of it
    alc = make_alcove(series, rank, k)
    points, owner = rootsys.orbit_walk(alc.rs, alc.labels)
    m = rootsys.freudenthal(alc.rs, alc.labels, range(alc.rank), points,
                            owner)
    assert (m @ np.bincount(owner)).tolist() == alc.weyl_dims
    for lam, row in zip(alc.weights, m.tolist()):
        ref = _full_lattice_weight_system(alc.rs, lam)
        assert row == [ref.get(mu, 0) for mu in alc.weights], lam


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 7, (1, 0, 0, 0, 0, 0, 1)),
    ("A", 7, (0, 1, 0, 1, 0, 0, 0)),
    ("D", 6, (0, 1, 0, 0, 0, 0)),
    ("D", 6, (1, 0, 0, 0, 1, 0)),
    ("E", 7, (0, 0, 0, 0, 0, 0, 1)),
    ("E", 7, (1, 0, 0, 0, 0, 0, 0)),
    ("E", 8, (0, 0, 0, 0, 0, 0, 0, 1)),
    ("E", 8, (1, 0, 0, 0, 0, 0, 0, 0)),
])
def test_weight_system_matches_full_lattice_beyond_sweep(series, rank, lam):
    rs = build_root_system(series, rank)
    assert weight_dict(weight_system(rs, lam)) == \
        _full_lattice_weight_system(rs, lam)


PROPERTY_TYPES = [("A", 1), ("A", 4), ("B", 3), ("C", 4), ("D", 5),
                  ("E", 6), ("F", 4), ("G", 2)]


def _under_cap(rs, lam, cap=2000):
    """lam with its largest labels lowered until dim <= cap."""
    lam = list(lam)
    while weyl_dimensions(rs, [lam])[0] > cap:
        lam[lam.index(max(lam))] -= 1
    return tuple(lam)


@st.composite
def _capped_weights(draw):
    series, rank = draw(st.sampled_from(PROPERTY_TYPES))
    rs = build_root_system(series, rank)
    lam = draw(st.lists(st.integers(0, 6), min_size=rank, max_size=rank))
    return rs, _under_cap(rs, lam)


@settings(max_examples=60, deadline=None)
@given(_capped_weights())
def test_weight_system_properties(case):
    rs, lam = case
    ws = weight_dict(weight_system(rs, lam))
    assert [sum(ws.values())] == weyl_dimensions(rs, [lam])
    for mu, m in ws.items():
        for i in range(rs.rank):
            assert ws[simple_reflection(rs, mu, i)] == m
    orbits = Counter(dominate(rs, mu)[0] for mu in ws)
    assert all(weyl_group_order(rs) % size == 0 for size in orbits.values())


E8 = build_root_system("E", 8)


@given(st.lists(st.integers(0, 40), min_size=8, max_size=8))
def test_weight_system_refuses_oversized_at_once(labels):
    # dim grows with every label and dim(omega_4) = 6 899 079 264 for E8,
    # so any weight with lambda_4 >= 1 is over the cap; hypothesis's
    # deadline (200 ms) fails the test if anything is enumerated first
    lam = tuple(labels[:3]) + (labels[3] + 1,) + tuple(labels[4:])
    assert weyl_dimensions(E8, [lam])[0] > DIMENSION_CAP
    with pytest.raises(CapacityError):
        weight_system(E8, lam)
    assert ("E", 8, lam) not in rootsys._WEIGHT_SYSTEMS


def test_root_system_built_once_per_type():
    assert build_root_system("F", 4) is build_root_system("F", 4)
    assert build_root_system("B", 3) is not build_root_system("C", 3)


def test_weight_system_shared_across_root_systems_of_a_type():
    rs = build_root_system("C", 3)
    other = dataclasses.replace(rs)      # a second root system of type C3
    assert other is not rs
    assert weight_system(other, (1, 0, 1)) is weight_system(rs, (1, 0, 1))


def test_weight_system_labels_wider_than_int8():
    # the spin-100 representation of A1: labels -200, -198, ..., 200
    ws = weight_system(build_root_system("A", 1), (200,))
    assert sorted(ws["point"][:, 0].tolist()) == list(range(-200, 201, 2))
    assert ws["mult"].sum() == 201


@pytest.mark.parametrize("series,rank,lam", [
    ("A", 3, (2, 1, 1)), ("B", 3, (1, 1, 1)), ("G", 2, (3, 2)),
    ("F", 4, (0, 0, 0, 3)), ("E", 6, (1, 0, 0, 0, 0, 1))])
def test_weight_system_lists_each_weight_once(series, rank, lam):
    ws = weight_system(build_root_system(series, rank), lam)
    assert len(np.unique(ws["point"], axis=0)) == len(ws)


def _epsilons(series, n):
    """Dynkin labels of the vectors epsilon_i (Bourbaki, plates I-III):
    omega_i - omega_{i-1}, with epsilon_{n+1} = -omega_n in A_n and
    epsilon_n = 2 omega_n - omega_{n-1} in B_n."""
    omega = np.vstack([np.zeros((1, n), dtype=int), np.eye(n, dtype=int),
                       np.zeros((1, n), dtype=int)])
    eps = omega[1:] - omega[:-1]
    if series == "B":
        eps[n - 1] += omega[n]
    return eps if series == "A" else eps[:n]


@pytest.mark.parametrize("series,rank,node", [
    ("C", 40, 0), ("A", 40, 0), ("B", 20, 1)])
def test_weight_system_with_codes_past_int64(series, rank, node):
    # the vector representations of C40 and A40 and the adjoint of B20: a
    # box of (2 top + 1)^rank codes passes int64, so the codes are Python
    # ints (the full-lattice reference takes seconds at these ranks)
    rs = build_root_system(series, rank)
    lam = tuple(int(i == node) for i in range(rank))
    top = int((np.array(lam) @ rs.pairing_matrix).max())
    assert rootsys.place_values([2 * top + 1] * rank).dtype == object
    eps = _epsilons(series, rank)
    if series == "A":
        ref = {tuple(e): 1 for e in eps.tolist()}
    else:
        short = np.concatenate([eps, -eps])
        if series == "C":
            ref = {tuple(e): 1 for e in short.tolist()}
        else:
            roots = [a + b for a, b in itertools.combinations(short, 2)
                     if (a + b).any()]
            ref = {tuple(e): 1 for e in np.concatenate([short, roots]).tolist()}
            assert len(ref) == 2 * rank * rank
            ref[(0,) * rank] = rank
    ws = weight_system(rs, lam)
    assert weight_dict(ws) == ref
    assert [int(ws["mult"].sum())] == weyl_dimensions(rs, [lam])


def test_shared_arrays_are_read_only():
    rs = build_root_system("B", 2)
    ws = weight_system(rs, (1, 1))
    with pytest.raises(ValueError):
        ws["mult"][0] = 7
    with pytest.raises(ValueError):
        ws["point"][0, 0] = 7
    with pytest.raises(ValueError):
        rs.pairing_matrix[0, 0] = 7
    with pytest.raises(ValueError):
        rs.root_label_matrix[0, 0] = 7


def test_dominate_and_dual():
    rs = build_root_system("A", 2)
    w, sign = dominate(rs, (-1, -1))
    assert w == (1, 1)
    assert sign == -1  # longest element, three positive roots
    assert alcove_dual(rs, (1, 0)) == (0, 1)
    assert alcove_dual(rs, (2, 1)) == (1, 2)
    rs = build_root_system("A", 3)
    assert alcove_dual(rs, (1, 0, 0)) == (0, 0, 1)
    assert alcove_dual(rs, (0, 1, 0)) == (0, 1, 0)
    for series, rank in [("B", 3), ("C", 3), ("G", 2), ("F", 4), ("D", 5)]:
        rs = build_root_system(series, rank)
        lam = (1, 0, 1) if rank == 3 else (1,) * rank
        if series == "D":
            # D5 spinors swap under duality
            assert alcove_dual(rs, (0, 0, 0, 1, 0)) == (0, 0, 0, 0, 1)
        else:
            assert alcove_dual(rs, lam[: rank]) == lam[: rank]


def _breadth_first_orbit(rs, x):
    """Scalar reference for the order of weyl_orbit_signs: breadth-first
    from x by the simple reflections s_i with label i > 0, parent-first
    and then in node order, each new point kept the first time it is met."""
    seen, layer, out = {tuple(x)}, [tuple(x)], [tuple(x)]
    while layer:
        nxt = []
        for w in layer:
            for i, row in enumerate(rs.cartan):
                y = tuple(a - w[i] * c for a, c in zip(w, row))
                if w[i] > 0 and y not in seen:
                    seen.add(y)
                    nxt.append(y)
        out += nxt
        layer = nxt
    return out


def test_weyl_orbit_signs_counts():
    rs = build_root_system("A", 2)
    orbit = weyl_orbit_signs(rs, (1, 1))  # rho: free orbit of size |W| = 6
    assert len(orbit) == 6
    assert orbit["sign"].sum() == 0
    rs = build_root_system("B", 2)
    assert len(weyl_orbit_signs(rs, (1, 1))) == 8
    rs = build_root_system("G", 2)
    assert len(weyl_orbit_signs(rs, (1, 1))) == 12


@pytest.mark.parametrize("series,rank", [
    ("A", 3), ("B", 3), ("C", 3), ("D", 4), ("F", 4), ("G", 2), ("E", 6),
])
def test_weyl_orbit_order_and_signs(series, rank):
    # length of w = number of positive roots alpha with <w(rho), alpha> < 0
    rs = build_root_system(series, rank)
    orbit = weyl_orbit_signs(rs, rs.rho)
    lengths = (orbit["point"] @ rs.pairing_matrix < 0).sum(axis=1).tolist()
    assert lengths == sorted(lengths)
    assert lengths[-1] == len(rs.pos_roots)
    assert all(s == (-1) ** n for s, n in zip(orbit["sign"].tolist(), lengths))
    assert weyl_group_order(rs) == len(orbit)
    assert orbit["point"].tolist() == [list(y) for y in
                                       _breadth_first_orbit(rs, rs.rho)]
    # the matrices of W: M_e = I, M_w rho = w(rho) and det M_w = det(w)
    mats = orbit["matrix"].astype(np.int64)
    assert (mats[0] == np.eye(rs.rank, dtype=np.int64)).all()
    assert (mats @ np.array(rs.rho) == orbit["point"]).all()
    assert (np.rint(np.linalg.det(mats)) == orbit["sign"]).all()


@pytest.mark.parametrize("series,rank,order", [
    ("A", 1, 2), ("A", 7, 40320), ("B", 2, 8), ("C", 4, 384),
    ("D", 5, 1920), ("G", 2, 12), ("F", 4, 1152), ("E", 6, 51840),
    ("E", 7, 2903040), ("E", 8, 696729600),
])
def test_weyl_group_order(series, rank, order):
    # the standard orders (Humphreys, Reflection Groups and Coxeter Groups,
    # ch. 2): (n+1)!, 2^n n!, 2^(n-1) n!, 12, 1152, 51840, 2903040, ...
    assert weyl_group_order(build_root_system(series, rank)) == order


def test_dimension_cap_raises():
    rs = build_root_system("A", 3)
    with pytest.raises(CapacityError):
        weight_system(rs, (40, 40, 40))


def test_positive_root_counts_have_a_closed_form():
    # the count the root-table cap reads, against the built tables
    for series in "ABCDEFG":
        for rank in range(1, 13):
            if rootsys._SERIES_RANK_OK[series](rank):
                assert rootsys._POSITIVE_ROOTS[series](rank) == len(
                    build_root_system(series, rank).pos_roots)


@pytest.mark.parametrize("series, first", [("A", 272), ("B", 216),
                                           ("C", 216), ("D", 216)])
def test_root_table_over_the_cap_is_refused(series, first):
    # |Phi+| rank entries: the first refused rank of each series, and the
    # rank below it, which passes
    count = rootsys._POSITIVE_ROOTS[series]
    assert count(first - 1) * (first - 1) <= DIMENSION_CAP
    with pytest.raises(CapacityError, match="root table"):
        build_root_system(series, first)


def test_bad_type_rejected():
    with pytest.raises(ValueError):
        build_root_system("C", 2)
    with pytest.raises(ValueError):
        build_root_system("E", 9)
    with pytest.raises(ValueError):
        build_root_system("H", 4)
