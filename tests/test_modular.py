import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import wzwcat.fusion
from wzwcat.alcove import Alcove
from wzwcat.localmods import LocalCategoryData
from wzwcat.modular import ModularData, RationalAngle
from wzwcat.rootsys import CapacityError, weyl_orbit_signs


def _naive_smatrix(md):
    """Row by row: the Weyl orbit of lambda + rho and float phases
    exp(-2 pi i <w(lambda + rho), mu + rho>/ell), scaled to unit rows
    with S_00 real positive."""
    rs, ell = md.rs, md.alcove.ell
    form = np.array([[float(x) for x in row] for row in rs.quad_form])
    shifted = np.array(md.weights, dtype=float) + 1
    u = np.zeros((md.rank, md.rank), dtype=complex)
    for a, x in enumerate(shifted):
        orbit = weyl_orbit_signs(rs, tuple(int(v) for v in x))
        pts = orbit["point"].astype(float)
        sgn = orbit["sign"].astype(float)
        u[a] = sgn @ np.exp(-2j * math.pi / ell * (pts @ form @ shifted.T))
    u /= np.linalg.norm(u[0])
    return u * cmath.exp(-1j * cmath.phase(u[0, 0]))


def test_rational_angle_arithmetic():
    a = RationalAngle(Fraction(3, 8))
    assert RationalAngle(Fraction(7, 2)).t == Fraction(3, 2)
    assert abs(a.value() - cmath.exp(1j * math.pi * 3 / 8)) < 1e-15
    assert RationalAngle(Fraction(1)).value() == pytest.approx(-1.0)


def test_ising_modular_data():
    md = ModularData("A", 1, 2)
    s = md.smatrix
    expect = np.array([[0.5, math.sqrt(0.5), 0.5],
                       [math.sqrt(0.5), 0.0, -math.sqrt(0.5)],
                       [0.5, -math.sqrt(0.5), 0.5]])
    assert np.max(np.abs(s - expect)) < 1e-12
    assert [t.t for t in md.twists] == [0, Fraction(3, 8), 1]
    assert md.central_charge == Fraction(3, 2)


@pytest.mark.parametrize("series,rank,k", [
    ("A", 1, 5), ("A", 2, 3), ("A", 3, 2), ("B", 2, 3),
    ("C", 3, 2), ("D", 4, 2), ("G", 2, 3), ("F", 4, 1), ("E", 6, 1),
])
def test_smatrix_properties(series, rank, k):
    md = ModularData(series, rank, k)
    s = md.smatrix
    assert md.smatrix_unitarity_residual < 1e-9
    assert np.max(np.abs(s - s.T)) < 1e-9
    # first row is the quantum dimension vector times S_00
    assert np.max(np.abs(s[0] / s[0, 0] - md.qdims)) < 1e-9
    assert s[0, 0].real > 0
    assert abs(s[0, 0].imag) < 1e-12
    # S^2 is the duality permutation
    c = np.zeros((md.rank, md.rank))
    for i in range(md.rank):
        c[i, md.alcove.duals[i]] = 1
    assert np.max(np.abs(s @ s - c)) < 1e-9


@pytest.mark.parametrize("series,rank,k", [
    ("A", 2, 3), ("B", 3, 2), ("C", 3, 2), ("D", 4, 2), ("E", 6, 1),
    ("F", 4, 2), ("G", 2, 3),
    # current groups Z4, Z2 x Z2, Z4, Z3, Z6 and Z2; B4 k2 and D6 k2 have
    # orbits with a fixed point
    ("A", 3, 4), ("D", 4, 4), ("D", 5, 4), ("E", 6, 2), ("A", 5, 3),
    ("C", 4, 2), ("B", 4, 2), ("D", 6, 2),
])
def test_smatrix_matches_naive_weyl_sum(series, rank, k):
    md = ModularData(series, rank, k)
    s = md.smatrix
    assert np.max(np.abs(s - _naive_smatrix(md))) < 1e-12
    assert np.array_equal(s, s.T)
    # modular relation (ST)^3 = S^2 with T = theta e^{-2 pi i c/24}; with
    # the conjugate S it fails by O(1) on A2 k3 and E6 k1
    t = np.diag([th.value() for th in md.twists]) \
        * cmath.exp(-2j * math.pi * float(md.central_charge) / 24)
    st = s @ t
    assert np.max(np.abs(st @ st @ st - s @ s)) < 1e-12


@pytest.mark.parametrize("series,rank,k", [("A", 3, 4), ("D", 4, 4)])
def test_smatrix_reads_no_fusion_row(series, rank, k, monkeypatch):
    # the currents that fill S act by diagram automorphisms, so S stays
    # independent of the fold route
    def refuse(*args, **kwargs):
        raise AssertionError("S-matrix read a fusion row")
    monkeypatch.setattr(wzwcat.fusion, "fuse_weights", refuse)
    md = ModularData(series, rank, k)
    assert md.smatrix_unitarity_residual < 1e-12


def test_smatrix_refuses_weyl_group_before_current_actions(monkeypatch):
    # |W(A12)| = 13! is over WEYL_GROUP_CAP: the refusal needs no current
    # action
    def refuse(self):
        raise AssertionError("current actions built for a refused S")
    monkeypatch.setattr(Alcove, "current_actions", property(refuse))
    with pytest.raises(CapacityError):
        ModularData("A", 12, 1).smatrix


@pytest.mark.parametrize("series,rank,k", [
    ("A", 1, 8), ("A", 2, 3), ("B", 2, 4), ("C", 3, 2), ("G", 2, 2),
])
def test_verlinde_matches_folded_fusion(series, rank, k):
    md = ModularData(series, rank, k)
    assert md.verlinde_residual() < 1e-4


@pytest.mark.parametrize("series,rank,k,charge", [
    ("A", 1, 1, Fraction(1)),
    ("A", 1, 2, Fraction(3, 2)),
    ("B", 2, 2, Fraction(4)),
    ("G", 2, 1, Fraction(14, 5)),
    ("E", 8, 1, Fraction(8)),
    ("A", 4, 1, Fraction(4)),
])
def test_central_charges(series, rank, k, charge):
    md = ModularData(series, rank, k)
    assert md.central_charge == charge
    assert md.gauss_sum_residual() < 1e-8


def test_conformal_embedding_charge_match():
    # rank-level pair: so(5) level 2 and su(5) level 1 share c = 4
    assert ModularData("B", 2, 2).central_charge == \
        ModularData("A", 4, 1).central_charge
    # so(2n+1)_4 x su(2)_{2n+1} inside sp(2(2n+1))_1: charges add exactly
    for n in (2, 3):
        cb = ModularData("B", n, 4).central_charge
        ca = ModularData("A", 1, 2 * n + 1).central_charge
        cc = ModularData("C", 2 * n + 1, 1).central_charge
        assert cb + ca == cc


def test_e8_level1_trivial_like():
    md = ModularData("E", 8, 1)
    assert md.rank == 1
    assert md.qdims[0] == pytest.approx(1.0)
    assert md.gauss_sum_phase == pytest.approx(1.0)  # c = 8


def test_twist_spinor_b2():
    # theta of the level-2 spinor-type corner (0,2): exact angle 12/(2(k+3))
    md = ModularData("B", 2, 2)
    i = md.alcove.index[(0, 2)]
    assert md.twists[i].t == Fraction(12, 10) % 2
    md = ModularData("B", 2, 5)
    i = md.alcove.index[(0, 2)]
    assert md.twists[i].t == Fraction(12, 16)


@pytest.mark.parametrize("series, rank, k, distinct", [
    ("A", 3, 8, 28), ("A", 1, 200, 151), ("E", 8, 2, 3), ("G", 2, 5, 12)])
def test_twist_table_is_shared_by_every_reader(series, rank, k, distinct):
    # one table of exact twists: one angle object per distinct T mod 2P,
    # read by index by the currents, the local census and md.twist
    md = ModularData(series, rank, k)
    loc = LocalCategoryData(md)
    nums, period = md.twist_numerators
    values = set((nums % (2 * period)).tolist())
    assert len({id(a) for a in md.twists}) == len(values) == distinct
    for j, angle in enumerate(md.twists):
        assert angle == RationalAngle(Fraction(int(nums[j]), period))
        assert md.twist(j) is angle
    assert abs(loc.gauss_sum_phase - md.gauss_sum_phase) < 1e-9
    assert [md.twist(j) for j in range(md.rank)] == list(md.twists)
    for s in loc.simples:
        # each index's angle is built once, however often it is read
        assert s.twist is md.twist(s.rep) is md.twists[s.rep]


def test_balancing_identity():
    # theta-weighted S-matrix satisfies the twist equation
    md = ModularData("B", 2, 2)
    s = md.smatrix
    n = md.rank
    th = np.array([t.value() for t in md.twists])
    d = md.qdims
    sqrt_d = math.sqrt(md.global_dim)
    stilde = s * sqrt_d
    for x in range(n):
        for y in range(n):
            acc = 0.0
            for z, c in ((z, md.fusion.row(x, y).get(z, 0)) for z in range(n)):
                if c:
                    acc += c * th[z] * d[z]
            lhs = acc / (th[x] * th[y])
            assert abs(lhs - stilde[x, y]) < 1e-8
