import cmath
import math
from fractions import Fraction

import pytest

from wzwcat import wittlab as W
from wzwcat.localmods import local_category
from wzwcat.modular import ModularData


def test_fingerprint_shape():
    f = W.fingerprint(ModularData("B", 2, 3))
    assert f.label == "C(B2,3)"
    assert f.rank == 10
    assert len(f.dim_multiset) == 10 and len(f.twist_multiset) == 10
    assert list(f.dim_multiset) == sorted(f.dim_multiset)
    assert f.dim_multiset[0] == pytest.approx(1.0)
    assert f.multiplicity_free is not None
    assert f.self_dual_count == 10
    assert abs(f.central_charge
               - cmath.exp(1j * math.pi * float(f.charge_exponent))) < 1e-12


def test_self_dual_count():
    def count(*case):
        return W.fingerprint(ModularData(*case)).self_dual_count
    assert count("B", 2, 5) == 21   # everything
    assert count("A", 2, 3) == 2    # unit and adjoint
    assert count("A", 1, 7) == 8


def test_fingerprint_local():
    f = W.fingerprint(local_category("B", 2, 8))
    assert f.label == "C(B2,8) local"
    assert f.rank == 20
    assert f.multiplicity_free is None
    # ambient exponent: the condensation does not move the charge
    assert f.charge_exponent == Fraction(40, 22) % 2


def test_reverse():
    f = W.fingerprint(ModularData("B", 2, 3))
    r = f.reverse()
    assert r.label == "C(B2,3) rev"
    assert r.charge_exponent == (-f.charge_exponent) % 2
    assert r.dim_multiset == f.dim_multiset
    assert sorted((-t) % 2 for t in f.twist_multiset) == list(r.twist_multiset)
    assert r.reverse().twist_multiset == f.twist_multiset


def test_rank20_pair_split_by_central_charge():
    a = W.fingerprint(ModularData("G", 2, 7))
    b = W.fingerprint(local_category("B", 2, 8))
    assert a.rank == b.rank == 20
    assert W.coincidence_test(a, b) == "central_charge"
    # symmetric and orientation-stable
    assert W.coincidence_test(b, a) == "central_charge"
    assert W.coincidence_test(a.reverse(), b.reverse()) == "central_charge"


def test_rank6_pair_split_by_multiplicity():
    a = W.fingerprint(ModularData("A", 1, 5))
    b = W.fingerprint(ModularData("G", 2, 3))
    assert a.rank == b.rank == 6
    assert a.multiplicity_free and not b.multiplicity_free
    assert W.coincidence_test(a, b) == "multiplicity_pattern"


def test_rank_mismatch_and_reflexivity():
    a = W.fingerprint(ModularData("A", 1, 3))
    b = W.fingerprint(ModularData("A", 1, 5))
    assert W.coincidence_test(a, b) == "rank"
    assert W.coincidence_test(a, a) == "possible"


def test_closed_form_exponents_match_gauss_sums():
    for family, build in (
        ("so5", lambda p: ModularData("B", 2, p)),
        ("g2", lambda p: ModularData("G", 2, p)),
        ("so5_local_even", lambda p: local_category("B", 2, 2 * p)),
    ):
        for p in W.NUMERIC_RANGES[family]:
            t = W.closed_form_exponent(family, p) % 2
            want = cmath.exp(1j * math.pi * float(t))
            data = build(p)
            assert abs(data.gauss_sum_phase - want) < 1e-9, (family, p)


def test_so5_exponent_values():
    expect = {1: Fraction(5, 8), 2: Fraction(1), 3: Fraction(5, 4),
              4: Fraction(10, 7), 7: Fraction(7, 4), 12: Fraction(2)}
    for k, t in expect.items():
        assert W.closed_form_exponent("so5", k) == t
    assert ModularData("B", 2, 1).charge_angle().t == Fraction(5, 8)
    assert ModularData("B", 2, 2).gauss_sum_phase == pytest.approx(-1.0)


def test_g2_window_opens_at_25():
    sw = W.central_charge_sweep("g2", range(5, 41))
    assert W.WINDOWS["g2"] == (Fraction(3), Fraction(7, 2))
    for e in sw["entries"]:
        assert e["in_window"] == (e["param"] >= 25), e
    assert sw["first_in_window"] == 25
    # the boundary value is exactly 3, giving xi = -1
    edge = next(e for e in sw["entries"] if e["param"] == 24)
    assert edge["exponent"] == Fraction(3)
    assert edge["xi_real"] and not edge["xi_trivial"]


def test_so5_local_window_opens_at_7():
    sw = W.central_charge_sweep("so5_local_even", range(1, 21))
    for e in sw["entries"]:
        assert e["in_window"] == (e["param"] >= 7), e
    assert sw["first_in_window"] == 7
    # integer exponents happen exactly at m=1 (xi=-1) and m=6 (xi=1)
    flat = {e["param"]: e for e in sw["entries"]}
    assert flat[1]["xi_real"] and not flat[1]["xi_trivial"]
    assert flat[6]["xi_real"] and flat[6]["xi_trivial"]
    assert not any(e["xi_real"] for e in sw["entries"]
                   if e["param"] not in (1, 6))


def test_conformal_embeddings_additive():
    rows = W.verify_conformal_embeddings()
    assert len(rows) == 10
    for row in rows:
        assert row["matches"], row
        assert row["factor_charge"] == row["ambient_charge"]


def test_central_charge_fraction():
    assert W.central_charge_fraction("B", 2, 4) == Fraction(40, 7)
    assert W.central_charge_fraction("A", 1, 4) == Fraction(2)
    for series, rank, k in (("B", 2, 5), ("G", 2, 4), ("A", 2, 3)):
        md = ModularData(series, rank, k)
        assert md.central_charge == W.central_charge_fraction(series, rank, k)


def test_local_gauss_phase_matches_ambient():
    for series, rank, k in (("A", 1, 4), ("B", 2, 4), ("A", 2, 3)):
        loc = local_category(series, rank, k)
        assert abs(loc.gauss_sum_phase - loc.md.gauss_sum_phase) < 1e-9
