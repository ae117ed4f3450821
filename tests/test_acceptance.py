"""End-to-end acceptance sweep.

Each test pins the library's headline outputs to externally fixed
reference values at stated tolerances: alcove/local rank formulas, the
sl4 level-4 worked example, the dual-route fusion cross-check, exact
Gauss-sum phases, the csc^4 global-dimension identity, reference quantum
dimensions, the obstruction thresholds, subcategory lattices, internal
consistency residuals, and the Witt-fingerprint separation.

Where a reference value is not a published number it is derived inside
the test by a route independent of the code under test: the sl4 level-4
adjoint rank from the sl4 congruence class and the identity
dim C_ad = dim C / |C_pt| for a modular category, and the sl9 midweight
ratio from the sine closed form of the q-binomial.
"""

import math
import re
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from wzwcat import verifier as V
from wzwcat.alcove import make_alcove
from wzwcat.currents import CurrentGroup
from wzwcat.fusion import FusionTensor
from wzwcat.localmods import local_category
from wzwcat.modular import ModularData
from wzwcat.wittlab import (central_charge_sweep, closed_form_exponent,
                            coincidence_test, fingerprint)


def _idx(md, w):
    return md.alcove.index[tuple(w)]


# --- 1. rank formulas -------------------------------------------------

def test_so5_alcove_rank_formula():
    # triangular count of dominant weights under the level cut
    for k in range(1, 31):
        assert make_alcove("B", 2, k).rank == (k + 1) * (k + 2) // 2


def test_so5_local_rank_formula():
    for n in range(1, 21):
        loc = local_category("B", 2, 2 * n)
        assert loc.rank == (n + 1) * (n + 4) // 2


# --- 2. the sl4 level-4 worked example --------------------------------

def test_sl4_level4_ambient_and_center():
    md = ModularData("A", 3, 4)
    assert md.rank == 35
    cg = CurrentGroup(md)
    assert cg.group_id() == (4,)


def test_sl4_level4_unique_tannakian_subgroup():
    md = ModularData("A", 3, 4)
    cg = CurrentGroup(md)
    nontrivial = [s for s in cg.tannakian_subgroups() if len(s) > 1]
    assert len(nontrivial) == 1
    assert set(nontrivial[0]) == {0, _idx(md, (0, 4, 0))}
    # exact twists: +1 on the subgroup generator, -1 on the center generator
    assert cg.twist(_idx(md, (0, 4, 0))).t == Fraction(0)
    assert cg.twist(_idx(md, (4, 0, 0))).t == Fraction(1)


def test_sl4_level4_local_rank_and_pointed_part():
    loc = local_category("A", 3, 4)
    assert loc.rank == 14
    part = loc.pointed_part()
    assert part["rank"] == 2 and part["structure"] == (2,)
    # the nontrivial invertible is a semion-free boson/fermion pair: twist -1
    assert part["twists"] == (Fraction(0), Fraction(1))


def test_readme_example_runs_as_stated():
    # the python block under "Example" in README.md, and what its comments say
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    (block,) = re.findall(r"## Example\n\n```python\n(.*?)```", readme, re.S)
    ns = {}
    exec(block, ns)
    md, loc = ns["md"], ns["loc"]
    assert md.rank == 35
    assert md.central_charge == Fraction(15, 2)
    assert md.verlinde_residual() < 1e-12
    assert loc.rank == 14 and loc.pointed_part()["structure"] == (2,)


def test_sl4_level4_adjoint_rank_reference():
    # (orbit, split) of the adjoint simples over {0, (0,4,0)}: J^2 maps
    # (a,b,c) to (c, 4-a-b-c, a), the local orbits are those with
    # a = c (mod 2), and the fermion [(4,0,0)] centralizes exactly those
    # with (a + 2b + 3c)/4 integral -- four free orbits and both pieces of
    # (0,2,0) and of (2,0,2), but not of the fixed (1,1,1)
    ref = ([(((0, 0, 0), (0, 4, 0)), 1), (((0, 0, 4), (4, 0, 0)), 1),
            (((0, 1, 2), (2, 1, 0)), 1), (((1, 0, 1), (1, 2, 1)), 1)]
           + [(((0, 2, 0),), 2)] * 2 + [(((2, 0, 2),), 2)] * 2)
    loc = local_category("A", 3, 4)
    md = loc.md
    built = [(tuple(md.weights[x] for x in s.orbit), s.split)
             for s in loc.simples]
    assert all(built.count(x) >= ref.count(x) for x in ref)
    got = loc.adjoint_rank()
    assert got == len(ref) == 8, (
        f"built category has {got} adjoint-sector simples, derived 8")
    # C_ad is the centralizer of C_pt, so sum d^2 over C_ad equals
    # dim C_loc / |C_pt| = (dim C / |H|^2) / 2, and dropping any piece
    # (as a count of 7 would need) breaks the identity
    d2 = [(float(md.qdims[md.alcove.index[orbit[0]]]) / split) ** 2
          for orbit, split in ref]
    target = sum(float(d) ** 2 for d in md.qdims) / 4 / 2
    assert abs(sum(d2) - target) < 1e-9 * target
    for i in range(len(d2)):
        assert abs(sum(d2) - d2[i] - target) > 1e-9 * target


# --- 3. dual-route fusion cross-check ---------------------------------

SERIES = (("A", 1), ("A", 2), ("A", 3), ("A", 4),
          ("B", 2), ("B", 3), ("B", 4),
          ("C", 3), ("C", 4), ("D", 4), ("G", 2), ("F", 4))


def _small_alcove_cases(cap=60, series=SERIES):
    for s, r in series:
        k = 1
        while make_alcove(s, r, k).rank <= cap:
            yield s, r, k
            k += 1


def _permutation_matrix(perm):
    m = np.zeros((len(perm), len(perm)), dtype=int)
    m[np.arange(len(perm)), perm] = 1
    return m


def test_racah_matches_verlinde_everywhere_small():
    """Weight-system folding vs the S-matrix route, entry by entry.

    Over every (series, rank, level) with at most 60 simples the rounded
    Verlinde matrix must reproduce the folded fusion rules exactly, with
    pre-rounding residual under 1e-4.  The row of each simple current must
    also be the permutation of its affine Dynkin diagram action.
    """
    cases = list(_small_alcove_cases())
    assert len(cases) == 128
    worst = 0.0
    for s, r, k in cases:
        md = ModularData(s, r, k)
        actions = CurrentGroup(md).actions
        for i in range(md.rank):
            approx = md.verlinde_matrix(i)
            exact = md.fusion.matrix(i)
            resid = float(np.max(np.abs(approx - exact)))
            worst = max(worst, resid)
            rounded = np.rint(approx.real).astype(int)
            assert np.array_equal(rounded, exact), (s, r, k, i)
            if i in md.pointed_indices:
                assert np.array_equal(rounded,
                                      _permutation_matrix(actions[i])), \
                    (s, r, k, i)
    assert worst < 1e-4


def test_racah_matches_verlinde_d5_e6():
    """The same cross-check, current actions included, on D5 and E6 at
    every level with at most 36 simples."""
    cases = list(_small_alcove_cases(cap=36, series=(("D", 5), ("E", 6))))
    assert cases == [("D", 5, 1), ("D", 5, 2), ("D", 5, 3),
                     ("E", 6, 1), ("E", 6, 2), ("E", 6, 3)]
    for s, r, k in cases:
        md = ModularData(s, r, k)
        actions = CurrentGroup(md).actions
        for i in range(md.rank):
            approx = md.verlinde_matrix(i)
            exact = md.fusion.matrix(i)
            assert float(np.max(np.abs(approx - exact))) < 1e-4, (s, r, k, i)
            rounded = np.rint(approx.real).astype(int)
            assert np.array_equal(rounded, exact), (s, r, k, i)
            if i in md.pointed_indices:
                assert np.array_equal(rounded,
                                      _permutation_matrix(actions[i])), \
                    (s, r, k, i)


# --- 4. Gauss-sum phases ----------------------------------------------

def test_gauss_phase_so5_small_levels():
    md1 = ModularData("B", 2, 1)
    assert md1.charge_angle().t == Fraction(5, 8)
    assert abs(md1.gauss_sum_phase - np.exp(5j * np.pi / 8)) < 1e-9
    md2 = ModularData("B", 2, 2)
    assert abs(md2.gauss_sum_phase - (-1.0)) < 1e-9


def test_gauss_phase_so5_even_family():
    for m in range(1, 11):
        md = ModularData("B", 2, 2 * m)
        t = Fraction(5 * m, 2 * m + 3)
        assert md.charge_angle().t == t % 2
        assert abs(md.gauss_sum_phase - np.exp(1j * np.pi * float(t))) < 1e-9


def test_gauss_phase_g2_family():
    for k in range(1, 11):
        md = ModularData("G", 2, k)
        t = Fraction(7 * k, 2 * (k + 4))
        assert md.charge_angle().t == t % 2
        assert abs(md.gauss_sum_phase - np.exp(1j * np.pi * float(t))) < 1e-9


# --- 5. csc^4 global-dimension identity -------------------------------

def test_global_dim_csc4_identity():
    for n in range(2, 7):
        r = V.check_global_dim_identity(n)
        assert r["residual"] < 1e-9
        assert r["local_residual"] < 1e-9
        assert r["passed"]


def test_global_dim_identity_negative_control():
    assert not V.check_global_dim_identity(3, perturb=1e-3)["passed"]


def test_global_dim_identity_factor_of_four():
    # quoting the ambient closed form (N^2/4) csc^4 for the local side
    # misses by exactly 3/4 relative -- the two sides differ by the
    # order-2 quotient squared
    r = V.check_global_dim_identity(4)
    variant = (r["N"] ** 2 / 4.0) / math.sin(math.pi / r["N"]) ** 4
    rel = abs(r["local_side"] - variant) / variant
    assert abs(rel - 0.75) < 1e-9


# --- 6. reference quantum dimensions ----------------------------------

def _distinct(vals, tol):
    out = [vals[0]]
    for v in vals[1:]:
        if v - out[-1] > tol:
            out.append(v)
    return out


def test_so8_level8_smallest_distinct_qdims():
    d = np.sort(make_alcove("D", 4, 8).qdims)
    smallest = _distinct(list(d), 1e-3)[:3]
    assert smallest == pytest.approx([1.000, 5.494, 14.592], abs=1e-3)


def test_so5_small_level_qdims():
    d1 = sorted(make_alcove("B", 2, 1).qdims)
    assert d1 == pytest.approx([1.0, 1.0, math.sqrt(2.0)], abs=1e-9)
    d2 = sorted(make_alcove("B", 2, 2).qdims)
    assert len(d2) == 6
    assert any(abs(x - 2.0) < 1e-9 for x in d2)
    assert any(abs(x - math.sqrt(5.0)) < 1e-9 for x in d2)


# --- 7. obstruction thresholds ----------------------------------------

def test_typeA_midweight_ratio_large_n():
    for n in range(10, 19):
        ratio, exceeds = V.check_typeA_midweight_ratio(n, n)
        assert exceeds, (n, ratio)


def test_typeA_midweight_ratio_n9_reference():
    # dim(L4)/[9] = [8][7][6]/([4][3][2]), [m] = sin(m pi/18)/sin(pi/18),
    # is 7.29 < 9: the shortcut does not block (9, 9), the direct
    # non-free minimum does
    ratio, exceeds = V.check_typeA_midweight_ratio(9, 9)

    def q(m):
        return math.sin(m * math.pi / 18) / math.sin(math.pi / 18)

    closed = q(8) * q(7) * q(6) / (q(4) * q(3) * q(2))
    assert abs(ratio - closed) < 1e-9, (ratio, closed)
    assert closed < 9 and not exceeds, (ratio, exceeds)
    r = V.check_typeA_nonfree_minimum(9, 9)
    assert r["passed"] and r["ratio"] > 9, (
        f"(n,k)=(9,9) is not blocked: midweight ratio {ratio:.4f} and "
        f"direct non-free minimum ratio {r['ratio']} against threshold 9")


def test_typeA_n9_gap_covered_by_direct_minimum():
    # onset of the shortcut, then the direct bound at the two sub-onset
    # levels where fixed weights exist at all (3 | k)
    onset = min(k for k in range(9, 17)
                if V.check_typeA_midweight_ratio(9, k)[1])
    assert onset == 13
    for k in (9, 12):
        r = V.check_typeA_nonfree_minimum(9, k)
        assert r["passed"] and r["ratio"] > 9, r


def test_typeA_n8_reference_ratios():
    assert V.check_typeA_midweight_ratio(8, 8)[0] == pytest.approx(
        5.0115, abs=1e-2)
    assert V.check_typeA_midweight_ratio(8, 31)[0] == pytest.approx(
        8.0085, abs=1e-2)


def test_typeB_reference_case():
    r = V.check_typeB_threshold(3, 5)
    assert r["dim_beta"] == pytest.approx(4.0777, abs=1e-3)
    assert r["exceeds_4"]


def test_typeC_reference_cases():
    r3 = V.check_typeC_threshold(3, 3)
    assert r3["candidate_min"] == pytest.approx(5.6039, abs=1e-3)
    assert r3["exceeds_4"]
    r4 = V.check_typeC_threshold(4, 3)
    assert r4["exceeds_4"]


def test_typeD_reference_cases():
    for (n, k), m in {(5, 4): 5.4641, (5, 8): 18.1644, (4, 4): 5.2361,
                      (4, 10): 17.1644, (6, 8): 20.9932}.items():
        r = V.check_typeD_threshold(n, k)
        assert r["candidate_min"] == pytest.approx(m, abs=1e-3)
        assert r["candidate_min"] > 4


def test_e6_threshold_scan():
    r = V.check_E_series_thresholds("E6")
    assert r["first_level"] == 123
    window = dict(r["direct_window"])
    # the stated window opens at 60, but the level-60 value misses the
    # threshold by ~0.3%; every later multiple of 3 up to 120 clears it
    assert window[60] is False
    assert all(window[k] for k in range(63, 123, 3))


def test_e7_threshold_scan():
    r = V.check_E_series_thresholds("E7")
    assert r["onset_any_k"] == 15
    assert r["direct_window"] == ((4, True), (8, True), (12, True))


# --- 8. subcategory lattices ------------------------------------------

def test_subcategory_lattice_sizes():
    sizes = {("A", 3, 4): 6, ("B", 2, 1): 3, ("G", 2, 5): 2}
    for (s, r, k), n in sizes.items():
        lat = V.enumerate_fusion_subcategories(
            FusionTensor(make_alcove(s, r, k)))
        assert len(lat) == n
    lat = V.enumerate_fusion_subcategories(FusionTensor(make_alcove("A", 3, 4)))
    assert tuple(map(len, lat)) == (1, 2, 4, 10, 19, 35)


# --- 9. internal consistency residuals --------------------------------

LOCAL_CASES = ([("B", 2, 2 * n) for n in range(1, 11)]
               + [("A", 1, 4), ("A", 1, 8), ("A", 2, 3), ("A", 2, 6),
                  ("A", 3, 4), ("D", 4, 2)])

AMBIENT_CASES = (("A", 1, 8), ("A", 2, 5), ("A", 3, 4), ("B", 2, 6),
                 ("B", 3, 3), ("C", 3, 3), ("D", 4, 3), ("G", 2, 5),
                 ("F", 4, 2))


def test_local_dimension_closure():
    for s, r, k in LOCAL_CASES:
        loc = local_category(s, r, k)
        assert loc.closure_residual < 1e-6, (s, r, k)


def test_smatrix_unitarity():
    for s, r, k in AMBIENT_CASES:
        md = ModularData(s, r, k)
        assert md.smatrix_unitarity_residual < 1e-9, (s, r, k)


def test_balancing_reconstruction():
    # rebuild S from fusion, dims and twists:
    #   S_ij = sum_l N_{i* j}^l d_l theta_l / (D theta_i theta_j)
    for s, r, k in AMBIENT_CASES:
        md = ModularData(s, r, k)
        d = np.asarray(md.qdims, dtype=float)
        th = np.array([t.value() for t in md.twists])
        big_d = math.sqrt(float(np.sum(d * d)))
        rec = np.empty((md.rank, md.rank), dtype=complex)
        for i in range(md.rank):
            row = md.fusion.matrix(md.alcove.duals[i]).astype(float)
            rec[i] = (row @ (d * th)) / (big_d * th[i] * th)
        assert float(np.max(np.abs(rec - md.smatrix))) < 1e-8, (s, r, k)


# --- 10. Witt-fingerprint separation ----------------------------------

def test_g2_vs_so5_local_separated_by_charge():
    fa = fingerprint(ModularData("G", 2, 7))
    fb = fingerprint(local_category("B", 2, 8))
    # same rank 20 and compatible dimensions; only the charge separates
    assert fa.rank == fb.rank == 20
    assert coincidence_test(fa, fb) == "central_charge"
    assert closed_form_exponent("g2", 7) == Fraction(49, 22)
    assert closed_form_exponent("so5_local_even", 4) == Fraction(20, 11)


def test_g2_charge_window_sweep():
    r = central_charge_sweep("g2", range(5, 41))
    assert r["window"] == (Fraction(3), Fraction(7, 2))
    assert r["first_in_window"] == 25
    for e in r["entries"]:
        assert e["in_window"] == (e["param"] >= 25)
    edge = next(e for e in r["entries"] if e["param"] == 24)
    assert edge["exponent"] == Fraction(3) and edge["xi_real"]


def test_so5_local_charge_window_sweep():
    r = central_charge_sweep("so5_local_even", range(1, 21))
    assert r["window"] == (Fraction(2), Fraction(5, 2))
    assert r["first_in_window"] == 7
    for e in r["entries"]:
        assert e["in_window"] == (e["param"] >= 7)
