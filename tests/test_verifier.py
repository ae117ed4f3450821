import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from test_currents import stabilizer_order

from wzwcat import verifier as V
from wzwcat.alcove import Alcove, count_alcove, make_alcove
from wzwcat.currents import CurrentGroup
from wzwcat.fusion import FusionTensor
from wzwcat.modular import ModularData


def test_midweight_ratio_frozen_values():
    assert V.check_typeA_midweight_ratio(6, 6)[0] == pytest.approx(2.3660, abs=1e-3)
    assert V.check_typeA_midweight_ratio(6, 16)[0] == pytest.approx(3.0251, abs=1e-3)
    assert V.check_typeA_midweight_ratio(8, 8)[0] == pytest.approx(5.0115, abs=1e-3)
    assert V.check_typeA_midweight_ratio(8, 31)[0] == pytest.approx(8.0085, abs=1e-3)


def test_midweight_ratio_sweep_at_level_n():
    # the direct sweep clears n at k=n for 10..17 but not for n=9,
    # where the ratio is only ~7.29 and first passes at k=13
    for n in range(10, 18):
        assert V.check_typeA_midweight_ratio(n, n)[1]
    r, ok = V.check_typeA_midweight_ratio(9, 9)
    assert not ok
    assert r == pytest.approx(7.2909, abs=1e-3)
    onset = [k for k in range(9, 17) if V.check_typeA_midweight_ratio(9, k)[1]]
    assert onset[0] == 13
    vals = [V.check_typeA_midweight_ratio(9, k)[0] for k in range(9, 17)]
    assert vals == sorted(vals)


def test_nonfree_minimum_covers_sl9_gap():
    r = V.check_typeA_nonfree_minimum(9, 9)
    assert r["passed"]
    assert r["min_weight"] == (0, 3, 0, 0, 3, 0, 0, 3)
    assert r["min_dim"] == pytest.approx(70280.637, rel=1e-5)
    assert r["ratio"] > 9
    assert V.check_typeA_nonfree_minimum(9, 12)["passed"]
    # no current fixes anything at level 10, so the check is vacuous
    r10 = V.check_typeA_nonfree_minimum(9, 10)
    assert r10["candidates"] == 0 and r10["passed"]
    r48 = V.check_typeA_nonfree_minimum(4, 8)
    assert r48["min_weight"] == (0, 4, 0)
    assert r48["min_dim"] == pytest.approx(20.392, abs=1e-3)


def test_typeB_threshold():
    r = V.check_typeB_threshold(3, 5)
    assert r["dim_beta"] == pytest.approx(4.0777, abs=1e-3)
    assert r["bracket_residual"] < 1e-12
    assert r["exceeds_4"]
    # level 1: dim(vector) = [6]+[1] at altitude 6 is 2, well under 4
    assert not V.check_typeB_threshold(3, 1)["exceeds_4"]


def test_typeC_threshold():
    r3 = V.check_typeC_threshold(3, 3)
    assert r3["dim_corner_mid"] is None
    assert r3["candidate_min"] == pytest.approx(5.6039, abs=1e-3)
    assert r3["exceeds_4"]
    r4 = V.check_typeC_threshold(4, 3)
    assert r4["dim_beta"] == pytest.approx(8.1097, abs=1e-3)
    assert r4["dim_corner_mid"] == pytest.approx(10.0547, abs=1e-3)
    assert r4["exceeds_4"]
    with pytest.raises(ValueError):
        V.check_typeC_threshold(2, 3)


def test_typeD_thresholds():
    expect = {
        (5, 4): (5.4641, 5.0), (5, 8): (18.1644, 18.0),
        (4, 4): (5.2361, 5.0), (4, 10): (17.1644, 16.0),
        (6, 8): (20.9932, 16.0),
    }
    for (n, k), (m, bar) in expect.items():
        r = V.check_typeD_threshold(n, k)
        assert r["candidate_min"] == pytest.approx(m, abs=1e-3)
        assert r["candidate_min"] > bar
    # odd level: only the dominant root competes
    r = V.check_typeD_threshold(5, 3)
    assert r["dim_half_vector"] is None and r["dim_half_spinor"] is None


def test_e6_scan():
    r = V.check_E_series_thresholds("E6")
    assert r["center_order"] == 3
    assert r["first_level"] == 123
    assert r["onset_any_k"] == 123
    window = dict(r["direct_window"])
    assert window[60] is False          # misses by ~0.3%
    assert all(window[k] for k in range(63, 123, 3))


def test_e7_scan():
    r = V.check_E_series_thresholds("E7")
    assert r["center_order"] == 2
    assert r["onset_any_k"] == 15
    assert r["first_level"] == 16       # first even level past onset
    assert r["direct_window"] == ((4, True), (8, True), (12, True))


def test_global_dim_identity():
    for n in range(2, 7):
        r = V.check_global_dim_identity(n)
        assert r["passed"], r
        assert r["residual"] < 1e-12
        assert r["local_residual"] < 1e-12
        assert r["N"] == 2 * n + 3
    # shifting N inside the csc must break both equalities
    assert not V.check_global_dim_identity(2, perturb=1e-3)["passed"]
    with pytest.raises(ValueError):
        V.check_global_dim_identity(1)


def test_sl4_census_closed_form():
    for m in (1, 2, 3):
        r = V.check_sl4_fixed_census(m)
        assert r["fixed_weight"] == (2 * m, 2 * m, 2 * m)
        assert r["halffixed_local_count"] == 2 * m + 1
        assert r["nonfree_local_simples"] == 2 * m + 4
        assert r["rank_gap_holds"]
    r = V.check_sl4_fixed_census(1)
    assert r["rank_lower_bound"] == Fraction(55)
    assert r["exceptional_rank_cap"] == Fraction(9)


def test_sl4_census_numeric():
    r = V.check_sl4_fixed_census(1, numeric=True)["numeric"]
    assert r["rank"] == 16
    assert r["fixed_matches"]
    assert r["halffixed_matches"]
    assert r["nonfree_count"] == 6
    assert r["nonfree_matches"]
    assert r["rank_exceeds_cap"]


def test_obstruction_blocked_vacuously():
    # odd level so7: the Tannakian subgroup is trivial, nothing is fixed
    r = V.check_factorization_obstruction("B", 3, 5)
    assert r.verdict == V.VERDICT_BLOCKED
    assert r.min_nonfree_dim == math.inf
    assert r.subgroup == ((0, 0, 0),)
    assert r.beta == (1, 0, 0)
    assert r.beta_free_simple


def test_obstruction_open_sl4_level2():
    r = V.check_factorization_obstruction("A", 3, 2)
    assert r.verdict == V.VERDICT_OPEN
    assert r.center_order == 4
    assert r.dim_beta == pytest.approx(2.0)
    assert r.min_nonfree_dim == pytest.approx(2.0)
    assert not r.beta_free_simple      # the adjoint is itself fixed


def test_obstruction_report_fields():
    r = V.check_factorization_obstruction("B", 3, 4)
    assert r.subgroup == ((0, 0, 0), (4, 0, 0))
    assert r.dim_beta == pytest.approx(3.5321, abs=1e-3)
    assert r.min_nonfree_dim == pytest.approx(3.7588, abs=1e-3)
    # explicit subgroup by weights, and validation of bad ones
    same = V.check_factorization_obstruction(
        "B", 3, 4, subgroup=[(0, 0, 0), (4, 0, 0)])
    assert same.subgroup == r.subgroup
    with pytest.raises(ValueError, match="invertible"):
        V.check_factorization_obstruction("B", 3, 4, subgroup=[(0, 0, 0), (1, 0, 0)])
    with pytest.raises(ValueError, match="Tannakian"):
        V.check_factorization_obstruction("B", 3, 5, subgroup=[(0, 0, 0), (5, 0, 0)])


def _reference_obstruction(series, rank, k, subgroup="auto"):
    """The report by the current group alone: H from maximal_tannakian or
    check_tannakian, and each weight's stabilizer counted over H."""
    md = ModularData(series, rank, k)
    cg = CurrentGroup(md)
    if subgroup == "auto":
        sub = cg.maximal_tannakian()
    else:
        by_weight = {md.weights[j]: j for j in cg.indices}
        sub = cg.check_tannakian([by_weight[tuple(w)] for w in subgroup])
    b = V.probe_weight(md.rs)
    bi = md.alcove.index[b]
    nonfree = [i for i in range(md.rank) if stabilizer_order(cg, sub, i) > 1]
    dim_beta = float(md.qdims[bi])
    mind = min((float(md.qdims[i]) for i in nonfree), default=math.inf)
    return V.ObstructionReport(
        series=series, rank=rank, k=k,
        subgroup=tuple(md.weights[j] for j in sub),
        center_order=cg.order,
        beta=b,
        beta_free_simple=stabilizer_order(cg, sub, bi) == 1,
        dim_beta=dim_beta,
        min_nonfree_dim=mind,
        inequality_holds=mind * mind > cg.order ** 2 * dim_beta,
    )


@pytest.mark.parametrize("series, rank, k, subgroup", [
    ("B", 3, 4, "auto"), ("B", 3, 5, "auto"),
    ("B", 3, 4, [(0, 0, 0), (4, 0, 0)]),
    ("A", 3, 8, "auto"), ("D", 4, 4, "auto"), ("D", 4, 8, "auto"),
    ("D", 5, 4, "auto"), ("C", 4, 3, "auto"), ("A", 5, 6, "auto"),
    ("E", 6, 3, "auto"), ("E", 7, 2, "auto"), ("G", 2, 5, "auto"),
    ("D", 6, 2, "auto"),
])
def test_obstruction_report_matches_current_group_route(series, rank, k,
                                                        subgroup):
    # the report reads H and its orbits from the local census; the current
    # group's own Tannakian choice and stabilizers give the same report
    assert V.check_factorization_obstruction(series, rank, k, subgroup) \
        == _reference_obstruction(series, rank, k, subgroup)


def test_obstruction_probe_needs_room():
    with pytest.raises(ValueError, match="level"):
        V.check_factorization_obstruction("A", 3, 1)


def test_subcategory_lattices():
    lat = V.enumerate_fusion_subcategories(FusionTensor(make_alcove("A", 3, 4)))
    assert len(lat) == 6
    assert tuple(map(len, lat)) == (1, 2, 4, 10, 19, 35)
    # total order under inclusion
    for a in range(len(lat) - 1):
        assert set(lat[a]) <= set(lat[a + 1])
    assert len(V.enumerate_fusion_subcategories(
        FusionTensor(make_alcove("B", 2, 1)))) == 3
    g2 = V.enumerate_fusion_subcategories(FusionTensor(make_alcove("G", 2, 5)))
    assert len(g2) == 2
    assert tuple(map(len, g2)) == (1, 12)


def _rescanning_closure(ft, seed):
    # the closure as first written: rescan every pair of members, and dualise
    # every member, until a pass adds nothing
    duals = ft.alcove.duals.tolist()
    members = {0} | set(seed)
    changed = True
    while changed:
        changed = False
        for i in sorted(members):
            d = duals[i]
            if d not in members:
                members.add(d)
                changed = True
        snapshot = sorted(members)
        for a in snapshot:
            for b in snapshot:
                if b < a:
                    continue
                for l in ft.row(a, b):
                    if l not in members:
                        members.add(l)
                        changed = True
    return tuple(sorted(members))


def _closure(ft, seed, closed, known) -> tuple:
    """Smallest unit-containing, dual- and fusion-closed superset of seed
    and of closed, which is closed, layer by layer: each new member is
    dualised once and multiplied once with every member, itself included.
    known maps simples to their closures; one that holds every member
    replaces them unread."""
    duals = ft.alcove.duals.tolist()
    members, layer = set(closed), {0, *seed}
    while layer := layer - members:
        held = [known[a] for a in layer
                if a in known and members.issubset(known[a])]
        if held:
            members = set(max(held, key=len))
            continue
        fresh = set()
        for a in layer:
            members.add(a)
            fresh.add(duals[a])
            for b in members:
                fresh.update(ft.row(a, b))
        layer = fresh
    return tuple(sorted(members))


def _search_lattice(ft) -> tuple:
    # the lattice as a search: the closures of single simples, joined
    # pairwise to a fixpoint, each round joining only pairs with a member
    # new in the last
    r = ft.alcove.rank
    if r > V.LATTICE_RANK_CAP:
        raise V.CapacityError(
            f"alcove rank {r} exceeds lattice cap {V.LATTICE_RANK_CAP}")
    known = {}
    for i in range(r):
        known[i] = _closure(ft, (i,), (), known)
    found = fresh = set(known.values())
    while fresh:
        fresh = {_closure(ft, *sorted((ca, cb), key=len), known)
                 for ca, cb in itertools.combinations(found, 2)
                 if (ca in fresh or cb in fresh)
                 and not (set(ca) <= set(cb) or set(cb) <= set(ca))} - found
        found |= fresh
    return tuple(sorted(found, key=lambda e: (len(e), e)))


_LATTICE_TYPES = ([("A", n) for n in range(1, 8)]
                  + [("B", n) for n in range(2, 6)]
                  + [("C", n) for n in range(3, 6)]
                  + [("D", n) for n in range(4, 8)]
                  + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)])
# every alcove of at most LATTICE_RANK_CAP simples at levels 1..10; the
# fold route refuses E8 at levels 5..7 (CapacityError)
_LATTICE_CASES = [(s, n, k) for s, n in _LATTICE_TYPES for k in range(1, 11)
                  if count_alcove(s, n, k) <= V.LATTICE_RANK_CAP]
_REFUSED = [("E", 8, 5), ("E", 8, 6), ("E", 8, 7)]


def test_lattice_cases():
    assert len(_LATTICE_CASES) == 101
    assert set(_REFUSED) <= set(_LATTICE_CASES)


@pytest.mark.parametrize("series, rank, k", _LATTICE_CASES)
def test_centralizer_lattice_matches_search(series, rank, k):
    # the intersections of centralizers against the closure-and-join search
    ft = FusionTensor(make_alcove(series, rank, k))
    if (series, rank, k) in _REFUSED:
        with pytest.raises(V.CapacityError):
            V.enumerate_fusion_subcategories(ft)
        with pytest.raises(V.CapacityError):
            _search_lattice(ft)
        return
    assert V.enumerate_fusion_subcategories(ft) == _search_lattice(ft)


def _s_centralizer(md, subset, tol=1e-6):
    """{b : S_xb / S_0b = d_x for every x in subset}, read from S alone,
    with the largest gap of a member and the smallest of a non-member."""
    s, d = md.smatrix, md.qdims
    idx = list(subset)
    gap = np.abs(s[idx] / s[0] - d[idx, None]).max(axis=0)
    members = tuple(np.flatnonzero(gap < tol).tolist())
    inside = float(gap[gap < tol].max())
    outside = float(gap[gap >= tol].min(initial=np.inf))
    return members, inside, outside


@pytest.mark.parametrize("series, rank, k", [
    ("A", 3, 4), ("D", 4, 3), ("B", 4, 2), ("D", 6, 2), ("A", 1, 3),
    ("F", 4, 2), ("G", 2, 5), ("B", 2, 3)])
def test_lattice_centralizers_through_s(series, rank, k):
    # Mueger's D'' = D and dim D dim D' = dim C, with D' read from the
    # S-matrix, which no fusion row feeds
    md = ModularData(series, rank, k)
    lat = V.enumerate_fusion_subcategories(md.fusion)
    dim = {e: float(np.sum(md.qdims[list(e)] ** 2)) for e in lat}
    worst_in, least_out, worst_dim = 0.0, np.inf, 0.0
    for e in lat:
        c, in1, out1 = _s_centralizer(md, e)
        assert c in dim
        cc, in2, out2 = _s_centralizer(md, c)
        assert cc == e
        worst_in = max(worst_in, in1, in2)
        least_out = min(least_out, out1, out2)
        worst_dim = max(worst_dim,
                        abs(dim[e] * dim[c] - md.global_dim) / md.global_dim)
    print(f"{series}{rank} k{k}: member gap <= {worst_in:.1e}, "
          f"non-member gap >= {least_out:.3g}, dim defect {worst_dim:.1e}")
    assert worst_in < 1e-12 and least_out > 0.1
    assert worst_dim < 1e-9


def _index(alc, *weights):
    return [alc.index[w] for w in weights]


@pytest.mark.parametrize("series, rank, k, x", [
    ("E", 7, 2, (0, 0, 0, 0, 0, 1, 0)), ("A", 1, 3, (2,))])
def test_fibonacci_subcategories(series, rank, k, x):
    # {1, x} with x x = 1 + x, so d^2 = d + 1 and d is the golden ratio
    ft = FusionTensor(make_alcove(series, rank, k))
    alc = ft.alcove
    zero, x = _index(alc, (0,) * rank, x)
    assert ft.row(x, x) == {zero: 1, x: 1}
    assert alc.qdims[x] == pytest.approx((1 + math.sqrt(5)) / 2, abs=1e-12)
    assert (zero, x) in V.enumerate_fusion_subcategories(ft)


@pytest.mark.parametrize("series, rank, k, current, x", [
    # so(2n+1) and so(2n) at level 2: the dimension-2 simples Y_i satisfy
    # Y_i Y_i = 1 + J + Y_min(2i, N - 2i) for N = 2n+1 resp. 2n, so Y_i
    # closes with 1 and J = 2 omega_1 where 3i = N: Y_3 = omega_3 of B4
    # (N = 9) and Y_4 = omega_4 of D6 (N = 12)
    ("B", 4, 2, (2, 0, 0, 0), (0, 0, 1, 0)),
    ("D", 6, 2, (2, 0, 0, 0, 0, 0), (0, 0, 0, 1, 0, 0))])
def test_rep_s3_subcategories(series, rank, k, current, x):
    # {1, J, x} of Rep(S3) type: J J = 1, J x = x, x x = 1 + J + x, so
    # dims (1, 1, 2) from d^2 = 2 + d
    ft = FusionTensor(make_alcove(series, rank, k))
    alc = ft.alcove
    zero, j, x = _index(alc, (0,) * rank, current, x)
    assert ft.row(j, j) == {zero: 1}
    assert ft.row(j, x) == {x: 1}
    assert ft.row(x, x) == {zero: 1, j: 1, x: 1}
    assert alc.qdims[[zero, j, x]] == pytest.approx([1, 1, 2], abs=1e-12)
    assert tuple(sorted((zero, j, x))) in V.enumerate_fusion_subcategories(ft)


@pytest.mark.parametrize("series, rank, k, before", [
    ("D", 4, 3, 6024), ("G", 2, 9, 13952)])
def test_lattice_reads_fewer_rows(series, rank, k, before):
    # rows the lattice search reads, _assert_closed included, against the
    # count when every closure started from nothing (before)
    ft = FusionTensor(make_alcove(series, rank, k))
    rows, row = [], ft.row
    ft.row = lambda i, j: rows.append((i, j)) or row(i, j)
    V.enumerate_fusion_subcategories(ft)
    assert len(rows) < before


@pytest.mark.parametrize("series, rank, k", [
    ("A", 3, 4), ("D", 4, 2), ("G", 2, 5), ("B", 2, 3), ("E", 8, 2)])
def test_lattice_is_complete(series, rank, k):
    # closed under single-simple closures and under joins of two elements,
    # both taken with the rescanning reference
    ft = FusionTensor(make_alcove(series, rank, k))
    lat = V.enumerate_fusion_subcategories(ft)
    members = set(lat)
    assert len(members) == len(lat)
    for i in range(ft.alcove.rank):
        assert _rescanning_closure(ft, (i,)) in members
    for a, b in itertools.combinations(lat, 2):
        assert _rescanning_closure(ft, a + b) in members


def test_lattice_capacity():
    with pytest.raises(V.CapacityError):
        V.enumerate_fusion_subcategories(FusionTensor(make_alcove("A", 1, 50)))


@pytest.mark.parametrize("k", [5, 6, 7])
def test_oversized_full_table_is_refused_before_any_fold(k, monkeypatch):
    # E8 at k = 5, 6, 7 has at most 40 simples, but its table needs a
    # weight system over DIMENSION_CAP: both readers of the full table
    # refuse it before folding a single point
    def fold(self, mu):
        raise AssertionError("folded before the capacity check")

    monkeypatch.setattr(Alcove, "fold", fold)
    with pytest.raises(V.CapacityError, match="exceeds"):
        next(FusionTensor(make_alcove("E", 8, k)).triples())
    with pytest.raises(V.CapacityError, match="exceeds"):
        V.enumerate_fusion_subcategories(FusionTensor(make_alcove("E", 8, k)))
