"""Mechanical case analysis: factorization obstructions, dimension
thresholds, rank censuses, fusion-subcategory lattices as intersections of
centralizers, and the named check suites (thm1_checks, witt_checks) that
`wzwcat verify` runs.

Family threshold checks run on closed-form quantum dimensions and exact
twists, so they stay fast even at levels (E6 at k=123) where alcove
enumeration would be hopeless.  Obstruction reports do build the modular
data, because identifying the invertibles and their fixed points is the
point of the exercise.
"""
from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import wittlab
from .alcove import make_alcove, qint, quantum_dimensions
from .fusion import FusionTensor
from .localmods import LocalCategoryData
from .modular import ModularData, RationalAngle
from .rootsys import CapacityError, build_root_system

VERDICT_BLOCKED = "no_exceptional_factorization_possible"
VERDICT_OPEN = "inconclusive"
E_SCAN_LIMIT = 150         # last level of the E6/E7 threshold scans
LATTICE_RANK_CAP = 40      # largest alcove whose subcategory lattice is built


def _omega(rank: int, i: int, mult: int = 1) -> tuple:
    """mult * lambda_i as Dynkin labels (i is 1-based)."""
    w = [0] * rank
    w[i - 1] = mult
    return tuple(w)


def probe_weight(rs) -> tuple:
    # the dominant root for the simply laced types, the short dominant root
    # for B and C
    if rs.series == "B":
        return _omega(rs.rank, 1)
    if rs.series == "C":
        return _omega(rs.rank, 2)
    return rs.root_labels(rs.highest_root)


@dataclass(frozen=True)
class ObstructionReport:
    """Numeric obstruction to an exceptional tensor factorization of the
    local-module category: every factor would consist of non-free simples,
    so a small free probe cannot factor once every non-free dimension is
    large against dim(beta)."""

    series: str
    rank: int
    k: int
    subgroup: tuple          # weights of the Tannakian subgroup H
    center_order: int        # order of the full group of invertibles
    beta: tuple
    beta_free_simple: bool
    dim_beta: float
    min_nonfree_dim: float   # inf when H fixes nothing
    inequality_holds: bool   # min_nonfree^2 > |Z|^2 dim(beta)

    @property
    def verdict(self) -> str:
        return VERDICT_BLOCKED if self.inequality_holds else VERDICT_OPEN


def check_factorization_obstruction(series: str, rank: int, k: int,
                                    subgroup="auto") -> ObstructionReport:
    """Build the modular data, locate H and its fixed alcove points, and
    compare the smallest non-free dimension against |Z|^2 dim(beta)."""
    md = ModularData(series, rank, k)
    sub = None
    if subgroup != "auto":
        by_weight = {md.weights[j]: j for j in md.pointed_indices}
        try:
            sub = [by_weight[tuple(w)] for w in subgroup]
        except KeyError as bad:
            raise ValueError(f"subgroup weight is not invertible: {bad}")
    loc = LocalCategoryData(md, subgroup=sub)
    b = probe_weight(md.rs)
    if md.rs.level(b) > k:
        raise ValueError(
            f"probe {b} needs level >= {md.rs.level(b)}; k={k} is too small")
    bi = md.alcove.index[b]
    # i is fixed by some current of H when its H-orbit is shorter than |H|
    fixed = {i for o in loc.orbits if len(o) < loc.subgroup_order for i in o}
    dim_beta = float(md.qdims[bi])
    mind = min((float(md.qdims[i]) for i in fixed), default=math.inf)
    return ObstructionReport(
        series=series, rank=rank, k=k,
        subgroup=tuple(md.weights[j] for j in loc.subgroup),
        center_order=loc.currents.order,
        beta=b,
        beta_free_simple=bi not in fixed,
        dim_beta=dim_beta,
        min_nonfree_dim=mind,
        inequality_holds=mind * mind > loc.currents.order ** 2 * dim_beta,
    )


def _qbinomial(n: int, m: int, ell: int) -> float:
    """Quantum binomial [n choose m] at altitude ell."""
    v = 1.0
    for i in range(1, m + 1):
        v *= qint(n - m + i, ell) / qint(i, ell)
    return v


def check_typeA_midweight_ratio(n: int, k: int):
    """dim(lambda_{n//2})/[n] for sl_n at level k, and whether it exceeds n.

    Fundamental-weight dimensions of sl_n are q-binomials, so the ratio
    needs no root system or alcove.
    """
    if n < 4 or k < 1:
        raise ValueError("midweight ratio wants n >= 4 and k >= 1")
    ell = k + n
    ratio = _qbinomial(n, n // 2, ell) / qint(n, ell)
    return ratio, ratio > n


def _compositions(total: int, parts: int):
    # weak compositions via stars and bars
    for cut in itertools.combinations(range(total + parts - 1), parts - 1):
        prev, out = -1, []
        for c in cut + (total + parts - 1,):
            out.append(c - prev - 1)
            prev = c
        yield tuple(out)


def check_typeA_nonfree_minimum(n: int, k: int) -> dict:
    """Smallest dimension among non-free weights of sl_n at level k,
    against the blocking threshold n*[n].

    A weight is non-free exactly when a nontrivial current fixes it, i.e.
    when its affine Dynkin labels are periodic with a proper period p | n;
    such weights exist iff (n/p) | k.  Enumerating the periodic label
    patterns directly keeps this cheap even when the alcove is huge.

    The midweight shortcut (dim of the middle fundamental over [n]) can
    clear n later than level n: for sl9 it first does so at k=13, so
    levels 9 and 12 need this direct minimum instead.
    """
    if n < 2 or k < 1:
        raise ValueError("non-free minimum wants n >= 2 and k >= 1")
    lams = [tuple(pat[j % p] for j in range(1, n))
            for p in range(1, n) if n % p == 0 and k * p % n == 0
            for pat in _compositions(k * p // n, p)]
    vec = qint(n, k + n)
    out = {"n": n, "k": k, "candidates": len(lams),
           "threshold": n * vec, "vector_dim": vec}
    if not lams:
        out.update(min_dim=None, min_weight=None, ratio=None, passed=True)
    else:
        dims = quantum_dimensions(build_root_system("A", n - 1), k, lams)
        best = int(dims.argmin())       # the first of equal minima
        d = float(dims[best])
        out.update(min_dim=d, min_weight=lams[best],
                   ratio=d / vec, passed=d / vec > n)
    return out


def check_typeB_threshold(n: int, k: int) -> dict:
    """Vector-weight dimension of so(2n+1) at level k against 4.

    Also reports the two-term closed form [2n]+[1] at altitude k+h_dual,
    which the positive-root product must reproduce.
    """
    rs = build_root_system("B", n)
    beta = _omega(n, 1)
    d = float(quantum_dimensions(rs, k, [beta])[0])
    bracket = qint(2 * n, k + rs.h_dual) + 1.0
    return {"n": n, "k": k, "beta": beta, "dim_beta": d,
            "bracket_form": bracket,
            "bracket_residual": abs(d - bracket),
            "exceeds_4": d > 4.0}


def check_typeC_threshold(n: int, k: int) -> dict:
    """Candidate non-free dimensions for sp(2n) at level k against 4.

    Candidates: the short dominant root lambda_2 always; the corner
    k*lambda_{n/2} additionally when n is even (the only multiple of a
    fundamental weight whose free module can decompose).
    """
    if n < 3:
        raise ValueError("type C threshold wants n >= 3")
    rs = build_root_system("C", n)
    beta = _omega(n, 2)
    lams = [beta] + ([_omega(n, n // 2, k)] if n % 2 == 0 else [])
    cands = quantum_dimensions(rs, k, lams).tolist()
    dim_beta, dim_mid = (cands + [None])[:2]
    m = min(cands)
    return {"n": n, "k": k, "beta": beta, "dim_beta": dim_beta,
            "dim_corner_mid": dim_mid, "candidate_min": m,
            "exceeds_4": m > 4.0}


def check_typeD_threshold(n: int, k: int) -> dict:
    """Candidate non-free dimensions for so(2n) at level k.

    Candidates: the dominant root lambda_2 always; (k/2)*lambda_1 when k
    is even; (k/2)*lambda_{n-1} when n and k are both even.  The minimum
    is compared against 4 (|H|=2) and 16 (|H|=4) by the callers.
    """
    if n < 4:
        raise ValueError("type D threshold wants n >= 4")
    rs = build_root_system("D", n)
    beta = rs.root_labels(rs.highest_root)
    lams = [beta]
    if k % 2 == 0:
        lams.append(_omega(n, 1, k // 2))
        if n % 2 == 0:
            lams.append(_omega(n, n - 1, k // 2))
    cands = quantum_dimensions(rs, k, lams).tolist()
    dim_beta, dhv, dhs = (cands + [None, None])[:3]
    m = min(cands)
    return {"n": n, "k": k, "beta": beta, "dim_beta": dim_beta,
            "dim_half_vector": dhv, "dim_half_spinor": dhs,
            "candidate_min": m}


def check_E_series_thresholds(series: str) -> dict:
    """Level scan for the E6/E7 obstruction inequality.

    Compares dim(probe)^2 against |Z|^2 times the classical adjoint
    dimension (a valid upper bound for the quantum one) over the levels
    carrying a Tannakian subgroup, and runs direct quantum-adjoint
    comparisons over the windows below the classical threshold.

    The E6 direct window is open at its lower edge: at k = 60 the
    inequality dim(probe)^2 > 9 dim(adjoint) misses by about 0.3%, so
    that level belongs with the small-level cases (3 <= k <= 60) that
    need the full per-level obstruction analysis; the direct comparison
    holds for every 3|k with 60 < k < 123.
    """
    if series == "E6":
        rank, center, classical, step = 6, 3, 78, 3
        probe, adjoint = _omega(6, 1), _omega(6, 2)
        direct_levels = tuple(range(60, 123, 3))
    elif series == "E7":
        rank, center, classical, step = 7, 2, 133, 4
        probe, adjoint = _omega(7, 7), _omega(7, 1)
        direct_levels = (4, 8, 12)
    else:
        raise ValueError(f"unknown E-series label {series!r}")
    rs = build_root_system("E", rank)

    @functools.cache
    def classical_pass(k):
        d = float(quantum_dimensions(rs, k, [probe])[0])
        return d * d > center ** 2 * classical

    scan = tuple((k, classical_pass(k))
                 for k in range(step, E_SCAN_LIMIT + 1, step))
    first_level = next((k for k, ok in scan if ok), None)
    onset_any_k = next(
        (k for k in range(1, E_SCAN_LIMIT + 1) if classical_pass(k)), None)
    direct = []
    for k in direct_levels:
        dp, da = quantum_dimensions(rs, k, [probe, adjoint]).tolist()
        direct.append((k, dp ** 2 > center ** 2 * da))
    return {"series": series, "center_order": center,
            "probe": probe, "adjoint": adjoint,
            "classical_adjoint_dim": classical,
            "first_level": first_level, "onset_any_k": onset_any_k,
            "scan": scan, "direct_window": tuple(direct)}


def check_global_dim_identity(n: int, perturb: float = 0.0) -> dict:
    """Closed form for the global dimension of so(2n+1) at level 4.

    With N = 2n+3, the ambient global dimension equals
    (N^2/4) csc^4(pi/N); a quarter of it -- the global dimension of the
    local-module category over the order-2 Tannakian subgroup -- equals
    the squared global dimension of the integer-spin half of the sl2
    level-(2n+1) alcove, i.e. (N^2/16) csc^4(pi/N).  Both equalities are
    checked, the second against an independently built sl2 alcove.

    perturb shifts N inside the csc only -- a negative control that must
    break the identity.
    """
    if n < 2:
        raise ValueError("identity check wants n >= 2")
    g = ModularData("B", n, 4).global_dim
    big_n = 2 * n + 3
    csc4 = 1.0 / math.sin(math.pi / (big_n + perturb)) ** 4
    rhs = (big_n * big_n / 4.0) * csc4
    residual = abs(g - rhs) / rhs
    # A1 weights (j,) sit at alcove index j: the even ones
    ad_dim = float((make_alcove("A", 1, 2 * n + 1).qdims[::2] ** 2).sum())
    local_residual = abs(g / 4.0 - ad_dim ** 2) / ad_dim ** 2
    return {"n": n, "N": big_n, "global_dim": g, "closed_form": rhs,
            "residual": residual,
            "local_side": g / 4.0, "sl2_adjoint_dim_sq": ad_dim ** 2,
            "local_residual": local_residual,
            "passed": residual < 1e-9 and local_residual < 1e-9}


def check_sl4_fixed_census(m: int, numeric: bool = False) -> dict:
    """Census of non-free local simples of sl4 at level 8m over the full
    Z/4 current group, with the rank gap that rules out an exceptional
    factorization.

    Exact content: the weights fixed by the order-2 current are
    (a, 4m-a, a), locally admissible iff a is even (2m+1 of them).  One of
    these, 2m(1,1,1) at a=2m, is fixed by the full Z/4 and contributes 4
    split pieces; the other 2m pair off into m two-element orbits
    contributing 2 pieces each, so non-free local simples number 2m+4.
    An exceptional factorization caps the rank at (2m+4)^2/4, far below
    the alcove-size lower bound (8m+2)(8m+3)(8m+4)/24.
    """
    if m < 1:
        raise ValueError("census wants m >= 1")
    k = 8 * m
    fixed_weight = (2 * m, 2 * m, 2 * m)
    halffixed_local = tuple((a, 4 * m - a, a) for a in range(0, 4 * m + 1, 2))
    nonfree_local_simples = 2 * m + 4
    rank_lower = Fraction((8 * m + 2) * (8 * m + 3) * (8 * m + 4), 24)
    rank_cap = Fraction((2 * m + 4) ** 2, 4)
    out = {"m": m, "k": k, "fixed_weight": fixed_weight,
           "halffixed_local_count": len(halffixed_local),
           "nonfree_local_simples": nonfree_local_simples,
           "rank_lower_bound": rank_lower,
           "exceptional_rank_cap": rank_cap,
           "rank_gap_holds": rank_lower > rank_cap}
    if numeric:
        loc = LocalCategoryData(ModularData("A", 3, k))
        assert loc.subgroup_order == 4
        split4 = {s.orbit for s in loc.simples if s.split == 4}
        split2 = {s.orbit for s in loc.simples if s.split == 2}
        md = loc.md
        observed_fixed = {md.weights[o[0]] for o in split4}
        # split2 holds the strictly half-fixed orbits; the a=2m weight
        # sits in split4, so both buckets together give the (a,4m-a,a) list
        observed_half = sorted(
            md.weights[i] for orb in split2 | split4 for i in orb)
        nonfree_count = sum(1 for s in loc.simples if s.split > 1)
        out["numeric"] = {
            "rank": loc.rank,
            "fixed_matches": observed_fixed == {fixed_weight},
            "halffixed_matches": observed_half == sorted(halffixed_local),
            "nonfree_count": nonfree_count,
            "nonfree_matches": nonfree_count == nonfree_local_simples,
            "rank_exceeds_cap": loc.rank > rank_cap,
        }
    return out


def _assert_closed(ft: FusionTensor, subset: tuple):
    assert 0 in subset
    s = set(subset)
    for i in subset:
        assert ft.alcove.duals[i] in s
    for a in subset:
        for b in subset:
            if b < a:
                continue
            assert set(ft.row(a, b)) <= s


def enumerate_fusion_subcategories(ft: FusionTensor) -> tuple:
    """Every fusion subcategory (unit-containing, dual- and fusion-closed
    set of simples) as a sorted tuple of alcove indices, ordered by (size,
    members).  In a modular category every subcategory is its own double
    centralizer (Mueger, Proc. LMS 87, 2003), so the subcategories are
    exactly the intersections of the centralizers {x}' of single simples,
    the whole category being the empty one.  b centralizes x when
    theta_c = theta_x theta_b for every c in x b, the balancing axiom read
    exactly on the twist numerators; each row i <= j is read once.
    """
    r = ft.alcove.rank
    if r > LATTICE_RANK_CAP:
        raise CapacityError(
            f"alcove rank {r} exceeds lattice cap {LATTICE_RANK_CAP}")
    ft.check_full_table()
    nums, period = ft.alcove.twist_numerators
    t = nums.tolist()
    cent = [0] * r          # bitmask of {x}'
    for i in range(r):
        for j in range(i, r):
            if all((t[c] - t[i] - t[j]) % (2 * period) == 0
                   for c in ft.row(i, j)):
                cent[i] |= 1 << j
                cent[j] |= 1 << i
    found = {(1 << r) - 1}
    for c in cent:
        found |= {f & c for f in found}
    order = sorted((tuple(i for i in range(r) if f >> i & 1) for f in found),
                   key=lambda e: (len(e), e))
    for e in order:
        _assert_closed(ft, e)
    return tuple(order)


# ---------------------------------------------------------------------------
# check suites: (family, level, name, check) rows, run by `wzwcat verify`


_eseries = functools.cache(check_E_series_thresholds)

# the categories whose Gauss phases the closed-form exponents predict
_GAUSS_FAMILIES = {
    "so5": lambda k: ModularData("B", 2, k),
    "g2": lambda k: ModularData("G", 2, k),
    "so5_local_even": lambda m: LocalCategoryData(ModularData("B", 2, 2 * m)),
}


def _phases_match(family: str) -> bool:
    """Closed-form xi against the Gauss sum over wittlab.NUMERIC_RANGES."""
    build = _GAUSS_FAMILIES[family]
    return all(
        abs(build(p).gauss_sum_phase
            - RationalAngle(wittlab.closed_form_exponent(family, p)).value())
        < 1e-9 for p in wittlab.NUMERIC_RANGES[family])


def _suite(rows) -> list:
    # fresh dicts on every call, so a caller may rewrap each "fn"
    return [{"family": family, "level": level, "name": name, "fn": fn}
            for family, level, name, fn in rows]


def thm1_checks() -> list:
    """The factorization-obstruction checks behind Theorem 1."""
    return _suite((
        *(("A", n, f"type A midweight ratio exceeds n at (n,k)=({n},{n})",
           lambda n=n: check_typeA_midweight_ratio(n, n)[1])
          for n in range(10, 19)),
        ("A", 9, "type A n=9 midweight ratio first exceeds 9 at k=13",
         lambda: [k for k in range(9, 17)
                  if check_typeA_midweight_ratio(9, k)[1]][0] == 13),
        ("A", 9, "type A n=9 non-free minimum blocks levels 9 and 12",
         lambda: all(check_typeA_nonfree_minimum(9, k)["passed"]
                     for k in (9, 12))),
        ("A", 31, "type A n=8 ratio exceeds 8 at k=31",
         lambda: check_typeA_midweight_ratio(8, 31)[0] > 8),
        ("A", 8, "sl4 level-8 fixed-point census matches the closed form",
         lambda: all(check_sl4_fixed_census(1, numeric=True)["numeric"][key]
                     for key in ("fixed_matches", "halffixed_matches",
                                 "nonfree_matches", "rank_exceeds_cap"))),
        ("B", 5, "type B dim(beta) exceeds 4 at so7 level 5",
         lambda: check_typeB_threshold(3, 5)["exceeds_4"]),
        ("B", 5, "type B bracket form matches the product formula",
         lambda: check_typeB_threshold(3, 5)["bracket_residual"] < 1e-9),
        ("B", 5, "so7 level 5 factorization verdict is blocked",
         lambda: check_factorization_obstruction("B", 3, 5).verdict
         == VERDICT_BLOCKED),
        *(("C", 3, f"type C candidate minimum exceeds 4 at sp{2*n} level 3",
           lambda n=n: check_typeC_threshold(n, 3)["exceeds_4"])
          for n in (3, 4)),
        *(("D", k, f"type D candidate minimum exceeds {thr} at so{2*n} "
           f"level {k}",
           lambda n=n, k=k, thr=thr:
           check_typeD_threshold(n, k)["candidate_min"] > thr)
          for n, k, thr in ((5, 4, 5), (5, 8, 18), (4, 4, 5), (4, 10, 16),
                            (6, 8, 16))),
        *(("B", 4, f"level-4 so({2*n+1}) global dim matches csc^4 closed form",
           lambda n=n: check_global_dim_identity(n)["passed"])
          for n in range(2, 7)),
        ("E6", 123, "E6 classical threshold onset at level 123",
         lambda: _eseries("E6")["first_level"] == 123
         and _eseries("E6")["onset_any_k"] == 123),
        ("E6", 63, "E6 direct window holds strictly inside (60,123)",
         lambda: all(ok for k, ok in _eseries("E6")["direct_window"]
                     if k != 60)
         and not dict(_eseries("E6")["direct_window"])[60]),
        ("E7", 15, "E7 classical threshold onset at level 15",
         lambda: _eseries("E7")["onset_any_k"] == 15),
        ("E7", 4, "E7 direct checks pass at levels 4, 8, 12",
         lambda: all(ok for _, ok in _eseries("E7")["direct_window"])),
    ))


def witt_checks() -> list:
    """The Gauss-phase and central-charge checks behind the Witt relations."""
    return _suite((
        ("so5", 12, "so5 closed-form xi matches Gauss sums, k=1..12",
         lambda: _phases_match("so5")),
        ("g2", 10, "g2 closed-form xi matches Gauss sums, k=1..10",
         lambda: _phases_match("g2")),
        ("so5", 14, "so5 local xi equals the ambient xi, k=2..14 even",
         lambda: _phases_match("so5_local_even")),
        ("g2", 40, "g2 charge window (3,7/2) is exactly k>=25",
         lambda: all(e["in_window"] == (e["param"] >= 25) for e in
                     wittlab.central_charge_sweep("g2", range(5, 41))
                     ["entries"])),
        ("so5", 40, "so5 local charge window (2,5/2) is exactly m>=7",
         lambda: all(e["in_window"] == (e["param"] >= 7) for e in
                     wittlab.central_charge_sweep("so5_local_even",
                                                  range(1, 21))["entries"])),
        ("emb", 1, "conformal embedding central charges are additive",
         lambda: all(e["matches"]
                     for e in wittlab.verify_conformal_embeddings())),
        ("g2", 7, "rank-20 pair g2 level 7 / so5 level 8 local excluded "
         "by central charge",
         lambda: wittlab.coincidence_test(
             wittlab.fingerprint(ModularData("G", 2, 7)),
             wittlab.fingerprint(LocalCategoryData(ModularData("B", 2, 8))))
         == "central_charge"),
    ))
