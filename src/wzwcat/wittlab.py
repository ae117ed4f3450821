"""Witt-class fingerprints and the coincidence-exclusion procedure.

A fingerprint bundles the cheap invariants of a braided fusion category
that any braided (or braid-reversing) equivalence must preserve: rank,
multiplicative central charge, dimension and twist multisets, self-dual
object count, pointed rank, multiplicity-freeness.  coincidence_test
applies them as necessary-condition filters; the verdict "possible"
never asserts that an equivalence exists.

The closed-form table carries exact central-charge exponents for the
rank-2 families, together with the open intervals used to separate the
families: the g2 exponent 7k/(2k+8) lies in (3, 7/2) exactly when
k >= 25 (it equals 3 at k = 24, the lone candidate level with real
central charge), and the even-level so5 local exponent 5m/(2m+3) lies
in (2, 5/2) exactly when m >= 7.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .localmods import LocalCategoryData
from .modular import ModularData, central_charge
from .rootsys import build_root_system

_DIM_TOL = 1e-6


@dataclass(frozen=True)
class WittFingerprint:
    """Invariant bundle for one braided category."""

    label: str
    rank: int
    charge_exponent: Fraction          # t with xi = exp(i pi t), mod 2
    dim_multiset: tuple                # sorted floats
    twist_multiset: tuple              # exact exponents mod 2, sorted
    self_dual_count: int
    pointed_rank: int
    multiplicity_free: bool | None     # None: not decidable from the data

    def __post_init__(self):
        assert self.rank == len(self.dim_multiset) == len(self.twist_multiset)
        assert tuple(sorted(self.dim_multiset)) == tuple(self.dim_multiset)
        assert tuple(sorted(self.twist_multiset)) == tuple(self.twist_multiset)

    @property
    def central_charge(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.charge_exponent))

    def reverse(self) -> "WittFingerprint":
        """Fingerprint of the braid-reversed category (twists negated)."""
        return WittFingerprint(
            label=self.label + " rev",
            rank=self.rank,
            charge_exponent=(-self.charge_exponent) % 2,
            dim_multiset=self.dim_multiset,
            twist_multiset=tuple(sorted((-x) % 2 for x in self.twist_multiset)),
            self_dual_count=self.self_dual_count,
            pointed_rank=self.pointed_rank,
            multiplicity_free=self.multiplicity_free)


def fingerprint(data) -> WittFingerprint:
    """Fingerprint of a full alcove category or of a local-module census.

    For local data the central charge is inherited from the ambient
    category: passing to local modules over a Tannakian subgroup does
    not change the Witt class, hence not the charge.  Multiplicity
    freeness is left undecided for local data because the census does
    not resolve Hom spaces between split pieces.
    """
    local = isinstance(data, LocalCategoryData)
    if not local and not isinstance(data, ModularData):
        raise TypeError(f"cannot fingerprint {type(data).__name__}")
    md = data.md if local else data
    return WittFingerprint(
        label=f"C({md.rs.name},{md.k})" + (" local" if local else ""),
        rank=data.rank,
        charge_exponent=md.charge_angle().t,
        dim_multiset=tuple(sorted(float(q) for q in data.qdims)),
        twist_multiset=tuple(sorted(a.t for a in data.twists)),
        self_dual_count=data.self_dual_count() if local
        else sum(i == d for i, d in enumerate(data.alcove.duals.tolist())),
        pointed_rank=len(data.pointed_indices),
        multiplicity_free=None if local else data.fusion.is_multiplicity_free())


def _charge_orientations(a: WittFingerprint, b: WittFingerprint):
    """Which of braided (+1) / braid-reversing (-1) matches the charges."""
    ta, tb = a.charge_exponent, b.charge_exponent
    out = []
    if ta % 2 == tb % 2:
        out.append(1)
    if ta % 2 == (-tb) % 2:
        out.append(-1)
    return tuple(out)


def coincidence_test(a: WittFingerprint, b: WittFingerprint) -> str:
    """First invariant that rules out an equivalence, or "possible".

    Both orientations are tried throughout: a braided equivalence needs
    equal charges and twists, a braid-reversing one conjugate charges
    and twists.  Returns one of {rank, multiplicity_pattern,
    central_charge, twist_multiset, dim_multiset, self_dual_count,
    possible}.
    """
    if a.rank != b.rank:
        return "rank"
    if (a.multiplicity_free is not None and b.multiplicity_free is not None
            and a.multiplicity_free != b.multiplicity_free):
        return "multiplicity_pattern"
    orientations = _charge_orientations(a, b)
    if not orientations:
        return "central_charge"
    twists_b = {1: b.twist_multiset, -1: b.reverse().twist_multiset}
    if all(a.twist_multiset != twists_b[o] for o in orientations):
        return "twist_multiset"
    if any(abs(x - y) > _DIM_TOL
           for x, y in zip(a.dim_multiset, b.dim_multiset)):
        return "dim_multiset"
    if a.self_dual_count != b.self_dual_count:
        return "self_dual_count"
    return "possible"


# ---------------------------------------------------------------------------
# closed forms for central charges of the rank-2 families


def central_charge_fraction(series: str, rank: int, k: int) -> Fraction:
    """Exact c = k dim(g)/(k+h_dual), no alcove needed."""
    return central_charge(build_root_system(series, rank), k)


def closed_form_exponent(family: str, param: int) -> Fraction:
    """Charge exponent t (xi = exp(i pi t)) as an exact fraction.

    Families: "so5" (param = level k), "g2" (param = level k),
    "so5_local_even" (param = m for level 2m, where the local category
    over the order-2 Tannakian subgroup keeps the ambient charge).
    """
    if family == "so5":
        return Fraction(5 * param, 2 * param + 6)
    if family == "g2":
        return Fraction(7 * param, 2 * param + 8)
    if family == "so5_local_even":
        return Fraction(5 * param, 2 * param + 3)
    raise ValueError(f"unknown closed-form family {family!r}")


#: open exponent windows used by the separation arguments
WINDOWS = {
    "so5": (Fraction(2), Fraction(5, 2)),
    "g2": (Fraction(3), Fraction(7, 2)),
    "so5_local_even": (Fraction(2), Fraction(5, 2)),
}

#: parameter ranges over which the closed forms are cross-checked
#: against numeric Gauss sums by the test suite
NUMERIC_RANGES = {
    "so5": range(1, 13),
    "g2": range(1, 11),
    "so5_local_even": range(1, 8),
}


def central_charge_sweep(family: str, params) -> dict:
    """Closed-form exponent table with window membership per parameter.

    xi_real flags integer exponents (xi = +-1, the only candidates for
    an order-<=2 Witt class); xi_trivial flags even integers (xi = 1).
    """
    if family not in WINDOWS:
        raise ValueError(f"unknown closed-form family {family!r}")
    lo, hi = WINDOWS[family]
    entries = []
    for p in params:
        t = closed_form_exponent(family, p)
        entries.append({
            "param": p,
            "exponent": t,
            "in_window": lo < t < hi,
            "xi_real": t.denominator == 1,
            "xi_trivial": t.denominator == 1 and t.numerator % 2 == 0,
        })
    first = next((e["param"] for e in entries if e["in_window"]), None)
    return {"family": family, "window": (lo, hi),
            "entries": tuple(entries), "first_in_window": first}


# ---------------------------------------------------------------------------
# conformal embeddings: a static table of known level-1 embeddings, each
# carrying the exact additivity of central charges as a checkable fact


CONFORMAL_EMBEDDINGS = (
    ((("B", 2, 2),), ("A", 4, 1)),
    ((("B", 2, 3),), ("D", 5, 1)),
    ((("B", 2, 7),), ("D", 7, 1)),
    ((("B", 2, 12),), ("E", 8, 1)),
    ((("G", 2, 3),), ("E", 6, 1)),
    ((("G", 2, 4),), ("D", 7, 1)),
    ((("A", 1, 7), ("G", 2, 2)), ("E", 7, 1)),
    ((("B", 2, 4), ("A", 1, 5)), ("C", 5, 1)),
    ((("B", 3, 4), ("A", 1, 7)), ("C", 7, 1)),
    ((("D", 7, 4), ("A", 1, 14)), ("C", 14, 1)),
)


def verify_conformal_embeddings() -> tuple:
    """Exact central-charge additivity for every tabulated embedding."""
    out = []
    for factors, ambient in CONFORMAL_EMBEDDINGS:
        total = sum((central_charge_fraction(*f) for f in factors),
                    Fraction(0))
        amb = central_charge_fraction(*ambient)
        out.append({"factors": factors, "ambient": ambient,
                    "factor_charge": total, "ambient_charge": amb,
                    "matches": total == amb})
    return tuple(out)
