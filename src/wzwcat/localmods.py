"""Local modules over the regular algebra of a Tannakian current subgroup.

A weight orbit under the subgroup H supports local modules exactly when its
monodromy charge with every current of H is 0; for H Tannakian that is the
exact twist being constant along the orbit.  A free orbit of size |H| gives
one simple; an orbit with stabilizer of order s splits into s simples of
equal dimension.  Data of individual split pieces beyond dimension and twist
(fixed-point resolution) is deliberately out of scope; aggregate quantities
never need it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .currents import (POINTED_TOL, CurrentGroup, cycle_length,
                       invariant_factors, monodromy_charges, orbit_reps)
from .modular import ModularData, RationalAngle, gauss_phase


@dataclass(frozen=True)
class LocalSimple:
    orbit: tuple          # alcove indices, sorted
    rep: int              # smallest index in the orbit
    qdim: float           # dimension of this piece
    twist: RationalAngle
    split: int            # number of pieces over this orbit (= stabilizer order)
    piece: int            # 0 .. split-1


class LocalCategoryData:
    """Census of the modular category of local modules C(g,k)_R^0."""

    def __init__(self, md: ModularData, subgroup=None, currents=None):
        self.md = md
        self.currents = currents if currents is not None else CurrentGroup(md)
        if subgroup is None:
            subgroup = self.currents.maximal_tannakian()
        self.subgroup = self.currents.check_tannakian(subgroup)
        self._build()

    def _build(self):
        md, cg, sub = self.md, self.currents, self.subgroup
        # one row per current of H; column i is the H-orbit of i
        acts = np.array([cg.actions[h] for h in sub])
        local = ~monodromy_charges(md, acts).any(axis=0)
        self._rep, heads, _ = orbit_reps(acts, np.arange(md.rank))
        self.orbits = tuple(tuple(sorted(set(acts[:, i].tolist())))
                            for i in heads)
        self.local_orbits = tuple(o for o in self.orbits if local[o[0]])
        simples = []
        for orb in self.local_orbits:
            split = len(sub) // len(orb)
            rep = orb[0]
            d = float(md.qdims[rep]) / split
            twist = md.twist(rep)
            for piece in range(split):
                simples.append(LocalSimple(orb, rep, d, twist, split, piece))
        self.simples = tuple(simples)

    @property
    def subgroup_order(self) -> int:
        return len(self.subgroup)

    @property
    def local_weight_count(self) -> int:
        return sum(len(o) for o in self.local_orbits)

    @property
    def rank(self) -> int:
        return len(self.simples)

    @property
    def qdims(self):
        return [s.qdim for s in self.simples]

    @property
    def twists(self):
        return [s.twist for s in self.simples]

    @property
    def global_dim(self) -> float:
        return self.md.global_dim / self.subgroup_order ** 2

    @property
    def closure_residual(self) -> float:
        """Relative defect of sum(d^2) against dim(C)/|H|^2."""
        total = sum(d * d for d in self.qdims)
        return abs(total - self.global_dim) / self.global_dim

    @property
    def gauss_sum_phase(self) -> complex:
        """Normalized Gauss sum; equals the ambient phase."""
        nums, period = self.md.twist_numerators
        return gauss_phase(self.qdims, nums[[s.rep for s in self.simples]],
                           period)

    @property
    def pointed_indices(self) -> tuple:
        return tuple(i for i, s in enumerate(self.simples)
                     if abs(s.qdim - 1.0) < POINTED_TOL)

    @property
    def pointed_rank(self) -> int:
        return len(self.pointed_indices)

    def pointed_part(self) -> dict:
        """Group structure and twists of the invertible simples.

        Free invertibles multiply as simple currents: the rep of each is a
        simple current, so a product is the orbit rep of the current's
        action on the other rep.  Split pieces cannot be multiplied
        individually here, so when any occur the structure is deduced from
        the order and the twist quadratic form; None means the deduction
        was inconclusive.
        """
        pointed = [self.simples[i] for i in self.pointed_indices]
        twists = tuple(sorted(s.twist.t for s in pointed))
        if any(s.split > 1 for s in pointed):
            structure = _deduce_abelian_structure(len(pointed), twists)
        else:
            acts = self.currents.actions
            structure = invariant_factors(
                cycle_length(self._rep[list(acts[s.rep])]) for s in pointed)
        return {"rank": len(pointed), "structure": structure,
                "twists": twists}

    def adjoint_rank(self) -> int:
        """Rank of the trivial component of the grading by invertibles.

        Counts simples whose monodromy charge with every invertible is 0.
        Split pieces inherit their orbit's charge.  Raises if some invertible
        is itself a split piece, since grading by those would need fixed-point
        resolution.
        """
        pointed = [self.simples[i] for i in self.pointed_indices]
        if any(s.split > 1 for s in pointed):
            raise ValueError("pointed part contains split pieces; "
                             "orbit-level grading is not resolvable")
        acts = self.currents.actions
        charges = monodromy_charges(self.md, [acts[p.rep] for p in pointed])
        return sum(not charges[:, s.rep].any() for s in self.simples)

    def self_dual_count(self) -> int:
        """Simples fixed by duality at orbit level; split pieces count with
        their orbit (equal-split convention)."""
        duals = self.md.alcove.duals
        return sum(tuple(sorted(duals[list(s.orbit)].tolist())) == s.orbit
                   for s in self.simples)

    def census(self) -> dict:
        """Plain serializable summary."""
        md = self.md
        return {
            "subgroup": [list(md.weights[j]) for j in self.subgroup],
            "subgroup_order": self.subgroup_order,
            "local_weight_count": self.local_weight_count,
            "rank": self.rank,
            "pointed_rank": self.pointed_rank,
            "global_dim": self.global_dim,
            "closure_residual": self.closure_residual,
            "simples": [
                {
                    "orbit": [list(md.weights[x]) for x in s.orbit],
                    "qdim": s.qdim,
                    "twist": [s.twist.t.numerator, s.twist.t.denominator],
                    "split": s.split,
                    "piece": s.piece,
                }
                for s in self.simples
            ],
        }


def _deduce_abelian_structure(n: int, twists) -> tuple | None:
    """Best-effort structure of a pointed part that contains split pieces.

    Every abelian group of square-free order is cyclic.  Otherwise the
    twist is a quadratic form q on the group: q(m*x) = m^2 q(x).  For
    order 4 that pins the multiset {0, t, 4t, 9t} for a Z/4 generator t;
    when no t fits, the group is Z/2 x Z/2.
    """
    if all(n % (p * p) for p in range(2, math.isqrt(n) + 1)):
        return (n,)
    if n == 4:
        observed = sorted(Fraction(t) % 2 for t in twists)
        for t in observed:
            if sorted([Fraction(0), t, (4 * t) % 2, (9 * t) % 2]) == observed:
                return None  # Z/4 consistent; cannot decide here
        return (2, 2)
    return None


def local_category(series: str, rank: int, k: int,
                   subgroup=None) -> LocalCategoryData:
    return LocalCategoryData(ModularData(series, rank, k), subgroup=subgroup)
