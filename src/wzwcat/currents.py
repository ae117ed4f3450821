"""Invertible simple objects and their fusion group.

The invertibles of a level-k alcove form a finite abelian group acting on
all simples by fusion.  Candidates are spotted by quantum dimension 1 and
then *verified*: the fusion row of each candidate must round to an honest
permutation of the alcove (Verlinde route), so nothing here relies on
affine-diagram folklore.  Closed-form actions are used only as cross-checks
in the test suite.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .modular import ModularData, RationalAngle

_PERM_TOL = 1e-4


class NotInvertibleError(ValueError):
    pass


def current_action(md: ModularData, j: int) -> tuple:
    """Permutation p with p[i] = index of X_j (x) X_i; error if X_j is not
    invertible (row fails to round to a permutation matrix)."""
    v = md.verlinde_matrix(j)
    rounded = np.rint(v.real).astype(np.int64)
    if np.max(np.abs(v - rounded)) > _PERM_TOL:
        raise NotInvertibleError(f"index {j}: fusion row is not integral")
    n = md.rank
    perm = [-1] * n
    for i in range(n):
        targets = np.nonzero(rounded[i])[0]
        if len(targets) != 1 or rounded[i, targets[0]] != 1:
            raise NotInvertibleError(f"index {j}: row {i} not a permutation")
        perm[i] = int(targets[0])
    if sorted(perm) != list(range(n)):
        raise NotInvertibleError(f"index {j}: action not bijective")
    return tuple(perm)


def invariant_factors(orders) -> tuple:
    """Invariant factors, largest first, of a finite abelian group given
    the multiset of its element orders.

    For a prime p with cyclic p-factors of exponents e_1, e_2, ..., the
    elements of order dividing p^e number p^c(e), c(e) = sum_i min(e_i, e).
    So c(e) - c(e-1) factors have exponent at least e, and each of the
    c(e) - c(e-1) largest invariant factors takes one more p.
    """
    orders = tuple(orders)
    factors, rest, p = [], len(orders), 2
    while rest > 1:
        below, q = 0, 1
        while rest % p == 0:           # q = p^e for e up to v_p(|G|)
            rest, q = rest // p, q * p
            count = sum(1 for m in orders if q % m == 0)
            c = round(math.log(count, p))
            if p ** c != count:
                raise ValueError("element orders do not form an abelian group")
            wide = c - below           # factors with p-exponent >= e
            factors += [1] * (wide - len(factors))
            factors[:wide] = [f * p for f in factors[:wide]]
            below = c
        p += 1
    if math.prod(factors) != len(orders):
        raise ValueError("element orders do not form an abelian group")
    return tuple(factors)


@dataclass
class CurrentGroup:
    """The group of invertibles with its alcove action.

    ``indices`` always starts with 0 (the unit).  ``actions[j]`` is the
    fusion permutation of the current with alcove index j.
    """

    md: ModularData
    indices: tuple = field(init=False)
    actions: dict = field(init=False)

    def __post_init__(self):
        self.indices = self.md.pointed_indices
        self.actions = {j: current_action(self.md, j) for j in self.indices}
        assert self.indices[0] == 0
        for j in self.indices:
            # closure: J (x) J' must land back in the group
            for i in self.indices:
                if self.actions[j][i] not in self.indices:
                    raise AssertionError("invertibles not closed under fusion")

    @property
    def order(self) -> int:
        return len(self.indices)

    def product(self, a: int, b: int) -> int:
        """Alcove index of X_a (x) X_b for group members a, b."""
        return self.actions[a][b]

    def element_order(self, j: int) -> int:
        n, x = 1, j
        while x != 0:
            x = self.product(j, x)
            n += 1
        return n

    def group_id(self) -> tuple:
        """Invariant factors of the group, largest first."""
        return invariant_factors(self.element_order(j) for j in self.indices)

    def twist(self, j: int) -> RationalAngle:
        return self.md.twists[j]

    def subgroups(self) -> list:
        """All subgroups, as sorted index tuples (unit always included)."""
        rest = [j for j in self.indices if j != 0]
        found = {(0,)}
        for r in range(1, len(rest) + 1):
            for extra in combinations(rest, r):
                sub = (0,) + extra
                if all(self.product(a, b) in sub for a in sub for b in sub):
                    found.add(tuple(sorted(sub)))
        return sorted(found, key=lambda s: (len(s), s))

    def tannakian_subgroups(self) -> list:
        """Subgroups with every twist exactly 1.

        With all twists trivial the braiding form theta(gh)/theta(g)theta(h)
        is trivial too, so the subcategory is symmetric with positive
        braiding -- Tannakian in the pseudounitary setting.
        """
        return [s for s in self.subgroups()
                if all(self.twist(j).is_trivial for j in s)]

    def maximal_tannakian(self) -> tuple:
        """Largest Tannakian subgroup; ties broken lexicographically."""
        cands = self.tannakian_subgroups()
        best = max(len(s) for s in cands)
        return min(s for s in cands if len(s) == best)

    def check_tannakian(self, subgroup) -> tuple:
        """subgroup as a sorted index tuple, or ValueError unless it is a
        fusion-closed set of invertibles with every twist trivial."""
        sub = tuple(sorted(subgroup))
        if any(j not in self.indices for j in sub):
            raise ValueError("subgroup contains non-invertible indices")
        if any(self.product(a, b) not in sub for a in sub for b in sub):
            raise ValueError("subgroup is not closed under fusion")
        bad = [j for j in sub if not self.twist(j).is_trivial]
        if bad:
            raise ValueError(f"subgroup is not Tannakian; twists != 1 at {bad}")
        return sub

    def orbit(self, subgroup: tuple, i: int) -> tuple:
        """H-orbit of alcove index i, sorted."""
        return tuple(sorted({self.actions[h][i] for h in subgroup}))

    def stabilizer_order(self, subgroup: tuple, i: int) -> int:
        return sum(1 for h in subgroup if self.actions[h][i] == i)
