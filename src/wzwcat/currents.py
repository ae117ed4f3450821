"""Simple currents of the level-k alcove and their fusion group.

A current J = k omega_n, for a node n of mark 1, acts on the alcove by an
automorphism of the affine Dynkin diagram, J.lambda = k omega_n +
w0^(n) w0 lambda, where w0 lambda = -lambda* and w0^(n) is the longest
element of the Levi subgroup without node n.  Every simple current of a
WZW model is of this kind except the one at E8 level 2 (Fuchs, Simple WZW
currents, CMP 136, 1991), which takes its action from the fold route.
The currents form the centre, cyclic or Z2 x Z2, so Alcove.current_actions
walks only generators, and subgroups and invariant_factors know only these
groups.  No action reads the S-matrix; check_action checks each exactly,
where it is built.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .modular import ModularData, RationalAngle

POINTED_TOL = 1e-6     # |d - 1| below this marks an invertible simple


class NotInvertibleError(ValueError):
    pass


def current_action(md: ModularData, j: int) -> tuple:
    """Permutation p with p[i] = index of X_j (x) X_i, checked where it is
    built; NotInvertibleError if X_j is not a simple current."""
    acts = md.alcove.current_actions
    row = np.flatnonzero(acts[:, 0] == j)
    if len(row):
        perm = acts[row[0]]
    elif abs(md.qdims[j] - 1.0) < POINTED_TOL:     # E8 level 2
        perm = np.array([next(iter(md.fusion.row(j, i)))
                         for i in range(md.rank)])
        check_action(md, j, perm)
    else:
        raise NotInvertibleError(
            f"index {j}: quantum dimension {md.qdims[j]:.12g} is not 1")
    return tuple(perm.tolist())


def cycle_length(perm) -> int:
    """Length of the cycle of a permutation through 0: for the action of
    a current, its order."""
    n, x = 1, perm[0]
    while x != 0:
        x, n = perm[x], n + 1
    return n


def monodromy_charges(x, perms) -> np.ndarray:
    """2P Q_J(lambda) for every alcove index lambda, as the int64 array
    (T_J + T - T[perm]) mod 2P for perm the action of J = perm[0], or for
    each row of a stack of actions.  Q_J(lambda) = h_J + h_lambda - h_{J
    lambda} mod 1 is the monodromy charge, from the exact twist numerators
    of x, an Alcove or ModularData (h = T / 2P mod 1)."""
    t, period = x.twist_numerators
    p = np.asarray(perms)
    return (t[p[..., :1]] + t - t[p]) % (2 * period)


def orbit_reps(acts, rank) -> tuple:
    """(rep, reps, move) for the orbits of the currents whose actions are
    the rows of the (|H|, n) array acts: rep[i] is the member of least
    rank[.] in column i, the orbit of i, reps the sorted reps, and move[i]
    the last row taking rep[i] to i (S's phase on a current-fixed weight,
    where S is about 0, depends on which row)."""
    n = acts.shape[1]
    rep = acts[np.asarray(rank)[acts].argmin(axis=0), np.arange(n)]
    move = len(acts) - 1 - (acts[::-1, rep] == np.arange(n)).argmax(axis=0)
    return rep, np.flatnonzero(rep == np.arange(n)), move


def check_action(x, j: int, perm) -> None:
    """AssertionError unless perm is a bijection of the alcove that sends
    the unit to j, keeps quantum dimensions, and has N Q_J(lambda) integral
    for every lambda, N the order of J; x is an Alcove or ModularData."""
    p = np.asarray(perm, dtype=np.int64)
    if p[0] != j or not np.array_equal(np.sort(p), np.arange(x.rank)):
        raise AssertionError(f"action of index {j} is not a bijection "
                             "sending the unit to it")
    q = x.qdims
    gap = float(np.max(np.abs(q[p] - q) / q))
    if gap >= POINTED_TOL:
        raise AssertionError(f"action of index {j} changes a quantum "
                             f"dimension by {gap:.1e} relative")
    period = x.twist_numerators[1]
    if (cycle_length(p) * monodromy_charges(x, p) % (2 * period)).any():
        raise AssertionError(f"action of index {j} breaks the monodromy "
                             "charge")


def invariant_factors(orders) -> tuple:
    """Invariant factors, largest first, of a current group given the
    multiset of its element orders: (n,) when some element has order
    n = |G|, (2, 2) for Z2 x Z2 and () for the trivial group, the only
    groups that occur (see CurrentGroup.subgroups); ValueError otherwise."""
    orders = sorted(orders)
    if orders == [1]:
        return ()
    if orders[-1] == len(orders):
        return (len(orders),)
    if orders == [1, 2, 2, 2]:
        return (2, 2)
    raise ValueError("element orders of neither a cyclic group nor Z2 x Z2")


@dataclass
class CurrentGroup:
    """The group of invertibles with its alcove action.

    ``indices`` are the simples of quantum dimension 1 and always start
    with 0 (the unit).  ``actions[j]`` is the fusion permutation of the
    current with alcove index j.
    """

    md: ModularData
    indices: tuple = field(init=False)
    actions: dict = field(init=False)

    def __post_init__(self):
        self.indices = self.md.pointed_indices
        self.actions = {j: current_action(self.md, j) for j in self.indices}
        assert self.indices[0] == 0
        if self.generated(self.indices) != self.indices:
            raise AssertionError("invertibles not closed under fusion")

    @property
    def order(self) -> int:
        return len(self.indices)

    def element_order(self, j: int) -> int:
        return cycle_length(self.actions[j])

    def group_id(self) -> tuple:
        """Invariant factors of the group, largest first."""
        return invariant_factors(self.element_order(j) for j in self.indices)

    def twist(self, j: int) -> RationalAngle:
        return self.md.twist(j)

    def generated(self, gens) -> tuple:
        """The indices reached from the unit by the actions of gens, sorted:
        the subgroup they generate when they are currents."""
        sub, layer = {0}, [0]
        while layer:
            layer = {self.actions[g][i] for g in gens for i in layer} - sub
            sub |= layer
        return tuple(sorted(sub))

    def subgroups(self) -> list:
        """All subgroups, as sorted index tuples (unit always included):
        the one generated by each current, and the whole group.  The group
        is cyclic or Z2 x Z2 (the centre of the simply connected group,
        Bourbaki, Lie Groups ch. VI, Planches; Z2 at E8 level 2), and every
        proper subgroup of either is cyclic."""
        found = {self.generated((j,)) for j in self.indices}
        if self.indices not in found and self.order != 4:
            raise AssertionError("current group neither cyclic nor Z2 x Z2")
        found.add(self.indices)
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
        return min(self.tannakian_subgroups(), key=lambda s: (-len(s), s))

    def check_tannakian(self, subgroup) -> tuple:
        """subgroup as a sorted index tuple, or ValueError unless it is a
        fusion-closed set of invertibles with every twist trivial."""
        sub = tuple(sorted(set(subgroup)))
        if any(j not in self.indices for j in sub):
            raise ValueError("subgroup contains non-invertible indices")
        if self.generated(sub) != sub:
            raise ValueError("subgroup is not closed under fusion")
        bad = [j for j in sub if not self.twist(j).is_trivial]
        if bad:
            raise ValueError(f"subgroup is not Tannakian; twists != 1 at {bad}")
        return sub
