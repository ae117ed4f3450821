"""Modular data: exact twists, Kac-Peterson S-matrix, Verlinde numbers."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import currents
from .alcove import Alcove
from .fusion import FusionTensor
from .rootsys import (WEYL_GROUP_CAP, CapacityError, build_root_system,
                      integer_form, weyl_group_order, weyl_orbit_signs)

# The S-matrix sums |W| m(m+1)/2 terms for m orbits of the diagram
# currents.  At the 1.4e8 terms/s measured on a 2-vCPU x86-64 VM (A5 k8,
# D5 k8) the cap is about 70 s; A7 k8 (810 orbits, 1.3e10 terms) is refused.
SMATRIX_TERM_CAP = 10_000_000_000
# Working arrays of one step of that sum.  Steps that stay in cache ran
# about twice as fast per term as 32 MiB ones; 1 and 2 MiB ran alike.
SMATRIX_CHUNK_BYTES = 1 << 20
_TERM_BYTES = 40        # float and int phase index, quotient, phase


@dataclass(frozen=True)
class RationalAngle:
    """An exact root of unity exp(i pi t) with t rational, reduced mod 2."""

    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t) % 2)

    def value(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.t))

    @property
    def is_trivial(self) -> bool:
        return self.t == 0


def central_charge(rs, k: int) -> Fraction:
    """k dim(g)/(k + h_dual), exact; defined mod 8 as a chiral charge."""
    dim_g = 2 * len(rs.pos_roots) + rs.rank
    return Fraction(k * dim_g, k + rs.h_dual)


def gauss_phase(qdims, nums, period: int) -> complex:
    """xi = (sum d^2 theta)/|sum d^2 theta| for theta = exp(i pi T/P), the
    exact twist numerators T over the period P; equals exp(i pi c/4)."""
    turns = np.asarray(nums, dtype=np.int64) % (2 * period) / period
    total = np.sum(np.square(qdims) * np.exp(1j * math.pi * turns))
    return complex(total / abs(total))


class ModularData:
    """S and T data of the level-k alcove of a simple type.

    Fusion numbers come from weight-system folding; the S-matrix comes from
    the Weyl character sum.  The two never feed each other, so agreement
    between them (``verlinde_residual``) is a real consistency test.
    """

    def __init__(self, series: str, rank: int, k: int):
        self.rs = build_root_system(series, rank)
        self.alcove = Alcove(self.rs, k)
        self.k = k
        self.fusion = FusionTensor(self.alcove)

    @property
    def rank(self) -> int:
        return self.alcove.rank

    @property
    def weights(self):
        return self.alcove.weights

    @property
    def qdims(self) -> np.ndarray:
        return self.alcove.qdims

    @cached_property
    def global_dim(self) -> float:
        return float(np.sum(self.qdims ** 2))

    @property
    def twist_numerators(self) -> tuple:
        return self.alcove.twist_numerators

    @cached_property
    def twists(self) -> tuple:
        """The exact twist of every weight, by alcove index: one angle per
        distinct T mod 2P (at most 2P), shared by the weights that have it."""
        nums, period = self.twist_numerators
        values, at = np.unique(nums % (2 * period), return_inverse=True)
        angles = [RationalAngle(Fraction(t, period)) for t in values.tolist()]
        return tuple(angles[i] for i in at.tolist())

    def twist(self, j: int) -> RationalAngle:
        return self.twists[j]

    @cached_property
    def pointed_indices(self) -> tuple:
        """Indices of the invertible simples (quantum dimension 1)."""
        return tuple(i for i, d in enumerate(self.qdims)
                     if abs(d - 1.0) < currents.POINTED_TOL)

    @cached_property
    def central_charge(self) -> Fraction:
        return central_charge(self.rs, self.k)

    @cached_property
    def smatrix(self) -> np.ndarray:
        """Kac-Peterson S, up to one normalisation:

            S_ab ~ sum_w det(w) exp(-2 pi i <w(x_a), x_b> / ell),
            x = lambda + rho,

        scaled to unit rows with S_00 real positive.  The sum runs only
        over representatives of the orbits of the diagram currents (the
        unit and k omega_n for each node n of mark 1; never the fold-route
        current of E8 level 2, so S reads no fusion row).  Every other
        entry follows from S_{Ja,b} = exp(2 pi i Q_J(b)) S_ab
        (Schellekens-Yankielowicz, Int. J. Mod. Phys. A5, 1990) and S = S^T:
        S_ab = exp(2 pi i (Q_g(b) + Q_h(a'))) S_a'b' for a = g a', b = h b',
        with a' and b' orbit reps (_fill_by_currents).

        W is enumerated once, as the free orbit of rho with the integer
        matrix of each element.  D <w(x_a), x_b> is an integer for D the
        common denominator of the quadratic form, so each term is a
        (D ell)-th root of unity looked up by its index.  Only entries with
        b >= a are summed, over chunks of W whose working arrays fit
        SMATRIX_CHUNK_BYTES.
        """
        rs, n, r = self.rs, self.rank, self.rs.rank
        order = weyl_group_order(rs)
        if order > WEYL_GROUP_CAP:
            raise CapacityError(
                f"S-matrix of {rs.name} level {self.k} sums over |W| = "
                f"{order} Weyl elements, over the cap |W| {WEYL_GROUP_CAP}")
        # the diagram currents, unit first, with their checked actions as
        # the rows of one array
        acts = self.alcove.current_actions
        rep, reps, move = currents.orbit_reps(acts, np.arange(n))
        m = len(reps)
        terms = order * m * (m + 1) // 2
        if terms > SMATRIX_TERM_CAP:
            raise CapacityError(
                f"S-matrix of {rs.name} level {self.k} sums {terms} Weyl "
                f"terms (|W| = {order}, {m} current orbits), over the caps "
                f"{SMATRIX_TERM_CAP} terms and |W| {WEYL_GROUP_CAP}")
        orbit = weyl_orbit_signs(rs, rs.rho)
        mats, signs = orbit["matrix"], orbit["sign"]
        denom, gram = integer_form(rs)
        gram = gram.astype(np.float64)
        period = denom * self.alcove.ell
        roots = np.exp(-2j * math.pi / period * np.arange(period))
        x = self.alcove.labels[reps].astype(np.float64) + 1
        # a chunk of W holds one full row of terms and its matrices; then as
        # many rows as fit SMATRIX_CHUNK_BYTES, for columns b >= a0 only
        chunk = max(1, SMATRIX_CHUNK_BYTES // (_TERM_BYTES * m + 16 * r * r))
        u = np.zeros((m, m), dtype=complex)
        for w0 in range(0, order, chunk):
            # M_w^T G, so that D <w(x_a), x_b> = x_a . (M_w^T G) x_b
            p = mats[w0:w0 + chunk].transpose(0, 2, 1).astype(np.float64) @ gram
            sgn = signs[w0:w0 + chunk].astype(np.float64)
            a0 = 0
            while a0 < m:
                rows = max(1, SMATRIX_CHUNK_BYTES
                           // (_TERM_BYTES * len(sgn) * (m - a0)))
                v = np.matmul(x[a0:a0 + rows], p).reshape(-1, r)
                idx = (v @ x[a0:].T).astype(np.intp)
                # idx mod period; floor division by a scalar is several
                # times faster than np.remainder
                idx -= idx // period * period
                phase = roots.take(idx).reshape(len(sgn), -1)
                block = (sgn @ phase.view(np.float64)).view(complex)
                u[a0:a0 + rows, a0:] += block.reshape(-1, m - a0)
                a0 += rows
        for a in range(1, m):
            u[a, :a] = u[:a, a]
        s = u if m == n else self._fill_by_currents(u, acts, rep, reps, move)
        s /= np.linalg.norm(s[0])
        # common phase so the vacuum entry is real positive
        s *= cmath.exp(-1j * cmath.phase(s[0, 0]))
        return s

    def _fill_by_currents(self, u, acts, rep, reps, move) -> np.ndarray:
        """The n x n S from its block u on the orbit reps: S_ab =
        exp(2 pi i (Q_g(b) + Q_h(rep a))) u[rep a, rep b], where the
        currents g = move[a] and h = move[b] take rep(a) to a and rep(b)
        to b, and 2P Q_J are the exact integer charges, looked up in a
        table of the 2P roots."""
        n = self.rank
        charges = currents.monodromy_charges(self, acts)
        col = np.searchsorted(reps, rep)   # index of rep(a) in u
        period = self.twist_numerators[1]
        # twice over, so that a sum of two charges needs no reduction
        turns = np.tile(np.exp(1j * math.pi / period
                               * np.arange(2 * period)), 2)
        s = np.empty((n, n), dtype=complex)
        rows = max(1, SMATRIX_CHUNK_BYTES // (_TERM_BYTES * n))
        for a0 in range(0, n, rows):
            a = slice(a0, a0 + rows)
            idx = charges.take(move[a], axis=0)              # 2P Q_g(b)
            idx += charges[:, rep[a]].T.take(move, axis=1)   # 2P Q_h(rep a)
            np.multiply(turns.take(idx), u[col[a]].take(col, axis=1),
                        out=s[a])
        return s

    @cached_property
    def smatrix_unitarity_residual(self) -> float:
        s = self.smatrix
        return float(np.max(np.abs(s @ s.conj().T - np.eye(self.rank))))

    def verlinde_matrix(self, i: int) -> np.ndarray:
        s = self.smatrix
        ratios = s[i] / s[0]
        return (s * ratios) @ s.conj().T

    def verlinde_residual(self) -> float:
        """Max |Verlinde - folded fusion| over every row."""
        worst = 0.0
        for i in range(self.rank):
            approx = self.verlinde_matrix(i)
            exact = self.fusion.matrix(i)
            worst = max(worst, float(np.max(np.abs(approx - exact))))
        return worst

    @cached_property
    def gauss_sum_phase(self) -> complex:
        return gauss_phase(self.qdims, *self.twist_numerators)

    def charge_angle(self) -> RationalAngle:
        """Exact angle of the Gauss phase, c/4 mod 2."""
        return RationalAngle(self.central_charge / 4)

    def gauss_sum_residual(self) -> float:
        return abs(self.gauss_sum_phase - self.charge_angle().value())
