"""Modular data: exact twists, Kac-Peterson S-matrix, Verlinde numbers."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .alcove import Alcove
from .fusion import FusionTensor
from .rootsys import build_root_system, weyl_orbit_signs

WEYL_GROUP_CAP = 10_000_000
POINTED_TOL = 1e-6     # |d - 1| below this marks an invertible simple


@dataclass(frozen=True)
class RationalAngle:
    """An exact root of unity exp(i pi t) with t rational, reduced mod 2."""

    t: Fraction

    def __post_init__(self):
        object.__setattr__(self, "t", Fraction(self.t) % 2)

    def __mul__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.t + other.t)

    def __truediv__(self, other: "RationalAngle") -> "RationalAngle":
        return RationalAngle(self.t - other.t)

    def conjugate(self) -> "RationalAngle":
        return RationalAngle(-self.t)

    def value(self) -> complex:
        return cmath.exp(1j * math.pi * float(self.t))

    @property
    def is_trivial(self) -> bool:
        return self.t == 0

    def __repr__(self):
        return f"RationalAngle({self.t})"


def twist_angle(rs, ell: int, lam) -> RationalAngle:
    """theta_lambda = exp(i pi <lam, lam + 2 rho>/ell), kept exact."""
    return RationalAngle(Fraction(rs.norm_plus_2rho(tuple(lam)), 1) / ell)


def central_charge(rs, k: int) -> Fraction:
    """k dim(g)/(k + h_dual), exact; defined mod 8 as a chiral charge."""
    dim_g = 2 * len(rs.pos_roots) + rs.rank
    return Fraction(k * dim_g, k + rs.h_dual)


def gauss_phase(qdims, twists) -> complex:
    """xi = (sum d^2 theta)/|sum d^2 theta|; equals exp(i pi c/4)."""
    total = sum(d * d * t.value() for d, t in zip(qdims, twists))
    return total / abs(total)


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

    @cached_property
    def qdims(self) -> np.ndarray:
        return np.array(self.alcove.qdims())

    @cached_property
    def global_dim(self) -> float:
        return float(np.sum(self.qdims ** 2))

    @cached_property
    def twists(self) -> tuple:
        ell = self.alcove.ell
        return tuple(twist_angle(self.rs, ell, w) for w in self.weights)

    @cached_property
    def pointed_indices(self) -> tuple:
        """Indices of the invertible simples (quantum dimension 1)."""
        return tuple(i for i, d in enumerate(self.qdims)
                     if abs(d - 1.0) < POINTED_TOL)

    @cached_property
    def central_charge(self) -> Fraction:
        return central_charge(self.rs, self.k)

    @cached_property
    def smatrix(self) -> np.ndarray:
        rs = self.rs
        ell = self.alcove.ell
        n = rs.rank
        weights = self.weights
        # Weyl group size guard: |W| = number of elements in the rho orbit
        fmat = np.array([[float(x) for x in row] for row in rs.quad_form])
        mu_rows = np.array([[x + 1 for x in w] for w in weights], dtype=float)
        size = self.rank
        u = np.zeros((size, size), dtype=complex)
        for a, lam in enumerate(weights):
            orbit = weyl_orbit_signs(rs, tuple(x + 1 for x in lam),
                                     cap=WEYL_GROUP_CAP)
            pts = np.array(list(orbit.keys()), dtype=float)
            sgn = np.array(list(orbit.values()), dtype=float)
            phases = (pts @ fmat @ mu_rows.T) * (-2.0 * math.pi / ell)
            u[a] = sgn @ np.exp(1j * phases)
        norm = np.linalg.norm(u[0])
        u /= norm
        # common phase so the vacuum entry is real positive
        u *= cmath.exp(-1j * cmath.phase(u[0, 0]))
        return u

    @cached_property
    def smatrix_unitarity_residual(self) -> float:
        s = self.smatrix
        return float(np.max(np.abs(s @ s.conj().T - np.eye(self.rank))))

    @cached_property
    def charge_conjugation(self) -> np.ndarray:
        """Permutation matrix C = S^2 sending each object to its dual."""
        c = np.zeros((self.rank, self.rank), dtype=np.int64)
        for i in range(self.rank):
            c[i, self.alcove.dual_index(i)] = 1
        return c

    def verlinde_matrix(self, i: int) -> np.ndarray:
        s = self.smatrix
        ratios = s[i] / s[0]
        return (s * ratios) @ s.conj().T

    def verlinde_residual(self, indices=None) -> float:
        """Max |Verlinde - folded fusion| over rows of the given objects."""
        if indices is None:
            indices = range(self.rank)
        worst = 0.0
        for i in indices:
            approx = self.verlinde_matrix(i)
            exact = self.fusion.matrix(i)
            worst = max(worst, float(np.max(np.abs(approx - exact))))
        return worst

    @cached_property
    def gauss_sum_phase(self) -> complex:
        return gauss_phase(self.qdims, self.twists)

    def charge_angle(self) -> RationalAngle:
        """Exact angle of the Gauss phase, c/4 mod 2."""
        return RationalAngle(self.central_charge / 4)

    def gauss_sum_residual(self) -> float:
        return abs(self.gauss_sum_phase - self.charge_angle().value())
