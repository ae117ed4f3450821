"""Level-k alcove: simple objects, quantum dimensions, affine folding."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

from .rootsys import RootSystem, Weight, build_root_system, dual_weight

_FOLD_ITER_CAP = 100_000


class FoldResult(NamedTuple):
    sign: int
    weight: Optional[Weight]  # None when the orbit meets a wall (sign 0)


def qint(n, ell) -> float:
    """Quantum integer [n] at altitude ell: sin(n pi/ell)/sin(pi/ell)."""
    return math.sin(math.pi * n / ell) / math.sin(math.pi / ell)


def quantum_dimension(rs: RootSystem, k: int, lam: Weight) -> float:
    """q-Weyl dimension of lam at level k, no alcove enumeration needed.

    Product over positive roots of [<lam+rho, alpha>]/[<rho, alpha>] at
    altitude lacing*(k + h_dual).  Valid for any dominant lam of level <= k.
    """
    ell = rs.lacing * (k + rs.h_dual)
    shifted = tuple(x + 1 for x in lam)
    val = 1.0
    for alpha in rs.pos_roots:
        val *= qint(rs.pairing(shifted, alpha), ell)
        val /= qint(rs.pairing(rs.rho, alpha), ell)
    return val


@dataclass
class Alcove:
    rs: RootSystem
    k: int
    weights: tuple = field(init=False)
    index: dict = field(init=False)
    _fold_cache: dict = field(init=False, default_factory=dict, repr=False)
    _qdim_cache: dict = field(init=False, default_factory=dict, repr=False)
    _kh: int = field(init=False, repr=False)
    _theta_labels: Weight = field(init=False, repr=False)

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("level must be a positive integer")
        self.weights = tuple(self._enumerate())
        self.index = {w: i for i, w in enumerate(self.weights)}
        self._kh = self.k + self.rs.h_dual
        self._theta_labels = self.rs.root_labels(self.rs.highest_root)

    def _enumerate(self):
        n = self.rs.rank
        comarks = self.rs.comarks
        out = []

        def rec(prefix, budget):
            i = len(prefix)
            if i == n:
                out.append(tuple(prefix))
                return
            for v in range(budget // comarks[i] + 1):
                rec(prefix + [v], budget - v * comarks[i])

        rec([], self.k)
        out.sort()
        return out

    @property
    def ell(self) -> int:
        """Altitude m(k + h_dual); q = exp(i pi / ell)."""
        return self.rs.lacing * (self.k + self.rs.h_dual)

    @property
    def rank(self) -> int:
        return len(self.weights)

    def qdim(self, lam: Weight) -> float:
        lam = tuple(lam)
        if lam not in self._qdim_cache:
            self._qdim_cache[lam] = quantum_dimension(self.rs, self.k, lam)
        return self._qdim_cache[lam]

    def qdims(self):
        return [self.qdim(w) for w in self.weights]

    def global_dim(self) -> float:
        return sum(self.qdim(w) ** 2 for w in self.weights)

    def dual_index(self, i: int) -> int:
        return self.index[dual_weight(self.rs, self.weights[i])]

    def fold(self, mu: Weight) -> FoldResult:
        """Shifted affine Weyl fold of mu into the alcove.

        Returns (sign, weight) with sign in {-1, 0, +1}; sign 0 means mu + rho
        lies on a reflection wall and the term cancels.
        """
        mu = tuple(int(x) for x in mu)
        hit = self._fold_cache.get(mu)
        if hit is not None:
            return hit
        rs = self.rs
        kh = self._kh
        comarks = rs.comarks
        theta_labels = self._theta_labels
        x = tuple(m + 1 for m in mu)
        sign = 1
        for _ in range(_FOLD_ITER_CAP):
            i = next((j for j, v in enumerate(x) if v < 0), None)
            if i is not None:
                x = rs.simple_reflection(x, i)
                sign = -sign
                continue
            if 0 in x:
                res = FoldResult(0, None)
                break
            t = sum(c * v for c, v in zip(comarks, x))
            if t == kh:
                res = FoldResult(0, None)
                break
            if t > kh:
                x = tuple(v - (t - kh) * c for v, c in zip(x, theta_labels))
                sign = -sign
                continue
            res = FoldResult(sign, tuple(v - 1 for v in x))
            break
        else:
            raise AssertionError(f"fold did not terminate for {mu}")
        self._fold_cache[mu] = res
        return res


def make_alcove(series: str, rank: int, k: int) -> Alcove:
    return Alcove(build_root_system(series, rank), k)
