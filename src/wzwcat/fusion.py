"""Fusion products in the level-k alcove via weight-system folding.

The product of two alcove weights expands one factor into its finite-rank
weight system and folds each translate of the other factor back into the
alcove with signs.  This route is independent of the S-matrix, which lets the
Verlinde numbers act as a cross-check rather than a definition.
"""
from __future__ import annotations

import numpy as np

from .alcove import Alcove
from .rootsys import weight_system, weyl_dimension


def fuse_weights(alc: Alcove, lam, gamma) -> dict:
    """Multiplicities of the product lam x gamma as {alcove weight: N}."""
    rs = alc.rs
    lam, gamma = tuple(lam), tuple(gamma)
    # expand the classically smaller factor
    if weyl_dimension(rs, lam) > weyl_dimension(rs, gamma):
        lam, gamma = gamma, lam
    out = {}
    for nu, mult in weight_system(rs, lam).items():
        sign, w = alc.fold(tuple(g + x for g, x in zip(gamma, nu)))
        if sign:
            out[w] = out.get(w, 0) + sign * mult
    bad = {w: c for w, c in out.items() if c < 0}
    if bad:
        raise AssertionError(f"negative fusion coefficients: {bad}")
    return {w: c for w, c in out.items() if c}


class FusionTensor:
    """All coefficients N_{ij}^l for an alcove, computed once and reused."""

    def __init__(self, alc: Alcove):
        self.alcove = alc
        self._rows: dict = {}

    def row(self, i: int, j: int) -> dict:
        """{l: N_{ij}^l} by alcove index."""
        if i > j:
            i, j = j, i
        key = (i, j)
        if key not in self._rows:
            alc = self.alcove
            prod = fuse_weights(alc, alc.weights[i], alc.weights[j])
            self._rows[key] = {alc.index[w]: c for w, c in prod.items()}
        return self._rows[key]

    def coeff(self, i: int, j: int, l: int) -> int:
        return self.row(i, j).get(l, 0)

    def matrix(self, i: int) -> np.ndarray:
        """N_i acting on the fusion ring, (N_i)_{jl} = N_{ij}^l."""
        r = self.alcove.rank
        m = np.zeros((r, r), dtype=np.int64)
        for j in range(r):
            for l, c in self.row(i, j).items():
                m[j, l] = c
        return m

    def full_table(self):
        r = self.alcove.rank
        for i in range(r):
            for j in range(i, r):
                self.row(i, j)
        return self._rows

    def triples(self):
        """(i, j, l, N_{ij}^l) for i <= j and N nonzero, in index order."""
        r = self.alcove.rank
        for i in range(r):
            for j in range(i, r):
                for l, n in sorted(self.row(i, j).items()):
                    yield i, j, l, int(n)

    def is_multiplicity_free(self) -> bool:
        return all(n <= 1 for *_, n in self.triples())
