"""Fusion products in the level-k alcove via weight-system folding.

The product of two alcove weights expands one factor into its finite-rank
weight system and folds each translate of the other factor back into the
alcove with signs.  This route is independent of the S-matrix, which lets the
Verlinde numbers act as a cross-check rather than a definition.
"""
from __future__ import annotations

import numpy as np

from .alcove import Alcove
from .rootsys import weight_system

FOLD_CHUNK = 4096   # points per Alcove.fold call


def fuse_weights(alc: Alcove, lam, gamma) -> dict:
    """Multiplicities of the product lam x gamma as {alcove weight: N}.

    lam and gamma are alcove weights.  The factor e with the smaller
    (Weyl dimension, index) is expanded.  The first product that expands e
    folds e's weight system against every partner that expands e, in one
    block cached on the alcove; later products are lookups in that block.
    """
    dims = alc.weyl_dims
    e, b = sorted((alc.index[tuple(lam)], alc.index[tuple(gamma)]),
                  key=lambda x: (dims[x], x))
    block = alc._blocks.get(e)
    if block is None:
        block = alc._blocks[e] = _fold_block(alc, e)
    position, bounds, labels, counts = block
    p = position[b]
    lo, hi = bounds[p], bounds[p + 1]
    w = alc.weights
    return {w[l]: c for l, c in zip(labels[lo:hi], counts[lo:hi])}


def _fold_block(alc: Alcove, e: int) -> tuple:
    """Every product e x b where e is the factor to expand, as
    ({b: position}, row bounds, alcove indices, coefficients): the products
    of the partner at position p are entries bounds[p]:bounds[p + 1].

    Partners are taken in groups small enough that a group's points and
    its dense (partners x alcove) sums each fit FOLD_CHUNK, unless one
    partner's weight system or one row alone is larger.
    """
    n, dims = alc.rank, alc.weyl_dims
    partners = [b for b in range(n) if (dims[b], b) >= (dims[e], e)]
    ws = weight_system(alc.rs, alc.weights[e])
    nus, mult = ws["point"], ws["mult"]
    base = np.array([alc.weights[b] for b in partners], dtype=np.int64)
    m = len(nus)
    step = max(1, FOLD_CHUNK // max(m, n))
    bounds, labels, counts = [0], [], []
    for g in range(0, len(partners), step):
        size = min(step, len(partners) - g)
        sums = np.zeros(size * n, dtype=np.int64)
        for start in range(g * m, (g + size) * m, FOLD_CHUNK):
            stop = min(start + FOLD_CHUNK, (g + size) * m)
            pos, t = np.divmod(np.arange(start, stop), m)
            sign, index = alc.fold(base[pos] + nus[t])
            hit = sign != 0
            np.add.at(sums, (pos[hit] - g) * n + index[hit],
                      sign[hit] * mult[t[hit]])
        if (sums < 0).any():
            w = alc.weights
            bad = [(w[e], w[partners[g + q]], w[l], int(sums[q * n + l]))
                   for q, l in zip(*np.divmod(np.flatnonzero(sums < 0), n))]
            raise AssertionError(f"negative fusion coefficients: {bad}")
        keys = np.flatnonzero(sums)
        pos, index = np.divmod(keys, n)
        bounds += (len(labels) + np.searchsorted(pos, np.arange(1, size + 1))
                   ).tolist()
        labels += index.tolist()
        counts += sums[keys].tolist()
    return {b: p for p, b in enumerate(partners)}, bounds, labels, counts


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

    def matrix(self, i: int) -> np.ndarray:
        """N_i acting on the fusion ring, (N_i)_{jl} = N_{ij}^l."""
        r = self.alcove.rank
        m = np.zeros((r, r), dtype=np.int64)
        for j in range(r):
            for l, c in self.row(i, j).items():
                m[j, l] = c
        return m

    def triples(self):
        """(i, j, l, N_{ij}^l) for i <= j and N nonzero, in index order."""
        r = self.alcove.rank
        for i in range(r):
            for j in range(i, r):
                for l, n in sorted(self.row(i, j).items()):
                    yield i, j, l, int(n)

    def is_multiplicity_free(self) -> bool:
        return all(n <= 1 for *_, n in self.triples())
