"""Fusion products in the level-k alcove via weight-system folding.

The product of two alcove weights expands one factor into its finite-rank
weight system and folds each translate of the other factor back into the
alcove with signs.  This route is independent of the S-matrix, which lets the
Verlinde numbers act as a cross-check rather than a definition.
"""
from __future__ import annotations

import numpy as np

from .alcove import Alcove
from .currents import orbit_reps
from .rootsys import weight_system

FOLD_CHUNK = 4096   # points per Alcove.fold call


def fuse_weights(alc: Alcove, i: int, j: int) -> dict:
    """Multiplicities of the product of alcove indices i and j as
    {alcove index: N}, in no particular order.

    Simple currents act on the alcove by affine Dynkin diagram
    automorphisms, so N_{Ja,J'b}^{JJ'c} = N_ab^c (Fuchs, CMP 136, 1991):
    only products of current-orbit representatives are folded, and every
    other product is one of those relabelled by the composed action of the
    two currents.  Of the two representatives, the one e with the smaller
    (Weyl dimension, index) is expanded.  The first product that expands e
    folds e's weight system against every later representative, in one
    block cached on the alcove; later products are lookups in that block.
    """
    if alc._orbits is None:
        alc._orbits = _current_orbits(alc)
    order, rep, move, composite = alc._orbits
    e, b = rep[i], rep[j]
    if order[b] < order[e]:
        e, b = b, e
    block = alc._blocks.get(e)
    if block is None:
        block = alc._blocks[e] = _fold_block(alc, e)
    position, bounds, labels, counts = block
    p = position[b]
    lo, hi = bounds[p], bounds[p + 1]
    w = composite[move[i]][move[j]]
    return {w[l]: c for l, c in zip(labels[lo:hi], counts[lo:hi])}


def _current_orbits(alc: Alcove) -> tuple:
    """(order, rep, move, composite) for the orbits of the diagram
    currents, as plain lists: order[a] is a's position in (Weyl dimension,
    index) order, and rep and move are currents.orbit_reps of the rows of
    alc.current_actions under that order.  composite[g][h] is the row of
    alc.current_actions for the composed action of rows g and h."""
    acts, n, dims = alc.current_actions, alc.rank, alc.weyl_dims
    order = np.empty(n, dtype=np.int64)
    order[sorted(range(n), key=lambda x: (dims[x], x))] = np.arange(n)
    rep, _, move = orbit_reps(acts, order)
    # the composite of two currents is the current that takes the unit
    # where the pair does
    rows, units = acts.tolist(), acts[:, 0].tolist()
    row = {c: g for g, c in enumerate(units)}
    composite = [[rows[row[ga[c]]] for c in units] for ga in rows]
    return order.tolist(), rep.tolist(), move.tolist(), composite


def _fold_block(alc: Alcove, e: int) -> tuple:
    """Every product e x b of the representative e, which is expanded,
    with a representative b of order at least e's, as ({b: position}, row
    bounds, alcove indices, coefficients): the products of the partner at
    position p are entries bounds[p]:bounds[p + 1].

    Partners are taken in groups small enough that a group's points and
    its dense (partners x alcove) sums each fit FOLD_CHUNK, unless one
    partner's weight system or one row alone is larger.
    """
    n, (order, rep) = alc.rank, alc._orbits[:2]
    partners = [b for b in range(n) if rep[b] == b and order[b] >= order[e]]
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
    """All coefficients N_{ij}^l of an alcove, read on demand from the
    alcove's fold blocks, its only fusion cache."""

    def __init__(self, alc: Alcove):
        self.alcove = alc

    def row(self, i: int, j: int) -> dict:
        """{l: N_{ij}^l} by alcove index, in no particular order."""
        return fuse_weights(self.alcove, i, j)

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
                    yield i, j, l, n

    def is_multiplicity_free(self) -> bool:
        return all(n <= 1 for *_, n in self.triples())
