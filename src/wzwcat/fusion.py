"""Fusion products in the level-k alcove via weight-system folding.

The product of two alcove weights expands one factor into its finite-rank
weight system and folds each translate of the other factor back into the
alcove with signs.  This route is independent of the S-matrix, which lets the
Verlinde numbers act as a cross-check rather than a definition.
"""
from __future__ import annotations

import math

import numpy as np

from .alcove import Alcove
from .currents import orbit_reps
from .rootsys import place_values, weight_system

FOLD_CHUNK = 16384  # points per group, and per Alcove.fold call


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
    order, rep, move, composite = alc._orbits or _current_orbits(alc)
    e, b = rep[i], rep[j]
    if order[b] < order[e]:
        e, b = b, e
    block = alc._blocks.get(e) or _fold_block(alc, e)
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
    alc._orbits = order.tolist(), rep.tolist(), move.tolist(), composite
    return alc._orbits


def _fold_block(alc: Alcove, e: int) -> tuple:
    """Every product e x b of the representative e, which is expanded,
    with a representative b of order at least e's, as ({b: position}, row
    bounds, alcove indices, coefficients): the products of the partner at
    position p are entries bounds[p]:bounds[p + 1].  Kept in alc._blocks.

    Each point is folded once per alcove.  A point's code is its
    mixed-radix code in a box that holds every point of every block: label
    i of lambda_b + nu lies in [-L, k // comark_i + L], for L the largest
    <lambda, alpha> over the alcove, which bounds the labels of every
    weight system of the alcove (rootsys.weight_system).  Codes are int64
    while the box fits, else Python ints.  alc._folds keeps the sorted
    codes of the points folded so far with their (sign, index), and only
    points new to it are passed to Alcove.fold.

    Partners are taken in groups small enough that a group's points and
    its dense (partners x alcove) sums each fit FOLD_CHUNK, unless one
    partner's weight system or one row alone is larger; new points are
    folded FOLD_CHUNK at a time.
    """
    n, (order, rep) = alc.rank, alc._orbits[:2]
    partners = [b for b in range(n) if rep[b] == b and order[b] >= order[e]]
    ws = weight_system(alc.rs, alc.weights[e])
    nus, mult = ws["point"], ws["mult"]
    if alc._folds is None:
        alc._folds = _fold_box(alc)
    place, shift = alc._folds[:2]
    base = alc.labels[partners]
    base_codes = base @ place
    nu_codes = nus @ place + shift
    # nu by code: each partner's codes are then one ascending run, which
    # searchsorted walks faster than scattered keys
    by_code = np.argsort(nu_codes)
    mult, nu_codes = mult.take(by_code), nu_codes.take(by_code)
    m = len(nus)
    step = max(1, FOLD_CHUNK // max(m, n))
    bounds, labels, counts = [0], [], []
    for g in range(0, len(partners), step):
        size = min(step, len(partners) - g)
        codes = (base_codes[g:g + size, None] + nu_codes).ravel()
        known, folds = alc._folds[2:]
        at = np.searchsorted(known, codes)
        new = known.take(at) != codes
        if new.any():
            fresh, first = np.unique(codes[new], return_index=True)
            pos, t = np.divmod(np.flatnonzero(new)[first], m)
            points = base.take(g + pos, axis=0) + nus.take(by_code[t], axis=0)
            got = np.empty((len(points), 2), dtype=np.int64)
            for c in range(0, len(points), FOLD_CHUNK):
                got[c:c + FOLD_CHUNK].T[:] = alc.fold(points[c:c + FOLD_CHUNK])
            got[got[:, 0] == 0, 1] = 0  # a cancelled point adds 0 to any key
            # two sorted runs: the stable sort merges them
            known = np.concatenate([known, fresh])
            o = known.argsort(kind="stable")
            known = known.take(o)
            folds = np.concatenate([folds, got]).take(o, axis=0)
            alc._folds = (place, shift, known, folds)
            at = np.searchsorted(known, codes)
        # take, not folds[at]: several times faster on (N, 2) rows
        sign, index = folds.take(at, axis=0).T.reshape(2, size, m)
        # float sums of integers below 2**53 are exact: a group's terms
        # total at most FOLD_CHUNK times DIMENSION_CAP in absolute value
        keys = index + np.arange(0, size * n, n)[:, None]
        sums = np.bincount(keys.ravel(), weights=(sign * mult).ravel(),
                           minlength=size * n).astype(np.int64)
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
    alc._blocks[e] = ({b: p for p, b in enumerate(partners)}, bounds,
                      labels, counts)
    return alc._blocks[e]


def _fold_box(alc: Alcove) -> tuple:
    """An empty fold memo for alc: (place, shift, codes, folds), where a
    point x of the box has code x @ place + shift, codes is sorted and row
    j of folds is the (sign, index) of codes[j].  The codes start with the
    end of the box, so a search for any point's code lands on an entry."""
    rs, k = alc.rs, alc.k
    # <lambda, theta> = lacing times the level of lambda, and theta is the
    # root on which every dominant weight pairs largest
    top = rs.lacing * int((alc.labels @ np.array(rs.comarks)).max())
    radix = [k // c + 2 * top + 1 for c in rs.comarks]
    box = math.prod(radix)
    place = place_values(radix)
    return (place, top * place.sum(), np.array([box], dtype=place.dtype),
            np.zeros((1, 2), dtype=np.int64))


class FusionTensor:
    """All coefficients N_{ij}^l of an alcove, read on demand from the
    alcove's fold blocks, its only fusion cache."""

    def __init__(self, alc: Alcove):
        self.alcove = alc

    def check_full_table(self) -> None:
        """Refuse a table over DIMENSION_CAP before any fold: fold first the
        square of the current-orbit representative last in (Weyl dimension,
        index) order, which builds the table's largest weight system."""
        alc = self.alcove
        order, rep = (alc._orbits or _current_orbits(alc))[:2]
        last = max(set(rep), key=order.__getitem__)
        if last not in alc._blocks:
            _fold_block(alc, last)

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
        self.check_full_table()
        r = self.alcove.rank
        for i in range(r):
            for j in range(i, r):
                for l, n in sorted(self.row(i, j).items()):
                    yield i, j, l, n

    def is_multiplicity_free(self) -> bool:
        return all(n <= 1 for *_, n in self.triples())
