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
from .rootsys import (DIMENSION_CAP, CapacityError, freudenthal,  # noqa: F401
                      integer_form, orbit_walk, place_values,
                      weight_system)  # not called: perfbench/tracing.py wraps it

FOLD_CHUNK = 16384  # terms per fold-table group, points per Alcove.fold call


def fuse_weights(alc: Alcove, i: int, j: int) -> dict:
    """Multiplicities of the product of alcove indices i and j as
    {alcove index: N}, in no particular order.

    Simple currents act on the alcove by affine Dynkin diagram
    automorphisms, so N_{Ja,J'b}^{JJ'c} = N_ab^c (Fuchs, CMP 136, 1991):
    only products of current-orbit representatives are folded, and every
    other product is one of those relabelled by the composed action of the
    two currents.  The first product on an alcove folds every pair of
    representatives into one table (_fold_table), and so refuses what
    FusionTensor.check_full_table refuses; later ones are lookups.
    """
    order, rep, move, composite = alc._orbits or _current_orbits(alc)
    position, bounds, labels, counts = alc._table or _fold_table(alc)
    e, b = position[rep[i]], position[rep[j]]
    if b < e:
        e, b = b, e
    p = b * (b + 1) // 2 + e
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


def _representatives(alc: Alcove) -> list:
    """The current-orbit representatives in (Weyl dimension, index) order;
    refuses the table when the last, the largest, is over DIMENSION_CAP."""
    order, rep = (alc._orbits or _current_orbits(alc))[:2]
    reps = sorted(set(rep), key=order.__getitem__)
    if alc.weyl_dims[reps[-1]] > DIMENSION_CAP:
        raise CapacityError(f"dim {alc.rs.name} {alc.weights[reps[-1]]} "
                            f"exceeds {DIMENSION_CAP}")
    return reps


def _fold_table(alc: Alcove) -> tuple:
    """The products of the representatives at positions e <= b of
    _representatives, as ({representative: position}, row bounds, alcove
    indices, coefficients); pair (e, b) has entries bounds[p]:bounds[p + 1]
    for p = b (b + 1) / 2 + e.  Kept in alc._table.

    Kac-Walton by orbit sums: N_eb^c = sum_mu M[e, mu] A_b[mu, c], for M
    the multiplicities of the dominant weights mu of every e (one
    freudenthal) and A_b[mu, c] the signed count of the points lambda_b +
    W mu that fold to c.  These mu are the alcove weights with lambda_e -
    mu in the positive root cone: theta pairs >= 0 with every positive
    root, so mu <= lambda_e has at most lambda_e's level.  Walked by the
    first e that holds each, they give partner b a prefix of the points.
    Partners go in groups whose points, counted once per e <= b that holds
    their weight, fit FOLD_CHUNK (or hold one partner), and a group is
    reduced to rows before the next.  Each point is folded once per
    alcove, through the memo alc._folds (_fold_box): only points new to it
    reach Alcove.fold, FOLD_CHUNK at a time.
    """
    reps, n, rs = _representatives(alc), alc.rank, alc.rs
    count = len(reps)
    # (lambda_e - mu) G / (D d_j) are the root coordinates of lambda_e - mu
    denom, gram = integer_form(rs)
    span = alc.labels @ gram
    coset = span % (denom * np.array(rs.d))
    held = ((span[reps, None] >= span).all(axis=2)
            & (coset[reps, None] == coset).all(axis=2))
    first = np.vstack([held, np.ones(n, dtype=bool)]).argmax(axis=0)
    by_first = np.argsort(first, kind="stable")
    doms = alc.labels[by_first[:np.count_nonzero(first < count)]]
    nus, owner = orbit_walk(rs, doms)
    by_owner = np.argsort(owner, kind="stable")
    nus, owner = nus.take(by_owner, axis=0), owner.take(by_owner)
    m = freudenthal(rs, doms, np.argsort(by_first)[reps], nus, owner)
    orbit = np.bincount(owner)
    if (m @ orbit != [alc.weyl_dims[r] for r in reps]).any():
        raise AssertionError("multiplicities do not sum to the dimension")
    mu_of, e_of = np.nonzero(m.T)           # the M[e, mu] != 0 by mu, then e
    mult, e_key = m[e_of, mu_of], mu_of * count + e_of
    column = np.searchsorted(mu_of, np.arange(len(doms)))
    size = np.searchsorted(owner, np.searchsorted(
        np.sort(first)[:len(doms)], np.arange(count), side="right"))
    ends = np.concatenate([[0], np.cumsum(size)])
    cost = np.concatenate([[0], np.cumsum(np.cumsum((m != 0) @ orbit))])
    if alc._folds is None:
        alc._folds = _fold_box(alc)
    place, shift = alc._folds[:2]
    base = alc.labels[reps]
    base_codes, nu_codes = base @ place, nus @ place + shift
    bounds, labels, counts = [0], [], []
    g = 0
    while g < count:
        h = max(g + 1, np.searchsorted(cost, cost[g] + FOLD_CHUNK, "right") - 1)
        part = np.repeat(np.arange(g, h), size[g:h])
        t = np.arange(len(part)) - (ends[part] - ends[g])
        codes = base_codes.take(part) + nu_codes.take(t)
        known, folds = alc._folds[2:]
        at = np.searchsorted(known, codes)
        new = known.take(at) != codes
        if new.any():
            fresh, one = np.unique(codes[new], return_index=True)
            pos = np.flatnonzero(new)[one]
            points = base.take(part[pos], axis=0) + nus.take(t[pos], axis=0)
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
        sign, index = folds.take(at, axis=0).T
        # A_b[mu, c] by (b, mu, c), then each times the M[e, mu] != 0 with
        # e <= b, summed by (b, e, c).  Float sums of integers below 2**53
        # are exact: a pair's terms total at most dim e <= DIMENSION_CAP
        keys, inv = np.unique((part * len(doms) + owner.take(t)) * n + index,
                              return_inverse=True)
        a = np.bincount(inv, weights=sign).astype(np.int64)
        keys, a = keys[a != 0], a[a != 0]
        b, c = np.divmod(keys, n)
        b, mu = np.divmod(b, len(doms))
        reach = np.searchsorted(e_key, mu * count + b, "right") - column[mu]
        x = (np.repeat(column[mu] - np.cumsum(reach) + reach, reach)
             + np.arange(reach.sum()))
        keys, inv = np.unique((np.repeat(b, reach) * count + e_of.take(x)) * n
                              + np.repeat(c, reach), return_inverse=True)
        sums = np.bincount(inv, weights=np.repeat(a, reach) * mult.take(x)
                           ).astype(np.int64)
        (b, e), index = np.divmod(keys // n, count), keys % n
        if (sums < 0).any():
            w = alc.weights
            bad = [(w[reps[y]], w[reps[z]], w[l], v) for y, z, l, v in zip(
                e.tolist(), b.tolist(), index.tolist(), sums.tolist()) if v < 0]
            raise AssertionError(f"negative fusion coefficients: {bad}")
        live = sums != 0
        bounds += (len(labels) + np.searchsorted(
            (b * (b + 1) // 2 + e)[live],
            np.arange(g * (g + 1) // 2, h * (h + 1) // 2) + 1)).tolist()
        labels += index[live].tolist()
        counts += sums[live].tolist()
        g = h
    alc._table = ({r: p for p, r in enumerate(reps)}, bounds, labels, counts)
    return alc._table


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
    alcove's fold table, its only fusion cache."""

    def __init__(self, alc: Alcove):
        self.alcove = alc

    def check_full_table(self) -> None:
        """Refuse a table over DIMENSION_CAP before any walk or fold: when
        the current-orbit representative last in (Weyl dimension, index)
        order, the largest that the table expands, is over the cap."""
        _representatives(self.alcove)

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
