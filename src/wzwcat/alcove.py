"""Level-k alcove: simple objects, quantum dimensions, affine folding."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .currents import check_action
from .rootsys import (CapacityError, RootSystem, build_root_system,
                      integer_form, longest_element, place_values,
                      weyl_dimensions)

_FOLD_ITER_CAP = 100_000
ALCOVE_CAP = 200_000          # weights an Alcove may list


def count_alcove(series: str, rank: int, k: int) -> int:
    """Number of level-<=k dominant weights, by coin-change DP (no
    enumeration, so the alcove cap itself is cheap)."""
    comarks = build_root_system(series, rank).comarks
    if k < 1:
        raise ValueError("level must be a positive integer")
    ways = [1] + [0] * k
    for c in comarks:
        for j in range(c, k + 1):
            ways[j] += ways[j - c]
    return sum(ways)


def qint(n, ell) -> float:
    """Quantum integer [n] at altitude ell: sin(n pi/ell)/sin(pi/ell)."""
    return math.sin(math.pi * n / ell) / math.sin(math.pi / ell)


def quantum_dimensions(rs: RootSystem, k: int, labels) -> np.ndarray:
    """q-Weyl dimension at level k of each row of labels, an (N, rank) int
    array of dominant weights of level <= k; no alcove enumeration needed.

    Product over positive roots of [<lam+rho, alpha>]/[<rho, alpha>] at
    altitude lacing*(k + h_dual), multiplied and divided root by root in
    the order of rs.pos_roots, from one table of qint values.
    """
    ell = rs.lacing * (k + rs.h_dual)
    p = rs.pairing_matrix
    x = (np.asarray(labels, dtype=np.int64).reshape(-1, rs.rank) + 1) @ p
    rho = p.sum(axis=0)                 # rho has every label 1
    if (x < 1).any():
        raise ValueError("quantum dimensions want dominant weights")
    top = int(x.max(initial=rho.max()))
    table = np.array([qint(n, ell) for n in range(top + 1)])
    val = np.ones(len(x))
    for a in range(p.shape[1]):
        val *= table[x[:, a]]
        val /= table[rho[a]]
    return val


@dataclass
class Alcove:
    rs: RootSystem
    k: int
    weights: tuple = field(init=False)
    index: dict = field(init=False)
    # filled by the fusion module: the orbit data of the currents, the
    # products of every pair of orbit representatives (fusion._fold_table,
    # the only fusion cache), and every point it folded, with its fold
    # (fusion._fold_box)
    _orbits: tuple = field(init=False, default=None, repr=False)
    _table: tuple = field(init=False, default=None, repr=False)
    _folds: tuple = field(init=False, default=None, repr=False)

    def __post_init__(self):
        rs, k = self.rs, self.k
        # n lambda_j lies in the alcove for 0 <= n <= k // a_j: a bound that
        # can pass the cap only if k does, and refuses without a list
        n = k // min(rs.comarks) + 1 if k >= ALCOVE_CAP else 0
        if n <= ALCOVE_CAP:
            n = count_alcove(rs.series, rs.rank, k)
        if n > ALCOVE_CAP:
            raise CapacityError(
                f"alcove has at least {n} weights, over the cap {ALCOVE_CAP}")
        self.weights = tuple(self._enumerate())
        self.index = {w: i for i, w in enumerate(self.weights)}
        self._kh = k + rs.h_dual
        self._theta_labels = np.array(rs.root_labels(rs.highest_root))
        self._comarks = np.array(rs.comarks)
        self._cartan = np.array(rs.cartan)
        # mixed-radix codes, label i below k // comark_i + 1: ascending in
        # the lexicographic order of the weights
        self._place = place_values([k // c + 1 for c in rs.comarks])
        self.labels = np.array(self.weights, dtype=np.int64).reshape(-1, rs.rank)
        self._codes = self.labels @ self._place

    def _enumerate(self):
        n = self.rs.rank
        comarks = self.rs.comarks
        out = []

        # depth first, each label ascending: lexicographic order
        def rec(prefix, budget):
            i = len(prefix)
            if i == n:
                out.append(tuple(prefix))
                return
            for v in range(budget // comarks[i] + 1):
                rec(prefix + [v], budget - v * comarks[i])

        rec([], self.k)
        return out

    @property
    def ell(self) -> int:
        """Altitude m(k + h_dual); q = exp(i pi / ell)."""
        return self.rs.lacing * (self.k + self.rs.h_dual)

    @property
    def rank(self) -> int:
        return len(self.weights)

    @functools.cached_property
    def qdims(self) -> np.ndarray:
        """Quantum dimension of each weight, by alcove index."""
        return quantum_dimensions(self.rs, self.k, self.labels)

    @functools.cached_property
    def twist_numerators(self) -> tuple:
        """(T, P) with theta_lambda = exp(i pi T_lambda / P) exactly:
        T_lambda = D <lambda, lambda + 2 rho> as an int64 array by alcove
        index, and P = D ell, for D and G = D <., .> from integer_form."""
        denom, gram = integer_form(self.rs)
        x = self.labels
        return ((x @ gram) * (x + 2)).sum(axis=1), denom * self.ell

    @functools.cached_property
    def duals(self) -> np.ndarray:
        """Alcove index of the dual -w0 lambda of each weight."""
        w0 = longest_element(self.rs, range(self.rs.rank))
        return self.lookup(-self.labels @ w0.T)

    @functools.cached_property
    def weyl_dims(self) -> list:
        """Weyl dimension of each weight, by alcove index."""
        return weyl_dimensions(self.rs, self.labels)

    @functools.cached_property
    def current_actions(self) -> np.ndarray:
        """Alcove permutation of each diagram current, as the rows of a
        (|Z|, rank) int64 array: the unit first, then J = k omega_n for
        each node n of mark 1 in node order, so column 0 holds the
        currents' indices.  J.lambda = k omega_n + w0^(n) w0 lambda, with
        w0^(n) the longest element of the Levi subgroup without node n,
        and w0 lambda = -lambda* read from the duals.  The currents form the
        centre, cyclic or Z2 x Z2, so a node is walked only if its corner is
        no known row's, and the known rows are then closed under its
        powers: one Levi walk per type, two for D_r.  Each row but the
        unit's passes currents.check_action before it is returned."""
        rs, k = self.rs, self.k
        nodes = range(rs.rank)
        known = {0: np.arange(self.rank)}       # row by the current's index
        ones = [n for n in nodes if rs.marks[n] == 1]
        corners = self.lookup(k * np.eye(rs.rank, dtype=int)[ones]).tolist()
        for node, corner in zip(ones, corners):
            if corner in known:
                continue
            levi = longest_element(rs, [i for i in nodes if i != node])
            image = -self.labels[self.duals] @ levi.T
            image[:, node] += k
            if (image < 0).any() or (image @ rs.comarks > k).any():
                raise AssertionError(f"action of node {node} leaves the alcove")
            g = p = self.lookup(image)
            base = list(known.values())
            while p[0] not in known:            # the coset p.base is new
                known.update((q[p[0]], q[p]) for q in base)
                p = g[p]
        acts = np.array([known[j] for j in [0, *corners]])
        for perm in acts[1:]:
            check_action(self, perm[0], perm)
        return acts

    def lookup(self, labels) -> np.ndarray:
        """Alcove index of each row of labels, an (N, rank) int array of
        dominant weights of level <= k, by mixed-radix code.  Raises if a
        code is not an alcove weight's."""
        codes = labels @ self._place
        found = np.searchsorted(self._codes, codes)
        if (self._codes.take(found, mode="clip") != codes).any():
            raise AssertionError("weight outside the alcove")
        return found

    def fold(self, mu) -> tuple:
        """Shifted affine Weyl fold of each row of mu into the alcove.

        mu is an (N, rank) int array.  Returns (sign, index), two int64
        arrays of length N: sign in {-1, 0, +1} and the alcove index of the
        folded weight, with sign 0 and index -1 where mu + rho lies on a
        reflection wall and the term cancels.  A point with a zero label,
        or of level exactly k + h_dual, is fixed by a reflection and
        cancels at once.  Every other live point is reflected in its first
        negative label, else in the affine wall while its level exceeds
        k + h_dual, one step per point per round, until it lands inside.
        """
        x = np.array(mu, dtype=np.int64).reshape(-1, self.rs.rank) + 1
        sign = np.zeros(len(x), dtype=np.int64)
        index = np.full(len(x), -1, dtype=np.int64)
        kh, theta, comarks, cartan = (self._kh, self._theta_labels,
                                      self._comarks, self._cartan)
        # the live points: labels x, output row, sign so far
        row = np.arange(len(x))
        s = np.ones(len(x), dtype=np.int64)
        for _ in range(_FOLD_ITER_CAP):
            if not len(x):
                break
            t = x @ comarks
            neg = x < 0
            has_neg = neg.any(axis=1)
            wall = (x == 0).any(axis=1) | (t == kh)
            inside = ~(wall | has_neg) & (t < kh)
            sign[row[inside]] = s[inside]
            index[row[inside]] = self.lookup(x[inside] - 1)
            live = ~(wall | inside)
            x, t, neg, has_neg, row, s = (x[live], t[live], neg[live],
                                          has_neg[live], row[live], -s[live])
            # reflect in the first negative label, else in the affine wall
            i = neg.argmax(axis=1)
            step = np.where(has_neg, x[np.arange(len(x)), i], t - kh)
            x -= step[:, None] * np.where(has_neg[:, None], cartan[i], theta)
        if len(x):
            stuck = tuple((x[0] - 1).tolist())
            raise AssertionError(f"fold did not terminate for {stuck}")
        return sign, index


def make_alcove(series: str, rank: int, k: int) -> Alcove:
    return Alcove(build_root_system(series, rank), k)
