"""Root systems of the simple Lie types in Bourbaki numbering.

Weights are tuples of Dynkin labels, roots are tuples of coordinates in the
simple-root basis.  The symmetric form is normalized so short roots have
squared length 2; ``d[i]`` is half the squared length of the simple root
``alpha_i``, so d = 1 on short roots and d = lacing on long ones.

The Cartan matrix convention is ``a[i][j] = <alpha_i, alpha_j^vee>``.  With
that choice the Dynkin labels of a root ``sum_j c_j alpha_j`` are
``sum_j c_j a[j][i]`` and the pairing of a weight with a root is the integer
``sum_j c_j * lambda_j * d_j``: for every positive root at once, the row
``lambda @ pairing_matrix``.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

Weight = tuple  # Dynkin labels, ints
Root = tuple    # simple-root coordinates, ints

DIMENSION_CAP = 10_000_000
WEYL_GROUP_CAP = 10_000_000

_SERIES_RANK_OK = {
    "A": lambda n: n >= 1,
    "B": lambda n: n >= 2,
    "C": lambda n: n >= 3,
    "D": lambda n: n >= 4,
    "E": lambda n: n in (6, 7, 8),
    "F": lambda n: n == 4,
    "G": lambda n: n == 2,
}

# |Phi+| of each series at rank n (Bourbaki, Lie Groups ch. VI, plates)
_POSITIVE_ROOTS = {
    "A": lambda n: n * (n + 1) // 2,
    "B": lambda n: n * n,
    "C": lambda n: n * n,
    "D": lambda n: n * (n - 1),
    "E": lambda n: {6: 36, 7: 63, 8: 120}[n],
    "F": lambda n: 24,
    "G": lambda n: 6,
}


class CapacityError(ValueError):
    """A requested computation exceeds a configured size cap."""


def _simply_laced_edges(series: str, n: int):
    if series in ("A",):
        return [(i, i + 1) for i in range(n - 1)]
    if series == "D":
        return [(i, i + 1) for i in range(n - 2)] + [(n - 3, n - 1)]
    if series == "E":
        # Bourbaki: chain 1-3-4-5-6(-7-8), node 2 hangs off node 4.
        chain = [0, 2, 3, 4, 5, 6, 7][: n - 1]
        edges = [(chain[i], chain[i + 1]) for i in range(len(chain) - 1)]
        edges.append((1, 3))
        return edges
    raise ValueError(series)


def _cartan_and_d(series: str, n: int):
    a = [[2 * (i == j) for j in range(n)] for i in range(n)]

    def bond(i, j, aij, aji):
        a[i][j] = aij
        a[j][i] = aji

    if series in ("A", "D", "E"):
        for i, j in _simply_laced_edges(series, n):
            bond(i, j, -1, -1)
        d = [1] * n
    elif series == "B":
        # long chain, short final node
        for i in range(n - 2):
            bond(i, i + 1, -1, -1)
        bond(n - 2, n - 1, -2, -1)
        d = [2] * (n - 1) + [1]
    elif series == "C":
        for i in range(n - 2):
            bond(i, i + 1, -1, -1)
        bond(n - 2, n - 1, -1, -2)
        d = [1] * (n - 1) + [2]
    elif series == "F":
        bond(0, 1, -1, -1)
        bond(1, 2, -2, -1)
        bond(2, 3, -1, -1)
        d = [2, 2, 1, 1]
    elif series == "G":
        bond(0, 1, -1, -3)
        d = [1, 3]
    else:
        raise ValueError(series)
    return tuple(tuple(r) for r in a), tuple(d)


def _positive_roots(cartan, n):
    """Closure of the simple roots under upward simple reflections, sorted
    by height.  Each root c is carried with its Dynkin labels <c, alpha_i^vee>
    (row i of the Cartan matrix for alpha_i); where one is negative, s_i c =
    c - <c, alpha_i^vee> alpha_i is a higher positive root.  Every other
    positive root beta has some <beta, alpha_i^vee> > 0, as (beta, beta) > 0,
    and s_i beta is then lower, so the closure reaches it by induction.
    """
    found = {tuple(int(i == j) for j in range(n)) for i in range(n)}
    layer = [(c, cartan[c.index(1)]) for c in found]
    while layer:
        nxt = []
        for c, lab in layer:
            for i, p in enumerate(lab):
                if p < 0:
                    up = c[:i] + (c[i] - p,) + c[i + 1:]
                    if up not in found:
                        found.add(up)
                        nxt.append((up, tuple([x - p * a for x, a
                                               in zip(lab, cartan[i])])))
        layer = nxt
    return tuple(sorted(found, key=lambda c: (sum(c), c)))


@dataclass(frozen=True)
class RootSystem:
    series: str
    rank: int
    cartan: tuple
    d: tuple
    pos_roots: tuple
    highest_root: Root
    marks: tuple
    comarks: tuple
    lacing: int
    h_dual: int
    rho: Weight
    # unused by the library; perfbench/tracing.py reads it
    _cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def name(self):
        return f"{self.series}{self.rank}"

    def root_labels(self, root: Root) -> Weight:
        a = self.cartan
        return tuple(sum(root[j] * a[j][i] for j in range(self.rank))
                     for i in range(self.rank))

    @functools.cached_property
    def pairing_matrix(self) -> np.ndarray:
        """P[i, a] = alpha_a[i] d_i as int64, rank x |pos_roots|, so that
        <lambda, alpha_a> = (lambda @ P)[a] for Dynkin labels lambda.
        Read-only: every caller of the process shares it."""
        p = np.array(self.pos_roots, dtype=np.int64).T * np.array(
            self.d, dtype=np.int64)[:, None]
        p.flags.writeable = False
        return p

    @functools.cached_property
    def root_label_matrix(self) -> np.ndarray:
        """Row a = the Dynkin labels of alpha_a, int64; read-only."""
        m = np.array(self.pos_roots, dtype=np.int64) @ np.array(
            self.cartan, dtype=np.int64)
        m.flags.writeable = False
        return m

    @functools.cached_property
    def quad_form(self) -> tuple:
        """<omega_i, omega_j> as Fractions, from the positive roots alone:
        for an invariant form, sum_{alpha > 0} <x, alpha><y, alpha> =
        h_dual (theta, theta)/2 <x, y> (Di Francesco-Mathieu-Senechal, CFT,
        13.1), and here (theta, theta) = 2 lacing: the form is P P^T / (h_dual
        lacing), exact in int64, once (P P^T) A^T = h_dual lacing diag(d)."""
        p = self.pairing_matrix
        g = np.einsum("ia,ja->ij", p, p)
        scale = self.h_dual * self.lacing
        if not np.array_equal(g @ np.array(self.cartan, dtype=np.int64).T,
                              np.diag(np.array(self.d) * scale)):
            raise AssertionError("Killing sum fails the Cartan check")
        return tuple(tuple(Fraction(x, scale) for x in row)
                     for row in g.tolist())

    def level(self, lam: Weight) -> int:
        return sum(c * x for c, x in zip(self.comarks, lam))


@functools.cache
def build_root_system(series: str, rank: int) -> RootSystem:
    """The root system of a type, built once per process and shared."""
    series = series.upper()
    if series not in _SERIES_RANK_OK or not _SERIES_RANK_OK[series](rank):
        raise ValueError(f"unsupported type {series}{rank}")
    # the root table holds |Phi+| roots of rank coordinates
    size = _POSITIVE_ROOTS[series](rank) * rank
    if size > DIMENSION_CAP:
        raise CapacityError(f"{series}{rank} has a root table of {size} "
                            f"entries, over the cap {DIMENSION_CAP}")
    cartan, d = _cartan_and_d(series, rank)
    pos = _positive_roots(cartan, rank)
    theta = pos[-1]
    lacing = max(d)
    if any(t * di % lacing for t, di in zip(theta, d)):
        raise AssertionError("comark not integral")
    comarks = tuple(t * di // lacing for t, di in zip(theta, d))
    return RootSystem(
        series=series,
        rank=rank,
        cartan=cartan,
        d=d,
        pos_roots=pos,
        highest_root=theta,
        marks=theta,
        comarks=comarks,
        lacing=lacing,
        h_dual=1 + sum(comarks),
        rho=(1,) * rank,
    )


def weyl_dimensions(rs: RootSystem, labels) -> list:
    """Weyl dimension of each row of labels, an (N, rank) int array of
    dominant weights: prod <lambda + rho, alpha> / prod <rho, alpha> over
    the positive roots, in exact Python ints (E8 products overflow int64)."""
    p = rs.pairing_matrix
    den = math.prod(p.sum(axis=0).tolist())
    x = np.asarray(labels, dtype=np.int64).reshape(-1, rs.rank) + 1
    nums = [math.prod(row) for row in (x @ p).tolist()]
    if any(num % den for num in nums):
        raise AssertionError("Weyl dimension not integral")
    return [num // den for num in nums]


def longest_element(rs: RootSystem, nodes) -> np.ndarray:
    """Longest element of the Weyl group of the given nodes on Dynkin
    labels: reflect rho in those nodes until its labels there are < 0.
    Over all nodes it is w0, and -w0 lambda is the dual of lambda."""
    cartan = np.array(rs.cartan, dtype=np.int64)
    m = np.eye(rs.rank, dtype=np.int64)
    while True:
        x = m.sum(axis=1)                     # m applied to rho
        i = next((i for i in nodes if x[i] > 0), None)
        if i is None:
            return m
        m -= np.outer(cartan[i], m[i])


def place_values(radix) -> np.ndarray:
    """Place values of mixed-radix codes whose digit i takes radix[i]
    values, from 0 up or balanced around 0: int64 while every code fits,
    else Python ints (a float dtype would merge codes)."""
    dtype = (np.int64 if math.prod(radix) <= np.iinfo(np.int64).max
             else object)
    return np.array([math.prod(radix[i + 1:]) for i in range(len(radix))],
                    dtype=dtype)


def integer_form(rs: RootSystem) -> tuple:
    """(D, G): D the common denominator of the quadratic form
    <omega_i, omega_j>, G = D times the form as an int64 matrix."""
    denom = math.lcm(*(f.denominator for row in rs.quad_form for f in row))
    return denom, np.array([[int(f * denom) for f in row]
                            for row in rs.quad_form], dtype=np.int64)


def orbit_walk(rs: RootSystem, doms) -> tuple:
    """(points, owner): each point of the Weyl orbits of doms, an (N, rank)
    array of dominant weights, once, with the row of its dominant weight.
    Layer by layer, a child s_i y of y (y_i > 0) is kept where i is its
    first negative label, which names its one parent.  A label of w(mu) is
    at most top = max <mu, alpha>, and y_i a_ij within 3 top."""
    top = int((np.asarray(doms) @ rs.pairing_matrix).max(initial=0))
    walk = np.min_scalar_type(-3 * top - 1)
    cartan = np.array(rs.cartan, dtype=walk)
    y, owner = np.array(doms, dtype=walk), np.arange(len(doms))
    layers = [(y, owner)]
    while len(y):
        rows, nodes = np.nonzero(y > 0)
        kids = y[rows] - y[rows, nodes][:, None] * cartan[nodes]
        keep = (kids < 0).argmax(axis=1) == nodes
        y, owner = kids[keep], owner[rows[keep]]
        layers.append((y, owner))
    return tuple(np.concatenate(c) for c in zip(*layers))


def freudenthal(rs: RootSystem, doms, tops, points, owner) -> np.ndarray:
    """M[t, x], the multiplicity of doms[x] in the representation of
    highest weight doms[tops[t]], as int64, for doms a downward-closed set
    of dominant weights and (points, owner) its orbit_walk.

    Dominant-weight Freudenthal (Moody and Patera, Bull. AMS 7, 1982) on
    every top at once, in exact integers with (D, G) from integer_form,
    each mu after every mu + j alpha (by <mu, 2 rho>): D (|lam + rho|^2 -
    |mu + rho|^2) m(mu) = 2 D sum m(mu + j alpha) <mu + j alpha, alpha>
    over alpha > 0 and j > 0.  mu + j alpha has the multiplicity of its
    owner, found by code; strings are unbroken, so each stops at its first
    miss.  A denominator <= 0 must come with a numerator 0: mu is then no
    weight of the top, nor is any mu + j alpha.  Callers keep each top's
    dimension, which bounds its multiplicities, under DIMENSION_CAP, and
    the sums with it in int64.
    """
    dom = np.asarray(doms, dtype=np.int64)
    alabs, pairing = rs.root_label_matrix, rs.pairing_matrix
    # balanced mixed-radix codes with digits in [-top - t, top + t], t the
    # largest root label: mu + j alpha one step past a weight has a code of
    # its own, so a miss is never read as another weight
    top = int((dom @ pairing).max(initial=0))
    t = int(np.abs(alabs).max())
    place = place_values([2 * (top + t) + 1] * rs.rank)
    codes = points @ place
    codes, by_owner = codes.take(by := codes.argsort()), owner.take(by)
    # the strings mu + j alpha, j = 1, 2, ... while they hit: a hit is a
    # term (mu, owner of mu + j alpha, <mu + j alpha, alpha>)
    a_codes, a_norms = alabs @ place, (alabs * pairing.T).sum(axis=1)
    mu, a = np.indices((len(dom), len(alabs))).reshape(2, -1)
    code, val = (dom @ place)[mu] + a_codes[a], (dom @ pairing)[mu, a]
    terms = [(mu[:0], mu[:0], mu[:0])]
    while len(mu):
        val = val + a_norms[a]
        at = np.searchsorted(codes, code)
        hit = codes.take(at, mode="clip") == code
        mu, a, code, val, at = mu[hit], a[hit], code[hit], val[hit], at[hit]
        terms.append((mu, by_owner.take(at), val))
        code = code + a_codes.take(a)
    mu, of, val = (np.concatenate(c) for c in zip(*terms))
    o = mu.argsort(kind="stable")
    bounds = np.searchsorted(mu.take(o), np.arange(len(dom) + 1)).tolist()
    of, val = of.take(o), val.take(o)
    denom, gram = integer_form(rs)
    norm = ((dom + 1) @ gram * (dom + 1)).sum(axis=1)
    dens = norm[tops][:, None] - norm
    m = np.zeros((len(tops), len(dom)), dtype=np.int64)
    m[np.arange(len(tops)), tops] = 1
    for x in np.argsort(-(dom @ pairing).sum(axis=1), kind="stable").tolist():
        lo, hi = bounds[x], bounds[x + 1]
        num, den = 2 * denom * (m[:, of[lo:hi]] @ val[lo:hi]), dens[:, x]
        live = den > 0
        if num[~live].any() or (num[live] % den[live]).any():
            raise AssertionError("Freudenthal division failed")
        m[live, x] = num[live] // den[live]
    return m


# weight systems of every type, by (series, rank, lam), for the life of
# the process: they do not depend on the level
_WEIGHT_SYSTEMS: dict = {}


def weight_system(rs: RootSystem, lam: Weight) -> np.ndarray:
    """Weights of the irreducible representation with multiplicities, as a
    read-only structured array: ``point`` the Dynkin labels, ``mult`` the
    multiplicity (int32).  Each (type, lam) is computed once per process.

    The dominant weights mu <= lam come from lam by subtracting positive
    roots: the covers of the dominance order on dominant weights are
    positive roots (Stembridge, 1998).  Raises CapacityError beyond
    DIMENSION_CAP, before any enumeration, to keep runaway requests loud.
    """
    lam = tuple(int(x) for x in lam)
    if min(lam) < 0:
        raise ValueError(f"weight system wants a dominant weight, got {lam}")
    key = (rs.series, rs.rank, lam)
    if key in _WEIGHT_SYSTEMS:
        return _WEIGHT_SYSTEMS[key]
    (dim,) = weyl_dimensions(rs, [lam])
    if dim > DIMENSION_CAP:
        raise CapacityError(f"dim {rs.name} {lam} exceeds {DIMENSION_CAP}")
    # dominant weights mu <= lam, with the root coordinates of lam - mu
    roots = list(zip(rs.pos_roots, rs.root_label_matrix.tolist()))
    coords, layer = {lam: (0,) * rs.rank}, [lam]
    while layer:
        nxt = []
        for mu in layer:
            base = coords[mu]
            for alpha, alab in roots:
                x = tuple([m - a for m, a in zip(mu, alab)])
                if min(x) >= 0 and x not in coords:
                    coords[x] = tuple([c + a for c, a in zip(base, alpha)])
                    nxt.append(x)
        layer = nxt
    doms = sorted(coords, key=lambda w: sum(coords[w]))
    points, owner = orbit_walk(rs, doms)
    mult = freudenthal(rs, doms, [0], points, owner)[0].take(owner)
    if mult.sum() != dim:
        raise AssertionError("multiplicities do not sum to the dimension")
    top = int((np.array(lam) @ rs.pairing_matrix).max())
    ws = np.empty(len(points), dtype=[
        ("point", np.min_scalar_type(-1 - top), (rs.rank,)),
        ("mult", np.int32)])
    ws["point"], ws["mult"] = points, mult
    ws.flags.writeable = False
    _WEIGHT_SYSTEMS[key] = ws
    return ws


def weyl_group_order(rs: RootSystem) -> int:
    """|W| = rank! * (product of the marks) * |P/Q|, exactly (Bourbaki, Lie
    Groups ch. VI, 2.4).  The index of connection |P/Q| is 1 plus the number
    of nodes of mark 1: with the affine node, these are the special vertices
    of the alcove (ch. VI, 2.3), the same fact that gives the simple currents.
    """
    return (math.factorial(rs.rank) * math.prod(rs.marks)
            * (1 + rs.marks.count(1)))


def weyl_orbit_signs(rs: RootSystem, x: Weight) -> np.ndarray:
    """Free Weyl orbit of a strictly dominant weight x, one record per w in W:
    ``point`` w(x) in Dynkin labels, ``sign`` det(w) = (-1)^length(w), and
    ``matrix`` the int8 matrix of w on Dynkin labels, identity first.  Layer
    by layer, the children of a layer are s_i y for its points y and the
    nodes i with y_i > 0, parent-first, then in node order, keeping the first
    of equal points; each child's matrix is R_i times its parent's.  Each
    child is one length longer than its parent, so no earlier layer can
    hold it.
    """
    x = np.array(x, dtype=np.int64)
    if np.any(x <= 0):
        raise ValueError("orbit seed must be strictly dominant")
    order = weyl_group_order(rs)
    if order > WEYL_GROUP_CAP:
        raise CapacityError(f"|W| of {rs.name} exceeds {WEYL_GROUP_CAP}")
    r = rs.rank
    # a label of w(x) is some <x, beta^vee> <= max <x, alpha>, and |a_ij| <= 3:
    # the walk runs in the narrowest dtype that holds three times that
    label = np.min_scalar_type(-3 * int((x @ rs.pairing_matrix).max()))
    orbit = np.empty(order, dtype=[("point", label, r), ("sign", np.int8),
                                   ("matrix", np.int8, (r, r))])
    orbit[0] = x, 1, np.eye(r)
    cartan = np.array(rs.cartan, dtype=label)
    # int16 holds every matrix step: |a_ij| <= 3, and the entries of M_w
    # are coroot coefficients, at most 6
    cartan16 = np.array(rs.cartan, dtype=np.int16)
    start, stop = 0, 1
    while start < stop:
        y = orbit["point"][start:stop]
        rows, nodes = np.nonzero(y > 0)
        kids = y[rows] - y[rows, nodes][:, None] * cartan[nodes]
        # the sort is stable, so each run of equal points starts with the first
        by = np.lexsort(kids.T)
        runs = kids[by]
        new = np.ones(len(by), dtype=bool)
        new[1:] = (runs[1:] != runs[:-1]).any(axis=1)
        first = np.sort(by[new])
        i = nodes[first]
        pm = orbit["matrix"][start + rows[first]].astype(np.int16)
        layer = orbit[stop:stop + len(first)]
        layer["point"], layer["sign"] = kids[first], -orbit["sign"][start]
        layer["matrix"] = (pm - cartan16[i][:, :, None]
                           * pm[np.arange(len(i)), i][:, None, :])
        start, stop = stop, stop + len(first)
    if stop != order:
        raise AssertionError("Weyl orbit is not free")
    return orbit
