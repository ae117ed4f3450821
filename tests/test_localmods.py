from fractions import Fraction

import numpy as np
import pytest
from test_currents import current_orbit, stabilizer_order

from wzwcat.currents import invariant_factors
from wzwcat.localmods import (LocalCategoryData, _deduce_abelian_structure,
                               local_category)
from wzwcat.modular import ModularData


def free_fusion(loc, a, b):
    """Aggregate product of two free modules by the fold route,
    {orbit rep: multiplicity}.

    a and b are alcove indices whose H-stabilizers must be trivial.  The
    free-module functor is monoidal, so the multiplicity of the modules
    over the orbit of nu -- summed across the split pieces when the target
    orbit has a stabilizer -- is the plain fusion number summed over the
    orbit, scaled by the stabilizer order.
    """
    for x in (a, b):
        if stabilizer_order(loc.currents, loc.subgroup, x) != 1:
            raise ValueError("free_fusion needs weights with trivial "
                             "stabilizer")
    rep_of, stab_of = {}, {}
    for orb in loc.orbits:
        for x in orb:
            rep_of[x] = orb[0]
            stab_of[x] = len(loc.subgroup) // len(orb)
    out = {}
    for i, c in loc.md.fusion.row(a, b).items():
        out[rep_of[i]] = out.get(rep_of[i], 0) + c * stab_of[i]
    return dict(sorted(out.items()))


def _in_root_lattice(rs, lam):
    # alpha_j has Dynkin labels row_j(A), so lam = A^T c with integer c
    # exactly when lam lies in the root lattice
    c = np.linalg.solve(np.array(rs.cartan, dtype=float).T,
                        np.array(lam, dtype=float))
    return np.max(np.abs(c - np.rint(c))) < 1e-9


def test_so5_level2_is_pointed_rank5():
    loc = local_category("B", 2, 2)
    assert loc.subgroup_order == 2
    assert loc.rank == 5
    assert all(abs(d - 1.0) < 1e-9 for d in loc.qdims)
    part = loc.pointed_part()
    assert part["rank"] == 5
    assert part["structure"] == (5,)
    assert loc.closure_residual < 1e-9


def test_sl2_level4_three_pieces():
    loc = local_category("A", 1, 4)
    assert loc.local_weight_count == 3  # 0, 2, 4
    assert loc.rank == 3               # {0,4} merges, 2 splits in two
    assert loc.pointed_part()["structure"] == (3,)
    splits = sorted(s.split for s in loc.simples)
    assert splits == [1, 2, 2]


def test_sl4_level4_census():
    loc = local_category("A", 3, 4)
    assert loc.subgroup_order == 2
    assert loc.local_weight_count == 19
    assert loc.rank == 14
    assert loc.pointed_rank == 2
    assert loc.pointed_part()["structure"] == (2,)
    # the non-unit invertible is a fermion
    tw = [t for i, t in enumerate(loc.twists) if i in loc.pointed_indices]
    assert sorted(a.t for a in tw) == [0, 1]
    assert loc.adjoint_rank() == 8
    md = loc.md
    assert abs(loc.global_dim - md.global_dim / 4.0) < 1e-6 * md.global_dim


def test_sl3_level3_is_so8_level1():
    # central charge 4 and four invertibles: the (2,2) pointed category
    loc = local_category("A", 2, 3)
    assert loc.rank == 4
    assert all(abs(d - 1.0) < 1e-9 for d in loc.qdims)
    assert loc.pointed_part()["structure"] == (2, 2)
    assert loc.md.central_charge == 4


def test_sl4_level2_exceptional_adjoint():
    # the one type A level where the adjoint weight's local module is not
    # simple: it splits into two invertible pieces which, with the unit,
    # form a Z/3
    loc = local_category("A", 3, 2)
    assert loc.subgroup_order == 2
    assert loc.rank == 6
    assert all(abs(d - 1.0) < 1e-9 for d in loc.qdims)
    assert loc.pointed_part()["structure"] == (6,)
    idx = loc.md.alcove.index
    beta = idx[(1, 0, 1)]
    pieces = [s for s in loc.simples if s.rep == beta]
    assert [s.split for s in pieces] == [2, 2]
    assert {s.twist.t for s in pieces} == {Fraction(4, 3)}
    # grading by split invertibles is ambiguous, so adjoint_rank refuses
    with pytest.raises(ValueError):
        loc.adjoint_rank()


def test_squarefree_pointed_part_is_cyclic():
    # so10 at level 2 has a pointed part of order 10 that contains split
    # pieces; every abelian group of square-free order is cyclic
    loc = local_category("D", 5, 2)
    part = loc.pointed_part()
    assert part["rank"] == 10
    assert any(loc.simples[i].split > 1 for i in loc.pointed_indices)
    assert part["structure"] == (10,)


def test_order4_structure_from_twists():
    # twists q(x) of Z/4 with generator twist t are {0, t, 4t, 9t} mod 2
    cases = {
        (0, 0, 0, 0): None,                  # Z/4 with the trivial form
        (0, 1, 1, 1): (2, 2),                # sl3 level 3, i.e. so8 level 1
        (0, Fraction(1, 4), Fraction(1, 4), 1): None,
    }
    for twists, structure in cases.items():
        assert _deduce_abelian_structure(4, twists) == structure


def test_global_dim_quotient_and_closure():
    for series, rank, k in (("A", 1, 8), ("B", 2, 4), ("B", 2, 8),
                            ("A", 2, 6), ("D", 4, 2)):
        loc = local_category(series, rank, k)
        h = loc.subgroup_order
        assert h > 1
        md = loc.md
        assert abs(loc.global_dim - md.global_dim / h ** 2) \
            < 1e-6 * md.global_dim
        assert loc.closure_residual < 1e-6


def test_locality_is_root_lattice_membership():
    # over the full center, a weight orbit is local iff the weight sits in
    # the root lattice
    for k in (2, 6, 12):
        loc = local_category("B", 2, k)
        md = loc.md
        local_weights = {md.weights[i] for orb in loc.local_orbits
                         for i in orb}
        lattice = {lam for lam in md.weights
                   if _in_root_lattice(md.rs, lam)}
        assert local_weights == lattice


@pytest.mark.parametrize("series,rank,k", [
    ("A", 3, 4), ("D", 4, 4), ("B", 2, 2), ("E", 6, 3), ("A", 7, 8),
])
def test_local_orbits_have_constant_twist(series, rank, k):
    # the monodromy definition of locality: an H-orbit is local exactly when
    # the exact twist is constant along it
    loc = local_category(series, rank, k)
    md, cg = loc.md, loc.currents
    assert loc.subgroup_order > 1
    orbits = {current_orbit(cg, loc.subgroup, i) for i in range(md.rank)}
    expected = {o for o in orbits if len({md.twists[x] for x in o}) == 1}
    assert set(loc.orbits) == orbits
    assert set(loc.local_orbits) == expected


def test_locality_is_sublattice_congruence_sl4():
    # the Tannakian subgroup of sl4 at level 4 is only half the center, so
    # locality is the coarser condition: even tetrality a1 + a3
    loc = local_category("A", 3, 4)
    md = loc.md
    local_weights = {md.weights[i] for orb in loc.local_orbits for i in orb}
    assert len(local_weights) == 19
    expected = {lam for lam in md.weights if (lam[0] + lam[2]) % 2 == 0}
    assert local_weights == expected


def test_so5_local_rank_formula():
    # rank of C(so5, 2n)^0 is (n+1)(n+4)/2
    for n in range(1, 5):
        loc = local_category("B", 2, 2 * n)
        assert loc.rank == (n + 1) * (n + 4) // 2


def test_free_fusion_aggregates():
    loc = local_category("A", 1, 4)
    idx = loc.md.alcove.index
    out = free_fusion(loc, idx[(1,)], idx[(1,)])
    # unit orbit once; the split orbit of spin 1 with multiplicity 2
    assert out == {idx[(0,)]: 1, idx[(2,)]: 2}
    # representative independence: 3 = J.1 gives the same aggregate
    assert free_fusion(loc, idx[(3,)], idx[(1,)]) == out
    assert free_fusion(loc, idx[(3,)], idx[(3,)]) == out

    so5 = local_category("B", 2, 4)
    idx = so5.md.alcove.index
    sq = free_fusion(so5, idx[(0, 2)], idx[(0, 2)])
    assert sq[idx[(0, 0)]] == 1


@pytest.mark.parametrize("series,rank,k", [("A", 5, 3), ("D", 5, 4),
                                           ("A", 3, 12)])
def test_pointed_structure_matches_fold_route(series, rank, k):
    # pointed_part multiplies free invertibles as simple currents; the
    # fold route (free_fusion) must give the same group
    loc = local_category(series, rank, k)
    pieces = [loc.simples[i] for i in loc.pointed_indices]
    assert len(pieces) > 1 and all(p.split == 1 for p in pieces)
    orders = []
    for p in pieces:
        n, cur = 1, p.rep
        while cur != 0:
            prod = free_fusion(loc, cur, p.rep)
            assert list(prod.values()) == [1]
            cur = next(iter(prod))
            n += 1
        orders.append(n)
    assert loc.pointed_part()["structure"] == invariant_factors(orders)


def test_free_fusion_dimension_bookkeeping():
    # sum of mult * (qdim/stab) over target orbits = product of qdims
    for series, rank, k in (("A", 1, 4), ("B", 2, 4), ("A", 3, 4)):
        loc = local_category(series, rank, k)
        md, cg = loc.md, loc.currents
        free = [i for i in range(md.rank)
                if stabilizer_order(cg, loc.subgroup, i) == 1]
        stab = {orb[0]: len(loc.subgroup) // len(orb) for orb in loc.orbits}
        for a in free[:4]:
            for b in free[:4]:
                out = free_fusion(loc, a, b)
                rhs = sum(c * float(md.qdims[r]) / stab[r]
                          for r, c in out.items())
                lhs = float(md.qdims[a] * md.qdims[b])
                assert abs(lhs - rhs) < 1e-8 * max(1.0, lhs)


def test_free_fusion_rejects_fixed_points():
    loc = local_category("A", 1, 4)
    idx = loc.md.alcove.index
    with pytest.raises(ValueError):
        free_fusion(loc, idx[(2,)], idx[(1,)])


def test_subgroup_validation():
    md = ModularData("A", 3, 4)
    idx = md.alcove.index
    j, j2, j3 = idx[(4, 0, 0)], idx[(0, 4, 0)], idx[(0, 0, 4)]
    with pytest.raises(ValueError, match="Tannakian"):
        # J itself is a fermion, so {1, J, J^2, J^3} is not admissible
        LocalCategoryData(md, subgroup=(0, j, j2, j3))
    with pytest.raises(ValueError, match="closed"):
        LocalCategoryData(md, subgroup=(0, j))


def test_trivial_subgroup_reproduces_ambient():
    md = ModularData("B", 2, 3)  # odd level: no Tannakian current
    loc = LocalCategoryData(md)
    assert loc.subgroup_order == 1
    assert loc.rank == md.rank
    assert np.allclose(loc.qdims, md.qdims)
