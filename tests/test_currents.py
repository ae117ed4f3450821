import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from wzwcat import alcove, currents, fusion
from wzwcat.alcove import Alcove, make_alcove
from wzwcat.currents import (CurrentGroup, NotInvertibleError, check_action,
                             current_action, invariant_factors)
from wzwcat.modular import ModularData


def _index(md, weight):
    return md.alcove.index[tuple(weight)]


def current_orbit(cg, subgroup, i):
    """Reference H-orbit of alcove index i, sorted: the image of i under
    each current of the subgroup."""
    return tuple(sorted({cg.actions[h][i] for h in subgroup}))


def stabilizer_order(cg, subgroup, i):
    """Reference order of the stabilizer of alcove index i in the subgroup:
    the currents whose action fixes i."""
    return sum(cg.actions[h][i] == i for h in subgroup)


def test_invertible_counts_match_centers():
    # order of the invertible group = |Z(G)| for these (series, rank, k)
    expect = {
        ("A", 1, 4): 2, ("A", 2, 3): 3, ("A", 3, 4): 4, ("A", 4, 2): 5,
        ("B", 2, 3): 2, ("B", 3, 2): 2, ("C", 3, 2): 2,
        ("D", 4, 1): 4, ("D", 5, 1): 4,
        ("G", 2, 2): 1, ("F", 4, 1): 1,
    }
    for (series, rank, k), n in expect.items():
        cg = CurrentGroup(ModularData(series, rank, k))
        assert cg.order == n, (series, rank, k)
        assert cg.indices[0] == 0


def test_group_structure():
    assert CurrentGroup(ModularData("A", 3, 4)).group_id() == (4,)
    assert CurrentGroup(ModularData("A", 4, 2)).group_id() == (5,)
    assert CurrentGroup(ModularData("A", 1, 3)).group_id() == (2,)
    assert CurrentGroup(ModularData("D", 4, 1)).group_id() == (2, 2)
    assert CurrentGroup(ModularData("D", 5, 1)).group_id() == (4,)
    assert CurrentGroup(ModularData("G", 2, 2)).group_id() == ()


def test_a_series_action_closed_form():
    # generator k*omega_1 rotates affine labels: a -> (k-sum(a), a_1, ...)
    for rank, k in ((2, 3), (3, 4)):
        md = ModularData("A", rank, k)
        cg = CurrentGroup(md)
        gen = _index(md, (k,) + (0,) * (rank - 1))
        perm = cg.actions[gen]
        for i, lam in enumerate(md.weights):
            rotated = (k - sum(lam),) + lam[:-1]
            assert md.weights[perm[i]] == rotated


def test_b_series_action_closed_form():
    # vector current swaps the affine node with node 1
    for rank, k in ((2, 4), (3, 2)):
        md = ModularData("B", rank, k)
        cg = CurrentGroup(md)
        j = next(i for i in cg.indices if i != 0)
        comarks = md.rs.comarks
        for i, lam in enumerate(md.weights):
            a0 = k - sum(c * a for c, a in zip(comarks, lam))
            image = (a0,) + lam[1:]
            assert md.weights[cg.actions[j][i]] == image


def test_so5_twist_parity():
    # theta(J) = (-1)^k, so the vector current is Tannakian iff k is even
    for k in range(1, 5):
        cg = CurrentGroup(ModularData("B", 2, k))
        j = next(i for i in cg.indices if i != 0)
        assert cg.twist(j).t == Fraction(k % 2)
        assert len(cg.maximal_tannakian()) == (2 if k % 2 == 0 else 1)


def test_sl4_level4_tannakian():
    md = ModularData("A", 3, 4)
    cg = CurrentGroup(md)
    assert [len(s) for s in cg.subgroups()] == [1, 2, 4]
    # only J^2 = (0,4,0) has trivial twist; J itself has theta = -1
    tann = cg.tannakian_subgroups()
    assert [len(s) for s in tann] == [1, 2]
    assert cg.maximal_tannakian() == (0, _index(md, (0, 4, 0)))
    j = _index(md, (4, 0, 0))
    assert cg.twist(j).t == Fraction(1)


@pytest.mark.parametrize("case, group, count", [
    (("A", 19, 1), (20,), 6),       # Z20: one subgroup per divisor of 20
    (("D", 5, 1), (4,), 3),         # Z4: orders 1, 2, 4
    (("D", 6, 1), (2, 2), 5),       # Z2 x Z2: 1, three of order 2, itself
    (("E", 8, 2), (2,), 2),         # Z2, the fold-route current
])
def test_subgroup_counts_from_group_theory(case, group, count):
    cg = CurrentGroup(ModularData(*case))
    assert cg.group_id() == group
    assert len(cg.subgroups()) == count


def subgroups_by_subsets(cg):
    """Reference: every set of currents holding the unit and closed under
    fusion, by testing all subsets."""
    rest = [j for j in cg.indices if j != 0]
    subsets = [(0,) + extra for r in range(len(rest) + 1)
               for extra in itertools.combinations(rest, r)]
    found = [s for s in subsets
             if all(cg.actions[a][b] in s for a in s for b in s)]
    return sorted(found, key=lambda s: (len(s), s))


# the modular_sweep cases of the benchmark that have nontrivial currents
@pytest.mark.parametrize("case", [
    ("A", 5, 6), ("E", 6, 2), ("D", 5, 4), ("D", 4, 8), ("A", 3, 12),
    ("A", 4, 5), ("C", 4, 4), ("C", 3, 8), ("B", 2, 20), ("B", 3, 6),
    ("B", 4, 4), ("A", 2, 30), ("A", 1, 200),
])
def test_subgroups_match_the_subset_search(case):
    cg = CurrentGroup(ModularData(*case))
    assert cg.order > 1
    ref = subgroups_by_subsets(cg)
    assert cg.subgroups() == ref
    tannakian = [s for s in ref if all(cg.twist(j).is_trivial for j in s)]
    assert cg.tannakian_subgroups() == tannakian
    # the largest, ties broken lexicographically
    assert cg.maximal_tannakian() == min(
        tannakian, key=lambda s: (-len(s), s))


def test_d4_level2_full_tannakian():
    # all three simple currents of so8 have trivial twist at k=2, and the
    # bicharacter is trivial on the whole (2,2) group
    cg = CurrentGroup(ModularData("D", 4, 2))
    assert cg.group_id() == (2, 2)
    assert len(cg.maximal_tannakian()) == 4


def test_orbit_stabilizer_lagrange():
    md = ModularData("A", 3, 4)
    cg = CurrentGroup(md)
    full = tuple(cg.indices)
    for i in range(md.rank):
        orb = current_orbit(cg, full, i)
        assert len(orb) * stabilizer_order(cg, full, i) == cg.order
    # (1,1,1) is fixed by the whole Z/4
    fixed = _index(md, (1, 1, 1))
    assert current_orbit(cg, full, fixed) == (fixed,)
    assert stabilizer_order(cg, full, fixed) == 4
    # the unit's orbit is the group itself
    assert current_orbit(cg, full, 0) == cg.indices


def test_element_orders():
    md = ModularData("A", 3, 4)
    cg = CurrentGroup(md)
    orders = sorted(cg.element_order(j) for j in cg.indices)
    assert orders == [1, 2, 4, 4]


def _count_checks(monkeypatch) -> Counter:
    """Calls of check_action by current index, through both its bindings."""
    checks, check = Counter(), currents.check_action

    def counted(x, j, perm):
        checks[int(j)] += 1
        return check(x, j, perm)

    monkeypatch.setattr(currents, "check_action", counted)
    monkeypatch.setattr(alcove, "check_action", counted)
    return checks


def test_each_current_action_is_built_once(monkeypatch):
    # CurrentGroup takes the four invertibles of A3 level 4 through the
    # module binding, once each; S and the fold route read the alcove's
    # rows without it.  Each of the three non-unit diagram currents is
    # checked once, where Alcove.current_actions builds it
    calls, checks = Counter(), _count_checks(monkeypatch)
    build = currents.current_action

    def counted(md, j):
        calls[j] += 1
        return build(md, j)

    monkeypatch.setattr(currents, "current_action", counted)
    md = ModularData("A", 3, 4)
    md.smatrix
    md.fusion.row(1, 1)
    cg = CurrentGroup(md)
    assert len(cg.indices) == 4
    assert calls == Counter(cg.indices)
    diagram = md.alcove.current_actions[1:, 0].tolist()
    assert len(diagram) == 3
    assert checks == Counter(diagram)


def test_fold_route_current_is_checked_once(monkeypatch):
    # E8 level 2 has no diagram current; its current omega_1 is built from
    # fold rows and checked once, in current_action
    checks = _count_checks(monkeypatch)
    md = ModularData("E", 8, 2)
    cg = CurrentGroup(md)
    psi = _index(md, (1,) + (0,) * 7)
    assert cg.indices == (0, psi)
    assert checks == Counter({psi: 1})


def test_fold_route_reads_checked_actions(monkeypatch):
    # the fold route relabels products by the alcove's current actions,
    # which are checked before it reads them
    monkeypatch.setattr(Alcove, "qdims", property(
        lambda self: np.arange(1.0, self.rank + 1)))
    with pytest.raises(AssertionError, match="changes a quantum dimension"):
        fusion.fuse_weights(make_alcove("A", 3, 4), 1, 1)


@pytest.mark.parametrize("case", [("A", 3, 4), ("D", 4, 8), ("E", 6, 3),
                                  ("E", 8, 2)])
def test_monodromy_charges_of_a_stack_are_its_rows(case):
    # one formula for one action or a stack of them, on ModularData or its
    # alcove; E8 level 2 brings the fold-route current
    md = ModularData(*case)
    cg = CurrentGroup(md)
    acts = np.array([cg.actions[j] for j in cg.indices])
    t, period = md.twist_numerators
    got = currents.monodromy_charges(md, acts)
    assert got.shape == acts.shape
    assert np.array_equal(currents.monodromy_charges(md.alcove, acts), got)
    for j, perm, row in zip(cg.indices, acts, got):
        ref = (t[j] + t - t[perm]) % (2 * period)
        assert np.array_equal(row, ref)
        assert np.array_equal(currents.monodromy_charges(md, perm), ref)


# weights a with more than one row of the diagram currents taking rep(a)
# to a, the rows differing by a current that fixes rep(a)
@pytest.mark.parametrize("case, ambiguous", [
    (("A", 3, 4), 3), (("A", 5, 6), 12), (("D", 4, 8), 39)])
def test_smatrix_moves_are_the_last_matching_row(case, ambiguous):
    # the reference is the scatter that filled S from its orbit-rep block:
    # with rows written in order, the last row taking rep(a) to a is kept
    acts = ModularData(*case).alcove.current_actions
    n = acts.shape[1]
    rep, reps, move = currents.orbit_reps(acts, np.arange(n))
    assert np.array_equal(rep, acts.min(axis=0))
    g = np.empty(n, dtype=np.intp)
    g[acts[:, reps]] = np.arange(len(acts))[:, None]
    assert np.array_equal(move, g)
    first = (acts[:, rep] == np.arange(n)).argmax(axis=0)
    assert np.count_nonzero(first != g) == ambiguous


@pytest.mark.parametrize("case", [("A", 3, 4), ("A", 5, 6), ("D", 4, 8),
                                  ("E", 8, 2)])
def test_fold_route_reps_are_least_and_moves_reach_them(case):
    # under the fold route's (Weyl dimension, index) ranking, each rep is
    # the least member of its orbit and the move of each member carries
    # the rep to it; E8 level 2 brings the current that is no diagram
    # automorphism
    md = ModularData(*case)
    cg = CurrentGroup(md)
    acts = np.array([cg.actions[j] for j in cg.indices])
    order = np.array(fusion._current_orbits(md.alcove)[0])
    rep, reps, move = currents.orbit_reps(acts, order)
    assert np.array_equal(order[rep], order[acts].min(axis=0))
    assert np.array_equal(acts[move, rep], np.arange(md.rank))
    assert np.array_equal(reps, np.flatnonzero(rep == np.arange(md.rank)))


def test_noninvertible_rejected():
    md = ModularData("A", 1, 2)
    with pytest.raises(NotInvertibleError):
        current_action(md, 1)  # the Ising sigma row is not a permutation


def test_e8_level2_current_is_not_a_diagram_automorphism():
    # E8 has no node of mark 1, so its level-2 current omega_1 (h = 3/2,
    # the Ising fermion of E8 level 2) takes its action from the fold
    # route: it exchanges the unit and itself and fixes sigma = omega_8
    md = ModularData("E", 8, 2)
    assert 1 not in md.rs.marks
    unit, psi = 0, _index(md, (1,) + (0,) * 7)
    sigma = _index(md, (0,) * 7 + (1,))
    cg = CurrentGroup(md)
    assert cg.indices == (unit, psi)
    assert cg.actions[psi][unit] == psi and cg.actions[psi][psi] == unit
    assert cg.actions[psi][sigma] == sigma
    assert cg.twist(psi).t == Fraction(1)      # theta = exp(2 pi i 3/2)


def test_swapped_images_fail_the_exact_check():
    md = ModularData("A", 3, 4)
    j = _index(md, (0, 0, 4))
    perm = list(CurrentGroup(md).actions[j])
    check_action(md, j, perm)
    # J and J^3 have equal quantum dimension; with their images swapped
    # the action has order 2, and 2 Q_J is not integral
    a, b = j, _index(md, (4, 0, 0))
    assert md.qdims[perm[a]] == pytest.approx(md.qdims[perm[b]])
    swapped = list(perm)
    swapped[a], swapped[b] = perm[b], perm[a]
    with pytest.raises(AssertionError, match="monodromy charge"):
        check_action(md, j, swapped)
    # two images of different quantum dimension
    swapped = list(perm)
    swapped[1], swapped[2] = perm[2], perm[1]
    assert md.qdims[perm[1]] != pytest.approx(md.qdims[perm[2]])
    with pytest.raises(AssertionError, match="quantum dimension"):
        check_action(md, j, swapped)


def _element_orders(moduli):
    """Orders of all elements of Z/m_1 x ... x Z/m_r."""
    return [math.lcm(*(m // math.gcd(x, m) for x, m in zip(xs, moduli)))
            for xs in itertools.product(*(range(m) for m in moduli))]


def test_invariant_factors_of_cyclic_groups():
    for n in range(1, 257):
        assert invariant_factors(_element_orders((n,))) \
            == ((n,) if n > 1 else ())


def test_invariant_factors_of_klein_group():
    assert invariant_factors(_element_orders((2, 2))) == (2, 2)


@pytest.mark.parametrize("orders", [
    _element_orders((4, 2)), _element_orders((2, 2, 2)),
    _element_orders((3, 3)),
    [1, 2, 2],      # a unit and two elements of order 2: no group of order 3
], ids=["Z4xZ2", "Z2^3", "Z3xZ3", "orders-1-2-2"])
def test_invariant_factors_refuse_groups_that_are_no_centre(orders):
    with pytest.raises(ValueError):
        invariant_factors(orders)
