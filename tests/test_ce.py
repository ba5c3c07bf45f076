"""Exterior-algebra chains: Koszul boundary, homology, extended differential."""

import random
import time
from functools import lru_cache
from itertools import permutations

import pytest

from torelli.words import catalog, compose
from torelli.hall import get_basis, lie_from_items
from torelli.malcev import induced_lie_auto
from torelli.ce import (
    BudgetExceeded,
    WedgeChain,
    ce_boundary,
    multidegree_wedges,
    _block_rank,
    _orbits,
    _wedges,
    homology_dims,
    c_mod_b_dim,
    lift_chain,
    reduce_mod_high,
    extended_differential,
    read_h_tensor_l,
    act,
    verify_d_squared,
)

rng = random.Random(27182818)


def random_chain(basis, degree, n_terms=4, span=None):
    terms = {}
    span = basis.dim if span is None else span
    for _ in range(n_terms):
        tup = tuple(rng.sample(range(span), degree))
        terms[tup] = terms.get(tup, 0) + rng.randint(-3, 3)
    return WedgeChain(basis, degree, terms)


def wedge_tuples(basis, degree, weight, start=0):
    """Oracle: strictly increasing index tuples of given degree and total
    weight, found without looking at letter content."""
    if degree == 0:
        if weight == 0:
            yield ()
        return
    for i in range(start, basis.dim):
        wi = basis.weights[i]
        if wi * degree > weight:
            break
        for rest in wedge_tuples(basis, degree - 1, weight - wi, i + 1):
            yield (i,) + rest


def _count_wedges(basis, degree, weight):
    """Oracle: number of wedges of given degree and total weight, by DP."""

    @lru_cache(maxsize=None)
    def cnt(start, deg, w):
        if deg == 0:
            return 1 if w == 0 else 0
        return sum(
            cnt(i + 1, deg - 1, w - basis.weights[i])
            for i in range(start, basis.dim)
            if basis.weights[i] * deg <= w
        )

    return cnt(0, degree, weight)


def compositions(n, weight):
    """Every length-n tuple of nonnegative integers adding up to weight."""
    if n == 1:
        yield (weight,)
        return
    for first in range(weight + 1):
        for rest in compositions(n - 1, weight - first):
            yield (first,) + rest


def index_of(basis, foliage):
    for i in range(basis.dim):
        if basis.foliages[i] == foliage:
            return i
    raise AssertionError(f"no basis element with foliage {foliage}")


def test_constructor_normalizes():
    b = get_basis(4, 2)
    assert WedgeChain(b, 2, {(1, 0): 1}) == WedgeChain(b, 2, {(0, 1): -1})
    assert not WedgeChain(b, 2, {(3, 3): 5})
    assert WedgeChain(b, 3, {(2, 0, 1): 7}) == WedgeChain(b, 3, {(0, 1, 2): 7})
    with pytest.raises(ValueError):
        WedgeChain(b, 2, {(0, 1, 2): 1})


def test_boundary_of_generator_pair():
    b = get_basis(4, 2)
    chain = WedgeChain(b, 2, {(0, 1): 1})
    expected = WedgeChain(b, 1, {(index_of(b, (1, 2)),): 1})
    assert ce_boundary(chain) == expected


def test_boundary_degree3_signs():
    # d(x1^x2^x3) = [x1,x2]^x3 - [x1,x3]^x2 + [x2,x3]^x1, stored with
    # indices ascending (weight-1 block sits below the weight-2 block)
    b = get_basis(4, 2)
    got = ce_boundary(WedgeChain(b, 3, {(0, 1, 2): 1}))
    expected = WedgeChain(
        b,
        2,
        {
            (2, index_of(b, (1, 2))): -1,
            (1, index_of(b, (1, 3))): 1,
            (0, index_of(b, (2, 3))): -1,
        },
    )
    assert got == expected


def test_boundary_vanishes_on_abelian():
    b = get_basis(4, 1)
    for _ in range(5):
        assert not ce_boundary(random_chain(b, 2))
        assert not ce_boundary(random_chain(b, 3))


def test_boundary_squared_is_zero():
    b = get_basis(4, 3)
    for degree in (2, 3, 4):
        for _ in range(10):
            z = random_chain(b, degree, n_terms=5)
            assert not ce_boundary(ce_boundary(z))


def test_boundary_preserves_weight():
    b = get_basis(4, 3)
    for _ in range(10):
        z = random_chain(b, 3, n_terms=1)
        if not z.terms:
            continue
        w = z.weight_of(next(iter(z.terms)))
        dz = ce_boundary(z)
        assert all(dz.weight_of(t) == w for t in dz.terms)


def test_wedge_tuples_counted_exactly():
    b = get_basis(4, 3)
    for degree in (1, 2, 3):
        for w in range(0, 3 * degree + 1):
            tuples = list(wedge_tuples(b, degree, w))
            assert len(tuples) == _count_wedges(b, degree, w)
            assert len(set(tuples)) == len(tuples)
            assert all(
                sum(b.weights[i] for i in t) == w and list(t) == sorted(t)
                for t in tuples
            )


def test_multidegree_blocks_partition_weight_blocks():
    for n in (2, 4):
        for c in (1, 2, 3):
            b = get_basis(n, c)
            for degree in range(5):
                for w in range(c * degree + 1):
                    found = []
                    for content in compositions(n, w):
                        block = list(multidegree_wedges(b, degree, content))
                        assert all(
                            tuple(map(sum, zip(*(b.contents[i] for i in t)))) == content
                            for t in block
                            if t
                        )
                        found += block
                    assert sorted(found) == list(wedge_tuples(b, degree, w)), (n, c, degree, w)
                    assert len(found) == _count_wedges(b, degree, w)


def test_orbits_cover_every_multidegree_once():
    for n in (2, 4, 6):
        reps_by_weight = {}
        for w, size, content in _orbits(n, 7):
            assert list(content) == sorted(content, reverse=True) and sum(content) == w
            assert size == len(set(permutations(content)))
            reps_by_weight.setdefault(w, []).append(size)
        for w in range(8):
            assert sum(reps_by_weight[w]) == len(list(compositions(n, w)))


def test_permuted_block_has_representative_rank():
    b = get_basis(4, 3)
    budget = [10**6]
    nonzero = 0
    for rep in ((2, 1, 1, 0), (2, 2, 1, 0), (2, 1, 1, 1), (2, 2, 1, 1)):
        for degree in (2, 3, 4):
            expect = _block_rank(
                b, _wedges(b, degree, rep, budget), _wedges(b, degree - 1, rep, budget)
            )
            nonzero += expect > 0
            for content in set(permutations(rep)) - {rep}:
                got = _block_rank(
                    b,
                    _wedges(b, degree, content, budget),
                    _wedges(b, degree - 1, content, budget),
                )
                assert got == expect, (rep, content, degree)
    assert nonzero >= 6


def test_homology_dims_abelian():
    # abelian case: zero differential, so H_n = Lambda^n of a 4-dim space
    assert homology_dims(2, 2, 4) == [1, 4, 6, 4, 1]


def test_homology_dims_heisenberg_tower():
    # 2 letters, class 2: classic small nilpotent algebra, total dim 3
    assert homology_dims(1, 3, 3) == [1, 2, 2, 1]


def test_homology_dims_frozen_g2_k3():
    dims, tables = homology_dims(2, 3, 2, per_weight=True)
    assert dims == [1, 4, 20]
    assert tables[0] == {0: 1}
    assert tables[1] == {1: 4}
    assert tables[2] == {3: 20}


def test_budget_exceeded():
    with pytest.raises(BudgetExceeded):
        homology_dims(2, 4, 3, budget=50)


def test_budget_spent_while_enumerating():
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        homology_dims(2, 4, 4, budget=2_000)
    assert time.monotonic() - t0 < 1


def test_c_mod_b_dim_frozen():
    assert c_mod_b_dim(2, 3) == 75


def test_verify_d_squared_clean():
    report = verify_d_squared(1, 3, 3)
    assert set(report) == {2, 3}
    for stats in report.values():
        assert not stats["failures"]
        assert stats["checked"] > 0
    report = verify_d_squared(2, 3, 3)
    assert all(not stats["failures"] for stats in report.values())
    assert report[3]["structurally_zero"] > 0


def test_lift_and_reduce():
    b2 = get_basis(4, 1)
    up = get_basis(4, 2)
    z = WedgeChain(b2, 2, {(0, 1): 3})
    lifted = lift_chain(z, up)
    assert lifted.basis is up and lifted.terms == z.terms
    with pytest.raises(ValueError):
        lift_chain(z, get_basis(4, 3))
    # reduction drops (weight>=2)^(weight k) pairs, keeps (1,k) pairs
    mixed = WedgeChain(up, 2, {(0, 5): 2, (4, 5): 7})
    red = reduce_mod_high(mixed, 2)
    assert red == WedgeChain(up, 2, {(0, 5): 2})


def test_extended_differential_example():
    b = get_basis(4, 1)
    up = get_basis(4, 2)
    z = WedgeChain(b, 3, {(0, 1, 2): 1})
    got = extended_differential(z, 2)
    expected = WedgeChain(
        up,
        2,
        {
            (2, index_of(up, (1, 2))): -1,
            (1, index_of(up, (1, 3))): 1,
            (0, index_of(up, (2, 3))): -1,
        },
    )
    assert got == expected


def test_extended_differential_kills_boundaries():
    for k in (2, 3):
        b = get_basis(4, k - 1)
        for _ in range(15):
            c4 = random_chain(b, 4, n_terms=4)
            assert not extended_differential(ce_boundary(c4), k)


def test_extended_differential_is_linear():
    b = get_basis(4, 2)
    for _ in range(10):
        z, w = random_chain(b, 3), random_chain(b, 3)
        lhs = extended_differential(z.scale(2) + w.scale(-3), 3)
        rhs = extended_differential(z, 3).scale(2) + extended_differential(w, 3).scale(-3)
        assert lhs == rhs
    assert not extended_differential(WedgeChain(b, 3), 3)


def test_extended_differential_rejects_bad_input():
    b = get_basis(4, 2)
    with pytest.raises(ValueError):
        extended_differential(WedgeChain(b, 2, {(0, 1): 1}), 3)
    with pytest.raises(ValueError):
        extended_differential(WedgeChain(b, 3, {(0, 1, 2): 1}), 2)


def test_read_h_tensor_l_example():
    b = get_basis(4, 1)
    up = get_basis(4, 2)
    slots = read_h_tensor_l(extended_differential(WedgeChain(b, 3, {(0, 1, 2): 1}), 2)).values
    assert len(slots) == 4
    assert slots[0] == lie_from_items(up, [(index_of(up, (2, 3)), -1)])
    assert slots[1] == lie_from_items(up, [(index_of(up, (1, 3)), 1)])
    assert slots[2] == lie_from_items(up, [(index_of(up, (1, 2)), -1)])
    assert not slots[3]


def test_read_rejects_off_shape_terms():
    up = get_basis(4, 2)
    with pytest.raises(ValueError):
        read_h_tensor_l(WedgeChain(up, 2, {(4, 5): 1}))
    with pytest.raises(ValueError):
        read_h_tensor_l(WedgeChain(up, 2, {(0, 1): 1}))


def test_act_identity():
    b = get_basis(4, 2)
    cols = tuple(lie_from_items(b, [(i, 1)]) for i in range(b.dim))
    for _ in range(10):
        z = random_chain(b, 3)
        assert act(cols, z) == z


def test_act_commutes_with_boundary():
    b = get_basis(4, 2)
    cat = catalog(2)
    for phi in (cat["t1"], compose(cat["u1"], cat["t2"]), cat["sep1"]):
        cols = induced_lie_auto(phi, 3)
        for _ in range(10):
            z = random_chain(b, 3, n_terms=4)
            assert ce_boundary(act(cols, z)) == act(cols, ce_boundary(z))


def test_act_is_functorial():
    b = get_basis(4, 2)
    cat = catalog(2)
    phi, psi = cat["t1"], cat["sep1"]
    cols_phi = induced_lie_auto(phi, 3)
    cols_psi = induced_lie_auto(psi, 3)
    cols_comp = induced_lie_auto(compose(phi, psi), 3)
    for _ in range(10):
        z = random_chain(b, 2, n_terms=4)
        assert act(cols_comp, z) == act(cols_phi, act(cols_psi, z))
