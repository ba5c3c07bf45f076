"""Hall bases via Lyndon words, checked against independent oracles."""

import random
from fractions import Fraction

import pytest

from torelli.hall import HallBasis, LieElement, get_basis, lie_generator

rng = random.Random(31415)


# -- oracle 1: Duval's algorithm enumerates Lyndon words directly -------------


def duval_lyndon_counts(n: int, max_len: int) -> dict[int, int]:
    counts = {w: 0 for w in range(1, max_len + 1)}
    word = [-1]
    while word:
        word[-1] += 1
        m = len(word)
        counts[m] += 1
        while len(word) < max_len:
            word.append(word[len(word) - m])
        while word and word[-1] == n - 1:
            word.pop()
    counts[1] -= 0  # single letters were all counted by the loop
    return counts


# -- oracle 2: Witt's formula with a hand-rolled Moebius function -------------


def moebius(m: int) -> int:
    out, p = 1, 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                return 0
            out = -out
        p += 1
    if m > 1:
        out = -out
    return out


def witt(n: int, w: int) -> int:
    total = 0
    for d in range(1, w + 1):
        if w % d == 0:
            total += moebius(d) * n ** (w // d)
    return total // w


def test_dims_match_both_oracles():
    for n in (2, 4, 6):
        basis = HallBasis(n, 6)
        duval = duval_lyndon_counts(n, 6)
        for w in range(1, 7):
            assert basis.dims[w - 1] == duval[w] == witt(n, w), (n, w)


def test_spec_listed_dims_for_four_generators():
    basis = get_basis(4, 3)
    assert basis.dims == [4, 6, 20]
    assert HallBasis(4, 4).dims[3] == 60


def test_foliages_are_lyndon_words():
    basis = get_basis(3, 4)
    for i in range(basis.dim):
        f = basis.foliages[i]
        # strictly smaller than all proper rotations: the Lyndon property
        for r in range(1, len(f)):
            assert f < f[r:] + f[:r], f


def test_basis_is_prefix_of_next_class():
    small, big = get_basis(4, 3), get_basis(4, 4)
    assert big.children[: small.dim] == small.children
    assert big.foliages[: small.dim] == small.foliages
    assert big.weights[: small.dim] == small.weights


@pytest.mark.parametrize("n, c", [(3, 5), (4, 4)])
def test_tables_describe_hall_trees(n, c):
    basis = get_basis(n, c)
    for i, lr in enumerate(basis.children):
        f = basis.foliages[i]
        if lr is None:
            assert basis.weights[i] == 1 and f == (i + 1,), i
            continue
        l, r = lr
        assert basis.weights[i] > 1, i
        assert f == basis.foliages[l] + basis.foliages[r], i
        assert basis.weights[i] == basis.weights[l] + basis.weights[r], i
        assert basis.foliages[l] < basis.foliages[r], i
        # Hall condition: a bracket on the left has right child >= r
        ll = basis.children[l]
        assert ll is None or basis.foliages[ll[1]] >= basis.foliages[r], i


def test_names_render_the_bracketing():
    basis = get_basis(2, 4)
    assert [basis.name(i) for i in range(basis.dim)] == [
        "x1",
        "x2",
        "[x1,x2]",
        "[x1,[x1,x2]]",
        "[[x1,x2],x2]",
        "[x1,[x1,[x1,x2]]]",
        "[x1,[[x1,x2],x2]]",
        "[[[x1,x2],x2],x2]",
    ]


def test_index_lookup_consistent():
    basis = get_basis(4, 3)
    for i in range(basis.dim):
        assert basis.index[basis.foliages[i]] == i


def test_bracket_weight_truncation():
    basis = get_basis(2, 3)
    i = basis.index[(1, 2)]
    assert basis.bracket_indices(i, i) == {}
    j = basis.index[(1, 1, 2)]
    assert basis.bracket_indices(i, j) == {}  # weight 5 > 3


def test_bracket_antisymmetry_exhaustive_small():
    basis = get_basis(2, 4)
    for i in range(basis.dim):
        for j in range(basis.dim):
            bij = basis.bracket_indices(i, j)
            bji = basis.bracket_indices(j, i)
            assert bij == {k: -v for k, v in bji.items()}, (i, j)


def lie_rand(basis, weight=None, spread=3):
    idxs = (
        list(basis.weight_range(weight)) if weight else list(range(basis.dim))
    )
    picks = rng.sample(idxs, min(spread, len(idxs)))
    return LieElement(basis, {i: Fraction(rng.randint(-4, 4)) for i in picks})


def test_jacobi_identity_random():
    basis = get_basis(3, 5)
    for _ in range(40):
        x, y, z = (lie_rand(basis) for _ in range(3))
        lhs = x.bracket(y.bracket(z)) + y.bracket(z.bracket(x)) + z.bracket(x.bracket(y))
        assert not lhs.terms


def test_jacobi_identity_exhaustive_basis_triples():
    basis = get_basis(2, 5)
    els = [LieElement(basis, {i: 1}) for i in range(basis.dim)]
    for i in range(len(els)):
        for j in range(i, len(els)):
            for k in range(j, len(els)):
                x, y, z = els[i], els[j], els[k]
                s = (
                    x.bracket(y.bracket(z))
                    + y.bracket(z.bracket(x))
                    + z.bracket(x.bracket(y))
                )
                assert not s.terms, (i, j, k)


def test_bilinearity():
    basis = get_basis(4, 4)
    for _ in range(30):
        x, y, z = (lie_rand(basis) for _ in range(3))
        a = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        assert (x + y.scale(a)).bracket(z) == x.bracket(z) + y.bracket(z).scale(a)


def test_grading():
    basis = get_basis(4, 4)
    for _ in range(30):
        w1, w2 = rng.randint(1, 2), rng.randint(1, 2)
        x, y = lie_rand(basis, w1), lie_rand(basis, w2)
        b = x.bracket(y)
        if b.terms:
            assert b.min_weight() == w1 + w2
            assert all(basis.weights[i] == w1 + w2 for i in b.terms)


def test_lie_element_helpers():
    basis = get_basis(4, 3)
    x = lie_generator(basis, 1)
    y = lie_generator(basis, 2)
    b = x.bracket(y)
    assert b.terms == {basis.index[(1, 2)]: 1}
    assert b.weight_part(2) == b and not b.weight_part(1).terms
    assert b.is_integral()
    assert not LieElement(basis, {0: Fraction(1, 2)}).is_integral()


def test_hash_ignores_int_or_fraction_coefficients():
    basis = get_basis(3, 3)
    x = LieElement(basis, {0: 2, 4: -1, 7: 3})
    y = LieElement(basis, {7: Fraction(6, 2), 0: Fraction(2), 4: Fraction(-1)})
    assert x == y and hash(x) == hash(y)
    assert {x: 1}[y] == 1


def test_rewriting_terminates_on_all_pairs():
    # every bracket of basis elements must resolve without cycling
    for n, c in ((2, 6), (3, 4), (4, 3)):
        basis = get_basis(n, c)
        for i in range(basis.dim):
            for j in range(basis.dim):
                basis.bracket_indices(i, j)
