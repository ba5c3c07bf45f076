"""The in-place sparse accumulate core and the vector laws of every kind
built on it."""

import random
from fractions import Fraction

import pytest

from torelli.bar import bar_chain
from torelli.ce import WedgeChain
from torelli.hall import HallBasis, LieElement, get_basis, lie_from_items
from torelli.sparse import add_into, collect
from torelli.words import Word

rng = random.Random(16180339)


def test_add_into_removes_entries_that_reach_zero():
    acc = {1: 2, 2: 3}
    assert add_into(acc, {1: -2, 3: 1}) is acc
    assert acc == {2: 3, 3: 1}
    add_into(acc, {2: 1, 3: Fraction(1, 2)}, -2)
    assert acc == {2: 1}
    assert 0 not in acc.values()


def test_add_into_leaves_src_alone():
    src = {1: 1, 2: Fraction(-3, 4)}
    acc = dict(src)
    add_into(acc, src)
    add_into(acc, src, Fraction(-5, 3))
    assert src == {1: 1, 2: Fraction(-3, 4)}
    assert acc == {1: Fraction(1, 3), 2: Fraction(-1, 4)}


def test_add_into_factor_one_keeps_ints():
    acc = {1: 1}
    add_into(acc, {1: 2, 2: 5})
    assert acc == {1: 3, 2: 5}
    assert all(type(v) is int for v in acc.values())


def test_add_into_factor_zero_changes_nothing():
    acc = {1: 1}
    add_into(acc, {1: -1, 2: 7}, 0)
    assert acc == {1: 1}


def test_add_into_mixed_int_and_fraction():
    acc = {1: 1, 2: Fraction(1, 2), 3: 4}
    add_into(acc, {1: Fraction(-1, 2), 2: 1, 3: 8}, Fraction(-1, 2))
    assert acc == {1: Fraction(5, 4)}


def test_collect_sums_pairs_without_zero_entries():
    got = collect([("a", 1), ("b", 2), ("a", -1), ("c", Fraction(1, 3)), ("b", 1)])
    assert got == {"b": 3, "c": Fraction(1, 3)}


def _coeff():
    return Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.randint(1, 3))


def _word():
    return Word.make([rng.choice([1, -1, 2, -2, 3, -3]) for _ in range(rng.randint(1, 3))])


def _lie(keys):
    return lie_from_items(get_basis(3, 3), [(k, _coeff()) for k in keys])


def _lie_key():
    return rng.randrange(get_basis(3, 3).dim)


def _wedge(keys):
    return WedgeChain(get_basis(3, 3), 2, {k: _coeff() for k in keys})


def _wedge_key():
    return tuple(rng.sample(range(get_basis(3, 3).dim), 2))


def _bar(keys):
    return bar_chain(2, [(k, rng.randint(-3, 3)) for k in keys])


def _bar_key():
    return (_word(), _word())


KINDS = {
    "LieElement": (_lie, _lie_key),
    "WedgeChain": (_wedge, _wedge_key),
    "BarChain": (_bar, _bar_key),
}


@pytest.mark.parametrize("kind", sorted(KINDS))
def test_vector_laws(kind):
    build, key = KINDS[kind]
    for _ in range(30):
        a = build([key() for _ in range(5)])
        # b shares keys with a and cancels some of them exactly
        b = build([key() for _ in range(3)]) - a.scale(rng.choice([1, -1, 0]))
        for x in (a, b, a + b, a - b, (a + b) - b, a.scale(-2)):
            assert 0 not in x.terms.values()
        assert (a + b) - b == a
        assert not (a - a)
        assert not a.scale(0)
        assert not (a + a.scale(-1))


# the kinds over a Hall basis, each built over a given basis
OVER_BASIS = {
    "LieElement": lambda basis: LieElement(basis, {0: 1, 1: 2}),
    "WedgeChain": lambda basis: WedgeChain(basis, 2, {(0, 1): 1}),
}


@pytest.mark.parametrize("kind", sorted(OVER_BASIS))
def test_kinds_over_different_bases_do_not_mix(kind):
    build = OVER_BASIS[kind]
    x = build(get_basis(3, 3))
    # another basis object of the same (n, c) is the same algebra
    assert x == build(HallBasis(3, 3))
    assert not x - build(HallBasis(3, 3))
    for n, c in ((3, 2), (2, 3), (4, 3)):
        y = build(get_basis(n, c))
        for left, right in ((x, y), (y, x)):
            with pytest.raises(ValueError, match="mixed truncation levels"):
                left + right
            with pytest.raises(ValueError, match="mixed truncation levels"):
                left - right
            with pytest.raises(ValueError, match="mixed truncation levels"):
                left == right
