"""Truncated tensor algebra: exp/log, Hall projection, cross-checks."""

import random
from fractions import Fraction
from math import factorial

import pytest

from torelli.hall import LieElement, get_basis
from torelli.malcev import get_context
from torelli.sparse import add_into
from torelli.tensor import TensorContext
from torelli.words import Word

rng = random.Random(60221023)


def lie_rand(basis, spread=4):
    picks = rng.sample(range(basis.dim), min(spread, basis.dim))
    return LieElement(
        basis, {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for i in picks}
    )


def test_exp_log_round_trip():
    basis = get_basis(3, 4)
    tc = TensorContext(basis)
    for _ in range(20):
        x = lie_rand(basis)
        t = tc.exp(tc.from_lie(x))
        assert tc.to_lie(tc.log(t)) == x


def test_log_exp_of_tensors():
    basis = get_basis(2, 4)
    tc = TensorContext(basis)
    for _ in range(20):
        x = lie_rand(basis)
        t = tc.exp(tc.from_lie(x))
        assert tc.exp(tc.log(t)) == t


def test_group_like_inverse():
    basis = get_basis(3, 3)
    tc = TensorContext(basis)
    for _ in range(20):
        t = tc.exp(tc.from_lie(lie_rand(basis)))
        assert tc.mul(t, tc.inverse(t)) == {(): 1}


def test_hall_image_projects_back():
    for n, c in ((2, 4), (4, 3)):
        basis = get_basis(n, c)
        tc = TensorContext(basis)
        for i in range(basis.dim):
            e = LieElement(basis, {i: 1})
            assert tc.to_lie(tc.hall_image(i)) == e


def test_projection_rejects_non_lie_tensors():
    basis = get_basis(2, 2)
    tc = TensorContext(basis)
    with pytest.raises(ValueError):
        tc.to_lie({(1, 1): Fraction(1)})  # symmetric square is not primitive
    with pytest.raises(ValueError):
        tc.to_lie({(): Fraction(1)})
    # smallest word Lyndon: its coordinate is read off, a residual is left
    with pytest.raises(ValueError, match="weight-2"):
        tc.to_lie({(1, 2): 1})
    with pytest.raises(ValueError, match="weight-3"):
        TensorContext(get_basis(2, 3)).to_lie({(1, 1, 2): 1, (1, 2, 2): Fraction(1, 2)})


def test_hall_images_are_unitriangular():
    # to_lie relies on this: the image of a basis element is its foliage
    # with coefficient 1 plus lexicographically larger words of its weight
    for n, c in ((2, 6), (4, 5), (6, 4)):
        basis = get_basis(n, c)
        tc = TensorContext(basis)
        for i in range(basis.dim):
            im = tc.hall_image(i)
            assert min(im) == basis.foliages[i], (n, c, i)
            assert im[basis.foliages[i]] == 1, (n, c, i)
            assert {len(w) for w in im} == {basis.weights[i]}, (n, c, i)


def test_solver_and_dynkin_projections_agree():
    # two independent routes from Lie tensors to Hall coordinates
    for n, c in ((2, 5), (3, 4), (4, 3)):
        basis = get_basis(n, c)
        tc = TensorContext(basis)
        for _ in range(15):
            x = lie_rand(basis)
            t = tc.from_lie(x)
            assert tc.to_lie(t) == tc.to_lie_dynkin(t) == x


def test_bracket_matches_tensor_commutator():
    # the Jacobi-rewritten structure constants against pure tensor algebra
    for n, c in ((2, 5), (3, 4), (4, 3)):
        basis = get_basis(n, c)
        tc = TensorContext(basis)
        for _ in range(25):
            i, j = rng.randrange(basis.dim), rng.randrange(basis.dim)
            if basis.weights[i] + basis.weights[j] > c:
                continue
            ti, tj = tc.hall_image(i), tc.hall_image(j)
            comm = {
                w: v
                for w, v in (
                    (w, tc.mul(ti, tj).get(w, 0) - tc.mul(tj, ti).get(w, 0))
                    for w in set(tc.mul(ti, tj)) | set(tc.mul(tj, ti))
                )
                if v
            }
            lhs = tc.to_lie(comm)
            rhs = LieElement(basis, {i: 1}).bracket(LieElement(basis, {j: 1}))
            assert lhs == rhs, (n, c, i, j)


def test_mul_truncates_at_class():
    basis = get_basis(2, 2)
    tc = TensorContext(basis)
    t = {(1, 2): Fraction(1)}
    assert tc.mul(t, t) == {}


def _old_exp(tc, x):
    out, pw = {(): 1}, {(): 1}
    for m in range(1, tc.c + 1):
        pw = tc.mul(pw, x)
        if not pw:
            break
        add_into(out, pw, Fraction(1, factorial(m)))
    return out


def _old_log(tc, p):
    u = {w: v for w, v in p.items() if w != ()}
    out, pw = {}, {(): 1}
    for m in range(1, tc.c + 1):
        pw = tc.mul(pw, u)
        if not pw:
            break
        add_into(out, pw, Fraction(1 if m % 2 else -1, m))
    return out


def _old_inverse(tc, p):
    u = {w: -v for w, v in p.items() if w != ()}
    out, pw = {(): 1}, {(): 1}
    for _ in range(tc.c):
        pw = tc.mul(pw, u)
        if not pw:
            break
        add_into(out, pw)
    return out


@pytest.mark.parametrize("n,c", [(2, 1), (2, 3), (3, 4), (2, 5)])
def test_series_match_separate_loops(n, c):
    # exp and log share one series loop, and inverse is the antipode;
    # these are the power-series loops they replaced, kept as oracles
    basis = get_basis(n, c)
    tc = TensorContext(basis)
    for _ in range(10):
        x = tc.from_lie(lie_rand(basis))
        g = tc.exp(x)
        assert g == _old_exp(tc, x)
        assert tc.log(g) == _old_log(tc, g)
        assert tc.inverse(g) == _old_inverse(tc, g)
        # a non-group-like unit and a nilpotent input of high weight
        p = dict(g)
        p[(1,) * c] = p.get((1,) * c, 0) + 3
        assert tc.log(p) == _old_log(tc, p)
        top = {(2,) * c: Fraction(5, 2)}
        assert tc.exp(top) == _old_exp(tc, top)


def _fraction_mul(tc, a, b):
    """The former mul: one multiply-add per pair of entries that fits
    under the class, in the entries' own (int or Fraction) arithmetic."""
    out = {}
    for wa, va in a.items():
        room = tc.c - len(wa)
        for wb, vb in b.items():
            if len(wb) > room:
                continue
            w = wa + wb
            nv = out.get(w, 0) + va * vb
            if nv:
                out[w] = nv
            elif w in out:
                del out[w]
    return out


def _random_tensor(n, c, size, fractions):
    """size random entries at words of length 0..c, ints in [-9, 9] or
    Fractions with denominators up to c!."""
    t = {}
    for _ in range(size):
        w = tuple(rng.randint(1, n) for _ in range(rng.randint(0, c)))
        v = rng.choice((-1, 1)) * rng.randint(1, 9)
        t[w] = Fraction(v, rng.randint(1, factorial(c))) if fractions else v
    return t


@pytest.mark.parametrize("n,c", [(2, 6), (4, 5), (6, 3)])
def test_integer_mul_matches_fraction_oracle(n, c):
    tc = TensorContext(get_basis(n, c))
    g = tc.exp(tc.from_lie(lie_rand(tc.basis)))
    top = {(1,) * c: Fraction(-7, factorial(c)), (n,) * c: 5}
    pairs = [
        (_random_tensor(n, c, 12, fa), _random_tensor(n, c, 12, fb))
        for fa, fb in ((False, False), (False, True), (True, False), (True, True))
        for _ in range(5)
    ]
    pairs += [
        (g, tc.inverse(g)),  # everything but the constant term cancels
        ({(): 1, (1,): 1}, {(): 1, (1,): -1}),  # the (1,) entries cancel
        (top, {(2,): 3, (1, 2): Fraction(1, 2)}),  # nothing fits: empty
        ({(): 1}, g),
        (g, {(): 1}),
        ({}, g),
        (g, {}),
    ]
    for a, b in pairs:
        got = tc.mul(a, b)
        assert got == _fraction_mul(tc, a, b), (a, b)
        assert all(got.values()), "zero entry kept"
    assert tc.mul(g, tc.inverse(g)) == {(): 1}
    assert tc.mul(top, {(2,): 3}) == {}


def _random_word(n, length):
    return Word.make([rng.choice((1, -1)) * rng.randint(1, n) for _ in range(length)])


@pytest.mark.parametrize("n,c", [(2, 6), (4, 4), (6, 3)])
def test_antipode_inverse_matches_power_series(n, c):
    # group-like tensors of every origin the package has: word walks, exp of
    # rational Lie elements, products, sections one level up (Fraction
    # entries) and normal-form products
    ctx = get_context(n, c + 1)
    tc = ctx.tc
    low = get_context(n, c)
    walks = [ctx.element(_random_word(n, rng.randint(1, 9))).tensor for _ in range(6)]
    exps = [tc.exp(tc.from_lie(lie_rand(tc.basis))) for _ in range(6)]
    products = [tc.mul(a, b) for a, b in zip(walks, exps)]
    sections = [low.section(low.element(_random_word(n, rng.randint(2, 9)))).tensor
                for _ in range(6)]
    normal_forms = [
        ctx.from_normal_form([rng.randint(-2, 2) for _ in range(tc.basis.dim)]).tensor
        for _ in range(4)
    ]
    assert any(isinstance(v, Fraction) and v.denominator != 1
               for t in sections for v in t.values())
    for t in walks + exps + products + sections + normal_forms + [{(): 1}]:
        inv = tc.inverse(t)
        assert inv == _old_inverse(tc, t), t
        assert all(inv.values()), "zero entry kept"
        assert tc.mul(t, inv) == {(): 1} == tc.mul(inv, t)
    with pytest.raises(ValueError):
        tc.inverse({(): 2, (1,): 1})
