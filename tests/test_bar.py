"""Bar chains over the free group and its truncations, bounding, capping."""

import json
import random

import pytest

from torelli.words import (
    Word,
    word,
    generator,
    boundary_word,
    catalog,
    compose,
)
from torelli.hall import JohnsonValue, LieElement, get_basis
from torelli.malcev import MalcevContext, get_context
from torelli.sparse import add_into, collect
from torelli.bar import (
    BarChain,
    bar_chain,
    bar_boundary,
    staircase,
    fundamental_two_chain,
    fox_derivatives,
    bound_two_cycle,
    act_on_chain,
    push,
    antisym_cycle,
    cap_d2,
    chain_to_jsonable,
)

from test_acceptance import bounding_pair_instances

rng = random.Random(14142135)


def random_word(n=4, max_len=6):
    length = rng.randint(1, max_len)
    letters = []
    for _ in range(length):
        s = rng.randint(1, n)
        letters.append(s if rng.random() < 0.5 else -s)
    return Word.make(letters)


def random_bar_chain(degree, n_terms=4):
    items = []
    for _ in range(n_terms):
        tup = tuple(random_word() for _ in range(degree))
        items.append((tup, rng.randint(-3, 3)))
    return bar_chain(degree, items)


def test_boundary_degree2():
    a, b = word("a1"), word("b1")
    z = bar_chain(2, [((a, b), 1)])
    assert bar_boundary(z) == bar_chain(1, [((b,), 1), ((a * b,), -1), ((a,), 1)])


def test_boundary_drops_identity_faces():
    a = word("a1")
    z = bar_chain(2, [((a, ~a), 1)])
    assert bar_boundary(z) == bar_chain(1, [((~a,), 1), ((a,), 1)])


def test_normalization_drops_identity_labels():
    e = word("")
    a = word("a1")
    assert not bar_chain(2, [((a, e), 5)])
    assert len(bar_chain(2, [((a, a), 1), ((a, e), 2)])) == 1


def test_boundary_squared_is_zero():
    for _ in range(10):
        z = random_bar_chain(3)
        assert not bar_boundary(bar_boundary(z))
    ctx = get_context(4, 3)
    for _ in range(5):
        items = {}
        for _ in range(4):
            tup = tuple(ctx.element(random_word()) for _ in range(3))
            items[tup] = items.get(tup, 0) + rng.randint(-2, 2)
        z = BarChain(3, ctx, items)
        assert not bar_boundary(bar_boundary(z))


def naive_boundary(chain):
    """The face sum one face at a time: every inner face multiplies its
    pair anew, and any face with an identity label is dropped."""
    items = []
    for tup, coeff in chain.terms.items():
        n = len(tup)
        items.append((tup[1:], coeff))
        for i in range(n - 1):
            items.append((tup[:i] + (tup[i] * tup[i + 1],) + tup[i + 2 :], (-1) ** (i + 1) * coeff))
        items.append((tup[:-1], (-1) ** n * coeff))
    return bar_chain(chain.degree - 1, items, chain.ctx)


def test_boundary_matches_naive_face_sum():
    cancelling = []
    for _ in range(6):
        x, y = random_word(), random_word()
        cancelling.append((((x, ~x, y), 2), ((y, x, ~x), -1), ((x, y, ~y * ~x), 1)))
    word_chains = [random_bar_chain(d, 6) for d in (1, 2, 3) for _ in range(4)]
    word_chains += [bar_chain(3, items) for items in cancelling]
    word_chains += [fundamental_two_chain(2), staircase(boundary_word(2))]
    chains = list(word_chains)
    for k in (2, 3):
        ctx = get_context(4, k)
        chains += [push(z, ctx) for z in word_chains]
    for phi in (catalog(2)["sep1"], catalog(2)["conj_l"]):
        C = fundamental_two_chain(2)
        D = bound_two_cycle(act_on_chain(phi, C) - C)
        chains += [D, push(D, get_context(4, 3)), push(D, get_context(4, 2))]
    label, phi, k = bounding_pair_instances()[1]
    C = fundamental_two_chain(2)
    chains.append(push(bound_two_cycle(act_on_chain(phi, C) - C), get_context(4, k)))
    # some inner faces multiply a label by its inverse
    assert any(
        (tup[i] * tup[i + 1]).is_identity()
        for z in chains
        for tup in z.terms
        for i in range(len(tup) - 1)
    )
    for z in chains:
        got = bar_boundary(z)
        assert got == naive_boundary(z)
        assert got.ctx is z.ctx and got.degree == z.degree - 1
        assert not any(x.is_identity() for tup in got.terms for x in tup)
        # equal labels, products included, are one object
        labels = [x for tup in got.terms for x in tup]
        assert len({id(x) for x in labels}) == len(set(labels))


def test_boundary_labels_are_shared_objects():
    # x and x c3 are distinct words with one element in Gamma_3 (c3 is a
    # weight-3 commutator), and the label u = xy is also the product of
    # the adjacent labels x, y: each value must appear as one object
    four = get_context(4, 4)
    c3 = four.basic_word(next(iter(four.basis.weight_range(3))))
    x, y, z = word("a1 b2"), word("b1"), word("a2 a2")
    u = x * y
    ctx = get_context(4, 3)
    assert ctx.element(x * c3) == ctx.element(x)
    chain = push(bar_chain(3, [((x, y, z), 1), ((y, x * c3, z), 1), ((z, u, y), 1)]), ctx)
    got = bar_boundary(chain)
    assert got == naive_boundary(chain)
    labels = [x for tup in got.terms for x in tup]
    assert len({id(x) for x in labels}) == len(set(labels))


def test_staircase_boundary_telescopes():
    for text in ("a1 b1^-1 a1", "a2 a2 b2", "a1 b1 a1^-1 b1^-1"):
        w = word(text)
        got = bar_boundary(staircase(w))
        expected = bar_chain(1, [((word([s]),), 1) for s in w.letters])
        expected = expected - bar_chain(1, [((w,), 1)])
        assert got == expected


def test_fundamental_chain():
    for g, size in ((1, 5), (2, 11), (3, 17)):
        c = fundamental_two_chain(g)
        assert len(c) == size
        assert bar_boundary(c) == bar_chain(1, [((boundary_word(g),), -1)])


def test_fox_derivative_basics():
    a = word("a1")
    assert fox_derivatives(a) == {1: {word(""): 1}}
    assert fox_derivatives(~a) == {1: {~a: -1}}
    assert fox_derivatives(word("")) == {}


def test_fox_product_rule():
    for _ in range(100):
        u, v = random_word(), random_word()
        duv = fox_derivatives(u * v)
        expected: dict[int, dict[Word, int]] = {}
        for x, d in fox_derivatives(u).items():
            ex = expected.setdefault(x, {})
            for w, c in d.items():
                ex[w] = ex.get(w, 0) + c
        for x, d in fox_derivatives(v).items():
            ex = expected.setdefault(x, {})
            for w, c in d.items():
                key = u * w
                ex[key] = ex.get(key, 0) + c
        expected = {
            x: {w: c for w, c in d.items() if c}
            for x, d in expected.items()
        }
        expected = {x: d for x, d in expected.items() if d}
        assert duv == expected


def test_fox_fundamental_identity():
    # w - 1 = sum_x (dw/dx) (x - 1) in the integral group ring
    for _ in range(50):
        w = random_word()
        acc: dict[Word, int] = {}

        def put(u, c):
            nv = acc.get(u, 0) + c
            if nv:
                acc[u] = nv
            elif u in acc:
                del acc[u]

        for x, d in fox_derivatives(w).items():
            for u, c in d.items():
                put(u * generator(x), c)
                put(u, -c)
        put(w, -1)
        put(word(""), 1)
        assert not acc


# Test-only oracle for bound_two_cycle: the translation-equivariant
# homotopy u with du + ud = iota.rho - id between the normalized bar
# resolution of Z over Z[pi] and the Fox resolution.  For a 2-cycle z,
# d(-u z) = z because the Fox resolution stops in degree 1; the closed
# form in bound_two_cycle is this recursion unrolled.  Resolution
# elements are dicts {(translate, labels): coeff}.

E = word("")


def res(items):
    """Collect (key, coeff) pairs, dropping label tuples with an identity."""
    return {k: v for k, v in collect(items).items() if all(x.letters for x in k[1])}


def comb(*pairs):
    out = {}
    for factor, elt in pairs:
        add_into(out, elt, factor)
    return out


def res_boundary(elt):
    items = []
    for (g, tup), c in elt.items():
        items.append(((g * tup[0], tup[1:]), c))
        for i in range(len(tup) - 1):
            merged = tup[:i] + (tup[i] * tup[i + 1],) + tup[i + 2 :]
            items.append(((g, merged), (-1) ** (i + 1) * c))
        items.append(((g, tup[:-1]), (-1) ** len(tup) * c))
    return res(items)


def iota_rho(elt):
    """Identity in degree 0, Fox-derivative spread in degree 1, zero above."""
    items = []
    for (g, tup), c in elt.items():
        if not tup:
            items.append(((g, tup), c))
        elif len(tup) == 1:
            for x, d in fox_derivatives(tup[0]).items():
                items.extend(((g * v, (generator(x),)), c * cv) for v, cv in d.items())
    return res(items)


def translate(elt, g):
    return {(g * h, tup): c for (h, tup), c in elt.items()}


_u_memo: dict = {}


def homotopy(elt):
    """u(g, tup) = g . u(e, tup), with u(e, tup) = contraction(iota.rho - id - u.d)."""
    out: dict = {}
    for (g, tup), c in elt.items():
        if tup not in _u_memo:
            e = {(E, tup): 1}
            w = comb((1, iota_rho(e)), (-1, e))
            if tup:
                w = comb((1, w), (-1, homotopy(res_boundary(e))))
            _u_memo[tup] = res(((E, (h,) + t), v) for (h, t), v in w.items())
        add_into(out, translate(_u_memo[tup], g), c)
    return out


def oracle_bound(z):
    lifted = {(E, t): v for t, v in z.terms.items()}
    return bar_chain(3, [(t, -v) for (_, t), v in homotopy(lifted).items()])


def test_homotopy_identity():
    # du + ud = iota.rho - id on translate-identity basis elements
    for degree in (1, 2):
        for _ in range(50):
            tup = tuple(random_word() for _ in range(degree))
            if any(not x for x in tup):
                continue
            elt = {(E, tup): 1}
            lhs = comb((1, res_boundary(homotopy(elt))), (1, homotopy(res_boundary(elt))))
            assert lhs == comb((1, iota_rho(elt)), (-1, elt))


def test_homotopy_is_equivariant():
    g = word("a2 b1^-1")
    for _ in range(10):
        tup = (random_word(), random_word())
        if any(not x for x in tup):
            continue
        base = {(E, tup): 1}
        assert homotopy(translate(base, g)) == translate(homotopy(base), g)


def test_bound_two_cycle_matches_oracle():
    cycles = [bar_boundary(random_bar_chain(3)) for _ in range(200)]
    for g in (2, 3):
        C = fundamental_two_chain(g)
        reps = list(catalog(g).values())
        reps += [compose(p, q) for p in reps for q in reps]
        cycles += [act_on_chain(phi, C) - C for phi in reps]
    for z in cycles:
        D = bound_two_cycle(z)
        assert D == oracle_bound(z)
        assert bar_boundary(D) == z


def test_bound_two_cycle_flagship():
    C = fundamental_two_chain(2)
    cat = catalog(2)
    for name, zsize, dsize in (("conj_l", 22, 164), ("sep1", 10, 34)):
        z = act_on_chain(cat[name], C) - C
        assert not bar_boundary(z)
        assert len(z) == zsize
        D = bound_two_cycle(z)
        assert len(D) == dsize
        assert bar_boundary(D) == z


def test_bound_two_cycle_edge_cases():
    zero = bar_chain(2, [])
    assert not bound_two_cycle(zero)
    not_cycle = bar_chain(2, [((word("a1"), word("b1")), 1)])
    with pytest.raises(ValueError):
        bound_two_cycle(not_cycle)
    with pytest.raises(ValueError):
        bound_two_cycle(bar_chain(3, []))


def test_act_on_chain_is_chain_map():
    phi = compose(catalog(2)["t1"], catalog(2)["sep1"])
    for _ in range(10):
        z = random_bar_chain(3)
        assert bar_boundary(act_on_chain(phi, z)) == act_on_chain(phi, bar_boundary(z))


def test_push_is_chain_map():
    for k in (2, 3):
        ctx = get_context(4, k)
        for _ in range(15):
            z = random_bar_chain(3)
            assert bar_boundary(push(z, ctx)) == push(bar_boundary(z), ctx)


def test_push_fundamental_chain():
    # the boundary word dies in the abelianization, so C pushes to a cycle
    # at k=2; one level up its class survives
    C = fundamental_two_chain(2)
    assert not bar_boundary(push(C, get_context(4, 2)))
    ctx3 = get_context(4, 3)
    pushed = bar_boundary(push(C, ctx3))
    assert pushed == push(bar_boundary(C), ctx3)
    assert pushed


def _bound_labels(phi):
    C = fundamental_two_chain(phi.g)
    D = bound_two_cycle(act_on_chain(phi, C) - C)
    return {x for tup in D.terms for x in tup}


def _check_scan(labels, n, k):
    """The scan on a fresh context against per-label word_group."""
    # some labels continue the walk of a shorter label
    assert any(Word.make(w.letters[:-1]) in labels for w in labels)
    ctx = MalcevContext(n, k)
    scanned = ctx.elements(labels)
    oracle = MalcevContext(n, k)
    assert set(scanned) == labels
    for w in labels:
        assert scanned[w].tensor == oracle.word_group(w).tensor, w
        assert ctx.element(w) is scanned[w]


def test_scan_matches_word_group_k3():
    cat = catalog(2)
    sep1, t2, z = cat["sep1"], cat["t2"], cat["z"]
    zi = z.inverse()
    classes = list(cat.values()) + [
        compose(z, sep1, zi),
        compose(zi, sep1, z),
        compose(z, z, sep1, zi, zi),
        compose(t2, z, sep1, zi, t2.inverse()),
    ]
    for phi in classes:
        _check_scan(_bound_labels(phi), 4, 3)
    # words interned before the scan keep their elements
    labels = _bound_labels(classes[-1])
    ctx = MalcevContext(4, 3)
    early = {w: ctx.element(w) for w in sorted(labels, key=len)[::3]}
    scanned = ctx.elements(labels)
    assert all(scanned[w] is x for w, x in early.items())
    assert all(ctx.element(w) is scanned[w] for w in labels)


def test_scan_matches_word_group_k4():
    label, phi, k = bounding_pair_instances()[2]
    assert (label, k) == ("[P, Y]", 4)
    _check_scan(_bound_labels(phi), 4, 4)


def test_antisym_cycle():
    ctx = get_context(4, 2)
    x, y, z = (ctx.element(random_word()) for _ in range(3))
    cyc = antisym_cycle(x, y, z)
    assert not bar_boundary(cyc)
    assert antisym_cycle(x, y, z) == antisym_cycle(y, z, x)
    assert antisym_cycle(x, y, z) == antisym_cycle(y, x, z).scale(-1)
    degenerate = antisym_cycle(x, x, y)
    assert not degenerate
    assert cap_d2(degenerate, 1).is_zero()


def test_cap_kills_boundaries():
    for k in (2, 3):
        ctx = get_context(4, k)
        for _ in range(8):
            items = {}
            for _ in range(3):
                tup = tuple(ctx.element(random_word(max_len=4)) for _ in range(4))
                if any(x.is_identity() for x in tup):
                    continue
                items[tup] = items.get(tup, 0) + rng.randint(-2, 2)
            b = bar_boundary(BarChain(4, ctx, items))
            assert cap_d2(b, -1).is_zero()


def test_cap_validates_input():
    ctx = get_context(4, 2)
    x, y, z = (ctx.element(generator(i)) for i in (1, 2, 3))
    cyc = antisym_cycle(x, y, z)
    with pytest.raises(ValueError):
        cap_d2(cyc, 2)
    not_cycle = BarChain(3, ctx, {(x, y, z): 1})
    with pytest.raises(ValueError):
        cap_d2(not_cycle, 1)


def test_chains_over_different_label_groups_do_not_mix():
    a, b = word("a1"), word("b1")
    words = bar_chain(2, [((a, b), 1)])
    for other in (push(words, get_context(4, 3)), push(words, get_context(4, 2))):
        for left, right in ((words, other), (other, words)):
            with pytest.raises(ValueError, match="mixed label groups"):
                left + right
            with pytest.raises(ValueError, match="mixed label groups"):
                left - right
            with pytest.raises(ValueError, match="mixed label groups"):
                left == right
    with pytest.raises(ValueError, match="mixed label groups"):
        push(words, get_context(4, 2)) + push(words, get_context(4, 3))


def test_label_group_is_checked_on_entry():
    C = fundamental_two_chain(2)
    ctx = get_context(4, 3)
    z = act_on_chain(catalog(2)["sep1"], C) - C
    d3 = bound_two_cycle(z)
    with pytest.raises(ValueError, match="free-group words"):
        bound_two_cycle(push(z, ctx))
    with pytest.raises(ValueError, match="word labels"):
        act_on_chain(catalog(2)["t1"], push(C, ctx))
    with pytest.raises(ValueError, match="word labels"):
        push(push(C, ctx), ctx)
    with pytest.raises(ValueError, match="truncated group"):
        cap_d2(d3, 1)


def test_cap_pipeline_values():
    C = fundamental_two_chain(2)
    ctx3 = get_context(4, 3)
    z = act_on_chain(catalog(2)["conj_l"], C) - C
    pushed = push(bound_two_cycle(z), ctx3)
    assert len(pushed) == 158
    assert not bar_boundary(pushed)
    slots = cap_d2(pushed, -1).values
    assert any(slots)
    for s in slots:
        assert s == s.weight_part(3)
        assert s.is_integral()


def _cap_per_term(z, epsilon):
    """The ungrouped cap: one cocycle per term, weighted by its own g1."""
    ctx = z.ctx
    slots = [{} for _ in range(ctx.n)]
    for (g1, g2, g3), coeff in z.terms.items():
        coc = ctx.cocycle(g2, g3)
        for i, a in g1.abelianization().items():
            add_into(slots[i], coc.terms, epsilon * coeff * a)
    up = get_basis(ctx.n, ctx.k)
    return JohnsonValue(ctx.k, tuple(LieElement(up, s) for s in slots))


def test_cap_evaluates_one_cocycle_per_weighted_pair(monkeypatch):
    cat = catalog(2)
    sep1, z = cat["sep1"], cat["z"]
    C = fundamental_two_chain(2)
    ctx = MalcevContext(4, 3)
    shapes = {"cancelling": 0, "zero-weight first": 0}
    for phi in (cat["conj_l"], sep1, compose(z, sep1, z.inverse())):
        pushed = push(bound_two_cycle(act_on_chain(phi, C) - C), ctx)
        by_pair: dict = {}
        for tup, coeff in pushed.terms.items():
            by_pair.setdefault(tup[1:], []).append((tup, coeff))
        # the same cycle with each pair's zero-weight g1 terms first
        reordered = BarChain(3, ctx, {
            tup: coeff
            for terms in by_pair.values()
            for tup, coeff in sorted(terms, key=lambda t: bool(t[0][0].abelianization()))
        })
        assert reordered == pushed and list(reordered.terms) != list(pushed.terms)
        net = {
            pair: collect((i, c * a) for (g1, _, _), c in terms
                          for i, a in g1.abelianization().items())
            for pair, terms in by_pair.items()
        }
        for pair, terms in by_pair.items():
            weighted = sum(bool(t[0].abelianization()) for t, _ in terms)
            shapes["cancelling"] += not net[pair] and weighted > 0
            shapes["zero-weight first"] += bool(
                net[pair] and weighted < len(terms) and ctx.cocycle(*pair))
        for chain in (pushed, reordered):
            want = _cap_per_term(chain, -1)
            calls = []
            cocycle = ctx.cocycle
            monkeypatch.setattr(ctx, "cocycle", lambda g, h: calls.append((g, h)) or cocycle(g, h))
            assert cap_d2(chain, -1) == want
            monkeypatch.undo()
            assert len(calls) == len(set(calls)) == sum(map(bool, net.values()))
    assert all(shapes.values()), shapes


def test_serialization_is_deterministic():
    a, b = word("a1"), word("b1 a2^-1")
    z1 = bar_chain(2, [((a, b), 2), ((b, a), -1)])
    z2 = bar_chain(2, [((b, a), -1), ((a, b), 2)])
    assert json.dumps(chain_to_jsonable(z1)) == json.dumps(chain_to_jsonable(z2))
    ctx = get_context(4, 2)
    p1, p2 = push(z1, ctx), push(z2, ctx)
    assert json.dumps(chain_to_jsonable(p1)) == json.dumps(chain_to_jsonable(p2))
