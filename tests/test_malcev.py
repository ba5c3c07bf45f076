"""Nilpotent truncations: group law, normal forms, cocycles, induced maps."""

import gc
import random
import tracemalloc
from fractions import Fraction

import pytest

from torelli.words import Word, word, generator, commutator, catalog, h_action
from torelli.hall import lie_generator, lie_from_items
from torelli.malcev import (
    MalcevContext,
    get_context,
    log_word,
    bch,
    is_in_torelli,
    induced_lie_auto,
    act_lie,
    NilElement,
)

rng = random.Random(16180339)


def random_word(n, max_len=8):
    length = rng.randint(1, max_len)
    letters = []
    for _ in range(length):
        s = rng.randint(1, n)
        letters.append(s if rng.random() < 0.5 else -s)
    return Word.make(letters)


def _reduced_letters(r, n, length):
    """`length` random letters on n generators, no letter next to its inverse."""
    letters = []
    while len(letters) < length:
        s = r.choice((1, -1)) * r.randint(1, n)
        if not letters or letters[-1] != -s:
            letters.append(s)
    return letters


def test_log_of_commutator_class3():
    ctx = get_context(2, 4)
    lw = ctx.log_word(commutator(generator(1), generator(2)))
    by_foliage = {ctx.basis.foliages[i]: v for i, v in lw.terms.items()}
    assert by_foliage == {
        (1, 2): 1,
        (1, 1, 2): Fraction(1, 2),
        (1, 2, 2): Fraction(-1, 2),
    }


def test_bch_class2_closed_form():
    ctx = get_context(3, 3)
    x = lie_from_items(ctx.basis, [(0, 2), (1, -1)])
    y = lie_from_items(ctx.basis, [(1, 3), (2, 1)])
    expected = x + y + x.bracket(y).scale(Fraction(1, 2))
    assert ctx.bch(x, y) == expected
    assert bch(x, y) == expected


def test_element_is_multiplicative():
    ctx = get_context(4, 4)
    for _ in range(30):
        u, v = random_word(4), random_word(4)
        assert ctx.element(u) * ctx.element(v) == ctx.element(u * v)


def test_log_word_on_letters():
    ctx = get_context(3, 4)
    for i in range(1, 4):
        assert ctx.log_word(generator(i)) == lie_generator(ctx.basis, i)
        assert log_word(generator(i), 3, 4) == lie_generator(ctx.basis, i)


def test_group_axioms():
    ctx = get_context(4, 4)
    e = ctx.identity()
    for _ in range(20):
        x = ctx.element(random_word(4))
        y = ctx.element(random_word(4))
        z = ctx.element(random_word(4))
        assert (x * y) * z == x * (y * z)
        assert x * x.inverse() == e
        assert x.inverse() * x == e
        assert x * e == x and e * x == x
    x = ctx.element(random_word(4))
    assert x ** 3 == x * x * x
    assert x ** -2 == (x.inverse()) ** 2
    assert x ** 0 == e


def test_inverse_word_walks_to_the_antipode():
    # ~w is walked letter by letter, a route independent of the antipode
    r = random.Random(57721566)
    for n, k in ((2, 7), (4, 5), (6, 4)):
        ctx = get_context(n, k)
        for length in range(1, 11):
            w = Word.make(_reduced_letters(r, n, length))
            assert len(w.letters) == length
            assert ctx.element(~w).tensor == ctx.tc.inverse(ctx.element(w).tensor)


def test_normal_form_round_trip():
    ctx = get_context(4, 3)
    for _ in range(20):
        w = random_word(4)
        x = ctx.element(w)
        nf = ctx.normal_form(x)
        assert all(isinstance(e, int) for e in nf)
        assert ctx.from_normal_form(nf) == x
    # fresh elements built as honest commutator-word products, so the
    # peeling is exercised rather than read back from a cache
    for _ in range(10):
        exps = [rng.randint(-2, 2) for _ in range(ctx.basis.dim)]
        w = Word.make(())
        for i, e in enumerate(exps):
            if e:
                w = w * ctx.basic_word(i) ** e
        assert list(ctx.normal_form(ctx.element(w))) == exps


def test_elements_are_interned_per_word():
    ctx = MalcevContext(4, 4)
    for _ in range(10):
        w = random_word(4)
        half = Word.make(w.letters[: len(w.letters) // 2])
        xh = ctx.element(half)
        x = ctx.element(w)
        assert ctx.element(w) is x
        assert ctx.element(half) is xh  # extending a word keeps its prefix
        # building a word interns that word only, not its prefixes
        v = Word.make(w.letters + w.letters[-1:] * 3)
        assert v not in ctx._elements
        before = len(ctx._elements)
        ctx.element(v)
        assert len(ctx._elements) == before + 1


def test_word_group_returns_the_interned_element(monkeypatch):
    ctx = MalcevContext(4, 3)
    w = word("a1 b2 a1^-1 b1^-1 a2")
    x = ctx.element(w)
    nf = ctx.normal_form(x)
    monkeypatch.setattr(ctx, "_walk", _forbidden)
    assert ctx.word_group(w) is x
    assert ctx.element(w) is x
    assert x._nf is nf


def test_word_group_retains_only_the_word():
    ctx = MalcevContext(4, 4)
    w = Word.make(_reduced_letters(random.Random(27182818), 4, 2000))
    assert len(w) == 2000
    tracemalloc.start()
    try:
        ctx.element(w)
        gc.collect()
        current, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert current < 1_000_000


def test_scan_retains_only_the_requested_elements():
    letters = _reduced_letters(random.Random(31415926), 4, 600)
    # nested prefixes, so the scan's path holds ten tensors at its deepest
    # and branches off it
    words = [Word.make(letters[:m]) for m in range(60, 601, 60)]
    words += [Word.make(letters[:m] + [5 - abs(letters[m])]) for m in range(30, 600, 120)]

    def retained(build):
        """Memory left after build(ctx), and after the elements are dropped."""
        ctx = MalcevContext(4, 4)
        tracemalloc.start()
        try:
            build(ctx)
            gc.collect()
            current, _ = tracemalloc.get_traced_memory()
            assert len(ctx._elements) == len(words) + 1
            ctx._elements.clear()
            gc.collect()
            left, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return current, left

    one_by_one, _ = retained(lambda ctx: [ctx.word_group(w) for w in words])
    scanned, left = retained(lambda ctx: ctx.elements(words))
    assert scanned < 1.25 * one_by_one, (scanned, one_by_one)
    assert left < 0.05 * scanned, (left, scanned)


def _fraction_walk(ctx, w):
    """The former word_group: multiply by exp(+-x_i) one letter at a time
    in Fraction tensor arithmetic."""
    t = {(): 1}
    for s in w.letters:
        t = ctx.tc.mul(t, ctx.tc.exp({(abs(s),): 1 if s > 0 else -1}))
    return t


def _runs_word(n, runs, max_run):
    """A reduced word of `runs` one-letter runs of lengths 1..max_run,
    neighbouring runs on different generators."""
    letters = []
    for _ in range(runs):
        i = rng.choice([i for i in range(1, n + 1) if not letters or i != abs(letters[-1])])
        letters.extend([rng.choice((1, -1)) * i] * rng.randint(1, max_run))
    return Word.make(letters)


# at n = 8 the letter codes of the walk are base-8 digits
@pytest.mark.parametrize("n,c", [(2, 6), (4, 5), (6, 3), (8, 3)])
def test_word_group_matches_fraction_walk(n, c):
    ctx = MalcevContext(n, c + 1)
    words = [random_word(n, max_len=12) for _ in range(10)]
    words.append(_runs_word(n, 300, 1))
    words.append(_runs_word(n, 12, 30))  # runs far longer than the class
    words.append(Word.make([n] * 25 + [-1] * 40 + [2] * 3))
    assert max(len(w) for w in words) >= 300
    for w in words:
        assert ctx.element(w).tensor == _fraction_walk(ctx, w)


@pytest.mark.parametrize("n,c", [(2, 5), (4, 4)])
def test_word_deep_in_the_lower_central_series_walks_to_one(n, c):
    """A (c+1)-fold commutator is trivial at class c, so every entry the
    walk makes cancels and is deleted again."""
    r = random.Random(1414 + n)
    w = Word.make(_reduced_letters(r, n, 6))
    for _ in range(c):
        w = commutator(w, Word.make(_reduced_letters(r, n, 5)))
    assert len(w) >= 100
    assert MalcevContext(n, c + 2).element(w).tensor != {(): 1}
    ctx = MalcevContext(n, c + 1)
    assert ctx._walk(ctx._one(), w.letters) == [{0: 1}] + [{}] * c
    assert ctx.element(w).tensor == {(): 1} == _fraction_walk(ctx, w)


class _WriteOnly(dict):
    """A layer the walk may write into but must never read through."""

    def _read(self, *args):
        raise AssertionError("the walk read the layer of full-length words")

    items = keys = values = __iter__ = _read


def test_walk_never_reads_the_layer_of_full_length_words():
    ctx = MalcevContext(4, 5)
    w = _runs_word(4, 200, 2)
    layers = ctx._one()
    layers[ctx.c] = _WriteOnly()
    ctx._walk(layers, w.letters)
    layers[ctx.c] = dict(dict.items(layers[ctx.c]))
    assert ctx._finish(w, layers).tensor == _fraction_walk(ctx, w)


def test_scan_matches_word_group_genus3():
    r = random.Random(2718)
    letters = _reduced_letters(r, 6, 240)
    # nested prefixes, branches off them, and words sharing no prefix
    words = [Word.make(letters[:m]) for m in range(20, 241, 20)]
    words += [Word.make(letters[:m] + _reduced_letters(r, 6, 9)) for m in range(10, 240, 40)]
    words += [Word.make(_reduced_letters(r, 6, 30)) for _ in range(4)]
    ctx = MalcevContext(6, 4)
    scanned = ctx.elements(words)
    oracle = MalcevContext(6, 4)
    assert set(scanned) == set(words)
    for w in words:
        assert scanned[w].tensor == oracle.word_group(w).tensor, w
    for w in words[::5]:
        assert scanned[w].tensor == _fraction_walk(ctx, w), w


def _trie_batch(r, n, size):
    """Random words grown off each other's prefixes, and some repeats.

    Each new word cuts an earlier word at a random depth and continues it,
    possibly by nothing, so the batch holds nested prefixes, branches off
    prefixes that are no word of the batch, and words at which others
    branch.
    """
    words = [Word.make(_reduced_letters(r, n, 40))]
    while len(words) < size:
        base = r.choice(words).letters
        tail = _reduced_letters(r, n, r.choice((0, 3, 25)))
        words.append(Word.make(base[: r.randint(0, len(base))] + tuple(tail)))
    words = [w for w in words if w.letters]
    return words + r.sample(words, 4)


def _trie_shape(words):
    """Which of the walk's cases the batch exercises."""
    distinct = set(words)
    seqs = {w.letters for w in distinct}
    branches: dict[tuple, set] = {}  # prefix -> the letters that follow it
    for s in seqs:
        for d in range(len(s)):
            branches.setdefault(s[:d], set()).add(s[d])
    forks = {p for p, nxt in branches.items() if len(nxt) > 1}
    return {
        "duplicates": len(words) > len(distinct),
        "nested prefixes": any(s in branches for s in seqs),
        "shared non-word prefixes": any(p and p not in seqs for p in forks),
        "words ending at a branch depth": bool(forks & seqs),
    }


def _counting_walk(ctx):
    """Make ctx count the letters it walks; returns the one-entry counter."""
    walked = [0]
    walk = ctx._walk

    def counted(layers, letters):
        walked[0] += len(letters)
        return walk(layers, letters)

    ctx._walk = counted
    return walked


@pytest.mark.parametrize("n,k,seed", [(4, 5, 5772), (4, 5, 6931), (6, 4, 1618), (6, 4, 3010)])
def test_elements_walk_every_distinct_prefix_once(n, k, seed):
    words = _trie_batch(random.Random(seed), n, 40)
    assert all(_trie_shape(words).values()), _trie_shape(words)
    ctx = MalcevContext(n, k)
    walked = _counting_walk(ctx)
    got = ctx.elements(words)
    oracle = MalcevContext(n, k)
    assert set(got) == set(words)
    for w in words:
        assert got[w].tensor == oracle.word_group(w).tensor, w
        assert ctx.element(w) is got[w]
    # one letter per trie edge, that is per distinct nonempty prefix
    edges = {w.letters[:d] for w in set(words) for d in range(1, len(w) + 1)}
    assert walked[0] == len(edges)
    assert len(ctx._elements) == len(set(words)) + 1  # no prefix is interned
    assert ctx.elements(words) == got and walked[0] == len(edges)


def _forbidden(*args):
    raise AssertionError("recomputed a cached value")


def test_second_element_reuses_normal_form(monkeypatch):
    ctx = MalcevContext(4, 3)
    w = random_word(4)
    nf = ctx.normal_form(ctx.element(w))
    lw = ctx.log_word(w)
    for name in ("mul", "exp", "log", "inverse", "to_lie"):
        monkeypatch.setattr(ctx.tc, name, _forbidden)
    assert ctx.normal_form(ctx.element(w)) is nf
    assert ctx.log_word(w) is lw


def _stage_inverse_normal_form(ctx, x):
    """The former peel: collect each weight's basic powers into one stage
    tensor and multiply the remainder by the stage's series inverse."""
    tc = ctx.tc
    exps = [0] * ctx.basis.dim
    rem = x.tensor
    for w in range(1, ctx.c + 1):
        coords = tc.to_lie({wd: v for wd, v in rem.items() if len(wd) == w})
        stage = {(): 1}
        for i in ctx.basis.weight_range(w):
            e = coords.terms.get(i, 0)
            if e:
                exps[i] = int(e)
                stage = tc.mul(stage, tc.exp(tc.from_lie(ctx.basic_log(i).scale(e))))
        rem = tc.mul(tc.inverse(stage), rem)
    assert rem == {(): 1}
    return tuple(exps)


@pytest.mark.parametrize("k", [3, 4, 5])
def test_normal_form_matches_stage_inverse_peel(k):
    ctx = get_context(4, k)
    for _ in range(8 if k < 5 else 4):
        x = ctx.element(random_word(4, max_len=10))
        fresh = NilElement(ctx, dict(x.tensor))
        assert ctx.normal_form(fresh) == _stage_inverse_normal_form(ctx, x)


def test_from_normal_form_rejects_rational_exponents():
    ctx = get_context(4, 3)
    with pytest.raises(ValueError):
        ctx.from_normal_form((Fraction(1, 2),))
    x = ctx.from_normal_form((Fraction(2), 0, -1))
    assert ctx.normal_form(x) == (2, 0, -1) + (0,) * (ctx.basis.dim - 3)
    assert all(type(e) is int for e in ctx.normal_form(x))


def test_normal_form_rejects_rational_points():
    ctx = get_context(2, 3)
    half = ctx.exp_lie(lie_generator(ctx.basis, 1).scale(Fraction(1, 2)))
    with pytest.raises(ValueError):
        ctx.normal_form(half)


def test_nf_mul_matches_group_product():
    ctx = get_context(4, 3)
    for _ in range(15):
        x = ctx.element(random_word(4))
        y = ctx.element(random_word(4))
        prod = ctx.from_normal_form(ctx.normal_form(x)) * ctx.from_normal_form(
            ctx.normal_form(y)
        )
        assert ctx.normal_form(prod) == ctx.normal_form(x * y)


def test_project_section_round_trip():
    ctx = get_context(4, 3)
    for _ in range(15):
        w = random_word(4)
        x = ctx.element(w)
        assert ctx.project(ctx.section(x)) == x
        assert ctx.project(ctx.up().element(w)) == x


def test_one_section_per_normal_form():
    # elements with equal normal forms, built as distinct objects: a word,
    # a product of its halves, and the word times a weight-3 commutator,
    # which is trivial in Gamma_3
    ctx = MalcevContext(4, 3)
    up = ctx.up()
    four = get_context(4, 4)
    c3 = four.basic_word(next(iter(four.basis.weight_range(3))))
    for _ in range(15):
        w = random_word(4)
        half = len(w.letters) // 2
        x = ctx.element(w)
        routes = [
            ctx.element(Word.make(w.letters[:half])) * ctx.element(Word.make(w.letters[half:])),
            ctx.element(w * c3),
            ctx.element(c3 * w),
        ]
        s = ctx.section(x)
        assert s == up.from_normal_form(ctx.normal_form(x))
        for y in routes:
            assert y is not x and ctx.normal_form(y) == ctx.normal_form(x)
            assert ctx.section(y) is s
        z = ctx.element(w * generator(1))
        assert ctx.section(z) is not s and ctx.section(z) != s


def test_hash_agrees_across_construction_routes():
    # the routes store equal coefficients as int or Fraction; equal
    # elements must still hash alike and share a dict key
    ctx = get_context(4, 3)
    for _ in range(15):
        x = ctx.element(random_word(4))
        routes = [
            ctx.from_normal_form(ctx.normal_form(x)),
            ctx.project(ctx.section(x)),
            NilElement(ctx, {w: Fraction(v) for w, v in x.tensor.items()}),
        ]
        table = {x: "x"}
        for y in routes:
            assert y == x and hash(y) == hash(x)
            assert table[y] == "x"


def test_cocycle_identity():
    # c(g,h) + c(gh,m) = c(h,m) + c(g,hm): both sides measure the failure
    # of the section over a triple product
    for k in (2, 3):
        ctx = get_context(4, k)
        for _ in range(10):
            g = ctx.element(random_word(4))
            h = ctx.element(random_word(4))
            m = ctx.element(random_word(4))
            lhs = ctx.cocycle(g, h) + ctx.cocycle(g * h, m)
            rhs = ctx.cocycle(h, m) + ctx.cocycle(g, h * m)
            assert lhs == rhs


def test_cocycle_weight_and_integrality():
    ctx = get_context(4, 3)
    for _ in range(10):
        c = ctx.cocycle(ctx.element(random_word(4)), ctx.element(random_word(4)))
        assert c == c.weight_part(3)
        assert c.is_integral()


def test_cocycle_abelian_closed_form():
    # over the abelianized group the section is x1^e1 ... xn^en, and
    # collecting s(g)s(h) gives c(g,h) = -sum_{i<j} g_j h_i [X_i, X_j]
    ctx = get_context(4, 2)
    up = ctx.up()
    for _ in range(10):
        ge = [rng.randint(-3, 3) for _ in range(4)]
        he = [rng.randint(-3, 3) for _ in range(4)]
        items: dict[int, int] = {}
        for i in range(4):
            for j in range(i + 1, 4):
                for idx, cf in up.basis.bracket_indices(i, j).items():
                    items[idx] = items.get(idx, 0) - ge[j] * he[i] * cf
        got = ctx.cocycle(ctx.from_normal_form(ge), ctx.from_normal_form(he))
        assert got == lie_from_items(up.basis, items.items())


def test_cocycle_antisymmetrization_is_bracket():
    ctx = get_context(4, 2)
    up = ctx.up()
    for _ in range(10):
        g = ctx.element(random_word(4))
        h = ctx.element(random_word(4))
        glog = ctx.tc.to_lie(ctx.tc.log(g.tensor)).lift_to(up.basis)
        hlog = ctx.tc.to_lie(ctx.tc.log(h.tensor)).lift_to(up.basis)
        assert ctx.cocycle(g, h) - ctx.cocycle(h, g) == glog.bracket(hlog)


def test_torelli_membership():
    for g in (2, 3):
        cat = catalog(g)
        n = 2 * g
        identity = tuple(tuple(int(i == j) for j in range(n)) for i in range(n))
        for phi in cat.values():
            # level 2 is the classical Torelli group: phi acts trivially on H
            assert is_in_torelli(phi, 2) == (h_action(phi) == identity)
        for name in ("conj_l", "sep1"):
            phi = cat[name]
            assert is_in_torelli(phi, 2)
            assert is_in_torelli(phi, 3)
            assert not is_in_torelli(phi, 4)


def test_induced_lie_auto_respects_brackets():
    ctx = get_context(4, 4)
    cols = ctx.induced_lie_auto(catalog(2)["t1"])
    for _ in range(15):
        i = rng.randrange(ctx.basis.dims[0] + ctx.basis.dims[1])
        j = rng.randrange(ctx.basis.dims[0])
        x = lie_from_items(ctx.basis, [(i, rng.randint(-2, 2))])
        y = lie_from_items(ctx.basis, [(j, rng.randint(-2, 2))])
        lhs = act_lie(cols, x.bracket(y))
        rhs = act_lie(cols, x).bracket(act_lie(cols, y))
        assert lhs == rhs


def test_induced_lie_auto_trivial_on_torelli():
    cols = induced_lie_auto(catalog(2)["conj_l"], 3)
    basis = cols[0].basis
    for i, col in enumerate(cols):
        assert col == lie_from_items(basis, [(i, 1)])
