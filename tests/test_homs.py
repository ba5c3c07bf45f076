"""Johnson and Morita values, duality, and the chain-level comparison."""

import random

import pytest

from torelli.words import (
    Word,
    apply_endo,
    catalog,
    compose,
    generator_name,
    parse_automorphism,
    word,
)
from torelli.ce import BudgetExceeded
from torelli.hall import lie_generator, lie_from_items
import torelli.malcev as malcev
from torelli.malcev import MalcevContext, get_context
from torelli.bar import bar_boundary, bar_chain, push
from test_acceptance import bounding_pair_instances
from test_malcev import _counting_walk
from torelli.homs import (
    JohnsonValue,
    Signs,
    johnson,
    johnson_act,
    morita,
    symplectic_dual,
    verify_morita_johnson,
    calibrate_epsilon,
    calibrate_delta,
    jv_to_jsonable,
)

rng = random.Random(17320508)


def torelli_pool():
    cat = catalog(2)
    conj_l, sep1 = cat["conj_l"], cat["sep1"]
    t1, u1 = cat["t1"], cat["u1"]
    return [
        conj_l,
        sep1,
        conj_l.inverse(),
        sep1.inverse(),
        compose(conj_l, sep1),
        compose(t1, sep1, t1.inverse()),
        compose(u1, conj_l, u1.inverse()),
    ]


def test_johnson_conj_l_closed_form():
    # the boundary conjugation hits [omega, X_j] at level 3, where omega
    # is the symplectic form seen inside the free Lie algebra
    ctx = get_context(4, 4)
    X = [lie_generator(ctx.basis, i) for i in range(1, 5)]
    omega = X[0].bracket(X[1]) + X[2].bracket(X[3])
    jv = johnson(catalog(2)["conj_l"], 3)
    assert jv.k == 3
    for j in range(4):
        assert jv.values[j] == omega.bracket(X[j])


def test_johnson_sep1_closed_form():
    ctx = get_context(4, 4)
    X = [lie_generator(ctx.basis, i) for i in range(1, 5)]
    w1 = X[0].bracket(X[1])
    jv = johnson(catalog(2)["sep1"], 3)
    assert jv.values[0] == w1.bracket(X[0])
    assert jv.values[1] == w1.bracket(X[1])
    assert not jv.values[2].terms and not jv.values[3].terms


def test_johnson_vanishes_one_level_down():
    # both catalog classes already act trivially on Gamma_3, so their
    # level-2 values are zero
    for name in ("conj_l", "sep1"):
        assert johnson(catalog(2)[name], 2).is_zero()


def test_johnson_rejects_non_torelli():
    with pytest.raises(ValueError, match="a1|b1|a2|b2"):
        johnson(catalog(2)["t1"], 2)


def _johnson_per_word(phi, k):
    """The Johnson value one generator at a time, each word walked alone
    on a fresh context, with the checks and error text of `johnson`."""
    values = []
    for i in range(2 * phi.g):
        x = word([i + 1])
        lw = MalcevContext(2 * phi.g, k + 1).log_word(apply_endo(phi, x) * ~x)
        if lw and lw.min_weight() < k:
            raise ValueError(
                f"mapping class is not in the level-{k} Torelli group: "
                f"log(phi(x) x^-1) has weight-{lw.min_weight()} terms "
                f"at generator {generator_name(i + 1)}"
            )
        values.append(lw.weight_part(k))
    return JohnsonValue(k, tuple(values))


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as exc:
        return str(exc)


def test_johnson_batch_matches_per_word_walks(monkeypatch):
    cat, cat3 = catalog(2), catalog(3)
    cases = [(phi, k) for phi in torelli_pool() for k in (2, 3, 4)]
    cases += [(phi, k) for _, phi, k in bounding_pair_instances()]
    cases += [(cat[name], 2) for name in ("t1", "t2", "u1", "u2", "z")]
    cases += [(cat3["P"], 2), (cat3["P"], 3), (cat3["t2"], 2), (cat3["u2"], 2)]
    messages = set()
    for phi, k in cases:
        monkeypatch.setattr(malcev, "_contexts", {})
        want = _outcome(_johnson_per_word, phi, k)
        assert _outcome(johnson, phi, k) == want, (phi.name, k)
        if isinstance(want, str):
            messages.add(want.rsplit(" ", 1)[1])
    # the first offending generator is named, whichever it is
    assert len(messages) >= 2, messages


def test_johnson_walks_each_shared_prefix_once(monkeypatch):
    phi = catalog(2)["conj_l"]
    words = [apply_endo(phi, x) * ~x for x in map(word, ([1], [2], [3], [4]))]
    monkeypatch.setattr(malcev, "_contexts", {})
    walked = _counting_walk(get_context(4, 4))
    johnson(phi, 3)
    edges = {w.letters[:d] for w in words for d in range(1, len(w) + 1)}
    assert walked[0] == len(edges) < sum(len(w) for w in words)


def test_johnson_additive():
    pool = torelli_pool()
    for _ in range(12):
        phi, psi = rng.choice(pool), rng.choice(pool)
        lhs = johnson(compose(phi, psi), 3)
        assert lhs == johnson(phi, 3) + johnson(psi, 3)


def test_johnson_values_of_different_genus_do_not_mix():
    basis = get_context(4, 3).basis
    a = lie_generator(basis, 1).bracket(lie_generator(basis, 2))
    two, four = JohnsonValue(3, (a, a)), JohnsonValue(3, (a, a, a, a))
    assert two != four and four != two
    assert four == JohnsonValue(3, (a, a, a, a))
    for x, y in ((two, four), (four, two)):
        with pytest.raises(ValueError, match="mixed genus"):
            x + y
        with pytest.raises(ValueError, match="mixed genus"):
            x - y


def test_johnson_kernel_law():
    # commutators of level-3 classes sit one level deeper, so their
    # level-3 values vanish; level-2 values vanish for the whole pool
    pool = torelli_pool()
    for phi in pool:
        assert johnson(phi, 2).is_zero()
    for _ in range(8):
        phi, psi = rng.choice(pool), rng.choice(pool)
        comm = compose(phi, psi, phi.inverse(), psi.inverse())
        assert johnson(comm, 3).is_zero()


def test_morita_cycle_properties(signs):
    mv = morita(catalog(2)["sep1"], 3, signs.epsilon)
    assert mv.k == 3 == mv.d2_invariant.k
    with pytest.raises(AttributeError):
        mv.k = 4
    assert len(mv.cycle) == 28
    assert not bar_boundary(mv.cycle)
    assert not mv.d2_invariant.is_zero()
    for v in mv.d2_invariant.values:
        assert v == v.weight_part(3)
        assert v.is_integral()


def test_morita_term_budget_stops_before_the_cap(signs, monkeypatch):
    import torelli.homs as homs

    def no_cap(*args):
        raise AssertionError("cap_d2 ran past the budget")

    monkeypatch.setattr(homs, "cap_d2", no_cap)
    with pytest.raises(BudgetExceeded, match="28 terms"):
        morita(catalog(2)["sep1"], 3, signs.epsilon, max_terms=27)
    monkeypatch.undo()
    assert len(morita(catalog(2)["sep1"], 3, signs.epsilon, max_terms=28).cycle) == 28


def test_morita_rejects_non_torelli(signs):
    with pytest.raises(ValueError):
        morita(catalog(2)["u2"], 2, signs.epsilon)


def test_morita_rejects_a_class_that_moves_the_boundary_word(signs):
    # acts trivially on H, so the Johnson precondition passes at k = 2
    phi = parse_automorphism("a1 -> a2 a1 a2^-1", 2)
    johnson(phi, 2)
    with pytest.raises(ValueError, match="boundary word"):
        morita(phi, 2, signs.epsilon)


def test_morita_invariant_constant_on_homology_class(signs):
    from torelli.bar import cap_d2

    ctx = get_context(4, 3)
    mv = morita(catalog(2)["conj_l"], 3, signs.epsilon)

    def random_word():
        length = rng.randint(1, 4)
        return Word.make(
            tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(length))
        )

    for _ in range(6):
        items = [
            (tuple(random_word() for _ in range(4)), rng.randint(-2, 2))
            for _ in range(3)
        ]
        c4 = push(bar_chain(4, items), ctx)
        moved = mv.cycle + bar_boundary(c4)
        assert cap_d2(moved, signs.epsilon) == mv.d2_invariant


def test_verify_flagship_instances(signs):
    cat = catalog(2)
    instances = [
        cat["conj_l"],
        cat["sep1"],
        compose(cat["conj_l"], cat["sep1"]),
        compose(cat["t1"], cat["sep1"], cat["t1"].inverse()),
    ]
    for phi in instances:
        ok, report = verify_morita_johnson(phi, 3, signs)
        assert ok, report
        assert report["k"] == 3
        assert report["cycle_terms"] == len(morita(phi, 3, signs.epsilon).cycle)


def test_verify_reports_differences_on_wrong_sign(signs):
    bad = Signs(signs.epsilon, -signs.delta)
    ok, report = verify_morita_johnson(catalog(2)["conj_l"], 3, bad)
    assert not ok
    assert report["difference"]
    for gen, entries in report["difference"].items():
        assert gen in ("a1", "b1", "a2", "b2")
        assert all(isinstance(c, str) for c in entries.values())


def test_every_h_tensor_l_producer_returns_a_johnson_value(signs):
    from torelli.bar import cap_d2
    from torelli.ce import WedgeChain, extended_differential, read_h_tensor_l

    cycle = morita(catalog(2)["sep1"], 3, signs.epsilon).cycle
    below = get_context(4, 2).basis
    wedge = WedgeChain(below, 3, {(0, 1, 2): 1, (1, 2, 3): -2})
    produced = {
        "cap_d2": (3, cap_d2(cycle, signs.epsilon)),
        "read_h_tensor_l": (2, read_h_tensor_l(extended_differential(wedge, 2))),
        "symplectic_dual": (3, symplectic_dual(cap_d2(cycle, 1), signs.delta)),
        "johnson k=3": (3, johnson(catalog(2)["sep1"], 3)),
        "johnson k=2": (2, johnson(catalog(2)["P"], 2)),
    }
    for name, (k, value) in produced.items():
        assert isinstance(value, JohnsonValue), name
        assert value.k == k, name
        assert len(value.values) == 4, name
        assert all(v.basis.c == k for v in value.values), name
        assert not value.is_zero(), name
    sep1, conj_l = catalog(2)["sep1"], catalog(2)["conj_l"]
    three = produced["cap_d2"][1]
    four = johnson(compose(sep1, conj_l, sep1.inverse(), conj_l.inverse()), 4)
    assert four.k == 4 and len(four.values) == 4
    for x, y in ((three, four), (four, three)):
        with pytest.raises(ValueError, match="mixed levels"):
            x + y
        with pytest.raises(ValueError, match="mixed levels"):
            x - y


def test_symplectic_dual_slots():
    basis = get_context(4, 4).basis
    t = tuple(
        lie_from_items(basis, [(basis.weight_range(3)[i], 1)]) for i in range(4)
    )
    for delta in (1, -1):
        dual = symplectic_dual(JohnsonValue(3, t), delta)
        assert dual.values[0] == t[1].scale(-delta)
        assert dual.values[1] == t[0].scale(delta)
        assert dual.values[2] == t[3].scale(-delta)
        assert dual.values[3] == t[2].scale(delta)
        twice = symplectic_dual(dual, delta)
        assert twice.values == tuple(v.scale(-1) for v in t)
    with pytest.raises(ValueError):
        symplectic_dual(JohnsonValue(3, t), 2)
    with pytest.raises(ValueError):
        symplectic_dual(JohnsonValue(3, t[:3]), 1)


def test_equivariance():
    # johnson(alpha phi alpha^-1) is the alpha-twist of johnson(phi)
    cat = catalog(2)
    for alpha_name in ("t1", "t2", "u1"):
        alpha = cat[alpha_name]
        for phi_name in ("conj_l", "sep1"):
            phi = cat[phi_name]
            conj = compose(alpha, phi, alpha.inverse())
            assert johnson(conj, 3) == johnson_act(alpha, johnson(phi, 3))


def test_johnson_act_by_torelli_is_trivial():
    jv = johnson(catalog(2)["sep1"], 3)
    assert johnson_act(catalog(2)["conj_l"], jv) == jv


def test_calibration_signs(signs):
    assert signs.epsilon in (1, -1) and signs.delta in (1, -1)
    # stability: another seed and more trials land on the same sign
    assert calibrate_epsilon(2, seed=99, trials=10) == signs.epsilon
    assert calibrate_delta(signs.epsilon, 2) == signs.delta
    with pytest.raises(ValueError):
        Signs(2, 1)


def test_signs_value_semantics():
    s = Signs(1, -1)
    assert (s.epsilon, s.delta) == (1, -1)
    assert s == Signs(epsilon=1, delta=-1) and s != Signs(-1, -1)
    assert hash(s) == hash(Signs(1, -1))
    assert repr(s) == "Signs(epsilon=1, delta=-1)"
    with pytest.raises(AttributeError):
        s.epsilon = -1
    with pytest.raises(AttributeError):
        s.other = 0
    for bad in ((2, 1), (1, 0), (-1, -2)):
        with pytest.raises(ValueError, match=r"calibration signs must be \+1 or -1"):
            Signs(*bad)


def test_jsonable_round():
    import json

    jv = johnson(catalog(2)["sep1"], 3)
    blob = jv_to_jsonable(jv)
    assert blob["k"] == 3
    assert set(blob["values"]) == {"a1", "b1", "a2", "b2"}
    assert json.dumps(blob, sort_keys=True) == json.dumps(
        jv_to_jsonable(johnson(catalog(2)["sep1"], 3)), sort_keys=True
    )
