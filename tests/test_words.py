"""Free-group words, mapping classes, and the catalog."""

import os
import random

import pytest

from torelli.homs import johnson
from torelli.words import (
    MappingClassRep,
    ParseError,
    apply_endo,
    boundary_word,
    catalog,
    commutator,
    compose,
    format_word,
    generator,
    h_action,
    identity_mapping_class,
    parse_automorphism,
    parse_word,
    verify_mapping_class,
    word,
)

rng = random.Random(20240817)


def rand_word(g=2, max_len=8):
    n = rng.randint(0, max_len)
    return word([rng.choice([s for s in range(-2 * g, 2 * g + 1) if s]) for _ in range(n)])


def test_reduction():
    assert word([1, -1]).letters == ()
    assert word([1, 2, -2, -1]).letters == ()
    assert word([1, 2, -2, 3]).letters == (1, 3)
    w = word("a1 b1")
    assert (w * ~w).letters == ()


def test_word_algebra():
    u, v = word("a1 b2^-1"), word("b2 a1")
    assert u * v == word("a1 a1")
    assert (~u).letters == (2 + 2, -1) or ~u == word("b2 a1^-1")
    assert u ** 0 == word("")
    assert u ** 2 == u * u
    assert u ** -1 == ~u


def test_parse_format_round_trip():
    for _ in range(100):
        w = rand_word(3)
        assert parse_word(format_word(w)) == w
    assert parse_word("a1^3 b2^-2") == word([1, 1, 1, -4, -4])
    assert format_word(word([1, 1, 1])) == "a1^3"


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as exc:
        parse_word("a1 c3")
    assert exc.value.col is not None
    with pytest.raises(ParseError):
        parse_word("a1^x")


def test_boundary_word():
    ell = boundary_word(2)
    assert ell == commutator(generator(1), generator(2)) * commutator(
        generator(3), generator(4)
    )


def test_apply_endo_is_homomorphism():
    cat = catalog(2)
    phi = cat["t1"]
    for _ in range(50):
        u, v = rand_word(), rand_word()
        assert apply_endo(phi, u * v) == apply_endo(phi, u) * apply_endo(phi, v)
        assert apply_endo(phi, ~u) == ~apply_endo(phi, u)


def test_catalog_verified_and_fixes_boundary():
    for g in (2, 3):
        cat = catalog(g)
        ell = boundary_word(g)
        assert set(cat) >= {"t1", "u1", "conj_l", "sep1", "z", "P"}
        for name, rep in cat.items():
            assert verify_mapping_class(rep), name
            assert apply_endo(rep, ell) == ell, name


def test_catalog_z_and_bounding_pair_map():
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "bench", "z.aut")) as fh:
        bench_z = parse_automorphism(fh.read(), 2, name="z")
    for g in (2, 3):
        cat = catalog(g)
        t1, u1, u2, z, p = (cat[name] for name in ("t1", "u1", "u2", "z", "P"))
        # the benchmark's z, on the first two handles
        assert z.images[:4] == bench_z.images
        assert z.inverse_images[:4] == bench_z.inverse_images
        assert z.images[4:] == z.inverse_images[4:] == identity_mapping_class(g).images[4:]
        assert p == compose(u2.inverse(), u2.inverse(), *[z, u1, t1.inverse()] * 4)
        eye = tuple(tuple(int(i == j) for j in range(2 * g)) for i in range(2 * g))
        assert h_action(z) != eye
        assert h_action(p) == eye
        assert not johnson(p, 2).is_zero()


def test_images_are_range_checked():
    gens = tuple(generator(i) for i in (1, 2, 3, 4))
    far = gens[:3] + (generator(5),)
    for images, inverse in ((far, gens), (gens, far), (gens, gens[:3])):
        with pytest.raises(ValueError):
            MappingClassRep(2, images, inverse)


def test_catalog_needs_genus_two():
    with pytest.raises(ValueError):
        catalog(1)


def test_compose_and_inverse():
    cat = catalog(2)
    f, s = cat["t1"], cat["sep1"]
    fs = compose(f, s)
    for _ in range(20):
        w = rand_word()
        assert apply_endo(fs, w) == apply_endo(f, apply_endo(s, w))
    inv = fs.inverse()
    for w in (word("a1"), word("b2 a1^-1")):
        assert apply_endo(inv, apply_endo(fs, w)) == w
    # n-ary compose is the nested one, inverse images and name included
    z, t = cat["z"], cat["t2"].inverse()
    flat = compose(z, s, t)
    for nested in (compose(compose(z, s), t), compose(z, compose(s, t))):
        assert (nested, nested.inverse_images) == (flat, flat.inverse_images)
        assert nested.name == flat.name == "z sep1 t2^-1"
    assert compose(z, MappingClassRep(2, s.images, None), t).inverse_images is None
    with pytest.raises(ValueError, match="genus"):
        compose(z, catalog(3)["t1"])


def test_verify_rejects_missing_inverse():
    phi = MappingClassRep(
        2, tuple(generator(i) for i in (1, 2, 3, 4)), None, "no-inv"
    )
    with pytest.raises(ValueError):
        verify_mapping_class(phi)


def test_h_action_matrices():
    cat = catalog(2)
    eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
    assert h_action(identity_mapping_class(2)) == eye
    assert h_action(cat["conj_l"]) == eye
    assert h_action(cat["sep1"]) == eye
    t1 = h_action(cat["t1"])
    # a1 -> a1 b1 adds one b1 per a1
    assert t1[1][0] == 1 and t1[0][0] == 1 and t1[2][0] == 0


def test_h_action_is_symplectic():
    # M^T J M = J with <a_i, b_i> = 1
    n = 4
    J = [[0] * n for _ in range(n)]
    for m in range(2):
        J[2 * m][2 * m + 1] = 1
        J[2 * m + 1][2 * m] = -1
    for rep in catalog(2).values():
        M = h_action(rep)
        got = [
            [
                sum(M[a][i] * J[a][b] * M[b][j] for a in range(n) for b in range(n))
                for j in range(n)
            ]
            for i in range(n)
        ]
        assert got == J, rep.name


def test_parse_automorphism_round_trip():
    text = """
# boundary twist on the first handle only
a1 -> b1 a1 b1^-1
b1 -> b1
inverse
a1 -> b1^-1 a1 b1
"""
    rep = parse_automorphism(text, 2, name="example")
    assert apply_endo(rep, word("a1")) == word("b1 a1 b1^-1")
    assert apply_endo(rep, word("a2")) == word("a2")
    assert rep.inverse_images is not None


def test_parse_automorphism_errors():
    with pytest.raises(ParseError):
        parse_automorphism("a1 -> a1\na1 -> b1", 2)
    with pytest.raises(ParseError) as exc:
        parse_automorphism("a1 -> a1 q9", 2)
    assert exc.value.line is not None
