"""Exact sparse rank, two independent integer pipelines and a rational oracle."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import torelli
from torelli.linalg import rank_bareiss, rank_gauss

rng = random.Random(31415926)


def fraction_rank(rows):
    """Plain rational elimination, densest column first: the Fraction route
    both integer routes replaced, kept as a third oracle."""
    rows = [{c: Fraction(v) for c, v in row.items() if v} for row in rows]
    rows = [r for r in rows if r]
    rank = 0
    while rows:
        counts: dict[int, int] = {}
        for row in rows:
            for c in row:
                counts[c] = counts.get(c, 0) + 1
        col = max(counts, key=lambda c: (counts[c], c))
        idx = next(i for i, row in enumerate(rows) if col in row)
        pivot_row = rows.pop(idx)
        inv = 1 / pivot_row[col]
        pivot_row = {c: v * inv for c, v in pivot_row.items()}
        rank += 1
        nxt = []
        for row in rows:
            f = row.get(col)
            if f:
                row = dict(row)
                for c, v in pivot_row.items():
                    nv = row.get(c, 0) - f * v
                    if nv:
                        row[c] = nv
                    elif c in row:
                        del row[c]
            if row:
                nxt.append(row)
        rows = nxt
    return rank


def all_ranks(rows):
    routes = (rank_bareiss, rank_gauss, fraction_rank)
    return [route([dict(r) for r in rows]) for route in routes]


def test_known_ranks():
    assert rank_bareiss([]) == 0
    assert rank_bareiss([{}]) == 0
    assert rank_bareiss([{0: 1}, {0: 2}]) == 1
    ident = [{i: 1} for i in range(5)]
    assert all_ranks(ident) == [5, 5, 5]
    # rank-2 by construction: row3 = row1 + row2
    rows = [{0: 1, 1: 2}, {1: 3, 2: -1}, {0: 1, 1: 5, 2: -1}]
    assert all_ranks(rows) == [2, 2, 2]


def test_fractions_cleared():
    # second row is 3x the first, so the fractions must cancel exactly
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3)},
        {0: Fraction(3, 2), 1: Fraction(1, 1)},
        {0: Fraction(1, 7)},
    ]
    assert all_ranks(rows) == [2, 2, 2]
    rows.append({1: Fraction(22, 7), 3: Fraction(-1, 11)})
    assert all_ranks(rows) == [3, 3, 3]


def test_random_agreement():
    for _ in range(40):
        nrows = rng.randint(1, 12)
        ncols = rng.randint(1, 12)
        rows = []
        for _ in range(nrows):
            row = {}
            for c in range(ncols):
                if rng.random() < 0.4:
                    row[c] = rng.randint(-5, 5)
            rows.append(row)
        # duplicate and scale a few rows so dependence actually happens
        for _ in range(rng.randint(0, 3)):
            if rows:
                src = dict(rng.choice(rows))
                scale = rng.choice([-2, -1, 1, 2, 3])
                rows.append({c: v * scale for c, v in src.items()})
        r1, r2, r3 = all_ranks(rows)
        assert r1 == r2 == r3
        assert r1 <= min(len([r for r in rows if r]), ncols)


def _large_rational_matrix(nrows: int, ncols: int) -> list[dict]:
    """Dense-ish rows with entries up to 10^6 in size, some of them divided
    by random denominators, every row scaled by a non-unit factor so that
    the pivots are not units, plus a few unit rows (pivots equal to the
    previous one) and rational combinations of earlier rows (dependence)."""
    rows = []
    n_free = nrows - rng.randint(3, 8)
    for _ in range(n_free - 3):
        factor = rng.choice([2, 3, 6, 10, -4])
        row = {
            c: factor * rng.randint(-10**6 // 10, 10**6 // 10)
            for c in range(ncols)
            if rng.random() < 0.35
        }
        if rng.random() < 0.4:
            den = rng.randint(2, 999)
            row = {c: Fraction(v, den) for c, v in row.items()}
        rows.append(row)
    rows += [{rng.randrange(ncols): 1} for _ in range(3)]
    while len(rows) < nrows:
        a, b = rng.sample(rows[:n_free], 2)
        p, q = Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9)
        combo = {c: p * a.get(c, 0) + q * b.get(c, 0) for c in a.keys() | b.keys()}
        rows.append(combo)
    rng.shuffle(rows)
    return rows


def test_random_agreement_large_rational_entries():
    for _ in range(8):
        rows = _large_rational_matrix(rng.randint(20, 40), rng.randint(15, 40))
        r1, r2, r3 = all_ranks(rows)
        assert r1 == r2 == r3
        assert r1 < len(rows)


def test_dependent_rational_rows():
    base = {0: Fraction(2, 3), 2: Fraction(-1, 5), 7: 4}
    rows = [base, {c: v * Fraction(9, 2) for c, v in base.items()}, {1: 1}]
    assert all_ranks(rows) == [2, 2, 2]


@pytest.mark.parametrize("route", [rank_bareiss, rank_gauss])
def test_float_entries_are_rejected(route):
    with pytest.raises(TypeError, match="'float' object"):
        route([{0: 1, 1: Fraction(1, 3)}, {0: 2, 1: 0.1}])


_OPTIMIZE_CHECKS = {
    "rank-disagreement": (
        "import torelli.ce as ce\n"
        "ce.rank_gauss = lambda rows: -1\n"
        "print(ce.homology_dims(2, 3, 2))\n",
        "ArithmeticError: elimination pipelines disagree",
    ),
    "inexact-division": (
        "from torelli.linalg import _exact_div\nprint(_exact_div(7, 2))\n",
        "ArithmeticError: Bareiss division was not exact",
    ),
    # halving every cocycle makes the Morita cap non-integral
    "cap-integrality": (
        "from fractions import Fraction\n"
        "from torelli import catalog\n"
        "from torelli.homs import morita\n"
        "from torelli.malcev import MalcevContext\n"
        "cocycle = MalcevContext.cocycle\n"
        "MalcevContext.cocycle = lambda self, g, h: cocycle(self, g, h).scale(Fraction(1, 2))\n"
        "print(morita(catalog(2)['sep1'], 3, -1).d2_invariant)\n",
        "ArithmeticError: cap value at slot 0 is not integral",
    ),
    # halving every logarithm makes the Johnson value non-integral
    "johnson-integrality": (
        "from fractions import Fraction\n"
        "from torelli import catalog\n"
        "from torelli.homs import johnson\n"
        "from torelli.malcev import MalcevContext\n"
        "log_word = MalcevContext.log_word\n"
        "MalcevContext.log_word = lambda self, w: log_word(self, w).scale(Fraction(1, 2))\n"
        "print(johnson(catalog(2)['sep1'], 3).values)\n",
        "ArithmeticError: Johnson value must be integral",
    ),
    "constant-term": (
        "from torelli.malcev import NilElement, get_context\n"
        "print(NilElement(get_context(4, 3), {(): 2}).tensor)\n",
        "ValueError: group elements have constant term 1",
    ),
    # basic powers that are the identity peel nothing off
    "peeling-remainder": (
        "from torelli.malcev import MalcevContext, get_context\n"
        "from torelli.words import generator\n"
        "MalcevContext._basic_power = lambda self, index, e: {(): 1}\n"
        "ctx = get_context(4, 2)\n"
        "print(ctx.normal_form(ctx.word_group(generator(1))))\n",
        "ArithmeticError: peeling left a nontrivial remainder",
    ),
    # a section times x1 leaves weight-1 terms in the cocycle
    "cocycle-weight": (
        "from torelli.malcev import MalcevContext, get_context\n"
        "from torelli.words import generator\n"
        "section = MalcevContext.section\n"
        "MalcevContext.section = lambda self, x: (\n"
        "    section(self, x) * self.up().word_group(generator(1)))\n"
        "ctx = get_context(4, 3)\n"
        "print(ctx.cocycle(ctx.word_group(generator(1)), ctx.word_group(generator(2))))\n",
        "ArithmeticError: cocycle not concentrated in weight k",
    ),
    # a section times exp(z / 2), z central of weight k, adds z / 2 to the cocycle
    "cocycle-integrality": (
        "from fractions import Fraction\n"
        "from torelli.hall import LieElement\n"
        "from torelli.malcev import MalcevContext, get_context\n"
        "from torelli.words import generator\n"
        "section = MalcevContext.section\n"
        "def half_section(self, x):\n"
        "    up = self.up()\n"
        "    half = LieElement(up.basis, {up.basis.weight_start[self.k]: Fraction(1, 2)})\n"
        "    return section(self, x) * up.exp_lie(half)\n"
        "MalcevContext.section = half_section\n"
        "ctx = get_context(4, 3)\n"
        "print(ctx.cocycle(ctx.word_group(generator(1)), ctx.word_group(generator(2))))\n",
        "ArithmeticError: cocycle left the integral lattice",
    ),
    # every weight range listed twice makes every bracket foliage appear twice
    "duplicate-foliage": (
        "from torelli.hall import HallBasis\n"
        "weight_range = HallBasis.weight_range\n"
        "HallBasis.weight_range = lambda self, w: list(weight_range(self, w)) * 2\n"
        "print(HallBasis(2, 2).dim)\n",
        "ArithmeticError: duplicate foliage in basis",
    ),
    "catalog-verification": (
        "import torelli.words as words\n"
        "words.verify_mapping_class = lambda rep: False\n"
        "print(sorted(words.catalog(2)))\n",
        "ArithmeticError: catalog entry t1 failed verification",
    ),
}


@pytest.mark.parametrize("name", list(_OPTIMIZE_CHECKS))
def test_elimination_checks_survive_optimize(name):
    # the checks raise rather than assert, so they still stop a run under -O
    code, message = _OPTIMIZE_CHECKS[name]
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(torelli.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode != 0, out.stdout
    assert message in out.stderr
