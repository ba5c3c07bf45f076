"""Exact sparse rank, two independent pipelines."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import torelli
from torelli.linalg import rank_bareiss, rank_gauss

rng = random.Random(31415926)


def test_known_ranks():
    assert rank_bareiss([]) == 0
    assert rank_bareiss([{}]) == 0
    assert rank_bareiss([{0: 1}, {0: 2}]) == 1
    ident = [{i: 1} for i in range(5)]
    assert rank_bareiss(ident) == 5
    assert rank_gauss(ident) == 5
    # rank-2 by construction: row3 = row1 + row2
    rows = [{0: 1, 1: 2}, {1: 3, 2: -1}, {0: 1, 1: 5, 2: -1}]
    assert rank_bareiss(rows) == 2
    assert rank_gauss(rows) == 2


def test_fractions_cleared():
    # second row is 3x the first, so the fractions must cancel exactly
    rows = [
        {0: Fraction(1, 2), 1: Fraction(1, 3)},
        {0: Fraction(3, 2), 1: Fraction(1, 1)},
        {0: Fraction(1, 7)},
    ]
    assert rank_bareiss(rows) == rank_gauss(rows) == 2
    rows.append({1: Fraction(22, 7), 3: Fraction(-1, 11)})
    assert rank_bareiss(rows) == rank_gauss(rows) == 3


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
        r1 = rank_bareiss([dict(r) for r in rows])
        r2 = rank_gauss([dict(r) for r in rows])
        assert r1 == r2
        assert r1 <= min(len([r for r in rows if r]), ncols)


def test_dependent_rational_rows():
    base = {0: Fraction(2, 3), 2: Fraction(-1, 5), 7: 4}
    rows = [base, {c: v * Fraction(9, 2) for c, v in base.items()}, {1: 1}]
    assert rank_bareiss(rows) == 2
    assert rank_gauss(rows) == 2



@pytest.mark.parametrize(
    "code, message",
    [
        (
            "import torelli.ce as ce\n"
            "ce.rank_gauss = lambda rows: -1\n"
            "print(ce.homology_dims(2, 3, 2))\n",
            "elimination pipelines disagree",
        ),
        (
            "from torelli.linalg import _exact_div\nprint(_exact_div(7, 2))\n",
            "Bareiss division was not exact",
        ),
    ],
    ids=["rank-disagreement", "inexact-division"],
)
def test_elimination_checks_survive_optimize(code, message):
    # the checks raise rather than assert, so they still stop a run under -O
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(torelli.__file__)))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env
    )
    assert out.returncode != 0, out.stdout
    assert f"ArithmeticError: {message}" in out.stderr
