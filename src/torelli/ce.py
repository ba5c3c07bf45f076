"""Chevalley-Eilenberg chains of the free nilpotent Lie algebras.

C_n = Lambda^n g with the Koszul boundary

    d(V1 ^ ... ^ Vn) = sum_{i<j} (-1)^{i+j+1} [Vi,Vj] ^ V1 ^ ... Vi^ ... Vj^ ... ^ Vn

which preserves letter content: the complex splits into one block per
multidegree (a vector counting each letter over the factors of a wedge).
Permuting the letters is an automorphism of the free nilpotent Lie
algebra, so blocks whose multidegrees agree after sorting have equal
ranks.  Homology is computed by enumerating and ranking only the sorted
representative of each letter-permutation orbit, exactly, and weighting
it by the orbit's size.  On top of the plain boundary sits
the extended differential: lift a degree-3 chain over g_k canonically to
g_{k+1} (the Hall basis of g_k is a prefix of the Hall basis of g_{k+1}),
take the boundary there, and reduce modulo the subspace spanned by
(weight >= 2) ^ (weight k) wedges.  On classes of 3-cycles this computes
the d^2 differential of the homology of the central extension
1 -> L_{k+1} -> Gamma_{k+1} -> Gamma_k -> 1, valued in H tensor L_{k+1}.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import factorial
from typing import Iterator

from .hall import HallBasis, HallChain, JohnsonValue, LieElement, get_basis
from .linalg import rank_bareiss, rank_gauss
from .sparse import add_into, collect

__all__ = [
    "WedgeChain",
    "ce_boundary",
    "homology_dims",
    "c_mod_b_dim",
    "extended_differential",
    "read_h_tensor_l",
    "act",
    "verify_d_squared",
    "BudgetExceeded",
]


class BudgetExceeded(RuntimeError):
    """Raised when homology wedges or Morita chain terms outgrow a budget."""


def _sort_with_sign(tup: tuple[int, ...]) -> tuple[tuple[int, ...], int]:
    idx = list(tup)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return tuple(idx), 0
    return tuple(idx), sign


class WedgeChain(HallChain):
    """Sparse element of Lambda^degree of a Hall-based Lie algebra."""

    __slots__ = ()

    def __init__(self, basis: HallBasis, degree: int, terms: dict | None = None):
        self.basis = basis
        self.degree = degree
        pairs = []
        for tup, coeff in (terms or {}).items():
            if not coeff:
                continue
            if len(tup) != degree:
                raise ValueError(f"tuple {tup} has wrong degree")
            stup, sign = _sort_with_sign(tup)
            if sign:
                pairs.append((stup, sign * coeff))
        self.terms: dict[tuple[int, ...], Fraction | int] = collect(pairs)

    def _like(self) -> "WedgeChain":
        return WedgeChain(self.basis, self.degree)

    def weight_of(self, tup: tuple[int, ...]) -> int:
        w = self.basis.weights
        return sum(w[i] for i in tup)

    def __repr__(self) -> str:
        if not self.terms:
            return f"WedgeChain(degree={self.degree}, 0)"
        bits = [
            f"{v}*({'^'.join(self.basis.name(i) for i in t)})"
            for t, v in sorted(self.terms.items())
        ]
        return " + ".join(bits)


def ce_boundary(chain: WedgeChain) -> WedgeChain:
    """The Koszul boundary; degree-1 chains (and below) map to zero."""
    if chain.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    basis = chain.basis
    weights = basis.weights
    c = basis.c
    out: dict[tuple[int, ...], Fraction | int] = {}
    for tup, coeff in chain.terms.items():
        n = len(tup)
        for i in range(n):
            wi = weights[tup[i]]
            for j in range(i + 1, n):
                if wi + weights[tup[j]] > c:
                    continue
                br = basis.bracket_indices(tup[i], tup[j])
                if not br:
                    continue
                sign = 1 if (i + j) % 2 else -1  # (-1)^{(i+1)+(j+1)+1}, i,j 0-based
                rest = tup[:i] + tup[i + 1 : j] + tup[j + 1 :]
                base = sign * coeff
                for b, m in br.items():
                    pos = 0
                    dup = False
                    for r in rest:
                        if r < b:
                            pos += 1
                        elif r == b:
                            dup = True
                            break
                    if dup:
                        continue
                    ntup = rest[:pos] + (b,) + rest[pos:]
                    v = base * m if pos % 2 == 0 else -base * m
                    nv = out.get(ntup, 0) + v
                    if nv:
                        out[ntup] = nv
                    elif ntup in out:
                        del out[ntup]
    res = WedgeChain(basis, chain.degree - 1)
    res.terms = out
    return res


def multidegree_wedges(
    basis: HallBasis, degree: int, content: tuple[int, ...], start: int = 0
) -> Iterator[tuple[int, ...]]:
    """Strictly increasing index tuples of given degree whose factors'
    letter contents add up to `content`, all factors at index >= start."""
    if degree == 0:
        if not any(content):
            yield ()
        return
    weight = sum(content)
    # indices are weight-sorted: the first factor is the lightest, and the
    # others must fit under the class
    lo = max(1, weight - basis.c * (degree - 1))
    hi = min(weight // degree, basis.c)
    if lo > hi:
        return
    contents = basis.contents
    span = range(max(start, basis.weight_start[lo]), basis.weight_start[hi + 1])
    if degree == 1:
        for i in span:
            if contents[i] == content:
                yield (i,)
        return
    for i in span:
        rest = tuple(a - b for a, b in zip(content, contents[i]))
        if min(rest) < 0:
            continue
        for tail in multidegree_wedges(basis, degree - 1, rest, i + 1):
            yield (i,) + tail


def _sorted_contents(n: int, weight: int, cap: int) -> Iterator[tuple[int, ...]]:
    """Non-increasing length-n tuples of integers in 0..cap adding up to weight."""
    if n == 0:
        if weight == 0:
            yield ()
        return
    for first in range(min(weight, cap), -1, -1):
        if first * n < weight:
            break
        for rest in _sorted_contents(n - 1, weight - first, first):
            yield (first,) + rest


def _orbits(n: int, max_weight: int) -> Iterator[tuple[int, int, tuple[int, ...]]]:
    """(weight, orbit size, content) for each letter-permutation orbit of
    length-n contents of weight <= max_weight, represented by its sorted
    (non-increasing) member; the orbit size counts its distinct permutations."""
    for w in range(max_weight + 1):
        for content in _sorted_contents(n, w, w):
            size = factorial(n)
            for mult in Counter(content).values():
                size //= factorial(mult)
            yield w, size, content


def _wedges(
    basis: HallBasis, degree: int, content: tuple[int, ...], budget: list[int]
) -> list[tuple[int, ...]]:
    """The wedges of one multidegree block, each charged to the budget as it
    is enumerated."""
    out = []
    for t in multidegree_wedges(basis, degree, content):
        budget[0] -= 1
        if budget[0] < 0:
            raise BudgetExceeded(
                "wedge enumeration exceeded the configured budget; "
                "raise the budget to compute this block"
            )
        out.append(t)
    return out


def _block_rank(
    basis: HallBasis, sources: list[tuple[int, ...]], targets: list[tuple[int, ...]]
) -> int:
    """Rank of the boundary from the wedges `sources` of one multidegree
    block to the block's wedges `targets`, one degree lower."""
    if not sources or not targets:
        return 0
    target_index = {t: i for i, t in enumerate(targets)}
    chain = WedgeChain(basis, len(sources[0]))
    rows = []
    for t in sources:
        chain.terms = {t: 1}
        rows.append({target_index[u]: v for u, v in ce_boundary(chain).terms.items()})
    r1 = rank_bareiss(rows)
    r2 = rank_gauss(rows)
    if r1 != r2:
        raise ArithmeticError(
            f"elimination pipelines disagree on the block of {sources[0]}"
        )
    return r1


def homology_dims(
    g: int, k: int, n_max: int, budget: int = 2_000_000, per_weight: bool = False
):
    """Rational homology dimensions of the degree-(k-1) free nilpotent Lie
    algebra on 2g generators, for degrees 0..n_max.

    The boundary preserves letter content, so the complex splits into one
    subcomplex per multidegree, and a permutation of the letters (a Lie
    algebra automorphism) carries each one isomorphically onto the
    subcomplex of the permuted multidegree.  Only the sorted
    representative of each orbit is enumerated and ranked; its homology
    counts once per distinct permutation.  Every wedge enumerated is
    charged to `budget`.

    Returns a list of dims, or (dims, tables) with per-weight detail.
    Both elimination pipelines are run on every block; a mismatch is a bug.
    """
    basis = get_basis(2 * g, k - 1)
    remaining = [budget]
    tables: list[dict[int, int]] = [{} for _ in range(n_max + 1)]
    for w, orbit, content in _orbits(basis.n, basis.c * n_max):
        cells = [_wedges(basis, d, content, remaining) for d in range(n_max + 2)]
        # ranks[d] = rank of d_d on this block; d_0 = 0
        ranks = [0] + [
            _block_rank(basis, cells[d], cells[d - 1]) for d in range(1, n_max + 2)
        ]
        for n, table in enumerate(tables):
            h = len(cells[n]) - ranks[n] - ranks[n + 1]
            if h:
                table[w] = table.get(w, 0) + orbit * h
    dims = [sum(table.values()) for table in tables]
    if per_weight:
        return dims, tables
    return dims


def c_mod_b_dim(g: int, k: int, budget: int = 2_000_000) -> int:
    """dim C_3 - dim B_3 (the part of degree-3 chains visible to 3-cycles)."""
    basis = get_basis(2 * g, k - 1)
    remaining = [budget]
    total = 0
    for _, orbit, content in _orbits(basis.n, 3 * basis.c):
        cells3 = _wedges(basis, 3, content, remaining)
        if cells3:
            cells4 = _wedges(basis, 4, content, remaining)
            total += orbit * (len(cells3) - _block_rank(basis, cells4, cells3))
    return total


# -- extended differential ---------------------------------------------------


def lift_chain(chain: WedgeChain, up: HallBasis) -> WedgeChain:
    """Canonical lift along the basis-prefix inclusion (indices unchanged)."""
    if (up.n, up.c) != (chain.basis.n, chain.basis.c + 1):
        raise ValueError("lift goes up exactly one class")
    res = WedgeChain(up, chain.degree)
    res.terms = dict(chain.terms)
    return res


def reduce_mod_high(chain: WedgeChain, k: int) -> WedgeChain:
    """Reduce a degree-2 chain over g_{k+1} modulo (weight>=2) ^ (weight k)."""
    weights = chain.basis.weights
    out = WedgeChain(chain.basis, chain.degree)
    out.terms = {
        t: v
        for t, v in chain.terms.items()
        if not (weights[t[0]] >= 2 and weights[t[-1]] == k)
    }
    return out


def extended_differential(chain: WedgeChain, k: int) -> WedgeChain:
    """Lift a degree-3 chain over g_k to g_{k+1}, take the boundary there,
    and reduce mod (weight>=2)^(weight k).  On cycle classes this is the
    d^2 of the central extension by L_{k+1}; it kills boundaries and does
    not depend on the choice of lift."""
    if chain.degree != 3:
        raise ValueError("extended differential acts on degree-3 chains")
    if chain.basis.c != k - 1:
        raise ValueError(f"chain is not over the class-{k - 1} algebra")
    up = get_basis(chain.basis.n, k)
    return reduce_mod_high(ce_boundary(lift_chain(chain, up)), k)


def read_h_tensor_l(chain: WedgeChain) -> JohnsonValue:
    """Read a reduced degree-2 chain over the class-k algebra as an
    element of H tensor L_{k+1}, a `JohnsonValue` of level k = its class:
    slot i collects the weight-k partners of generator i+1.

    Every term must be (weight-1) ^ (weight-k); anything else means the
    input did not come from a 3-cycle."""
    basis = chain.basis
    k = basis.c
    weights = basis.weights
    n = basis.n
    slots: list[dict[int, Fraction | int]] = [{} for _ in range(n)]
    for (i, j), v in chain.terms.items():
        if weights[i] != 1 or weights[j] != k:
            raise ValueError(
                f"term {(i, j)} of weights ({weights[i]},{weights[j]}) is not "
                f"(weight-1)^(weight-{k}): the input was not represented by a cycle"
            )
        slots[i][j] = v
    return JohnsonValue(k, tuple(LieElement(basis, s) for s in slots))


def act(cols: tuple[LieElement, ...], chain: WedgeChain) -> WedgeChain:
    """Apply a Lie algebra endomorphism (columns over the Hall basis) to a
    wedge chain, factor by factor."""
    out: dict[tuple[int, ...], Fraction | int] = {}
    for tup, coeff in chain.terms.items():
        # distinct (prefix, index) pairs give distinct tuples: nothing to merge
        partial: dict[tuple[int, ...], Fraction | int] = {(): coeff}
        for idx in tup:
            col = cols[idx].terms
            partial = {t + (i,): tv * v for t, tv in partial.items() for i, v in col.items()}
        add_into(out, partial)
    return WedgeChain(chain.basis, chain.degree, out)


def verify_d_squared(g: int, k: int, max_degree: int) -> dict:
    """Check that the boundary squares to zero on every basis wedge of
    degree <= max_degree, exactly.

    Wedges whose two lightest factors already exceed the class have zero
    boundary term by term (every pair bracket truncates), so they are
    counted but not re-enumerated; that implication is exact.
    """
    from math import comb

    basis = get_basis(2 * g, k - 1)
    weights = basis.weights
    c = basis.c
    checked = 0
    structural = 0
    failures: list[tuple[int, ...]] = []
    probe = WedgeChain(basis, 2)

    def count_extensions(start: int, deg_left: int) -> int:
        # completions pick one index i >= start plus deg_left-1 above it
        return sum(
            comb(basis.dim - i - 1, deg_left - 1) for i in range(start, basis.dim)
        )

    def rec(start: int, tup: list[int], deg_left: int) -> None:
        nonlocal checked, structural
        if deg_left == 0:
            probe.terms = {tuple(tup): 1}
            if ce_boundary(ce_boundary(probe)):
                failures.append(tuple(tup))
            checked += 1
            return
        for i in range(start, basis.dim):
            if len(tup) == 1 and weights[tup[0]] + weights[i] > c:
                # the two lightest factors already truncate, so every pair
                # in any completion does: the boundary is zero term by term
                structural += count_extensions(i, deg_left)
                break
            tup.append(i)
            rec(i + 1, tup, deg_left - 1)
            tup.pop()

    report = {}
    for degree in range(2, max_degree + 1):
        checked = structural = 0
        failures = []
        probe = WedgeChain(basis, degree)
        rec(0, [], degree)
        report[degree] = {
            "checked": checked,
            "structurally_zero": structural,
            "failures": failures,
        }
    return report
