"""Free nilpotent Lie algebras on a fixed Hall basis.

The free Lie algebra on n letters, truncated at bracket weight c, has a
basis of Lyndon words with their standard bracketing: the Hall set here is
the set of binary trees t with Lyndon foliage such that for t = [x, y]
either x is a letter or x = [x1, x2] with foliage(x2) >= foliage(y).
Basis elements are ordered by weight, then lexicographically by foliage,
so the basis of class c is a prefix of the basis of class c+1 and indices
are stable across truncation levels.

A bracket of two basis elements rewrites into the basis by the recursion

    [x, y] = [x1, [x2, y]] - [x2, [x1, y]]   for x = [x1, x2], x2 < y,

applied after antisymmetry normalizes to foliage(x) < foliage(y).  The
recursion terminates because each step lowers (weight of the right factor
is fixed, left factors shrink); all structure constants come out integral.
Per-weight dimensions are never assumed: tests enumerate Lyndon words
independently and check Witt's necklace count.

A `LieElement` is a sparse chain (`sparse.SparseChain`) keyed by basis
index, so its vector arithmetic is the one shared by every chain kind.
`JohnsonValue` is the one type for H (x) L: a weight-k Lie element per
generator slot, the form of every Johnson value and cap invariant.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .sparse import SparseChain, collect

__all__ = [
    "HallBasis",
    "get_basis",
    "LieElement",
    "JohnsonValue",
    "lie_generator",
    "lie_to_jsonable",
]


class HallBasis:
    """Hall (Lyndon) basis of the free Lie algebra on n letters, class c.

    The basis is a set of flat tables by index i: foliages[i] is the Lyndon
    word of element i, children[i] is None for the letter i+1 and (l, r)
    for the bracket [l, r] of two lower-weight elements, and weights,
    contents (letter counts of the foliage) and the index map foliage -> i
    follow.  weight_start[w] .. weight_start[w+1] is the index range of
    weight w and dims[w-1] its size.
    """

    def __init__(self, n: int, c: int):
        if n < 1 or c < 1:
            raise ValueError("need n >= 1 letters and class c >= 1")
        self.n = n
        self.c = c
        self.foliages: list[tuple[int, ...]] = [(a,) for a in range(1, n + 1)]
        self.children: list[tuple[int, int] | None] = [None] * n
        self.weight_start: list[int] = [0, 0, n]
        for w in range(2, c + 1):
            level: list[tuple[tuple[int, ...], tuple[int, int]]] = []
            for wl in range(1, w):
                rights = self.weight_range(w - wl)
                for x in self.weight_range(wl):
                    fx, cx = self.foliages[x], self.children[x]
                    for y in rights:
                        fy = self.foliages[y]
                        if fx < fy and (cx is None or self.foliages[cx[1]] >= fy):
                            level.append((fx + fy, (x, y)))
            level.sort()
            self.foliages += [f for f, _ in level]
            self.children += [xy for _, xy in level]
            self.weight_start.append(len(self.foliages))
        self.dim = len(self.foliages)
        self.dims: list[int] = [
            self.weight_start[w + 1] - self.weight_start[w] for w in range(1, c + 1)
        ]
        self.weights: list[int] = [
            w for w in range(1, c + 1) for _ in self.weight_range(w)
        ]
        self.index: dict[tuple[int, ...], int] = {
            f: i for i, f in enumerate(self.foliages)
        }
        if len(self.index) != self.dim:
            raise ArithmeticError("duplicate foliage in basis")
        # contents[i][l] counts letter l+1 in the foliage of i
        self.contents: list[tuple[int, ...]] = [
            tuple(f.count(letter) for letter in range(1, n + 1)) for f in self.foliages
        ]
        self._brackets: dict[tuple[int, int], dict[int, int]] = {}
        self._in_progress: set[tuple[int, int]] = set()

    def weight_range(self, w: int) -> range:
        return range(self.weight_start[w], self.weight_start[w + 1])

    def weight_of(self, index: int) -> int:
        return self.weights[index]

    def bracket_indices(self, i: int, j: int) -> dict[int, int]:
        """[basis_i, basis_j] as an integer combination of basis elements.

        Brackets of total weight beyond the class are truncated to zero.
        The classical antisymmetry + Jacobi recursion on non-Hall pairs is
        used; a re-entry guard turns any (unexpected) recursion cycle into
        an error instead of a hang.
        """
        if i == j:
            return {}
        if self.weights[i] + self.weights[j] > self.c:
            return {}
        key = (i, j)
        cached = self._brackets.get(key)
        if cached is not None:
            return cached
        if key in self._in_progress:
            raise RuntimeError(f"bracket rewriting cycled on pair {key}")
        self._in_progress.add(key)
        try:
            fi, fj = self.foliages[i], self.foliages[j]
            if fi > fj:
                out = {k: -v for k, v in self.bracket_indices(j, i).items()}
            else:
                ci = self.children[i]
                if ci is None or self.foliages[ci[1]] >= fj:
                    out = {self.index[fi + fj]: 1}
                else:
                    i1, i2 = ci
                    out = {}
                    for m, cm in self.bracket_indices(i2, j).items():
                        for k, v in self.bracket_indices(i1, m).items():
                            out[k] = out.get(k, 0) + cm * v
                    for m, cm in self.bracket_indices(i1, j).items():
                        for k, v in self.bracket_indices(i2, m).items():
                            out[k] = out.get(k, 0) - cm * v
                    out = {k: v for k, v in out.items() if v}
        finally:
            self._in_progress.discard(key)
        self._brackets[key] = out
        return out

    def name(self, index: int) -> str:
        """Render a bracketing, e.g. [[x1,x2],x2]."""
        ci = self.children[index]
        if ci is None:
            return f"x{index + 1}"
        return f"[{self.name(ci[0])},{self.name(ci[1])}]"

    def __repr__(self) -> str:
        return f"HallBasis(n={self.n}, c={self.c}, dim={self.dim})"


_basis_cache: dict[tuple[int, int], HallBasis] = {}


def get_basis(n: int, c: int) -> HallBasis:
    b = _basis_cache.get((n, c))
    if b is None:
        b = _basis_cache[(n, c)] = HallBasis(n, c)
    return b


class HallChain(SparseChain):
    """A chain over a Hall basis: Lie elements and Chevalley-Eilenberg
    wedges.  Operands must share the basis's (n, c)."""

    __slots__ = ("basis",)

    def _check(self, other: "HallChain") -> None:
        super()._check(other)
        a, b = self.basis, other.basis
        if a is not b and (a.n, a.c) != (b.n, b.c):
            raise ValueError(f"mixed truncation levels: {a!r} vs {b!r}")


class LieElement(HallChain):
    """Sparse rational element of a free nilpotent Lie algebra: the
    degree-1 chain of its Chevalley-Eilenberg complex, keyed by basis
    index."""

    __slots__ = ()

    def __init__(self, basis: HallBasis, terms: dict[int, Fraction | int]):
        self.basis = basis
        self.degree = 1
        self.terms = {i: v for i, v in terms.items() if v}

    def _like(self) -> "LieElement":
        return LieElement(self.basis, {})

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check(other)
        out: dict[int, Fraction | int] = {}
        for i, vi in self.terms.items():
            for j, vj in other.terms.items():
                sc = self.basis.bracket_indices(i, j)
                if not sc:
                    continue
                v = vi * vj
                for k, m in sc.items():
                    out[k] = out.get(k, 0) + v * m
        return LieElement(self.basis, out)

    def weight_part(self, w: int) -> "LieElement":
        r = self.basis.weight_range(w)
        return LieElement(
            self.basis, {i: v for i, v in self.terms.items() if i in r}
        )

    def min_weight(self) -> int | None:
        if not self.terms:
            return None
        return min(self.basis.weight_of(i) for i in self.terms)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.terms.values())

    def lift_to(self, basis: HallBasis) -> "LieElement":
        """Reinterpret in a larger class (zero in the new weights)."""
        if basis.c < self.basis.c:
            raise ValueError("can only lift to a larger class")
        return LieElement(basis, dict(self.terms))

    def __hash__(self) -> int:
        # hash(Fraction(2)) == hash(2), so equal coefficients hash alike
        return hash((self.basis.n, self.basis.c, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        if not self.terms:
            return "0"
        bits = []
        for i in sorted(self.terms):
            bits.append(f"{self.terms[i]}*{self.basis.name(i)}")
        return " + ".join(bits)


class JohnsonValue:
    """An element of H (x) L_{k+1}: one weight-k Lie element per generator
    slot, over the class-k basis.  Johnson values, Morita cap invariants,
    read-offs of the extended differential and their symplectic duals
    all take this one form."""

    __slots__ = ("k", "values")

    def __init__(self, k: int, values: tuple[LieElement, ...]):
        self.k = k
        self.values = values

    def _pairs(self, other: "JohnsonValue"):
        if self.k != other.k:
            raise ValueError("mixed levels")
        if len(self.values) != len(other.values):
            raise ValueError("mixed genus")
        return zip(self.values, other.values)

    def __add__(self, other: "JohnsonValue") -> "JohnsonValue":
        return JohnsonValue(self.k, tuple(a + b for a, b in self._pairs(other)))

    def __sub__(self, other: "JohnsonValue") -> "JohnsonValue":
        return JohnsonValue(self.k, tuple(a - b for a, b in self._pairs(other)))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, JohnsonValue):
            return NotImplemented
        return self.k == other.k and self.values == other.values

    def is_zero(self) -> bool:
        return not any(self.values)

    def __repr__(self) -> str:
        return f"JohnsonValue(k={self.k}, {self.values!r})"


def lie_generator(basis: HallBasis, letter: int) -> LieElement:
    if not 1 <= letter <= basis.n:
        raise ValueError(f"letter {letter} out of range")
    return LieElement(basis, {letter - 1: 1})


def lie_from_items(basis: HallBasis, items: Iterable[tuple[int, Fraction | int]]) -> LieElement:
    return LieElement(basis, collect(items))


def lie_to_jsonable(x: LieElement) -> dict[str, str]:
    """{bracketing: coefficient as a string}, in basis order."""
    return {x.basis.name(i): str(c) for i, c in sorted(x.terms.items())}
