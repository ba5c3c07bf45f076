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
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .sparse import add_into, collect

__all__ = ["HallBasis", "get_basis", "LieElement", "lie_generator"]

Tree = int | tuple  # leaf letter (1-based) or (left, right)


def _foliage(t: Tree) -> tuple[int, ...]:
    if isinstance(t, int):
        return (t,)
    return _foliage(t[0]) + _foliage(t[1])


def tree_name(t: Tree, names=None) -> str:
    """Render a bracketing, e.g. [[a1,b1],b1]."""
    if isinstance(t, int):
        return names(t) if names else f"x{t}"
    return f"[{tree_name(t[0], names)},{tree_name(t[1], names)}]"


class HallBasis:
    """Hall (Lyndon) basis of the free Lie algebra on n letters, class c."""

    def __init__(self, n: int, c: int):
        if n < 1 or c < 1:
            raise ValueError("need n >= 1 letters and class c >= 1")
        self.n = n
        self.c = c
        by_weight: list[list[Tree]] = [[]]  # index by weight, weight 0 unused
        by_weight.append([i for i in range(1, n + 1)])
        for w in range(2, c + 1):
            level: list[tuple[tuple[int, ...], Tree]] = []
            for wl in range(1, w):
                for x in by_weight[wl]:
                    fx = _foliage(x)
                    for y in by_weight[w - wl]:
                        fy = _foliage(y)
                        if fx >= fy:
                            continue
                        if not isinstance(x, int) and _foliage(x[1]) < fy:
                            continue
                        level.append((fx + fy, (x, y)))
            level.sort(key=lambda p: p[0])
            by_weight.append([t for _, t in level])

        self.trees: list[Tree] = [t for w in range(1, c + 1) for t in by_weight[w]]
        self.weights: list[int] = [
            w for w in range(1, c + 1) for _ in by_weight[w]
        ]
        self.index: dict[tuple[int, ...], int] = {
            _foliage(t): i for i, t in enumerate(self.trees)
        }
        assert len(self.index) == len(self.trees), "duplicate foliage in basis"
        # letter content: contents[i][l] counts letter l+1 in the foliage of i
        # (self.index lists foliages in index order)
        self.contents: list[tuple[int, ...]] = [
            tuple(f.count(letter) for letter in range(1, n + 1)) for f in self.index
        ]
        self.dims: list[int] = [len(by_weight[w]) for w in range(1, c + 1)]
        self.weight_start: list[int] = [0] * (c + 2)
        for w in range(1, c + 1):
            self.weight_start[w + 1] = self.weight_start[w] + self.dims[w - 1]
        # weight_start[w] .. weight_start[w+1] is the index range of weight w
        self.weight_start[0] = 0
        self.dim = len(self.trees)
        self._brackets: dict[tuple[int, int], dict[int, int]] = {}
        self._in_progress: set[tuple[int, int]] = set()

    def weight_range(self, w: int) -> range:
        return range(self.weight_start[w], self.weight_start[w + 1])

    def foliage(self, index: int) -> tuple[int, ...]:
        return _foliage(self.trees[index])

    def weight_of(self, index: int) -> int:
        return self.weights[index]

    def subtree_indices(self, index: int) -> tuple[int, int]:
        t = self.trees[index]
        assert not isinstance(t, int)
        return self.index[_foliage(t[0])], self.index[_foliage(t[1])]

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
            fi, fj = _foliage(self.trees[i]), _foliage(self.trees[j])
            if fi > fj:
                out = {k: -v for k, v in self.bracket_indices(j, i).items()}
            else:
                ti = self.trees[i]
                if isinstance(ti, int) or _foliage(ti[1]) >= fj:
                    out = {self.index[fi + fj]: 1}
                else:
                    i1, i2 = self.subtree_indices(i)
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

    def name(self, index: int, names=None) -> str:
        return tree_name(self.trees[index], names)

    def __repr__(self) -> str:
        return f"HallBasis(n={self.n}, c={self.c}, dim={self.dim})"


_basis_cache: dict[tuple[int, int], HallBasis] = {}


def get_basis(n: int, c: int) -> HallBasis:
    b = _basis_cache.get((n, c))
    if b is None:
        b = _basis_cache[(n, c)] = HallBasis(n, c)
    return b


class LieElement:
    """Sparse rational element of a free nilpotent Lie algebra."""

    __slots__ = ("basis", "coeffs")

    def __init__(self, basis: HallBasis, coeffs: dict[int, Fraction | int]):
        self.basis = basis
        self.coeffs = {i: v for i, v in coeffs.items() if v}

    def _check(self, other: "LieElement") -> None:
        if self.basis is not other.basis:
            if (self.basis.n, self.basis.c) != (other.basis.n, other.basis.c):
                raise ValueError(
                    f"mixed truncation levels: {self.basis!r} vs {other.basis!r}"
                )

    def __add__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(self.basis, add_into(dict(self.coeffs), other.coeffs))

    def __sub__(self, other: "LieElement") -> "LieElement":
        self._check(other)
        return LieElement(self.basis, add_into(dict(self.coeffs), other.coeffs, -1))

    def __neg__(self) -> "LieElement":
        return LieElement(self.basis, {i: -v for i, v in self.coeffs.items()})

    def scale(self, q) -> "LieElement":
        if not q:
            return LieElement(self.basis, {})
        return LieElement(self.basis, {i: v * q for i, v in self.coeffs.items()})

    def bracket(self, other: "LieElement") -> "LieElement":
        self._check(other)
        out: dict[int, Fraction | int] = {}
        for i, vi in self.coeffs.items():
            for j, vj in other.coeffs.items():
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
            self.basis, {i: v for i, v in self.coeffs.items() if i in r}
        )

    def min_weight(self) -> int | None:
        if not self.coeffs:
            return None
        return min(self.basis.weight_of(i) for i in self.coeffs)

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.coeffs.values())

    def lift_to(self, basis: HallBasis) -> "LieElement":
        """Reinterpret in a larger class (zero in the new weights)."""
        if basis.c < self.basis.c:
            raise ValueError("can only lift to a larger class")
        return LieElement(basis, dict(self.coeffs))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LieElement):
            return NotImplemented
        self._check(other)
        if len(self.coeffs) != len(other.coeffs):
            return False
        return all(other.coeffs.get(i) == v for i, v in self.coeffs.items())

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __hash__(self) -> int:
        # hash(Fraction(2)) == hash(2), so equal coefficients hash alike
        return hash((self.basis.n, self.basis.c, frozenset(self.coeffs.items())))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        bits = []
        for i in sorted(self.coeffs):
            bits.append(f"{self.coeffs[i]}*{self.basis.name(i)}")
        return " + ".join(bits)


def lie_generator(basis: HallBasis, letter: int) -> LieElement:
    if not 1 <= letter <= basis.n:
        raise ValueError(f"letter {letter} out of range")
    return LieElement(basis, {letter - 1: 1})


def lie_from_items(basis: HallBasis, items: Iterable[tuple[int, Fraction | int]]) -> LieElement:
    return LieElement(basis, collect(items))
