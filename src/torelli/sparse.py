"""Sparse vectors as plain dicts {key: coefficient} with no zero entries.

Tensors, Lie elements and every chain kind are such dicts.  Whole-vector
accumulation goes through `add_into`, which updates the accumulator in
place; per-term kernels (tensor products, brackets, boundaries, ranks)
keep their own inline loops.  `SparseChain` carries the arithmetic that
the chain classes share.
"""

from __future__ import annotations

from typing import Iterable

__all__ = ["add_into", "collect", "SparseChain"]


def add_into(acc: dict, src: dict, factor=1) -> dict:
    """acc += factor * src in place, dropping entries that reach zero.

    `src` is left untouched.  A factor of 1 adds without multiplying, so
    int values stay int and no Fraction product is paid for.  Returns acc.
    """
    if not factor:
        return acc
    get = acc.get
    if factor == 1:
        for k, v in src.items():
            nv = get(k, 0) + v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]
    else:
        for k, v in src.items():
            nv = get(k, 0) + factor * v
            if nv:
                acc[k] = nv
            elif k in acc:
                del acc[k]
    return acc


def collect(pairs: Iterable[tuple]) -> dict:
    """Sum (key, value) pairs into a dict with no zero entries."""
    out: dict = {}
    get = out.get
    for k, v in pairs:
        nv = get(k, 0) + v
        if nv:
            out[k] = nv
        elif k in out:
            del out[k]
    return out


class SparseChain:
    """Arithmetic shared by the chain classes.

    `terms` maps basis keys to nonzero coefficients and `degree` is the
    chain degree.  A subclass validates input in its constructor, returns
    an empty chain of its own kind and ambient from `_like`, and may
    extend `_check`, which guards every binary operation.
    """

    __slots__ = ("degree", "terms")

    def _like(self) -> "SparseChain":
        raise NotImplementedError

    def _with(self, terms: dict) -> "SparseChain":
        res = self._like()
        res.terms = terms
        return res

    def _check(self, other: "SparseChain") -> None:
        if self.degree != other.degree:
            raise ValueError("mixed degrees")

    def __add__(self, other: "SparseChain") -> "SparseChain":
        self._check(other)
        return self._with(add_into(dict(self.terms), other.terms))

    def __sub__(self, other: "SparseChain") -> "SparseChain":
        self._check(other)
        return self._with(add_into(dict(self.terms), other.terms, -1))

    def scale(self, q) -> "SparseChain":
        return self._with({t: v * q for t, v in self.terms.items()} if q else {})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._check(other)
        return self.terms == other.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(degree={self.degree}, {len(self.terms)} terms)"
