"""Truncated free associative algebra: the computational home of BCH.

Elements are sparse dicts {word: coefficient} where a word is a tuple of
letters (1-based ints) and products are truncated above a fixed total
weight c.  Group elements live here as truncated exponentials (constant
term 1), Lie elements as primitives (no constant term, weight-graded).
Products are computed in integers: each operand is scaled by the lcm of
its entries' denominators, which is exact because the product is
bilinear, and each output entry is divided once at the end.  Group
elements are inverted by the antipode (reverse each word, sign
(-1)^length), which is the inverse only of a group-like tensor; every
group element built in this package is one, and nothing re-checks it.

Two independent routes express a primitive tensor in the Hall basis: a
triangular read-off against the tensor images of the Hall elements (the
working route; the image of a Lyndon basis element is its foliage plus
lexicographically larger words, Reutenauer, Free Lie Algebras, Thm 5.1),
and the Dynkin right-normed bracketing map divided by the weight (kept as
a cross-check).
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm

from .hall import HallBasis, LieElement
from .sparse import add_into

__all__ = ["TensorContext"]

Word_ = tuple  # tuple of 1-based letters
Tensor = dict  # Word_ -> int | Fraction

_ONE: Tensor = {(): 1}


def _denominator(t: Tensor) -> int:
    """The lcm of the denominators of t's entries (an int has one)."""
    return lcm(*{v.denominator for v in t.values()})


class TensorContext:
    """Tensor-algebra arithmetic truncated at the class of a Hall basis."""

    def __init__(self, basis: HallBasis):
        self.basis = basis
        self.c = basis.c
        self.n = basis.n
        self._hall_images: dict[int, Tensor] = {}

    # -- algebra ----------------------------------------------------------

    def mul(self, a: Tensor, b: Tensor) -> Tensor:
        """The truncated product ab, computed in integers.

        With D_a and D_b the lcm of the denominators of a's and b's
        entries, D_a a and D_b b have integer entries, and
        ab = (D_a a)(D_b b) / (D_a D_b) exactly, so each output entry is
        one integer sum divided once.  b's entries are bucketed by word
        length, and an entry of a of length r meets only those of length
        at most c - r.
        """
        c = self.c
        da = _denominator(a)
        db = _denominator(b)
        # fits[r]: the scaled entries of b of length <= r
        fits: list[list] = [[] for _ in range(c + 1)]
        for wb, vb in b.items():
            if len(wb) <= c:
                if db != 1:
                    vb = vb.numerator * (db // vb.denominator)
                fits[len(wb)].append((wb, vb))
        for r in range(1, c + 1):
            fits[r] = fits[r - 1] + fits[r]
        acc: Tensor = {}
        get = acc.get
        for wa, va in a.items():
            room = c - len(wa)
            if room < 0:
                continue
            if da != 1:
                va = va.numerator * (da // va.denominator)
            for wb, vb in fits[room]:
                w = wa + wb
                acc[w] = get(w, 0) + va * vb
        d = da * db
        if d == 1:
            return {w: v for w, v in acc.items() if v}
        out: Tensor = {}
        for w, v in acc.items():
            if v:
                q, rem = divmod(v, d)
                out[w] = Fraction(v, d) if rem else q
        return out

    def _series(self, out: Tensor, u: Tensor, coeff) -> Tensor:
        """Add sum_{m >= 1} coeff(m) u^m into out (u^m is 0 past the class)."""
        pw: Tensor = _ONE
        for m in range(1, self.c + 1):
            pw = self.mul(pw, u)
            if not pw:
                break
            add_into(out, pw, coeff(m))
        return out

    def exp(self, x: Tensor) -> Tensor:
        if () in x:
            raise ValueError("exp needs zero constant term")
        return self._series(dict(_ONE), x, lambda m: Fraction(1, factorial(m)))

    def log(self, p: Tensor) -> Tensor:
        if p.get((), 0) != 1:
            raise ValueError("log needs constant term 1")
        u = {w: v for w, v in p.items() if w != ()}
        return self._series({}, u, lambda m: Fraction(1 if m % 2 else -1, m))

    def inverse(self, p: Tensor) -> Tensor:
        """Inverse of a group-like p by the antipode: each word reversed,
        its coefficient times (-1)^length.  For p = exp(x), x primitive,
        S(p) = exp(-x) (Quillen, Ann. Math. 90, 1969, App. A; Reutenauer,
        Free Lie Algebras, 1993); on other units it is no inverse.  Only
        the constant term is checked: checking group-likeness would cost
        a product, as much as the inversion, and every group element built
        here (word walks, exp, products, projections, normal-form
        products) is group-like."""
        if p.get((), 0) != 1:
            raise ValueError("inverse needs constant term 1")
        return {w[::-1]: -v if len(w) % 2 else v for w, v in p.items()}

    # -- Hall basis <-> tensors --------------------------------------------

    def hall_image(self, index: int) -> Tensor:
        im = self._hall_images.get(index)
        if im is not None:
            return im
        lr = self.basis.children[index]
        if lr is None:
            im = {(index + 1,): 1}
        else:
            a, b = self.hall_image(lr[0]), self.hall_image(lr[1])
            im = add_into(self.mul(a, b), self.mul(b, a), -1)
        self._hall_images[index] = im
        return im

    def from_lie(self, elt: LieElement) -> Tensor:
        if elt.basis is not self.basis and (elt.basis.n, elt.basis.c) != (self.n, self.c):
            raise ValueError("element belongs to a different truncation")
        out: Tensor = {}
        for i, v in elt.terms.items():
            add_into(out, self.hall_image(i), v)
        return out

    def to_lie(self, t: Tensor) -> LieElement:
        """Hall coordinates of a primitive (Lie) tensor; rejects non-Lie input.

        The image of a basis element is its foliage (coefficient 1) plus
        lexicographically larger words of the same weight, so one pass in
        basis order reads each coordinate off the residual and subtracts
        that multiple of the image.
        """
        if () in t:
            raise ValueError("not a Lie element: constant term present")
        residual = dict(t)
        coeffs: dict[int, Fraction | int] = {}
        for i, foliage in enumerate(self.basis.foliages):
            if not residual:
                break
            cf = residual.get(foliage)
            if cf:
                coeffs[i] = cf
                add_into(residual, self.hall_image(i), -cf)
        if residual:
            w = min(map(len, residual))
            raise ValueError(
                f"not a Lie element: weight-{w} part outside the Hall span"
            )
        return LieElement(self.basis, coeffs)

    def to_lie_dynkin(self, t: Tensor) -> LieElement:
        """Dynkin projection: word -> right-normed bracketing / weight.

        Agrees with to_lie exactly on Lie elements; an independent route.
        """
        if () in t:
            raise ValueError("not a Lie element: constant term present")
        basis = self.basis
        out: dict[int, Fraction] = {}
        for wd, v in t.items():
            cur = LieElement(basis, {wd[-1] - 1: Fraction(v, len(wd))})
            for letter in reversed(wd[:-1]):
                cur = LieElement(basis, {letter - 1: 1}).bracket(cur)
            add_into(out, cur.terms)
        return LieElement(basis, out)
