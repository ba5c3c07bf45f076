"""Normalized bar chains over the surface group and its nilpotent quotients.

Chains are finite integer combinations of tuples of group labels with no
identity entries (the normalized complex).  A chain's label group is its
`ctx`: None for free-group words, or the MalcevContext of a truncation
Gamma_k for its elements.  The module provides

  * the fundamental 2-chain C with dC = -[l] built from a staircase,
  * a closed-form bounding chain for 2-cycles of the free group, read
    off Fox's free differential calculus,
  * the pushforward along pi -> Gamma_k,
  * the cap of a 3-cycle over Gamma_k against the central-extension
    cocycle, a `JohnsonValue` in H tensor (weight-k layer); the global sign
    epsilon of the cap is a calibration constant fixed elsewhere.
"""

from __future__ import annotations

from .hall import JohnsonValue, LieElement, get_basis
from .malcev import MalcevContext, NilElement
from .sparse import SparseChain, add_into, collect
from .words import Word, apply_endo, boundary_word, format_word, word

__all__ = [
    "BarChain",
    "bar_chain",
    "bar_boundary",
    "staircase",
    "fundamental_two_chain",
    "fox_derivatives",
    "bound_two_cycle",
    "act_on_chain",
    "push",
    "antisym_cycle",
    "cap_d2",
    "chain_to_jsonable",
]

_EMPTY = word("")


class BarChain(SparseChain):
    """Sparse normalized bar chain: tuples of non-identity labels -> int.

    `ctx` is the label group: None for free-group words, otherwise the
    context of the truncation whose elements label the chain.
    """

    __slots__ = ("ctx",)

    def __init__(self, degree: int, ctx: MalcevContext | None, terms: dict | None = None):
        self.degree = degree
        self.ctx = ctx
        self.terms: dict[tuple, int] = {}
        for tup, coeff in (terms or {}).items():
            if not coeff:
                continue
            if len(tup) != degree:
                raise ValueError("tuple of wrong degree")
            if not any(x.is_identity() for x in tup):
                self.terms[tup] = coeff

    def _like(self) -> "BarChain":
        return BarChain(self.degree, self.ctx)

    def _check(self, other: "BarChain") -> None:
        super()._check(other)
        if self.ctx is not other.ctx:
            raise ValueError(f"mixed label groups: {self.ctx!r} vs {other.ctx!r}")


def bar_chain(degree: int, items, ctx: MalcevContext | None = None) -> BarChain:
    """Build a chain from (tuple, coeff) pairs, normalizing as it goes."""
    return BarChain(degree, ctx, collect(items))


def bar_boundary(chain: BarChain) -> BarChain:
    """Alternating face sum; inner faces multiply adjacent labels.

    Each distinct pair of adjacent labels is multiplied once per call,
    and a product equal to a label of the chain or to an earlier product
    is replaced by that one object, so the face tuples hash and compare
    by identity.  Faces whose product is the identity are dropped
    (normalization); the chain itself has no identity labels.  Nothing
    built here outlives the call but the result.
    """
    if chain.degree < 1:
        raise ValueError("boundary needs degree >= 1")
    out: dict[tuple, int] = {}
    get = out.get
    products: dict[tuple, object] = {}  # (x, y) -> xy
    shared: dict = {}  # one object per distinct label or product
    for tup in chain.terms:
        for x in tup:
            shared.setdefault(x, x)

    def put(tup: tuple, v: int) -> None:
        nv = get(tup, 0) + v
        if nv:
            out[tup] = nv
        elif tup in out:
            del out[tup]

    for tup, coeff in chain.terms.items():
        n = len(tup)
        put(tup[1:], coeff)
        sign = -1
        for i in range(n - 1):
            pair = tup[i : i + 2]
            xy = products.get(pair)
            if xy is None:
                xy = tup[i] * tup[i + 1]
                xy = products[pair] = shared.setdefault(xy, xy)
            if not xy.is_identity():
                put(tup[:i] + (xy,) + tup[i + 2 :], sign * coeff)
            sign = -sign
        put(tup[:-1], sign * coeff)
    res = BarChain(chain.degree - 1, chain.ctx)
    res.terms = out
    return res


def staircase(w: Word) -> BarChain:
    """For w with letter sequence y_1..y_m, the 2-chain
    sum_{i=1}^{m-1} [y_1..y_i | y_{i+1}]; boundary telescopes to
    [letters] - [w] pieces."""
    items = []
    prefix = _EMPTY
    letters = [word([s]) for s in w.letters]
    for i, y in enumerate(letters):
        if i > 0:
            items.append(((prefix, y), 1))
        prefix = prefix * y
    return bar_chain(2, items)


def fundamental_two_chain(g: int) -> BarChain:
    """The 2-chain C over pi with dC = -[boundary word], exactly.

    C = staircase(l) - sum_i ([a_i|a_i^-1] + [b_i|b_i^-1]); the correction
    simplices cancel the single-letter faces the staircase leaves behind.
    """
    if g < 1:
        raise ValueError("genus must be >= 1")
    ell = boundary_word(g)
    c = staircase(ell)
    items = []
    for i in range(1, 2 * g + 1):
        x = word([i])
        items.append(((x, ~x), -1))
    return c + bar_chain(2, items)


def fox_derivatives(w: Word) -> dict[int, dict[Word, int]]:
    """All free differential derivatives of w at once: generator index ->
    group-ring element as {word: coeff}.  Satisfies d(uv) = du + u.dv."""
    out: dict[int, dict[Word, int]] = {}
    prefix = _EMPTY
    for s in w.letters:
        nxt = prefix * word([s])
        # w is reduced, so no (generator, key) pair repeats and nothing
        # cancels: a repeat needs the adjacent letters x_i^-1 x_i
        if s > 0:
            out.setdefault(s, {})[prefix] = 1
        else:
            out.setdefault(-s, {})[nxt] = -1
        prefix = nxt
    return out


def bound_two_cycle(z: BarChain) -> BarChain:
    """Given a 2-cycle z over pi, return a 3-chain D with dD = z, exactly.

    For z = sum n [x|y], expand the Fox derivatives dy/dx_i = sum c v;
    then D = sum n c [x | v | x_i].  Proof: let F(w) = sum_i [dw/dx_i | x_i],
    extended linearly.  The product rule d(xy)/dx_i = dx/dx_i + x dy/dx_i
    and y - 1 = sum_i (dy/dx_i)(x_i - 1) give, face by face,
    d(sum c [x|v|x_i]) = F(y) - (F(xy) - F(x)) + [x|y] = [x|y] + F(d[x|y]).
    So dD = z + F(dz), which is z exactly when z is a cycle.
    """
    if z.degree != 2 or z.ctx is not None:
        raise ValueError("bounding needs a degree-2 chain over free-group words")
    if bar_boundary(z):
        raise ValueError("input chain is not a cycle")
    items = [
        ((x, v, word([i])), n * c)
        for (x, y), n in z.terms.items()
        for i, d in fox_derivatives(y).items()
        for v, c in d.items()
    ]
    return bar_chain(3, items)


def act_on_chain(phi, chain: BarChain) -> BarChain:
    """Entrywise action of an endomorphism on a word-labeled chain."""
    if chain.ctx is not None:
        raise ValueError("entrywise action is defined on word labels")
    items = [
        (tuple(apply_endo(phi, x) for x in tup), coeff)
        for tup, coeff in chain.terms.items()
    ]
    return bar_chain(chain.degree, items)


def push(chain: BarChain, ctx: MalcevContext) -> BarChain:
    """Relabel a word chain into Gamma_k; tuples acquiring an identity
    entry are dropped.  This is a chain map onto normalized chains.

    The labels are built together by `MalcevContext.elements`, which
    walks each one on from its longest prefix among them.  Words with
    equal elements share one label object, so the chain's tuples compare
    by identity.
    """
    if chain.ctx is not None:
        raise ValueError("push starts from word labels")
    elts = ctx.elements(x for tup in chain.terms for x in tup)
    shared: dict = {}
    elts = {w: shared.setdefault(x, x) for w, x in elts.items()}
    items = [(tuple(elts[x] for x in tup), coeff) for tup, coeff in chain.terms.items()]
    return bar_chain(chain.degree, items, ctx)


def antisym_cycle(x: NilElement, y: NilElement, z: NilElement) -> BarChain:
    """Full antisymmetrization sum_{s in S3} sgn(s) [s(x)|s(y)|s(z)].
    Over an abelian quotient this is a cycle."""
    items = []
    for perm, sign in (
        ((0, 1, 2), 1),
        ((1, 2, 0), 1),
        ((2, 0, 1), 1),
        ((1, 0, 2), -1),
        ((0, 2, 1), -1),
        ((2, 1, 0), -1),
    ):
        trip = (x, y, z)
        items.append((tuple(trip[i] for i in perm), sign))
    return bar_chain(3, items, x.ctx)


def cap_d2(z: BarChain, epsilon: int) -> JohnsonValue:
    """Cap a 3-cycle over Gamma_k with the extension cocycle of
    1 -> L_{k+1} -> Gamma_{k+1} -> Gamma_k -> 1:

        [g1|g2|g3] -> epsilon * (exponent vector of g1) tensor c(g2, g3)

    summed over terms.  Returns the level-k `JohnsonValue` holding one
    weight-k Lie element per generator slot.  Boundaries map to zero, so
    this is well defined on homology.

    The cap is linear in g1, so the terms are first grouped by (g2, g3)
    into the net H-weight sum coeff * (exponent vector of g1), and the
    cocycle is evaluated once per pair, only for pairs whose net weight
    is nonzero.  Its weight-k and lattice checks run on every pair that
    enters the cap; the integrality check of the sum stays.
    """
    if z.degree != 3 or z.ctx is None:
        raise ValueError("cap needs a degree-3 chain over a truncated group")
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    if bar_boundary(z):
        raise ValueError("input chain is not a cycle")
    ctx = z.ctx
    weights: dict[tuple, dict] = {}  # (g2, g3) -> net sum of coeff * ab(g1)
    for (g1, g2, g3), coeff in z.terms.items():
        add_into(weights.setdefault((g2, g3), {}), g1.abelianization(), coeff)
    slots: list[dict] = [{} for _ in range(ctx.n)]
    for (g2, g3), acc in weights.items():
        if not acc:
            continue
        coc = ctx.cocycle(g2, g3)
        if not coc.terms:
            continue
        for i, a in acc.items():
            add_into(slots[i], coc.terms, epsilon * a)
    up = get_basis(ctx.n, ctx.k)
    out = tuple(LieElement(up, s) for s in slots)
    for i, s in enumerate(out):
        if not s.is_integral():
            raise ArithmeticError(f"cap value at slot {i} is not integral")
    return JohnsonValue(ctx.k, out)


def chain_to_jsonable(chain: BarChain) -> list:
    """Stable JSON form: list of {labels, coeff}, labels as word strings
    or as integer exponent vectors, sorted for determinism."""
    ctx = chain.ctx
    label = format_word if ctx is None else (lambda x: list(ctx.normal_form(x)))
    rows = [
        {"labels": [label(x) for x in tup], "coeff": coeff}
        for tup, coeff in chain.terms.items()
    ]
    rows.sort(key=lambda r: r["labels"])
    return rows
