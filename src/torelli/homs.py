"""Johnson and Morita homomorphisms at chain level, and their comparison.

For a mapping class phi acting trivially on Gamma_k, the k-th Johnson
value records the weight-k part of log(phi(x) x^-1) per generator; the
k-th Morita value is a bounding 3-chain pushed to Gamma_k together with
its cap against the central-extension cocycle.  The two sides meet in
Morita's theorem: johnson = symplectic_dual of the cap invariant, up to
two global signs (epsilon for the cap, delta for the duality) that are
calibrated once, on an abelian oracle and on a single instance, and then
frozen for every later verification.
"""

from __future__ import annotations

import random
from collections import namedtuple
from itertools import combinations

from .bar import (
    BarChain,
    act_on_chain,
    antisym_cycle,
    bound_two_cycle,
    cap_d2,
    fundamental_two_chain,
    push,
)
from .ce import BudgetExceeded, WedgeChain, extended_differential, read_h_tensor_l
from .hall import JohnsonValue, LieElement, lie_to_jsonable
from .malcev import act_lie, get_context, induced_lie_auto
from .sparse import add_into
from .words import (
    MappingClassRep,
    apply_endo,
    boundary_word,
    catalog,
    generator_name,
    h_action,
    word,
)

__all__ = [
    "JohnsonValue",
    "MoritaValue",
    "Signs",
    "johnson",
    "johnson_act",
    "morita",
    "symplectic_dual",
    "verify_morita_johnson",
    "calibrate_epsilon",
    "calibrate_delta",
    "jv_to_jsonable",
]


class Signs(namedtuple("Signs", ("epsilon", "delta"))):
    """The two calibrated global signs: epsilon scales the cap with the
    extension cocycle, delta scales the symplectic duality.  Immutable;
    both must be +1 or -1."""

    __slots__ = ()

    def __new__(cls, epsilon: int, delta: int):
        if epsilon not in (1, -1) or delta not in (1, -1):
            raise ValueError("calibration signs must be +1 or -1")
        return super().__new__(cls, epsilon, delta)


class MoritaValue:
    """A chain-level Morita value: a 3-cycle over Gamma_k plus its cap
    against the extension cocycle, a level-k `JohnsonValue`."""

    __slots__ = ("cycle", "d2_invariant")

    def __init__(self, cycle: BarChain, d2_invariant: JohnsonValue):
        self.cycle = cycle
        self.d2_invariant = d2_invariant

    @property
    def k(self) -> int:
        """The truncation level, that of the cap invariant."""
        return self.d2_invariant.k


def johnson(phi: MappingClassRep, k: int) -> JohnsonValue:
    """The k-th Johnson value of phi: generator x maps to the weight-k
    part of log(phi(x) x^-1) computed one level up, at Gamma_{k+1}.

    Requires phi to act trivially on Gamma_k; the offending generator is
    named otherwise, the first one in generator order.  Values are
    integral.  The 2g words phi(x) x^-1 are built in one
    `MalcevContext.elements` call, so the long prefixes they share (the
    images are conjugated by the same words) are walked once.
    """
    ctx = get_context(2 * phi.g, k + 1)
    moved = []
    for i in range(2 * phi.g):
        x = word([i + 1])
        moved.append(apply_endo(phi, x) * ~x)
    ctx.elements(moved)
    values = []
    for i, w in enumerate(moved):
        lw = ctx.log_word(w)
        if lw and lw.min_weight() < k:
            raise ValueError(
                f"mapping class is not in the level-{k} Torelli group: "
                f"log(phi(x) x^-1) has weight-{lw.min_weight()} terms "
                f"at generator {generator_name(i + 1)}"
            )
        v = lw.weight_part(k)
        if not v.is_integral():
            raise ArithmeticError("Johnson value must be integral")
        values.append(v)
    return JohnsonValue(k, tuple(values))


def johnson_act(alpha: MappingClassRep, t: JohnsonValue) -> JohnsonValue:
    """The mapping-class action on Hom(H, weight-k layer), k = t.k: twist
    the H slot by the inverse abelianization matrix and the value slot by
    the induced Lie automorphism one level up."""
    n = 2 * alpha.g
    a_inv = h_action(alpha.inverse())
    cols = induced_lie_auto(alpha, t.k + 1)
    basis = t.values[0].basis
    out = []
    for j in range(n):
        acc: dict = {}
        for i in range(n):
            add_into(acc, t.values[i].terms, a_inv[i][j])
        out.append(act_lie(cols, LieElement(basis, acc)))
    return JohnsonValue(t.k, tuple(out))


def morita(phi: MappingClassRep, k: int, epsilon: int, max_terms=None) -> MoritaValue:
    """The chain-level k-th Morita value of phi: bound phi.C - C over the
    free group, push the bounding 3-chain to Gamma_k (a cycle, exactly,
    because phi acts trivially there), and cap with the extension
    cocycle using the calibrated sign.  A pushed cycle of more than
    max_terms terms raises BudgetExceeded before the cap."""
    johnson(phi, k)  # reuses the precondition check, error message and all
    ell = boundary_word(phi.g)
    if apply_endo(phi, ell) != ell:
        # d(phi.C - C) = [l] - [phi(l)], so there would be no cycle to bound
        raise ValueError("mapping class does not fix the boundary word")
    ctx = get_context(2 * phi.g, k)
    c2 = fundamental_two_chain(phi.g)
    z = act_on_chain(phi, c2) - c2
    d3 = bound_two_cycle(z)
    cycle = push(d3, ctx)
    if max_terms is not None and len(cycle) > max_terms:
        raise BudgetExceeded(
            f"cycle has {len(cycle)} terms, over budget_chain_terms = {max_terms}"
        )
    return MoritaValue(cycle, cap_d2(cycle, epsilon))


def symplectic_dual(t: JohnsonValue, delta: int) -> JohnsonValue:
    """Apply duality H -> H* from the intersection pairing <a_i, b_i> = 1
    to the H slot of t, at the same level: the a_i slot contributes
    -delta at b_i and the b_i slot contributes +delta at a_i."""
    if delta not in (1, -1):
        raise ValueError("delta must be +1 or -1")
    v = t.values
    if not v or len(v) % 2:
        raise ValueError("tensor needs one slot per generator, 2g of them")
    out = []
    for ai in range(0, len(v), 2):
        out += [v[ai + 1].scale(-delta), v[ai].scale(delta)]
    return JohnsonValue(t.k, tuple(out))


def verify_morita_johnson(phi: MappingClassRep, k: int, signs: Signs, max_terms=None):
    """Check johnson(phi, k) == symplectic_dual(cap of morita(phi, k)).

    Returns (ok, report); the report lists the per-generator difference
    when the check fails.  max_terms is passed on to morita.
    """
    jv = johnson(phi, k)
    mv = morita(phi, k, signs.epsilon, max_terms)
    dual = symplectic_dual(mv.d2_invariant, signs.delta)
    diff = jv - dual
    ok = diff.is_zero()
    report = {
        "ok": ok,
        "mapping_class": phi.name,
        "k": k,
        "cycle_terms": len(mv.cycle),
    }
    if not ok:
        report["difference"] = {
            generator_name(i + 1): lie_to_jsonable(v)
            for i, v in enumerate(diff.values)
            if v
        }
    return ok, report


# -- calibration --------------------------------------------------------------


def _wedge_of_abelian(ctx, elts) -> WedgeChain:
    """Trilinear expansion of the wedge of abelianized group elements."""
    x, y, z = (e.abelianization() for e in elts)
    terms = {
        (i, j, l): ci * cj * cl
        for i, ci in x.items()
        for j, cj in y.items()
        for l, cl in z.items()
    }
    return WedgeChain(ctx.basis, 3, terms)


def calibrate_epsilon(g: int = 2, seed: int = 0, trials: int = 20) -> int:
    """Fix the cap sign on the abelian oracle: over Gamma_2 the cap of an
    antisymmetrized cycle must match reading the extended differential
    of the corresponding wedge, for every generator triple and a batch
    of random integer combinations, with one global sign."""
    n = 2 * g
    ctx = get_context(n, 2)
    rng = random.Random(seed)
    cases = []
    for triple in combinations(range(1, n + 1), 3):
        cases.append([ctx.element(word([i])) for i in triple])
    for _ in range(trials):
        cases.append(
            [
                ctx.element(
                    word(
                        [
                            s
                            for i in range(1, n + 1)
                            for s in [i] * rng.randint(0, 2) + [-i] * rng.randint(0, 1)
                        ]
                    )
                )
                for _ in range(3)
            ]
        )
    plus_ok = minus_ok = True
    for elts in cases:
        got = cap_d2(antisym_cycle(*elts), 1)
        wedge = _wedge_of_abelian(ctx, elts)
        want = read_h_tensor_l(extended_differential(wedge, 2))
        if not (got - want).is_zero():
            plus_ok = False
        if not (got + want).is_zero():
            minus_ok = False
        if not plus_ok and not minus_ok:
            raise RuntimeError(
                "no global sign reconciles the cap with the extended differential"
            )
    if plus_ok and minus_ok:
        raise RuntimeError("calibration cases were all degenerate")
    return 1 if plus_ok else -1


def calibrate_delta(epsilon: int, g: int = 2) -> int:
    """Fix the duality sign on a single level-3 instance (the boundary
    conjugation), after epsilon is known."""
    phi = catalog(g)["conj_l"]
    jv = johnson(phi, 3)
    mv = morita(phi, 3, epsilon)
    for delta in (1, -1):
        if symplectic_dual(mv.d2_invariant, delta) == jv:
            return delta
    raise RuntimeError("no duality sign reconciles the level-3 instance")


# -- serialization helpers -----------------------------------------------------


def jv_to_jsonable(t: JohnsonValue) -> dict:
    return {
        "k": t.k,
        "values": {
            generator_name(i + 1): lie_to_jsonable(v) for i, v in enumerate(t.values)
        },
    }
