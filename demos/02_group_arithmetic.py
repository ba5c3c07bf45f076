"""Exact arithmetic in nilpotent truncations of a free group.

Gamma_k is the free group on 2g letters modulo the k-th lower central
series step.  Elements are represented by group-like tensors; products
go through truncated tensor multiplication, and logs land in the free
nilpotent Lie algebra.  Everything is exact rational arithmetic.
"""

from torelli.words import word
from torelli.malcev import get_context

ctx = get_context(4, 4)  # Gamma_4 on four letters: class-3 nilpotent
print(ctx)

# log of a word, graded by weight
w = word("a1 b1 a1^-1 b1^-1")
lw = ctx.log_word(w)
print(f"log[{w!r}] over the Hall basis:")
for i, c in sorted(lw.terms.items()):
    print(f"  {c!s:>6}  {ctx.basis.name(i)}")
print()

# the group law is exact: associativity, inverses, powers
x = ctx.element(word("a1 b2^-1 a2"))
y = ctx.element(word("b1 a1"))
z = ctx.element(word("a2^-1 b2 a1^-1"))
assert (x * y) * z == x * (y * z)
assert (x * y).inverse() == y.inverse() * x.inverse()
print("group axioms check out; x*y*z =", (x * y * z))
print()

# BCH composes logs without ever leaving the Lie algebra
lx, ly = ctx.log_word(word("a1")), ctx.log_word(word("b1"))
print("bch(X1, X2) =", ctx.bch(lx, ly))
print()

# normal forms: integer exponents along the ordered basic commutators
nf = ctx.normal_form(x * y)
print("normal form of x*y:", nf)
assert ctx.from_normal_form(nf) == x * y
print("round trip through the collected form is exact")
print()

# the central extension Gamma_5 -> Gamma_4 has a canonical section;
# its failure to be multiplicative is the weight-4 cocycle
g, h = ctx.element(word("a1 b1")), ctx.element(word("b1 a1"))
c = ctx.cocycle(g, h)
print("extension cocycle c(g, h) for g = a1 b1, h = b1 a1, in weight 4:")
for i, v in sorted(c.terms.items()):
    print(f"  {v!s:>4}  {ctx.up().basis.name(i)}")
