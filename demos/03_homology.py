"""Rational homology of free nilpotent Lie algebras.

The chain complex is the exterior algebra with the Koszul boundary; it
splits by multidegree (letter content), and permuting the letters maps
a block onto the block of the permuted multidegree.  So only one block
per letter-permutation orbit is built, and its rank is computed with two
independent exact elimination pipelines that must agree.
"""

from torelli.ce import homology_dims, c_mod_b_dim, verify_d_squared

# the abelian case is a sanity anchor: the boundary vanishes and
# H_n is just Lambda^n of a 2g-dimensional space
print("g=2, abelian quotient:", homology_dims(2, 2, 4))
print()

# one level up the answer is already far from binomial
dims, tables = homology_dims(2, 3, 2, per_weight=True)
print("g=2, class-2 algebra, H_0..H_2:", dims)
for n, table in enumerate(tables):
    print(f"  H_{n} by weight: {table}")
print()

# the smallest nonabelian example in full, through the top degree
print("2 letters, class 2 (dim 3):", homology_dims(1, 3, 3))
print()

# degree-3 chains modulo boundaries: the ambient space where bounding
# 3-cycles of mapping classes live
print("dim C_3 - dim B_3 at g=2, level 3:", c_mod_b_dim(2, 3))
print()

# the boundary squares to zero on every weight block; blocks whose
# bracket weights overflow the class are certified structurally zero
report = verify_d_squared(2, 3, 4)
for degree, row in sorted(report.items()):
    print(
        f"degree {degree}: checked {row['checked']} basis chains, "
        f"{row['structurally_zero']} structurally zero, "
        f"failures: {row['failures']}"
    )
