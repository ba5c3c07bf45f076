"""The extended differential of a central extension, at chain level.

A degree-3 chain over the class-(k-1) algebra lifts along the basis
prefix to class k; taking the Koszul boundary there and reducing modulo
(weight>=2)^(weight k) gives a degree-2 chain whose surviving terms are
all (weight 1)^(weight k).  On cycle classes this is the transgression
d^2 into H tensor L_{k+1}, independent of the lift.
"""

from torelli.ce import (
    WedgeChain,
    ce_boundary,
    extended_differential,
    read_h_tensor_l,
)
from torelli.hall import get_basis
from torelli.words import generator_name

k = 2
down = get_basis(4, k - 1)
up = get_basis(4, k)

z = WedgeChain(down, 3, {(0, 1, 2): 1})
print("input 3-chain over the abelian algebra:", z)
out = extended_differential(z, k)
print("extended differential:", out)
print()

print("read as an element of H tensor L:")
for i, v in enumerate(read_h_tensor_l(out).values):
    print(f"  {generator_name(i + 1)} slot: {v}")
print()

# boundaries die, so the map is well defined on homology classes
c4 = WedgeChain(down, 4, {(0, 1, 2, 3): 5})
assert not extended_differential(ce_boundary(c4), k)
print("a boundary maps to zero:", extended_differential(ce_boundary(c4), k))
print()

# at k=3 the same machinery runs over the class-2 algebra
down3 = get_basis(4, 2)
z3 = WedgeChain(down3, 3, {(0, 1, 4): 2, (1, 2, 7): -1})
print("a class-2 input:", z3)
print("its extended differential:", extended_differential(z3, 3))
