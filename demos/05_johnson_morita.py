"""The two level-k invariants of a Torelli mapping class, and their match.

The direct invariant reads the weight-k part of log(phi(x) x^-1) per
generator.  The chain-level invariant bounds the 2-cycle phi.C - C over
the free group, pushes the bounding 3-chain into Gamma_k where it closes
up, and caps the resulting 3-cycle with the extension cocycle.  A
symplectic duality plus two calibrated global signs turns the second
into the first, exactly, on every instance.
"""

from torelli.words import catalog, compose
from torelli.bar import fundamental_two_chain, act_on_chain, bound_two_cycle, push, bar_boundary
from torelli.malcev import get_context
from torelli.homs import (
    Signs,
    calibrate_delta,
    calibrate_epsilon,
    johnson,
    morita,
    symplectic_dual,
    verify_morita_johnson,
    jv_to_jsonable,
)

cat = catalog(2)
conj_l, sep1 = cat["conj_l"], cat["sep1"]

# the direct invariant at level 3
jv = johnson(sep1, 3)
print("johnson value of sep1 at k=3:")
for gen, entries in jv_to_jsonable(jv)["values"].items():
    print(f"  {gen}: {entries if entries else 0}")
print()

# the chain pipeline, step by step
C = fundamental_two_chain(2)
z = act_on_chain(conj_l, C) - C
print("phi.C - C for the boundary conjugation:", len(z), "simplices, a cycle:",
      not bar_boundary(z))
D = bound_two_cycle(z)
print("bounding 3-chain over the free group:", len(D), "simplices")
pushed = push(D, get_context(4, 3))
print("pushed to Gamma_3:", len(pushed), "simplices, closed:", not bar_boundary(pushed))
print()

# calibrate the two global signs once: epsilon on the abelian oracle,
# delta on a single level-3 instance
epsilon = calibrate_epsilon(2)
delta = calibrate_delta(epsilon, 2)
signs = Signs(epsilon, delta)
print(f"calibrated signs: epsilon={epsilon}, delta={delta}")
print()

# now the two invariants agree on everything we can build
instances = [
    ("conj_l", conj_l),
    ("sep1", sep1),
    ("sep1 conj_l", compose(sep1, conj_l)),
    ("t1 sep1 t1^-1", compose(cat["t1"], sep1, cat["t1"].inverse())),
]
for label, phi in instances:
    ok, report = verify_morita_johnson(phi, 3, signs)
    print(f"  {label:16s} ok={ok} cycle_terms={report['cycle_terms']}")

# what the duality actually does to the cap invariant
mv = morita(conj_l, 3, epsilon)
assert symplectic_dual(mv.d2_invariant, delta) == johnson(conj_l, 3)
print()
print("dual(cap(morita)) reproduces johnson exactly")
