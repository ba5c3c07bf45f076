"""Torelli classes from the chain relation, and the command-line surface.

Torelli classes are built from relations, not found by search.  The
catalog's z is a boundary-fixing automorphism of the first two handles
whose action on H1 mixes them; the chain relation (Farb-Margalit, A
Primer on Mapping Class Groups) then gives the catalog's bounding-pair
map

    P = u2^-1 u2^-1 (z u1 t1^-1)^4,

which acts trivially on H1 but not on the next nilpotent quotient.  Its
commutator with a conjugate lies one level deeper.  compose takes any
number of factors, so such products are written out as they read.
"""

import subprocess
import sys

from torelli.homs import johnson, jv_to_jsonable
from torelli.words import catalog, compose, h_action

cat = catalog(2)
p, t2 = cat["P"], cat["t2"]

eye = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
print("P = u2^-1 u2^-1 (z u1 t1^-1)^4 acts trivially on H1:", h_action(p) == eye)
print("johnson value of P at k=2:")
for gen, entries in jv_to_jsonable(johnson(p, 2))["values"].items():
    print(f"  {gen}: {entries if entries else 0}")

q = compose(t2, p, t2.inverse())
comm = compose(p, q, p.inverse(), q.inverse())
print("[P, t2 P t2^-1] has a zero value at k=2:", johnson(comm, 2).is_zero())
print()

# the same functionality is scriptable; every command emits sorted JSON
# so identical inputs give byte-identical output
cmds = [
    [sys.executable, "-m", "torelli.cli", "hall-dims", "--n", "4", "--class", "3"],
    [sys.executable, "-m", "torelli.cli", "log", "--g", "2", "--k", "3",
     "--word", "a1 b1 a1^-1 b1^-1"],
    [sys.executable, "-m", "torelli.cli", "johnson", "--g", "2", "--k", "3",
     "--auto", "catalog:sep1"],
]
for cmd in cmds:
    print("$", " ".join(cmd[2:]))
    out = subprocess.run(cmd, capture_output=True, text=True)
    print("\n".join("  " + line for line in out.stdout.splitlines()))
    print()
