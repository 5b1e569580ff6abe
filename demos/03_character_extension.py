"""Extending linear characters: verified witnesses and a genuine obstruction.

A stable linear character of a normal subgroup H extends to the big group K
exactly when it is trivial on H meet K', the intersection with the derived
subgroup.  The solver returns either a verified value dict on the whole
group or an obstruction certificate: the least nonzero value that m times
the character (m its order) takes on H meet K'.
"""

from fractions import Fraction

from weylkit.group_engine import FiniteGroup, quaternion_group
from weylkit.signed_perm import flip, transposition
from weylkit.char_engine import (linear_characters, linear_ext_cocycle,
                                 verify_halves_extension)

# positive case: the rotation C4 inside the dihedral group of order 8
d8 = FiniteGroup(gens=[flip(2, 1), transposition(2, 1, 2)])
c4 = FiniteGroup(gens=[flip(2, 1) * transposition(2, 1, 2)])
for lam in linear_characters(c4):
    res = linear_ext_cocycle(lam, c4, d8)
    print(f"C4 character of order {max(v.denominator for v in lam.values())}"
          f": {'extends' if res.ok else 'obstructed'}  ({res.detail})")
print()

# negative control: the faithful central character of the quaternion group
q8, z = quaternion_group()
center = FiniteGroup(gens=[z])
lam = {center.identity: Fraction(0), z: Fraction(1, 2)}
res = linear_ext_cocycle(lam, center, q8)
print("quaternion group, faithful central character:")
print("  ok         :", res.ok)
print("  certificate:", res.certificate)
print("  detail     :", res.detail)
print()

# the halves subgroup inside its monomial normalizer, rank 3
print("halves subgroup at rank 3:")
for name, ok, detail in verify_halves_extension(3):
    print(f"  [{'ok' if ok else 'FAIL'}] {name}: {detail}")
