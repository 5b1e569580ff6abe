"""The relative Weyl group on the orbit set, formula versus search.

The closed formula says the quotient of the setwise stabilizer by the
reflection subgroup is the full weight-preserving signed permutation group
of the orbit set (and its D-part at the finer level).  The oracle computes
the same thing by finding the stabilizer in the hyperoctahedral group with
a backtrack search and labelling its elements by their orbit action.
"""

from weylkit.root_levi import decompose, all_levi_subsets
from weylkit.signed_perm import rel_weyl, rel_weyl_oracle, \
    rel_weyl_matches_oracle

dec = decompose(4, (1, 3))
res = rel_weyl(dec)
orc = rel_weyl_oracle(dec)
print("rank 4, delta = {1,3}")
print("  orbit weights        :", list(res.weights))
print("  ambient group order  :", len(res.ambient))
print("  D-part order         :", len(res.d_part))
print("  oracle image order   :", len(orc["image"]))
print("  oracle D-image order :", len(orc["image_d"]))
print()

print("formula == oracle over every subset at ranks 2..4:")
for l in (2, 3, 4):
    n = sum(1 for delta in all_levi_subsets(l)
            if rel_weyl_matches_oracle(decompose(l, sorted(delta)))[0])
    total = len(all_levi_subsets(l))
    print(f"  rank {l}: {n}/{total} agree")
