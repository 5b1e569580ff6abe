"""Signed permutations on weighted index sets.

A signed permutation on {1..n} maps i to +-j; the group of all of them that
preserve a weight function is the ambient group for all relative-Weyl-group
computations here.  The distinguished index-2 subgroup consists of elements
whose number of sign changes at odd-weight points is even (a weight of -1
counts as odd).
"""

from dataclasses import dataclass
from itertools import permutations, product
import json


@dataclass(frozen=True)
class SignedPerm:
    """imgs[i-1] = signed image of i, a value in {+-1..+-n}."""
    imgs: tuple

    @property
    def n(self):
        return len(self.imgs)

    @staticmethod
    def identity(n):
        return SignedPerm(tuple(range(1, n + 1)))

    def act(self, i):
        """Image of signed point i (i may be negative)."""
        if i > 0:
            return self.imgs[i - 1]
        return -self.imgs[-i - 1]

    def __mul__(self, other):
        # (self*other)(i) = self(other(i))
        return SignedPerm(tuple(self.act(other.imgs[i]) for i in range(self.n)))

    def inv(self):
        out = [0] * self.n
        for i in range(1, self.n + 1):
            j = self.imgs[i - 1]
            if j > 0:
                out[j - 1] = i
            else:
                out[-j - 1] = -i
        return SignedPerm(tuple(out))

    def key(self):
        return self.imgs

    def sign_changes(self):
        """Points i with image of negative sign."""
        return tuple(i for i in range(1, self.n + 1) if self.imgs[i - 1] < 0)

    def unsigned(self):
        """Underlying permutation, forgetting signs."""
        return tuple(abs(j) for j in self.imgs)

    def to_json(self):
        return json.dumps(list(self.imgs))


def from_json(text):
    return SignedPerm(tuple(json.loads(text)))


def flip(n, i):
    """The sign change at point i."""
    imgs = list(range(1, n + 1))
    imgs[i - 1] = -i
    return SignedPerm(tuple(imgs))


def transposition(n, i, j, sign=1):
    """(i,j)(-i,-j) when sign=+1, the signed swap (i,-j)(j,-i) when sign=-1."""
    imgs = list(range(1, n + 1))
    imgs[i - 1] = sign * j
    imgs[j - 1] = sign * i
    return SignedPerm(tuple(imgs))


def in_d_subgroup(p, weights):
    """Even number of sign changes at odd-weight points (-1 counts as odd)."""
    odd_flips = sum(1 for i in p.sign_changes() if weights[i - 1] % 2 != 0)
    return odd_flips % 2 == 0


def full_group(weights):
    """All weight-preserving signed permutations on len(weights) points."""
    n = len(weights)
    classes = {}
    for i, w in enumerate(weights):
        classes.setdefault(w, []).append(i)
    class_lists = list(classes.values())
    out = []
    for perms in product(*(permutations(c) for c in class_lists)):
        base = [0] * n
        for cls, img in zip(class_lists, perms):
            for src, tgt in zip(cls, img):
                base[src] = tgt + 1
        for signs in product((1, -1), repeat=n):
            out.append(SignedPerm(tuple(s * b for s, b in zip(signs, base))))
    out.sort(key=lambda p: p.key())
    return out


def d_subgroup(elements, weights):
    return [p for p in elements if in_d_subgroup(p, weights)]


def full_group_order(weights):
    """Order of the weight-preserving signed-permutation group."""
    from math import factorial
    counts = {}
    for w in weights:
        counts[w] = counts.get(w, 0) + 1
    n = len(weights)
    out = 2 ** n
    for c in counts.values():
        out *= factorial(c)
    return out


@dataclass(frozen=True)
class RelWeylResult:
    """The three nested quotient groups on the orbit set of a decomposition."""
    orbits: tuple
    weights: tuple
    ambient: tuple      # weight-preserving signed perms on the orbit set
    d_part: tuple       # the index-2 weighted D-subgroup


def act_on_root(p, alpha):
    """Signed-permutation action on a root vector."""
    l = len(alpha)
    out = [0] * l
    for i in range(l):
        j = p.imgs[i]
        if j > 0:
            out[j - 1] = alpha[i]
        else:
            out[-j - 1] = -alpha[i]
    return tuple(out)


def reflection_perm(alpha):
    """The reflection in a +-e_i +- e_j root as a signed permutation."""
    l = len(alpha)
    supp = [(i + 1, alpha[i]) for i in range(l) if alpha[i] != 0]
    if len(supp) != 2:
        raise ValueError("only long roots give signed permutations here")
    (i, mi), (j, mj) = supp
    return transposition(l, i, j, sign=1 if mi != mj else -1)


def orbit_label_map(dec, w):
    """Label a stabilizer element by its action on the orbit set.

    The sign on a weight-d block is the common sign of the coordinate images
    (they agree because only difference roots join the block); a singleton
    keeps its own sign; the distinguished orbit gets the parity of its
    coordinate sign changes.  Returns None when w does not permute the orbits.
    """
    orbits = dec.orbits
    pos = {o: k + 1 for k, o in enumerate(orbits)}
    n = len(orbits)
    imgs = [0] * n
    for o in orbits:
        tgt = tuple(sorted(abs(w.act(i)) for i in o))
        if tgt not in pos:
            return None
        signs = {1 if w.act(i) > 0 else -1 for i in o}
        if o == dec.j_minus1:
            neg = sum(1 for i in o if w.act(i) < 0)
            s = -1 if neg % 2 else 1
        else:
            if len(signs) != 1:
                return None
            s = signs.pop()
        imgs[pos[o] - 1] = s * pos[tgt]
    return SignedPerm(tuple(imgs))


def levi_stabilizer(dec):
    """The setwise stabilizer of the Levi subsystem in the full
    hyperoctahedral group of the rank (elements in key order), and the
    reflection subgroup its simple roots generate."""
    from . import root_levi as rl
    from .group_engine import FiniteGroup

    l = dec.rank
    phi = rl.levi_roots(l, dec.delta_prime)
    stab = [w for w in full_group((1,) * l)
            if all(act_on_root(w, a) in phi for a in phi)]
    alphas = rl.simple_roots(l)
    refl = [reflection_perm(alphas[i]) for i in sorted(dec.delta_prime)]
    if refl:
        levi_group = FiniteGroup(gens=refl)
    else:
        levi_group = FiniteGroup(elements=[SignedPerm.identity(l)])
    return stab, levi_group


def rel_weyl_oracle(dec):
    """Independent computation of the relative Weyl groups by brute force.

    Enumerates the full hyperoctahedral group, takes the setwise stabilizer of
    the Levi subsystem, forms the coset quotient by the reflection subgroup,
    and labels stabilizer elements by their orbit action.  Returns a dict of
    everything a comparison against `rel_weyl` needs.
    """
    from .group_engine import FiniteGroup, quotient

    l = dec.rank
    stab, levi_group = levi_stabilizer(dec)
    stab_group = FiniteGroup(elements=stab)
    quot = quotient(stab_group, levi_group)

    labels = {}
    for w in stab:
        lab = orbit_label_map(dec, w)
        if lab is None:
            raise AssertionError("stabilizer element does not permute orbits")
        labels[w] = lab
    dweights = (1,) * l
    dstab = [w for w in stab if in_d_subgroup(w, dweights)]
    return {
        "stab": stab,
        "levi": levi_group,
        "quotient": quot,
        "labels": labels,
        "image": sorted({labels[w] for w in stab}, key=lambda p: p.key()),
        "image_d": sorted({labels[w] for w in dstab}, key=lambda p: p.key()),
    }


def rel_weyl_matches_oracle(dec):
    """Full comparison of the closed formula with the brute-force oracle.

    Checks the labelling is a homomorphism with kernel exactly the reflection
    subgroup, the quotient order matches, and both the ambient and D-part
    element sets agree.
    """
    res = rel_weyl(dec)
    orc = rel_weyl_oracle(dec)
    labels = orc["labels"]
    stab = orc["stab"]
    ident = SignedPerm.identity(len(dec.orbits))
    kernel = {w for w in stab if labels[w] == ident}
    checks = {
        "hom": all(labels[a * b] == labels[a] * labels[b]
                   for a in stab[:40] for b in stab[:40]),
        "index_product": len(stab) == len(kernel) * len(set(orc["image"])),
        "kernel_is_levi": kernel == set(orc["levi"].elements),
        "quotient_order": orc["quotient"].order == len(res.ambient),
        "ambient_match": set(orc["image"]) == set(res.ambient),
        "d_match": set(orc["image_d"]) == set(res.d_part),
    }
    return all(checks.values()), checks


def rel_weyl(dec):
    """Relative Weyl groups on the orbit set, by the closed formula.

    Points are the orbits of the decomposition sorted by (weight, min), with
    weight(J_{-1}) = -1; the ambient group is every weight-preserving signed
    permutation and the D-part keeps those with evenly many odd-weight sign
    changes.
    """
    orbits = dec.orbits
    weights = dec.weights
    amb = tuple(full_group(weights))
    dpart = tuple(d_subgroup(amb, weights))
    return RelWeylResult(orbits=orbits, weights=weights, ambient=amb, d_part=dpart)
