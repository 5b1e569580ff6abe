"""Root systems of type D inside type B, Levi normalization, and orbit decomposition.

Roots live in Z^l and are stored as integer tuples.  The simple system used
throughout is

    alpha_1 = e_2 - e_1,  alpha_2 = e_2 + e_1,  alpha_i = e_i - e_{i-1}  (3 <= i <= l).

A subset Delta' of the simple roots cuts out a Levi; after a normalization
that possibly applies the graph automorphism gamma (swapping alpha_1 and
alpha_2) the configuration is in "case i" (alpha_2 absent) or "case ii"
(alpha_1, alpha_2 both present).  `decompose` splits {1..l} into orbits under
the reflection subgroup, sorts them into type-A blocks of equal size d and the
distinguished block J_{-1} touching coordinates 1, 2.
"""

from dataclasses import dataclass, field
from itertools import combinations
import json


def basis_vector(l, i, sign=1):
    """e_i (1-indexed) in Z^l as a tuple, scaled by sign."""
    v = [0] * l
    v[i - 1] = sign
    return tuple(v)


def simple_roots(l):
    """The simple roots alpha_1..alpha_l of the type-D rank-l system."""
    if l < 2:
        raise ValueError("rank must be >= 2")
    alphas = {1: _vec_sub(basis_vector(l, 2), basis_vector(l, 1)),
              2: _vec_add(basis_vector(l, 2), basis_vector(l, 1))}
    for i in range(3, l + 1):
        alphas[i] = _vec_sub(basis_vector(l, i), basis_vector(l, i - 1))
    return alphas


def _vec_add(u, v):
    return tuple(a + b for a, b in zip(u, v))


def _vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def _vec_neg(u):
    return tuple(-a for a in u)


def d_roots(l):
    """All roots +-e_i +- e_j (i < j); there are 2*l*(l-1) of them."""
    out = []
    for i, j in combinations(range(1, l + 1), 2):
        ei, ej = basis_vector(l, i), basis_vector(l, j)
        for u in (_vec_sub(ej, ei), _vec_add(ei, ej)):
            out.append(u)
            out.append(_vec_neg(u))
    return out


def b_roots(l):
    """All roots of the ambient type-B system: d_roots plus +-e_i; 2*l^2 total."""
    out = list(d_roots(l))
    for i in range(1, l + 1):
        ei = basis_vector(l, i)
        out.append(ei)
        out.append(_vec_neg(ei))
    return out


def root_support(alpha):
    """Indices (1-based) where the root is nonzero."""
    return tuple(i + 1 for i, c in enumerate(alpha) if c != 0)


def reflect(alpha, v):
    """Reflection of v in the hyperplane orthogonal to alpha (both +-1 vectors)."""
    num = sum(a * b for a, b in zip(alpha, v))
    den = sum(a * a for a, b in zip(alpha, alpha))
    # all our roots have squared length 1 or 2; 2*(v,a)/(a,a) stays integral
    c = 2 * num // den
    return tuple(b - c * a for a, b in zip(alpha, v))


def span_closure(gens, l):
    """Root subsystem generated by gens inside the full +-e_i +- e_j system.

    Closes the set under reflections by its own members; fine at these ranks.
    """
    roots = set()
    for g in gens:
        roots.add(g)
        roots.add(_vec_neg(g))
    changed = True
    while changed:
        changed = False
        for a in list(roots):
            for b in list(roots):
                r = reflect(a, b)
                if r not in roots:
                    roots.add(r)
                    changed = True
    return roots


def normalize_levi(l, delta_indices):
    """Apply the graph automorphism if needed so the subset is in case i or ii.

    Returns (case, normalized_indices, gamma_applied) where case is "i" or
    "ii".  gamma swaps indices 1 and 2 and fixes the rest.
    """
    s = set(delta_indices)
    if not s <= set(range(1, l + 1)):
        raise ValueError("simple-root indices out of range")
    gamma_applied = False
    if 2 in s and 1 not in s:
        s = (s - {2}) | {1}
        gamma_applied = True
    if 2 not in s:
        case = "i"
    else:
        case = "ii"   # both 1 and 2 present
    return case, frozenset(s), gamma_applied


@dataclass(frozen=True)
class Decomposition:
    """Orbit decomposition of {1..l} attached to a normalized Levi subset."""
    rank: int
    delta_prime: frozenset          # normalized simple-root indices
    case: str                       # "i" or "ii"
    gamma_applied: bool
    orbits: tuple                   # all orbits, sorted by (weight, min)
    weights: tuple                  # weight of each orbit, aligned with `orbits`
    blocks: dict = field(compare=False)   # d -> tuple of ordered orbits I_{d,j}
    singletons: tuple = ()          # the weight-1 orbits as a tuple of tuples
    j_minus1: tuple = None          # the distinguished orbit, or None (case i)
    minus1_type: str = None         # "A1xA1", "A3", or "Dm"

    @property
    def dset(self):
        """The set of occurring weights, -1 first then descending block sizes then 1."""
        ds = sorted({d for d in self.blocks}, reverse=True)
        out = []
        if self.j_minus1 is not None:
            out.append(-1)
        out.extend(ds)
        if self.singletons:
            out.append(1)
        return tuple(out)

    def multiplicity(self, d):
        """a_d, the number of weight-d orbits (d >= 2)."""
        return len(self.blocks.get(d, ()))

    def f_maps(self, d):
        """The d bijections of {1..l} extending j -> I_{d,j}(k), maximal fixed points.

        Returned as a tuple of permutation tuples p with p[i-1] = image of i.
        """
        blocks = self.blocks[d]
        a_d = len(blocks)
        l = self.rank
        maps = []
        for k in range(d):
            img = {}
            targets = set()
            for j in range(1, a_d + 1):
                t = blocks[j - 1][k]
                img[j] = t
                targets.add(t)
            free_src = [i for i in range(1, l + 1) if i not in img]
            free_tgt = set(range(1, l + 1)) - targets
            # fix whatever can be fixed, match the rest in increasing order
            for i in list(free_src):
                if i in free_tgt:
                    img[i] = i
                    free_tgt.discard(i)
                    free_src.remove(i)
            for i, t in zip(sorted(free_src), sorted(free_tgt)):
                img[i] = t
            maps.append(tuple(img[i] for i in range(1, l + 1)))
        return tuple(maps)

    def to_json(self):
        return json.dumps({
            "rank": self.rank,
            "delta_prime": sorted(self.delta_prime),
            "case": self.case,
            "orbits": [list(o) for o in self.orbits],
            "D": list(self.dset),
        }, sort_keys=True)


def decompose(l, delta_indices):
    """Decompose {1..l} into orbits for the normalized Levi subset."""
    case, dp, gamma_applied = normalize_levi(l, delta_indices)
    alphas = simple_roots(l)
    # union-find on 1..l joining the support of each chosen simple root
    parent = list(range(l + 1))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[max(rx, ry)] = min(rx, ry)

    for idx in dp:
        i, j = root_support(alphas[idx])
        union(i, j)
    groups = {}
    for i in range(1, l + 1):
        groups.setdefault(find(i), []).append(i)
    orbits = [tuple(sorted(g)) for g in groups.values()]

    j_minus1 = None
    minus1_type = None
    if case == "ii":
        # the orbit(s) meeting {1, 2}; 1 and 2 are joined by alpha_1 here
        j_minus1 = next(o for o in orbits if 1 in o)
        m = len(j_minus1)
        if m == 2:
            minus1_type = "A1xA1"
        elif m == 3:
            minus1_type = "A3"
        else:
            minus1_type = "Dm"

    blocks = {}
    singles = []
    for o in orbits:
        if o == j_minus1:
            continue
        if len(o) == 1:
            singles.append(o)
        else:
            blocks.setdefault(len(o), []).append(o)
    for d in blocks:
        blocks[d] = tuple(sorted(blocks[d]))
    singles = tuple(sorted(singles))

    def weight_of(o):
        if o == j_minus1:
            return -1
        return len(o)

    def sort_key(o):
        return (weight_of(o), min(o))

    ordered = tuple(sorted(orbits, key=sort_key))
    weights = tuple(weight_of(o) for o in ordered)

    dec = Decomposition(rank=l, delta_prime=dp, case=case,
                        gamma_applied=gamma_applied,
                        orbits=ordered, weights=weights, blocks=blocks,
                        singletons=singles, j_minus1=j_minus1,
                        minus1_type=minus1_type)
    _check_invariants(dec)
    return dec


def _check_invariants(dec):
    l = dec.rank
    total = sum(d * len(bs) for d, bs in dec.blocks.items())
    total += len(dec.singletons)
    if dec.j_minus1 is not None:
        total += len(dec.j_minus1)
    if total != l:
        raise ArithmeticError("orbit sizes must partition the rank")
    seen = sorted(i for o in dec.orbits for i in o)
    if seen != list(range(1, l + 1)):
        raise ArithmeticError("orbits must partition 1..l")
    for d, bs in dec.blocks.items():
        for o in bs:
            if o != tuple(range(o[0], o[0] + d)):
                raise ArithmeticError("type-A orbits must be integer intervals")


def levi_roots(l, delta_indices):
    """The root subsystem spanned by the chosen (normalized) simple roots."""
    _, dp, _ = normalize_levi(l, delta_indices)
    alphas = simple_roots(l)
    gens = [alphas[i] for i in sorted(dp)]
    if not gens:
        return set()
    return span_closure(gens, l)


def all_levi_subsets(l):
    """Every subset of simple-root indices, for exhaustive sweeps."""
    idx = list(range(1, l + 1))
    out = []
    for r in range(len(idx) + 1):
        out.extend(frozenset(c) for c in combinations(idx, r))
    return out
