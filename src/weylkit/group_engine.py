"""Generic finite-group engine over hashable element objects.

Element objects must support `a * b`, `a.inv()`, equality/hashing, and a
`key()` method giving a deterministic total order.  Subgroups are closed by
Dimino's coset extension (`closure`, `small_generating_set`, the derived
subgroup as a normal closure) and orbits are walked breadth-first by `orbit`
(Holt, Eick and O'Brien, Handbook of Computational Group Theory, 2005,
ch. 3-4); caps guard against runaway inputs.
"""

from dataclasses import dataclass
from math import lcm

CLOSURE_CAP = 2 * 10 ** 6


class ClosureCapExceeded(RuntimeError):
    pass


def closure(gens, cap=CLOSURE_CAP):
    """All products of the generators, sorted by key: the subgroup is built
    one generator at a time by coset extension."""
    gens = sorted(set(gens), key=lambda g: g.key())
    if not gens:
        raise ValueError("need at least one generator")
    cur = {gens[0] * gens[0].inv()}
    used = []
    for g in gens:
        if g not in cur:
            used.append(g)
            cur = _coset_extension(cur, used, g, cap)
    return sorted(cur, key=lambda g: g.key())


def orbit(x, gens, act, cap=CLOSURE_CAP):
    """The orbit of x under act(y, g) for g in gens, breadth-first from x."""
    out = [x]
    seen = {x}
    for y in out:
        for g in gens:
            z = act(y, g)
            if z not in seen:
                seen.add(z)
                out.append(z)
                if len(out) > cap:
                    raise ClosureCapExceeded(f"orbit exceeded {cap}")
    return out


class FiniteGroup:
    """A finite group given by generators or by a full element list."""

    def __init__(self, gens=None, elements=None, cap=CLOSURE_CAP):
        if elements is not None:
            self.elements = sorted(set(elements), key=lambda g: g.key())
            self.gens = list(gens) if gens else list(self.elements)
        else:
            self.gens = sorted(set(gens), key=lambda g: g.key())
            self.elements = closure(self.gens, cap=cap)
        self._eset = set(self.elements)
        self.identity = _find_identity(self.elements, self._eset)
        self._classes = None

    @property
    def order(self):
        return len(self.elements)

    def __contains__(self, g):
        return g in self._eset

    def __iter__(self):
        return iter(self.elements)

    def is_subgroup_of(self, other):
        return self._eset <= other._eset

    def reduce_gens(self):
        """Replace a bloated generator list by a short one (orbit algorithms
        cost |G| * len(gens), so element-built groups need this)."""
        if len(self.gens) > 30:
            self.gens = small_generating_set(self.elements)
        return self.gens

    def conj_classes(self):
        """Conjugacy classes, sorted by (size, min key); identity class first."""
        if self._classes is not None:
            return self._classes
        self.reduce_gens()
        pairs = [(h, h.inv()) for h in self.gens]
        remaining = set(self.elements)
        classes = []
        for g in self.elements:
            if g not in remaining:
                continue
            cls = orbit(g, pairs, lambda x, p: p[0] * x * p[1])
            remaining.difference_update(cls)
            classes.append(sorted(cls, key=lambda e: e.key()))
        classes.sort(key=lambda c: (c[0] != self.identity, len(c),
                                    c[0].key()))
        self._classes = classes
        return classes

    def class_index_map(self):
        m = {}
        for i, c in enumerate(self.conj_classes()):
            for g in c:
                m[g] = i
        return m

    def center(self):
        out = self.elements
        for g in self.gens:
            out = [x for x in out if x * g == g * x]
        return FiniteGroup(elements=out)

    def normalizer(self, sub):
        """Normalizer of a subgroup (FiniteGroup or element collection)."""
        sgens = sub.gens if isinstance(sub, FiniteGroup) else list(sub)
        sset = sub._eset if isinstance(sub, FiniteGroup) else set(sub)
        out = []
        for x in self.elements:
            xi = x.inv()
            if all((x * s * xi) in sset for s in sgens):
                out.append(x)
        return FiniteGroup(elements=out)

    def is_normal(self, sub):
        sset = sub._eset if isinstance(sub, FiniteGroup) else set(sub)
        for g in self.gens:
            gi = g.inv()
            for s in (sub.gens if isinstance(sub, FiniteGroup) else sub):
                if (g * s * gi) not in sset:
                    return False
        return True

    def derived_subgroup(self):
        """Commutator subgroup: the normal closure of the generator
        commutators, each new conjugate added by coset extension."""
        self.reduce_gens()
        sub = {self.identity}
        used = []
        todo = [a * b * a.inv() * b.inv() for a in self.gens for b in self.gens]
        for c in todo:
            if c not in sub:
                used.append(c)
                sub = _coset_extension(sub, used, c)
                todo.extend(g * c * g.inv() for g in self.gens)
        return FiniteGroup(gens=used, elements=sub)

    def element_order(self, g):
        n, x = 1, g
        while x != self.identity:
            x = x * g
            n += 1
        return n

    def exponent(self):
        out = 1
        for c in self.conj_classes():
            out = lcm(out, self.element_order(c[0]))
        return out


def small_generating_set(elements, seed_gens=()):
    """Greedy short generating set for a group given as a full element list.

    Each accepted generator at least doubles the generated subgroup, so at
    most log2 |G| of them are added beyond the seed.
    """
    elements = sorted(set(elements), key=lambda g: g.key())
    target = len(elements)
    gens = list(seed_gens)
    if gens:
        cur = set(closure(gens))
    else:
        ident = _find_identity(elements)
        cur = {ident}
    for g in elements:
        if len(cur) == target:
            break
        if g not in cur:
            gens.append(g)
            cur = _coset_extension(cur, gens, g)
    return gens


def _coset_extension(sub, gens, g, cap=CLOSURE_CAP):
    """The element set of <gens> from the elements sub of the subgroup that
    gens without g generate (Dimino): add right cosets sub*r, starting from
    r = g, until their union is closed under the generators.  Costs about
    |<gens>| products, against |<gens>| * len(gens) for a breadth-first
    closure."""
    base = list(sub)
    out = set(sub)
    reps = []

    def add_coset(r):
        reps.append(r)
        out.update(h * r for h in base)
        if len(out) > cap:
            raise ClosureCapExceeded(f"closure exceeded {cap}")

    add_coset(g)
    for r in reps:
        for s in gens:
            y = r * s
            if y not in out:
                add_coset(y)
    return out


def _find_identity(elements, eset=None):
    """g * g^-1 for the first element g, checked to lie in elements (eset,
    their set, if the caller has it)."""
    if elements:
        g = elements[0]
        e = g * g.inv()
        if e in (set(elements) if eset is None else eset):
            return e
    raise ValueError("no identity found; not closed under multiplication?")


class _CosetContext:
    """Shared lookup tables for cosets of a fixed normal subgroup."""

    def __init__(self, group, normal):
        self.rep_of = {}
        nset = normal._eset if isinstance(normal, FiniteGroup) else set(normal)
        for g in group.elements:
            if g in self.rep_of:
                continue
            coset = sorted((g * n for n in nset), key=lambda e: e.key())
            rep = coset[0]
            for x in coset:
                self.rep_of[x] = rep


@dataclass(frozen=True)
class Coset:
    ctx: object
    rep: object

    def __mul__(self, other):
        return Coset(self.ctx, self.ctx.rep_of[self.rep * other.rep])

    def inv(self):
        return Coset(self.ctx, self.ctx.rep_of[self.rep.inv()])

    def __eq__(self, other):
        return self.rep == other.rep

    def __hash__(self):
        return hash(("coset", self.rep))

    def key(self):
        return self.rep.key()


def quotient(group, normal):
    """G/N as a FiniteGroup of Coset elements (N must be normal)."""
    if not group.is_normal(normal):
        raise ValueError("subgroup is not normal")
    ctx = _CosetContext(group, normal)
    reps = sorted(set(ctx.rep_of.values()), key=lambda g: g.key())
    return FiniteGroup(elements=[Coset(ctx, r) for r in reps])


def product_set(a_elems, b_elems):
    """The set {a*b}; size |A||B|/|A cap B| when both are subgroups."""
    return {a * b for a in a_elems for b in b_elems}


@dataclass(frozen=True)
class Perm:
    """A permutation of range(n); (p * q)(i) = p(q(i))."""
    imgs: tuple

    def __mul__(self, other):
        return Perm(tuple(self.imgs[i] for i in other.imgs))

    def inv(self):
        out = [0] * len(self.imgs)
        for i, v in enumerate(self.imgs):
            out[v] = i
        return Perm(tuple(out))

    def key(self):
        return self.imgs


def quaternion_group():
    """The quaternion group of order 8 as right-regular permutations.

    Element order: 1, -1, i, -i, j, -j, k, -k.  Returns (group, center_gen)
    with center_gen the central involution.
    """
    def q_mul(a, b):
        sa, xa = a
        sb, xb = b
        table = {("1", "1"): (1, "1"), ("1", "i"): (1, "i"),
                 ("1", "j"): (1, "j"), ("1", "k"): (1, "k"),
                 ("i", "1"): (1, "i"), ("j", "1"): (1, "j"),
                 ("k", "1"): (1, "k"),
                 ("i", "i"): (-1, "1"), ("j", "j"): (-1, "1"),
                 ("k", "k"): (-1, "1"),
                 ("i", "j"): (1, "k"), ("j", "i"): (-1, "k"),
                 ("j", "k"): (1, "i"), ("k", "j"): (-1, "i"),
                 ("k", "i"): (1, "j"), ("i", "k"): (-1, "j")}
        s, x = table[(xa, xb)]
        return (sa * sb * s, x)

    elems = [(s, x) for x in ("1", "i", "j", "k") for s in (1, -1)]
    pos = {e: n for n, e in enumerate(elems)}
    perms = {}
    for g in elems:
        perms[g] = Perm(tuple(pos[q_mul(e, g)] for e in elems))
    grp = FiniteGroup(gens=[perms[(1, "i")], perms[(1, "j")]])
    assert grp.order == 8
    return grp, perms[(-1, "1")]
