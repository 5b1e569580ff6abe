"""Combinatorial shadows of cuspidal-datum characters and their stabilizers.

A shadow records, per orbit of a decomposition, the isomorphism class of the
attached character ("class id"), whether it is stable under the flip twist
(c_stable, with a sign eps on the stable ones), whether its extension splits,
and for weight-1 orbits the order of the character (1, 2, 4 or "other").
Globally it records whether the central involution is in the kernel, the
stabilization level, a partial involution mu_pair pairing classes with their
duality twists (a missing key means the twisted partner is absent), and a
field-twist permutation fp on classes.

Shadows are standardized: a class twisted by the flip either stays itself
(c_stable), rewrites to its duality twist (weight-1, order 4, central
involution in the kernel), or becomes a fresh formal token equal to nothing.
The stabilizer groups at the three levels are weight-preserving signed
permutation groups of the orbit set cut out by token equations; closed-form
generator descriptions are checked against the brute-force sets whenever a
group is built.  The token equations are read from config_signature, a
tuple of tokens renamed by first occurrence that holds exactly what
build_groups reads of a shadow.

The exhaustive sweep (iter_stable_cover) keeps two memos per weight tuple:
config_signature -> built groups, and a check key (stabilization level,
kernel flag, first split part, formula agreement and the element sets of
the groups) -> the records of verify_stable_cover.  Both are dropped when
the sweep moves to the next weight tuple: a signature holds the weights, so
it never recurs, and the check key leaves them out, so it holds only within
one tuple.
"""

from dataclasses import dataclass, field, replace
import json
import logging

from .signed_perm import (SignedPerm, full_group, in_d_subgroup, flip,
                          transposition, full_group_order)
from .group_engine import FiniteGroup, closure, small_generating_set

log = logging.getLogger(__name__)


VALID_LIN = (1, 2, 4, "other")
VALID_STAB = ("L", "Lhat", "Ltilde")


@dataclass(frozen=True)
class OrbitSpec:
    weight: int
    class_id: str
    c_stable: bool
    eps: int = None            # +-1 when c_stable, else None
    ext_split: bool = False
    lin_order: object = None   # 1, 2, 4 or "other" for weight-1 orbits


@dataclass(frozen=True)
class CuspidalShadow:
    orbits: tuple
    h0_in_ker: bool
    stab_level: str
    mu_pair: tuple = ()        # sorted ((class, partner), ...), involution
    fp: tuple = ()             # sorted ((class, image), ...), permutation

    @property
    def weights(self):
        return tuple(o.weight for o in self.orbits)

    @property
    def mu(self):
        return dict(self.mu_pair)

    @property
    def fp_map(self):
        return dict(self.fp)

    def classes(self):
        out = {}
        for o in self.orbits:
            out.setdefault(o.class_id, o)
        return out

    def class_counts(self):
        out = {}
        for o in self.orbits:
            out[o.class_id] = out.get(o.class_id, 0) + 1
        return out

    def to_json(self):
        return json.dumps({
            "orbits": [{"weight": o.weight, "class": o.class_id,
                        "c_stable": o.c_stable, "eps": o.eps,
                        "ext_split": o.ext_split, "lin_order": o.lin_order}
                       for o in self.orbits],
            "h0_in_ker": self.h0_in_ker,
            "stab": self.stab_level,
            "mu_pair": dict(self.mu_pair),
            "fp": dict(self.fp),
        }, sort_keys=True)


def shadow_from_json(text):
    d = json.loads(text)
    orbits = tuple(OrbitSpec(o["weight"], o["class"], o["c_stable"],
                             o.get("eps"), o.get("ext_split", False),
                             o.get("lin_order"))
                   for o in d["orbits"])
    return CuspidalShadow(orbits=orbits, h0_in_ker=d["h0_in_ker"],
                          stab_level=d["stab"],
                          mu_pair=tuple(sorted(d.get("mu_pair", {}).items())),
                          fp=tuple(sorted(d.get("fp", {}).items())))


def make_shadow(orbits, h0_in_ker, stab_level, mu_pair=None, fp=None,
                check=True):
    sh = CuspidalShadow(orbits=tuple(orbits), h0_in_ker=h0_in_ker,
                        stab_level=stab_level,
                        mu_pair=tuple(sorted((mu_pair or {}).items())),
                        fp=tuple(sorted((fp or {}).items())))
    if check:
        ok, msgs = validate(sh)
        if not ok:
            raise ValueError("invalid shadow: " + "; ".join(msgs))
    return sh


# ---------------------------------------------------------------------------
# admissibility

def _c_mu(shadow, o):
    """Does the flip twist of the class of OrbitSpec o rewrite to the
    duality twist."""
    return o.weight == 1 and shadow.h0_in_ker and o.lin_order == 4


def mu_symmetric(shadow):
    """Whether a global duality-twist coset can exist at all: each class must
    see its twisted partner with equal multiplicity, or rewrite in place."""
    counts = shadow.class_counts()
    classes = shadow.classes()
    mu = shadow.mu
    for t, n in counts.items():
        if t in mu:
            if counts.get(mu[t], 0) != n:
                return False
        elif not _c_mu(shadow, classes[t]):
            return False
    return True


def validate(shadow):
    """Structural constraints plus the admissibility axioms A1..A6."""
    msgs = []
    orbs = shadow.orbits
    if not orbs:
        msgs.append("no orbits")
        return False, msgs
    if sum(1 for o in orbs if o.weight == -1) > 1:
        msgs.append("at most one distinguished orbit")
    by_class = {}
    for o in orbs:
        if o.weight != -1 and o.weight < 1:
            msgs.append(f"bad weight {o.weight}")
        prev = by_class.setdefault(o.class_id, o)
        if prev != o:
            msgs.append(f"class {o.class_id} has inconsistent data")
        if o.c_stable != (o.eps in (1, -1)):
            msgs.append(f"class {o.class_id}: eps present iff c_stable")
        if o.weight == 1:
            if o.lin_order not in VALID_LIN:
                msgs.append(f"class {o.class_id}: bad lin_order")
            if o.c_stable != (o.lin_order in (1, 2)):
                msgs.append(f"class {o.class_id}: c_stable iff order divides 2")
            if o.lin_order == 1 and o.eps != 1:
                msgs.append(f"class {o.class_id}: the trivial class has sign +1")
            if o.lin_order == 2 and o.eps != -1:
                msgs.append(f"class {o.class_id}: an order-2 class has sign -1")
        elif o.lin_order is not None:
            msgs.append(f"class {o.class_id}: lin_order only on weight 1")
    for od in (1, 2):
        if sum(1 for o in by_class.values() if o.lin_order == od) > 1:
            msgs.append(f"an order-{od} character gives a single class")
    order4 = [t for t, o in by_class.items() if o.lin_order == 4]
    if shadow.h0_in_ker and len(order4) > 1:
        msgs.append("order-4 classes merge under the in-kernel rewrite")
    if shadow.stab_level not in VALID_STAB:
        msgs.append("bad stabilization level")
    if shadow.stab_level == "Lhat":
        dist = [o for o in orbs if o.weight == -1]
        if not dist:
            msgs.append("the middle stabilizer level forces a "
                        "distinguished orbit")
        elif any(o.class_id in shadow.mu for o in dist):
            msgs.append("the distinguished class is never twist-fixed at "
                        "the middle stabilizer level")

    mu = shadow.mu
    classes = shadow.classes()
    for t, s in mu.items():
        if mu.get(s) != t:
            msgs.append("mu_pair is not an involution")
        if t not in classes or s not in classes:
            msgs.append("mu_pair names an unknown class")
            continue
        a, b = classes[t], classes[s]
        if a.weight != b.weight:
            msgs.append(f"mu pair {t},{s}: weights differ")
        if a.weight == 1:
            pair = {a.lin_order, b.lin_order}
            if not (pair == {1, 2} or pair == {4} or pair == {"other"}):
                msgs.append(f"mu pair {t},{s}: incompatible orders")
            if t == s:
                msgs.append(f"class {t}: weight-1 classes never self-pair")
        else:
            if (a.c_stable, a.eps) != (b.c_stable, b.eps):
                msgs.append(f"mu pair {t},{s}: flip data differs")
    for t, o in classes.items():
        if _c_mu(shadow, o) and t in mu:
            msgs.append(f"class {t}: order-4 rewrite class must have an "
                        "absent duality partner in standardized form")
    u1 = next((t for t, o in classes.items() if o.lin_order == 1), None)
    u2 = next((t for t, o in classes.items() if o.lin_order == 2), None)
    if u1 is not None and u2 is not None:
        if mu.get(u1) != u2:
            msgs.append("present order-1 and order-2 classes must be "
                        "twist partners")
    elif u1 is not None and u1 in mu:
        msgs.append("order-1 class paired while its twist partner is absent")
    elif u2 is not None and u2 in mu:
        msgs.append("order-2 class paired while its twist partner is absent")
    if len(order4) > 2:
        msgs.append("at most two order-4 classes")
    if len(order4) == 2 and mu.get(order4[0]) != order4[1]:
        msgs.append("two order-4 classes must be twist partners")
    fpm = shadow.fp_map
    for t, s in fpm.items():
        if t not in classes or s not in classes:
            msgs.append("fp names an unknown class")
        elif (classes[t].weight, classes[t].c_stable, classes[t].eps,
              classes[t].lin_order) != (classes[s].weight, classes[s].c_stable,
                                        classes[s].eps, classes[s].lin_order):
            msgs.append(f"fp must preserve class data ({t} -> {s})")
    if fpm and sorted(fpm.values()) != sorted(fpm):
        msgs.append("fp is not a permutation")

    # axioms
    for o in orbs:
        if o.c_stable and o.weight not in (1, -1) and o.weight % 2 != 0:
            msgs.append(f"A1: flip-stable class {o.class_id} has odd weight >1")
    if not shadow.h0_in_ker:
        neg = [o for o in orbs if o.eps == -1]
        if any(o.weight != 2 for o in neg):
            msgs.append("A2: eps=-1 outside weight 2 with h0 not in kernel")
        if len({o.class_id for o in neg}) > 1:
            msgs.append("A2: several eps=-1 classes with h0 not in kernel")
        for o in orbs:
            if o.weight == -1 and o.c_stable:
                msgs.append("A4: distinguished orbit flip-stable needs h0 in kernel")
            if o.weight == 1 and o.lin_order in (1, 2):
                msgs.append("A5: order dividing 2 forces h0 in the kernel")
    else:
        for o in orbs:
            if o.eps == -1 and not (o.weight == -1 or
                                    (o.weight == 1 and o.lin_order in (1, 2))):
                msgs.append("A3: eps=-1 only on the distinguished orbit or "
                            "weight-1 orbits of order dividing 2")
    if mu_symmetric(shadow):
        q1 = q1_positions(shadow)
        for d in {o.weight for o in orbs if o.weight >= 3 and o.weight % 2}:
            cnt = sum(1 for i, o in enumerate(orbs)
                      if o.weight == d and i not in q1)
            if cnt % 2:
                msgs.append(f"A6: odd count of weight-{d} orbits outside the "
                            "first split part with a twist coset present")
    return not msgs, msgs


# ---------------------------------------------------------------------------
# token algebra and stabilizer sets

def _resolve(shadow, classes, mu, t, c_bit, mu_bit):
    """Canonical token (base, mu, c) after the standardized rewrites; classes
    and mu are the shadow's classes() and mu, computed once by the caller."""
    cls = classes[t]
    if c_bit:
        if cls.c_stable:
            c_bit = 0
        elif _c_mu(shadow, cls):
            c_bit = 0
            mu_bit ^= 1
    if mu_bit and t in mu:
        t = mu[t]
        mu_bit = 0
    return (t, mu_bit, c_bit)


def fp_order(shadow):
    fpm = shadow.fp_map
    if not fpm:
        return 1
    n = 1
    cur = dict(fpm)
    while any(cur.get(t, t) != t for t in fpm):
        cur = {t: fpm.get(s, s) for t, s in cur.items()}
        n += 1
    return n


def config_signature(shadow):
    """The token pattern: exactly what build_groups reads of a shadow.

    A tuple (weights, fp_order, own, twisted, flags): own[i] holds the
    resolved tokens of orbit i's class unflipped and flipped; twisted[a*K + k]
    holds, per orbit j, the resolved token of fp^k(class_j) under the a-th
    duality twist (K = fp_order); flags[i] is orbit i's (c_stable, eps).
    Tokens are renamed 0, 1, ... by first occurrence, so class names do not
    matter and equal signatures give equal stabilizer groups.
    """
    orbs = shadow.orbits
    classes = shadow.classes()
    mu = shadow.mu
    fpm = shadow.fp_map
    korder = fp_order(shadow)
    names = {}

    def tok(t, c_bit, mu_bit):
        return names.setdefault(_resolve(shadow, classes, mu, t, c_bit, mu_bit),
                                len(names))

    own = tuple((tok(o.class_id, 0, 0), tok(o.class_id, 1, 0)) for o in orbs)
    twisted = []
    for a in (0, 1):
        cur = [o.class_id for o in orbs]
        for _ in range(korder):
            twisted.append(tuple(tok(t, 0, a) for t in cur))
            cur = [fpm.get(t, t) for t in cur]
    flags = tuple((o.c_stable, o.eps) for o in orbs)
    return (shadow.weights, korder, own, tuple(twisted), flags)


def _stab_strata(pattern, amb):
    """The elements of the ambient group that fix the decorated structure up
    to the a-th duality twist and k-th field twist, as {(a, k): elements} for
    the nonempty strata; (0, 0) holds the identity.

    p is in stratum (a, k) when, for every orbit i with p(i) = +-j, the token
    of class_i (flipped when the sign is negative) equals the token of
    fp^k(class_j) under the a-th duality twist.
    """
    weights, korder, own, twisted, _ = pattern
    points = range(1, len(weights) + 1)
    out = {}
    for a in (0, 1):
        for kk in range(korder):
            rhs = twisted[a * korder + kk]
            # the signed images each orbit may take
            allowed = [frozenset([j for j in points if rhs[j - 1] == u]
                                 + [-j for j in points if rhs[j - 1] == f])
                       for u, f in own]
            s = [p for p in amb
                 if all(v in ok for v, ok in zip(p.imgs, allowed))]
            if s:
                out[(a, kk)] = s
    return out


def _tilde_ok(pattern, p):
    """Membership at the finest level: class-preserving, flips only on
    flip-stable orbits, evenly many on the eps=-1 ones."""
    _, _, own, _, flags = pattern
    neg_flips = 0
    for i, img in enumerate(p.imgs):
        # the unflipped tokens of two orbits agree iff their classes do
        if own[i][0] != own[abs(img) - 1][0]:
            return False
        if img < 0:
            c_stable, eps = flags[i]
            if not c_stable:
                return False
            if eps == -1:
                neg_flips += 1
    return neg_flips % 2 == 0


@dataclass
class ShadowGroups:
    """All stabilizer groups of a shadow, with formula/oracle agreement."""
    shadow: object
    ambient: tuple
    w_bar_hat: object
    w_hat: object
    w_bar_tilde: object
    w_tilde: object
    w_bar: object
    w: object
    k: object
    x: object                  # canonical duality-coset witness or None
    formula_match: dict = field(default_factory=dict)


def _hat_gens(shadow):
    orbs = shadow.orbits
    n = len(orbs)
    gens = [SignedPerm.identity(n)]
    groups = {}
    for i, o in enumerate(orbs, start=1):
        groups.setdefault((o.weight, o.class_id), []).append(i)
        if o.c_stable:
            gens.append(flip(n, i))
    for pos in groups.values():
        for a, b in zip(pos, pos[1:]):
            gens.append(transposition(n, a, b))
    return gens


def _tilde_gens(shadow):
    orbs = shadow.orbits
    n = len(orbs)
    gens = [SignedPerm.identity(n)]
    groups = {}
    neg = []
    for i, o in enumerate(orbs, start=1):
        groups.setdefault((o.weight, o.class_id), []).append(i)
        if o.c_stable and o.eps == 1:
            gens.append(flip(n, i))
        elif o.c_stable and o.eps == -1:
            neg.append(i)
    for a, b in zip(neg, neg[1:]):
        gens.append(flip(n, a) * flip(n, b))
    for pos in groups.values():
        for a, b in zip(pos, pos[1:]):
            gens.append(transposition(n, a, b))
    return gens


def build_groups(shadow):
    """Enumerate all stabilizer groups and check the closed forms.

    The brute-force sets (token equations over the full weight-preserving
    ambient group, read from config_signature) are authoritative; the
    generator descriptions for the hat and tilde levels, read from the
    shadow itself, must close onto exactly the same sets.
    """
    pattern = config_signature(shadow)
    weights = shadow.weights
    amb = full_group(weights)
    strata = _stab_strata(pattern, amb)
    hat_set = strata[(0, 0)]
    til_set = [p for p in hat_set if _tilde_ok(pattern, p)]
    hat_gens = _hat_gens(shadow)
    til_gens = _tilde_gens(shadow)
    match = {
        "hat": set(closure(hat_gens)) == set(hat_set),
        "tilde": set(closure(til_gens)) == set(til_set),
    }
    bar_set = hat_set + strata.get((1, 0), [])
    k_set = sorted({p for s in strata.values() for p in s},
                   key=lambda p: p.key())

    x = None
    mu_coset = strata.get((1, 0), [])
    if mu_coset:
        x = min(mu_coset, key=lambda p: p.key())
        match["mu_coset"] = set(mu_coset) == {x * u for u in hat_set}

    def dgrp(elems, seeds):
        sub = [p for p in elems if in_d_subgroup(p, weights)]
        seeds = [g for g in seeds if in_d_subgroup(g, weights)]
        gens = small_generating_set(sub, seed_gens=seeds)
        return FiniteGroup(gens=gens, elements=sub)

    w_bar_hat = FiniteGroup(gens=hat_gens, elements=hat_set)
    w_bar_tilde = FiniteGroup(gens=til_gens, elements=til_set)
    w_hat = dgrp(hat_set, hat_gens)
    w_tilde = dgrp(til_set, til_gens)
    bar_gens = hat_gens + ([x] if x else [])
    bar_sorted = sorted(set(bar_set), key=lambda p: p.key())
    bgens = small_generating_set(bar_sorted, seed_gens=bar_gens)
    w_bar = FiniteGroup(gens=bgens, elements=bar_sorted)
    w = dgrp(bar_set, bar_gens)
    kgens = small_generating_set(k_set, seed_gens=hat_gens)
    k = FiniteGroup(gens=kgens, elements=k_set)
    match["bar_closed"] = set(closure(bgens)) == set(bar_sorted)
    match["k_closed"] = set(closure(kgens)) == set(k_set)

    match["nesting"] = (w_tilde.is_subgroup_of(w_hat)
                        and w_hat.is_subgroup_of(w)
                        and w.order in (w_hat.order, 2 * w_hat.order)
                        and set(w.elements) <= set(k.elements))
    return ShadowGroups(shadow=shadow, ambient=tuple(amb),
                        w_bar_hat=w_bar_hat, w_hat=w_hat,
                        w_bar_tilde=w_bar_tilde, w_tilde=w_tilde,
                        w_bar=w_bar, w=w, k=k, x=x, formula_match=match)


# ---------------------------------------------------------------------------
# the two-part split

def q1_positions(shadow):
    """0-based positions of the first split part."""
    out = set()
    for i, o in enumerate(shadow.orbits):
        if o.weight == -1 and (shadow.h0_in_ker or shadow.stab_level == "Lhat"):
            out.add(i)
        elif o.weight == 1:
            if shadow.stab_level == "Lhat":
                if o.lin_order in (1, 2, 4):
                    out.add(i)
            elif shadow.h0_in_ker:
                if o.lin_order in (1, 2):
                    out.add(i)
        if not shadow.h0_in_ker and o.c_stable and o.eps == -1:
            out.add(i)
    return out


def _support(p):
    return {i for i in range(p.n) if p.imgs[i] != i + 1}


def _restrict(p, positions):
    """Restriction of a signed permutation to a sorted position subset."""
    order = sorted(positions)
    index = {pos: t + 1 for t, pos in enumerate(order)}
    imgs = []
    for pos in order:
        v = p.imgs[pos]
        tgt = index[abs(v) - 1]
        imgs.append(tgt if v > 0 else -tgt)
    return SignedPerm(tuple(imgs))


def q_split(shadow, groups=None):
    """Split the finest-level group across the two parts and attach the
    normalizer bound of each factor inside its own ambient group.

    Returns a dict with the position sets, the factor groups, the internal
    direct-product check, and the two normalizers K1, K2.
    """
    if groups is None:
        groups = build_groups(shadow)
    n = len(shadow.orbits)
    q1 = q1_positions(shadow)
    q2 = set(range(n)) - q1
    parts = {}
    for name, pos in (("1", q1), ("2", q2)):
        sub = [p for p in groups.w_tilde if _support(p) <= pos]
        parts[name] = sub
    prod_ok = (len(parts["1"]) * len(parts["2"]) == groups.w_tilde.order
               and all(a * b == b * a for a in small_generating_set(parts["1"])
                       for b in small_generating_set(parts["2"])))
    out = {"q1": q1, "q2": q2, "direct_product": prod_ok}
    for name, pos in (("1", q1), ("2", q2)):
        if not pos:
            out[f"w{name}"] = None
            out[f"k{name}"] = None
            continue
        wr = [_restrict(p, pos) for p in parts[name]]
        wgrp = FiniteGroup(gens=small_generating_set(wr), elements=wr)
        sub_weights = tuple(shadow.weights[i] for i in sorted(pos))
        amb = FiniteGroup(elements=full_group(sub_weights))
        kgrp = amb.normalizer(wgrp)
        kgrp.reduce_gens()
        out[f"w{name}"] = wgrp
        out[f"k{name}"] = kgrp
    return out


# ---------------------------------------------------------------------------
# named example families

def _factorial(m):
    out = 1
    for i in range(2, m + 1):
        out *= i
    return out


def _wd_order(m):
    return 2 ** (m - 1) * _factorial(m) if m >= 1 else 1


def _wb_order(m):
    return 2 ** m * _factorial(m)


def split_case_table(l1, l2, row):
    """The three-row family: l1 singleton orbits carrying the trivial class,
    l2 carrying the order-2 class, and one distinguished orbit whose flip
    behaviour selects the row (1: unstable, 2: eps=+1, 3: eps=-1).

    Returns the computed first-part group and normalizer together with the
    closed-form expected orders.
    """
    j = {1: OrbitSpec(-1, "j", False),
         2: OrbitSpec(-1, "j", True, eps=1),
         3: OrbitSpec(-1, "j", True, eps=-1)}[row]
    orbs = [j] + [OrbitSpec(1, "a", True, eps=1, lin_order=1)] * l1 \
               + [OrbitSpec(1, "b", True, eps=-1, lin_order=2)] * l2
    sh = make_shadow(orbs, True, "Ltilde", mu_pair={"a": "b", "b": "a"})
    g = build_groups(sh)
    sp = q_split(sh, g)
    if row == 1:
        w_exp = _wd_order(l1) * _wd_order(l2)
        k_exp = 2 * _wb_order(l1) * _wb_order(l2) * (2 if l1 == l2 else 1)
    elif row == 2:
        w_exp = _wb_order(l1) * _wd_order(l2)
        k_exp = 2 * _wb_order(l1) * _wb_order(l2)
    else:
        w_exp = _wd_order(l1) * _wb_order(l2)
        k_exp = 2 * _wb_order(l1) * _wb_order(l2)
    return {
        "shadow": sh,
        "groups": g,
        "split": sp,
        "w1_order": sp["w1"].order,
        "k1_order": sp["k1"].order,
        "w1_expected": w_exp,
        "k1_expected": k_exp,
        "second_part_empty": not sp["q2"],
        "ok": (sp["w1"].order == w_exp and sp["k1"].order == k_exp
               and not sp["q2"] and sp["direct_product"]
               and all(g.formula_match.values())),
    }


table1_case = split_case_table


def obstructed_pair_example():
    """Two weight-2 orbits whose classes are swapped by the duality twist,
    both flip-stable of sign -1, with the central involution acting
    nontrivially.  The finest-level group is cyclic of order 2 inside a
    Klein four-group inside the full signed group of rank 2; the nontrivial
    character of the small group is stable all the way up but does not
    extend, sitting with multiplicity two inside the 2-dimensional
    irreducible.

    This configuration deliberately violates the single-class clause of
    axiom A2, so it is built without validation.
    """
    from .char_engine import common_tables
    orbs = (OrbitSpec(2, "t1", True, eps=-1), OrbitSpec(2, "t2", True, eps=-1))
    sh = CuspidalShadow(orbits=orbs, h0_in_ker=False, stab_level="Ltilde",
                        mu_pair=(("t1", "t2"), ("t2", "t1")), fp=())
    g = build_groups(sh)
    out = {"shadow": sh, "groups": g,
           "w_tilde_order": g.w_tilde.order,
           "w_hat_order": g.w_hat.order,
           "w_order": g.w.order,
           "ambient_order": full_group_order(sh.weights)}
    tw, tt = common_tables(g.w, g.w_tilde)
    eta0 = next(row for row in tt.irreducibles
                if row != tuple([1 % tt.p] * tt.r))
    out["eta0_values"] = eta0
    out["eta0_stable"] = all(tt.conj_char(eta0, k) == eta0 for k in g.k.gens)
    over = []
    for chi in tw.irreducibles:
        m = tt.inner(tt.restrict_from(tw, chi), eta0)
        if m:
            over.append((tw.degree_of(chi), m))
    out["constituents_over_eta0"] = over
    out["extends"] = any(d == 1 for d, _ in over)
    out["multiplicity_two"] = over == [(2, 2)]
    return out


# ---------------------------------------------------------------------------
# stable-cover verification

_TABLE_CACHE = {}
_COVER_CACHE = {}


def _cached_table(group, p=None):
    from .char_engine import CharTable
    key = (frozenset(g.key() for g in group.elements), p)
    if key not in _TABLE_CACHE:
        _TABLE_CACHE[key] = CharTable(group, p=p)
    return _TABLE_CACHE[key]


def _table_pair(big, sub):
    from .char_engine import _next_prime_1mod
    from math import lcm
    e = lcm(big.exponent(), sub.exponent())
    p = _next_prime_1mod(e, 2 * big.order)
    return _cached_table(big, p=p), _cached_table(sub, p=p)


def _stable_chi_exists(tw, tt, eta0, stab_gens):
    """Constituents over eta0 and their stability under the given elements."""
    found_stable = False
    all_stable = True
    any_over = False
    for chi in tw.irreducibles:
        if not tt.inner(tt.restrict_from(tw, chi), eta0):
            continue
        any_over = True
        stable = all(tw.conj_char(chi, g) == chi for g in stab_gens)
        found_stable = found_stable or stable
        all_stable = all_stable and stable
    if not any_over:
        return False, False
    return found_stable, all_stable


def verify_stable_cover(shadow, groups=None, size_cap=2000):
    """Check the covering property demanded by the stabilization level.

    At the finest level every character of the small group must lie under
    some constituent of the full group stable under its outer stabilizer,
    and the two split parts must have maximally extendible factors.  At the
    middle level every constituent must be stable.  At the coarse level
    there is nothing to check.  Records are (name, ok, detail) triples.
    """
    records = []

    def rec(name, ok, detail=""):
        records.append((name, bool(ok), detail))

    if groups is None:
        groups = build_groups(shadow)
    rec("formula_match", all(groups.formula_match.values()),
        str(groups.formula_match))
    if shadow.stab_level == "L":
        rec("coarse_level_trivial", True)
        return records

    small = groups.w_tilde if shadow.stab_level == "Ltilde" else groups.w_hat
    norm = groups.k.normalizer(small)
    norm_w = norm.normalizer(groups.w)
    tw, tt = _table_pair(groups.w, small)
    per = []
    for eta0, stab in tt.stabilizers(norm.elements):
        stab_gens = small_generating_set(stab) if len(stab) > 6 else stab
        stab_gens = [x for x in stab_gens if x in norm_w]
        exists, every = _stable_chi_exists(tw, tt, eta0, stab_gens)
        per.append(every if shadow.stab_level == "Lhat" else exists)
    rec("stable_constituent_cover", all(per),
        f"{sum(per)}/{len(per)} characters covered")

    sp = q_split(shadow, groups)
    rec("split_direct_product", sp["direct_product"])
    if shadow.stab_level == "Ltilde":
        for name in ("1", "2"):
            wgrp, kgrp = sp[f"w{name}"], sp[f"k{name}"]
            if wgrp is None:
                rec(f"part{name}_max_ext", True, "empty part")
                continue
            if kgrp.order > size_cap:
                rec(f"part{name}_max_ext", True,
                    f"skipped, normalizer order {kgrp.order} over cap")
                continue
            ok, _ = _max_ext_cached(kgrp, wgrp)
            rec(f"part{name}_max_ext", ok)
    if not shadow.h0_in_ker and groups.w.order != groups.w_hat.order:
        big = groups.k.normalizer(groups.w_hat)
        rec("outer_normalizes_middle", big.order == groups.k.order)
        if groups.k.order > size_cap:
            rec("middle_max_ext", True,
                f"skipped, outer order {groups.k.order} over cap")
        else:
            big.reduce_gens()
            ok, _ = _max_ext_cached(big, groups.w_hat)
            rec("middle_max_ext", ok)
    return records


def _max_ext_cached(big, normal):
    from .char_engine import maximal_extendibility
    key = (frozenset(g.key() for g in big.elements),
           frozenset(g.key() for g in normal.elements))
    if key not in _COVER_CACHE:
        tb, tn = _table_pair(big, normal)
        _COVER_CACHE[key] = maximal_extendibility(big, normal,
                                                  tables=(tb, tn))
    return _COVER_CACHE[key]


# ---------------------------------------------------------------------------
# enumeration and sweeps

def _combo_list(weight):
    """Allowed (lin_order, c_stable, eps) flag combinations for one weight."""
    if weight == 1:
        return [(1, True, 1), (2, True, -1),
                (4, False, None), ("other", False, None)]
    if weight == -1 or weight % 2 == 0:
        return [(None, True, 1), (None, True, -1), (None, False, None)]
    return [(None, False, None)]


def _tagged_partitions(n, combos):
    """Multisets of (combo, block_size) covering n orbits of one weight."""
    pairs = [(c, s) for c in combos for s in range(1, n + 1)]

    def rec(start, left):
        if left == 0:
            yield []
            return
        for idx in range(start, len(pairs)):
            c, s = pairs[idx]
            if s <= left:
                for rest in rec(idx, left - s):
                    yield [(c, s)] + rest

    yield from rec(0, n)


def _partial_involutions(items):
    """All partial involutions on a list: each item absent, self-paired, or
    paired with a later item."""
    if not items:
        yield {}
        return
    x, rest = items[0], items[1:]
    for sub in _partial_involutions(rest):
        yield sub                                   # x unmatched
        yield {**sub, x: x}                         # x self-paired
    for i, y in enumerate(rest):
        for sub in _partial_involutions(rest[:i] + rest[i + 1:]):
            yield {**sub, x: y, y: x}


def enumerate_shadows(weights, stab_levels=VALID_STAB,
                      h0_options=(True, False), with_mu=True):
    """All admissible shadows on a given weight tuple, up to renaming classes.

    Extension-splitting flags are held at False throughout: no stabilizer or
    covering computation here depends on them, so sweeping both values would
    only duplicate every configuration.  The field twist is the identity.
    """
    weights = tuple(weights)
    groups = {}
    for w in weights:
        groups[w] = groups.get(w, 0) + 1
    per_weight = []
    for w in sorted(groups, key=lambda v: (v != -1, v)):
        per_weight.append((w, list(_tagged_partitions(groups[w],
                                                      _combo_list(w)))))

    def assemble(idx, acc):
        if idx == len(per_weight):
            yield list(acc)
            return
        w, parts = per_weight[idx]
        for part in parts:
            yield from assemble(idx + 1, acc + [(w, part)])

    for chosen in assemble(0, []):
        orbs = []
        nclass = 0
        for w, part in chosen:
            for (lin, cst, eps), size in part:
                cid = f"t{nclass}"
                nclass += 1
                orbs.extend([OrbitSpec(w, cid, cst, eps=eps,
                                       lin_order=lin)] * size)
        class_ids = sorted({o.class_id for o in orbs})
        mu_opts = _partial_involutions(class_ids) if with_mu else [{}]
        for mu in mu_opts:
            for h0 in h0_options:
                for lvl in stab_levels:
                    sh = CuspidalShadow(
                        orbits=tuple(orbs), h0_in_ker=h0, stab_level=lvl,
                        mu_pair=tuple(sorted(mu.items())), fp=())
                    ok, _ = validate(sh)
                    if ok:
                        yield sh


def _weight_multisets(max_orbits, domain=(1, 2, 3, 4)):
    """All weight tuples with up to max_orbits entries, at most one of them
    the distinguished weight -1."""
    from itertools import combinations_with_replacement
    out = []
    for n in range(1, max_orbits + 1):
        for base in combinations_with_replacement(domain, n):
            out.append(tuple(base))
        for base in combinations_with_replacement(domain, n - 1):
            out.append((-1,) + tuple(base))
    return out


def _check_key(shadow, groups):
    """Everything verify_stable_cover reads of a shadow and its groups, once
    the weight tuple is fixed (the normalizers in q_split live in ambient
    groups of sub-tuples of the weights)."""
    return (shadow.stab_level, shadow.h0_in_ker,
            tuple(sorted(q1_positions(shadow))),
            tuple(groups.formula_match.items()),
            *(frozenset(grp.elements) for grp in
              (groups.w, groups.k, groups.w_hat, groups.w_tilde)))


def iter_stable_cover(max_orbits=4, domain=(1, 2, 3, 4), size_cap=2000):
    """Yield (shadow, records, fresh) for every admissible shadow with at most
    max_orbits orbits, where records are what verify_stable_cover(shadow)
    returns and fresh says whether this shadow's check ran or came from the
    memo.

    Two memos, both dropped after each weight tuple: config_signature -> the
    built groups, which another shadow with that signature reuses with
    itself as their shadow (a signature holds the weights, so it never
    recurs across tuples); and _check_key -> the records (the key leaves the
    weights out, so it holds only within one tuple).
    """
    for weights in _weight_multisets(max_orbits, domain):
        built = {}
        checked = {}
        for sh in enumerate_shadows(weights):
            sig = config_signature(sh)
            g = built.get(sig)
            if g is None:
                g = built[sig] = build_groups(sh)
            else:
                g = replace(g, shadow=sh)
            key = _check_key(sh, g)
            recs = checked.get(key)
            fresh = recs is None
            if fresh:
                # a module-level lookup at call time, so that a wrapper put
                # on shadow.verify_stable_cover sees every check
                recs = checked[key] = verify_stable_cover(
                    sh, groups=g, size_cap=size_cap)
            yield sh, recs, fresh


def sweep_stable_cover(max_orbits=4, domain=(1, 2, 3, 4), size_cap=2000,
                       progress=None):
    """Run the covering check over every admissible shadow with at most the
    given number of orbits, weight values drawn from the domain plus the
    distinguished weight.

    The checks come from iter_stable_cover, which builds the groups once per
    config_signature and verifies once per _check_key within each weight
    tuple; "distinct" counts the verify_stable_cover calls.  With progress=N
    every N-th call is logged at INFO level."""
    failures = []
    total = verified = 0
    for sh, recs, fresh in iter_stable_cover(max_orbits, domain, size_cap):
        total += 1
        if fresh:
            verified += 1
            if progress and verified % progress == 0:
                log.info("%d verifications, %d shadows", verified, total)
        if not all(r[1] for r in recs):
            failures.append((sh.to_json(), recs))
    return {"shadows": total, "distinct": verified,
            "failures": failures, "ok": not failures}


def random_shadow(rng, max_orbits=5, domain=(1, 2, 3, 4), tries=200):
    """A uniform-ish random admissible shadow, by rejection."""
    for _ in range(tries):
        n = rng.randint(1, max_orbits)
        weights = [rng.choice(domain) for _ in range(n)]
        if rng.random() < 0.4:
            weights[0] = -1
        orbs = []
        nclass = 0
        i = 0
        weights.sort()
        while i < len(weights):
            w = weights[i]
            run = rng.randint(1, weights.count(w) - sum(
                1 for o in orbs if o.weight == w))
            lin, cst, eps = rng.choice(_combo_list(w))
            cid = f"t{nclass}"
            nclass += 1
            orbs.extend([OrbitSpec(w, cid, cst, eps=eps, lin_order=lin)] * run)
            i += run
        class_ids = sorted({o.class_id for o in orbs})
        mu = {}
        pool = list(class_ids)
        rng.shuffle(pool)
        while pool:
            t = pool.pop()
            r = rng.random()
            if r < 0.4:
                continue
            if r < 0.6:
                mu[t] = t
            elif pool:
                s = pool.pop()
                mu[t] = s
                mu[s] = t
        sh = CuspidalShadow(
            orbits=tuple(sorted(orbs, key=lambda o: (o.weight, o.class_id))),
            h0_in_ker=rng.random() < 0.5,
            stab_level=rng.choice(VALID_STAB),
            mu_pair=tuple(sorted(mu.items())), fp=())
        ok, _ = validate(sh)
        if ok:
            return sh
    raise RuntimeError("rejection sampling failed")


def verify_random_shadows(count=500, seed=0, max_orbits=5):
    """Formula-versus-enumeration agreement on random admissible shadows."""
    import random
    rng = random.Random(seed)
    bad = []
    for i in range(count):
        sh = random_shadow(rng, max_orbits=max_orbits)
        g = build_groups(sh)
        probs = [k for k, v in g.formula_match.items() if not v]
        if g.x is not None and not mu_symmetric(sh):
            probs.append("coset_without_symmetry")
        dp = q_split(sh, g)
        if not dp["direct_product"]:
            probs.append("split_not_direct")
        if probs:
            bad.append((sh.to_json(), probs))
    return {"count": count, "failures": bad, "ok": not bad}
