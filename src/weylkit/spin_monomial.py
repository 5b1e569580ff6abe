"""Monomial action of torus-normalizer generators on the 2^l spin weights.

Everything is exact: matrix entries live in Z[zeta_M] for M = 2^K, stored as
sparse dicts {exponent: integer coefficient} with zeta^(M/2) = -1 folded in.
Weight vectors mu in {+-1}^l are indexed by bitmasks (bit i set means
coordinate i+1 is occupied, i.e. mu_{i+1} = -1).

Ladder operators with Jordan-Wigner signs give root vectors E_alpha; the
elements n_alpha(t) = x_alpha(t) x_{-alpha}(-1/t) x_alpha(t) come out monomial
(one nonzero entry per column, a root of unity), and are stored as a
permutation of the weight indices plus a phase-exponent vector.

A SpinCtx memoizes its monomials: n_alpha(t) per (alpha, t), and the lifts
of a decomposition's extension maps, with their inverses, per (dec, d), so
that every kappa call after the first reuses them.  The memo lives as long
as the context; verify_relations takes one from its caller, so that a run
over every Levi subset of a rank builds the root vectors and fills the memo
once, and builds a fresh one only when none is given.
"""

from dataclasses import dataclass
import json

from . import torus_model as tm
from .signed_perm import SignedPerm
from .root_levi import b_roots, basis_vector


# ---------------------------------------------------------------------------
# scalars in Z[zeta_M], zeta^(M/2) = -1

def _cyc_norm(d, M):
    half = M // 2
    out = {}
    for e, c in d.items():
        e %= M
        if e >= half:
            e -= half
            c = -c
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c != 0}

def cyc_unit(c, M):
    """The scalar zeta^c."""
    return _cyc_norm({c: 1}, M)

def cyc_mul(x, y, M):
    out = {}
    for e1, c1 in x.items():
        for e2, c2 in y.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return _cyc_norm(out, M)

def cyc_add(x, y, M):
    out = dict(x)
    for e, c in y.items():
        out[e] = out.get(e, 0) + c
    return _cyc_norm(out, M)

def cyc_as_unit(x, M):
    """Exponent e with x = zeta^e, or None if x is not a single root of unity."""
    if len(x) != 1:
        return None
    (e, c), = x.items()
    if c == 1:
        return e % M
    if c == -1:
        return (e + M // 2) % M
    return None


# ---------------------------------------------------------------------------
# sparse operators on the 2^l weight space: {col: {row: scalar}}

def op_compose(A, B, M):
    out = {}
    for col, bcol in B.items():
        acc = {}
        for mid, s1 in bcol.items():
            for row, s2 in A.get(mid, {}).items():
                v = cyc_mul(s2, s1, M)
                if row in acc:
                    acc[row] = cyc_add(acc[row], v, M)
                    if not acc[row]:
                        del acc[row]
                elif v:
                    acc[row] = v
        if acc:
            out[col] = acc
    return out

def op_add(A, B, M):
    out = {c: dict(r) for c, r in A.items()}
    for col, bcol in B.items():
        acc = out.setdefault(col, {})
        for row, s in bcol.items():
            if row in acc:
                acc[row] = cyc_add(acc[row], s, M)
                if not acc[row]:
                    del acc[row]
            else:
                acc[row] = s
        if not acc:
            del out[col]
    return out

def op_scale(A, c, M):
    u = cyc_unit(c, M)
    return {col: {row: cyc_mul(s, u, M) for row, s in rows.items()}
            for col, rows in A.items()}

def op_identity(dim):
    return {i: {i: {0: 1}} for i in range(dim)}

def op_is_zero(A):
    return not A


# ---------------------------------------------------------------------------
# ladder operators

def a_dag(l, i, M):
    """Creation at coordinate i (1-based) with the Jordan-Wigner sign."""
    bit = 1 << (i - 1)
    out = {}
    for idx in range(1 << l):
        if idx & bit:
            continue
        sign = (idx & (bit - 1)).bit_count() % 2
        out[idx] = {idx | bit: cyc_unit(sign * (M // 2), M)}
    return out

def a_ann(l, i, M):
    """Annihilation at coordinate i with the Jordan-Wigner sign."""
    bit = 1 << (i - 1)
    out = {}
    for idx in range(1 << l):
        if not idx & bit:
            continue
        sign = (idx & (bit - 1)).bit_count() % 2
        out[idx] = {idx & ~bit: cyc_unit(sign * (M // 2), M)}
    return out

def parity_op(l, M):
    """The Klein factor: (-1)^(number of occupied coordinates)."""
    return {idx: {idx: cyc_unit((idx.bit_count() % 2) * (M // 2), M)}
            for idx in range(1 << l)}


def weight_of_index(idx, l):
    return tuple(-1 if idx >> i & 1 else 1 for i in range(l))

def index_of_weight(mu):
    idx = 0
    for i, m in enumerate(mu):
        if m == -1:
            idx |= 1 << i
    return idx


def coroot_pairing(mu, alpha):
    """<mu/2, alpha^vee> for a type-B root and a +-1 weight vector."""
    dot = sum(m * a for m, a in zip(mu, alpha))
    nz = sum(1 for a in alpha if a != 0)
    if nz == 1:      # short root, coroot is 2*alpha
        return dot
    return dot // 2  # long root


# ---------------------------------------------------------------------------
# monomial elements

@dataclass(frozen=True)
class MonomialElt:
    """g|idx> = zeta^(phase[idx]) |perm[idx]>."""
    M: int
    perm: tuple
    phase: tuple

    def __mul__(self, other):
        M, perm, phase = self.M, self.perm, self.phase
        return MonomialElt(M, tuple([perm[p] for p in other.perm]),
                           tuple([(e + phase[p]) % M
                                  for e, p in zip(other.phase, other.perm)]))

    def inv(self):
        n = len(self.perm)
        perm = [0] * n
        phase = [0] * n
        for i in range(n):
            perm[self.perm[i]] = i
            phase[self.perm[i]] = -self.phase[i] % self.M
        return MonomialElt(self.M, tuple(perm), tuple(phase))

    def key(self):
        return (self.perm, self.phase)

    def to_json(self):
        return json.dumps({"perm": list(self.perm), "phase": list(self.phase),
                           "M": self.M}, sort_keys=True)


def op_to_monomial(A, dim, M):
    """Convert a sparse operator to a MonomialElt; None if not monomial."""
    perm = [None] * dim
    phase = [0] * dim
    for col in range(dim):
        rows = A.get(col, {})
        if len(rows) != 1:
            return None
        (row, s), = rows.items()
        e = cyc_as_unit(s, M)
        if e is None:
            return None
        perm[col] = row
        phase[col] = e % M
    if sorted(perm) != list(range(dim)):
        return None
    return MonomialElt(M, tuple(perm), tuple(phase))


class SpinCtx:
    """Root vectors and monomial generators at a fixed rank and precision."""

    def __init__(self, l, K=4):
        if K < 3:
            raise ValueError("need K >= 3 so that varpi exists")
        self.l = l
        self.K = K
        self.M = 1 << K
        self.dim = 1 << l
        self._n_cache = {}
        self._lift_cache = {}
        self._build_root_vectors()

    # -- construction ------------------------------------------------------

    def _build_root_vectors(self):
        l, M = self.l, self.M
        P = parity_op(l, M)
        raw = {}
        for alpha in b_roots(l):
            supp = [(i + 1, alpha[i]) for i in range(l) if alpha[i] != 0]
            if len(supp) == 2:
                (i, mi), (j, mj) = supp
                if (mi, mj) == (-1, 1):
                    E = op_compose(a_dag(l, i, M), a_ann(l, j, M), M)
                elif (mi, mj) == (1, -1):
                    E = op_compose(a_dag(l, j, M), a_ann(l, i, M), M)
                elif (mi, mj) == (1, 1):
                    E = op_compose(a_ann(l, i, M), a_ann(l, j, M), M)
                else:
                    E = op_compose(a_dag(l, j, M), a_dag(l, i, M), M)
            else:
                i, m = supp[0]
                if m == 1:
                    E = op_compose(a_ann(l, i, M), P, M)
                else:
                    E = op_compose(a_dag(l, i, M), P, M)
            if not op_is_zero(op_compose(E, E, M)):
                raise ArithmeticError(f"root vector E_{alpha} does not "
                                      "square to zero")
            self._check_weight(E, alpha)
            raw[alpha] = E

        # normalize the scalar of E_{-alpha} so that [E_a, E_-a] = H_a exactly;
        # the first unit in the pinned candidate list wins, deterministically
        self.E = {}
        self.orientation = {}
        done = set()
        for alpha in b_roots(l):
            if alpha in done:
                continue
            neg = tuple(-x for x in alpha)
            found = None
            for c in (0, M // 2, M // 4, 3 * M // 4):
                F = op_scale(raw[neg], c, M)
                if self._bracket_is_coroot(raw[alpha], F, alpha):
                    found = c
                    break
            if found is None:
                raise ArithmeticError(f"no unit normalization for {alpha}")
            self.E[alpha] = raw[alpha]
            self.E[neg] = op_scale(raw[neg], found, M)
            done.add(alpha)
            done.add(neg)

    def _check_weight(self, E, alpha):
        """E must shift the +-1 weight tuple by 2*alpha."""
        for col, rows in E.items():
            mu = weight_of_index(col, self.l)
            for row in rows:
                nu = weight_of_index(row, self.l)
                if any(n - m != 2 * a for m, n, a in zip(mu, nu, alpha)):
                    raise ArithmeticError(f"E_{alpha} does not shift "
                                          "weights by 2*alpha")

    def _bracket_is_coroot(self, E, F, alpha):
        M = self.M
        B = op_add(op_compose(E, F, M), op_scale(op_compose(F, E, M), M // 2, M), M)
        for idx in range(self.dim):
            mu = weight_of_index(idx, self.l)
            want = coroot_pairing(mu, alpha)
            rows = B.get(idx, {})
            if want == 0:
                if rows:
                    return False
                continue
            if set(rows) != {idx}:
                return False
            if rows[idx] != {0: want}:
                return False
        return True

    # -- elements ----------------------------------------------------------

    def identity(self):
        return MonomialElt(self.M, tuple(range(self.dim)), (0,) * self.dim)

    def x_elt(self, alpha, c):
        """The operator 1 + zeta^c * E_alpha (not monomial in general)."""
        return op_add(op_identity(self.dim), op_scale(self.E[alpha], c, self.M),
                      self.M)

    def n_elt(self, alpha, c=0):
        """n_alpha(zeta^c), always a monomial element."""
        key = (alpha, c % self.M)
        if key in self._n_cache:
            return self._n_cache[key]
        M = self.M
        neg = tuple(-x for x in alpha)
        A = self.x_elt(alpha, c)
        B = self.x_elt(neg, (-c + M // 2) % M)   # argument -1/t
        op = op_compose(op_compose(A, B, M), A, M)
        mono = op_to_monomial(op, self.dim, M)
        if mono is None:
            raise ArithmeticError(f"n_alpha failed to be monomial for {alpha}")
        self._n_cache[key] = mono
        return mono

    def embed_torus(self, h):
        """Diagonal monomial action of a TorusElt."""
        if len(h.a) != self.l or h.modulus != self.M:
            raise ValueError(f"torus element of rank {len(h.a)} and modulus "
                             f"{h.modulus} does not fit rank {self.l} and "
                             f"modulus {self.M}")
        phase = tuple(tm.spin_weight_exponent(h, weight_of_index(i, self.l))
                      for i in range(self.dim))
        return MonomialElt(self.M, tuple(range(self.dim)), phase)

    def w_image(self, g):
        """The signed permutation of coordinates underlying a monomial element."""
        l = self.l
        nu0 = weight_of_index(g.perm[0], l)
        imgs = []
        for i in range(l):
            nui = weight_of_index(g.perm[1 << i], l)
            diff = [j for j in range(l) if nu0[j] != nui[j]]
            if len(diff) != 1:
                raise ArithmeticError("monomial element does not normalize "
                                      "the torus")
            j = diff[0]
            imgs.append((j + 1) * nu0[j])
        w = SignedPerm(tuple(imgs))
        for idx in range(self.dim):
            mu = weight_of_index(idx, l)
            nu = weight_of_index(g.perm[idx], l)
            for i in range(l):
                t = w.imgs[i]
                if nu[abs(t) - 1] != (1 if t > 0 else -1) * mu[i]:
                    raise ArithmeticError("monomial element does not act on "
                                          "weights by a signed permutation")
        return w

    # -- named generators --------------------------------------------------

    def nbar(self, i):
        """n_bar_1 = n_{e_1}(varpi); n_bar_i = n_{e_i - e_{i-1}}(-1) for i >= 2."""
        l, M = self.l, self.M
        if i == 1:
            return self.n_elt(basis_vector(l, 1), M // 4)
        alpha = tuple(b - a for a, b in zip(basis_vector(l, i - 1),
                                           basis_vector(l, i)))
        return self.n_elt(alpha, M // 2)

    def nbar_gens(self):
        return [self.nbar(i) for i in range(1, self.l + 1)]

    def h0_elt(self):
        return self.embed_torus(tm.h0(self.l, self.K))

    # -- subgroup generator lists -----------------------------------------

    def roots_in(self, indices):
        """All +-e_i +- e_j with i, j in the given coordinate set."""
        idx = sorted(set(indices))
        out = []
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                i, j = idx[a], idx[b]
                for alpha in self._pair_roots(i, j):
                    out.append(alpha)
        return out

    def _pair_roots(self, i, j):
        l = self.l
        ei, ej = basis_vector(l, i), basis_vector(l, j)
        plus = tuple(x + y for x, y in zip(ei, ej))
        minus = tuple(y - x for x, y in zip(ei, ej))
        return [plus, tuple(-x for x in plus), minus, tuple(-x for x in minus)]

    def v_gens(self, indices):
        """Generators of V_I: h_0 and n_alpha(1) for roots inside I."""
        return [self.h0_elt()] + [self.n_elt(a, 0) for a in self.roots_in(indices)]

    def vbar_gens(self, indices):
        """Generators of V-bar_I: V_I plus the short monomials n_{e_i}(varpi)."""
        w = self.M // 4
        return self.v_gens(indices) + [self.n_elt(basis_vector(self.l, i), w)
                                       for i in sorted(set(indices))]

    def htilde_gens(self, indices):
        """Generators of H-tilde_I = <h_{e_i}(varpi): i in I>."""
        w = tm.varpi_exp(self.K)
        return [self.embed_torus(tm.h_set(self.l, self.K, [i], w))
                for i in sorted(set(indices))]

    def h_gens(self, indices):
        """Generators of H_I = H-tilde_I cap H_0 (even products)."""
        idx = sorted(set(indices))
        w = tm.varpi_exp(self.K)
        gens = [self.h0_elt()]
        for i in idx[1:]:
            gens.append(self.embed_torus(
                tm.h_set(self.l, self.K, [idx[0], i], w)))
        return gens


# ---------------------------------------------------------------------------
# lifted diagonal maps and block subgroups over a decomposition

def lift_unsigned(ctx, sigma):
    """Monomial lift of an unsigned permutation via n_{e_i - e_j}(-1) factors.

    sigma is a permutation tuple; the factorization follows its cycle
    decomposition, so the lift is deterministic and its coordinate image is
    exactly sigma with no sign changes.
    """
    l, M = ctx.l, ctx.M
    out = ctx.identity()
    seen = set()
    for start in range(1, l + 1):
        if start in seen or sigma[start - 1] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        x = sigma[start - 1]
        while x != start:
            cyc.append(x)
            seen.add(x)
            x = sigma[x - 1]
        # (c1 c2 ... cm) = (c1 c2)(c2 c3)...(c_{m-1} c_m) acting left to right
        for a, b in zip(cyc, cyc[1:]):
            i, j = min(a, b), max(a, b)
            alpha = tuple(y - x for x, y in zip(basis_vector(l, i),
                                               basis_vector(l, j)))
            out = out * ctx.n_elt(alpha, M // 2)
    if ctx.w_image(out).unsigned() != tuple(sigma):
        raise ArithmeticError(f"lift must project onto sigma {tuple(sigma)}")
    return out


def m_maps(ctx, dec, d):
    """Monomial lifts m of the d extension maps of the weight-d blocks, as
    (m, m^-1) pairs; each is lifted once per context."""
    key = (dec, d)
    pairs = ctx._lift_cache.get(key)
    if pairs is None:
        lifts = [lift_unsigned(ctx, f) for f in dec.f_maps(d)]
        pairs = ctx._lift_cache[key] = [(m, m.inv()) for m in lifts]
    return pairs


def kappa(ctx, dec, d, x, order=None):
    """Diagonal map across the weight-d blocks: product of x conjugated by
    each lifted extension map, in ascending k order unless overridden."""
    ms = m_maps(ctx, dec, d)
    out = ctx.identity()
    for k in (order if order is not None else range(len(ms))):
        m, mi = ms[k]
        out = out * (m * x * mi)
    return out


def c_elt(ctx, dec, orbit):
    """The flip element attached to an orbit: kappa_d of a short monomial for
    the weight-d blocks, n_bar_1 for the distinguished orbit."""
    if dec.j_minus1 is not None and tuple(orbit) == tuple(dec.j_minus1):
        return ctx.nbar(1)
    d = len(orbit)
    j = dec.blocks[d].index(tuple(orbit)) + 1
    w = ctx.M // 4
    return kappa(ctx, dec, d, ctx.n_elt(basis_vector(ctx.l, j), w))


def levi_block_gens(ctx, dec):
    """Generators of V-bar relative to a decomposition: the diagonal images of
    the model block group for each weight, the singleton block, and the
    distinguished part generated by h_0, its halves subgroup and n_bar_1."""
    gens = [ctx.h0_elt()]
    for d in sorted(dec.blocks):
        for x in ctx.vbar_gens(range(1, dec.multiplicity(d) + 1)):
            gens.append(kappa(ctx, dec, d, x))
    singles = [o[0] for o in dec.singletons]
    if singles:
        gens.extend(ctx.vbar_gens(singles))
    if dec.j_minus1 is not None:
        gens.extend(ctx.h_gens(dec.j_minus1))
        gens.append(ctx.nbar(1))
    return gens


def schreier_kernel(gens, image_of, cap=10 ** 6):
    """Kernel of a homomorphism from the group generated by gens, computed
    from Schreier generators without enumerating the source group.

    image_of maps source elements to image elements; returns (kernel_elements,
    image_elements)."""
    from .group_engine import closure as _closure
    ident = gens[0] * gens[0].inv()
    img_id = image_of(ident)
    lifts = {img_id: ident}
    frontier = [img_id]
    imgs = {g: image_of(g) for g in gens}
    sgens = set()
    while frontier:
        nxt = []
        for u in frontier:
            for g in gens:
                v = u * imgs[g]
                cand = lifts[u] * g
                if v not in lifts:
                    lifts[v] = cand
                    nxt.append(v)
                    if len(lifts) > cap:
                        raise RuntimeError("image closure exceeded cap")
                else:
                    k = cand * lifts[v].inv()
                    sgens.add(k)
        frontier = nxt
    kernel = _closure(sorted(sgens, key=lambda e: e.key()) or [ident])
    return kernel, sorted(lifts, key=lambda e: e.key())


# ---------------------------------------------------------------------------
# relation verification suite

def _random_words(gens, rng, count, maxlen=4):
    out = []
    for _ in range(count):
        w = gens[0] * gens[0].inv()
        for _ in range(rng.randint(1, maxlen)):
            w = w * rng.choice(gens)
        out.append(w)
    return out


def monomial_to_op(g):
    return {col: {g.perm[col]: cyc_unit(g.phase[col], g.M)}
            for col in range(len(g.perm))}


def verify_relations(l, dec=None, K=4, seed=0, rank_level=True, ctx=None):
    """Run the relation suite; returns a list of (name, ok, detail) records.

    With a decomposition the per-Levi identities (kappa maps, block
    commutators, image of the stabilizer) are included; rank-level checks
    cover the monomial normal forms, torus kernel and full Weyl image.
    ctx is a SpinCtx of rank l and precision K to reuse across calls, so
    that its root vectors and memos are built once; without one a fresh
    context is built.  A context of another rank or precision raises
    ValueError.
    """
    import random
    from math import factorial
    from .group_engine import closure as _closure, FiniteGroup
    from . import root_levi as rl
    from . import signed_perm as sp

    rng = random.Random(seed)
    if ctx is None:
        ctx = SpinCtx(l, K)
    elif (ctx.l, ctx.K) != (l, K):
        raise ValueError(f"context of rank {ctx.l} and K = {ctx.K} given for "
                         f"rank {l} and K = {K}")
    M = ctx.M
    records = []

    def rec(name, ok, detail=""):
        records.append((name, bool(ok), detail))

    if rank_level:
        ok = True
        for alpha in rl.b_roots(l):
            for c in (0, M // 4, M // 2, 1):
                g = ctx.n_elt(alpha, c)          # raises unless monomial
                h = g * ctx.n_elt(alpha, 0).inv()
                if h != ctx.embed_torus(tm.h_root(l, ctx.K, alpha, c)):
                    ok = False
        rec("monomial_and_h_consistency", ok,
            "n_alpha(t) monomial and n_alpha(t) n_alpha(1)^-1 = h_alpha(t)")

        n1 = ctx.nbar(1)
        rec("nbar1_square", n1 * n1 == ctx.h0_elt(), "n_bar_1^2 = h_0")

        h0 = ctx.h0_elt()
        central = all(h0 * g == g * h0
                      for g in ctx.nbar_gens() + ctx.vbar_gens(range(1, l + 1)))
        rec("h0_central", central, "h_0 commutes with all generators")

        ker, img = schreier_kernel(ctx.nbar_gens(), ctx.w_image)
        H0 = _closure([ctx.embed_torus(h) for h in tm.halves_group(l, ctx.K)])
        rec("kernel_is_halves", ker == H0,
            f"|kernel| = {len(ker)}, torus intersection of the full monomial group")
        rec("image_is_hyperoctahedral", len(img) == (1 << l) * factorial(l),
            f"coordinate image order {len(img)}")

        if l >= 2:
            G = FiniteGroup(gens=ctx.vbar_gens([1, 2]))
            rec("vbar_pair_order", G.order == 32,
                "V-bar on a pair has order 4^2 * 2 = 32")

    if dec is None:
        return records

    # commutators between disjoint blocks
    pair_ok, h0_seen, v_ok = True, False, True
    h0 = ctx.h0_elt()
    ident = ctx.identity()
    orbs = [tuple(o) for o in dec.orbits]
    for a in range(len(orbs)):
        for b in range(a + 1, len(orbs)):
            I, J = orbs[a], orbs[b]
            gi = ctx.vbar_gens(I) if len(I) > 1 else \
                [h0, ctx.n_elt(rl.basis_vector(l, I[0]), M // 4)]
            gj = ctx.vbar_gens(J) if len(J) > 1 else \
                [h0, ctx.n_elt(rl.basis_vector(l, J[0]), M // 4)]
            for x in gi:
                for y in gj:
                    c = x * y * x.inv() * y.inv()
                    if c == h0:
                        h0_seen = True
                    elif c != ident:
                        pair_ok = False
            vj = ctx.v_gens(J) if len(J) > 1 else [h0]
            for x in gi:
                for y in vj:
                    if x * y * x.inv() * y.inv() != ident:
                        v_ok = False
    rec("disjoint_commutators", pair_ok and (h0_seen or len(orbs) < 2),
        "commutators of disjoint block groups lie in <h_0>, h_0 attained")
    rec("disjoint_v_commutators", v_ok,
        "V parts of disjoint blocks commute with everything disjoint")

    # kappa maps per block weight
    for d in sorted(dec.blocks):
        a_d = dec.multiplicity(d)
        rng_words = random.Random(seed + d)
        vg = ctx.v_gens(range(1, a_d + 1)) if a_d >= 2 else [h0]
        vbg = ctx.vbar_gens(range(1, a_d + 1)) if a_d >= 2 else \
            [h0, ctx.n_elt(rl.basis_vector(l, 1), M // 4)]
        words_v = vg + _random_words(vg, rng_words, 8)
        words_vb = vbg + _random_words(vbg, rng_words, 8)

        kap = {x: kappa(ctx, dec, d, x) for x in words_v + words_vb}
        inv = {x: x.inv() for x in words_v}
        kap_inv = {x: kap[x].inv() for x in words_v}

        hom_ok = all(kappa(ctx, dec, d, x * y) == kap[x] * kap[y]
                     for x in words_v for y in words_v)
        rec(f"kappa_{d}_hom", hom_ok,
            "kappa multiplicative on the block permutation group")

        rev = list(reversed(range(d)))
        order_ok = all(kap[x] == kappa(ctx, dec, d, x, order=rev)
                       for x in words_v)
        # on short-root words the factor order can only shift by the central
        # h_0, consistent with the disjoint-block commutator relation
        order_vb_ok = all(
            kap[x] * kappa(ctx, dec, d, x, order=rev).inv() in (ident, h0)
            for x in words_vb)
        rec(f"kappa_{d}_order_free", order_ok and order_vb_ok,
            "kappa order-independent on the permutation part, "
            "order-independent up to h_0 on sign parts")

        equi_ok = all(kappa(ctx, dec, d, x * v * inv[x]) ==
                      kap[x] * kap[v] * kap_inv[x]
                      for v in words_vb for x in words_v)
        rec(f"kappa_{d}_equivariant", equi_ok,
            "kappa intertwines conjugation by the block permutation group")

        himg = _closure([kappa(ctx, dec, d, x)
                         for x in ctx.h_gens(range(1, a_d + 1))])
        w = tm.varpi_exp(ctx.K)
        tgt = [h0 if d % 2 else ident]
        blocks = dec.blocks[d]
        for Ib, Jb in zip(blocks, blocks[1:]):
            hi = ctx.embed_torus(tm.h_set(l, ctx.K, Ib, w))
            hj = ctx.embed_torus(tm.h_set(l, ctx.K, Jb, w + M // 2))
            tgt.append(hi * hj)
        rec(f"kappa_{d}_halves_image", himg == _closure(tgt),
            "kappa image of the block halves subgroup matches the closed form")

        flips_ok = True
        for j, orbit in enumerate(blocks, start=1):
            cimg = ctx.w_image(c_elt(ctx, dec, orbit))
            want = [-(i) if (i in orbit) else i for i in range(1, l + 1)]
            if cimg.imgs != tuple(want):
                flips_ok = False
        rec(f"c_{d}_flip_images", flips_ok,
            "coordinate image of each block flip element is the block sign change")

    if dec.j_minus1 is not None:
        cimg = ctx.w_image(c_elt(ctx, dec, dec.j_minus1))
        rec("c_minus1_image", cimg == sp.flip(l, 1),
            "the distinguished flip element is n_bar_1")

    # coordinate image of the full block group against the Levi stabilizer
    vbar = levi_block_gens(ctx, dec)
    img_gens = [ctx.w_image(g) for g in vbar]
    img_grp = FiniteGroup(gens=img_gens)
    stab, levi_w = sp.levi_stabilizer(dec)
    prod = {u * v for u in levi_w for v in img_grp}
    rec("stabilizer_factorization", prod == set(stab),
        "Stab(levi system) = (reflection subgroup) * (image of V-bar)")

    # the halves parts are central in the Levi: they commute with x_alpha(t)
    phi = rl.levi_roots(l, dec.delta_prime)
    central_ok = True
    hparts = [h0]
    for d in sorted(dec.blocks):
        hparts.extend(kappa(ctx, dec, d, x)
                      for x in ctx.h_gens(range(1, dec.multiplicity(d) + 1)))
    singles = [o[0] for o in dec.singletons]
    if singles:
        hparts.extend(ctx.htilde_gens(singles))
    # the distinguished block contributes only h_0 to the Levi center: its
    # other halves pair nontrivially against the sum roots of the block
    for hmono in hparts:
        hop = monomial_to_op(hmono)
        for alpha in sorted(phi):
            xa = ctx.x_elt(alpha, 1)
            if op_compose(hop, xa, M) != op_compose(xa, hop, M):
                central_ok = False
    rec("halves_central_in_levi", central_ok,
        "block halves elements commute with the Levi root subgroups")

    return records
