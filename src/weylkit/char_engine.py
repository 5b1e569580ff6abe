"""Exact character-theoretic tools over finite groups.

Character tables are computed with the modular eigenvector method: class-sum
structure constants act on class functions over F_p for a prime p = 1 mod
exp(G) with p > 2|G|, so all inner products and degrees are exact integers
read off from their residues.  The eigenvalues of a class matrix are the
roots of its minimal polynomial, which splits into distinct linear factors
over F_p; they are found by Cantor-Zassenhaus equal-degree splitting (gcd
with (x + a)^((p-1)/2) - 1 for a = 1, 2, ...).  All of this runs on Python
ints and the standard library.  Linear characters are kept exactly as maps
to Q/Z (Fraction values mod 1).

The extension machinery answers "does this character of a normal subgroup
extend to (a subgroup of) its stabilizer": via induction/decomposition for
table characters, and for linear characters by the derived-subgroup
criterion (a stable lambda of H extends to K iff it is trivial on H meet
K'), with a verifiable witness or obstruction certificate.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

from .group_engine import (ClosureCapExceeded, FiniteGroup, Perm, closure,
                           orbit, product_set, quotient)


# ---------------------------------------------------------------------------
# modular linear algebra helpers

def _solve_coords(basis, vec, p):
    """Coordinates of vec in a reduced-echelon row basis, or None."""
    vec = list(vec)
    coords = []
    for row, piv in basis:
        c = vec[piv]
        coords.append(c)
        if c:
            for k in range(len(vec)):
                vec[k] = (vec[k] - c * row[k]) % p
    if any(vec):
        return None
    return coords


def _echelon(rows, p):
    """Reduced echelon basis [(row, pivot)] of the span of the rows."""
    basis = []
    for r in rows:
        r = [x % p for x in r]
        for row, piv in basis:
            c = r[piv]
            if c:
                for k in range(len(r)):
                    r[k] = (r[k] - c * row[k]) % p
        piv = next((k for k, x in enumerate(r) if x), None)
        if piv is None:
            continue
        inv = pow(r[piv], -1, p)
        r = [x * inv % p for x in r]
        for row, _ in basis:
            c = row[piv]
            if c:
                for k in range(len(r)):
                    row[k] = (row[k] - c * r[k]) % p
        basis.append((r, piv))
    basis.sort(key=lambda t: t[1])
    return basis


def _kernel(mat, p):
    """Kernel basis of a square matrix over F_p (columns as unknowns)."""
    n = len(mat)
    rows = [list(r) for r in mat]
    basis = _echelon(rows, p)
    pivots = {piv for _, piv in basis}
    free = [j for j in range(n) if j not in pivots]
    out = []
    for j in free:
        v = [0] * n
        v[j] = 1
        for row, piv in basis:
            v[piv] = (-row[j]) % p
        out.append(v)
    return out


def _minpoly_roots(B, p):
    """Eigenvalues of B over F_p: the roots of its minimal polynomial relative
    to a Krylov vector, which must split into distinct linear factors."""
    n = len(B)
    v = [1] + [0] * (n - 1)
    krylov = [v]
    while True:
        u = krylov[-1]
        w = _mat_vec(B, u, p)
        basis = _echelon(krylov, p)
        coords = _solve_coords(basis, w, p)
        if coords is not None:
            # reconstruct the dependency in terms of the original power basis
            # by solving with the unreduced Krylov matrix
            m = len(krylov)
            aug = [[krylov[r][c] for r in range(m)] for c in range(n)]
            sol = _solve_linear(aug, w, p, m)
            coeffs = [(-c) % p for c in sol] + [1]     # monic
            break
        krylov.append(w)
    return _split_roots(coeffs, p)


# ---------------------------------------------------------------------------
# polynomials over F_p: coefficient lists, lowest degree first, no trailing
# zeros (the zero polynomial is [])

def _poly_trim(a):
    while a and not a[-1]:
        a.pop()
    return a


def _poly_mod(a, f, p):
    """Remainder of a modulo the monic polynomial f."""
    a = [x % p for x in a]
    df = len(f) - 1
    for k in range(len(a) - 1, df - 1, -1):
        c = a[k]
        if c:
            shift = k - df
            for j in range(df):
                a[shift + j] = (a[shift + j] - c * f[j]) % p
        a[k] = 0
    return _poly_trim(a[:df])


def _poly_mulmod(a, b, f, p):
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _poly_mod(prod, f, p)


def _poly_powmod(a, e, f, p):
    """a^e modulo the monic polynomial f."""
    result = _poly_mod([1], f, p)
    a = _poly_mod(a, f, p)
    while e:
        if e & 1:
            result = _poly_mulmod(result, a, f, p)
        e >>= 1
        if e:
            a = _poly_mulmod(a, a, f, p)
    return result


def _poly_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [x * inv % p for x in a]


def _poly_gcd(a, b, p):
    """Monic gcd of two polynomials, not both zero."""
    a, b = _poly_trim([x % p for x in a]), _poly_trim([x % p for x in b])
    while b:
        a, b = b, _poly_mod(a, _poly_monic(b, p), p)
    return _poly_monic(a, p)


def _poly_divexact(a, b, p):
    """Quotient a / b for a monic divisor b of a."""
    a = list(a)
    db = len(b) - 1
    q = [0] * (len(a) - db)
    for k in range(len(a) - 1, db - 1, -1):
        c = a[k] % p
        q[k - db] = c
        if c:
            for j in range(db + 1):
                a[k - db + j] = (a[k - db + j] - c * b[j]) % p
    return q


def _split_roots(f, p):
    """Sorted roots of a monic f over F_p, p an odd prime, where f must be a
    product of distinct linear factors.

    That is the case exactly when f divides x^p - x, i.e. gcd(f, x^p - x) = f;
    otherwise ArithmeticError is raised.  The roots are then separated by
    Cantor-Zassenhaus splitting: gcd(f, (x + a)^((p-1)/2) - 1) for
    a = 1, 2, ... puts the roots r with r + a a nonzero square on one side.
    """
    f = [x % p for x in f]
    if len(f) > 2 and _poly_powmod([0, 1], p, f, p) != [0, 1]:
        raise ArithmeticError("eigenvalues must be distinct and lie in the "
                              "prime field")
    roots = []
    todo = [f]
    while todo:
        g = todo.pop()
        if len(g) == 2:
            roots.append((-g[0]) % p)
            continue
        for a in range(1, p + 1):
            h = _poly_powmod([a % p, 1], (p - 1) // 2, g, p) or [0]
            h[0] -= 1       # _poly_gcd reduces mod p
            d = _poly_gcd(g, h, p)
            if 1 < len(d) < len(g):
                todo += [d, _poly_divexact(g, d, p)]
                break
        else:
            raise ArithmeticError(f"no splitting of a degree {len(g) - 1} "
                                  f"polynomial over F_{p}")
    return sorted(roots)


def _solve_linear(A, b, p, ncols):
    """Solve A x = b over F_p for a tall consistent system."""
    rows = [list(A[i]) + [b[i] % p] for i in range(len(A))]
    basis = _echelon(rows, p)
    x = [0] * ncols
    for row, piv in basis:
        if piv == ncols:
            raise ArithmeticError("inconsistent system")
        x[piv] = row[ncols]
    return x


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(n):
    """Deterministic Miller-Rabin; the bases 2..37 decide every n < 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime_1mod(e, lower):
    """Smallest prime p = 1 (mod e) with p > lower."""
    k = lower // e + 1
    while True:
        p = e * k + 1
        if p > lower and _is_prime(p):
            return p
        k += 1


# ---------------------------------------------------------------------------
# character tables

class CharTable:
    """Irreducible characters of a finite group as F_p-valued class functions."""

    def __init__(self, group, p=None):
        self.group = group
        self.classes = group.conj_classes()
        self.r = len(self.classes)
        if self.r > 300:
            raise RuntimeError("class count cap exceeded")
        if group.order > 5 * 10 ** 4:
            raise RuntimeError("group order cap for character tables exceeded")
        e = group.exponent()
        if p is None:
            p = _next_prime_1mod(e, 2 * group.order)
        elif (p - 1) % e or p <= 2 * group.order:
            raise ValueError(f"prime {p} unsuitable: need p = 1 mod {e} and "
                             f"p > {2 * group.order}")
        self.p = p
        self._class_of = group.class_index_map()
        self.reps = [c[0] for c in self.classes]
        self.sizes = [len(c) for c in self.classes]
        self.inv_class = [self._class_of[rep.inv()] for rep in self.reps]
        self._compute()

    def class_of(self, g):
        return self._class_of[g]

    def _class_matrix(self, i):
        p = self.p
        A = [[0] * self.r for _ in range(self.r)]
        for x in self.classes[i]:
            xi = x.inv()
            for k, rep in enumerate(self.reps):
                j = self._class_of[xi * rep]
                A[j][k] += 1
        return [[v % p for v in row] for row in A]

    def _compute(self):
        p, r = self.p, self.r
        subspaces = [[_unit(j, r) for j in range(r)]]
        done = []
        if r == 1:
            done, subspaces = subspaces, []
        for i in range(1, r):
            if not subspaces:
                break
            A = self._class_matrix(i)
            nxt = []
            for space in subspaces:
                if len(space) == 1:
                    done.append(space)
                    continue
                nxt.extend(self._split(space, A, p))
            subspaces = [s for s in nxt if len(s) > 1]
            done.extend(s for s in nxt if len(s) == 1)
        if subspaces or len(done) != r:
            raise ArithmeticError("table failed to split")

        omegas = []
        for space in done:
            v = space[0]
            inv0 = pow(v[0], -1, p)    # identity class coordinate -> 1
            omegas.append([x * inv0 % p for x in v])
        chars = []
        order = self.group.order % p
        for w in omegas:
            t = sum(w[i] * w[self.inv_class[i]] * pow(self.sizes[i], -1, p)
                    for i in range(r)) % p
            d2 = order * pow(t, -1, p) % p
            d = _sqrt_lift(d2, p, isqrt(self.group.order))
            row = tuple(d * w[i] % p * pow(self.sizes[i], -1, p) % p
                        for i in range(r))
            chars.append(row)
        chars.sort(key=lambda row: (row[0], row))
        self.irreducibles = chars
        self.degrees = [row[0] for row in chars]

    def _split(self, space, A, p):
        """Split an invariant subspace into eigenspaces of the class matrix."""
        dim = len(space)
        basis = _echelon(space, p)
        space = [row for row, _ in basis]
        imgs = [_mat_vec(A, v, p) for v in space]
        B_cols = [_solve_coords(basis, u, p) for u in imgs]
        if any(c is None for c in B_cols):
            raise ArithmeticError("subspace not invariant")
        B = [[B_cols[j][i] for j in range(dim)] for i in range(dim)]
        out = []
        remaining = [(B, space)]
        while remaining:
            Bc, sp = remaining.pop()
            m = len(Bc)
            if m == 1:
                out.append(sp)
                continue
            roots = _minpoly_roots(Bc, p)
            covered = 0
            pieces = []
            for lam in roots:
                ker = _kernel([[(Bc[i][j] - (lam if i == j else 0)) % p
                                for j in range(m)] for i in range(m)], p)
                vecs = [_combine(kv, sp, p) for kv in ker]
                pieces.append(vecs)
                covered += len(ker)
            if covered < m:
                # the Krylov vector missed some eigenvalues; recurse on the
                # complementary invariant image of prod (B - lam)
                C = _identity_mat(m)
                for lam in roots:
                    C = _mat_mul(C, [[(Bc[i][j] - (lam if i == j else 0)) % p
                                      for j in range(m)] for i in range(m)], p)
                img_rows = _echelon(C, p)
                sub = [_combine(row, sp, p) for row, _ in img_rows]
                bas2 = _echelon(sub, p)
                sub = [row for row, _ in bas2]
                imgs2 = [_mat_vec(A, v, p) for v in sub]
                cols = [_solve_coords(bas2, u, p) for u in imgs2]
                B2 = [[cols[j][i] for j in range(len(sub))]
                      for i in range(len(sub))]
                remaining.append((B2, sub))
            out.extend(v for v in pieces if v)
        return out

    # -- operations --------------------------------------------------------

    def inner(self, chi, psi):
        """Exact inner product of two F_p class-function rows."""
        p = self.p
        s = sum(self.sizes[i] * chi[i] * psi[self.inv_class[i]]
                for i in range(self.r)) % p
        return s * pow(self.group.order % p, -1, p) % p

    def degree_of(self, chi):
        d = chi[0]
        if d >= self.p // 2:
            raise ArithmeticError(f"degree residue {d} is not below p/2 "
                                  f"(p = {self.p}); the prime is too small")
        return d

    def class_perm(self, g):
        """Class index of g x g^-1 for each class representative x."""
        gi = g.inv()
        return tuple(self._class_of[g * rep * gi] for rep in self.reps)

    def conj_char(self, chi, g):
        """The class function chi^g: x -> chi(g x g^-1)."""
        return tuple(chi[k] for k in self.class_perm(g))

    def stabilizers(self, elems):
        """Yield (chi, stabilizer) for each irreducible chi in table order:
        the elements of elems, in their order, whose conjugation fixes chi.
        Each element's class permutation is computed once."""
        ids = {}
        keys = [ids.setdefault(self.class_perm(g), len(ids)) for g in elems]
        for chi in self.irreducibles:
            fixed = [all(chi[k] == c for k, c in zip(perm, chi))
                     for perm in ids]
            yield chi, [g for g, key in zip(elems, keys) if fixed[key]]

    def _check_modulus(self, other):
        if other.p != self.p:
            raise ValueError(f"tables must share the modulus "
                             f"(p = {self.p} and {other.p})")

    def restrict_from(self, big_table, chi):
        """Restriction of a character row of a bigger table to this group
        (same prime required)."""
        self._check_modulus(big_table)
        return tuple(chi[big_table.class_of(rep)] for rep in self.reps)

    def induce_to(self, big_table, theta):
        """Induced class function on the bigger group (same prime required)."""
        self._check_modulus(big_table)
        p = self.p
        sums = [0] * big_table.r
        for h in self.group.elements:
            k = big_table.class_of(h)
            sums[k] = (sums[k] + theta[self._class_of[h]]) % p
        inv_h = pow(self.group.order % p, -1, p)
        out = []
        for k in range(big_table.r):
            cent = (big_table.group.order // big_table.sizes[k]) % p
            out.append(cent * inv_h % p * sums[k] % p)
        return tuple(out)

    def decompose(self, chi):
        """Multiplicities of chi against the irreducibles (exact integers)."""
        return [self.inner(chi, row) for row in self.irreducibles]


def _unit(j, r):
    v = [0] * r
    v[j] = 1
    return v


def _identity_mat(m):
    return [[1 if i == j else 0 for j in range(m)] for i in range(m)]


def _mat_vec(A, v, p):
    """A v over F_p."""
    return [sum(map(mul, row, v)) % p for row in A]


def _combine(coeffs, rows, p):
    """The combination sum_t coeffs[t] rows[t] over F_p."""
    out = [0] * len(rows[0])
    for c, row in zip(coeffs, rows):
        if c:
            for j, x in enumerate(row):
                out[j] += c * x
    return [x % p for x in out]


def _mat_mul(A, B, p):
    m = len(A)
    return [[sum(A[i][t] * B[t][j] for t in range(m)) % p for j in range(m)]
            for i in range(m)]


def _sqrt_lift(d2, p, bound):
    for d in range(1, bound + 1):
        if d * d % p == d2:
            return d
    raise ArithmeticError("no degree lift found")


def common_tables(big, sub):
    """Tables of a group and a subgroup over one shared prime."""
    from math import lcm
    e = lcm(big.exponent(), sub.exponent())
    p = _next_prime_1mod(e, 2 * big.order)
    return CharTable(big, p=p), CharTable(sub, p=p)


def is_invariant(table_n, chi, under):
    """Whether a character row of a normal subgroup is fixed by conjugation."""
    return all(table_n.conj_char(chi, g) == tuple(chi) for g in under)


def extends_to(big, normal, chi, tables=None):
    """Whether an irreducible of the normal subgroup extends to the big group.

    Checks invariance, induces, and looks for a constituent of the same
    degree; by Frobenius reciprocity such a constituent restricts back with
    multiplicity one onto chi-isotypic pieces of matching degree.
    """
    if tables is None:
        tb, tn = common_tables(big, normal)
    else:
        tb, tn = tables
    chi = tuple(chi)
    if not is_invariant(tn, chi, big.gens):
        return False
    ind = tn.induce_to(tb, chi)
    d = tn.degree_of(chi)
    for row in tb.irreducibles:
        if tb.degree_of(row) == d and tb.inner(ind, row):
            return True
    return False


def maximal_extendibility(big, normal, tables=None):
    """Every irreducible of the normal subgroup extends to its stabilizer."""
    if tables is None:
        tables = common_tables(big, normal)
    tb, tn = tables
    results = []
    for chi, stab_elems in tn.stabilizers(big.elements):
        stab = FiniteGroup(elements=stab_elems)
        stab.reduce_gens()
        ts = CharTable(stab, p=tb.p) if stab.order != big.order else tb
        results.append(extends_to(stab, normal, chi, tables=(ts, tn)))
    return all(results), results


# ---------------------------------------------------------------------------
# exact linear characters

def linear_characters(group):
    """All homomorphisms G -> Q/Z as dicts element -> Fraction mod 1."""
    der = group.derived_subgroup()
    q = quotient(group, der)
    ctx_rep = q.elements[0].ctx.rep_of
    qchars = _abelian_characters(q)
    out = []
    for qc in qchars:
        by_rep = {c.rep: qc[c] for c in q.elements}
        out.append({g: by_rep[ctx_rep[g]] for g in group.elements})
    return out


def _abelian_characters(q):
    chars = [{q.identity: Fraction(0)}]
    for g in q.elements:
        if g in chars[0]:
            continue
        m = 1
        x = g
        while x not in chars[0]:
            x = x * g
            m += 1
        new = []
        for phi in chars:
            base = phi[x]      # value at g^m
            for t in range(m):
                val = (base + t) / m
                ext = dict(phi)
                h_pows = {}
                acc = q.identity
                for k2 in range(m):
                    h_pows[k2] = acc
                    acc = acc * g
                for h, vh in phi.items():
                    for k2 in range(1, m):
                        ext[h * h_pows[k2]] = (vh + k2 * val) % 1
                new.append(ext)
        chars = new
    return chars


def char_order(lam):
    """Order of a linear character given as a Fraction-valued dict."""
    from math import lcm
    d = 1
    for v in lam.values():
        d = lcm(d, Fraction(v).denominator)
    return d


# ---------------------------------------------------------------------------
# extension of linear characters

@dataclass
class ExtensionResult:
    ok: bool
    witness: dict          # element -> Fraction, when ok
    certificate: object    # obstruction data, when not ok
    detail: str


def linear_ext_cocycle(lam, normal, big, verify_samples=200, seed=0):
    """Extend a linear character of a normal subgroup to the big group.

    A K-stable linear character lam of H extends to K iff it is trivial on
    H meet K' (Isaacs, Character Theory of Finite Groups, Ch. 5-6).  This is
    the cocycle criterion read on K itself: the central extension E of K/H
    by the value group C_m of lam, with 2-cocycle lam on transversal
    defects, is K/ker(lam), so E' meets C_m in exactly m*lam(H meet K').  A
    witness (full value dict, verified multiplicative) or an obstruction
    certificate ("central-derived intersection", z, m), with z the least
    nonzero value of m*lam on H meet K', is returned.
    """
    import random
    m = char_order(lam)
    # invariance of lam under big
    for g in big.gens:
        gi = g.inv()
        for h in normal.gens:
            if lam[g * h * gi] != lam[h]:
                return ExtensionResult(False, {}, ("not invariant", g, h),
                                       "character is not stable, no extension")
    der = big.derived_subgroup()
    bad = sorted({int(lam[h] * m) % m for h in normal.elements if h in der}
                 - {0})
    if bad:
        cert = ("central-derived intersection", bad[0], m)
        return ExtensionResult(False, {}, cert,
                               f"zeta^{bad[0]}/{m} central element lies in the "
                               "derived subgroup; no linear extension exists")

    # 0 on K', lam on H K', then one cyclic step at a time: a homomorphism
    # on a subgroup S containing K' extends to S<g> = union of S g^t, t < k,
    # by any k-th part of its value at g^k
    witness = {d * h: lam[h] % 1 for h in normal.elements for d in der}
    for g in big.elements:
        if g in witness:
            continue
        k = 1
        x = g
        while x not in witness:
            x = x * g
            k += 1
        val = witness[x] / k
        new = {}
        for h, vh in witness.items():
            acc = h
            for t in range(1, k):
                acc = acc * g
                new[acc] = (vh + t * val) % 1
        witness.update(new)

    # verification: full restriction, generator pairs, random sample pairs
    for h in normal.elements:
        if witness[h] != lam[h] % 1:
            raise ArithmeticError("witness does not restrict correctly")
    rng = random.Random(seed)
    pairs = [(a, b) for a in big.gens for b in big.gens]
    pairs += [(rng.choice(big.elements), rng.choice(big.elements))
              for _ in range(verify_samples)]
    for a, b in pairs:
        if (witness[a] + witness[b]) % 1 != witness[a * b]:
            raise ArithmeticError("witness is not multiplicative")
    return ExtensionResult(True, witness, None,
                           "extension constructed and verified")


# ---------------------------------------------------------------------------
# extension property of the halves subgroup inside its monomial normalizer

def _char_key(lam, elems):
    return tuple(lam[h] for h in elems)


def verify_halves_extension(lp, seed=0):
    """Every character of the halves subgroup extends to its stabilizer.

    Works at rank lp with I = {1..lp}: H = H_I (elementary abelian of order
    2^lp) inside V-bar_I (order 4^lp * lp!).  Each of the 2^lp linear
    characters is extended to its stabilizer with a verified witness.
    Characters nontrivial on h_0 additionally get the sign-free normal form:
    a conjugate extending to the full twisted-diagonal subgroup with constant
    fourth-root values, whose stabilizer image is the plain symmetric group,
    and the full stabilizer is that subgroup extended by the total flip.
    """
    from math import factorial
    from .spin_monomial import SpinCtx
    from . import torus_model as tm

    records = []

    def rec(name, ok, detail=""):
        records.append((name, bool(ok), detail))

    ctx = SpinCtx(lp)
    I = range(1, lp + 1)
    H = FiniteGroup(gens=ctx.h_gens(I))
    rec("halves_order", H.order == 2 ** lp and H.exponent() == 2,
        f"|H| = {H.order}, elementary abelian")
    V = FiniteGroup(gens=ctx.vbar_gens(I))
    rec("vbar_order", V.order == 4 ** lp * factorial(lp), f"|V-bar| = {V.order}")
    helems = H.elements
    chars = linear_characters(H)
    rec("char_count", len(chars) == 2 ** lp, f"{len(chars)} linear characters")

    # one conjugation pass: where each g sends the generators of H, as
    # positions in helems, numbered by distinct action
    pos = {h: i for i, h in enumerate(helems)}
    gen_pos = [pos[h] for h in H.gens]
    actions = {}
    act_of = []
    for g in V:
        gi = g.inv()
        act = tuple(pos[g * h * gi] for h in H.gens)
        act_of.append(actions.setdefault(act, len(actions)))

    all_ok = True
    stabs = {}
    for lam in chars:
        vals = [lam[h] for h in helems]
        fixed = [all(vals[i] == vals[j] for i, j in zip(act, gen_pos))
                 for act in actions]
        stab = [g for g, a in zip(V, act_of) if fixed[a]]
        sgrp = FiniteGroup(elements=stab)
        sgrp.reduce_gens()
        stabs[_char_key(lam, helems)] = (lam, sgrp)
        res = linear_ext_cocycle(lam, H, sgrp, verify_samples=100, seed=seed)
        if not res.ok:
            all_ok = False
    rec("all_extend", all_ok,
        "every character extends to its stabilizer with a cocycle witness")

    # sign-free normal form for the characters nontrivial on h_0
    h0 = ctx.h0_elt()
    Ht = FiniteGroup(gens=ctx.htilde_gens(I))
    rec("htilde_order", Ht.order == 2 ** (lp + 1), f"|H-tilde| = {Ht.order}")
    tchars = linear_characters(Ht)
    quarter = Fraction(1, 4)
    constant = [lt for lt in tchars
                if all(lt[g] == quarter for g in ctx.htilde_gens(I))]
    rec("constant_char_unique", len(constant) == 1,
        "unique character of H-tilde with constant fourth-root values")
    lam_t = constant[0]
    lam_p = {h: lam_t[h] for h in helems}

    # the V-orbit of lam_p, on value tuples: conjugating by g permutes the
    # positions of helems
    conj_pos = []
    for g in V.gens:
        gi = g.inv()
        conj_pos.append([pos[g * h * gi] for h in helems])
    reach = set(orbit(_char_key(lam_p, helems), conj_pos,
                      lambda key, cp: tuple(key[i] for i in cp)))
    orbit_ok = all(_char_key(lam, helems) in reach
                   for lam in chars if lam[h0] == Fraction(1, 2))
    rec("conjugate_to_normal_form", orbit_ok,
        "every character nontrivial on h_0 is conjugate to the constant one")

    tgens = ctx.htilde_gens(I)
    stab_t = [g for g in V
              if all(lam_t[g * h * g.inv()] == lam_t[h] for h in tgens)]
    images = {ctx.w_image(g) for g in stab_t}
    unsigned_ok = (all(not w.sign_changes() for w in images)
                   and len(images) == factorial(lp))
    rec("twisted_stab_image_symmetric", unsigned_ok,
        "stabilizer of the constant character maps onto the symmetric group")

    c_full = ctx.identity()
    w = ctx.M // 4
    from .root_levi import basis_vector
    for i in I:
        c_full = c_full * ctx.n_elt(basis_vector(lp, i), w)
    lam_pk = _char_key(lam_p, helems)
    _, stab_p = stabs[lam_pk]
    in_stab = c_full in stab_p
    index2 = stab_p.order == 2 * len(stab_t)
    coset = {u * c_full for u in stab_t}
    union_ok = set(stab_p.elements) == set(stab_t) | coset
    inverts = all(lam_t[c_full * h * c_full.inv()] == (-lam_t[h]) % 1
                  for h in tgens)
    rec("flip_extension_structure",
        in_stab and index2 and union_ok and inverts,
        "full stabilizer = twisted stabilizer extended by the total flip, "
        "which inverts the twisted character")
    return records


# ---------------------------------------------------------------------------
# wreath-product extension maps over an abelian base group

def _x_elements(invs):
    from itertools import product
    return sorted(product(*[range(m) for m in invs]))


def _x_add(x, y, invs):
    return tuple((a + b) % m for a, b, m in zip(x, y, invs))


def _x_neg(x, invs):
    return tuple((-a) % m for a, m in zip(x, invs))


def _mat_norm(mat, invs):
    return tuple(tuple(v % invs[i] for v in row) for i, row in enumerate(mat))


def _mat_act(mat, x, invs):
    return tuple(sum(row[j] * x[j] for j in range(len(x))) % invs[i]
                 for i, row in enumerate(mat))


def _mat_compose(a, b, invs):
    r = len(invs)
    return _mat_norm(tuple(tuple(sum(a[i][k] * b[k][j] for k in range(r))
                                 for j in range(r)) for i in range(r)), invs)


def _char_val(c, x, invs):
    return sum((Fraction(ci * xi, m) for ci, xi, m in zip(c, x, invs)),
               Fraction(0)) % 1


def _char_after(c, mat, invs):
    """Coefficients of x -> char(mat(x))."""
    r = len(invs)
    out = []
    for j in range(r):
        unit = tuple(1 if t == j else 0 for t in range(r))
        v = _char_val(c, _mat_act(mat, unit, invs), invs) * invs[j]
        assert v.denominator == 1
        return_coeff = v.numerator % invs[j]
        out.append(return_coeff)
    return tuple(out)


class WreathCtx:
    """The group (X x| Y) wr S_a for abelian X given by cyclic invariants,
    Y a group of automorphism matrices, with an optional outer automorphism
    group A of X normalizing Y and acting diagonally.

    Inner semidirect elements are pairs (x, yi) with yi an index into the
    matrix list; wreath elements are (parts, sigma) with parts a tuple of
    pairs and sigma an image tuple on range(a)."""

    def __init__(self, invariants, y_mats, a, a_mats=()):
        self.invs = tuple(invariants)
        self.a = a
        self.xs = _x_elements(self.invs)
        ident = _mat_norm(_identity_invs(self.invs), self.invs)
        gens = sorted({_mat_norm(m, self.invs) for m in y_mats})
        for m in gens:
            if len({_mat_act(m, x, self.invs) for x in self.xs}) != len(self.xs):
                raise ValueError("twist matrix is not an automorphism")
        # the group the twists generate: the orbit of the identity under
        # right composition with them
        try:
            mats = orbit(ident, gens,
                         lambda m, y: _mat_compose(m, y, self.invs),
                         cap=10 ** 4)
        except ClosureCapExceeded:
            raise ValueError("twist matrix closure too large") from None
        self.y_mats = sorted(mats)
        self.y_index = {m: i for i, m in enumerate(self.y_mats)}
        self.y_id = self.y_index[ident]
        self.y_inv = []
        for i, m in enumerate(self.y_mats):
            inv = next(j for j, m2 in enumerate(self.y_mats)
                       if _mat_compose(m, m2, self.invs) == ident)
            self.y_inv.append(inv)
        self.a_mats = [_mat_norm(m, self.invs) for m in a_mats]
        for al in self.a_mats:
            if len({_mat_act(al, x, self.invs) for x in self.xs}) != len(self.xs):
                raise ValueError("outer matrix is not an automorphism")
            alinv = _mat_inverse(al, self.invs)
            for m in self.y_mats:
                if _mat_compose(_mat_compose(al, m, self.invs), alinv,
                                self.invs) not in self.y_index:
                    raise ValueError("outer automorphism does not "
                                     "normalize the twists")

    # ---- inner semidirect product S = X x| Y
    def s_elements(self):
        return [(x, yi) for x in self.xs for yi in range(len(self.y_mats))]

    def s_mul(self, g, h):
        (x1, y1), (x2, y2) = g, h
        x = _x_add(x1, _mat_act(self.y_mats[y1], x2, self.invs), self.invs)
        return (x, self.y_index[_mat_compose(self.y_mats[y1],
                                             self.y_mats[y2], self.invs)])

    def s_inv(self, g):
        x, y = g
        yi = self.y_inv[y]
        return (_mat_act(self.y_mats[yi], _x_neg(x, self.invs), self.invs), yi)

    def s_identity(self):
        return (tuple(0 for _ in self.invs), self.y_id)

    def char_alpha(self, c, al):
        """(alpha . char)(x) = char(alpha^-1(x))."""
        return _char_after(c, _mat_inverse(al, self.invs), self.invs)

    def s_alpha(self, g, al):
        """Image of a semidirect element under the outer automorphism."""
        x, y = g
        alinv = _mat_inverse(al, self.invs)
        m = _mat_compose(_mat_compose(al, self.y_mats[y], self.invs), alinv,
                         self.invs)
        return (_mat_act(al, x, self.invs), self.y_index[m])

    # ---- wreath product M = S wr S_a
    def w_elements(self):
        from itertools import product, permutations
        out = []
        for sigma in permutations(range(self.a)):
            for parts in product(self.s_elements(), repeat=self.a):
                out.append((tuple(parts), tuple(sigma)))
        return out

    def w_mul(self, u, v):
        (f, sg), (f2, sg2) = u, v
        inv = [0] * self.a
        for i, s in enumerate(sg):
            inv[s] = i
        parts = tuple(self.s_mul(f[i], f2[inv[i]]) for i in range(self.a))
        sigma = tuple(sg[sg2[i]] for i in range(self.a))
        return (parts, sigma)

    def w_inv(self, u):
        f, sg = u
        inv = [0] * self.a
        for i, s in enumerate(sg):
            inv[s] = i
        parts = tuple(self.s_inv(f[inv[i]]) for i in range(self.a))
        return (parts, tuple(inv))

    def w_embed_x(self, z):
        return (tuple((x, self.y_id) for x in z), tuple(range(self.a)))

    def w_alpha(self, u, al):
        f, sg = u
        return (tuple(self.s_alpha(g, al) for g in f), sg)

    def tuple_char_conj(self, cs, u):
        """(u . char-tuple) under conjugation inside the wreath product."""
        ui = self.w_inv(u)

        def conj_point(z):
            w = self.w_mul(self.w_mul(ui, self.w_embed_x(z)), u)
            assert w[1] == tuple(range(self.a))
            assert all(g[1] == self.y_id for g in w[0])
            return tuple(g[0] for g in w[0])
        coeffs = []
        for j in range(self.a):
            cj = []
            for t in range(len(self.invs)):
                unit = tuple(1 if tt == t else 0
                             for tt in range(len(self.invs)))
                z = tuple(unit if jj == j else tuple(0 for _ in self.invs)
                          for jj in range(self.a))
                v = sum((_char_val(cs[i], zi, self.invs)
                         for i, zi in enumerate(conj_point(z))),
                        Fraction(0)) % 1
                v = v * self.invs[t]
                assert v.denominator == 1
                cj.append(v.numerator % self.invs[t])
            coeffs.append(tuple(cj))
        return tuple(coeffs)


def _identity_invs(invs):
    r = len(invs)
    return tuple(tuple(1 if i == j else 0 for j in range(r))
                 for i in range(r))


def _mat_inverse(mat, invs):
    xs = _x_elements(invs)
    images = {_mat_act(mat, x, invs): x for x in xs}
    r = len(invs)
    cols = []
    for j in range(r):
        unit = tuple(1 if t == j else 0 for t in range(r))
        cols.append(images[unit])
    return _mat_norm(tuple(tuple(cols[j][i] for j in range(r))
                           for i in range(r)), invs)


def _semi_perms(ctx):
    """Faithful permutation model of X x| Y on the points of X."""
    idx = {x: i for i, x in enumerate(ctx.xs)}
    fwd, back = {}, {}
    for g in ctx.s_elements():
        x, y = g
        imgs = tuple(idx[_x_add(x, _mat_act(ctx.y_mats[y], z, ctx.invs),
                                ctx.invs)] for z in ctx.xs)
        p = Perm(imgs)
        fwd[g] = p
        back[p] = g
    return fwd, back


def _base_actions(ctx):
    """The closure of the conjugation and outer actions on (chars, S)."""
    s_elems = ctx.s_elements()
    s_pos = {g: i for i, g in enumerate(s_elems)}

    gens = []
    for s0 in s_elems:
        s0i = ctx.s_inv(s0)
        gens.append(Perm(tuple(s_pos[ctx.s_mul(ctx.s_mul(s0, g), s0i)]
                               for g in s_elems)))
    for al in ctx.a_mats:
        gens.append(Perm(tuple(s_pos[ctx.s_alpha(g, al)] for g in s_elems)))
    actions = []
    for t in closure(gens):
        smap = {s_elems[i]: s_elems[t.imgs[i]] for i in range(len(s_elems))}
        inv = {v: k for k, v in smap.items()}
        actions.append((smap, inv))
    return actions


def _action_char(ctx, smap, c):
    """Induced map on linear characters of X: (pi.c)(x) = c(pi^-1(x))."""
    r = len(ctx.invs)
    out = []
    lookup = {v: k for k, v in smap.items()}
    for j in range(r):
        unit = tuple(1 if t == j else 0 for t in range(r))
        pre = lookup[(unit, ctx.y_id)]
        assert pre[1] == ctx.y_id
        v = _char_val(c, pre[0], ctx.invs) * ctx.invs[j]
        assert v.denominator == 1
        out.append(v.numerator % ctx.invs[j])
    return tuple(out)


def wreath_ext_map(invariants, y_mats, a, a_mats=(), char_set=None,
                   base_map=None):
    """Extension map for X^a inside (X x| Y) wr S_a, equivariant under the
    wreath product and the diagonal outer automorphisms.

    X is abelian with the given cyclic invariants; Y and the outer group A
    are given by automorphism matrices.  If no base extension map for
    X inside X x| Y is supplied, a deterministic equivariant one is built
    (error if none exists).  Every claimed property is verified by brute
    force before returning."""
    from itertools import product
    ctx = WreathCtx(invariants, y_mats, a, a_mats=a_mats)
    all_chars = [tuple(c) for c in product(*[range(m) for m in ctx.invs])]
    chars = sorted(set(char_set)) if char_set is not None else all_chars
    actions = _base_actions(ctx)
    act_on_char = [{c: None for c in chars} for _ in actions]
    for i, (smap, sinv) in enumerate(actions):
        for c in chars:
            img = _action_char(ctx, smap, c)
            if img not in set(chars):
                raise ValueError("character set is not stable")
            act_on_char[i][c] = img

    s_elems = ctx.s_elements()
    if base_map is None:
        base_map = {}
        fwd, back = _semi_perms(ctx)
        remaining = set(chars)
        while remaining:
            rep = min(remaining)
            stab_s = [g for g in s_elems
                      if _action_char(ctx, {h: ctx.s_mul(ctx.s_mul(g, h),
                                                         ctx.s_inv(g))
                                            for h in s_elems}, rep) == rep]
            grp = FiniteGroup(elements=[fwd[g] for g in stab_s])
            cands = []
            for lam in linear_characters(grp):
                vals = {back[p]: lam[p] for p in grp.elements}
                if all(vals[(x, ctx.y_id)] == _char_val(rep, x, ctx.invs)
                       for x in ctx.xs):
                    cands.append(vals)
            cands.sort(key=lambda v: tuple(v[g] for g in sorted(v)))
            chosen = None
            for vals in cands:
                ok = True
                for i, (smap, sinv) in enumerate(actions):
                    if act_on_char[i][rep] != rep:
                        continue
                    if any(vals[sinv[t]] != vals[t] for t in vals):
                        ok = False
                        break
                if ok:
                    chosen = vals
                    break
            if chosen is None:
                raise ValueError("no equivariant base extension for "
                                 f"character {rep}")
            # transport along the orbit
            for i, (smap, sinv) in enumerate(actions):
                img = act_on_char[i][rep]
                if img in remaining:
                    base_map[img] = {smap[t]: chosen[t] for t in chosen}
                    remaining.discard(img)
    # verify the base map: extension property and full equivariance
    for c in chars:
        vals = base_map[c]
        if any(vals[(x, ctx.y_id)] != _char_val(c, x, ctx.invs)
               for x in ctx.xs):
            raise ValueError(f"input map does not extend character {c}")
        for (g1, v1) in vals.items():
            for (g2, v2) in vals.items():
                if vals[ctx.s_mul(g1, g2)] != (v1 + v2) % 1:
                    raise ValueError("input map is not multiplicative at "
                                     f"character {c}")
    for i, (smap, sinv) in enumerate(actions):
        for c in chars:
            img = act_on_char[i][c]
            if any(base_map[img][smap[t]] != base_map[c][t]
                   for t in base_map[c]):
                raise ValueError("input map not equivariant")

    w_all = ctx.w_elements()
    big = {}
    for lam_tuple in product(chars, repeat=a):
        stab = [w for w in w_all
                if ctx.tuple_char_conj(lam_tuple, w) == lam_tuple]
        vals = {}
        for w in stab:
            f, sg = w
            inv = [0] * a
            for i, s in enumerate(sg):
                inv[s] = i
            total = Fraction(0)
            done = set()
            for i0 in range(a):
                if i0 in done:
                    continue
                cyc = [i0]
                j = inv[i0]
                while j != i0:
                    cyc.append(j)
                    j = inv[j]
                done.update(cyc)
                h = f[cyc[0]]
                for j in cyc[1:]:
                    h = ctx.s_mul(h, f[j])
                total = (total + base_map[lam_tuple[i0]][h]) % 1
            vals[w] = total
        for w1, v1 in vals.items():
            for w2, v2 in vals.items():
                if vals[ctx.w_mul(w1, w2)] != (v1 + v2) % 1:
                    raise ArithmeticError("wreath extension is not "
                                          "multiplicative")
        for z in product(ctx.xs, repeat=a):
            expect = sum((_char_val(lam_tuple[i], z[i], ctx.invs)
                          for i in range(a)), Fraction(0)) % 1
            if vals[ctx.w_embed_x(z)] != expect:
                raise ArithmeticError("wreath extension does not restrict "
                                      "to the base character")
        for j in range(a):
            for g in base_map[lam_tuple[j]]:
                parts = tuple(g if jj == j else ctx.s_identity()
                              for jj in range(a))
                w = (parts, tuple(range(a)))
                if w in vals and vals[w] != base_map[lam_tuple[j]][g]:
                    raise ArithmeticError("wreath extension does not agree "
                                          "with the base map")
        big[lam_tuple] = vals

    # equivariance of the big map under the wreath product and diagonal A
    w_gens = []
    for g in s_elems:
        w_gens.append((tuple(g if j == 0 else ctx.s_identity()
                             for j in range(a)), tuple(range(a))))
    for t in range(a - 1):
        sigma = list(range(a))
        sigma[t], sigma[t + 1] = sigma[t + 1], sigma[t]
        w_gens.append((tuple(ctx.s_identity() for _ in range(a)),
                       tuple(sigma)))
    for lam_tuple in big:
        for w0 in w_gens:
            img = ctx.tuple_char_conj(lam_tuple, w0)
            w0i = ctx.w_inv(w0)
            for u, v in big[img].items():
                pre = ctx.w_mul(ctx.w_mul(w0i, u), w0)
                if big[lam_tuple][pre] != v:
                    raise ArithmeticError("map not equivariant")
        for al in ctx.a_mats:
            ali = _mat_inverse(al, ctx.invs)
            img = tuple(ctx.char_alpha(c, al) for c in lam_tuple)
            for u, v in big[img].items():
                pre = ctx.w_alpha(u, ali)
                if big[lam_tuple][pre] != v:
                    raise ArithmeticError("map not Delta-A-equivariant")
    return {"ctx": ctx, "base_map": base_map, "map": big,
            "equivariant": True}


# ---------------------------------------------------------------------------
# central-product assembly of extension maps

def _lin_conj(vals, g):
    """(g . lambda)(x) = lambda(g^-1 x g) on a linear character dict."""
    gi = g.inv()
    return {x: vals[gi * x * g] for x in vals}


def cor_tool_build(m_grp, k_grp, k0_grp, v_grp, char_set=None, lam0=None,
                   d_gens=(), lam_eps=None):
    """Extension map for K normal in M from the product structure M = KV.

    Hypotheses checked exactly: K normal in M; K = K0 (K cap V) with
    H := K cap V central in K; M = KV; the optional outer elements d_gens
    stabilize K0 and V; the character set (default: all linear characters
    of K) is stable under M and d_gens.  For each character the product
    formula value(k v) = lambda(k) + lam0(nu)(v) with nu the central
    restriction is tried first, then a deterministic search over linear
    extensions; equivariance of the result is enforced by an invariant
    choice at orbit representatives and verified at the end.  Only linear
    characters are supported; failures raise with the failing condition."""
    def fail(msg):
        raise ValueError("cor_tool hypotheses fail: " + msg)

    if not k_grp.is_subgroup_of(m_grp) or not m_grp.is_normal(k_grp):
        fail("K is not normal in M")
    if not k0_grp.is_subgroup_of(k_grp):
        fail("K0 is not contained in K")
    if not v_grp.is_subgroup_of(m_grp):
        fail("V is not contained in M")
    h_elems = sorted(set(k_grp.elements) & set(v_grp.elements),
                     key=lambda g: g.key())
    h_grp = FiniteGroup(elements=h_elems)
    cent = set(k_grp.center().elements)
    if not set(h_elems) <= cent:
        fail("H = K cap V is not central in K")
    if product_set(k0_grp.elements, h_elems) != set(k_grp.elements):
        fail("K is not K0 (K cap V)")
    if product_set(k_grp.elements, v_grp.elements) != set(m_grp.elements):
        fail("M is not KV")
    for d in d_gens:
        di = d.inv()
        for grp, name in ((k0_grp, "K0"), (v_grp, "V"), (k_grp, "K"),
                          (m_grp, "M")):
            if any((d * g * di) not in grp for g in grp.gens):
                fail(f"outer element does not stabilize {name}")

    if char_set is None:
        char_set = linear_characters(k_grp)
    keyed = {tuple(lam[g] for g in k_grp.elements): lam for lam in char_set}
    outer = list(m_grp.gens) + list(d_gens)
    for lam in char_set:
        for g in outer:
            img = _lin_conj(lam, g)
            if tuple(img[x] for x in k_grp.elements) not in keyed:
                fail("character set is not MD-stable")

    # base map on H inside V
    h_chars_needed = {}
    for lam in char_set:
        nu_key = tuple(lam[x] for x in h_elems)
        h_chars_needed[nu_key] = {x: lam[x] for x in h_elems}
    if lam0 is None:
        lam0 = {}
        for nu_key, nu in h_chars_needed.items():
            v_nu = [v for v in v_grp.elements
                    if all(nu[v.inv() * x * v] == nu[x] for x in h_elems)]
            v_nu_grp = FiniteGroup(elements=v_nu)
            cands = []
            for mu in linear_characters(v_nu_grp):
                if all(mu[x] == nu[x] for x in h_elems):
                    cands.append(mu)
            cands.sort(key=lambda mu: tuple(mu[g] for g in v_nu_grp.elements))
            stabs = [g for g in list(v_grp.elements) + list(d_gens)
                     if all(nu[g.inv() * x * g] == nu[x] for x in h_elems)]
            chosen = None
            for mu in cands:
                if all(mu[g.inv() * t * g] == mu[t]
                       for g in stabs for t in mu):
                    chosen = mu
                    break
            if chosen is None and cands:
                chosen = cands[0]
            if chosen is None:
                fail(f"no extension of the central character {nu_key} to "
                     "its stabilizer in V")
            lam0[nu_key] = chosen
    else:
        for nu_key, nu in h_chars_needed.items():
            if nu_key not in lam0:
                fail("lam0 misses a needed central character")
            mu = lam0[nu_key]
            if any(mu[x] != nu[x] for x in h_elems):
                fail("lam0 does not extend the central character")

    result = {}
    for lam in char_set:
        if lam[k_grp.identity] != 0:
            fail("character set entries must be linear characters of K")
        nu_key = tuple(lam[x] for x in h_elems)
        mu = lam0[nu_key] if lam_eps is None else lam_eps.get(nu_key,
                                                              lam0[nu_key])
        m_lam = [g for g in m_grp.elements
                 if tuple(_lin_conj(lam, g)[x] for x in k_grp.elements)
                 == tuple(lam[x] for x in k_grp.elements)]
        m_lam_grp = FiniteGroup(elements=m_lam)
        # product-formula candidate
        vals = {}
        consistent = True
        for k in k_grp.elements:
            for v in mu:
                if v not in m_lam_grp:
                    continue
                g = k * v
                if g not in m_lam_grp:
                    continue
                w = (lam[k] + mu[v]) % 1
                if vals.setdefault(g, w) != w:
                    consistent = False
        if consistent and len(vals) == m_lam_grp.order and all(
                vals[a * b] == (vals[a] + vals[b]) % 1
                for a in m_lam_grp.elements for b in m_lam_grp.elements):
            result[tuple(lam[g] for g in k_grp.elements)] = vals
            continue
        # fallback: deterministic search over linear extensions
        cands = []
        for full in linear_characters(m_lam_grp):
            if all(full[x] == lam[x] for x in k_grp.elements):
                cands.append(full)
        cands.sort(key=lambda f: tuple(f[g] for g in m_lam_grp.elements))
        if not cands:
            fail("no linear extension to the stabilizer exists")
        result[tuple(lam[g] for g in k_grp.elements)] = cands[0]

    # verify MD-equivariance; on failure retry via invariant orbit transport
    def equivariant(res):
        for lam in char_set:
            key = tuple(lam[g] for g in k_grp.elements)
            for g in outer:
                img = _lin_conj(lam, g)
                ikey = tuple(img[x] for x in k_grp.elements)
                moved = {g * t * g.inv(): v for t, v in res[key].items()}
                if set(moved) != set(res[ikey]) or moved != res[ikey]:
                    return False, (key, g)
        return True, None

    ok, witness = equivariant(result)
    if not ok:
        # transport along orbit representatives with an invariant choice
        rep_done = {}
        order = sorted(result)
        for key in order:
            if key in rep_done:
                continue
            frontier = [key]
            seen = {key: None}
            while frontier:
                cur = frontier.pop(0)
                lam = keyed[cur]
                for g in outer:
                    img = _lin_conj(lam, g)
                    ikey = tuple(img[x] for x in k_grp.elements)
                    if ikey not in seen:
                        seen[ikey] = (cur, g)
                        frontier.append(ikey)
            for ikey, back in seen.items():
                rep_done[ikey] = True
                if back is not None:
                    cur, g = back
                    result[ikey] = {g * t * g.inv(): v
                                    for t, v in result[cur].items()}
        ok, witness = equivariant(result)
    if not ok:
        fail(f"no MD-equivariant assembly found (character {witness[0]})")
    return {"map": result, "lam0": lam0, "h": h_grp, "equivariant": True}


# ---------------------------------------------------------------------------
# stable-transversal condition triple

def transversal_check(z_grp, yhat_grp, xtilde_grp, m_set=None):
    """Evaluate the three equivalent stable-transversal conditions.

    Setup: xtilde normal in z, z = yhat * xtilde, X := xtilde cap yhat
    normal in z, and a z-stable character set of X (default all of Irr(X)).
    Returns the three flags and raises if they disagree."""
    if not xtilde_grp.is_subgroup_of(z_grp) or not z_grp.is_normal(xtilde_grp):
        raise ValueError("xtilde must be normal in z")
    if not yhat_grp.is_subgroup_of(z_grp):
        raise ValueError("yhat must be contained in z")
    if product_set(yhat_grp.elements, xtilde_grp.elements) \
            != set(z_grp.elements):
        raise ValueError("z must equal yhat * xtilde")
    x_elems = sorted(set(xtilde_grp.elements) & set(yhat_grp.elements),
                     key=lambda g: g.key())
    x_grp = FiniteGroup(elements=x_elems)
    if not z_grp.is_normal(x_grp):
        raise ValueError("X = xtilde cap yhat must be normal in z")
    tx = CharTable(x_grp)
    chars = list(tx.irreducibles) if m_set is None else list(m_set)
    for chi in chars:
        for g in z_grp.gens:
            if tx.conj_char(chi, g) not in chars:
                raise ValueError("character set is not z-stable")

    def orbits(grp):
        out = []
        for c in chars:
            if not any(c in orb for orb in out):
                out.append(set(orbit(c, grp.gens, tx.conj_char)))
        return out

    xt_orbits = orbits(xtilde_grp)
    y_orbits = orbits(yhat_grp)

    # (i): a union of yhat-orbits meeting each xtilde-orbit exactly once
    def cover(idx, counts):
        if idx == len(y_orbits):
            return all(c == 1 for c in counts)
        # option: skip this yhat-orbit
        if cover(idx + 1, counts):
            return True
        add = [0] * len(xt_orbits)
        for c in y_orbits[idx]:
            for t, orb in enumerate(xt_orbits):
                if c in orb:
                    add[t] += 1
        new = [a + b for a, b in zip(counts, add)]
        if all(c <= 1 for c in new):
            return cover(idx + 1, new)
        return False

    cond_i = cover(0, [0] * len(xt_orbits))

    def stab(chi, elems):
        return [g for g in elems if tx.conj_char(chi, g) == chi]

    # (ii): an xtilde-conjugate with factorizing stabilizer
    cond_ii = True
    for orb in xt_orbits:
        found = False
        for chi in orb:
            zs = set(stab(chi, z_grp.elements))
            xs = stab(chi, xtilde_grp.elements)
            ys = stab(chi, yhat_grp.elements)
            if product_set(xs, ys) == zs:
                found = True
                break
        cond_ii = cond_ii and found

    # (iii): a conjugate copy of yhat factorizes every stabilizer in place
    cond_iii = True
    for chi in chars:
        zs = set(stab(chi, z_grp.elements))
        xs = stab(chi, xtilde_grp.elements)
        ok = False
        for x in xtilde_grp.elements:
            xi = x.inv()
            moved = [x * g * xi for g in yhat_grp.elements]
            ys = stab(chi, moved)
            if product_set(ys, xs) == zs:
                ok = True
                break
        cond_iii = cond_iii and ok

    if not cond_i == cond_ii == cond_iii:
        raise ArithmeticError("condition triple must agree")
    return {"stable_transversal": cond_i, "factorizing_conjugate": cond_ii,
            "in_place_factorization": cond_iii}
