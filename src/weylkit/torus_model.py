"""Exact model of the 2-power torsion of a maximal torus in the spin group.

An element is a tuple (a_1..a_l, b) of exponents mod M = 2^K: the a_i are the
coordinate exponents and b is the extra spin coordinate, subject to
2b = a_1 + ... + a_l (mod M).  Distinguished exponents: varpi = zeta^(M/4)
(a primitive fourth root of unity, varpi^2 = -1) and zeta_q = zeta^2 (order
M/2 = 4 * (q-1)_2 at the default precision, with zeta_q^((q-1)_2) = varpi).
"""

from dataclasses import dataclass
import json
import re


@dataclass(frozen=True)
class TorusElt:
    K: int
    a: tuple       # exponents mod M = 2^K
    b: int

    def __post_init__(self):
        M = 1 << self.K
        object.__setattr__(self, "a", tuple(x % M for x in self.a))
        object.__setattr__(self, "b", self.b % M)
        if (2 * self.b - sum(self.a)) % M != 0:
            raise ValueError("spin coordinate violates 2b = sum(a)")

    @property
    def modulus(self):
        return 1 << self.K

    def __mul__(self, other):
        if self.K != other.K:
            raise ValueError("mixed precision")
        return TorusElt(self.K, tuple(x + y for x, y in zip(self.a, other.a)),
                        self.b + other.b)

    def inv(self):
        return TorusElt(self.K, tuple(-x for x in self.a), -self.b)

    def power(self, n):
        return TorusElt(self.K, tuple(n * x for x in self.a), n * self.b)

    def key(self):
        return (self.a, self.b)

    def to_json(self):
        return json.dumps({"a": list(self.a), "b": self.b, "K": self.K},
                          sort_keys=True)


def from_json(text):
    d = json.loads(text)
    return TorusElt(d["K"], tuple(d["a"]), d["b"])


def identity(l, K):
    return TorusElt(K, (0,) * l, 0)


def h0(l, K):
    """The distinguished central involution."""
    M = 1 << K
    return TorusElt(K, (0,) * l, M // 2)


def varpi_exp(K):
    """Exponent of the fourth root of unity varpi."""
    return (1 << K) // 4


def default_precision(q):
    """K = v_2(q-1) + 3, so M = 8 * (q-1)_2."""
    if q % 2 == 0 or q < 3:
        raise ValueError("q must be an odd prime power >= 3")
    v = 0
    m = q - 1
    while m % 2 == 0:
        v += 1
        m //= 2
    return v + 3


def h_root(l, K, alpha, c):
    """One-parameter coroot image h_alpha(zeta^c) for a type-B root alpha."""
    M = 1 << K
    supp = [(i, alpha[i]) for i in range(l) if alpha[i] != 0]
    a = [0] * l
    if len(supp) == 1:
        i, m = supp[0]
        a[i] = 2 * m * c
        b = m * c
    elif len(supp) == 2:
        (i, mi), (j, mj) = supp
        a[i] = mi * c
        a[j] = mj * c
        b = (mi + mj) // 2 * c
    else:
        raise ValueError("not a type-B root")
    return TorusElt(K, tuple(a), b)


def h_set(l, K, indices, c):
    """h_I(zeta^c) = product over i in I of h_{e_i}(zeta^c)."""
    a = [0] * l
    for i in indices:
        a[i - 1] = 2 * c
    return TorusElt(K, tuple(a), len(set(indices)) * c)


def root_eval(h, alpha):
    """Exponent of alpha evaluated at the torus element, mod M."""
    M = h.modulus
    return sum(m * x for m, x in zip(alpha, h.a)) % M


def weyl_act(p, h):
    """Action of a signed permutation on a torus element."""
    l = len(h.a)
    a = [0] * l
    shift = 0
    for i in range(1, l + 1):
        j = p.imgs[i - 1]
        if j > 0:
            a[j - 1] = h.a[i - 1]
        else:
            a[-j - 1] = -h.a[i - 1]
            shift += h.a[i - 1]
    return TorusElt(h.K, tuple(a), h.b - shift)


def spin_weight_exponent(h, mu):
    """Phase exponent of the spin weight mu (a +-1 vector) at the element:
    b minus the sum of a_i over the coordinates where mu_i = -1."""
    return (h.b - sum(x for x, m in zip(h.a, mu) if m == -1)) % h.modulus


def halves_group(l, K):
    """H_0: products of h_{e_i}(t_i), t_i in <varpi>, with product of t_i^2 = 1.

    Since h_{e_i}(-1) is the single central element h_0 for every i, the group
    has order 2^l.  Returned as a deduplicated element list."""
    from itertools import product as iproduct
    w = varpi_exp(K)
    out = {}
    for cs in iproduct(range(4), repeat=l):
        if sum(cs) % 2 != 0:
            continue
        a = tuple(2 * c * w for c in cs)
        h = TorusElt(K, a, sum(cs) * w)
        out[h.key()] = h
    return sorted(out.values(), key=lambda h: h.key())


def center_elements(l, K):
    """The 4-element center, solved from the root equations.

    Independent derivation: a_i - a_j = a_i + a_j = 0 for all i < j forces all
    a_i equal to a common s with 2s = 0; then b solves 2b = l*s."""
    M = 1 << K
    out = []
    for s in range(M):
        if (2 * s) % M != 0:
            continue
        for b in range(M):
            if (2 * b - l * s) % M == 0:
                out.append(TorusElt(K, (s,) * l, b))
    return out


def center_generators(l, K):
    """h_0 and h_{1..l}(varpi); their closure is the center."""
    return [h0(l, K), h_set(l, K, range(1, l + 1), varpi_exp(K))]


def lang2(h, q):
    """The 2-power part of the Lang map on the torus: h -> h^(q-1)."""
    return h.power(q - 1)


def lang2_preimage(h, q):
    """Lex-least (a_1..a_l, b) with that image under the Lang map.

    Per coordinate the solutions of (q-1)*x = target (mod M) form an
    arithmetic progression; backtracking resolves the spin-coordinate
    congruence, preferring smaller exponents in earlier coordinates.
    """
    from math import gcd
    M = h.modulus
    n = q - 1
    g = gcd(n, M)

    def coord_solutions(t):
        if t % g != 0:
            return []
        # solve (n/g) x = t/g (mod M/g), then all lifts
        Mg = M // g
        x0 = (t // g) * pow(n // g, -1, Mg) % Mg
        return [x0 + k * Mg for k in range(g)]

    sols = [coord_solutions(t) for t in h.a]
    bsols = coord_solutions(h.b)
    if any(not s for s in sols) or not bsols:
        return None
    l = len(h.a)

    def backtrack(i, acc, total):
        if i == l:
            for b in bsols:
                if (2 * b - total) % M == 0:
                    return acc + [b]
            return None
        for x in sols[i]:
            r = backtrack(i + 1, acc + [x], total + x)
            if r is not None:
                return r
        return None

    r = backtrack(0, [], 0)
    if r is None:
        return None
    return TorusElt(h.K, tuple(r[:-1]), r[-1])


def format_h_set(indices, symbol):
    """Text form like 'h[1,3](w)'."""
    return "h[" + ",".join(str(i) for i in sorted(set(indices))) + f"]({symbol})"


def parse_h_set(text, l, K):
    """Parse 'h[1,3](w)' style text into a TorusElt."""
    m = re.fullmatch(r"h\[([0-9,\s]*)\]\(([^)]+)\)", text.strip())
    if not m:
        raise ValueError(f"cannot parse torus text: {text!r}")
    indices = [int(t) for t in m.group(1).split(",") if t.strip()]
    sym = m.group(2).strip()
    M = 1 << K
    powm = re.fullmatch(r"(w|z)\^(-?\d+)", sym)
    if sym == "w":
        c = M // 4
    elif sym == "-1":
        c = M // 2
    elif sym == "z":
        c = 2
    elif sym == "1":
        c = 0
    elif powm:
        base = M // 4 if powm.group(1) == "w" else 2
        c = base * int(powm.group(2))
    else:
        raise ValueError(f"unknown torus argument {sym!r}")
    return h_set(l, K, indices, c)
