"""Character tables, extension solvers, wreath and product-glue builders."""

import os
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import char_engine
from weylkit.group_engine import FiniteGroup, quaternion_group, Perm
from weylkit.spin_monomial import SpinCtx
from weylkit.signed_perm import SignedPerm, flip, transposition, full_group
from weylkit.char_engine import (CharTable, common_tables, extends_to,
                                 maximal_extendibility, linear_characters,
                                 char_order, linear_ext_cocycle,
                                 verify_halves_extension, wreath_ext_map,
                                 cor_tool_build, transversal_check,
                                 _minpoly_roots, _split_roots, _is_prime,
                                 _next_prime_1mod)


def s3_group():
    return FiniteGroup(gens=[Perm((1, 0, 2)), Perm((0, 2, 1))])


def d8_group():
    return FiniteGroup(gens=[flip(2, 1), transposition(2, 1, 2)])


def test_char_table_s3():
    t = CharTable(s3_group())
    assert t.r == 3
    assert sorted(t.degree_of(chi) for chi in t.irreducibles) == [1, 1, 2]
    # sum of squared degrees equals the order
    assert sum(t.degree_of(c) ** 2 for c in t.irreducibles) == 6


def test_char_table_d8():
    t = CharTable(d8_group())
    assert sorted(t.degree_of(chi) for chi in t.irreducibles) == [1, 1, 1, 1, 2]


def test_first_orthogonality():
    t = CharTable(s3_group())
    for i, a in enumerate(t.irreducibles):
        for j, b in enumerate(t.irreducibles):
            assert t.inner(a, b) == (1 if i == j else 0)


def test_restriction_and_extends_a3_in_s3():
    g = s3_group()
    a3 = FiniteGroup(gens=[Perm((1, 2, 0))])
    tables = common_tables(g, a3)
    tg, ta = tables
    lin = [c for c in ta.irreducibles if ta.degree_of(c) == 1]
    trivial = next(c for c in lin if all(v == 1 for v in c))
    assert extends_to(g, a3, trivial, tables=tables)
    nontriv = [c for c in lin if c != trivial]
    # the two faithful characters of A3 are fused, not extended
    for c in nontriv:
        assert not extends_to(g, a3, c, tables=tables)


def test_maximal_extendibility_c2_in_d8():
    g = d8_group()
    z = g.center()
    ok, detail = maximal_extendibility(g, z)
    assert not ok     # the faithful central character cannot extend
    c4 = FiniteGroup(gens=[flip(2, 1) * transposition(2, 1, 2)])
    ok, _ = maximal_extendibility(g, c4)
    assert ok


def test_stabilizers_match_conj_char():
    g = d8_group()
    c4 = FiniteGroup(gens=[flip(2, 1) * transposition(2, 1, 2)])
    _, tn = common_tables(g, c4)
    stabs = list(tn.stabilizers(g.elements))
    assert [chi for chi, _ in stabs] == tn.irreducibles
    for chi, stab in stabs:
        assert stab == [x for x in g.elements if tn.conj_char(chi, x) == chi]
    # the two faithful characters of C4 are swapped by the reflections
    assert sorted(len(stab) for _, stab in stabs) == [4, 4, 8, 8]


def test_unsuitable_prime_raises():
    with pytest.raises(ValueError, match="unsuitable"):
        CharTable(s3_group(), p=7)


def test_degree_past_half_the_prime_raises():
    t = CharTable(s3_group())
    assert t.degree_of(t.irreducibles[0]) == 1
    with pytest.raises(ArithmeticError, match="not below p/2"):
        t.degree_of((t.p // 2,) + (0,) * (t.r - 1))


def test_tables_of_different_moduli_are_rejected():
    g = s3_group()
    t13, t19 = CharTable(g, p=13), CharTable(g, p=19)
    chi = t19.irreducibles[-1]
    assert t19.restrict_from(t19, chi) == chi
    with pytest.raises(ValueError, match="share the modulus"):
        t13.restrict_from(t19, chi)
    with pytest.raises(ValueError, match="share the modulus"):
        t13.induce_to(t19, t13.irreducibles[-1])


def test_unsplit_table_raises(monkeypatch):
    monkeypatch.setattr(CharTable, "_split", lambda self, space, A, p: [space])
    with pytest.raises(ArithmeticError, match="failed to split"):
        CharTable(s3_group())


def test_non_invariant_subspace_raises():
    t = CharTable(s3_group())
    swap = [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    with pytest.raises(ArithmeticError, match="not invariant"):
        t._split([[1, 0, 0], [0, 1, 0]], swap, t.p)


def _expand(roots, p):
    """Coefficients, lowest degree first, of prod (x - r) over F_p."""
    f = [1]
    for r in roots:
        f = [(a - r * b) % p for a, b in zip([0] + f, f + [0])]
    return f


@given(st.data())
@settings(max_examples=100, deadline=None)
def test_split_roots_recovers_distinct_roots(data):
    e = data.draw(st.integers(1, 48))
    p = _next_prime_1mod(e, data.draw(st.integers(2, 5000)))
    assert (p - 1) % e == 0
    roots = data.draw(st.sets(st.integers(0, p - 1), min_size=1,
                              max_size=min(12, p)))
    assert _split_roots(_expand(roots, p), p) == sorted(roots)


def test_split_roots_rejects_repeated_root_and_irreducible_quadratic():
    with pytest.raises(ArithmeticError):
        _split_roots(_expand([3, 3, 5], 7), 7)
    with pytest.raises(ArithmeticError):
        _split_roots([1, 0, 1], 7)        # x^2 + 1: -1 is no square mod 7
    with pytest.raises(ArithmeticError):
        _minpoly_roots([[1, 0], [1, 1]], 7)     # a Jordan block


def test_is_prime_matches_trial_division():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))
    assert all(_is_prime(n) == trial(n) for n in range(20001))
    # strong pseudoprimes to the bases 2, 3, 5 and 7, and a Mersenne prime
    assert not _is_prime(3215031751)
    assert _is_prime(2 ** 61 - 1)


def test_table_entries_and_roots_are_python_ints():
    t = CharTable(d8_group())
    assert all(type(x) is int for row in t.irreducibles for x in row)
    roots = _minpoly_roots([[0, 1], [1, 0]], 5)
    assert roots == [1, 4]
    assert all(type(x) is int for x in roots)


def test_linear_characters_klein():
    g = FiniteGroup(gens=[flip(2, 1), flip(2, 2)])
    chars = linear_characters(g)
    assert len(chars) == 4
    for lam in chars:
        for a in g.elements:
            for b in g.elements:
                assert (lam[a] + lam[b]) % 1 == lam[a * b]
    assert sorted(char_order(lam) for lam in chars) == [1, 2, 2, 2]


def test_cocycle_solver_positive_case():
    g = d8_group()
    c4 = FiniteGroup(gens=[flip(2, 1) * transposition(2, 1, 2)])
    for lam in linear_characters(c4):
        stable = all(lam[h * x * h.inv()] == lam[x]
                     for h in g.gens for x in c4.elements)
        res = linear_ext_cocycle(lam, c4, g)
        if stable:
            assert res.ok
            for a in g.elements:
                for b in g.elements:
                    assert (res.witness[a] + res.witness[b]) % 1 \
                        == res.witness[a * b]
        else:
            assert not res.ok


def test_cocycle_solver_quaternion_obstruction():
    q8, z = quaternion_group()
    center = FiniteGroup(gens=[z])
    lam = {center.identity: Fraction(0), z: Fraction(1, 2)}
    res = linear_ext_cocycle(lam, center, q8)
    assert not res.ok
    assert res.certificate is not None
    assert res.certificate[0] == "central-derived intersection"
    # the non-faithful central character extends fine
    triv = {center.identity: Fraction(0), z: Fraction(0)}
    assert linear_ext_cocycle(triv, center, q8).ok


@dataclass(frozen=True)
class _Heis:
    """Upper unitriangular 3x3 matrix over Z/4 with entries a, b and
    corner c; its center and derived subgroup are both {(0, 0, c)}."""
    a: int
    b: int
    c: int

    def __mul__(self, o):
        return _Heis((self.a + o.a) % 4, (self.b + o.b) % 4,
                     (self.c + o.c + self.a * o.b) % 4)

    def inv(self):
        return _Heis(-self.a % 4, -self.b % 4, (self.a * self.b - self.c) % 4)

    def key(self):
        return (self.a, self.b, self.c)


def test_obstruction_certificate_is_least_central_value():
    # H = K' = Z(K) is cyclic of order 4, so m * lam takes every value mod m
    # on H meet K' and the certificate names the least nonzero one
    heis = FiniteGroup(gens=[_Heis(1, 0, 0), _Heis(0, 1, 0)])
    center = FiniteGroup(gens=[_Heis(0, 0, 1)])
    for t, m in ((1, 4), (2, 2), (3, 4)):
        lam = {h: Fraction(t * h.c, 4) % 1 for h in center}
        res = linear_ext_cocycle(lam, center, heis)
        assert not res.ok
        assert res.certificate == ("central-derived intersection", 1, m)


def test_char_order_is_exact():
    # the denominator 2000001 is past Fraction.limit_denominator's default
    # bound of 10**6; the value is no character of C2, and the witness check
    # says so
    q8, z = quaternion_group()
    center = FiniteGroup(gens=[z])
    lam = {center.identity: Fraction(0), z: Fraction(1, 2000001)}
    assert char_order(lam) == 2000001
    with pytest.raises(ArithmeticError, match="not multiplicative"):
        linear_ext_cocycle(lam, center, center)


def test_cocycle_witness_multiplicativity_check_raises():
    # not a character of C4: lam(g) + lam(g) != lam(g^2)
    c4 = FiniteGroup(gens=[Perm((1, 2, 3, 0))])
    g = Perm((1, 2, 3, 0))
    lam = {c4.identity: Fraction(0), g: Fraction(1, 4),
           g * g: Fraction(1, 4), g * g * g: Fraction(3, 4)}
    with pytest.raises(ArithmeticError, match="not multiplicative"):
        linear_ext_cocycle(lam, c4, c4)


def test_stabilizers_match_pairwise_formula(monkeypatch):
    """On verify_halves_extension(2)'s groups: each stabilizer is the set of
    g in V-bar fixing the character on H's generators."""
    calls = []
    real = char_engine.linear_ext_cocycle

    def recording(lam, normal, big, **kw):
        calls.append((lam, normal, big))
        return real(lam, normal, big, **kw)

    monkeypatch.setattr(char_engine, "linear_ext_cocycle", recording)
    assert all(ok for _, ok, _ in verify_halves_extension(2))
    assert len(calls) == 4

    vbar = FiniteGroup(gens=SpinCtx(2).vbar_gens(range(1, 3)))
    for lam, normal, big in calls:
        assert big.elements == [
            g for g in vbar
            if all(lam[g * h * g.inv()] == lam[h] for h in normal.gens)]


def _normal_subgroups(g):
    """Every normal subgroup of g, as the unions of classes closed under
    multiplication."""
    classes = g.conj_classes()
    out = []
    for mask in range(1 << (len(classes) - 1)):
        elems = set(classes[0])
        for i, c in enumerate(classes[1:]):
            if mask >> i & 1:
                elems.update(c)
        if all(a * b in elems for a in elems for b in elems):
            out.append(FiniteGroup(elements=elems))
    return out


def test_linear_extension_matches_brute_force():
    """ok iff some linear character of K restricts to lam, for every linear
    character lam of every normal subgroup N of D8, Q8, B3 and the signed
    group of weights (1, 1, 2), with K = G and K = the stabilizer of lam."""
    outcomes = []
    for g in (d8_group(), quaternion_group()[0],
              FiniteGroup(elements=full_group((1, 1, 1))),
              FiniteGroup(elements=full_group((1, 1, 2)))):
        g.reduce_gens()
        for normal in _normal_subgroups(g):
            for lam in linear_characters(normal):
                stab = FiniteGroup(elements=[
                    x for x in g
                    if all(lam[x * h * x.inv()] == lam[h] for h in normal)])
                stab.reduce_gens()
                for big in (g, stab):
                    want = any(all(chi[h] == lam[h] for h in normal)
                               for chi in linear_characters(big))
                    res = linear_ext_cocycle(lam, normal, big)
                    assert res.ok == want
                    if res.ok:
                        assert all(res.witness[h] == lam[h] for h in normal)
                    elif big is stab:
                        kind, z, m = res.certificate
                        assert kind == "central-derived intersection"
                        assert 0 < z < m == char_order(lam)
                    outcomes.append((big is stab, res.ok))
    assert len(outcomes) == 306
    # a stable character that does not extend occurs, and each other outcome
    assert len(set(outcomes)) == 4


def test_halves_extension_rank2():
    recs = verify_halves_extension(2)
    bad = [name for name, ok, _ in recs if not ok]
    assert not bad, bad


def test_wreath_ext_map_c2_squared():
    out = wreath_ext_map((2,), [((1,),)], 2)
    assert out["equivariant"]
    assert len(out["map"]) == 4      # all pairs of the two characters of C2


def test_wreath_ext_map_with_outer_action():
    # base C3 with the inversion twist, two copies, diagonal inversion on top
    out = wreath_ext_map((3,), [((1,),), ((2,),)], 2, a_mats=[((2,),)])
    assert out["equivariant"]


def test_wreath_twists_close_to_the_generated_group():
    # two generators of GL2(F2), neither of which alone gives all six
    gens = [((1, 1), (0, 1)), ((0, 1), (1, 0))]
    ctx = char_engine.WreathCtx((2, 2), gens, 1)
    assert len(ctx.y_mats) == 6
    assert ctx.y_mats == sorted(ctx.y_mats)
    assert all(char_engine._mat_compose(m, n, ctx.invs) in ctx.y_index
               for m in ctx.y_mats for n in ctx.y_mats)
    # SL2(F29) has 24,360 elements, past the closure limit of 10**4
    with pytest.raises(ValueError, match="closure too large"):
        char_engine.WreathCtx((29, 29), [((1, 1), (0, 1)),
                                         ((0, 1), (28, 0))], 1)


_BAD_BASE_MAP = """
from fractions import Fraction
from weylkit.char_engine import wreath_ext_map
# S = C3 x| C2 (inversion twist) is S3; its base map on the trivial character
# of C3 gets the value 1/3 on the involution ((0,), 1), so it is no character
base = wreath_ext_map((3,), [((2,),)], 2)["base_map"]
bad = {c: dict(vals) for c, vals in base.items()}
bad[(0,)][((0,), 1)] = Fraction(1, 3)
try:
    wreath_ext_map((3,), [((2,),)], 2, base_map=bad)
except ValueError as e:
    print("ValueError:", e)
"""


def test_wreath_ext_map_rejects_non_multiplicative_base_map():
    # the input-map checks raise, so python -O (which strips asserts) keeps
    # them
    env = dict(os.environ, PYTHONPATH=os.path.abspath(
        os.path.join(os.path.dirname(__file__), os.pardir, "src")))
    for flags in ((), ("-O",)):
        r = subprocess.run([sys.executable, *flags, "-c", _BAD_BASE_MAP],
                           capture_output=True, text=True, env=env,
                           check=True)
        assert r.stdout.startswith("ValueError: input map is not "
                                   "multiplicative")


def test_cor_tool_build_toy():
    m = FiniteGroup(gens=[flip(2, 1), flip(2, 2), transposition(2, 1, 2)])
    s = transposition(2, 1, 2)
    ff = flip(2, 1) * flip(2, 2)
    k = FiniteGroup(gens=[ff, s])
    k0 = FiniteGroup(gens=[s])
    v = FiniteGroup(gens=[flip(2, 1), flip(2, 2)])
    out = cor_tool_build(m, k, k0, v)
    assert out["equivariant"]
    lam_map = out["map"]
    for lam_key, big in lam_map.items():
        lam = dict(zip(k.elements, lam_key))
        for h in k.elements:
            assert big[h] == lam[h] % 1


def test_cor_tool_build_bad_hypotheses():
    m = FiniteGroup(gens=[flip(2, 1), flip(2, 2), transposition(2, 1, 2)])
    triv = FiniteGroup(elements=[m.identity])
    with pytest.raises(ValueError, match="central"):
        # K = V = M makes H = M, which is not central in the nonabelian K
        cor_tool_build(m, m, triv, m)


def test_transversal_check_d8():
    rot = Perm((1, 2, 3, 0))
    ref = Perm((3, 2, 1, 0))
    z = FiniteGroup(gens=[rot, ref])
    xt = FiniteGroup(gens=[rot])
    yh = FiniteGroup(gens=[rot * rot, ref])
    out = transversal_check(z, yh, xt)
    assert out["stable_transversal"] == out["factorizing_conjugate"] \
        == out["in_place_factorization"]
    assert out["stable_transversal"] is True
