"""Generic finite-group machinery over hashable elements with * and inv."""

import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from weylkit import char_engine
from weylkit.group_engine import (FiniteGroup, closure, quotient,
                                  small_generating_set, product_set,
                                  quaternion_group, Perm,
                                  ClosureCapExceeded, _coset_extension,
                                  _find_identity)
from weylkit.signed_perm import SignedPerm, flip, transposition, full_group


def b2_group():
    return FiniteGroup(gens=[flip(2, 1), transposition(2, 1, 2)])


def test_closure_b2():
    g = b2_group()
    assert g.order == 8


def test_closure_cap():
    with pytest.raises(ClosureCapExceeded):
        closure([transposition(6, 1, 2), transposition(6, 2, 3),
                 transposition(6, 3, 4), transposition(6, 4, 5),
                 transposition(6, 5, 6), flip(6, 1)], cap=100)


def test_identity_and_membership():
    g = b2_group()
    assert g.identity == SignedPerm.identity(2)
    assert flip(2, 2) in g
    assert SignedPerm((2, 1)) in g


def test_center_and_classes_b2():
    g = b2_group()
    z = g.center()
    assert z.order == 2
    classes = g.conj_classes()
    assert sorted(len(c) for c in classes) == [1, 1, 2, 2, 2]


def test_subgroup_and_normality():
    g = b2_group()
    rot = FiniteGroup(gens=[flip(2, 1) * transposition(2, 1, 2)])
    assert rot.order == 4
    assert rot.is_subgroup_of(g)
    assert g.is_normal(rot)
    refl = FiniteGroup(gens=[transposition(2, 1, 2)])
    assert not g.is_normal(refl)


def test_quotient_of_d8_by_center():
    g = b2_group()
    q = quotient(g, g.center())
    assert q.order == 4
    assert all((c * c).rep == q.identity.rep for c in q.elements)


def test_normalizer_inside_ambient():
    g = b2_group()
    sub = FiniteGroup(gens=[flip(2, 1)])
    n = g.normalizer(sub)
    assert sub.is_subgroup_of(n)
    assert n.order == 4


def test_small_generating_set():
    g = b2_group()
    gens = small_generating_set(g.elements)
    assert len(gens) <= 3
    assert set(closure(gens)) == set(g.elements)


B3 = sorted(full_group((1, 1, 1)), key=lambda g: g.key())


@given(st.lists(st.sampled_from(B3), min_size=1, max_size=4))
@settings(max_examples=80, deadline=None)
def test_coset_extension_is_closure(gens):
    *rest, g = gens
    sub = set(closure(rest)) if rest else {SignedPerm.identity(3)}
    assert _coset_extension(sub, gens, g) == set(closure(gens))


B112 = sorted(full_group((1, 1, 2)), key=lambda g: g.key())


def _closure_reference(gens):
    """Breadth-first closure: every element times every generator."""
    ident = gens[0] * gens[0].inv()
    seen = {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = x * g
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return sorted(seen, key=lambda g: g.key())


@given(st.sampled_from([B3, B112]).flatmap(
    lambda elems: st.lists(st.sampled_from(elems), min_size=1, max_size=5)))
@settings(max_examples=80, deadline=None)
def test_closure_matches_breadth_first_reference(gens):
    assert closure(gens) == _closure_reference(gens)


def _derived_reference(group):
    """The closure of every commutator [x, y] = x y x^-1 y^-1."""
    inv = {x: x.inv() for x in group}
    return _closure_reference(sorted({x * y * inv[x] * inv[y]
                                      for x in group for y in group},
                                     key=lambda g: g.key()))


def test_derived_subgroup_is_closure_of_all_commutators(monkeypatch):
    # in S4 = <(0 1), (0 1 2 3)> the generator commutator spans a cyclic
    # group; S4' = A4 needs its conjugates
    s4 = FiniteGroup(gens=[Perm((1, 0, 2, 3)), Perm((1, 2, 3, 0))])
    groups = [b2_group(), quaternion_group()[0], FiniteGroup(elements=B3),
              FiniteGroup(elements=B112), s4]
    # the stabilizers that verify_halves_extension(3) extends characters to
    stabs = []
    real = char_engine.linear_ext_cocycle

    def recording(lam, normal, big, **kw):
        stabs.append(big)
        return real(lam, normal, big, **kw)

    monkeypatch.setattr(char_engine, "linear_ext_cocycle", recording)
    char_engine.verify_halves_extension(3)
    assert len(stabs) == 8
    for group in groups + stabs:
        assert group.derived_subgroup().elements == _derived_reference(group)


@pytest.mark.parametrize("elements", [B3, B112], ids=["B3", "B112"])
def test_conj_classes_match_brute_force(elements):
    group = FiniteGroup(elements=elements)
    classes = {frozenset(x * g * x.inv() for x in elements)
               for g in elements}
    expect = sorted((sorted(c, key=lambda e: e.key()) for c in classes),
                    key=lambda c: (c[0] != group.identity, len(c),
                                   c[0].key()))
    assert group.conj_classes() == expect


def _small_generating_set_reference(elements, seed_gens=()):
    """The greedy choice with every subgroup rebuilt by closure."""
    elements = sorted(set(elements), key=lambda g: g.key())
    gens = list(seed_gens)
    cur = set(closure(gens)) if gens else {_find_identity(elements)}
    for g in elements:
        if len(cur) == len(elements):
            break
        if g not in cur:
            gens.append(g)
            cur = set(closure(gens))
    return gens


@pytest.mark.parametrize("elements", [b2_group().elements,
                                      quaternion_group()[0].elements, B3],
                         ids=["D8", "Q8", "B3"])
def test_small_generating_set_matches_reference(elements):
    assert small_generating_set(elements) == \
        _small_generating_set_reference(elements)
    seeds = [elements[-1]]
    assert small_generating_set(elements, seed_gens=seeds) == \
        _small_generating_set_reference(elements, seed_gens=seeds)


def test_product_set():
    a = [SignedPerm.identity(2), flip(2, 1)]
    b = [SignedPerm.identity(2), flip(2, 2)]
    assert len(product_set(a, b)) == 4


def test_perm_algebra():
    a = Perm((1, 2, 0))
    b = Perm((1, 0, 2))
    assert (a * a.inv()).imgs == (0, 1, 2)
    assert (a * b).imgs == tuple(a.imgs[i] for i in b.imgs)


def test_quaternion_group_structure():
    q8, z = quaternion_group()
    assert q8.order == 8
    assert z in q8 and z * z == q8.identity
    assert q8.center().order == 2
    # unique involution, six elements of order 4
    orders = []
    for g in q8.elements:
        k, x = 1, g
        while x != q8.identity:
            x = x * g
            k += 1
        orders.append(k)
    assert sorted(orders) == [1, 2, 4, 4, 4, 4, 4, 4]
    der = q8.derived_subgroup()
    assert set(der.elements) == {q8.identity, z}


_COUNT_PRODUCTS = """
from weylkit import signed_perm, spin_monomial
from weylkit.char_engine import verify_halves_extension
from weylkit.shadow import sweep_stable_cover
counts = []
for cls, run in ((spin_monomial.MonomialElt,
                  lambda: verify_halves_extension(3, seed=0)),
                 (signed_perm.SignedPerm,
                  lambda: sweep_stable_cover(max_orbits=2))):
    count = 0
    orig = cls.__mul__

    def mul(a, b):
        global count
        count += 1
        return orig(a, b)

    cls.__mul__ = mul
    run()
    cls.__mul__ = orig
    counts.append(count)
print(*counts)
"""


def test_product_count_does_not_depend_on_hash_seed():
    # closure, coset extension and the derived subgroup walk sets and dicts;
    # the number of products they make must not follow the hash order
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    counts = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed,
                   PYTHONPATH=os.path.abspath(src))
        r = subprocess.run([sys.executable, "-c", _COUNT_PRODUCTS],
                           capture_output=True, text=True, env=env, check=True)
        counts.append([int(c) for c in r.stdout.split()])
    assert counts[0] == counts[1]
    assert min(counts[0]) > 0
