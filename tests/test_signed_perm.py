"""Signed permutations and the relative Weyl group formula vs its oracle."""

from math import factorial

from hypothesis import given, settings, strategies as st
import pytest

from weylkit import signed_perm
from weylkit.root_levi import decompose, all_levi_subsets, levi_roots
from weylkit.signed_perm import (SignedPerm, flip, transposition, full_group,
                                 full_group_order, in_d_subgroup,
                                 act_on_root, levi_stabilizer,
                                 rel_weyl, rel_weyl_oracle,
                                 rel_weyl_matches_oracle, from_json)


def rand_signed_perm(rng, n):
    imgs = list(range(1, n + 1))
    rng.shuffle(imgs)
    return SignedPerm(tuple(s * i for s, i in
                            zip((rng.choice((1, -1)) for _ in imgs), imgs)))


@given(st.integers(2, 5), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_group_axioms(n, rng):
    a = rand_signed_perm(rng, n)
    b = rand_signed_perm(rng, n)
    c = rand_signed_perm(rng, n)
    e = SignedPerm.identity(n)
    assert (a * b) * c == a * (b * c)
    assert a * e == a and e * a == a
    assert a * a.inv() == e


def test_action_is_antihomomorphic_on_points():
    # act composes so that (a*b) acts as a after b
    a = SignedPerm((2, -1, 3))
    b = SignedPerm((-3, 2, 1))
    for i in range(1, 4):
        j = b.act(i)
        j = a.act(abs(j)) * (1 if j > 0 else -1)
        assert (a * b).act(i) == j


def _ref_mul(a, b):
    """The product on plain image tuples, through the signed action."""
    def act(imgs, i):
        return imgs[i - 1] if i > 0 else -imgs[-i - 1]
    return tuple(act(a, b[i]) for i in range(len(a)))


def _ref_inv(a):
    out = [0] * len(a)
    for i in range(1, len(a) + 1):
        j = a[i - 1]
        out[abs(j) - 1] = i if j > 0 else -i
    return tuple(out)


@given(st.integers(1, 6), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_kernel_matches_tuple_reference(n, rng):
    a = rand_signed_perm(rng, n)
    b = rand_signed_perm(rng, n)
    ab = a * b
    assert type(ab.imgs) is tuple and ab.imgs == _ref_mul(a.imgs, b.imgs)
    assert a.inv().imgs == _ref_inv(a.imgs)
    assert (a == b) == (a.imgs == b.imgs)
    assert (a != b) == (a.imgs != b.imgs)
    twin = SignedPerm(tuple(a.imgs))
    assert twin == a and hash(twin) == hash(a) == hash(a.imgs)
    assert len({a, b, twin}) == len({a.imgs, b.imgs})


def test_kernel_repr_and_foreign_equality():
    p = SignedPerm((2, -1))
    assert repr(p) == "SignedPerm(imgs=(2, -1))"
    assert SignedPerm((1, 2)) != (1, 2)
    assert SignedPerm((1, 2)).__eq__((1, 2)) is NotImplemented
    assert not hasattr(p, "__dict__")


def test_flip_and_transposition():
    f = flip(3, 2)
    assert f.imgs == (1, -2, 3)
    assert f * f == SignedPerm.identity(3)
    t = transposition(3, 1, 3)
    assert t.imgs == (3, 2, 1)
    s = transposition(3, 1, 3, sign=-1)
    assert s.imgs == (-3, 2, -1)


def test_full_group_order_matches_enumeration():
    for weights in ((1, 1), (1, 2), (2, 2), (1, 1, 2)):
        elems = full_group(weights)
        assert len(elems) == full_group_order(weights)
        assert len({p.key() for p in elems}) == len(elems)


def test_full_group_preserves_weights():
    weights = (1, 2, 2)
    for p in full_group(weights):
        for i in range(len(weights)):
            assert weights[abs(p.imgs[i]) - 1] == weights[i]


def test_d_subgroup_is_index_two():
    weights = (1, 1, 2)
    elems = full_group(weights)
    inside = [p for p in elems if in_d_subgroup(p, weights)]
    assert 2 * len(inside) == len(elems)


def test_json_round_trip():
    p = SignedPerm((2, -1, 3))
    assert from_json(p.to_json()) == p


def test_rel_weyl_matches_oracle_small_ranks():
    for l in (2, 3):
        for delta in all_levi_subsets(l):
            dec = decompose(l, sorted(delta))
            ok, checks = rel_weyl_matches_oracle(dec)
            assert ok, (l, sorted(delta), checks)


def test_rel_weyl_order_frozen_examples():
    # empty Levi: labels form the full hyperoctahedral group on l points
    dec = decompose(4, ())
    orc = rel_weyl_oracle(dec)
    assert len(orc["image"]) == 2 ** 4 * factorial(4)
    assert len(orc["image_d"]) == 2 ** 3 * factorial(4)
    # full Levi: a single orbit, ambient of order 2
    dec = decompose(4, (1, 2, 3, 4))
    assert len(rel_weyl_oracle(dec)["image"]) <= 2


def test_rel_weyl_formula_equals_oracle_sets():
    dec = decompose(4, (1, 3))
    res = rel_weyl(dec)
    orc = rel_weyl_oracle(dec)
    assert set(res.ambient) == set(orc["image"])
    assert set(res.d_part) == set(orc["image_d"])


@pytest.mark.parametrize("l", [2, 3, 4, 5])
def test_levi_stabilizer_matches_full_group_scan(l):
    # the reference: every element of B_l that maps the Levi roots into
    # themselves, in the key order full_group gives
    whole = full_group((1,) * l)
    for delta in all_levi_subsets(l):
        dec = decompose(l, sorted(delta))
        phi = levi_roots(l, dec.delta_prime)
        scan = [w for w in whole if all(act_on_root(w, a) in phi for a in phi)]
        assert levi_stabilizer(dec)[0] == scan, sorted(delta)


def test_levi_stabilizer_has_howlett_shape():
    # N_W(W_L) = W_L x| N_L with N_L the relative Weyl group (Howlett 1980)
    for delta in all_levi_subsets(4):
        dec = decompose(4, sorted(delta))
        stab, levi = levi_stabilizer(dec)
        assert len(stab) == levi.order * len(rel_weyl(dec).ambient)


def test_hom_check_sees_a_swap_past_the_first_forty(monkeypatch):
    # x and y both send 1 to 4, and no product of two of stab[:40] (which
    # all send 1 to -4) does, so a check on stab[:40] squared misses the swap
    dec = decompose(4, ())
    stab = levi_stabilizer(dec)[0]
    real = signed_perm.orbit_label_map
    x = stab[-1]
    d = (1,) * 4
    y = next(w for w in reversed(stab[:-1])
             if in_d_subgroup(w, d) == in_d_subgroup(x, d))
    ident = SignedPerm.identity(len(dec.orbits))
    assert stab.index(y) >= 40 and x.imgs[0] == y.imgs[0] == 4
    assert ident != real(dec, x) != real(dec, y) != ident
    swap = {x: y, y: x}

    def swapped(dec, w):
        return real(dec, swap.get(w, w))

    monkeypatch.setattr(signed_perm, "orbit_label_map", swapped)
    ok, checks = rel_weyl_matches_oracle(dec)
    assert not ok
    assert not checks["hom"]
    assert all(v for k, v in checks.items() if k != "hom"), checks
