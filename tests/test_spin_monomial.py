"""Monomial lifts of signed permutations acting on the spinor basis."""

from fractions import Fraction

import pytest

from weylkit import spin_monomial, torus_model as tm
from weylkit.spin_monomial import (MonomialElt, cyc_mul, cyc_add, cyc_unit,
                                   cyc_as_unit, a_dag, a_ann, op_compose, op_add,
                                   op_identity, op_is_zero, op_scale,
                                   parity_op, weight_of_index, index_of_weight,
                                   SpinCtx, lift_unsigned, kappa,
                                   verify_relations)
from weylkit.root_levi import decompose, all_levi_subsets
from weylkit.group_engine import FiniteGroup


def test_cyclotomic_unit_arithmetic():
    M = 16
    w = cyc_unit(M // 4, M)   # fourth root of unity
    w2 = cyc_mul(w, w, M)
    assert cyc_as_unit(w2, M) == M // 2          # it squares to -1
    neg1 = cyc_unit(M // 2, M)
    assert cyc_mul(neg1, neg1, M) == cyc_unit(0, M)
    z = cyc_add(w2, cyc_unit(0, M), M)
    assert cyc_add(z, neg1, M) != cyc_unit(0, M) or True


def test_weight_index_bijection():
    l = 3
    for idx in range(2 ** l):
        mu = weight_of_index(idx, l)
        assert all(m in (1, -1) for m in mu)
        assert index_of_weight(mu) == idx


def test_fermionic_relations_rank2():
    l, M = 2, 16
    for i in (1, 2):
        d, a = a_dag(l, i, M), a_ann(l, i, M)
        assert op_is_zero(op_compose(d, d, M))
        assert op_is_zero(op_compose(a, a, M))
        anti = op_add(op_compose(d, a, M), op_compose(a, d, M), M)
        assert anti == op_identity(2 ** l)
    # different indices anticommute
    d1, a2 = a_dag(l, 1, M), a_ann(l, 2, M)
    s = op_add(op_compose(d1, a2, M), op_compose(a2, d1, M), M)
    assert op_is_zero(s)


def test_parity_op_squares_to_identity():
    l, M = 3, 16
    P = parity_op(l, M)
    assert op_compose(P, P, M) == op_identity(2 ** l)


def test_lifts_are_a_group_rank2():
    ctx = SpinCtx(2)
    gens = ctx.h_gens(range(1, 3)) + ctx.vbar_gens(range(1, 3))
    grp = FiniteGroup(gens=gens)
    assert grp.order == 4 ** 2 * 2
    e = ctx.identity()
    for g in gens:
        assert g * g.inv() == e


def test_lift_unsigned_projects_correctly():
    ctx = SpinCtx(3)
    sigma = (2, 3, 1)
    g = lift_unsigned(ctx, sigma)
    w = ctx.w_image(g)
    assert tuple(w.imgs) == sigma


def test_verify_relations_small_ranks():
    for l in (2, 3):
        recs = verify_relations(l)
        bad = [name for name, ok, _ in recs if not ok]
        assert not bad, bad


def test_verify_relations_with_decomposition():
    dec = decompose(3, (1,))
    recs = verify_relations(3, dec=dec)
    bad = [name for name, ok, _ in recs if not ok]
    assert not bad, bad


def test_lift_unsigned_rejects_a_sigma_it_cannot_lift():
    # a tail past the rank is never lifted, so the lift misses sigma
    with pytest.raises(ArithmeticError, match="project onto sigma"):
        lift_unsigned(SpinCtx(3), (1, 2, 3, 4))


def _kappa_reference(ctx, dec, d, x, order=None):
    """kappa from fresh lifts: the product of m x m^-1 over the maps."""
    fs = dec.f_maps(d)
    out = ctx.identity()
    for k in (order if order is not None else range(d)):
        m = lift_unsigned(ctx, fs[k])
        out = out * (m * x * m.inv())
    return out


def test_kappa_matches_fresh_lifts_rank4():
    l = 4
    checked = 0
    for delta in all_levi_subsets(l):
        dec = decompose(l, sorted(delta))
        ctx = SpinCtx(l)
        for d in sorted(dec.blocks):
            rev = list(reversed(range(d)))
            for x in ctx.vbar_gens(range(1, dec.multiplicity(d) + 1)):
                assert kappa(ctx, dec, d, x) == \
                    _kappa_reference(ctx, dec, d, x)
                assert kappa(ctx, dec, d, x, order=rev) == \
                    _kappa_reference(ctx, dec, d, x, order=rev)
                checked += 1
    assert checked == 34    # V-bar generators over all blocks of rank 4


def test_lifts_computed_once_per_block_weight(monkeypatch):
    calls = []
    real = spin_monomial.lift_unsigned

    def counting(ctx, sigma):
        calls.append(tuple(sigma))
        return real(ctx, sigma)

    monkeypatch.setattr(spin_monomial, "lift_unsigned", counting)
    dec = decompose(4, [1, 4])          # two weight-2 blocks {1,2}, {3,4}
    recs = verify_relations(4, dec=dec, rank_level=False)
    assert all(ok for _, ok, _ in recs)
    want = [f for d in sorted(dec.blocks) for f in dec.f_maps(d)]
    assert calls == want


def test_shared_context_gives_the_same_records():
    ctx = SpinCtx(3)
    assert verify_relations(3, ctx=ctx) == verify_relations(3)
    for delta in all_levi_subsets(3):
        dec = decompose(3, sorted(delta))
        assert verify_relations(3, dec=dec, rank_level=False, ctx=ctx) == \
            verify_relations(3, dec=dec, rank_level=False)


@pytest.mark.parametrize("l, K", [(2, 4), (3, 5)])
def test_mismatched_context_raises(l, K):
    with pytest.raises(ValueError, match="context of rank"):
        verify_relations(l, K=K, ctx=SpinCtx(3))


def test_torus_checks_raise():
    ctx = SpinCtx(2)
    # swaps |1> and |3>: |0> stays while |1> moves two coordinates away
    g = MonomialElt(ctx.M, (0, 3, 2, 1), (0,) * 4)
    with pytest.raises(ArithmeticError, match="does not normalize the torus"):
        ctx.w_image(g)
    with pytest.raises(ValueError, match="does not fit rank 2"):
        ctx.embed_torus(tm.h0(3, ctx.K))
