"""Shadow admissibility, stabilizer towers, the split, and the check sweeps."""

import logging
import random

import pytest

from weylkit.shadow import (OrbitSpec, CuspidalShadow, make_shadow,
                            shadow_from_json, validate, mu_symmetric,
                            build_groups, q1_positions, q_split,
                            table1_case, split_case_table,
                            obstructed_pair_example, verify_stable_cover,
                            enumerate_shadows, sweep_stable_cover,
                            random_shadow, verify_random_shadows,
                            config_signature, iter_stable_cover,
                            _weight_multisets, _check_key)


def simple_shadow(**kw):
    orbs = [OrbitSpec(2, "t", True, eps=1)]
    args = dict(h0_in_ker=True, stab_level="Ltilde")
    args.update(kw)
    return make_shadow(orbs, args["h0_in_ker"], args["stab_level"])


def test_round_trip_json():
    sh = simple_shadow()
    assert shadow_from_json(sh.to_json()) == sh


def test_validate_weight1_sign_forcing():
    # an order-1 character forces eps = +1, order 2 forces eps = -1
    for lin, eps in ((1, -1), (2, 1)):
        orbs = [OrbitSpec(1, "a", True, eps=eps, lin_order=lin)]
        with pytest.raises(ValueError):
            make_shadow(orbs, True, "Ltilde",
                        mu_pair=None if lin == 4 else None)


def test_validate_single_class_per_small_order():
    orbs = [OrbitSpec(1, "a", True, eps=1, lin_order=1),
            OrbitSpec(1, "b", True, eps=1, lin_order=1)]
    ok, msgs = validate(CuspidalShadow(orbits=tuple(orbs), h0_in_ker=True,
                                       stab_level="Ltilde"))
    assert not ok
    assert any("single class" in m for m in msgs)


def test_validate_no_weight1_self_pair():
    orbs = (OrbitSpec(1, "a", True, eps=1, lin_order=1),)
    sh = CuspidalShadow(orbits=orbs, h0_in_ker=True, stab_level="Ltilde",
                        mu_pair=(("a", "a"),))
    ok, msgs = validate(sh)
    assert not ok


def test_validate_forced_order12_pairing():
    orbs = (OrbitSpec(1, "a", True, eps=1, lin_order=1),
            OrbitSpec(1, "b", True, eps=-1, lin_order=2))
    bad = CuspidalShadow(orbits=orbs, h0_in_ker=True, stab_level="Ltilde")
    ok, _ = validate(bad)
    assert not ok
    good = make_shadow(list(orbs), True, "Ltilde",
                       mu_pair={"a": "b", "b": "a"})
    assert mu_symmetric(good)


def test_validate_distinguished_never_twist_fixed():
    orbs = (OrbitSpec(-1, "j", True, eps=1),)
    sh = CuspidalShadow(orbits=orbs, h0_in_ker=True, stab_level="Lhat",
                        mu_pair=(("j", "j"),))
    ok, msgs = validate(sh)
    assert not ok
    assert any("never twist-fixed" in m for m in msgs)


def test_build_groups_tower_and_formulas():
    sh = make_shadow([OrbitSpec(2, "t", True, eps=1)] * 2, True, "Ltilde")
    g = build_groups(sh)
    assert all(g.formula_match.values()), g.formula_match
    assert g.w_tilde.is_subgroup_of(g.w_hat)
    assert g.w_hat.is_subgroup_of(g.w)
    assert set(g.w.elements) <= set(g.k.elements)


def test_outer_group_stabilizes_first_part():
    sh = make_shadow([OrbitSpec(-1, "j", False),
                      OrbitSpec(1, "a", True, eps=1, lin_order=1),
                      OrbitSpec(1, "b", True, eps=-1, lin_order=2)],
                     True, "Ltilde", mu_pair={"a": "b", "b": "a"})
    g = build_groups(sh)
    q1 = q1_positions(sh)
    for k in g.k.elements:
        image = {abs(k.imgs[i]) - 1 for i in q1}
        assert image == q1


def test_q_split_direct_product():
    sh = make_shadow([OrbitSpec(-1, "j", False),
                      OrbitSpec(2, "t", True, eps=1)], True, "Ltilde")
    sp = q_split(sh)
    assert sp["direct_product"]
    assert sp["q1"] | sp["q2"] == {0, 1}
    assert sp["q1"].isdisjoint(sp["q2"])


def test_table1_alias_and_frozen_row():
    assert table1_case is split_case_table
    out = table1_case(1, 1, 1)
    assert out["ok"]
    assert out["w1_order"] == 1          # W(D1) x W(D1)
    assert out["k1_order"] == 16         # 2 * |W(B1)|^2 * 2 (equal parts)
    out2 = table1_case(2, 1, 2)
    assert out2["ok"]
    assert out2["w1_order"] == 8         # |W(B2)| * |W(D1)|
    assert out2["k1_order"] == 32        # 2 * |W(B2)| * |W(B1)|


def test_obstructed_pair_example():
    out = obstructed_pair_example()
    assert out["w_tilde_order"] == 2
    assert out["eta0_stable"]
    assert not out["extends"]
    assert out["multiplicity_two"]


def test_verify_stable_cover_small():
    sh = make_shadow([OrbitSpec(2, "t", True, eps=1)], True, "Ltilde")
    recs = verify_stable_cover(sh)
    assert all(ok for _, ok, _ in recs), recs


def test_enumerate_shadows_all_admissible():
    count = 0
    for sh in enumerate_shadows((1, 2)):
        ok, msgs = validate(sh)
        assert ok, msgs
        count += 1
    assert count > 0


def test_sweep_small():
    res = sweep_stable_cover(max_orbits=1)
    assert res["ok"], res["failures"]
    assert res["shadows"] == res["distinct"] or res["shadows"] >= res["distinct"]


def test_config_signature_separates():
    a = make_shadow([OrbitSpec(2, "t", True, eps=1)], True, "Ltilde")
    b = make_shadow([OrbitSpec(2, "t", False)], True, "Ltilde",
                    mu_pair={"t": "t"})
    assert config_signature(a) != config_signature(b)


def _renamed(sh, names):
    """The shadow with every class id t replaced by names[t]."""
    orbs = [OrbitSpec(o.weight, names[o.class_id], o.c_stable, eps=o.eps,
                      ext_split=o.ext_split, lin_order=o.lin_order)
            for o in sh.orbits]
    return make_shadow(orbs, sh.h0_in_ker, sh.stab_level,
                       mu_pair={names[t]: names[s] for t, s in sh.mu_pair},
                       fp={names[t]: names[s] for t, s in sh.fp})


@pytest.fixture(scope="module")
def shadows3():
    """Every admissible shadow with at most three orbits."""
    return [sh for w in _weight_multisets(3) for sh in enumerate_shadows(w)]


def test_config_signature_ignores_class_names(shadows3):
    # reversed, so that the renaming also changes the sort order of classes
    for sh in shadows3:
        ids = sorted(sh.classes())
        names = {t: f"c{len(ids) - k}" for k, t in enumerate(ids)}
        assert config_signature(_renamed(sh, names)) == config_signature(sh)
    # a field twist swapping two classes, so the signature has twisted rows
    # for k = 1 as well
    orbs = [OrbitSpec(2, "a", True, eps=1), OrbitSpec(2, "b", True, eps=1)]
    sh = make_shadow(orbs, True, "Ltilde", fp={"a": "b", "b": "a"})
    other = _renamed(sh, {"a": "y", "b": "x"})
    assert config_signature(sh)[1] == 2
    assert config_signature(other) == config_signature(sh)
    g, h = build_groups(sh), build_groups(other)
    assert g.k.order == 8 and g.w.order == 4
    assert set(g.k.elements) == set(h.k.elements)


def _group_facts(g):
    sets = tuple(frozenset(grp.elements) for grp in
                 (g.w_bar_hat, g.w_hat, g.w_bar_tilde, g.w_tilde, g.w_bar,
                  g.w, g.k))
    return sets, g.x, g.formula_match


def test_equal_signatures_give_equal_groups(shadows3):
    first = {}
    shared = 0
    for sh in shadows3:
        facts = _group_facts(build_groups(sh))
        sig = config_signature(sh)
        if sig in first:
            shared += 1
            assert facts == first[sig], sh.to_json()
        else:
            first[sig] = facts
    assert shared > len(shadows3) // 2


def test_sweep_records_equal_fresh_checks(shadows3):
    total = fresh_count = 0
    for sh, recs, fresh in iter_stable_cover(max_orbits=3):
        assert sh == shadows3[total]
        assert recs == verify_stable_cover(sh), sh.to_json()
        total += 1
        fresh_count += fresh
    assert total == len(shadows3) == 6876
    assert fresh_count < total // 2


def test_check_key_separates_split_parts():
    # equal groups, but the order-4 orbit is in the first split part and the
    # "other" one is not; q_split reads the parts, so the keys must differ
    j = OrbitSpec(-1, "j", True, eps=1)
    a, b = (make_shadow([j, OrbitSpec(1, "t", False, lin_order=lin)], True,
                        "Lhat") for lin in (4, "other"))
    ga, gb = build_groups(a), build_groups(b)
    assert _group_facts(ga) == _group_facts(gb)
    assert q1_positions(a) != q1_positions(b)
    assert _check_key(a, ga) != _check_key(b, gb)


def test_sweep_progress_is_logged(caplog, capsys):
    with caplog.at_level(logging.INFO, logger="weylkit.shadow"):
        res = sweep_stable_cover(max_orbits=2, progress=1)
    assert len(caplog.records) == res["distinct"] < res["shadows"]
    assert capsys.readouterr().out == ""


def test_random_shadows_are_admissible():
    rng = random.Random(7)
    for _ in range(25):
        sh = random_shadow(rng)
        ok, msgs = validate(sh)
        assert ok, msgs


def test_verify_random_shadows_small():
    res = verify_random_shadows(count=20, seed=3)
    assert res["ok"], res["failures"]
