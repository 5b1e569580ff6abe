"""Orbit decomposition of Levi subsets: frozen examples and invariants."""

from dataclasses import replace

import pytest

from weylkit.root_levi import (_check_invariants, decompose, all_levi_subsets, normalize_levi,
                               simple_roots, d_roots, b_roots, span_closure,
                               levi_roots)


def test_simple_root_count():
    assert len(simple_roots(4)) == 4
    assert len(simple_roots(7)) == 7


def test_root_system_sizes():
    # type D has 2l(l-1) roots, type B has 2l^2
    for l in (2, 3, 4, 5):
        assert len(d_roots(l)) == 2 * l * (l - 1)
        assert len(b_roots(l)) == 2 * l * l


def test_decompose_frozen_rank5():
    dec = decompose(5, (1, 3))
    assert dec.rank == 5
    assert dec.case == "i"
    assert list(dec.delta_prime) == [1, 3]
    assert [sorted(o) for o in dec.orbits] == [[4], [5], [1, 2, 3]]
    assert list(dec.dset) == [3, 1]


def test_decompose_empty_levi():
    dec = decompose(4, ())
    assert [sorted(o) for o in dec.orbits] == [[1], [2], [3], [4]]
    assert dec.case == "i"


def test_decompose_full_levi_single_orbit():
    l = 4
    dec = decompose(l, tuple(range(1, l + 1)))
    assert len(dec.orbits) == 1
    assert sorted(dec.orbits[0]) == list(range(1, l + 1))


def test_orbits_partition_and_sorted():
    for l in (3, 4, 5):
        for delta in all_levi_subsets(l):
            dec = decompose(l, sorted(delta))
            flat = sorted(i for o in dec.orbits for i in o)
            assert flat == list(range(1, l + 1))
            assert list(dec.weights) == sorted(dec.weights)


def test_case_ii_needs_both_fork_nodes():
    # the two fork nodes 1, 2 of the branched diagram select case ii
    seen_ii = False
    for l in (4, 5):
        for delta in all_levi_subsets(l):
            dec = decompose(l, sorted(delta))
            if dec.case == "ii":
                seen_ii = True
                assert {1, 2} <= set(dec.delta_prime)
    assert seen_ii


def test_normalize_is_idempotent():
    for l in (4, 5):
        for delta in all_levi_subsets(l):
            case1, d1, g1 = normalize_levi(l, sorted(delta))
            case2, d2, g2 = normalize_levi(l, sorted(d1))
            assert case1 == case2 and d1 == d2 and not g2


def test_levi_roots_closed_under_span():
    l = 4
    for delta in ((1,), (1, 2), (1, 3), (2, 3, 4)):
        roots = levi_roots(l, delta)
        closed = span_closure(list(roots), l)
        assert set(roots) == set(closed)


def test_multiplicity_and_d_sum():
    for l in (4, 5):
        for delta in all_levi_subsets(l):
            dec = decompose(l, sorted(delta))
            total = sum(d * dec.multiplicity(d)
                        for d in dec.dset if d >= 2)
            total += len(dec.singletons)
            if dec.j_minus1 is not None:
                total += len(dec.j_minus1)
            assert total == l


def test_to_json_round_trip_fields():
    import json
    dec = decompose(5, (1, 3))
    d = json.loads(dec.to_json())
    assert d["rank"] == 5
    assert d["delta_prime"] == [1, 3]
    assert d["case"] == "i"


def test_bad_index_rejected():
    with pytest.raises((ValueError, AssertionError)):
        decompose(4, (9,))


def test_invariant_checks_raise():
    # python -O strips asserts, so each broken invariant must raise
    dec = decompose(5, (1, 3))
    _check_invariants(dec)
    bad = [(replace(dec, rank=6), "partition the rank"),
           (replace(dec, orbits=dec.orbits[:-1] + ((4, 5, 1),)),
            "partition 1..l"),
           (replace(dec, blocks={3: ((2, 1, 3),)}), "integer intervals")]
    for d, msg in bad:
        with pytest.raises(ArithmeticError, match=msg):
            _check_invariants(d)
