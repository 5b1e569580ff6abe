"""Each correctness check of the benchmark rejects a corrupted value.

  python3 -m pytest bench -q
"""

import copy
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402


@pytest.fixture(scope="module")
def table():
    """The table of the signed permutations of three points (order 48)."""
    from weylkit import CharTable, FiniteGroup
    from weylkit.signed_perm import full_group
    group = FiniteGroup(elements=full_group((1, 1, 1)))
    return checks.table_snapshot(CharTable(group))


@pytest.fixture(scope="module")
def pair():
    return worker.negative_controls()


def test_true_table_passes(table):
    assert table["order"] == 48 and len(table["rows"]) == 10
    assert checks.table_problems(table) == []


def _with_rows(table, rows):
    bad = copy.deepcopy(table)
    bad["rows"] = tuple(tuple(r) for r in rows)
    return bad


def test_wrong_degree_is_rejected(table):
    rows = [list(r) for r in table["rows"]]
    rows[-1][0] += 1
    assert checks.table_problems(_with_rows(table, rows))


def test_degree_not_dividing_order_is_rejected(table):
    bad = copy.deepcopy(table)
    bad["order"] = 47
    assert any("divide" in m for m in checks.table_problems(bad))


def test_row_with_swapped_values_is_rejected(table):
    rows = [list(r) for r in table["rows"]]
    row = next(r for r in rows if len(set(r[1:])) > 1)
    sizes = table["sizes"]
    i, j = next((i, j) for i in range(1, len(row))
                for j in range(i + 1, len(row))
                if row[i] != row[j] and sizes[i] != sizes[j])
    row[i], row[j] = row[j], row[i]
    assert checks.table_problems(_with_rows(table, rows))


def test_row_copied_over_another_is_rejected(table):
    rows = list(table["rows"])
    rows[3] = rows[4]
    assert checks.table_problems(_with_rows(table, rows))


def test_missing_row_is_rejected(table):
    rows = list(table["rows"])[:-1]
    assert any("irreducibles" in m
               for m in checks.table_problems(_with_rows(table, rows)))


def test_true_group_orders_pass(pair):
    _, facts = pair
    assert facts["ambient"] == 8
    assert checks.group_order_problems(**facts) == []


@pytest.mark.parametrize("field,wrong", [
    ("ambient", lambda f: 2 * f["ambient"]),
    ("w_tilde", lambda f: 3 * f["w_hat"]),      # does not divide |W^|
    ("w", lambda f: 3 * f["w_hat"]),            # neither |W^| nor twice it
    ("w_in_k", lambda f: False),
])
def test_wrong_group_order_is_rejected(pair, field, wrong):
    _, facts = pair
    bad = dict(facts, **{field: wrong(facts)})
    assert checks.group_order_problems(**bad)


def test_ambient_order_formula():
    assert checks.ambient_order([1, 1, 2]) == 2 ** 2 * 2 * 2
    assert checks.ambient_order([-1, 3, 3, 3]) == 2 * 2 ** 3 * 6


def test_true_controls_pass(pair):
    obs, _ = pair
    assert checks.negative_control_problems(obs) == []


@pytest.mark.parametrize("field,value", [
    ("q8_center_max_ext", True),
    ("q8_cocycle_ok", True),
    ("q8_cocycle_certificate", False),
    ("pair_extends", True),
    ("pair_multiplicity_two", False),
    ("pair_validates", True),
    ("pair_a2_message", False),
])
def test_control_reported_as_pass_is_rejected(pair, field, value):
    obs, _ = pair
    assert checks.negative_control_problems(dict(obs, **{field: value}))


def _report(suite, records):
    return {"schema": "weylkit-report/1", "suite": suite,
            "records": [{"id": f"{suite}/{k}", "status": s, "details": d}
                        for k, (s, d) in enumerate(records)]}


def test_record_counts():
    n = checks.RELWEYL_RECORDS
    good = _report("relweyl", [("pass", "")] * n)
    assert checks.report_problems(good, "relweyl", n) == []
    short = _report("relweyl", [("pass", "")] * (n - 1))
    assert checks.report_problems(short, "relweyl", n)
    failing = _report("relweyl", [("pass", "")] * (n - 1) + [("fail", "")])
    assert checks.report_problems(failing, "relweyl", n)


def test_quaternion_record_must_report_obstruction():
    good = _report("extend", [("pass", "")] * 3
                   + [("pass", "faithful central character is obstructed")])
    good["records"][-1]["id"] = "extend/quaternion-negative-control"
    assert checks.extend_report_problems(good) == []
    bad = copy.deepcopy(good)
    bad["records"][-1]["details"] = "extension constructed"
    assert checks.extend_report_problems(bad)


def test_sweep_count_is_checked():
    good = _report("shadows", [
        ("pass", f"{checks.SWEEP_SHADOWS} shadows, 10 distinct, 0 failures"),
        ("pass", "500 random shadows, 0 failures")])
    assert checks.sweep_report_problems(good, 500) == []
    bad = copy.deepcopy(good)
    bad["records"][0]["details"] = "6875 shadows, 10 distinct, 0 failures"
    assert checks.sweep_report_problems(bad, 500)


def test_rounds_with_different_reports_are_rejected():
    same = [{"problems": [], "digest": "a"}, {"problems": [], "digest": "a"}]
    assert run.round_problems(same) == []
    differ = [{"problems": [], "digest": "a"}, {"problems": [], "digest": "b"}]
    assert run.round_problems(differ)


@pytest.fixture(scope="module")
def capped_cover():
    """verify_stable_cover with a size cap that makes it skip a
    maximal-extendibility check, which it records as passed."""
    from weylkit.shadow import table1_case, verify_stable_cover
    return verify_stable_cover(table1_case(2, 2, 1)["shadow"], size_cap=1)


def test_skipped_cover_check_is_rejected(capped_cover):
    assert all(ok for _, ok, _ in capped_cover)
    assert checks.cover_problems(capped_cover)
    passed = [r for r in capped_cover if not r[2].startswith("skipped")]
    assert checks.cover_problems(passed) == []
    failing = passed + [("middle_max_ext", False, "")]
    assert checks.cover_problems(failing)


def test_large_cover_counts_a_skipped_check_as_failed(capped_cover):
    attempted, failed, probs, _ = worker.LargeCover().verify(
        [], [(0, capped_cover)])
    assert (attempted, failed) == (1, 1) and probs


def test_sweep_skip_is_seen_by_the_collector():
    from weylkit import shadow
    orig = shadow.verify_stable_cover
    tables, covers = [], []
    with worker.collector(tables, covers):
        res = shadow.sweep_stable_cover(max_orbits=2, size_cap=1)
    assert res["ok"] and covers and tables
    assert any(checks.cover_problems(recs) for recs in covers)
    assert shadow.verify_stable_cover is orig
