"""Correctness checks on the program's outputs.

Each check takes plain values (ints, tuples, dicts) and returns a list of
problems, empty when the output is right, so the benchmark's tests can hand
it a corrupted value.  No check compares with a stored copy of an earlier
output; the only copied figure is SWEEP_SHADOWS, next to the command that
recounts it.
"""

from math import factorial

# Admissible shadows with at most three orbits, the figure the sweep's
# report must state.  Recount with:
#   python3 bench/make_inputs.py recount
SWEEP_SHADOWS = 6876

RANK = 5
RELWEYL_RECORDS = 2 ** RANK            # one per Levi subset
RELATIONS_RECORDS = 1 + 2 ** RANK      # rank level plus one per Levi subset


def table_snapshot(table):
    """What the table checks need from a weylkit CharTable, computed from its
    class lists: class sizes and the class of each representative's inverse."""
    reps = [c[0] for c in table.classes]
    return {"order": table.group.order,
            "p": table.p,
            "sizes": tuple(len(c) for c in table.classes),
            "inv": tuple(table.class_of(g.inv()) for g in reps),
            "rows": tuple(tuple(row) for row in table.irreducibles)}


def table_problems(t):
    """Irreducible count, degree sum of squares, degree divisibility and row
    orthonormality, the last by a sum over classes weighted by class size
    mod p."""
    n, p, sizes, inv = t["order"], t["p"], t["sizes"], t["inv"]
    rows = t["rows"]
    r = len(sizes)
    probs = []
    if sum(sizes) != n:
        probs.append(f"class sizes sum to {sum(sizes)}, not |G| = {n}")
    if len(rows) != r:
        probs.append(f"{len(rows)} irreducibles for {r} classes")
    degrees = [row[0] for row in rows]
    if sum(d * d for d in degrees) != n:
        probs.append(f"sum of squared degrees {sum(d * d for d in degrees)} "
                     f"is not |G| = {n}")
    bad = [d for d in degrees if d < 1 or n % d]
    if bad:
        probs.append(f"degrees {bad} do not divide |G| = {n}")
    if any(len(row) != r for row in rows):
        return probs + ["a row has the wrong length"]
    n_mod = n % p
    for i, a in enumerate(rows):
        for j in range(i, len(rows)):
            b = rows[j]
            s = sum(sizes[k] * a[k] * b[inv[k]] for k in range(r)) % p
            if s != (n_mod if i == j else 0):
                probs.append(f"rows {i} and {j} are not orthonormal")
                return probs
    return probs


def ambient_order(weights):
    """Order of the weight-preserving signed permutations: the product of
    2^m * m! over the multiplicities m of the weights."""
    out = 1
    for w in set(weights):
        m = weights.count(w)
        out *= 2 ** m * factorial(m)
    return out


def group_order_problems(weights, ambient, w_tilde, w_hat, w, w_in_k):
    """The stabilizer tower of one shadow, from its orders."""
    probs = []
    expected = ambient_order(list(weights))
    if ambient != expected:
        probs.append(f"ambient order {ambient}, expected {expected}")
    if w_tilde < 1 or w_hat % w_tilde:
        probs.append(f"|W~| = {w_tilde} does not divide |W^| = {w_hat}")
    if w not in (w_hat, 2 * w_hat):
        probs.append(f"|W| = {w} is neither |W^| = {w_hat} nor twice it")
    if not w_in_k:
        probs.append("W is not contained in K")
    return probs


def group_facts(groups):
    """The inputs of group_order_problems from a weylkit ShadowGroups."""
    return {"weights": tuple(groups.shadow.weights),
            "ambient": len(groups.ambient),
            "w_tilde": groups.w_tilde.order,
            "w_hat": groups.w_hat.order,
            "w": groups.w.order,
            "w_in_k": all(g in groups.k for g in groups.w.elements)}


def cover_problems(records):
    """The (name, ok, detail) records of one verify_stable_cover call: every
    check passed, and none was skipped (a skipped check is recorded as
    passed, with a detail that starts with "skipped")."""
    return [f"{name}: {'skipped' if ok else 'failed'} {detail}".rstrip()
            for name, ok, detail in records
            if not ok or detail.startswith("skipped")]


def negative_control_problems(obs):
    """Controls that must fail: each value is what the program reported."""
    probs = []
    if obs["q8_center_max_ext"] is not False:
        probs.append("Q8 over its center reported maximally extendible")
    if obs["q8_cocycle_ok"] is not False or not obs["q8_cocycle_certificate"]:
        probs.append("the faithful character of Z(Q8) reported to extend "
                     "without an obstruction certificate")
    if obs["pair_extends"] is not False:
        probs.append("the obstructed pair reported to extend")
    if obs["pair_multiplicity_two"] is not True:
        probs.append("the obstructed pair lost multiplicity two")
    if obs["pair_validates"] is not False or not obs["pair_a2_message"]:
        probs.append("validate accepted the A2-violating pair")
    return probs


def report_problems(report, suite, records):
    """A weylkit-report/1 report: schema, suite, record count and every
    record passed."""
    probs = []
    if (report.get("schema") != "weylkit-report/1"
            or report.get("suite") != suite):
        probs.append(f"{suite}: not a weylkit-report/1 report of this suite")
        return probs
    recs = report["records"]
    if len(recs) != records:
        probs.append(f"{suite}: {len(recs)} records, expected {records}")
    bad = [r["id"] for r in recs if r["status"] != "pass"]
    if bad:
        probs.append(f"{suite}: records not passed: {bad}")
    return probs


def sweep_report_problems(report, random_count):
    probs = report_problems(report, "shadows", records=2)
    if probs:
        return probs
    sweep, rand = report["records"]
    if not sweep["details"].startswith(f"{SWEEP_SHADOWS} shadows,"):
        probs.append(f"sweep covered {sweep['details']!r}, expected "
                     f"{SWEEP_SHADOWS} shadows")
    if not rand["details"].startswith(f"{random_count} random shadows, 0 "):
        probs.append(f"random half reported {rand['details']!r}")
    return probs


def extend_report_problems(report):
    probs = report_problems(report, "extend", records=4)
    quat = [r for r in report.get("records", ())
            if r["id"] == "extend/quaternion-negative-control"]
    if not quat or quat[0]["status"] != "pass" \
            or "obstructed" not in quat[0]["details"]:
        probs.append("the quaternion record does not report an obstruction")
    return probs
