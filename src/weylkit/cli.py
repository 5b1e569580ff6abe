"""Command line interface: orbit decompositions and verification suites.

Subcommands:
  decompose --rank L --delta 1,3   print the orbit decomposition as JSON
  verify --suite NAME ...          run a verification suite and emit a report

Reports use the schema "weylkit-report/1" and are byte-identical for equal
flags and seed; per-record wall times are only included under --timings.
Exit codes: 0 all pass, 1 at least one failure, 2 usage error.
"""

import argparse
import json
import sys
import time

SCHEMA = "weylkit-report/1"
VERSION = "0.1.0"
SUITES = ("relations", "relweyl", "extend", "shadows", "table1", "all")

RELATIONS_RANK_CAP = 5
RELWEYL_RANK_CAP = 5


class UsageError(Exception):
    pass


def _parse_delta(text, rank):
    if not text:
        return []
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            idx = int(part)
        except ValueError:
            raise UsageError(f"bad simple-root index {part!r}")
        if not 1 <= idx <= rank:
            raise UsageError(f"simple-root index {idx} out of range 1..{rank}")
        out.append(idx)
    return out


def cmd_decompose(args):
    from .root_levi import decompose
    try:
        delta = _parse_delta(args.delta, args.rank)
        dec = decompose(args.rank, delta)
    except (UsageError, ValueError, AssertionError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(dec.to_json())
    return 0


# ---------------------------------------------------------------------------
# suites; each yields (record_id, status, details) with deterministic order

def _suite_relations(args):
    from .root_levi import all_levi_subsets, decompose
    from .spin_monomial import SpinCtx, verify_relations
    l = args.rank
    if l > RELATIONS_RANK_CAP:
        yield (f"relations/rank{l}", "skipped",
               f"rank above enumeration cap {RELATIONS_RANK_CAP}")
        return
    ctx = SpinCtx(l)
    recs = verify_relations(l, seed=args.seed, ctx=ctx)
    bad = [name for name, ok, _ in recs if not ok]
    yield (f"relations/rank{l}/rank-level",
           "pass" if not bad else "fail",
           f"{len(recs)} checks" + (f"; failing: {bad}" if bad else ""))
    for delta in all_levi_subsets(l):
        dec = decompose(l, sorted(delta))
        recs = verify_relations(l, dec=dec, seed=args.seed, rank_level=False,
                                ctx=ctx)
        bad = [name for name, ok, _ in recs if not ok]
        yield (f"relations/rank{l}/delta={','.join(map(str, sorted(delta)))}",
               "pass" if not bad else "fail",
               f"{len(recs)} checks" + (f"; failing: {bad}" if bad else ""))


def _suite_relweyl(args):
    from .root_levi import all_levi_subsets, decompose
    from .signed_perm import rel_weyl_matches_oracle
    l = args.rank
    if l > RELWEYL_RANK_CAP:
        yield (f"relweyl/rank{l}", "skipped",
               f"rank above enumeration cap {RELWEYL_RANK_CAP}")
        return
    for delta in all_levi_subsets(l):
        dec = decompose(l, sorted(delta))
        ok, checks = rel_weyl_matches_oracle(dec)
        bad = [k for k, v in checks.items() if not v]
        yield (f"relweyl/rank{l}/delta={','.join(map(str, sorted(delta)))}",
               "pass" if ok else "fail",
               "formula matches oracle" if ok else f"failing: {bad}")


def _suite_extend(args):
    from .char_engine import verify_halves_extension, linear_ext_cocycle
    from .group_engine import quaternion_group, FiniteGroup
    from fractions import Fraction
    for lp in (2, 3, 4):
        recs = verify_halves_extension(lp, seed=args.seed)
        bad = [name for name, ok, _ in recs if not ok]
        yield (f"extend/halves/rank{lp}",
               "pass" if not bad else "fail",
               f"{len(recs)} checks" + (f"; failing: {bad}" if bad else ""))
    q8, z = quaternion_group()
    center = FiniteGroup(gens=[z])
    lam = {center.identity: Fraction(0), z: Fraction(1, 2)}
    res = linear_ext_cocycle(lam, center, q8)
    obstructed = (not res.ok) and res.certificate is not None
    yield ("extend/quaternion-negative-control",
           "pass" if obstructed else "fail",
           "faithful central character is obstructed" if obstructed
           else "expected a nonzero obstruction")


def _suite_shadows(args):
    from .shadow import sweep_stable_cover, verify_random_shadows
    n = args.max_orbits
    res = sweep_stable_cover(max_orbits=n)
    yield (f"shadows/sweep/max-orbits{n}",
           "pass" if res["ok"] else "fail",
           f"{res['shadows']} shadows, {res['distinct']} distinct, "
           f"{len(res['failures'])} failures")
    cnt = args.random_count
    rr = verify_random_shadows(count=cnt, seed=args.seed, max_orbits=5)
    yield (f"shadows/random/count{cnt}",
           "pass" if rr["ok"] else "fail",
           f"{cnt} random shadows, {len(rr['failures'])} failures")


def _suite_table1(args):
    from .shadow import table1_case
    for row in (1, 2, 3):
        for l1 in (1, 2, 3):
            for l2 in (1, 2, 3):
                r = table1_case(l1, l2, row)
                yield (f"table1/row{row}/l1={l1}/l2={l2}",
                       "pass" if r["ok"] else "fail",
                       f"w1 {r['w1_order']}/{r['w1_expected']}, "
                       f"k1 {r['k1_order']}/{r['k1_expected']}")


def _suite_all(args):
    for gen in (_suite_relations, _suite_relweyl, _suite_extend,
                _suite_shadows, _suite_table1):
        yield from gen(args)


_SUITE_FUNCS = {
    "relations": _suite_relations,
    "relweyl": _suite_relweyl,
    "extend": _suite_extend,
    "shadows": _suite_shadows,
    "table1": _suite_table1,
    "all": _suite_all,
}


def cmd_verify(args):
    try:
        if args.suite in ("relations", "relweyl", "all") and args.rank < 2:
            raise UsageError(f"suite {args.suite} needs rank >= 2, "
                             f"got {args.rank}")
        if args.suite in ("shadows", "all"):
            if args.max_orbits < 1:
                raise UsageError(f"suite {args.suite} needs max-orbits >= 1, "
                                 f"got {args.max_orbits}")
            if args.random_count < 0:
                raise UsageError(f"suite {args.suite} needs random-count >= 0, "
                                 f"got {args.random_count}")
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    records = []
    gen = _SUITE_FUNCS[args.suite](args)
    t0 = time.monotonic()
    for rid, status, details in gen:
        t1 = time.monotonic()
        rec = {"id": rid, "status": status, "details": details}
        if args.timings:
            rec["wall_time"] = round(t1 - t0, 3)
        t0 = t1
        records.append(rec)
    summary = {"pass": sum(r["status"] == "pass" for r in records),
               "fail": sum(r["status"] == "fail" for r in records),
               "skipped": sum(r["status"] == "skipped" for r in records)}
    report = {"schema": SCHEMA, "version": VERSION, "suite": args.suite,
              "rank": args.rank, "seed": args.seed, "records": records,
              "summary": summary}
    if args.json:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    else:
        lines = [f"suite {args.suite} rank {args.rank} seed {args.seed}"]
        for r in records:
            lines.append(f"[{r['status']:>7}] {r['id']}  {r['details']}")
        lines.append("summary: {pass} pass, {fail} fail, {skipped} skipped"
                     .format(**summary))
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if summary["fail"] == 0 else 1


def build_parser():
    ap = argparse.ArgumentParser(prog="weylkit")
    sub = ap.add_subparsers(dest="command", required=True)

    dp = sub.add_parser("decompose", help="orbit decomposition for a Levi choice")
    dp.add_argument("--rank", type=int, required=True)
    dp.add_argument("--delta", type=str, default="",
                    help="comma-separated simple-root indices, may be empty")
    dp.set_defaults(func=cmd_decompose)

    vp = sub.add_parser("verify", help="run a verification suite")
    vp.add_argument("--suite", choices=SUITES, required=True)
    vp.add_argument("--rank", type=int, default=4)
    vp.add_argument("--max-orbits", type=int, default=2, dest="max_orbits")
    vp.add_argument("--random-count", type=int, default=25, dest="random_count")
    vp.add_argument("--seed", type=int, default=0)
    vp.add_argument("--json", action="store_true")
    vp.add_argument("--text", dest="json", action="store_false")
    vp.add_argument("--timings", action="store_true",
                    help="include wall times (breaks byte-identity)")
    vp.add_argument("--out", type=str, default=None)
    vp.set_defaults(func=cmd_verify, json=True)
    return ap


def main(argv=None):
    ap = build_parser()
    args = ap.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
