"""One round of one workload in a fresh interpreter; run.py starts it.

  python3 bench/worker.py --workload NAME --seed N --t0 T --mode MODE

MODE is `setup` (import weylkit and build the inputs, nothing more), `run`
(set up, run the workload's verification calls, check the outputs) or
`trace` (the same with the tracer installed around the calls).  T is the
spawning process's time.monotonic() when it started this one, so that the
set-up time counts the interpreter's own start.  The last line of stdout is
one JSON object.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

import checks  # noqa: E402  (the benchmark's own module, imports no weylkit)


def _cli(argv):
    """weylkit.cli.main with its report captured: (exit code, report text)."""
    import weylkit.cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = weylkit.cli.main(argv)
    return rc, buf.getvalue()


# -- workloads -----------------------------------------------------------
#
# prepare(seed) builds the inputs before the clock starts; run(inputs)
# is the timed part and returns its outputs; verify(inputs, outputs) runs
# after the clock stops and returns (attempted, failed, problems, digest).

class Sweep:
    """weylkit verify --suite shadows --max-orbits 3 --random-count 500."""
    RANDOM_COUNT = 500

    def prepare(self, seed):
        return ["verify", "--suite", "shadows", "--max-orbits", "3",
                "--random-count", str(self.RANDOM_COUNT), "--seed", str(seed)]

    def run(self, argv):
        return [_cli(argv)]

    def verify(self, argv, outputs):
        (rc, text), = outputs
        report = json.loads(text)
        probs = [] if rc == 0 else [f"exit code {rc}"]
        probs += checks.sweep_report_problems(report, self.RANDOM_COUNT)
        return _count(report["records"]) + (probs, _digest(text))


class WeylLifts:
    """The relations and relweyl suites at rank 5 and the extend suite."""

    def prepare(self, seed):
        rank = ["--rank", str(checks.RANK)]
        return [["verify", "--suite", suite, "--seed", str(seed)] + args
                for suite, args in (("relations", rank), ("relweyl", rank),
                                    ("extend", []))]

    def run(self, argvs):
        return [_cli(argv) for argv in argvs]

    def verify(self, argvs, outputs):
        probs = []
        records = []
        expected = {"relations": checks.RELATIONS_RECORDS,
                    "relweyl": checks.RELWEYL_RECORDS}
        for argv, (rc, text) in zip(argvs, outputs):
            suite = argv[2]
            if rc != 0:
                probs.append(f"{suite}: exit code {rc}")
            report = json.loads(text)
            records += report["records"]
            if suite == "extend":
                probs += checks.extend_report_problems(report)
            else:
                probs += checks.report_problems(report, suite, expected[suite])
        text = "".join(t for _, t in outputs)
        return _count(records) + (probs, _digest(text))


class LargeCover:
    """verify_stable_cover on the frozen shadow list in large_cover.json, in
    an order drawn from the seed."""

    def prepare(self, seed):
        import make_inputs
        with open(make_inputs.LARGE_COVER_FILE) as fh:
            descs = json.load(fh)["shadows"]
        shadows = [(i, make_inputs.to_shadow(d)) for i, d in enumerate(descs)]
        random.Random(seed).shuffle(shadows)
        return shadows

    def run(self, shadows):
        from weylkit import verify_stable_cover
        return [(i, verify_stable_cover(sh)) for i, sh in shadows]

    def verify(self, shadows, outputs):
        from weylkit import build_groups
        probs = []
        for i, sh in shadows:
            facts = checks.group_facts(build_groups(sh))
            probs += [f"shadow {i}: {m}"
                      for m in checks.group_order_problems(**facts)]
        failed = [i for i, recs in outputs if checks.cover_problems(recs)]
        if failed:
            probs.append(f"shadows {sorted(failed)} failed or skipped a "
                         f"cover check")
        text = json.dumps(sorted(outputs))
        return len(outputs), len(failed), probs, _digest(text)


WORKLOADS = {"sweep": Sweep, "large-cover": LargeCover,
             "weyl-lifts": WeylLifts}


def _count(records):
    return len(records), sum(1 for r in records if r["status"] == "fail")


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


# -- checks shared by every workload ---------------------------------------

def negative_controls():
    """Run the controls that must fail; returns (observations, group facts)."""
    from fractions import Fraction
    from weylkit import (FiniteGroup, quaternion_group, maximal_extendibility,
                         linear_ext_cocycle, validate)
    from weylkit.shadow import obstructed_pair_example
    q8, z = quaternion_group()
    center = FiniteGroup(gens=[z])
    me_ok, _ = maximal_extendibility(q8, center)
    lam = {center.identity: Fraction(0), z: Fraction(1, 2)}
    res = linear_ext_cocycle(lam, center, q8)
    ex = obstructed_pair_example()
    ok, msgs = validate(ex["shadow"])
    obs = {"q8_center_max_ext": me_ok,
           "q8_cocycle_ok": res.ok,
           "q8_cocycle_certificate": res.certificate is not None,
           "pair_extends": ex["extends"],
           "pair_multiplicity_two": ex["multiplicity_two"],
           "pair_validates": ok,
           "pair_a2_message": any(m.startswith("A2") for m in msgs)}
    return obs, checks.group_facts(ex["groups"])


@contextlib.contextmanager
def collector(tables, covers):
    """Inside the block, keep a snapshot of every CharTable built, and the
    records of every verify_stable_cover call made from within
    weylkit.shadow (the sweeps) that failed or skipped a check.

    The snapshot is taken as the table is built, not after the clock stops,
    because holding the tables instead would keep alive the ones
    maximal_extendibility drops and so raise the peak resident set."""
    from weylkit import shadow
    from weylkit.char_engine import CharTable
    orig_init = CharTable.__init__
    orig_cover = shadow.verify_stable_cover

    def init(self, *args, **kwargs):
        orig_init(self, *args, **kwargs)
        tables.append(checks.table_snapshot(self))

    def cover(*args, **kwargs):
        recs = orig_cover(*args, **kwargs)
        if checks.cover_problems(recs):
            covers.append(recs)
        return recs
    CharTable.__init__ = init
    shadow.verify_stable_cover = cover
    try:
        yield
    finally:
        CharTable.__init__ = orig_init
        shadow.verify_stable_cover = orig_cover


def _cpu():
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = ap.parse_args(argv)

    sys.path.insert(0, SRC)
    import weylkit
    if os.path.dirname(os.path.abspath(weylkit.__file__)) != \
            os.path.join(SRC, "weylkit"):
        raise SystemExit(f"weylkit imported from {weylkit.__file__}, "
                         f"not from {SRC}")
    workload = WORKLOADS[args.workload]()
    inputs = workload.prepare(args.seed)
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    tables, covers = [], []
    with collector(tables, covers):
        cpu0 = _cpu()
        t0 = time.perf_counter()
        outputs = workload.run(inputs)
        wall_s = time.perf_counter() - t0
        cpu_s = _cpu() - cpu0
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if tracer is not None:
        tracer.uninstall()

    attempted, failed, probs, digest = workload.verify(inputs, outputs)
    for k, snap in enumerate(tables):
        probs += [f"table {k} (|G| = {snap['order']}): {m}"
                  for m in checks.table_problems(snap)]
    for recs in covers:
        probs += [f"sweep: {m}" for m in checks.cover_problems(recs)]
    obs, pair_facts = negative_controls()
    probs += checks.negative_control_problems(obs)
    probs += [f"obstructed pair: {m}"
              for m in checks.group_order_problems(**pair_facts)]
    out.update(wall_s=wall_s, cpu_s=cpu_s, peak_rss_mb=peak_kb / 1024.0,
               attempted=attempted, failed=failed, problems=probs,
               digest=digest, tables=len(tables))
    if tracer is not None:
        out["trace"] = tracer.figures()
        os.makedirs(OUT, exist_ok=True)
        name = f"trace-{args.workload}-seed{args.seed}.json"
        tracer.write(os.path.join(OUT, name), workload=args.workload,
                     seed=args.seed, wall_s=wall_s)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
