"""weylkit's benchmark: three verification workloads, end-to-end times and a
traced per-module breakdown.

  python3 bench/run.py --workload {sweep,large-cover,weyl-lifts} --seed N
                       --seconds S --trace {0,1}

Every round of a workload runs in a fresh, single-threaded interpreter
(bench/worker.py), so weylkit's module-level caches never carry over from one
round to the next.  Rounds are whole and run one after another until S
seconds have passed.

--trace 0 runs at least two rounds and three set-up probes, and reports the
end-to-end metrics: setup_s (median set-up of those fresh interpreters:
interpreter start, `import weylkit`, the workload's inputs), wall_s (median
time of the verification calls) and peak_rss_mb (median peak resident set).

--trace 1 runs one untraced round, then one traced round, and reports the
per-layer metrics of the traced round, plus trace.overhead_s (traced minus
untraced wall time) and process.cpu_s (CPU time of the untraced round).
The spans go to bench/out/trace-*.json.

Every round checks the program's outputs after its clock stops; all rounds
of a run must give byte-identical reports.  The last line of stdout is one
JSON object: correct, attempted, failed and metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep", "large-cover", "weyl-lifts")
SETUP_PROBES = 3
RUN_LIMIT_S = 170          # a run must end within 180 s

LAYER_SPANS = [
    "shadow.validate", "shadow.build_groups", "shadow.q_split",
    "shadow.verify_stable_cover", "char_engine.CharTable",
    "char_engine.maximal_extendibility", "char_engine.linear_ext_cocycle",
    "group_engine.closure", "group_engine.conj_classes",
    "group_engine.small_generating_set", "group_engine.normalizer",
    "group_engine.quotient", "signed_perm.full_group",
    "signed_perm.rel_weyl_oracle", "spin_monomial.verify_relations",
    "root_levi.decompose", "cli.main",
]
CALL_COUNTS = {"shadow.validate.calls": "shadow.validate",
               "shadow.build_groups.calls": "shadow.build_groups",
               "char_engine.CharTable.builds": "char_engine.CharTable",
               "group_engine.closure.calls": "group_engine.closure",
               "root_levi.decompose.calls": "root_levi.decompose"}
DISTINCT = {"shadow.build_groups.distinct": "shadow.build_groups",
            "char_engine.CharTable.distinct_groups": "char_engine.CharTable"}
SUMS = ["char_engine.CharTable.classes", "group_engine.closure.elements",
        "signed_perm.full_group.elements"]
PRODUCTS = ["signed_perm.products", "spin_monomial.products"]


class RunFailed(Exception):
    pass


def spawn(workload, seed, mode, deadline):
    """One fresh interpreter running bench/worker.py; returns its result."""
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    t0 = time.monotonic()
    cmd += [os.path.join(HERE, "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--t0", repr(t0)]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RunFailed(f"{mode} round of {workload} ran past the time limit")
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise RunFailed(f"{mode} round of {workload} exited {proc.returncode}")
    res = json.loads(out.strip().splitlines()[-1])
    if mode == "trace":
        res["importtime"] = parse_importtime(err)
    return res


def parse_importtime(text):
    """Cumulative seconds per top-level package from -X importtime output."""
    out = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].strip()
        if name in ("weylkit", "sympy") and name not in out:
            out[name] = int(parts[1]) / 1e6
    return out


def run_rounds(workload, seed, seconds, min_rounds, deadline):
    """Untraced rounds until `seconds` have passed and at least min_rounds."""
    rounds = []
    start = time.monotonic()
    while len(rounds) < min_rounds or time.monotonic() - start < seconds:
        last = rounds[-1]["elapsed"] if rounds else 0.0
        if rounds and time.monotonic() + last > deadline - 5:
            if len(rounds) < min_rounds:
                raise RunFailed(f"{workload}: no time left for round "
                                f"{len(rounds) + 1} of {min_rounds}")
            break
        t = time.monotonic()
        res = spawn(workload, seed, "run", deadline)
        res["elapsed"] = time.monotonic() - t
        rounds.append(res)
        print(f"round {len(rounds)}: wall {res['wall_s']:.3f} s, set-up "
              f"{res['setup_s']:.3f} s, peak {res['peak_rss_mb']:.1f} MB",
              file=sys.stderr)
    return rounds


def round_problems(rounds):
    """The rounds' own check failures, and any difference between their
    reports: every round of a run has the same seed."""
    problems = [p for r in rounds for p in r["problems"]]
    if len({r["digest"] for r in rounds}) != 1:
        problems.append("rounds with the same seed gave different reports")
    return problems


def layer_metrics(traced, rounds):
    tr = traced["trace"]
    summary = tr["summary"]

    def self_s(name):
        return summary.get(name, {}).get("self_s", 0.0)

    m = {}
    for name in LAYER_SPANS:
        m[f"{name}.self_s"] = (self_s(name), "s")
    for metric, span in CALL_COUNTS.items():
        m[metric] = (summary.get(span, {}).get("calls", 0), "count")
    for metric, span in DISTINCT.items():
        m[metric] = (tr["distinct"].get(span, 0), "count")
    for metric in SUMS:
        m[metric] = (tr["sums"].get(metric, 0), "count")
    for metric in PRODUCTS:
        m[metric] = (tr["counts"].get(metric, 0), "count")
    torus = [v["self_s"] for k, v in summary.items()
             if k.startswith("torus_model.")]
    m["torus_model.self_s"] = (sum(torus, 0.0), "s")
    imports = traced["importtime"]
    m["import.weylkit_s"] = (imports.get("weylkit", 0.0), "s")
    m["import.sympy_s"] = (imports.get("sympy", 0.0), "s")
    m["process.cpu_s"] = (statistics.median(r["cpu_s"] for r in rounds), "s")
    m["trace.overhead_s"] = (
        traced["wall_s"] - statistics.median(r["wall_s"] for r in rounds), "s")
    return m


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "weylkit", "__init__.py")):
        print(f"error: no weylkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S

    try:
        if args.trace:
            rounds = run_rounds(args.workload, args.seed, 0, 1, deadline)
            traced = spawn(args.workload, args.seed, "trace", deadline)
            every = rounds + [traced]
            metrics = layer_metrics(traced, rounds)
        else:
            probes = [spawn(args.workload, args.seed, "setup", deadline)
                      for _ in range(SETUP_PROBES)]
            rounds = run_rounds(args.workload, args.seed, args.seconds, 2,
                                deadline)
            every = rounds
            metrics = {
                "setup_s": (statistics.median(
                    r["setup_s"] for r in probes + rounds), "s"),
                "wall_s": (statistics.median(
                    r["wall_s"] for r in rounds), "s"),
                "peak_rss_mb": (statistics.median(
                    r["peak_rss_mb"] for r in rounds), "MB"),
            }
    except RunFailed as e:
        print(f"error: {e}", file=sys.stderr)
        return 1

    problems = round_problems(every)
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in every),
              "failed": sum(r["failed"] for r in every),
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
