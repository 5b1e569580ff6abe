"""Inputs of the benchmark that cannot be derived at run time.

  python3 bench/make_inputs.py draw
      Draws the large-cover shadow list (the first COUNT admissible draws of
      DRAW_SEED) with this file's own sampler and writes
      bench/large_cover.json, with each shadow's weights, level, the orders
      of W and K and the seconds its check took in this process.

  python3 bench/make_inputs.py recount
      Recounts the admissible shadows with at most MAX_ORBITS orbits, the
      figure SWEEP_SHADOWS in bench/checks.py is a copy of.

The sampler is deliberately not weylkit.shadow.random_shadow: a later change
to the program's sampler must not change the workload.
"""

import argparse
import json
import os
import random
import sys
import time
from itertools import combinations_with_replacement

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

LARGE_COVER_FILE = os.path.join(HERE, "large_cover.json")
DRAW_SEED = 16     # how it was chosen: bench/README.md, "Seeds"
COUNT = 12
MAX_ORBITS = 3     # the sweep workload's --max-orbits

# (lin_order, c_stable, eps) choices per weight, as the admissibility axioms
# allow them: weight 1 carries the character order, even weights and the
# distinguished weight -1 may be flip-stable of either sign, odd weights >1
# never are.
WEIGHT1_FLAGS = [(1, True, 1), (2, True, -1), (4, False, None),
                 ("other", False, None)]
EVEN_FLAGS = [(None, True, 1), (None, True, -1), (None, False, None)]
ODD_FLAGS = [(None, False, None)]


def _flags(weight):
    if weight == 1:
        return WEIGHT1_FLAGS
    if weight == -1 or weight % 2 == 0:
        return EVEN_FLAGS
    return ODD_FLAGS


def draw_candidate(rng):
    """One candidate shadow with 5 or 6 orbits, as a plain dict.

    Levels are drawn from the two finer ones only: at the coarse level the
    cover check has nothing to verify, so such a shadow adds no character
    table work.
    """
    n = rng.choice((5, 6))
    weights = sorted(rng.choice((1, 2, 3, 4)) for _ in range(n))
    if rng.random() < 0.4:
        weights = [-1] + weights[1:]
    orbits = []
    nclass = 0
    i = 0
    while i < n:
        w = weights[i]
        left = weights.count(w) - sum(1 for o in orbits if o["weight"] == w)
        size = rng.randint(1, left)
        lin, cst, eps = rng.choice(_flags(w))
        cid = f"c{nclass}"
        nclass += 1
        orbits.extend({"weight": w, "class": cid, "c_stable": cst, "eps": eps,
                       "lin_order": lin} for _ in range(size))
        i += size
    classes = sorted({o["class"] for o in orbits})
    rng.shuffle(classes)
    mu = {}
    while classes:
        t = classes.pop()
        r = rng.random()
        if r < 0.4:
            continue
        if r < 0.6:
            mu[t] = t
        elif classes:
            s = classes.pop()
            mu[t], mu[s] = s, t
    return {"orbits": orbits, "h0_in_ker": rng.random() < 0.5,
            "stab": rng.choice(("Lhat", "Ltilde")),
            "mu_pair": dict(sorted(mu.items()))}


def to_shadow(desc, check=True):
    """The weylkit shadow of a plain description (validated by default)."""
    from weylkit import OrbitSpec, make_shadow
    orbits = [OrbitSpec(o["weight"], o["class"], o["c_stable"], eps=o["eps"],
                        lin_order=o["lin_order"]) for o in desc["orbits"]]
    return make_shadow(orbits, desc["h0_in_ker"], desc["stab"],
                       mu_pair=desc["mu_pair"], check=check)


def draw():
    """The first COUNT admissible candidates drawn from DRAW_SEED."""
    from weylkit import validate
    rng = random.Random(DRAW_SEED)
    out = []
    while len(out) < COUNT:
        desc = draw_candidate(rng)
        if validate(to_shadow(desc, check=False))[0]:
            out.append(desc)
    return out


def cmd_draw():
    from weylkit import build_groups, verify_stable_cover
    shadows = draw()
    for desc in shadows:
        sh = to_shadow(desc)
        t0 = time.perf_counter()
        groups = build_groups(sh)
        recs = verify_stable_cover(sh, groups=groups)
        desc["draw_seconds"] = round(time.perf_counter() - t0, 2)
        desc["weights"] = list(sh.weights)
        desc["w_order"] = groups.w.order
        desc["k_order"] = groups.k.order
        desc["records"] = len(recs)
        print(f"{desc['weights']} {desc['stab']:6} |W|={desc['w_order']:<6} "
              f"|K|={desc['k_order']:<7} {desc['draw_seconds']:7.2f}s",
              file=sys.stderr)
    doc = {"command": "python3 bench/make_inputs.py draw", "shadows": shadows}
    with open(LARGE_COVER_FILE, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    total = sum(d["draw_seconds"] for d in shadows)
    print(f"wrote {len(shadows)} shadows, {total:.1f} s in one process",
          file=sys.stderr)


def recount():
    """Admissible shadows over every weight tuple of at most MAX_ORBITS
    entries from {1, 2, 3, 4}, at most one of them the distinguished -1."""
    from weylkit import enumerate_shadows
    total = 0
    for n in range(1, MAX_ORBITS + 1):
        tuples = list(combinations_with_replacement((1, 2, 3, 4), n))
        tuples += [(-1,) + t
                   for t in combinations_with_replacement((1, 2, 3, 4), n - 1)]
        for weights in tuples:
            total += sum(1 for _ in enumerate_shadows(weights))
    return total


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="cmd", required=True)
    sub.add_parser("draw")
    sub.add_parser("recount")
    args = ap.parse_args(argv)
    if args.cmd == "draw":
        cmd_draw()
    else:
        print(recount())
    return 0


if __name__ == "__main__":
    sys.exit(main())
