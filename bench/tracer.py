"""Spans and counts around weylkit's public functions, installed at run time.

Nothing in weylkit is edited: `Tracer.install` replaces each traced function
or method, in every loaded weylkit module that holds it, by a wrapper that
records a span (name, start, end, parent) and restores the original on
`uninstall`.  Element products (`SignedPerm.__mul__`, `MonomialElt.__mul__`)
are counted, not spanned.  Spans stay in memory until `write`.

A span's self time is its duration minus the time its child spans cover.
Work the tracer does for its own figures (hashing element sets for the
`distinct` counts) is recorded as a `trace.bookkeeping` span, so that it is
subtracted from the caller's self time and reported apart.
"""

import functools
import itertools
import json
import sys
import time

BOOKKEEPING = "trace.bookkeeping"

# (module, attribute path, span name).  An attribute path "Cls.meth" names a
# method.  Besides the layers the metrics name, the suite runners
# (sweep_stable_cover, verify_random_shadows, verify_halves_extension,
# rel_weyl) get spans so that their own loops are not counted as cli.main's
# self time.
SPANNED = [
    ("shadow", "validate", "shadow.validate"),
    ("shadow", "build_groups", "shadow.build_groups"),
    ("shadow", "q_split", "shadow.q_split"),
    ("shadow", "verify_stable_cover", "shadow.verify_stable_cover"),
    ("shadow", "sweep_stable_cover", "shadow.sweep_stable_cover"),
    ("shadow", "verify_random_shadows", "shadow.verify_random_shadows"),
    ("char_engine", "CharTable.__init__", "char_engine.CharTable"),
    ("char_engine", "maximal_extendibility",
     "char_engine.maximal_extendibility"),
    ("char_engine", "linear_ext_cocycle", "char_engine.linear_ext_cocycle"),
    ("char_engine", "verify_halves_extension",
     "char_engine.verify_halves_extension"),
    ("group_engine", "closure", "group_engine.closure"),
    ("group_engine", "FiniteGroup.conj_classes", "group_engine.conj_classes"),
    ("group_engine", "small_generating_set",
     "group_engine.small_generating_set"),
    ("group_engine", "FiniteGroup.normalizer", "group_engine.normalizer"),
    ("group_engine", "quotient", "group_engine.quotient"),
    ("signed_perm", "full_group", "signed_perm.full_group"),
    ("signed_perm", "rel_weyl_oracle", "signed_perm.rel_weyl_oracle"),
    ("signed_perm", "rel_weyl", "signed_perm.rel_weyl"),
    ("spin_monomial", "verify_relations", "spin_monomial.verify_relations"),
    ("root_levi", "decompose", "root_levi.decompose"),
    ("cli", "main", "cli.main"),
]
COUNTED = [
    ("signed_perm", "SignedPerm.__mul__", "signed_perm.products"),
    ("spin_monomial", "MonomialElt.__mul__", "spin_monomial.products"),
]
# traced as one layer: a span for every public function it defines
WHOLE_MODULE = "torus_model"


def _keyset_hash(group):
    return hash(frozenset(g.key() for g in group.elements))


class Tracer:
    def __init__(self):
        self.names = []            # span name per name id
        self._name_id = {}
        self.spans = []            # [name_id, start, end, parent_index]
        self._stack = []
        self.counters = {}         # name -> itertools.count
        self.product_counts = {}   # name -> int, set by uninstall
        self.sums = {}             # name -> int
        self.distinct = {}         # name -> set of hashes
        self._undo = []

    # -- recording ------------------------------------------------------

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([nid, time.perf_counter(), 0.0, parent])
        self._stack.append(len(self.spans) - 1)

    def _close(self):
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def add(self, name, n):
        self.sums[name] = self.sums.get(name, 0) + n

    def note_distinct(self, name, fingerprint):
        """Count `fingerprint()` among the distinct values of `name`; the
        hashing runs inside a bookkeeping span."""
        self._open(self._nid(BOOKKEEPING))
        try:
            self.distinct.setdefault(name, set()).add(fingerprint())
        finally:
            self._close()

    # -- wrappers -------------------------------------------------------

    def _span_wrapper(self, fn, name, after=None):
        nid = self._nid(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(self, args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counter = self.counters[name] = itertools.count()
        tick = counter.__next__

        @functools.wraps(fn)
        def wrapper(a, b):
            tick()
            return fn(a, b)
        return wrapper

    def install(self):
        import weylkit  # noqa: F401  (loads every module below)
        mods = {name: sys.modules[f"weylkit.{name}"]
                for name in ("shadow", "char_engine", "group_engine",
                             "signed_perm", "spin_monomial", "torus_model",
                             "root_levi", "cli")}
        for mod, path, name in SPANNED:
            self._replace(mods, mods[mod], path,
                          lambda fn, n=name: self._span_wrapper(
                              fn, n, AFTER.get(n)))
        for mod, path, name in COUNTED:
            self._replace(mods, mods[mod], path,
                          lambda fn, n=name: self._count_wrapper(fn, n))
        m = mods[WHOLE_MODULE]
        for attr, fn in sorted(vars(m).items()):
            if (callable(fn) and not isinstance(fn, type)
                    and not attr.startswith("_")
                    and getattr(fn, "__module__", None) == m.__name__):
                self._replace(mods, m, attr,
                              lambda f, n=f"{WHOLE_MODULE}.{attr}":
                              self._span_wrapper(f, n))

    def _replace(self, mods, mod, path, make):
        """Swap the object at mod.path, and every module-level alias of it in
        weylkit, for make(original)."""
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(mod, owner_name) if owner_name else mod
        orig = getattr(owner, attr)
        if owner_name:
            # a method: replace it on the class
            new = make(orig)
            setattr(owner, attr, new)
            self._undo.append((owner, attr, orig))
            return
        new = make(orig)
        holders = list(mods.values()) + [sys.modules["weylkit"]]
        for holder in holders:
            for name, value in list(vars(holder).items()):
                if value is orig:
                    setattr(holder, name, new)
                    self._undo.append((holder, name, orig))

    def uninstall(self):
        for holder, name, orig in reversed(self._undo):
            setattr(holder, name, orig)
        self._undo.clear()
        # an itertools.count yields how often it was advanced, once
        self.product_counts = {name: next(c)
                               for name, c in self.counters.items()}

    # -- results --------------------------------------------------------

    def summary(self):
        """Per span name: calls, total seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for nid, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (nid, start, end, parent) in enumerate(self.spans):
            row = out.setdefault(self.names[nid],
                                 {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
        return out

    def figures(self):
        """Span summary, product counts, sums and distinct counts."""
        return {"summary": self.summary(),
                "counts": self.product_counts,
                "sums": self.sums,
                "distinct": {k: len(v) for k, v in self.distinct.items()}}

    def write(self, path, **extra):
        """The figures, every span and `extra`, as one JSON file."""
        doc = dict(self.figures(), names=self.names, spans=self.spans, **extra)
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


# -- figures recorded after a call returns, outside its span ---------------

def _after_build_groups(tracer, args, groups):
    small = (groups.w_tilde if groups.shadow.stab_level == "Ltilde"
             else groups.w_hat)
    tracer.note_distinct("shadow.build_groups", lambda: hash(
        (_keyset_hash(groups.w), _keyset_hash(small), _keyset_hash(groups.k))))


def _after_char_table(tracer, args, _none):
    table = args[0]
    tracer.add("char_engine.CharTable.classes", table.r)
    tracer.note_distinct("char_engine.CharTable",
                         lambda: _keyset_hash(table.group))


def _after_closure(tracer, args, elements):
    tracer.add("group_engine.closure.elements", len(elements))


def _after_full_group(tracer, args, elements):
    tracer.add("signed_perm.full_group.elements", len(elements))


AFTER = {
    "shadow.build_groups": _after_build_groups,
    "char_engine.CharTable": _after_char_table,
    "group_engine.closure": _after_closure,
    "signed_perm.full_group": _after_full_group,
}
