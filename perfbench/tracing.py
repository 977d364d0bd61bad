"""Outside-in tracing of the ramify modules.

``install(recorder, cache_dir)`` replaces public functions and methods of
the ramify modules with wrappers that record spans (name, start, end,
parent, op id) into ``recorder``.  Nothing under the package changes on
disk; the wrappers live only in the traced process.  Field element and
Z_q/p^(m+1) operations are counted, not spanned, because a span costs more
than the operation: their time stays in the self time of the enclosing span.
"""

import functools
import os
import sys
import time

from ramify import characters, cli, cyclo, epsilon, fields, jsonio, lft, series, witt

_clock = time.perf_counter

# span name -> list of (module or class, attribute)
SPANNED = {
    "epsilon.oracle": [(epsilon, "epsilon_tate_oracle")],
    "epsilon.closed": [(epsilon, "epsilon0"), (epsilon, "epsilon0_tame"),
                       (epsilon, "epsilon0_wild")],
    "epsilon.gauss": [(epsilon, "gauss_sum"), (epsilon, "quad_gauss")],
    "series.mul": [(series.LaurentSeries, "__mul__")],
    "series.inverse": [(series.LaurentSeries, "inverse")],
    "series.substitute_dilated": [(series, "substitute_dilated")],
    "series.decompose": [(series, "decompose_over_base")],
    "witt.add": [(witt, "witt_add")],
    "witt.reduce": [(witt, "reduce_vector")],
    "witt.dilate": [(witt, "dilate")],
    "characters.pairing": [(characters, "witt_pairing")],
    "characters.char_eval": [(characters, "char_eval")],
    "fields.build": [(fields, "make_field"), (fields.FiniteField, "__init__"),
                     (fields.FiniteField, "extension")],
    "cyclo.mul": [(cyclo.CycloNumber, "__mul__")],
    "cyclo.inverse": [(cyclo.CycloNumber, "inverse")],
    "cyclo.pretty": [(cyclo, "pretty")],
    "cyclo.root_of_unity": [(cyclo, "root_of_unity")],
    "lft.verify_laumon": [(lft, "verify_laumon")],
    "lft.congruence": [(lft, "congruence_check")],
    "lft.vanishing_support": [(lft, "vanishing_support")],
    "lft.descriptor": [(lft, "lft_descriptor")],
    "cli.run": [(cli, "run")],
    "jsonio.decode": [(jsonio, n) for n in sorted(vars(jsonio)) if n.endswith("_from_json")],
    "jsonio.encode": [(jsonio, n) for n in sorted(vars(jsonio)) if n.endswith("_to_json")],
}

COUNTED = {
    "fields.zq_mul.calls": (fields.WittCoeffRing, "mul"),
    "fields.fq_mul.calls": (fields.FqElement, "__mul__"),
    "fields.fq_add.calls": (fields.FqElement, "__add__"),
}
# fields.build.calls counts constructions, not make_field lookups
BUILD = (fields.FiniteField, "__init__")

TABLE_SOURCES = ("from_memory", "from_disk", "from_sympy")


class Recorder:
    """Spans kept in memory; self time is settled when a span closes."""

    def __init__(self):
        self.spans = []  # (name, start, end, parent index, op id)
        self.self_s = {}
        self.total_s = {}
        self.calls = {}
        self.counts = {}
        self.op_id = -1  # -1: set-up, before the first op
        self._stack = []  # [span index, child time, parent name]

    def enter(self, name):
        if self._stack:
            parent, parent_name = self._stack[-1][0], self.spans[self._stack[-1][0]][0]
        else:
            parent, parent_name = -1, None
        self.spans.append([name, _clock(), 0.0, parent, self.op_id])
        self._stack.append([len(self.spans) - 1, 0.0, parent_name])

    def leave(self):
        """Close the innermost span.  A call made from inside a span of the
        same name (epsilon0 -> epsilon0_wild) is one call of that layer."""
        index, child_s, parent_name = self._stack.pop()
        span = self.spans[index]
        span[2] = _clock()
        dur = span[2] - span[1]
        name = span[0]
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child_s
        if parent_name != name:
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_s[name] = self.total_s.get(name, 0.0) + dur
        if self._stack:
            self._stack[-1][1] += dur

    def bump(self, key, by=1):
        self.counts[key] = self.counts.get(key, 0) + by

    def summary(self):
        return {"self_s": self.self_s, "total_s": self.total_s,
                "calls": self.calls, "counts": self.counts}

    def write_spans(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{op}\n")


def _rebind(owner, attr, new):
    """Point every ramify module (and the benchmark's own modules) that holds
    the original object at the wrapper as well, so ``from x import f`` call
    sites are traced too."""
    old = getattr(owner, attr)
    setattr(owner, attr, new)
    if isinstance(owner, type):
        return
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name.startswith("ramify") or mod_name == "workloads"):
            continue
        if vars(mod).get(attr) is old:
            setattr(mod, attr, new)


def _spanned(rec, name, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec.enter(name)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leave()
    return wrapper


def _counted(rec, key, fn):
    counts = rec.counts
    counts.setdefault(key, 0)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _table_getter(rec, orig, cache_dir):
    """Classify each UniversalWittTable.get before it runs: a key this
    process asked for before comes from memory, else a file in the cache
    directory means disk, else sympy derives it."""
    seen = set()
    for source in TABLE_SOURCES:
        rec.counts.setdefault(f"witt.table.{source}", 0)
    rec.counts.setdefault("witt.table.sympy_s", 0.0)
    rec.counts.setdefault("witt.table.disk_s", 0.0)

    def get(cls, p, length):
        key = (p, length)
        if key in seen:
            source = "from_memory"
        elif os.path.exists(os.path.join(cache_dir, f"witt-p{p}-len{length}.json")):
            source = "from_disk"
        else:
            source = "from_sympy"
        seen.add(key)
        rec.bump(f"witt.table.{source}")
        start = _clock()
        try:
            return orig(cls, p, length)
        finally:
            if source != "from_memory":
                rec.bump(f"witt.table.{source[5:]}_s", _clock() - start)
    return classmethod(get)


def install(rec, cache_dir):
    for key, (owner, attr) in COUNTED.items():
        _rebind(owner, attr, _counted(rec, key, getattr(owner, attr)))
    for name, targets in SPANNED.items():
        for owner, attr in targets:
            fn = getattr(owner, attr)
            if (owner, attr) == BUILD:
                fn = _counted(rec, "fields.build.calls", fn)
            _rebind(owner, attr, _spanned(rec, name, fn))
    table = witt.UniversalWittTable
    table.get = _table_getter(rec, table.get.__func__, cache_dir)
