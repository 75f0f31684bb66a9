"""Per-layer span tracing installed from outside the package.

Every public function of the traced ``brieskorn`` modules is replaced by a
wrapper that times it as a span.  A name is patched in every module that
holds it (``tables`` imports ``mean_euler`` from ``invariants``, the package
re-exports nearly everything), so calls nest however they are reached and
a span's self time is its duration minus the durations of the spans it
caused.  Spans are aggregated per function in memory; nothing is written
until the caller asks for the table.  The source tree is never modified.
"""

from __future__ import annotations

import functools
import inspect
import math
import os
import sys
import time

TRACED_MODULES = ("linkmodel", "invariants", "homology", "einstein", "tables", "cli")


def _exponents_of(arg):
    """Exponent tuple of a LinkProfile or of a plain exponent sequence."""
    return tuple(getattr(arg, "exponents", arg))


class Tracer:
    """Span timer and counters for the wrapped functions.

    ``stats`` maps ``module.function`` to [calls, total_s, self_s];
    ``counters`` holds sizes measured at the same boundaries.  Wrappers do
    nothing but call through while ``active`` is false.
    """

    def __init__(self):
        self.active = False
        self.stats = {}
        self.counters = {}
        self._stack = []  # time covered by child spans, one slot per open span
        self._distinct_betti = set()
        self._patched = []  # (module, attribute, original)
        self.wrapped = {}  # qualified name -> (original, wrapper)

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every public function of the traced modules, everywhere."""
        import brieskorn.cli  # noqa: F401  (imports every traced module)

        mods = {m: sys.modules[f"brieskorn.{m}"] for m in TRACED_MODULES}
        for short, mod in mods.items():
            for name, fn in vars(mod).items():
                if name.startswith("_") or not inspect.isfunction(fn):
                    continue
                if fn.__module__ != mod.__name__:
                    continue  # an imported name; wrapped where it is defined
                qual = f"{short}.{name}"
                self.wrapped[qual] = (fn, self._wrap(qual, fn))
        by_id = {id(orig): wrapper for orig, wrapper in self.wrapped.values()}
        holders = [
            m for n, m in sys.modules.items()
            if m is not None and (n == "brieskorn" or n.startswith("brieskorn."))
        ]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                wrapper = by_id.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []
        self.wrapped = {}

    # -- the wrapper -------------------------------------------------------

    def _wrap(self, qual, fn):
        hook = _HOOKS.get(qual)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            before = hook(self, "before", args, kwargs, None) if hook else None
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                row = self.stats.get(qual)
                if row is None:
                    row = self.stats[qual] = [0, 0.0, 0.0]
                row[0] += 1
                row[1] += elapsed
                row[2] += elapsed - children
            if hook:
                hook(self, "after", args, kwargs, (before, result))
            return result

        return wrapper

    # -- results -----------------------------------------------------------

    def self_total(self):
        return sum(row[2] for row in self.stats.values())

    def table(self):
        """Per-function rows sorted by self time, for the written-out trace."""
        return [
            {"span": qual, "calls": c, "total_s": t, "self_s": s}
            for qual, (c, t, s) in sorted(
                self.stats.items(), key=lambda kv: -kv[1][2]
            )
        ]

    def layer_metrics(self, passes):
        """The per-layer metrics, per traced pass (counts and seconds)."""
        def calls(q):
            return self.stats.get(q, (0, 0.0, 0.0))[0] / passes

        def self_s(q):
            return self.stats.get(q, (0, 0.0, 0.0))[2] / passes

        def counter(name):
            return self.counters.get(name, 0) / passes

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        for q in (
            "linkmodel.make_link", "tables.build_record", "cli.main",
            "homology.quotient_betti", "invariants.maslov_index",
        ):
            m[f"{q}.calls"] = calls(q)
        for q in (
            "linkmodel.make_link", "linkmodel.strata", "linkmodel.period_spectrum",
            "invariants.mean_euler", "invariants.phi", "invariants.e1_page",
            "invariants.mean_euler_from_ranks", "homology.middle_betti",
            "homology.diffeo_type_dim5", "homology.is_homotopy_sphere",
            "homology.milnor_signature_dim7", "einstein.se_status",
            "einstein.moduli_dimension", "einstein.count_perturbation_monomials",
            "tables.build_record", "tables.export_records", "tables.import_records",
            "tables.record_to_json_dict", "tables.record_from_json_dict",
            "tables.find_mec_collisions", "tables.cached_record", "cli.main",
        ):
            m[f"{q}.self_s"] = self_s(q)
        # every traced pass makes the same calls, so the distinct arguments
        # seen over all passes are those of one pass
        m["homology.quotient_betti.distinct_ratio"] = ratio(
            len(self._distinct_betti), calls("homology.quotient_betti")
        )
        m["einstein.moduli_dimension.dp_cells"] = counter("einstein.moduli_dimension.dp_cells")
        box = counter("homology.milnor_signature_dim7.box_points")
        m["homology.milnor_signature_dim7.box_points"] = box
        m["homology.milnor_signature_dim7.ns_per_point"] = ratio(
            self_s("homology.milnor_signature_dim7") * 1e9, box
        )
        entries = counter("linkmodel.period_spectrum.entries")
        columns = counter("invariants.e1_page.columns")
        m["linkmodel.period_spectrum.entries"] = entries
        m["invariants.e1_page.columns"] = columns
        m["invariants.e1_page.column_yield"] = ratio(columns, entries)
        for name in (
            "tables.export_records.bytes", "tables.import_records.bytes",
            "tables.find_mec_collisions.groups", "tables.find_mec_collisions.rank_queries",
            "tables.cached_record.hits", "tables.cached_record.misses",
            "cli.stdout_bytes",
        ):
            m[name] = counter(name)
        return m


# -- size counters, taken from arguments and results at the span boundary ---


def _quotient_betti(tr, when, args, kwargs, data):
    if when == "after":
        tr._distinct_betti.add(tuple(args[0]))


def _moduli_dimension(tr, when, args, kwargs, data):
    if when == "after":
        a = _exponents_of(args[0])
        tr.add("einstein.moduli_dimension.dp_cells", math.lcm(*a) * len(a))


def _milnor_signature(tr, when, args, kwargs, data):
    if when == "after":
        tr.add("homology.milnor_signature_dim7.box_points", math.prod(args[0]))


def _period_spectrum(tr, when, args, kwargs, data):
    if when == "after":
        tr.add("linkmodel.period_spectrum.entries", len(data[1].entries))


def _e1_page(tr, when, args, kwargs, data):
    if when == "after":
        tr.add("invariants.e1_page.columns", len(data[1].columns))


def _export_records(tr, when, args, kwargs, data):
    if when == "after":
        tr.add("tables.export_records.bytes", os.path.getsize(args[1]))


def _import_records(tr, when, args, kwargs, data):
    if when == "after":
        tr.add("tables.import_records.bytes", os.path.getsize(args[0]))


def _find_mec_collisions(tr, when, args, kwargs, data):
    if when == "after":
        groups = data[1]
        tr.add("tables.find_mec_collisions.groups", len(groups))
        tr.add("tables.find_mec_collisions.rank_queries",
               sum(len(g.members) for g in groups))


def _cached_record(tr, when, args, kwargs, data):
    builds = tr.stats.get("tables.build_record", (0,))[0]
    if when == "before":
        return builds
    tr.add("tables.cached_record.misses" if builds > data[0] else "tables.cached_record.hits", 1)


_HOOKS = {
    "homology.quotient_betti": _quotient_betti,
    "einstein.moduli_dimension": _moduli_dimension,
    "homology.milnor_signature_dim7": _milnor_signature,
    "linkmodel.period_spectrum": _period_spectrum,
    "invariants.e1_page": _e1_page,
    "tables.export_records": _export_records,
    "tables.import_records": _import_records,
    "tables.find_mec_collisions": _find_mec_collisions,
    "tables.cached_record": _cached_record,
}
