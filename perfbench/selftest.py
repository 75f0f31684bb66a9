"""Fast self-test of the tracing harness on tiny inputs.

Checks that every public function of the traced modules is wrapped in
every module that holds it, that spans nest (a span's self time never
exceeds its duration and the self times add up to the outermost spans),
that the counters see the cache and the IO, and that stdout bytes are the
same with tracing off, installed-but-inactive, and on.
"""

from __future__ import annotations

import os
import shutil
import sys

from spans import Tracer
from workloads import Harness, import_package


def _tiny_ops(h, work):
    """The outputs of a few tiny CLI calls touching every traced layer."""
    census = work / "tiny.jsonl"
    cache = work / "tiny-cache"
    shutil.rmtree(cache, ignore_errors=True)
    os.environ["BRIESKORN_CACHE_DIR"] = str(cache)
    try:
        outs = [
            h.cli(["enumerate", "--dim", "5", "--max-exponent", "6", "--out", str(census)]),
            (0, census.read_text()),
            h.cli(["collide", "--in", str(census)]),
            h.cli(["sh-ranks", "2,3,7,22", "0", "0"]),
            h.cli(["mec", "2,3,4,16"]),
            h.cli(["analyze", "2,2,2,3,5", "--sig7", "--json"]),  # cache miss
            h.cli(["analyze", "2,2,2,3,5", "--sig7", "--json"]),  # cache hit
        ]
        import brieskorn.invariants

        outs.append((0, str(brieskorn.invariants.mean_euler_from_ranks((2, 3, 4, 16)).value)))
    finally:
        del os.environ["BRIESKORN_CACHE_DIR"]
        shutil.rmtree(cache, ignore_errors=True)
        census.unlink(missing_ok=True)
    return outs


# names that modules take from a sibling or re-export; each must be wrapped
IMPORTED = [
    ("brieskorn", "mean_euler", "invariants.mean_euler"),
    ("brieskorn.tables", "mean_euler", "invariants.mean_euler"),
    ("brieskorn.cli", "sh_plus_ranks", "invariants.sh_plus_ranks"),
    ("brieskorn.invariants", "period_spectrum", "linkmodel.period_spectrum"),
    ("brieskorn.homology", "make_link", "linkmodel.make_link"),
    ("brieskorn.einstein", "make_link", "linkmodel.make_link"),
]


def _stale(functions):
    """(module, attribute) pairs anywhere in sys.modules holding one of
    ``functions``, found without the tracer's own idea of who imports what."""
    ids = {id(f) for f in functions}
    return [
        (name, attr)
        for name, mod in list(sys.modules.items())
        if mod is not None
        for attr, value in list(vars(mod).items())
        if id(value) in ids
    ]


def self_test(work):
    work.mkdir(parents=True, exist_ok=True)
    import_package()
    problems = []
    tracer = Tracer()
    h = Harness(tracer)
    plain = _tiny_ops(h, work)

    tracer.install()
    wrapped_pairs = list(tracer.wrapped.values())
    wrapped = len(wrapped_pairs)
    try:
        originals = [orig for orig, _ in tracer.wrapped.values()]
        stale = _stale(originals)
        if stale:
            problems.append(f"unwrapped references left: {stale}")
        for mod, attr, qual in IMPORTED:
            if getattr(sys.modules[mod], attr) is not tracer.wrapped[qual][1]:
                problems.append(f"{mod}.{attr} is not the wrapper of {qual}")
        for want in ("linkmodel.make_link", "invariants.e1_page", "cli.main",
                     "tables.cached_record", "einstein.moduli_dimension"):
            if want not in tracer.wrapped:
                problems.append(f"{want} is not wrapped")
        idle = _tiny_ops(h, work)
        if tracer.stats:
            problems.append("inactive wrappers recorded spans")
        tracer.active = True
        traced = _tiny_ops(h, work)
        tracer.active = False
    finally:
        tracer.uninstall()
    if _stale(w for _, w in wrapped_pairs):
        problems.append("uninstall left wrappers behind")

    for label, outs in (("installed", idle), ("traced", traced)):
        if outs != plain:
            problems.append(f"stdout differs between untraced and {label} runs")
    if any(rc != 0 for rc, _ in plain):
        problems.append(f"a tiny op failed: {[rc for rc, _ in plain]}")
    for qual, (calls, total, self_s) in tracer.stats.items():
        if self_s > total + 1e-9 or self_s < -1e-6:
            problems.append(f"{qual}: self {self_s} outside [0, {total}]")
    top = tracer.stats["cli.main"][1] + tracer.stats["invariants.mean_euler_from_ranks"][1]
    if abs(tracer.self_total() - top) > 1e-6 * max(1.0, top):
        problems.append(f"self times add to {tracer.self_total()}, outer spans to {top}")
    m = tracer.layer_metrics(1)
    expect = {
        "tables.cached_record.hits": 1, "tables.cached_record.misses": 1,
        "cli.main.calls": 6, "homology.milnor_signature_dim7.box_points": 2 * 2 * 2 * 3 * 5,
    }
    for name, value in expect.items():
        if m[name] != value:
            problems.append(f"{name} = {m[name]}, expected {value}")
    for name in ("tables.export_records.bytes", "tables.import_records.bytes",
                 "linkmodel.period_spectrum.entries", "invariants.e1_page.columns",
                 "einstein.moduli_dimension.dp_cells", "cli.stdout_bytes"):
        if not m[name] > 0:
            problems.append(f"{name} recorded nothing")

    for p in problems:
        print(f"self-test: {p}")
    print(f"self-test {'FAILED' if problems else 'ok'}: "
          f"{wrapped} functions wrapped, {len(tracer.stats)} seen in spans")
    return 1 if problems else 0
