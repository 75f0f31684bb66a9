"""Run one workload in this process and print its raw results as JSON.

Started by run.py under an address-space cap; not meant to be run by hand.
An untraced run times passes until ``--seconds`` is used up.  A traced run
alternates an untraced and a traced pass, so its overhead is measured on
the same inputs, and reports per-layer numbers per traced pass.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from probe import KERNEL_S, SpeedProbe
from spans import Tracer
from workloads import WORKLOADS, Harness, import_package


def tail(values):
    """(value, percentile) of the highest percentile with at least ten
    samples beyond it; with fewer than eleven samples, the maximum."""
    xs = sorted(values)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def phase_stats(per_op, items):
    """Each op's median time over the passes, then the median, tail and
    rate of those over the ops."""
    typical = [statistics.median(v) for v in per_op.values()]
    value, pct = tail(typical)
    return {
        "p50_ms": statistics.median(typical) * 1e3,
        "tail_ms": value * 1e3,
        "tail_pct": pct,
        "per_s": items * len(typical) / sum(typical),
        "ops": len(typical),
        "passes": min(len(v) for v in per_op.values()),
    }


def peak_rss_mb():
    """High-water RSS of this process image.

    VmHWM belongs to the address space made at exec; ru_maxrss would also
    count the parent's pages inherited through fork.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--inputs", required=True, help="JSON file from make_inputs")
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    import_package()
    tracer = Tracer() if args.trace else None
    harness = Harness(tracer)
    with open(args.inputs, encoding="utf-8") as fh:
        inputs = json.load(fh)
    wl = WORKLOADS[args.workload](inputs, args.workdir, harness)
    wl.prepare()
    wl.warmup()
    harness.attempted = 0
    harness.failures = []

    def one_pass(traced):
        if traced:
            tracer.install()
            tracer.active = True
        start = time.perf_counter()
        try:
            wl.run_pass()
        finally:
            if traced:
                tracer.active = False
                tracer.uninstall()
        return time.perf_counter() - start

    plain, traced = [], []
    op_time_traced = 0.0
    if not args.trace:
        wl.probe = SpeedProbe()
        wl.probe.start()
    deadline = time.perf_counter() + args.seconds
    while True:
        plain.append(one_pass(False))
        step = plain[-1]
        if args.trace:
            ops_before = _op_time(wl)
            traced.append(one_pass(True))
            op_time_traced += _op_time(wl) - ops_before
            step += traced[-1]
        if time.perf_counter() + step > deadline:
            break
    if wl.probe is not None:
        wl.probe.stop()
    wl.finish()

    result = {
        "workload": args.workload,
        "attempted": harness.attempted,
        "failures": harness.failures,
        "peak_rss_mb": peak_rss_mb(),
        "pass_s": plain,
    }
    if args.trace:
        n = len(traced)
        layers = tracer.layer_metrics(n)
        layers["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
        layers["trace.coverage"] = tracer.self_total() / op_time_traced
        result["per_layer"] = layers
        result["spans"] = tracer.table()
        result["traced_pass_s"] = traced
    else:
        result["phases"] = {
            phase: phase_stats(wl.scaled[phase], wl.items[phase])
            for phase in ("first", "second")
        }
        result["wall_phases"] = {
            phase: phase_stats(wl.samples[phase], wl.items[phase])
            for phase in ("first", "second")
        }
        speeds = [KERNEL_S / k for k in wl.probe.took]
        result["speed"] = {
            "mean": statistics.fmean(speeds),
            "min": min(speeds),
            "max": max(speeds),
            "samples": len(speeds),
        }
    print(json.dumps(result))


def _op_time(wl):
    """Total timed-op seconds recorded so far, both phases."""
    return sum(sum(v) for phase in wl.samples.values() for v in phase.values())


if __name__ == "__main__":
    main()
