"""Benchmark for the brieskorn CLI: three seeded workloads, one per run.

    python3 perfbench/run.py --workload census|ranks|analyze7 --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the repository root (any directory works; paths are taken from
this file).  Each run measures a fresh interpreter's set-up time, then runs
the workload in a child process under a 1 GiB address-space cap, then the
workload's oversize guard input in another capped child.  Readable lines
go first; the last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The exit code is
0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from probe import KERNEL_S, speed
from workloads import GUARDS, make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
ADDRESS_CAP = 1 << 30
SETUP_REPEATS = 21
RUN_LIMIT_S = 170

# The first phase and second phase of each workload, by the names used in
# the readable report (see workloads.py for what each one runs).
PHASE_NAMES = {
    "census": {"first": "enumerate", "second": "collide"},
    "ranks": {"first": "window", "second": "average"},
    "analyze7": {"first": "cold", "second": "warm"},
}

SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); import brieskorn.cli; "
    "sys.exit(brieskorn.cli.main(['mec', '2,3,4,16']))"
)
GUARD_CODE = (
    "import sys; sys.path.insert(0, 'src'); import brieskorn.cli; "
    "sys.exit(brieskorn.cli.main(sys.argv[1:]))"
)


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_CAP, ADDRESS_CAP))


def measure_setup():
    """Median of a fresh interpreter's time to import the CLI and answer
    ``mec 2,3,4,16``, after one untimed start that compiles; each start is
    scaled by the probe's speed just before and after it (probe.py).
    Returns (scaled median, wall median, error)."""
    scaled, walls = [], []
    for i in range(SETUP_REPEATS + 1):
        before = statistics.median(speed() for _ in range(3))
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        elapsed = time.perf_counter() - start
        after = statistics.median(speed() for _ in range(3))
        if proc.returncode != 0 or proc.stdout != "25/14\n":
            return None, None, f"mec 2,3,4,16 gave exit {proc.returncode}, {proc.stdout!r}"
        if i:
            walls.append(elapsed)
            scaled.append(elapsed * (before + after) / 2)
    return statistics.median(scaled), statistics.median(walls), None


def run_guard(argv, budget):
    """Exit code, seconds and last stderr line of one oversize input."""
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-c", GUARD_CODE, *argv], cwd=ROOT,
            capture_output=True, text=True, timeout=budget,
            preexec_fn=_cap_address_space,
        )
        rc, err = proc.returncode, proc.stderr.strip().splitlines()
    except subprocess.TimeoutExpired:
        rc, err = "timeout", [f"timed out after {budget:.0f} s"]
    return rc, time.perf_counter() - start, (err[-1] if err else "")


def run_child(args, inputs, workdir, budget):
    path = workdir / "inputs.json"
    path.write_text(json.dumps(inputs))
    cmd = [
        sys.executable, str(HERE / "child.py"), "--workload", args.workload,
        "--inputs", str(path), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", str(workdir),
    ]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        preexec_fn=_cap_address_space,
    )
    try:
        out, _ = proc.communicate(timeout=budget)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return None, f"workload child timed out after {budget:.0f} s"
    if proc.returncode != 0:
        return None, f"workload child exited {proc.returncode}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (ValueError, IndexError):
        return None, "workload child printed no result"


def end_to_end(res, setup_s):
    metrics = {"setup_s": setup_s, "peak_rss_mb": res["peak_rss_mb"]}
    for phase in ("first", "second"):
        st = res["phases"][phase]
        for stat in ("per_s", "p50_ms", "tail_ms"):
            metrics[f"{phase}_{stat}"] = st[stat]
    return metrics


def report_named(workload, res, setup_s, setup_wall, guard, failed, attempted):
    """Readable lines with the workload's own metric names: probe-scaled
    times, with the plain wall times in brackets."""
    names = PHASE_NAMES[workload]
    sp = res["speed"]
    lines = [
        f"host speed {sp['mean']:.3f} mean ({sp['min']:.3f}..{sp['max']:.3f}, "
        f"{sp['samples']} probe samples; 1 = kernel in {KERNEL_S * 1e3:.3f} ms)",
        f"setup_s {setup_s:.4f} s [wall {setup_wall:.4f}]",
        f"peak_rss_mb {res['peak_rss_mb']:.1f} MB",
    ]
    for phase, name in names.items():
        st, wall = res["phases"][phase], res["wall_phases"][phase]
        unit = "records/s" if workload == "census" else "ops/s"
        lines.append(f"{name}_per_s {st['per_s']:.2f} {unit} [wall {wall['per_s']:.2f}]")
        lines.append(f"{name}_p50_ms {st['p50_ms']:.3f} ms [wall {wall['p50_ms']:.3f}] "
                     f"(n={st['ops']} ops)")
        lines.append(
            f"{name}_tail_ms {st['tail_ms']:.3f} ms [wall {wall['tail_ms']:.3f}] "
            f"(p{st['tail_pct']:.1f}, n={st['ops']} ops, median of {st['passes']}+ passes each)"
        )
    guard_fail = 0
    if guard is not None:
        argv, rc, secs, last = guard
        guard_fail = int(rc != 3)
        verdict = "ok" if rc == 3 else "FAIL (not counted in 'failed' below)"
        lines.append(
            f"guard {' '.join(argv)}: exit {rc} in {secs:.2f} s, expected 3: {verdict}"
            + (f" [{last}]" if rc != 3 else "")
        )
    lines.append(
        f"fail_frac {(failed + guard_fail) / (attempted + (guard is not None)):.4f} "
        f"({failed} checks + {guard_fail} guard of {attempted + (guard is not None)})"
    )
    return lines


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(PHASE_NAMES))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=35)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="check the tracing harness on tiny inputs and exit")
    args = ap.parse_args()
    if not (ROOT / "src" / "brieskorn" / "cli.py").is_file():
        print(f"perfbench: no brieskorn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.self_test:
        from selftest import self_test

        return self_test(WORK)
    if args.workload is None:
        ap.error("--workload is required")

    started = time.perf_counter()
    workdir = WORK / f"{args.workload}-s{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, setup_wall, err = measure_setup()
        if err:
            print(f"perfbench: set-up check failed: {err}", file=sys.stderr)
            return 1
        inputs = make_inputs(args.workload, args.seed)
        res, err = run_child(args, inputs, workdir, RUN_LIMIT_S - 20 - (time.perf_counter() - started))
        if err:
            print(f"perfbench: {err}", file=sys.stderr)
            return 1
        guard = None
        if args.workload in GUARDS:
            argv = GUARDS[args.workload]
            guard = (argv, *run_guard(argv, RUN_LIMIT_S - (time.perf_counter() - started)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(res["failures"])
    attempted = res["attempted"]
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}, untraced passes (s): "
          + " ".join(f"{s:.3f}" for s in res["pass_s"]))
    if args.trace:
        WORK.mkdir(exist_ok=True)
        out = WORK / f"trace-{args.workload}-s{args.seed}.json"
        out.write_text(json.dumps({**res, "inputs": inputs}, indent=1))
        print(f"{'span':44} {'calls/pass':>12} {'self_s/pass':>12}")
        passes = len(res["traced_pass_s"])
        for row in res["spans"][:20]:
            print(f"{row['span']:44} {row['calls'] / passes:12.0f} {row['self_s'] / passes:12.4f}")
        print(f"full trace written to {out.relative_to(ROOT)}")
        metrics = res["per_layer"]
    else:
        for line in report_named(args.workload, res, setup_s, setup_wall, guard, failed,
                                 attempted):
            print(line)
        metrics = end_to_end(res, setup_s)
    for what in res["failures"][:20]:
        print(f"FAILED: {what}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    if set(metrics) != {m["name"] for m in listed}:
        print(f"perfbench: metrics {sorted(metrics)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
