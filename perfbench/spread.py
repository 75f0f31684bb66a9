"""Run the benchmark on many seeds and report each metric's spread.

``python3 perfbench/spread.py --runs 1`` is the one command that prints
every end-to-end metric of every workload, by its name and with its unit.

    python3 perfbench/spread.py [--runs 10] [--first-seed 1] \
        [--workloads census ranks analyze7] [--trace] [--out FILE]

Seeds first-seed .. first-seed+runs-1 are run round-robin over the
workloads, each as its own ``run.py`` process with the run length from
BENCHMARK.json.  For every end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(q3 - q1) / median next to the metric's bound.  ``--trace`` adds one traced
run per workload on the first seed; ``--out`` writes everything as JSON,
with the machine and Python version, for use as a recorded baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result, lines[:-1]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=names, default=names)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--out")
    args = ap.parse_args()
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = list(range(args.first_seed, args.first_seed + args.runs))

    values = {w: {} for w in args.workloads}
    reports = []
    failures = []
    for seed in seeds:
        for w in args.workloads:
            rc, res, lines = run_once(w, seed, seconds, 0)
            print("\n".join(lines), flush=True)
            reports.append({"workload": w, "seed": seed, "exit": rc, "lines": lines})
            if rc != 0 or res is None or not res["correct"]:
                failures.append({"workload": w, "seed": seed, "exit": rc})
                print(f"{w} seed {seed}: exit {rc}, result {res}", flush=True)
                continue
            for name, m in res["metrics"].items():
                values[w].setdefault(name, []).append(m["value"])
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={m['value']:.4g}" for k, m in res["metrics"].items()), flush=True)

    summary = {}
    ok = not failures
    for w in args.workloads:
        summary[w] = {}
        print(f"\n{w}: {'metric':16} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        for name, vals in values[w].items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / med
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                "values": vals}
            flag = ""
            if name != "setup_s" and spread > bounds[name]:
                flag, ok = "  over bound", False
            elif spread > bounds[name] / 3:
                flag = "  over bound/3"
            print(f"{'':{len(w) + 2}}{name:16} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                  f"{spread:8.3f} {bounds[name]:6.2f}{flag}")

    traced = {}
    if args.trace:
        for w in args.workloads:
            rc, res, lines = run_once(w, seeds[0], seconds, 1)
            if rc != 0 or res is None:
                failures.append({"workload": w, "seed": seeds[0], "exit": rc, "trace": 1})
                ok = False
                continue
            traced[w] = {k: m["value"] for k, m in res["metrics"].items()}
            print(f"\n{w} traced, seed {seeds[0]}:")
            print("\n".join(lines))

    if args.out:
        Path(args.out).write_text(json.dumps({
            "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                        "python": platform.python_version(),
                        "platform": platform.platform()},
            "run_seconds": seconds,
            "seeds": seeds,
            "end_to_end": summary,
            "per_layer": traced,
            "failures": failures,
            "reports": reports,
        }, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
