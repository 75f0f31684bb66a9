"""The three seeded workloads, their input generators and correctness gates.

Each workload is a closed loop with one client: the next call starts only
when the previous one returned.  The CLI is driven in process through
``brieskorn.cli.main(argv)``; the library is called directly only for the
rank-average side of the identity, which has no subcommand.

Every workload times two operations, ``first`` and ``second``:

=========  ===========================  ===============================
workload   first                        second
=========  ===========================  ===============================
census     enumerate ... --out F        collide --in F --window 0 0
ranks      sh-ranks v 0 0               mean_euler_from_ranks(v) == mec v
analyze7   analyze v --sig7 --json,     the same, cache hit
           cache miss
=========  ===========================  ===============================
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import sys
import time
import traceback
from bisect import bisect_right
from fractions import Fraction
from itertools import combinations, combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_package():
    """Import ``brieskorn`` from this checkout's ``src`` and nowhere else."""
    if not (SRC / "brieskorn" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no brieskorn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import brieskorn.cli

    if Path(brieskorn.cli.__file__).resolve().parent != SRC / "brieskorn":
        raise SystemExit(f"perfbench: imported {brieskorn.cli.__file__}, not {SRC}")
    return brieskorn


def vec_arg(v):
    return ",".join(str(a) for a in v)


class Harness:
    """Runs CLI calls in process and counts attempted and failed checks."""

    def __init__(self, tracer=None):
        import brieskorn.cli

        self.cli_module = brieskorn.cli
        self.tracer = tracer
        self.attempted = 0
        self.failures = []

    def cli(self, argv):
        """(exit code, stdout) of one in-process CLI invocation.

        An exception escaping ``main`` is what a user sees as a traceback
        and exit code 1; argparse's SystemExit carries its own code.
        """
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = self.cli_module.main(argv)
            except SystemExit as exc:
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception:  # a crash is a counted failure, not a harness error
                traceback.print_exc()
                rc = 1
        text = out.getvalue()
        if self.tracer is not None and self.tracer.active:
            self.tracer.add("cli.stdout_bytes", len(text.encode()))
        if rc != 0:
            print(f"perfbench: {' '.join(argv)} -> exit {rc}", err.getvalue(), file=sys.stderr)
        return rc, text

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failures.append(what)
            print(f"perfbench: FAILED {what}", file=sys.stderr)
        return ok


# ---------------------------------------------------------------------------
# generators


def spectrum_size(a):
    """Number of periods T <= d = lcm(a) fixed by at least two coordinates.

    By inclusion-exclusion, #{T : |I_T| >= 2} = sum over index sets S with
    |S| >= 2 of (-1)^|S| (|S| - 1) d / lcm(a_S).  This is the length of the
    period spectrum the first page is built from, computed without it.
    """
    d = math.lcm(*a)
    total = 0
    for k in range(2, len(a) + 1):
        sign = (-1) ** k * (k - 1)
        for sub in combinations(a, k):
            total += sign * (d // math.lcm(*sub))
    return total


def principal_index_abs(a):
    d = math.lcm(*a)
    return abs(2 * (sum(d // x for x in a) - d))


def _log_bounds(lo_exp, hi_exp, per_decade):
    steps = (hi_exp - lo_exp) * per_decade
    return [round(10 ** (lo_exp + i / per_decade)) for i in range(steps + 1)]


def _bucket(items, bounds):
    """Split (size, vector) pairs into log-width size bands."""
    buckets = [[] for _ in range(len(bounds) - 1)]
    for size, v in items:
        i = bisect_right(bounds, size) - 1
        if 0 <= i < len(buckets):
            buckets[i].append(v)
    return buckets


def _pick(rng, bucket, target, features, k):
    """Of k random bucket members, the one whose features are nearest target."""
    cands = rng.sample(bucket, min(k, len(bucket)))
    return min(cands, key=lambda v: max(abs(f - t) for f, t in zip(features(v), target)))


def _stratified(buckets, features, seed_tag, quantile=0.5, k=512, reference=31):
    """One vector per size band, matched to a seed-independent template.

    The template for a band is the member at ``quantile`` of the first
    feature among ``reference`` draws of a fixed generator; each seed then
    takes the nearest of ``k`` of its own draws.  Every seed thus gets a different set
    of vectors with the same mix of sizes, so run-to-run spread measures the
    program and not the draw.
    """
    ref_rng = random.Random("perfbench-template")
    rng = random.Random(seed_tag)
    out = []
    for bucket in buckets:
        ref = sorted(ref_rng.sample(bucket, min(reference, len(bucket))), key=features)
        template = ref[int(quantile * len(ref))]
        same_len = [v for v in bucket if len(v) == len(template)]
        out.append(_pick(rng, same_len, features(template), features, k))
    return out


def ranks_vectors(seed):
    """48 links for the rank-table workload.

    Exponent vectors with 4-5 entries in 2..30 and mu_P != 0, twelve in
    each degree band d in [10^2,10^3), ..., [10^5,10^6), one per twelfth of
    a decade.  Within a band the first-page cost follows the spectrum length
    and the rank-average window |mu_P|, so those two are matched to the
    template as well.
    """
    pool = []
    for n in (4, 5):
        for v in combinations_with_replacement(range(2, 31), n):
            d = math.lcm(*v)
            if 100 <= d < 10**6 and sum(d // a for a in v) != d:
                pool.append((d, v))
    buckets = _bucket(pool, _log_bounds(2, 6, 12))

    def features(v):
        return (math.log(spectrum_size(v)), math.log(principal_index_abs(v)))

    return _stratified(buckets, features, f"ranks:{seed}")


def analyze7_vectors(seed):
    """48 five-exponent vectors (entries 2..30) for the dim-7 workload.

    One per 48th of a decade of lattice box prod(a) in [10^5, 10^6], so the
    signature count costs the same mix on every seed.  The degree d, which
    sizes the moduli DPs, is matched to a template at the 80th percentile
    of d in the band (d about a tenth of the box), so the DPs take a visible
    share of a cold call next to the signature.
    """
    pool = [
        (math.prod(v), v)
        for v in combinations_with_replacement(range(2, 31), 5)
        if 10**5 <= math.prod(v) < 10**6
    ]
    buckets = _bucket(pool, _log_bounds(5, 6, 48))

    def features(v):
        return (math.log(math.lcm(*v)),)

    return _stratified(buckets, features, f"analyze7:{seed}", quantile=0.8)


def small_boxes(seed, count=10, max_box=1200):
    """Five-exponent vectors small enough for a Fraction brute force."""
    rng = random.Random(f"small:{seed}")
    pool = [
        v for v in combinations_with_replacement(range(2, 12), 5)
        if math.prod(v) <= max_box
    ]
    # two homotopy spheres always take part: signature 8 and a coprime one
    return [(2, 2, 2, 3, 5), (2, 3, 5, 7, 11)] + rng.sample(pool, count)


def brute_signature(a):
    """Brieskorn's signature count with exact fractions: points of the open
    box with sum x_j/a_j in (0,1) mod 2 count +1, in (1,2) count -1."""
    sigma = 0
    axes = [[Fraction(x, aj) for x in range(1, aj)] for aj in a]

    def walk(j, s):
        nonlocal sigma
        if j == len(a):
            r = s % 2
            if 0 < r < 1:
                sigma += 1
            elif r > 1:
                sigma -= 1
            return
        for f in axes[j]:
            walk(j + 1, s + f)

    walk(0, Fraction(0))
    return sigma


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """Base: ``run_pass`` appends one latency per op and phase to ``samples``.

    ``inputs`` comes from :func:`make_inputs`, run in the parent process so
    that the generators' memory never counts in the child's peak RSS.
    """

    items = {"first": 1, "second": 1}  # work items per op, for the rates

    def __init__(self, inputs, workdir, harness):
        self.inputs = inputs
        self.workdir = Path(workdir)
        self.h = harness
        self.probe = None  # a started SpeedProbe, or None for plain wall times
        self.samples = {"first": {}, "second": {}}  # wall seconds
        self.scaled = {"first": {}, "second": {}}  # probe-scaled seconds

    def timed(self, phase, op, fn, *args):
        if self.probe is None:
            start = time.perf_counter()
            result = fn(*args)
            self.samples[phase].setdefault(op, []).append(time.perf_counter() - start)
            return result
        mark = self.probe.mark()
        result = fn(*args)
        wall, scaled = self.probe.scaled(mark)
        self.samples[phase].setdefault(op, []).append(wall)
        self.scaled[phase].setdefault(op, []).append(scaled)
        return result

    def prepare(self):
        pass

    def warmup(self):
        pass

    def finish(self):
        pass



class Census(Workload):
    """Seed-independent dim-5 census, written and read back as JSONL.

    The one workload where the moduli DPs and per-record overhead
    (make_link, middle_betti, Fraction sums) dominate and the first page is
    minor; collide reads what enumerate wrote, so a change that speeds up
    writing but slows reading shows.
    """

    MAX_EXPONENT = 18
    RECORDS = 4845
    GROUPS = 494
    # sha256 of the exported JSONL file and of collide's stdout
    EXPORT_SHA256 = "fc97abffe25f75aac3b4213974880bfb2e038e45c23e2c7d16bf8549c31526a1"
    COLLIDE_SHA256 = "97a0620abc914b28368cb4ac24f7a57900b482831cb82043c321e2d3693474b8"

    items = {"first": RECORDS, "second": RECORDS}

    def prepare(self):
        self.path = self.workdir / "census.jsonl"
        self.enumerate_argv = [
            "enumerate", "--dim", "5", "--max-exponent", str(self.MAX_EXPONENT),
            "--jobs", "1", "--format", "jsonl", "--out", str(self.path),
        ]
        self.collide_argv = ["collide", "--in", str(self.path), "--window", "0", "0"]
        self.checked_list = False

    def warmup(self):
        small = self.workdir / "warmup.jsonl"
        self.h.cli(["enumerate", "--dim", "5", "--max-exponent", "5", "--out", str(small)])
        self.h.cli(["collide", "--in", str(small)])

    @staticmethod
    def expected_exponents(max_exponent):
        """Non-decreasing 4-vectors over 2..max in lexicographic order,
        by nested loops rather than itertools."""
        out = []
        for a in range(2, max_exponent + 1):
            for b in range(a, max_exponent + 1):
                for c in range(b, max_exponent + 1):
                    for e in range(c, max_exponent + 1):
                        out.append([a, b, c, e])
        return out

    def run_pass(self):
        h = self.h
        rc, out = self.timed("first", "enumerate", h.cli, self.enumerate_argv)
        h.check(rc == 0 and out == "", f"census enumerate exit {rc}")
        data = self.path.read_bytes() if self.path.exists() else b""
        h.check(hashlib.sha256(data).hexdigest() == self.EXPORT_SHA256,
                "census export digest differs from the golden")
        if not self.checked_list:
            self.checked_list = True
            listed = [json.loads(line)["exponents"] for line in data.splitlines() if line]
            h.check(listed == self.expected_exponents(self.MAX_EXPONENT),
                    "census records differ from the multiset generator")
        rc, out = self.timed("second", "collide", h.cli, self.collide_argv)
        h.check(rc == 0, f"census collide exit {rc}")
        groups = sum(1 for line in out.splitlines() if line.startswith("chi_m = "))
        h.check(groups == self.GROUPS, f"census collide found {groups} groups")
        h.check(hashlib.sha256(out.encode()).hexdigest() == self.COLLIDE_SHA256,
                "census collide stdout digest differs from the golden")



def _fraction(text):
    try:
        return Fraction(text.strip())
    except ValueError:
        return None


_RANK_LINE = re.compile(r"SH_0 = (\d+), (lacunary|not lacunary)\n\Z")


class Ranks(Workload):
    """Rank tables of single links from 10^2 to 10^6 in degree.

    period_spectrum and e1_page do almost all the work and the moduli DPs
    none.  The narrow window (degree 0) and the |mu_P|-wide rank-average
    window use the first page differently, so a windowing change that
    helps one query and hurts the other shows.
    """

    CANARIES = {(2, 3, 7, 22): 6, (3, 3, 4, 7): 7}

    def prepare(self):
        import brieskorn.invariants

        self.invariants = brieskorn.invariants
        self.vectors = [tuple(v) for v in self.inputs["vectors"]]
        self.window_out = {}

    def warmup(self):
        self.h.cli(["sh-ranks", "2,3,4,16", "0", "0"])
        self.invariants.mean_euler_from_ranks((2, 3, 4, 16))

    def _average(self, v):
        try:
            from_ranks = self.invariants.mean_euler_from_ranks(v).value
        except Exception:  # counted below as a failed identity, like a CLI crash
            traceback.print_exc()
            from_ranks = None
        rc, out = self.h.cli(["mec", vec_arg(v)])
        return from_ranks, rc, out

    def run_pass(self):
        h = self.h
        for v in self.vectors:
            s = vec_arg(v)
            rc, out = self.timed("first", s, h.cli, ["sh-ranks", s, "0", "0"])
            ok = rc == 0 and _RANK_LINE.match(out) is not None
            ok = ok and self.window_out.setdefault(s, out) == out
            h.check(ok, f"sh-ranks {s} 0 0: exit {rc}, {out!r}")
            from_ranks, rc, out = self.timed("second", s, self._average, v)
            ok = rc == 0 and from_ranks is not None and _fraction(out) == from_ranks
            h.check(ok, f"rank-average identity for {s}: {from_ranks} vs {out!r}")

    def finish(self):
        for v, rank in self.CANARIES.items():
            rc, out = self.h.cli(["sh-ranks", vec_arg(v), "0", "0"])
            m = _RANK_LINE.match(out)
            self.h.check(rc == 0 and m is not None and int(m.group(1)) == rank,
                         f"canary SH_0 of {v} is {out!r}, expected {rank}")



class Analyze7(Workload):
    """Full dim-7 records with the signature, first on a cache miss, then hit.

    Cold calls are mostly milnor_signature_dim7 plus the moduli DPs on a
    large degree, with no first-page calls; warm calls are the only
    measurement of the on-disk record cache.
    """

    def prepare(self):
        self.vectors = [tuple(v) for v in self.inputs["vectors"]]
        self.cold_out = {}
        self.passes = 0

    def warmup(self):
        self._with_cache("warmup", lambda: self.h.cli(["analyze", "2,2,2,3,5", "--sig7", "--json"]))

    def _with_cache(self, name, fn):
        cache = self.workdir / f"cache-{name}"
        shutil.rmtree(cache, ignore_errors=True)
        os.environ["BRIESKORN_CACHE_DIR"] = str(cache)
        try:
            return fn()
        finally:
            del os.environ["BRIESKORN_CACHE_DIR"]
            shutil.rmtree(cache, ignore_errors=True)

    @staticmethod
    def _check_record(out):
        try:
            rec = json.loads(out)
        except json.JSONDecodeError:
            return False
        sig = rec.get("sig7")
        if not isinstance(sig, int):
            return False
        return not rec.get("homotopy_sphere") or sig % 8 == 0

    def run_pass(self):
        self.passes += 1
        self._with_cache(f"pass{self.passes}", self._cold_then_warm)

    def _cold_then_warm(self):
        h = self.h
        cold = {}
        for v in self.vectors:
            s = vec_arg(v)
            rc, out = self.timed("first", s, h.cli, ["analyze", s, "--sig7", "--json"])
            ok = rc == 0 and self._check_record(out)
            ok = ok and self.cold_out.setdefault(s, out) == out
            h.check(ok, f"cold analyze {s} --sig7: exit {rc}")
            cold[s] = out
        for v in self.vectors:
            s = vec_arg(v)
            rc, out = self.timed("second", s, h.cli, ["analyze", s, "--sig7", "--json"])
            h.check(rc == 0 and out == cold[s], f"warm analyze {s} differs from cold")

    def finish(self):
        def run():
            for v in map(tuple, self.inputs["small"]):
                rc, out = self.h.cli(["analyze", vec_arg(v), "--sig7", "--json"])
                ok = rc == 0 and self._check_record(out)
                ok = ok and json.loads(out)["sig7"] == brute_signature(v)
                self.h.check(ok, f"sig7 of {v} differs from the lattice count")

        self._with_cache("small", run)



WORKLOADS = {"census": Census, "ranks": Ranks, "analyze7": Analyze7}


def make_inputs(workload, seed):
    """The seeded inputs of one workload, as JSON-ready lists."""
    if workload == "ranks":
        return {"vectors": ranks_vectors(seed)}
    if workload == "analyze7":
        return {"vectors": analyze7_vectors(seed), "small": small_boxes(seed)}
    return {}  # the census does not depend on the seed

# Oversize inputs whose correct outcome is BudgetExceeded (exit 3).  They
# run in their own capped process and are not timed in any latency.
GUARDS = {
    "ranks": ["sh-ranks", "2,3,7,43,1807,3263443", "0", "0"],
    "analyze7": ["analyze", "2,3,7,43,1807,3263443"],
}
