"""Command-line interface.

Subcommands::

    analyze    all invariants of one exponent vector
    mec        mean Euler characteristic only
    sh-ranks   graded equivariant ranks over a degree window
    se-check   Sasaki-Einstein existence report
    sweep      one-parameter family b+c*k over a k range
    enumerate  census of exponent vectors by dimension and bound
    collide    group census records by equal mean Euler characteristic

Exit codes: 0 success, 1 usage, 2 invalid input, 3 budget exceeded,
4 internal inconsistency (a bug; please report the vector that caused it).
A version banner is always printed to stderr; stdout carries only results,
deterministically (same invocation, same bytes).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import __version__
from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    ValidationError,
)
from .einstein import se_status
from .homology import chi_s1, middle_betti
from .invariants import mean_euler, sh_plus_ranks
from .linkmodel import make_link, parse_exponents
from .tables import (
    FILTER_NAMES,
    _csv_writer,
    _filter_records,
    _iter_imported,
    _iter_records,
    _iter_sweep,
    _write_records,
    cached_record,
    export_records,
    find_mec_collisions,
    parse_sweep_spec,
    record_to_csv_row,
    record_to_json_dict,
)

# lattice boxes up to this size get a dim-7 signature without being asked
_AUTO_SIG7_BOX = 10**6


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on usage errors; this CLI reserves 2 for bad input."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_q(x, approx):
    s = str(x)
    if approx and "/" in s:
        s += f" (~{float(x):.6g})"
    return s


def _fmt_bool(b):
    if b is None:
        return "-"
    return "true" if b else "false"


def _print_kv(pairs, out):
    width = max(len(k) for k, _ in pairs)
    for k, v in pairs:
        print(f"{k.ljust(width)}  {v}", file=out)


def _label(exponents):
    return "L(" + ",".join(str(a) for a in exponents) + ")"


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_analyze(args, out):
    exponents = parse_exponents(args.exponents)
    if len(exponents) == 2:
        link = make_link(exponents)
        d = {
            "exponents": list(link.exponents),
            "dim": link.link_dim,
            "degree": link.degree,
            "weights": list(link.weights),
            "recip_sum": str(link.recip_sum),
            "middle_rank": middle_betti(link),
            "chi_s1": chi_s1(link),
            "note": "classifiers, SE verdicts and chi_m need >= 3 exponents",
        }
        if args.json:
            print(json.dumps(d, indent=2), file=out)
            return 0
        print(_label(d.pop("exponents")), file=out)
        d["weights"] = ",".join(str(w) for w in link.weights)
        d["recip_sum"] = _fmt_q(link.recip_sum, args.approx)
        _print_kv([(k, str(v)) for k, v in d.items()], out)
        return 0

    box, sig7_note = math.prod(exponents), None
    with_sig7 = args.sig7 or box <= _AUTO_SIG7_BOX
    if len(exponents) == 5 and not with_sig7:
        sig7_note = (
            f"skipped: {box} lattice points > {_AUTO_SIG7_BOX}; "
            "pass --sig7 to force"
        )
    rec = cached_record(exponents, with_sig7=with_sig7, with_sh0=args.sh0)

    if args.json:
        d = record_to_json_dict(rec)
        if sig7_note:
            d["sig7_note"] = sig7_note
        print(json.dumps(d, indent=2), file=out)
        return 0

    print(_label(rec.exponents), file=out)
    pairs = [
        ("dim", str(rec.dim)),
        ("degree", str(rec.degree)),
        ("weights", ",".join(str(w) for w in rec.weights)),
        ("recip_sum", _fmt_q(rec.recip_sum, args.approx)),
        ("mu_P", str(rec.mu_P)),
        (
            "chi_m",
            _fmt_q(rec.chi_m, args.approx)
            if rec.chi_m is not None
            else "- (mu_P = 0)",
        ),
        ("middle_rank", str(rec.middle_rank)),
        ("homotopy_sphere", _fmt_bool(rec.homotopy_sphere)),
        ("rational_homology_sphere", _fmt_bool(rec.rhs)),
    ]
    if rec.dim == 5:
        pairs.append(("dim5_type", str(rec.dim5_type)))
    if len(rec.exponents) == 5:
        if rec.sig7 is not None:
            pairs.append(("signature", str(rec.sig7)))
        elif sig7_note:
            pairs.append(("signature", f"({sig7_note})"))
    pairs += [
        ("se_verdict", rec.se.verdict.value),
        ("se_sufficient1", _fmt_bool(rec.se.sufficient1)),
        ("se_sufficient2", _fmt_bool(rec.se.sufficient2)),
        ("se_coprime_iff", rec.se.coprime_iff.value),
        ("lichnerowicz_obstructed", _fmt_bool(rec.se.lichnerowicz_obstructed)),
        ("moduli_applicable", _fmt_bool(rec.moduli.applicable)),
        ("kuranishi_dim", str(rec.moduli.kuranishi_dim)),
        ("perturbation_count", str(rec.moduli.perturbation_count)),
    ]
    if rec.sh0_rank is not None:
        pairs.append(("sh0_rank", str(rec.sh0_rank)))
    _print_kv(pairs, out)
    return 0


def _cmd_mec(args, out):
    value = mean_euler(make_link(parse_exponents(args.exponents))).value
    print(_fmt_q(value, args.approx), file=out)
    return 0


def _cmd_sh_ranks(args, out):
    link = make_link(parse_exponents(args.exponents))
    graded = sh_plus_ranks(link, args.k_lo, args.k_hi)
    lac = "lacunary" if graded.lacunary else "not lacunary"
    if args.json:
        print(json.dumps(graded.to_json_dict(), indent=2), file=out)
        return 0
    if args.k_lo == args.k_hi:
        print(f"SH_{args.k_lo} = {graded.ranks[args.k_lo]}, {lac}", file=out)
        return 0
    for k in range(args.k_lo, args.k_hi + 1):
        print(f"SH_{k} = {graded.ranks[k]}", file=out)
    print(lac, file=out)
    return 0


def _cmd_se_check(args, out):
    link = make_link(parse_exponents(args.exponents))
    d = record_to_json_dict(se_status(link))
    if args.json:
        d = {"exponents": list(link.exponents), **d}
        print(json.dumps(d, indent=2), file=out)
        return 0
    print(f"{_label(link.exponents)}: {d.pop('verdict')}", file=out)
    _print_kv([(k, _fmt_bool(v) if type(v) is bool else v) for k, v in d.items()], out)
    return 0


def _cmd_sweep(args, out):
    spec = parse_sweep_spec(args.family, args.k_range)
    rows = _iter_sweep(spec)
    if args.csv:
        writer = _csv_writer(out, ["k"])
        for k, rec in rows:
            writer.writerow([str(k)] + record_to_csv_row(rec))
        return 0
    if args.json:
        for k, rec in rows:
            print(
                json.dumps({"k": k, "record": record_to_json_dict(rec)}),
                file=out,
            )
        return 0
    for k, rec in rows:
        bits = [
            f"k={k}:",
            _label(rec.exponents),
            f"mu_P={rec.mu_P}",
            f"chi_m={_fmt_q(rec.chi_m, args.approx) if rec.chi_m is not None else '-'}",
        ]
        if rec.dim == 5:
            bits.append(f"type={rec.dim5_type}")
        bits.append(f"se={rec.se.verdict.value}")
        print(" ".join(bits), file=out)
    return 0


def _cmd_enumerate(args, out):
    records = _iter_records(args.dim, args.max_exponent, args.filter)
    if args.out:
        count = export_records(records, args.out, fmt=args.format)
        print(f"wrote {count} records to {args.out}", file=sys.stderr)
    else:
        _write_records(records, out, args.format or "csv")
    return 0


def _cmd_collide(args, out):
    if args.infile:
        records = _iter_imported(args.infile, args.format)
    else:
        records = _iter_records(args.dim, args.max_exponent)
    records = _filter_records(records, args.filter)
    k_lo, k_hi = args.window
    groups = find_mec_collisions(records, window=(k_lo, k_hi))
    if args.json:
        for g in groups:
            print(
                json.dumps(
                    {
                        "chi_m": str(g.chi_m),
                        "members": [list(m) for m in g.members],
                        "clusters": [
                            {"ranks": list(key), "members": [list(m) for m in mem]}
                            for key, mem in g.clusters
                        ],
                    }
                ),
                file=out,
            )
        return 0
    if not groups:
        print("no collisions", file=out)
        return 0
    for g in groups:
        print(f"chi_m = {g.chi_m}  [{len(g.members)} links]", file=out)
        for key, members in g.clusters:
            ranks = ",".join(str(r) for r in key)
            names = "  ".join(_label(m) for m in members)
            print(f"  SH[{k_lo}..{k_hi}] = ({ranks}): {names}", file=out)
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser():
    parser = _Parser(
        prog="brieskorn",
        description="Exact contact and Sasakian invariants of Brieskorn-Pham links.",
    )
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)
    sub.required = True

    p = sub.add_parser("analyze", help="all invariants of one exponent vector")
    p.add_argument("exponents", help="comma-separated, e.g. 2,3,4,16")
    p.add_argument("--json", action="store_true", help="emit one JSON object")
    p.add_argument("--approx", action="store_true",
                   help="append 6-digit decimals to exact fractions")
    p.add_argument("--sig7", action="store_true",
                   help="force the dim-7 signature (may be slow)")
    p.add_argument("--sh0", action="store_true",
                   help="also compute the degree-0 equivariant rank")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("mec", help="mean Euler characteristic")
    p.add_argument("exponents")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_mec)

    p = sub.add_parser("sh-ranks", help="graded equivariant ranks over a window")
    p.add_argument("exponents")
    p.add_argument("k_lo", type=int)
    p.add_argument("k_hi", type=int)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_sh_ranks)

    p = sub.add_parser("se-check", help="Sasaki-Einstein existence report")
    p.add_argument("exponents")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_se_check)

    p = sub.add_parser("sweep", help="one-parameter family over a k range")
    p.add_argument("family", help="e.g. 2,3,4,4+12k (exactly one B+Ck slot)")
    p.add_argument("k_range", help="inclusive range, e.g. 0..5")
    p.add_argument("--csv", action="store_true", help="semicolon CSV rows")
    p.add_argument("--json", action="store_true", help="one JSON object per k")
    p.add_argument("--approx", action="store_true")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("enumerate", help="census by dimension and exponent bound")
    p.add_argument("--dim", type=int, required=True, help="odd link dimension >= 5")
    p.add_argument("--max-exponent", type=int, required=True)
    p.add_argument("--filter", action="append", default=[],
                   choices=FILTER_NAMES, help="may be repeated; combined with AND")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored; the census runs in one process")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write to a file instead of stdout")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("collide", help="group records by equal chi_m")
    p.add_argument("--in", dest="infile", metavar="PATH", default=None,
                   help="read records from a CSV/JSONL file")
    p.add_argument("--format", choices=("csv", "jsonl"), default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-exponent", type=int, default=None)
    p.add_argument("--filter", action="append", default=[], choices=FILTER_NAMES)
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted and ignored; the census runs in one process")
    p.add_argument("--window", type=int, nargs=2, default=(0, 0),
                   metavar=("K_LO", "K_HI"),
                   help="degree window for distinguishing ranks (default 0 0)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=_cmd_collide)

    return parser


def main(argv=None):
    print(f"brieskorn {__version__}", file=sys.stderr)
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "collide":
        census = (args.dim, args.max_exponent)
        if args.infile and census != (None, None):
            parser.error("collide takes --in PATH or --dim and --max-exponent, not both")
        if not args.infile and None in census:
            parser.error("collide needs --in PATH or both --dim and --max-exponent")
    try:
        code = args.func(args, sys.stdout)
        sys.stdout.flush()  # a closed stdout shows here, not at exit
        return code
    except ValidationError as exc:
        print(f"brieskorn: error: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"brieskorn: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except InternalInconsistency as exc:
        print(f"brieskorn: internal inconsistency (bug): {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        if isinstance(exc, BrokenPipeError) and not getattr(args, "out", None):
            # only --out writes elsewhere: stdout's reader stopped early,
            # which is no error, and the rest goes to devnull, not to exit
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
            return 0
        print(f"brieskorn: i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
