"""Record building, enumeration, family sweeps, collision scans, and IO.

A LinkRecord bundles every invariant this package computes for one exponent
vector.  Records are pure functions of the exponents (plus two opt-in extras,
the dim-7 signature and the degree-0 equivariant rank), which is what makes
the CSV summary format reimportable: import recomputes and cross-checks.
"""

from __future__ import annotations

import csv
import json
import math
import os
import re
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass, replace
from enum import Enum
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from operator import attrgetter
from typing import get_args, get_type_hints

from . import __version__
from .errors import (
    DimensionTooLow,
    InvalidExponent,
    InvalidInstance,
    PreconditionFailed,
    SchemaError,
)
from .einstein import (
    ModuliReport,
    SEReport,
    SEVerdict,
    moduli_dimension,
    se_status,
)
from .homology import (
    Dim5Kind,
    Dim5Type,
    _check_box,
    diffeo_type_dim5,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    milnor_signature_dim7,
)
from .invariants import mean_euler, principal_index, sh_plus_ranks
from .linkmodel import _INTEGER, _as_link, canonical_exponents, make_link
from .linkmodel import parse_exponents

__all__ = [
    "LinkRecord",
    "build_record",
    "cached_record",
    "KNOWN_SE_EXISTS",
    "enumerate_links",
    "SweepSpec",
    "parse_sweep_spec",
    "family_sweep",
    "CollisionGroup",
    "find_mec_collisions",
    "export_records",
    "import_records",
]


# Links known to admit Sasaki-Einstein metrics beyond what the numerical
# criteria certify.  L(2,2,2,3) was settled affirmatively by Chi Li,
# confirming the Li-Sun approach; the numerical verdict for it stays
# Unknown, but census-style filters should count it as an existence case.
KNOWN_SE_EXISTS = frozenset({(2, 2, 2, 3)})


@dataclass(frozen=True)
class LinkRecord:
    """Every computed invariant of one link.

    chi_m is present exactly when mu_P != 0; homotopy_sphere/rhs need
    dimension >= 5 (four exponents) and are None below that; dim5_type only
    for dimension 5; sig7 (dimension 7) and sh0_rank are opt-in extras.
    """

    exponents: tuple
    dim: int
    degree: int
    weights: tuple
    recip_sum: Fraction
    mu_P: int
    chi_m: Fraction | None
    middle_rank: int
    homotopy_sphere: bool | None
    rhs: bool | None
    dim5_type: Dim5Type | None
    sig7: int | None
    se: SEReport
    moduli: ModuliReport
    sh0_rank: int | None

    @property
    def canonical(self):
        return canonical_exponents(self.exponents)


def build_record(exponents, *, sig7_budget=None, with_sh0=False):
    """Compute a :class:`LinkRecord` for an exponent vector (>= 3 entries)
    or its LinkProfile, which every invariant then shares.

    sig7 is computed only when the link is 7-dimensional and ``sig7_budget``
    is given (BudgetExceeded propagates -- the caller chose the budget).
    sh0_rank is the degree-0 equivariant rank, computed when ``with_sh0``
    and mu_P != 0.
    """
    link = _as_link(exponents)
    if len(link.exponents) < 3:
        raise DimensionTooLow(
            "records need at least three exponents; "
            "use the homology functions directly for smaller vectors"
        )
    mu_p = principal_index(link)
    chi_m = mean_euler(link).value if mu_p != 0 else None
    n1 = len(link.exponents)
    sphere = rhs = d5 = None
    if n1 >= 4:
        d5 = diffeo_type_dim5(link) if n1 == 4 else None
        # the dim-5 classification's first branch is the homotopy-sphere test
        sphere = d5.kind is Dim5Kind.SPHERE if d5 else is_homotopy_sphere(link)
        rhs = is_rational_homology_sphere(link)
    sig7 = None
    if n1 == 5 and sig7_budget is not None:
        sig7 = milnor_signature_dim7(link.exponents, budget=sig7_budget)
    sh0 = None
    if with_sh0 and mu_p != 0:
        sh0 = sh_plus_ranks(link, 0, 0).ranks[0]
    return LinkRecord(
        exponents=link.exponents,
        dim=link.link_dim,
        degree=link.degree,
        weights=link.weights,
        recip_sum=link.recip_sum,
        mu_P=mu_p,
        chi_m=chi_m,
        middle_rank=link.strata[-1].middle_rank,  # the principal stratum
        homotopy_sphere=sphere,
        rhs=rhs,
        dim5_type=d5,
        sig7=sig7,
        se=se_status(link),
        moduli=moduli_dimension(link),
        sh0_rank=sh0,
    )


# ---------------------------------------------------------------------------
# enumeration


_FILTERS = {  # census filters by name
    "positive": lambda rec: rec.mu_P > 0,
    "se_exists": lambda rec: (
        rec.se.verdict is SEVerdict.EXISTS or rec.canonical in KNOWN_SE_EXISTS
    ),
    "se_unknown": lambda rec: (
        rec.se.verdict is SEVerdict.UNKNOWN
        and rec.canonical not in KNOWN_SE_EXISTS
    ),
    "homotopy_sphere": lambda rec: rec.homotopy_sphere is True,
    "rhs": lambda rec: rec.rhs is True,
}
FILTER_NAMES = tuple(_FILTERS)


def _length_for_dim(dim):
    if dim < 5 or dim % 2 == 0:
        raise PreconditionFailed(
            f"enumeration is over odd link dimensions >= 5, got {dim}"
        )
    return (dim + 3) // 2


def enumerate_links(dim, max_exponent, filters=()):
    """All canonical (non-decreasing) exponent vectors of the given link
    dimension with entries in [2, max_exponent], in lexicographic order,
    as full records, optionally filtered.

    ``filters`` is an iterable of names among positive / se_exists /
    se_unknown / homotopy_sphere / rhs, combined with AND.
    """
    return list(_iter_records(dim, max_exponent, filters))


def _iter_records(dim, max_exponent, filters=()):
    """The records of :func:`enumerate_links`, built one at a time as they
    are read.  The arguments are checked here, before the first record."""
    length = _length_for_dim(dim)
    if max_exponent < 2:
        raise PreconditionFailed(
            f"max_exponent must be >= 2, got {max_exponent}"
        )
    vectors = combinations_with_replacement(range(2, max_exponent + 1), length)
    return _filter_records(map(build_record, vectors), filters)


def _filter_records(records, filters):
    """The records passing every named filter of :func:`enumerate_links`,
    lazily.  The names are checked here, before any record is read."""
    preds = []
    for name in filters:
        if name not in _FILTERS:
            raise PreconditionFailed(
                f"unknown filter {name!r}; known: {', '.join(FILTER_NAMES)}"
            )
        preds.append(_FILTERS[name])
    return (rec for rec in records if all(p(rec) for p in preds))


# ---------------------------------------------------------------------------
# family sweeps


@dataclass(frozen=True)
class SweepSpec:
    """A one-parameter family: fixed exponents plus one slot b + c*k.

    ``entries`` mixes plain ints with exactly one (b, c) pair; ``k_lo`` /
    ``k_hi`` bound the inclusive parameter range.  Realized exponents are
    validated per instance (InvalidInstance when any falls below 2), not at
    parse time, so families like b=1, c=30 are usable for k >= 1.
    """

    entries: tuple
    k_lo: int
    k_hi: int

    def instantiate(self, k):
        vec = []
        for e in self.entries:
            if isinstance(e, tuple):
                b, c = e
                vec.append(b + c * k)
            else:
                vec.append(e)
        for v in vec:
            if v < 2:
                raise InvalidInstance(
                    f"k = {k} gives exponent {v} < 2 in {self.entries}"
                )
        return tuple(vec)


_SLOT_RE = re.compile(r"^(-?[0-9]+)\+([0-9]+)k$")


def parse_sweep_spec(family, k_range):
    """Parse e.g. ("2,3,4,4+12k", "0..5") into a :class:`SweepSpec`."""
    entries = []
    slots = 0
    for part in str(family).split(","):
        part = part.strip()
        m = _SLOT_RE.match(part)
        if m:
            entries.append((int(m.group(1)), int(m.group(2))))
            slots += 1
        elif _INTEGER.fullmatch(part):
            entries.append(int(part))
        else:
            raise PreconditionFailed(
                f"cannot parse family entry {part!r} "
                "(expected an integer or B+Ck)"
            )
    if slots != 1:
        raise PreconditionFailed(
            f"family must contain exactly one B+Ck slot, found {slots}"
        )
    if len(entries) < 3:
        raise PreconditionFailed("family needs at least three entries")
    m = re.match(r"^(-?[0-9]+)\.\.(-?[0-9]+)$", str(k_range).strip())
    if not m:
        raise PreconditionFailed(
            f"cannot parse k range {k_range!r} (expected LO..HI)"
        )
    k_lo, k_hi = int(m.group(1)), int(m.group(2))
    if k_hi < k_lo:
        raise PreconditionFailed(f"empty k range {k_range!r}")
    return SweepSpec(entries=tuple(entries), k_lo=k_lo, k_hi=k_hi)


def family_sweep(spec):
    """Records for every k in the range, as a list of (k, record) pairs.

    Raises InvalidInstance if any k realizes an exponent below 2.
    """
    out = []
    for k in range(spec.k_lo, spec.k_hi + 1):
        out.append((k, build_record(spec.instantiate(k))))
    return out


# ---------------------------------------------------------------------------
# mean-Euler collisions


@dataclass(frozen=True)
class CollisionGroup:
    """Links sharing one mean Euler characteristic, split by graded ranks.

    ``members`` are the canonical exponent vectors (sorted); ``clusters``
    partitions them by the tuple of equivariant ranks over the inspected
    degree window -- two members in different clusters are distinguished,
    members sharing a cluster are not (by this window).
    """

    chi_m: Fraction
    members: tuple
    clusters: tuple


def find_mec_collisions(records, window=(0, 0)):
    """Group records by identical mean Euler characteristic.

    ``records`` is any iterable, read once; only the canonical vector and
    chi_m of each record are kept.  Records are deduplicated by canonical
    vector first, the first one read winning; records with mu_P = 0 (no
    chi_m) are skipped, since the file a caller imported may well contain
    some.  Groups with at least two distinct members are returned sorted
    by chi_m, each sub-split by the graded ranks over ``window`` (inclusive
    degree bounds), which is checked before any record is read.
    """
    k_lo, k_hi = window
    if k_hi < k_lo:
        raise PreconditionFailed(f"empty degree window [{k_lo}, {k_hi}]")
    chi_of = {}
    for rec in records:
        if rec.chi_m is not None:
            chi_of.setdefault(rec.canonical, rec.chi_m)
    groups = {}
    for canon, chi_m in chi_of.items():
        groups.setdefault(chi_m, []).append(canon)
    out = []
    for chi_m in sorted(k for k, canons in groups.items() if len(canons) > 1):
        members = sorted(groups[chi_m])
        clusters = {}
        for canon in members:
            gr = sh_plus_ranks(make_link(canon), k_lo, k_hi)
            key = tuple(gr.ranks[k] for k in range(k_lo, k_hi + 1))
            clusters.setdefault(key, []).append(canon)
        out.append(
            CollisionGroup(
                chi_m=chi_m,
                members=tuple(members),
                clusters=tuple(
                    (key, tuple(clusters[key])) for key in sorted(clusters)
                ),
            )
        )
    return out


# ---------------------------------------------------------------------------
# serialization

# (header, attribute of the record) per CSV column, in file order
_CSV_COLUMNS = (
    ("exponents", "exponents"), ("dim", "dim"), ("degree", "degree"),
    ("mu_P", "mu_P"), ("chi_m", "chi_m"), ("middle_rank", "middle_rank"),
    ("homotopy_sphere", "homotopy_sphere"), ("dim5_type", "dim5_type"),
    ("se_verdict", "se.verdict.value"),
    ("kuranishi_dim", "moduli.kuranishi_dim"),
    ("perturbation_count", "moduli.perturbation_count"),
    ("sh0_rank", "sh0_rank"),
)
CSV_HEADER = ";".join(name for name, _ in _CSV_COLUMNS)
_csv_values = attrgetter(*(attr for _, attr in _CSV_COLUMNS))


def _cell(value):
    """A CSV cell: empty for None, true/false for a bool, the entries
    joined by commas for a tuple, else str()."""
    if value is None:
        return ""
    if type(value) is bool:
        return "true" if value else "false"
    if type(value) is tuple:
        return ",".join(map(str, value))
    return str(value)


def record_to_csv_row(rec):
    return [_cell(v) for v in _csv_values(rec)]


def _int_tuple(items):
    if any(type(a) is not int for a in items):
        raise ValueError(items)
    return tuple(items)


def _field_codec(tp, where):
    """(JSON types, encode, decode) of a field annotated ``tp``: a Fraction
    is a string, an Enum its value, a tuple a list of ints, a dataclass an
    object (its fields named ``where.field`` in errors), and ``X | None``
    may also be null.  encode and decode are None for a value JSON holds."""
    args = get_args(tp)
    if type(None) in args:
        (tp,) = (a for a in args if a is not type(None))
        types, encode, decode = _field_codec(tp, where)
        return (*types, type(None)), encode, decode
    if is_dataclass(tp):
        return (dict,), *_codec(tp, where + ".")
    if tp is Fraction:
        return (str,), str, Fraction
    if issubclass(tp, Enum):
        return (str,), attrgetter("value"), tp
    if tp is tuple:
        return (list,), list, _int_tuple
    return (tp,), None, None


_SCHEMA = {}  # dataclass -> (encode, decode, {field: JSON types})


def _codec(cls, prefix=""):
    """The JSON writer and reader of the dataclass ``cls``, derived from
    its fields, in order, and their annotations (see :func:`_field_codec`).
    Types match by type(), so a bool is no int; the reader ignores other
    keys and names a bad field by its dotted path.  Each nested dataclass
    sits at one path, so one codec per class serves."""
    hints = get_type_hints(cls)
    spec = [(f.name, *_field_codec(hints[f.name], prefix + f.name))
            for f in fields(cls)]
    converted = [(name, enc) for name, _, enc, _ in spec if enc is not None]

    def encode(obj):
        d = vars(obj).copy()  # the fields, in order: __init__ sets just them
        for name, enc in converted:
            if d[name] is not None:
                d[name] = enc(d[name])
        return d

    def decode(d):
        kwargs = {}
        for name, types, _, dec in spec:
            try:
                v = d[name]
                if type(v) not in types:
                    raise ValueError(v)
                kwargs[name] = v if dec is None or v is None else dec(v)
            except KeyError:
                raise SchemaError(f"missing field '{prefix}{name}'") from None
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{prefix}{name} cannot be {v!r}") from None
        return cls(**kwargs)

    _SCHEMA[cls] = encode, decode, {name: types for name, types, *_ in spec}
    return encode, decode


_codec(LinkRecord)


def record_to_json_dict(obj):
    """The JSON object of a :class:`LinkRecord`, or of an object it nests
    (SEReport, ModuliReport, Dim5Type): the dataclass fields, in order."""
    return _SCHEMA[type(obj)][0](obj)


def record_from_json_dict(d):
    """The :class:`LinkRecord` of an object :func:`record_to_json_dict`
    wrote; a field of another JSON type or value raises SchemaError."""
    if type(d) is not dict:
        raise SchemaError(f"a record is a JSON object, not {d!r}")
    return _SCHEMA[LinkRecord][1](d)


def _format_of(path, fmt):
    if fmt is not None:
        if fmt not in ("csv", "jsonl"):
            raise PreconditionFailed(f"unknown format {fmt!r}")
        return fmt
    s = str(path).lower()
    if s.endswith(".csv"):
        return "csv"
    if s.endswith(".jsonl") or s.endswith(".ndjson") or s.endswith(".json"):
        return "jsonl"
    raise PreconditionFailed(
        f"cannot infer format from {path!r}; pass fmt='csv' or 'jsonl'"
    )


def export_records(records, path, fmt=None):
    """Write records to ``path`` as semicolon CSV or JSON-lines and return
    how many were written.

    ``records`` is any iterable, written in batches as it is read (see
    :func:`_write_records`).  The file appears
    whole or not at all: the records go to a temporary file beside
    ``path``, which replaces ``path`` only once the last one is written, so
    an error partway leaves ``path`` as it was.  Output is deterministic:
    re-exporting the same records yields the same bytes.  No records yield
    a bare header (CSV) or an empty file (JSON-lines).
    """
    fmt = _format_of(path, fmt)
    with _replacing(path) as fh:
        return _write_records(records, fh, fmt)


@contextmanager
def _replacing(path):
    """A text stream that writes ``path`` whole: a new temporary file
    beside it, renamed onto it when the block ends and removed if it
    raises.  A symlink is followed; what is there but is no regular file,
    such as a pipe or ``/dev/stdout``, is written directly."""
    given, path = path, os.path.realpath(path)
    if os.path.exists(path) and not os.path.isfile(path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh
        return
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), suffix=".tmp")
    except OSError as exc:  # name the file asked for, not the temporary one
        raise OSError(exc.errno, exc.strerror, os.fspath(given)) from None
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            # mkstemp makes the file 0600; give it what open(path, "w") would
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(tmp, 0o666 & ~umask)
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


class _CensusCSV(csv.excel):
    """The census CSV dialect: ``;`` between cells, ``\\n`` after rows."""

    delimiter = ";"
    lineterminator = "\n"


def _csv_writer(fh, lead=()):
    """A census CSV writer on ``fh``, the header row already written: the
    column names in ``lead``, then the record's."""
    writer = csv.writer(fh, _CensusCSV)
    writer.writerow([*lead, *(name for name, _ in _CSV_COLUMNS)])
    return writer


# Records are read and written in batches of this many.  Building and
# writing them one at a time made `enumerate --out` ~5% slower than building
# the whole census first; batches of 32 cut that to ~2% (10 alternating
# perfbench census pairs each) and hold 32 records, not the census.
_WRITE_BATCH = 32


def _write_records(records, fh, fmt):
    """Write records to the open text stream ``fh`` in ``fmt`` (csv or
    jsonl) and return how many were written; the CLI prints a census to
    stdout through this too.  ``records`` is read a batch at a time, and
    when reading one raises, the records read before it are still written.
    """
    if fmt == "csv":
        writer = _csv_writer(fh)

        def write(batch):
            writer.writerows(map(record_to_csv_row, batch))
    else:
        def write(batch):
            fh.writelines(
                json.dumps(record_to_json_dict(rec)) + "\n" for rec in batch
            )
    records = iter(records)
    count = 0
    while True:
        batch = []
        try:
            for rec in islice(records, _WRITE_BATCH):
                batch.append(rec)
        finally:
            write(batch)
            count += len(batch)
        if len(batch) < _WRITE_BATCH:
            return count


def _record_of_csv_row(row):
    """The record recomputed from a CSV row's exponents, cross-checked
    against every stored cell."""
    if len(row) != len(_CSV_COLUMNS):
        raise SchemaError(f"row has {len(row)} cells, expected {len(_CSV_COLUMNS)}")
    try:
        exponents = parse_exponents(row[0])
    except InvalidExponent:
        raise SchemaError(f"bad exponents cell {row[0]!r}") from None
    rec = build_record(exponents, with_sh0=bool(row[11]))
    fresh = record_to_csv_row(rec)
    for (name, _), stored, computed in zip(_CSV_COLUMNS, row, fresh):
        if name == "chi_m" and stored and computed:
            # accept either fraction spelling (e.g. "46/20" vs "23/10")
            try:
                if Fraction(stored) == Fraction(computed):
                    continue
            except (ValueError, ZeroDivisionError):
                pass  # not a fraction: reported as a disagreement below
        if stored != computed:
            raise SchemaError(
                f"column {name!r} of {row[0]!r}: stored {stored!r} "
                f"disagrees with recomputed {computed!r}"
            )
    return rec


def import_records(path, fmt=None):
    """Read records back from ``path``.

    JSON-lines files are parsed directly and round-trip every field; each
    field must have the JSON type :func:`record_to_json_dict` writes for
    it, or SchemaError names the line and the field.  CSV files store a
    12-column summary, so each row is *recomputed* from its exponents
    column and every stored cell is cross-checked
    against the recomputed value (SchemaError on any mismatch); sh0_rank is
    recomputed exactly when the stored cell is non-empty.  CSV does not
    carry sig7.
    """
    return list(_iter_imported(path, fmt))


def _iter_imported(path, fmt=None):
    """The records of :func:`import_records`, read and checked one at a
    time; the file is opened on the first read."""
    fmt = _format_of(path, fmt)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        if fmt == "csv":
            reader = csv.reader(fh, _CensusCSV)
            try:
                header = next(reader)
            except StopIteration:
                raise SchemaError("empty CSV file (expected a header)") from None
            if header != [name for name, _ in _CSV_COLUMNS]:
                raise SchemaError(
                    f"unexpected CSV header {';'.join(header)!r}"
                )
            for row in reader:
                try:
                    rec = _record_of_csv_row(row)
                except SchemaError as exc:
                    raise SchemaError(f"line {reader.line_num}: {exc}") from None
                yield rec
        else:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = record_from_json_dict(json.loads(line))
                except json.JSONDecodeError as exc:
                    raise SchemaError(
                        f"line {lineno}: invalid JSON ({exc})"
                    ) from None
                except SchemaError as exc:
                    raise SchemaError(f"line {lineno}: {exc}") from None
                yield rec


# ---------------------------------------------------------------------------
# record cache

CACHE_ENV = "BRIESKORN_CACHE_DIR"


def _cache_path(canonical, sig7, sh0):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    name = "-".join(str(a) for a in canonical) + "+sig7" * sig7 + "+sh0" * sh0
    return os.path.join(root, f"v{__version__}", name + ".json")


def _agrees_with_profile(rec, link, sig7, sh0):
    """Whether a cached record is what :func:`build_record` gives the link
    with these extras: the profile fields and chi_m, read off one strata
    walk, the extras present, and a signature that fits Brieskorn's count.
    With mu = prod(a_j - 1) and kappa the eigenvalue-one points, that is
    |sig7| <= mu - kappa, sig7 = mu - kappa (mod 2), and 8 | sig7 on a
    homotopy sphere."""
    mu_p = principal_index(link)
    kappa = link.strata[-1].middle_rank
    free = math.prod(a - 1 for a in link.exponents) - kappa
    s = rec.sig7
    sig7_fits = s is None or (
        type(s) is int and abs(s) <= free and (free - s) % 2 == 0
        and (s % 8 == 0 or not is_homotopy_sphere(link))
    )
    return sig7_fits and (
        rec.exponents, rec.dim, rec.degree, rec.weights, rec.recip_sum,
        rec.mu_P, rec.middle_rank, rec.chi_m, s is not None,
        rec.sh0_rank is not None,
    ) == (
        link.exponents, link.link_dim, link.degree, link.weights,
        link.recip_sum, mu_p, kappa,
        mean_euler(link).value if mu_p != 0 else None, sig7,
        sh0 and mu_p != 0,
    )


def cached_record(exponents, *, sig7_budget=None, with_sh0=False):
    """build_record with one cache file per canonical vector, extras and
    package version: ``v<version>/<canonical>[+sig7][+sh0].json``.

    Controlled by the BRIESKORN_CACHE_DIR environment variable; when unset,
    this is exactly :func:`build_record`.  +sig7 means ``sig7_budget`` was
    given for five exponents, +sh0 means ``with_sh0``, and the file holds
    the canonical record with exactly those extras, so a call returns what
    :func:`build_record` would, budget check included.  A hit is re-checked
    by :func:`_agrees_with_profile`; a file that is malformed or disagrees
    is a miss, rebuilt and rewritten atomically (temp file + rename).
    """
    link = make_link(exponents)
    canon = link.canonical
    sig7 = sig7_budget is not None and len(canon) == 5
    path = _cache_path(canon, sig7, with_sh0)
    if path is None:
        return build_record(link, sig7_budget=sig7_budget, with_sh0=with_sh0)
    if sig7:
        _check_box(canon, sig7_budget)  # a hit is held to the budget too
    # w_j = d / a_j, so the sorted exponents take the weights descending
    w = tuple(sorted(link.weights, reverse=True))
    canon_link = replace(link, exponents=canon, weights=w)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rec = record_from_json_dict(json.load(fh))
    except (OSError, SchemaError, json.JSONDecodeError):
        rec = None
    if rec is None or not _agrees_with_profile(rec, canon_link, sig7, with_sh0):
        rec = build_record(canon_link, sig7_budget=sig7_budget, with_sh0=with_sh0)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _replacing(path) as fh:
            json.dump(record_to_json_dict(rec), fh)
    if rec.exponents != link.exponents:
        rec = replace(rec, exponents=link.exponents, weights=link.weights)
    return rec
