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
    _class_memo,
    moduli_dimension,
    se_status,
)
from .homology import (
    Dim5Type,
    diffeo_type_dim5,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    milnor_signature_dim7,
)
from .invariants import mean_euler, principal_index, sh_plus_ranks
from .linkmodel import _INTEGER, _as_link, canonical_exponents, make_link
from .linkmodel import _MAX_SUBSETS, parse_exponents

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


def build_record(exponents, *, with_sig7=False, with_sh0=False):
    """Compute a :class:`LinkRecord` for an exponent vector (>= 3 entries)
    or its LinkProfile, which every invariant then shares.

    sig7 is computed only when the link is 7-dimensional and ``with_sig7``
    (BudgetExceeded propagates when the lattice kernel refuses the box).
    sh0_rank is the degree-0 equivariant rank, computed when ``with_sh0``
    and mu_P != 0.
    """
    return _build_records([exponents], with_sig7=with_sig7,
                          with_sh0=with_sh0)[0]


def _build_records(vectors, *, with_sig7=False, with_sh0=False):
    """The :func:`build_record` of each of the list ``vectors``, each
    invariant computed over the whole list before the next: every profile,
    then every principal index, and so on (see :data:`_WRITE_BATCH`)."""
    links = [_as_link(v) for v in vectors]
    sizes = [len(link.exponents) for link in links]
    if any(n1 < 3 for n1 in sizes):
        raise DimensionTooLow(
            "records need at least three exponents; "
            "use the homology functions directly for smaller vectors"
        )
    mu_ps = [principal_index(link) for link in links]
    chi_ms = [mean_euler(link).value if mu_p != 0 else None
              for link, mu_p in zip(links, mu_ps)]
    d5s = [diffeo_type_dim5(link) if n1 == 4 else None
           for link, n1 in zip(links, sizes)]
    spheres = [is_homotopy_sphere(link) if n1 >= 4 else None
               for link, n1 in zip(links, sizes)]
    rhss = [is_rational_homology_sphere(link) if n1 >= 4 else None
            for link, n1 in zip(links, sizes)]
    sig7s = [milnor_signature_dim7(link.exponents)
             if n1 == 5 and with_sig7 else None
             for link, n1 in zip(links, sizes)]
    sh0s = [sh_plus_ranks(link, 0, 0).ranks[0] if with_sh0 and mu_p != 0
            else None for link, mu_p in zip(links, mu_ps)]
    ses = [se_status(link) for link in links]
    moduli = [moduli_dimension(link) for link in links]
    return [
        LinkRecord(
            exponents=link.exponents,
            dim=link.link_dim,
            degree=link.degree,
            weights=link.weights,
            recip_sum=link.recip_sum,
            mu_P=mu_p,
            chi_m=chi_m,
            middle_rank=link._lattice[2][-1],  # the principal kappa
            homotopy_sphere=sphere,
            rhs=rhs,
            dim5_type=d5,
            sig7=sig7,
            se=se,
            moduli=mod,
            sh0_rank=sh0,
        )
        for link, mu_p, chi_m, sphere, rhs, d5, sig7, se, mod, sh0 in zip(
            links, mu_ps, chi_ms, spheres, rhss, d5s, sig7s, ses, moduli, sh0s)
    ]


def _records_of(vectors):
    """The records of ``vectors``, read lazily and built a batch at a time by
    :func:`_build_records`.  A batch that raises is rebuilt one vector at a
    time, so the records before the failing vector are still yielded.  The
    batches share one ``einstein._class_memo`` of moduli counts."""
    vectors, memo = iter(vectors), {}
    while batch := list(islice(vectors, _WRITE_BATCH)):
        if len(memo) > 1 << 12:  # b-number classes, about 1 MB
            memo.clear()
        token = _class_memo.set(memo)
        try:
            records = _build_records(batch)
        except Exception:
            records = map(build_record, batch)
        finally:
            _class_memo.reset(token)
        yield from records


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
    """The records of :func:`enumerate_links`, built by batches as they
    are read.  The arguments are checked here, before the first record."""
    length = _length_for_dim(dim)
    if max_exponent < 2:
        raise PreconditionFailed(
            f"max_exponent must be >= 2, got {max_exponent}"
        )
    vectors = combinations_with_replacement(range(2, max_exponent + 1), length)
    return _filter_records(_records_of(vectors), filters)


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
    return list(_iter_sweep(spec))


def _iter_sweep(spec):
    """The pairs of :func:`family_sweep`, built by batches as they are read.
    The instance at ``k_lo`` is checked first: the slot b + c*k has c >= 0,
    so it is the first instance that can be invalid."""
    spec.instantiate(spec.k_lo)
    ks = range(spec.k_lo, spec.k_hi + 1)
    return zip(ks, _records_of(map(spec.instantiate, ks)))


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
    groups = {}  # (numerator, denominator) -> [first chi_m read, *canons]
    for canon, chi_m in chi_of.items():
        key = chi_m.numerator, chi_m.denominator
        groups.setdefault(key, [chi_m]).append(canon)
    out = []  # groups sort by their chi_m, which no two share
    for chi_m, *members in sorted(g for g in groups.values() if len(g) > 2):
        members.sort()
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
    if not set(map(type, items)) <= {int}:
        raise ValueError(items)
    return tuple(items)


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?").fullmatch


def _fraction(text):
    """Fraction(text), built from two ints for an ASCII integer or p/q."""
    if _RATIONAL(text) is None:
        return Fraction(text)
    p, _, q = text.partition("/")
    return Fraction(int(p), int(q or 1))


class _Members(dict):
    """An Enum's {value: member} table; a value it lacks is a ValueError."""
    def __missing__(self, value):
        raise ValueError(value)


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
        return (str,), str, _fraction
    if issubclass(tp, Enum):  # a {value: member} table, made once
        members = _Members((m.value, m) for m in tp)
        return (str,), attrgetter("value"), members.__getitem__
    if tp is tuple:
        return (list,), list, _int_tuple
    return (tp,), None, None


_SCHEMA = {}  # dataclass -> (encode, decode, {field: JSON types})


def _codec(cls, prefix=""):
    """The JSON writer and reader of the dataclass ``cls``, derived from
    its fields, in order, and their annotations (see :func:`_field_codec`).
    Types match by type(), so a bool is no int; the reader ignores other
    keys, names a bad field by its dotted path and sets the fields without
    ``__init__``.  A nested dataclass sits at one path: one codec per class."""
    if hasattr(cls, "__post_init__") or not all(f.init for f in fields(cls)):
        raise TypeError(f"{cls.__name__} is not rebuilt by its fields alone")
    hints = get_type_hints(cls)
    spec = [(f.name, *_field_codec(hints[f.name], prefix + f.name))
            for f in fields(cls)]
    converted = [(name, enc) for name, _, enc, _ in spec if enc is not None]

    def encode(obj):
        d = vars(obj).copy()  # the fields in order: all __init__ or decode set
        for name, enc in converted:
            if d[name] is not None:
                d[name] = enc(d[name])
        return d

    def decode(d):
        out = vars(obj := object.__new__(cls))  # the fields, no __init__
        for name, types, _, dec in spec:
            try:
                v = d[name]
                if type(v) not in types:
                    raise ValueError(v)
                out[name] = v if dec is None or v is None else dec(v)
            except KeyError:
                raise SchemaError(f"missing field '{prefix}{name}'") from None
            except (ValueError, ZeroDivisionError):
                raise SchemaError(f"{prefix}{name} cannot be {v!r}") from None
        return obj

    _SCHEMA[cls] = encode, decode, {name: types for name, types, *_ in spec}
    return encode, decode


_codec(LinkRecord)


def record_to_json_dict(obj):
    """The JSON object of a :class:`LinkRecord`, or of an object it nests
    (SEReport, ModuliReport, Dim5Type): the dataclass fields, in order."""
    return _SCHEMA[type(obj)][0](obj)


def record_from_json_dict(d):
    """The :class:`LinkRecord` of an object :func:`record_to_json_dict`
    wrote; a field of another JSON type or value, or a derived field that
    its exponents do not give, raises SchemaError."""
    if type(d) is not dict:
        raise SchemaError(f"a record is a JSON object, not {d!r}")
    rec = _SCHEMA[LinkRecord][1](d)
    a = rec.exponents
    _check_read_exponents(a)
    deg, q = math.lcm(*a), rec.recip_sum
    w = tuple([deg // aj for aj in a])  # a generator's tuple over-allocates
    s = sum(w)
    fixed = {"dim": rec.dim == 2 * len(a) - 3, "degree": rec.degree == deg,
             "weights": rec.weights == w, "mu_P": rec.mu_P == 2 * (s - deg),
             "recip_sum": q.numerator * deg == q.denominator * s}
    for name, ok in fixed.items():
        if not ok:
            raise SchemaError(f"{name} disagrees with exponents {list(a)}")
    return rec


def _check_read_exponents(a):
    """Raise SchemaError unless there are three or more exponents, all >= 2,
    with at most _MAX_SUBSETS index subsets, as every record has."""
    if len(a) < 3 or min(a) < 2 or 1 << len(a) > _MAX_SUBSETS:
        raise SchemaError(f"exponents cannot be {list(a)!r}")


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

    ``records`` is any iterable, each written as it is read (see
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


# Records are built in batches of this many (see _records_of), so 32
# records are held, not the census.  Built and written one at a time, they
# made `enumerate --out` ~5% slower than building the whole census first,
# and batches of 32 cut that to ~2%.  Built layer by layer over each batch
# (see _build_records), census first_p50_ms fell a further 19%
# (BENCH_18.json).  The writer takes them one at a time; the file buffers.
_WRITE_BATCH = 32


def _write_records(records, fh, fmt):
    """Write records to the open text stream ``fh`` in ``fmt`` (csv or
    jsonl) and return how many were written; the CLI prints a census to
    stdout through this too.  Each record is written as it is read, so when
    reading one raises, the records read before it are already written.
    """
    if fmt == "csv":
        write, line = _csv_writer(fh).writerow, record_to_csv_row
    else:
        write = fh.write

        def line(rec):
            return json.dumps(record_to_json_dict(rec)) + "\n"
    count = 0
    for count, rec in enumerate(records, 1):
        write(line(rec))
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
    _check_read_exponents(exponents)
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
    time; the file is opened on the first read.  A line that is not UTF-8,
    JSON nested past the parser's depth or a CSV cell past csv's field
    limit raises SchemaError naming its line."""
    fmt = _format_of(path, fmt)
    with open(path, "r", encoding="utf-8", errors="surrogateescape",
              newline="") as fh:
        lines = _utf8_lines(fh)
        if fmt == "csv":
            reader = csv.reader(lines, _CensusCSV)
            try:
                yield from _csv_records(reader)
            except csv.Error as exc:
                raise SchemaError(f"line {reader.line_num}: {exc}") from None
        else:
            for lineno, line in enumerate(lines, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = record_from_json_dict(json.loads(line))
                except (json.JSONDecodeError, RecursionError) as exc:
                    raise SchemaError(
                        f"line {lineno}: invalid JSON ({exc})"
                    ) from None
                except SchemaError as exc:
                    raise SchemaError(f"line {lineno}: {exc}") from None
                yield rec


def _utf8_lines(fh):
    """The lines of ``fh``, a text stream opened with
    errors="surrogateescape"; a byte that was not UTF-8 raises SchemaError
    naming its line."""
    for lineno, line in enumerate(fh, 1):
        if not line.isascii():
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                raise SchemaError(
                    f"line {lineno}: byte 0x{byte:02x} is not UTF-8"
                ) from None
        yield line


def _csv_records(reader):
    """The records of a census CSV ``reader``, header checked first."""
    try:
        header = next(reader)
    except StopIteration:
        raise SchemaError("empty CSV file (expected a header)") from None
    if header != [name for name, _ in _CSV_COLUMNS]:
        raise SchemaError(f"unexpected CSV header {';'.join(header)!r}")
    for row in reader:
        try:
            rec = _record_of_csv_row(row)
        except SchemaError as exc:
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
        yield rec


# ---------------------------------------------------------------------------
# record cache

CACHE_ENV = "BRIESKORN_CACHE_DIR"


def _sig7_fits(s, rec):
    """Whether ``s`` can be the signature of ``rec``'s link by Brieskorn's
    count: with mu = prod(a_j - 1) and kappa the middle rank, an int with
    |s| <= mu - kappa, s = mu - kappa (mod 2), and 8 | s on a homotopy
    sphere."""
    free = math.prod(a - 1 for a in rec.exponents) - rec.middle_rank
    return type(s) is int and abs(s) <= free and (free - s) % 2 == 0 and (
        s % 8 == 0 or not rec.homotopy_sphere)


def cached_record(exponents, *, with_sig7=False, with_sh0=False):
    """build_record, with the dim-7 signature kept on disk under
    BRIESKORN_CACHE_DIR: ``v<version>/<canonical>.json`` holds one integer.

    Only a five-exponent call ``with_sig7`` reads the cache; every other
    call, and every field but sig7, is :func:`build_record` of the same
    link.  A hit is re-checked by :func:`_sig7_fits`; a file that will not
    read, decode or fit is a miss, recomputed and rewritten atomically
    (temp file + rename).
    """
    link = _as_link(exponents)
    root = os.environ.get(CACHE_ENV)
    if not root or not with_sig7 or len(link.exponents) != 5:
        return build_record(link, with_sig7=with_sig7, with_sh0=with_sh0)
    rec = build_record(link, with_sh0=with_sh0)
    name = "-".join(map(str, link.canonical)) + ".json"
    path = os.path.join(root, f"v{__version__}", name)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            sig7 = json.load(fh)
    except (OSError, ValueError, RecursionError):
        sig7 = None
    if not _sig7_fits(sig7, rec):
        sig7 = milnor_signature_dim7(link.exponents)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with _replacing(path) as fh:
            json.dump(sig7, fh)
    return replace(rec, sig7=sig7)
