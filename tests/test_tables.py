"""Records, censuses, sweeps, collision scans, and the file formats."""

import json
import os
import stat
import threading
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement, islice

import pytest

from brieskorn import (
    KNOWN_SE_EXISTS,
    BudgetExceeded,
    DimensionTooLow,
    InvalidInstance,
    PreconditionFailed,
    SchemaError,
    SEVerdict,
    build_record,
    cached_record,
    enumerate_links,
    export_records,
    family_sweep,
    find_mec_collisions,
    import_records,
    parse_sweep_spec,
)
from brieskorn import einstein, homology, invariants, linkmodel, tables
from brieskorn.invariants import sh_plus_ranks
from brieskorn.linkmodel import LinkProfile, make_link
from brieskorn.tables import CSV_HEADER


def test_build_record_worked_example():
    rec = build_record((2, 3, 4, 16))
    assert rec.dim == 5
    assert rec.degree == 48
    assert rec.mu_P == 14
    assert rec.chi_m == Fraction(25, 14)
    assert rec.middle_rank == 0
    assert rec.homotopy_sphere is False
    assert rec.rhs is True
    assert str(rec.dim5_type) == "RationalHomologySphere(M3)"
    assert rec.sig7 is None
    assert rec.sh0_rank is None
    assert rec.se.verdict is SEVerdict.UNKNOWN
    assert (rec.moduli.kuranishi_dim, rec.moduli.perturbation_count) == (2, 6)


@pytest.mark.parametrize("top,length", [(18, 4), (10, 5)])
def test_records_read_the_walk_as_the_strata_and_middle_betti_do(top, length):
    # every 4-multiset of 2..18 and 5-multiset of 2..10, built as a census
    # builds them: chi_m, summed straight off the walk's arrays, is the sum
    # over the Stratum view of the same walk, and the middle rank read off
    # the walk is middle_betti's own inclusion-exclusion
    vectors = list(combinations_with_replacement(range(2, top + 1), length))
    links = [make_link(v) for v in vectors]
    records = tables._build_records(links)
    for v, link, rec in zip(vectors, links, records):
        assert "strata" not in link.__dict__, v
        assert rec.middle_rank == homology.middle_betti(v), v
        if rec.dim5_type is not None:
            assert rec.dim5_type.middle_rank == rec.middle_rank, v
        if rec.mu_P == 0:
            continue
        total = sum(s.period_count * homology._quotient_chi(len(s.exponents),
                                                            s.middle_rank)
                    for s in link.strata)
        sign = -1 if length % 2 else 1
        assert rec.chi_m == Fraction(sign * total, abs(rec.mu_P)), v


def test_build_record_optional_fields():
    rec = build_record((2, 3, 7, 22), with_sh0=True)
    assert rec.sh0_rank == 6
    rec7 = build_record((2, 2, 2, 3, 5), with_sig7=True)
    assert rec7.sig7 == 8
    assert rec7.dim == 7
    assert rec7.dim5_type is None


@pytest.mark.parametrize("v, kwargs", [
    ((2, 3, 4, 16), {}),
    ((2, 2, 2, 3, 5), {"with_sig7": True}),
])
def test_build_record_constructs_one_link_profile(monkeypatch, v, kwargs):
    built = []
    init = LinkProfile.__init__

    def counting_init(self, *args, **kw):
        built.append(kw["exponents"])
        init(self, *args, **kw)

    monkeypatch.setattr(LinkProfile, "__init__", counting_init)
    rec = build_record(v, **kwargs)
    assert built == [v]
    assert rec.sig7 == (8 if kwargs else None)


def test_build_records_equals_build_record_per_vector():
    # the batch builder computes each invariant over the whole batch: the
    # first 300 census vectors, then a mix of lengths with both extras
    census = list(islice(combinations_with_replacement(range(2, 19), 4), 300))
    assert tables._build_records(census) == [build_record(v) for v in census]
    mixed = [(2, 3, 5), (2, 2, 2, 3, 5), (2, 3, 4, 16), (2, 4, 6, 12),
             (3, 3, 3, 4, 4), (2, 4, 4), (2, 3, 7, 22), (2, 2, 2, 2, 2)]
    extras = {"with_sig7": True, "with_sh0": True}
    assert tables._build_records(mixed, **extras) == [
        build_record(v, **extras) for v in mixed
    ]


def test_build_record_zero_index_has_no_chi_m():
    rec = build_record((2, 4, 6, 12))
    assert rec.mu_P == 0
    assert rec.chi_m is None


def test_build_record_dim3():
    rec = build_record((2, 3, 5))
    assert rec.dim == 3
    assert rec.homotopy_sphere is None
    assert rec.dim5_type is None
    assert rec.chi_m is not None


def test_build_record_needs_three_exponents():
    with pytest.raises(DimensionTooLow):
        build_record((2, 3))


def test_known_se_exists():
    assert KNOWN_SE_EXISTS == frozenset({(2, 2, 2, 3)})


# ---------------------------------------------------------------------------
# enumeration


def test_enumerate_lex_order_and_count():
    recs = enumerate_links(5, 6)
    assert len(recs) == 70  # multisets of size 4 from 5 values
    vecs = [r.exponents for r in recs]
    assert vecs == sorted(vecs)
    assert vecs[0] == (2, 2, 2, 2)
    assert vecs[-1] == (6, 6, 6, 6)
    assert len(set(vecs)) == len(vecs)


def test_enumerate_respects_dimension():
    recs = enumerate_links(7, 3)
    assert all(len(r.exponents) == 5 and r.dim == 7 for r in recs)
    with pytest.raises(PreconditionFailed):
        enumerate_links(6, 5)
    with pytest.raises(PreconditionFailed):
        enumerate_links(3, 5)


def test_enumerate_filters():
    pos = enumerate_links(5, 6, filters=("positive",))
    assert pos and all(r.mu_P > 0 for r in pos)
    hs = enumerate_links(5, 6, filters=("homotopy_sphere",))
    assert all(r.homotopy_sphere for r in hs)
    assert (2, 3, 4, 5) in {r.exponents for r in hs}
    with pytest.raises(PreconditionFailed):
        enumerate_links(5, 4, filters=("no_such_filter",))


def test_enumerate_se_filters_honor_known_cases():
    exists = {r.exponents for r in enumerate_links(5, 3, filters=("se_exists",))}
    assert (2, 2, 2, 3) in exists  # settled in the literature, verdict Unknown
    unknown = {r.exponents for r in enumerate_links(5, 3, filters=("se_unknown",))}
    assert (2, 2, 2, 3) not in unknown


# ---------------------------------------------------------------------------
# sweeps


def test_parse_sweep_spec():
    spec = parse_sweep_spec("2,3,4,4+12k", "0..5")
    assert spec.entries == (2, 3, 4, (4, 12))
    assert (spec.k_lo, spec.k_hi) == (0, 5)
    assert spec.instantiate(2) == (2, 3, 4, 28)


@pytest.mark.parametrize("family,k_range", [
    ("2,3,4", "0..5"),          # no slot
    ("2,3+1k", "0..5"),         # two entries
    ("2,3+1k,4+2k", "0..5"),    # two slots
    ("2,3,4+12q", "0..5"),      # bad slot syntax
    ("2,3,4+12k", "5..0"),      # empty range
    ("2,3,4+12k", "0-5"),       # bad range syntax
    # only ASCII digits, without underscores, are typed integers
    ("2,3_0,4,4+12k", "0..5"),  # plain entry int() reads as 30
    ("2,\u0663,4+12k", "0..5"),  # non-ASCII digit in a plain entry
    ("2,3,\u0664+12k", "0..5"),  # ... in the slot
    ("2,3,4+12k", "0..\u0665"),  # ... in the k range
])
def test_parse_sweep_spec_rejects(family, k_range):
    with pytest.raises(PreconditionFailed):
        parse_sweep_spec(family, k_range)


def test_family_sweep_m3_row():
    spec = parse_sweep_spec("2,3,4,4+12k", "0..5")
    rows = family_sweep(spec)
    assert [str(rec.chi_m) for _, rec in rows] == [
        "1/2", "25/14", "23/10", "67/26", "11/4", "109/38",
    ]
    assert all(rec.dim5_type.name == "M3" for _, rec in rows)


def test_family_sweep_invalid_instance():
    spec = parse_sweep_spec("2,3,5,1+30k", "0..3")
    with pytest.raises(InvalidInstance):
        family_sweep(spec)
    # the same family is fine once k starts at 1
    rows = family_sweep(parse_sweep_spec("2,3,5,1+30k", "1..2"))
    assert [k for k, _ in rows] == [1, 2]


# ---------------------------------------------------------------------------
# collisions


def test_collision_scan_distinguishes_known_pair():
    records = [build_record(v) for v in
               [(2, 3, 7, 22), (3, 3, 4, 7), (2, 3, 4, 16), (2, 4, 6, 12)]]
    groups = find_mec_collisions(records)
    assert len(groups) == 1
    g = groups[0]
    assert g.chi_m == Fraction(77, 10)
    assert g.members == ((2, 3, 7, 22), (3, 3, 4, 7))
    # SH_0 = 6 vs 7 splits the pair into singleton clusters
    assert g.clusters == (
        ((6,), ((2, 3, 7, 22),)),
        ((7,), ((3, 3, 4, 7),)),
    )


def test_collision_scan_refuses_an_empty_window():
    def unread():
        raise AssertionError("records read before the window was checked")
        yield

    with pytest.raises(PreconditionFailed):
        find_mec_collisions(unread(), window=(3, 1))


def test_collision_scan_dedups_by_canonical_vector():
    records = [build_record((2, 3, 7, 22)), build_record((22, 7, 3, 2)),
               build_record((3, 3, 4, 7))]
    groups = find_mec_collisions(records)
    assert groups[0].members == ((2, 3, 7, 22), (3, 3, 4, 7))


def test_collision_scan_groups_unsplit_members_together():
    # chi_m = 1 family with identical SH_0; one cluster holds them all
    records = [build_record(v) for v in [(2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 3, 5)]]
    groups = find_mec_collisions(records)
    assert len(groups) == 1
    (key, members), = groups[0].clusters
    assert members == ((2, 2, 2, 2), (2, 2, 2, 4), (2, 2, 3, 5))


def test_collision_scan_groups_equal_values_however_built():
    # equal chi_m built differently land in one group, whose chi_m is the
    # first one read (an int reads like the equal Fraction)
    def rec(v, chi_m):
        return replace(build_record(v), chi_m=chi_m)

    one = 1
    first = Fraction(154, 20)
    groups = find_mec_collisions([
        rec((2, 2, 2, 2), one), rec((2, 2, 2, 4), Fraction(1)),
        rec((2, 3, 7, 22), first), rec((3, 3, 4, 7), Fraction("77/10")),
    ])
    assert [g.members for g in groups] == [
        ((2, 2, 2, 2), (2, 2, 2, 4)), ((2, 3, 7, 22), (3, 3, 4, 7)),
    ]
    assert groups[0].chi_m is one and groups[1].chi_m is first


def mec_groups_by_fraction(lines, window=(0, 0)):
    """The collision groups of JSON-lines text keyed by the Fraction itself,
    each chi_m read by Fraction(text): the reference for the scan."""
    chi_of = {}
    for line in lines:
        d = json.loads(line)
        if d["chi_m"] is not None:
            chi_of.setdefault(tuple(sorted(d["exponents"])), Fraction(d["chi_m"]))
    groups = {}
    for canon, chi_m in chi_of.items():
        groups.setdefault(chi_m, []).append(canon)
    out = []
    for chi_m in sorted(k for k, canons in groups.items() if len(canons) > 1):
        members = sorted(groups[chi_m])
        clusters = {}
        for canon in members:
            ranks = sh_plus_ranks(make_link(canon), *window).ranks
            key = tuple(ranks[k] for k in range(window[0], window[1] + 1))
            clusters.setdefault(key, []).append(canon)
        out.append((chi_m, tuple(members),
                    tuple((k, tuple(clusters[k])) for k in sorted(clusters))))
    return out


def test_collision_scan_of_the_census_file_equals_the_fraction_keyed_reference(
        tmp_path):
    path = tmp_path / "census.jsonl"
    export_records(enumerate_links(5, 18), path)
    groups = find_mec_collisions(import_records(path))
    assert len(groups) > 100
    assert [(g.chi_m, g.members, g.clusters) for g in groups] == (
        mec_groups_by_fraction(path.read_text().splitlines())
    )


# ---------------------------------------------------------------------------
# serialization


@pytest.fixture
def sample_records():
    return [
        build_record(v, with_sh0=True)
        for v in [(2, 3, 4, 16), (2, 2, 3, 3), (2, 3, 7, 22), (2, 4, 6, 12)]
    ]


def test_csv_round_trip(tmp_path, sample_records):
    path = tmp_path / "records.csv"
    export_records(sample_records, path)
    text = path.read_text()
    assert text.splitlines()[0] == CSV_HEADER
    assert import_records(path) == sample_records


def test_csv_re_export_is_byte_identical(tmp_path, sample_records):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    export_records(sample_records, p1)
    export_records(import_records(p1), p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_csv_import_cross_checks_cells(tmp_path, sample_records):
    path = tmp_path / "records.csv"
    export_records(sample_records, path)
    lines = path.read_text().splitlines()
    cells = lines[1].split(";")
    cells[4] = "999/7"  # tamper with chi_m
    (tmp_path / "bad.csv").write_text("\n".join([lines[0], ";".join(cells)]) + "\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.csv")
    cells[4], cells[0] = lines[1].split(";")[4], "2,x,4,5"
    (tmp_path / "bad.csv").write_text("\n".join([lines[0], ";".join(cells)]) + "\n")
    with pytest.raises(SchemaError, match="bad exponents cell '2,x,4,5'"):
        import_records(tmp_path / "bad.csv")


@pytest.mark.parametrize("cell, shown", [
    ("1,0", [1, 0]), ("2,3", [2, 3]), ("2,2,1,2", [2, 2, 1, 2]),
])
def test_csv_import_re_checks_the_exponents(tmp_path, sample_records, cell,
                                            shown):
    path = tmp_path / "bad.csv"
    export_records(sample_records, path)
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = cell + lines[2][lines[2].index(";"):]
    path.write_text("".join(lines))
    with pytest.raises(SchemaError) as exc:
        import_records(path)
    assert str(exc.value) == f"line 3: exponents cannot be {shown!r}"


def test_csv_import_rejects_wrong_header(tmp_path):
    (tmp_path / "bad.csv").write_text("exponents;dim\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.csv")
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "empty.csv")


@pytest.mark.parametrize("fmt, tail, message", [
    ("jsonl", b"\xff\n", "line 5: byte 0xff is not UTF-8"),
    ("csv", b"2,3,4,16\xff\n", "line 6: byte 0xff is not UTF-8"),
    ("jsonl", b"[" * 100_000 + b"\n", "line 5: invalid JSON ("),
    ("csv", b"x" * 200_000 + b"\n", "line 6: field larger than field limit"),
], ids=["jsonl-not-utf8", "csv-not-utf8", "jsonl-too-deep",
        "csv-huge-cell"])
def test_import_names_the_line_of_malformed_bytes(tmp_path, sample_records,
                                                  fmt, tail, message):
    # bytes that are not UTF-8, JSON nested past the parser's depth and a
    # cell past csv's field limit are schema errors, not tracebacks
    path = tmp_path / f"bad.{fmt}"
    export_records(sample_records, path)
    path.write_bytes(path.read_bytes() + tail)
    with pytest.raises(SchemaError) as exc:
        import_records(path)
    assert str(exc.value).startswith(message)


def test_jsonl_round_trip_carries_everything(tmp_path, sample_records):
    rec7 = build_record((2, 2, 2, 3, 5), with_sig7=True, with_sh0=True)
    records = sample_records + [rec7]
    path = tmp_path / "records.jsonl"
    export_records(records, path)
    back = import_records(path)
    assert back == records
    assert back[-1].sig7 == 8


@pytest.mark.parametrize("chi_m", ["1/0", "abc"])
def test_malformed_fractions_are_schema_errors(tmp_path, chi_m):
    rec = build_record((2, 3, 7, 22))
    d = {**tables.record_to_json_dict(rec), "chi_m": chi_m}
    (tmp_path / "bad.jsonl").write_text(json.dumps(d) + "\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.jsonl")
    export_records([rec], tmp_path / "good.csv")
    head, row = (tmp_path / "good.csv").read_text().splitlines()
    cells = row.split(";")
    cells[4] = chi_m
    (tmp_path / "bad.csv").write_text(f"{head}\n{';'.join(cells)}\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.csv")


HUGE_NUMERATOR = "7" * 4301 + "/3"  # past int()'s default digit limit
FRACTION_CORPUS = [
    # integers and p/q in ASCII digits, which _fraction builds from two ints
    "77/10", "154/20", "-0", "-12/4", "0/5", "007/010", HUGE_NUMERATOR,
    # other spellings Fraction reads
    "+3/4", " 3/4", "3/4 ", "3 /4", "7.7", "1e3", "1_000/3", "١/٢",
    # spellings Fraction refuses
    "", "-", "--5", "/5", "5/", "5/-3", "1/0", "0/0",
]


def read_or_raise(read, text):
    try:
        value = read(text)
    except Exception as exc:
        return type(exc)
    return type(value), value.numerator, value.denominator


@pytest.mark.parametrize("text", FRACTION_CORPUS)
def test_fraction_reads_each_string_as_fraction_does(text):
    assert read_or_raise(tables._fraction, text) == read_or_raise(Fraction, text)


@pytest.mark.parametrize("field", ["chi_m", "recip_sum"])
def test_jsonl_fraction_fields_read_every_spelling_as_fraction_does(tmp_path,
                                                                    field):
    # L(2,3,7,22): recip_sum = 236/231, chi_m = 77/10
    good = tables.record_to_json_dict(build_record((2, 3, 7, 22)))
    value = Fraction(good[field])
    p, q = value.numerator, value.denominator
    arabic_indic = str.maketrans("0123456789",
                                 "".join(map(chr, range(0x660, 0x66A))))
    accepted = [f"{p}/{q}", f"{2 * p}/{2 * q}", f"00{p}/0{q}", f"+{p}/{q}",
                f" {p}/{q} ", f"{p}/{q}".translate(arabic_indic)]
    if q == 10:
        accepted += ["7.7", "77e-1", "7_7/1_0"]
    path = tmp_path / "records.jsonl"
    path.write_text("".join(json.dumps({**good, field: spelled}) + "\n"
                            for spelled in accepted))
    back = [getattr(rec, field) for rec in import_records(path)]
    assert back == [Fraction(spelled) for spelled in accepted]
    assert back == [value] * len(accepted)
    assert all(type(v) is Fraction for v in back)
    rejected = ["", "-", "--5", "/5", "5/", "5/-3", "1/0", "0/0", "3 /4",
                HUGE_NUMERATOR]
    for spelled in rejected:
        path.write_text(json.dumps(good) + "\n"
                        + json.dumps({**good, field: spelled}) + "\n")
        with pytest.raises(SchemaError) as exc:
            import_records(path)
        assert str(exc.value) == f"line 2: {field} cannot be {spelled!r}"


@pytest.mark.parametrize("part, field, value", [
    ("", "sig7", "8"), ("", "degree", 30.5), ("", "homotopy_sphere", "no"),
    ("", "dim", True), ("", "weights", [30, 30, 30, 20, 12.0]),
    ("", "chi_m", 5), ("se", "positivity", 1), ("moduli", "kuranishi_dim", None),
    ("", "exponents", [1, 0]), ("", "exponents", []), ("", "exponents", [2, 3]),
    ("", "exponents", [2] * 19),
])
def test_jsonl_import_checks_every_field_type(tmp_path, part, field, value):
    rec = build_record((2, 2, 2, 3, 5), with_sig7=True)
    d = tables.record_to_json_dict(rec)
    assert d["sig7"] == 8
    (d[part] if part else d)[field] = value
    with pytest.raises(SchemaError):
        tables.record_from_json_dict(d)
    (tmp_path / "bad.jsonl").write_text(json.dumps(d) + "\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.jsonl")


@pytest.mark.parametrize("field, value", [
    ("dim", 9), ("degree", 60), ("weights", [15, 15, 15, 10, 7]),
    ("mu_P", 60), ("recip_sum", "61/31"), ("exponents", [2, 2, 2, 3, 7]),
])
def test_jsonl_import_rechecks_the_fields_its_exponents_fix(tmp_path, field,
                                                             value):
    # L(2,2,2,3,5): dim 7, degree 30, weights d/a_j, recip_sum 61/30 and
    # mu_P = 2 (61 - 30); a field of the right type but another value, or
    # exponents that give other fields, is refused by name
    d = tables.record_to_json_dict(build_record((2, 2, 2, 3, 5)))
    assert tables.record_from_json_dict({**d, "recip_sum": "122/60"}) == (
        tables.record_from_json_dict(d))
    d[field] = value
    name = "degree" if field == "exponents" else field
    message = f"{name} disagrees with exponents {d['exponents']}"
    with pytest.raises(SchemaError) as exc:
        tables.record_from_json_dict(d)
    assert str(exc.value) == message
    (tmp_path / "bad.jsonl").write_text("\n" + json.dumps(d) + "\n")
    with pytest.raises(SchemaError) as exc:
        import_records(tmp_path / "bad.jsonl")
    assert str(exc.value) == f"line 2: {message}"


@pytest.mark.parametrize("part, field, value", [
    ("se", "verdict", "Maybe"), ("se", "coprime_iff", "yes"),
    ("dim5_type", "kind", "Torus"),
])
def test_a_bad_enum_value_names_its_field(part, field, value):
    d = tables.record_to_json_dict(build_record((2, 3, 4, 16)))
    d[part][field] = value
    with pytest.raises(SchemaError) as exc:
        tables.record_from_json_dict(d)
    assert str(exc.value) == f"{part}.{field} cannot be {value!r}"


def test_jsonl_round_trip_rebuilds_constructor_objects(tmp_path):
    # the reader fills each object's fields without __init__; what it gives
    # back must be the object the constructor built, down to its hash
    records = enumerate_links(5, 10)
    export_records(records, tmp_path / "census.jsonl")
    back = import_records(tmp_path / "census.jsonl")
    assert len(back) == len(records) > 400
    for rec, got in zip(records, back):
        pairs = [(rec, got)] + [(getattr(rec, part), getattr(got, part))
                                for part in ("se", "moduli", "dim5_type")]
        for want, obj in pairs:
            assert type(obj) is type(want)
            assert obj == want and hash(obj) == hash(want)
            assert list(vars(obj).items()) == list(vars(want).items())


def test_codec_refuses_a_class_its_reader_would_not_rebuild():
    from dataclasses import dataclass, field

    @dataclass(frozen=True)
    class Checked:
        value: int

        def __post_init__(self):
            if self.value < 0:
                raise ValueError(self.value)

    @dataclass(frozen=True)
    class Derived:
        value: int
        double: int = field(init=False)

    for cls in (Checked, Derived):
        with pytest.raises(TypeError, match="not rebuilt by its fields"):
            tables._codec(cls)
        assert cls not in tables._SCHEMA


# The wire contract: the JSON types each field of a record is written and
# read with, per object ("" is the record, the rest the objects it nests),
# matched with type(), so a bool is no int.  The codec derives them from the
# dataclass annotations; a change there that moves one changes the format.
_NULL = type(None)
WIRE_TYPES = {
    "": {
        "exponents": (list,), "dim": (int,), "degree": (int,),
        "weights": (list,), "recip_sum": (str,), "mu_P": (int,),
        "chi_m": (str, _NULL), "middle_rank": (int,),
        "homotopy_sphere": (bool, _NULL), "rhs": (bool, _NULL),
        "dim5_type": (dict, _NULL), "sig7": (int, _NULL), "se": (dict,),
        "moduli": (dict,), "sh0_rank": (int, _NULL),
    },
    "dim5_type": {
        "kind": (str,), "middle_rank": (int,), "count": (int, _NULL),
        "name": (str, _NULL),
    },
    "se": {
        "positivity": (bool,), "sufficient1": (bool,), "sufficient2": (bool,),
        "coprime_iff": (str,), "lichnerowicz_obstructed": (bool,),
        "verdict": (str,),
    },
    "moduli": {
        "applicable": (bool,), "h0_degree": (int,), "h0_weight_sum": (int,),
        "kuranishi_dim": (int,), "perturbation_count": (int,),
    },
}


def test_record_schema_is_the_wire_contract():
    derived = {
        part: tables._SCHEMA[cls][2]
        for part, cls in [("", tables.LinkRecord), ("dim5_type", homology.Dim5Type),
                          ("se", einstein.SEReport), ("moduli", einstein.ModuliReport)]
    }
    assert derived == WIRE_TYPES
    # the same keys, in the same order, as the written objects
    rec = build_record((2, 3, 4, 16))
    d = tables.record_to_json_dict(rec)
    assert list(d) == list(WIRE_TYPES[""])
    for part in ("dim5_type", "se", "moduli"):
        assert list(d[part]) == list(WIRE_TYPES[part])


def test_jsonl_rejects_malformed_lines(tmp_path):
    (tmp_path / "bad.jsonl").write_text('{"exponents": [2,3,4\n')
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.jsonl")
    (tmp_path / "bad2.jsonl").write_text('{"exponents": [2, 3, 4, 16]}\n')
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad2.jsonl")
    (tmp_path / "bad3.jsonl").write_text("[2, 3, 4]\n")
    with pytest.raises(SchemaError, match="a record is a JSON object"):
        import_records(tmp_path / "bad3.jsonl")


def test_empty_exports(tmp_path):
    path = tmp_path / "none.csv"
    export_records([], path)
    assert path.read_text() == CSV_HEADER + "\n"
    assert import_records(path) == []
    jpath = tmp_path / "none.jsonl"
    export_records([], jpath)
    assert jpath.read_text() == ""
    assert import_records(jpath) == []


def test_export_streams_and_replaces_the_file_whole(tmp_path, sample_records):
    path = tmp_path / "records.jsonl"
    assert export_records(iter(sample_records), path) == len(sample_records)
    assert import_records(path) == sample_records
    before = path.read_bytes()

    def fails_partway():
        yield sample_records[0]
        raise BudgetExceeded("over budget")

    with pytest.raises(BudgetExceeded):
        export_records(fails_partway(), path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_export_follows_a_symlink_and_writes_through_a_pipe(tmp_path,
                                                            sample_records):
    target = tmp_path / "records.jsonl"
    target.write_text("")
    link = tmp_path / "link.jsonl"
    link.symlink_to(target)
    export_records(sample_records, link)
    assert link.is_symlink() and import_records(target) == sample_records

    pipe = tmp_path / "pipe"
    os.mkfifo(pipe)
    read = []
    reader = threading.Thread(target=lambda: read.append(pipe.read_bytes()),
                              daemon=True)
    reader.start()
    export_records(sample_records, pipe, "jsonl")
    reader.join(timeout=30)
    assert not reader.is_alive() and stat.S_ISFIFO(pipe.stat().st_mode)
    assert read == [target.read_bytes()]


def test_format_inference(tmp_path, sample_records):
    with pytest.raises(PreconditionFailed):
        export_records(sample_records, tmp_path / "records.xlsx")
    with pytest.raises(PreconditionFailed, match="unknown format 'xml'"):
        export_records(sample_records, tmp_path / "records.csv", fmt="xml")
    assert list(tmp_path.iterdir()) == []
    export_records(sample_records, tmp_path / "records.txt", fmt="jsonl")
    assert import_records(tmp_path / "records.txt", fmt="jsonl") == sample_records


# ---------------------------------------------------------------------------
# cache

SIG7 = {"with_sig7": True}


def _cache_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def test_cached_record_round_trip(tmp_path, monkeypatch):
    # the file holds the signature alone, named by the canonical vector; a
    # hit reads it back instead of counting the lattice box again
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    counted = []
    signature = tables.milnor_signature_dim7

    def counting_signature(exponents):
        counted.append(tuple(exponents))
        return signature(exponents)

    monkeypatch.setattr(tables, "milnor_signature_dim7", counting_signature)
    first = cached_record((5, 2, 2, 3, 2), **SIG7)
    assert first.exponents == (5, 2, 2, 3, 2)
    assert first.weights == (6, 15, 15, 10, 15)
    assert first.sig7 == 8
    [name] = _cache_files(tmp_path / "cache")
    assert name == os.path.join(f"v{tables.__version__}", "2-2-2-3-5.json")
    path = tmp_path / "cache" / name
    assert path.read_text() == "8"
    second = cached_record((2, 2, 2, 3, 5), **SIG7, with_sh0=True)
    assert counted == [(5, 2, 2, 3, 2)]
    assert path.read_text() == "8"
    assert second == build_record((2, 2, 2, 3, 5), **SIG7, with_sh0=True)


def test_cached_record_one_file_per_call(tmp_path, monkeypatch):
    # a call touches at most one file, that of its canonical vector, and
    # only when it asks for a five-exponent signature
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    plain = [((2, 3, 4, 16), SIG7), ((2, 3, 4, 16), {"with_sh0": True}),
             ((5, 2, 2, 3, 2), {}), ((5, 2, 2, 3, 2), {"with_sh0": True})]
    for v, kwargs in plain:
        assert cached_record(v, **kwargs) == build_record(v, **kwargs)
    assert _cache_files(tmp_path / "cache") == []
    signed = [((5, 2, 2, 3, 2), SIG7), ((2, 3, 5, 2, 2), SIG7),
              ((2, 2, 2, 3, 5), {**SIG7, "with_sh0": True})]
    for v, kwargs in signed:
        assert cached_record(v, **kwargs) == build_record(v, **kwargs)
    version = f"v{tables.__version__}"
    assert _cache_files(tmp_path / "cache") == [
        os.path.join(version, "2-2-2-3-5.json")
    ]
    path = tmp_path / "cache" / version / "2-2-2-3-5.json"
    assert json.loads(path.read_text()) == 8


@pytest.mark.parametrize("v, sig7", [
    ((2, 2, 2, 3, 5), 9),      # each true sig7 + 1 fails the parity
    ((2, 3, 5, 7, 11), 209),   # mu - kappa = 480
    ((2, 3, 5, 7, 11), 210),   # 8 | sig7 on a homotopy sphere
    ((2, 3, 5, 7, 11), 488),   # |sig7| <= mu - kappa
    ((2, 3, 5, 7, 11), -488),
    ((3, 3, 3, 3, 3), 19),     # not a sphere: mu - kappa = 32 - 10 = 22
    ((3, 3, 3, 3, 3), 24),
    ((3, 3, 3, 3, 3), "18"),
])
def test_cached_record_rechecks_the_signature(tmp_path, monkeypatch, v, sig7):
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    rec = cached_record(v, **SIG7)
    [path] = (tmp_path / "cache").rglob("*.json")
    stored = json.loads(path.read_text())
    assert stored == rec.sig7
    path.write_text(json.dumps(sig7))
    assert cached_record(v, **SIG7) == rec
    assert json.loads(path.read_text()) == stored


def test_cached_record_makes_one_link_per_call(tmp_path, monkeypatch):
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    calls = []
    make_link = linkmodel.make_link

    def counting_make_link(exponents):
        calls.append(tuple(exponents))
        return make_link(exponents)

    for module in (linkmodel, homology, invariants, einstein, tables):
        monkeypatch.setattr(module, "make_link", counting_make_link)
    cold = cached_record((5, 2, 2, 3, 2), **SIG7)  # miss: counts the box
    warm = cached_record((5, 2, 2, 3, 2), **SIG7)  # hit: reads sig7 back
    assert calls == [(5, 2, 2, 3, 2)] * 2
    assert cold == warm == build_record((5, 2, 2, 3, 2), **SIG7)


@pytest.mark.parametrize("cache", [False, True])
def test_dim7_functions_take_a_link_profile(tmp_path, monkeypatch, cache):
    # functions that take a link accept the LinkProfile of make_link as well
    # as the plain vector, with the same answer
    if cache:
        monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    else:
        monkeypatch.delenv("BRIESKORN_CACHE_DIR", raising=False)
    for v in [(2, 2, 2, 3, 5), (5, 2, 2, 3, 2), (2, 3, 5, 7, 11)]:
        link = make_link(v)
        assert homology.milnor_signature_dim7(link) == (
            homology.milnor_signature_dim7(v))
        if homology.is_homotopy_sphere(v):
            assert homology.exotic_class_dim7(link) == (
                homology.exotic_class_dim7(v))
        assert cached_record(link, **SIG7) == cached_record(v, **SIG7)
        assert cached_record(link) == cached_record(v) == build_record(v)


def test_cached_record_survives_corruption(tmp_path, monkeypatch):
    # a file that will not decode as JSON, or holds no int, is a miss and is
    # rewritten with the signature
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    rec = cached_record((2, 2, 2, 3, 5), **SIG7)
    [path] = (tmp_path / "cache").rglob("*.json")
    for garbage in [b"{ not json", b"\xff", b"8\xff", b"[" * 100_000, b"",
                    b"8.0", b"true", b'"8"', b"null", b'{"sig7": 8}']:
        path.write_bytes(garbage)
        assert cached_record((2, 2, 2, 3, 5), **SIG7) == rec, garbage
        assert path.read_bytes() == b"8", garbage


def test_cached_record_without_env_is_plain_build(monkeypatch):
    monkeypatch.delenv("BRIESKORN_CACHE_DIR", raising=False)
    assert cached_record((2, 3, 4, 16)) == build_record((2, 3, 4, 16))
    assert cached_record((5, 2, 2, 3, 2), **SIG7) == build_record(
        (5, 2, 2, 3, 2), **SIG7
    )


def test_a_signature_the_lattice_kernel_can_count_answers():
    # prod(a) = 10^15 lattice points, but each half keeps at most 2d = 2000
    # residues, so the kernel counts what the old box budget refused
    rec = build_record((1000,) * 5, with_sig7=True)
    assert rec.sig7 == 133332666668199
    assert tables._sig7_fits(rec.sig7, rec)


@pytest.mark.parametrize("first", [
    {"with_sig7": True}, {"with_sh0": True},
    {"with_sig7": True, "with_sh0": True},
])
def test_cached_record_hit_equals_build_record(tmp_path, monkeypatch, first):
    # whatever an earlier call stored, a call returns what build_record
    # returns for the same arguments
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    v = (5, 2, 2, 3, 2)
    assert cached_record(v, **first) == build_record(v, **first)
    for kwargs in [{}, SIG7, {"with_sh0": True}, {**SIG7, "with_sh0": True}]:
        assert cached_record(v, **kwargs) == build_record(v, **kwargs), kwargs
