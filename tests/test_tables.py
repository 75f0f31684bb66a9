"""Records, censuses, sweeps, collision scans, and the file formats."""

import json
import os
import stat
import threading
from fractions import Fraction

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
from brieskorn.linkmodel import LinkProfile
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


def test_build_record_optional_fields():
    rec = build_record((2, 3, 7, 22), with_sh0=True)
    assert rec.sh0_rank == 6
    rec7 = build_record((2, 2, 2, 3, 5), sig7_budget=10**6)
    assert rec7.sig7 == 8
    assert rec7.dim == 7
    assert rec7.dim5_type is None


@pytest.mark.parametrize("v, kwargs", [
    ((2, 3, 4, 16), {}),
    ((2, 2, 2, 3, 5), {"sig7_budget": 10**6}),
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


def test_csv_import_rejects_wrong_header(tmp_path):
    (tmp_path / "bad.csv").write_text("exponents;dim\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.csv")
    (tmp_path / "empty.csv").write_text("")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "empty.csv")


def test_jsonl_round_trip_carries_everything(tmp_path, sample_records):
    rec7 = build_record((2, 2, 2, 3, 5), sig7_budget=10**6, with_sh0=True)
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


@pytest.mark.parametrize("part, field, value", [
    ("", "sig7", "8"), ("", "degree", 30.5), ("", "homotopy_sphere", "no"),
    ("", "dim", True), ("", "weights", [30, 30, 30, 20, 12.0]),
    ("", "chi_m", 5), ("se", "positivity", 1), ("moduli", "kuranishi_dim", None),
])
def test_jsonl_import_checks_every_field_type(tmp_path, part, field, value):
    rec = build_record((2, 2, 2, 3, 5), sig7_budget=10**6)
    d = tables.record_to_json_dict(rec)
    assert d["sig7"] == 8
    (d[part] if part else d)[field] = value
    with pytest.raises(SchemaError):
        tables.record_from_json_dict(d)
    (tmp_path / "bad.jsonl").write_text(json.dumps(d) + "\n")
    with pytest.raises(SchemaError):
        import_records(tmp_path / "bad.jsonl")


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
    export_records(sample_records, tmp_path / "records.txt", fmt="jsonl")
    assert import_records(tmp_path / "records.txt", fmt="jsonl") == sample_records


# ---------------------------------------------------------------------------
# cache


def test_cached_record_round_trip(tmp_path, monkeypatch):
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    first = cached_record((16, 3, 2, 4))
    assert first.exponents == (16, 3, 2, 4)
    assert first.weights == (3, 16, 24, 12)
    assert first.chi_m == Fraction(25, 14)
    files = [
        os.path.join(root, name)
        for root, _, names in os.walk(tmp_path / "cache")
        for name in names
    ]
    assert len(files) == 1 and files[0].endswith("2-3-4-16.json")
    # cached copy stores the canonical record
    with open(files[0]) as fh:
        stored = json.load(fh)
    assert stored["exponents"] == [2, 3, 4, 16]
    # a call with an extra gets a file of its own; the plain file is kept
    second = cached_record((2, 3, 4, 16), with_sh0=True)
    assert second.sh0_rank == 0
    with open(files[0]) as fh:
        assert json.load(fh) == stored
    with open(files[0].replace(".json", "+sh0.json")) as fh:
        assert json.load(fh)["sh0_rank"] == second.sh0_rank


def _cache_files(root):
    return sorted(
        os.path.relpath(os.path.join(d, name), root)
        for d, _, names in os.walk(root)
        for name in names
    )


def test_cached_record_one_file_per_call(tmp_path, monkeypatch):
    # each file holds exactly the canonical record its call builds, whatever
    # the order the calls come in
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    calls = [
        ({"sig7_budget": 10**6, "with_sh0": True}, "+sig7+sh0"),
        ({"with_sh0": True}, "+sh0"),
        ({}, ""),
        ({"sig7_budget": 10**6}, "+sig7"),
    ]
    for kwargs, _ in calls:
        assert cached_record((5, 2, 2, 3, 2), **kwargs) == build_record(
            (5, 2, 2, 3, 2), **kwargs
        )
    version = f"v{tables.__version__}"
    assert _cache_files(tmp_path / "cache") == sorted(
        os.path.join(version, f"2-2-2-3-5{suffix}.json") for _, suffix in calls
    )
    for kwargs, suffix in calls:
        path = tmp_path / "cache" / version / f"2-2-2-3-5{suffix}.json"
        stored = json.loads(path.read_text())
        assert stored == tables.record_to_json_dict(
            build_record((2, 2, 2, 3, 5), **kwargs)
        )
    # sig7_budget names no file of its own below five exponents
    cached_record((2, 3, 4, 16), sig7_budget=10**6)
    assert os.path.join(version, "2-3-4-16.json") in _cache_files(
        tmp_path / "cache"
    )


def test_cached_record_ignores_extras_it_did_not_ask_for(tmp_path,
                                                         monkeypatch):
    # a record carrying sig7 and sh0_rank at the plain name, as an older
    # merging cache left it, is a miss for a plain call and is rewritten
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    v = (2, 2, 2, 3, 5)
    plain = cached_record(v)
    [path] = (tmp_path / "cache").rglob("2-2-2-3-5.json")
    full = build_record(v, sig7_budget=10**6, with_sh0=True)
    path.write_text(json.dumps(tables.record_to_json_dict(full)))
    assert cached_record(v) == plain == build_record(v)
    assert json.loads(path.read_text()) == tables.record_to_json_dict(plain)


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
    rec = cached_record(v, sig7_budget=10**6)
    [path] = (tmp_path / "cache").rglob("*+sig7.json")
    stored = json.loads(path.read_text())
    path.write_text(json.dumps({**stored, "sig7": sig7}))
    assert cached_record(v, sig7_budget=10**6) == rec
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
    cold = cached_record((16, 3, 2, 4))  # miss: builds the canonical record
    warm = cached_record((16, 3, 2, 4))  # hit: reads it back
    assert calls == [(16, 3, 2, 4)] * 2
    assert cold == warm == build_record((16, 3, 2, 4))


def test_cached_record_survives_corruption(tmp_path, monkeypatch):
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    rec = cached_record((2, 3, 4, 16))
    files = [
        os.path.join(root, name)
        for root, _, names in os.walk(tmp_path / "cache")
        for name in names
    ]
    with open(files[0], "w") as fh:
        fh.write("{ not json")
    again = cached_record((2, 3, 4, 16))
    assert again == rec


def test_cached_record_without_env_is_plain_build(monkeypatch):
    monkeypatch.delenv("BRIESKORN_CACHE_DIR", raising=False)
    assert cached_record((2, 3, 4, 16)) == build_record((2, 3, 4, 16))


@pytest.mark.parametrize("first", [
    {"sig7_budget": 10**6}, {"with_sh0": True},
    {"sig7_budget": 10**6, "with_sh0": True},
])
def test_cached_record_hit_equals_build_record(tmp_path, monkeypatch, first):
    # a hit returns what build_record returns for the same arguments, not
    # the extras an earlier call stored in the cache file
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    v = (5, 2, 2, 3, 2)
    assert cached_record(v, **first) == build_record(v, **first)
    for kwargs in [{}, {"sig7_budget": 10**6}, {"with_sh0": True}]:
        assert cached_record(v, **kwargs) == build_record(v, **kwargs), kwargs
    with pytest.raises(BudgetExceeded):
        build_record(v, sig7_budget=10)
    with pytest.raises(BudgetExceeded):  # box 120, with sig7 in the cache
        cached_record(v, sig7_budget=10)
