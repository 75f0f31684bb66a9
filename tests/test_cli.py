"""Command-line behavior: output pins, exit codes, determinism."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from brieskorn import __version__, build_record, import_records
from brieskorn.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_worked_example(capsys):
    code, out, err = run_cli(capsys, "analyze", "2,3,4,16")
    assert code == 0
    assert out.startswith("L(2,3,4,16)\n")
    assert "25/14" in out
    assert "RationalHomologySphere(M3)" in out
    assert err.startswith("brieskorn ")


def test_analyze_two_exponents_is_partial_but_fine(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2,3")
    assert code == 0
    assert "degree" in out and "middle_rank" in out
    assert "note" in out
    code, out, _ = run_cli(capsys, "analyze", "2,4", "--json")
    assert code == 0
    d = json.loads(out)
    assert (d["middle_rank"], d["chi_s1"]) == (1, 2)
    assert d["note"] == "classifiers, SE verdicts and chi_m need >= 3 exponents"
    # three exponents: the sphere tests need four, so they print "-"
    code, out, _ = run_cli(capsys, "analyze", "2,3,6")
    assert code == 0
    lines = out.splitlines()
    assert "homotopy_sphere           -" in lines
    assert "rational_homology_sphere  -" in lines


def test_analyze_json(capsys):
    code, out, _ = run_cli(capsys, "analyze", "2,3,11,11", "--json")
    assert code == 0
    d = json.loads(out)
    assert d["se"]["verdict"] == "Exists"
    assert d["moduli"]["kuranishi_dim"] == 8
    assert d["moduli"]["perturbation_count"] == 10
    assert d["chi_m"] == "41/2"


def test_mec_pin(capsys):
    code, out, _ = run_cli(capsys, "mec", "2,2,3,3")
    assert code == 0
    assert out == "3/2\n"


def test_mec_approx(capsys):
    _, out, _ = run_cli(capsys, "mec", "2,3,4,16", "--approx")
    assert out == "25/14 (~1.78571)\n"


def test_sh_ranks_pin(capsys):
    code, out, _ = run_cli(capsys, "sh-ranks", "2,3,7,22", "0", "0")
    assert code == 0
    assert out == "SH_0 = 6, lacunary\n"
    code, out, _ = run_cli(capsys, "sh-ranks", "3,3,4,7", "0", "0")
    assert out == "SH_0 = 7, lacunary\n"


def test_sh_ranks_window_and_json(capsys):
    _, out, _ = run_cli(capsys, "sh-ranks", "2,3,7,22", "0", "2")
    assert out.splitlines() == ["SH_0 = 6", "SH_1 = 0", "SH_2 = 16", "lacunary"]
    _, out, _ = run_cli(capsys, "sh-ranks", "2,3,7,22", "0", "0", "--json")
    assert json.loads(out) == {
        "k_lo": 0, "k_hi": 0, "ranks": {"0": 6}, "mu_P": 20, "lacunary": True,
    }


def test_se_check(capsys):
    code, out, _ = run_cli(capsys, "se-check", "2,3,5,7")
    assert code == 0
    assert out.splitlines()[0] == "L(2,3,5,7): Exists"


def test_sweep_csv_pin(capsys):
    code, out, _ = run_cli(capsys, "sweep", "2,3,4,4+12k", "0..5", "--csv")
    assert code == 0
    # the census CSV dialect with a leading k column, byte for byte
    assert out == (
        "k;exponents;dim;degree;mu_P;chi_m;middle_rank;homotopy_sphere;"
        "dim5_type;se_verdict;kuranishi_dim;perturbation_count;sh0_rank\n"
        "0;2,3,4,4;5;12;8;1/2;0;false;RationalHomologySphere(M3);Unknown;1;6;\n"
        "1;2,3,4,16;5;48;14;25/14;0;false;RationalHomologySphere(M3);Unknown;2;6;\n"
        "2;2,3,4,28;5;84;20;23/10;0;false;RationalHomologySphere(M3);Obstructed;2;6;\n"
        "3;2,3,4,40;5;120;26;67/26;0;false;RationalHomologySphere(M3);Obstructed;2;6;\n"
        "4;2,3,4,52;5;156;32;11/4;0;false;RationalHomologySphere(M3);Obstructed;2;6;\n"
        "5;2,3,4,64;5;192;38;109/38;0;false;RationalHomologySphere(M3);Obstructed;2;6;\n"
    )
    lines = out.splitlines()
    assert lines[0].startswith("k;exponents;")
    assert [line.split(";")[5] for line in lines[1:]] == [
        "1/2", "25/14", "23/10", "67/26", "11/4", "109/38",
    ]
    assert len(lines) == 7


def test_sweep_text(capsys):
    _, out, _ = run_cli(capsys, "sweep", "2,3,3,3+6k", "0..2")
    lines = out.splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("k=0: L(2,3,3,3)")
    assert "chi_m=3/6" not in out  # fractions are reduced
    assert "chi_m=1/2" in lines[0]


def test_enumerate_stdout_csv(capsys):
    code, out, _ = run_cli(capsys, "enumerate", "--dim", "5", "--max-exponent", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 6  # header + 5 records
    assert lines[1].split(";")[0] == "2,2,2,2"


def test_enumerate_jsonl_bytes_pin(capsys):
    # the 495 dim-5 records, pinned byte for byte: every invariant a census
    # record carries (strata sums, moduli counts, classifiers) shows here
    code, out, _ = run_cli(
        capsys, "enumerate", "--dim", "5", "--max-exponent", "10",
        "--format", "jsonl",
    )
    assert code == 0
    assert len(out.splitlines()) == 495
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "c9a64b37511146763609454e9e34fbca09270cddb2beb5c053e2f0ebc913811e"
    )


def test_collide_stdout_pin(capsys):
    # the 63 chi_m collisions among the 495 dim-5 records, pinned byte for
    # byte: the grouping, their order and the degree-0 rank clusters
    code, out, _ = run_cli(
        capsys, "collide", "--dim", "5", "--max-exponent", "10",
    )
    assert code == 0
    assert sum(line.startswith("chi_m = ") for line in out.splitlines()) == 63
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "6127d288bebe45709d38679a2a85cb5bc74159d8408e14f07a6648ad601abf39"
    )


def test_collide_json_lines(capsys):
    # one JSON object a line, one line for each chi_m group of the text
    census = ("collide", "--dim", "5", "--max-exponent", "22")
    code, out, _ = run_cli(capsys, *census, "--json")
    assert code == 0
    lines = out.splitlines()
    assert len([json.loads(line) for line in lines]) == 1017
    _, text, _ = run_cli(capsys, *census)
    assert sum(line.startswith("chi_m = ")
               for line in text.splitlines()) == len(lines)
    assert [line for line in lines if '"77/10"' in line] == [
        '{"chi_m": "77/10", "members": [[2, 3, 7, 22], [3, 3, 4, 7]], '
        '"clusters": [{"ranks": [6], "members": [[2, 3, 7, 22]]}, '
        '{"ranks": [7], "members": [[3, 3, 4, 7]]}]}'
    ]


@pytest.mark.parametrize("argv, sha256", [
    (("se-check", "2,3,11,11", "--json"),
     "bd8267023aab5892534667473a80f13ab5f1d3908486a44cbdc0fc73c37f4783"),
    (("sweep", "2,3,4,4+12k", "0..5", "--json"),
     "cb1ceadd2ed181e3542dad9e55d53cbf8ed3a5c835fb07f77887b980ded05d94"),
    (("analyze", "2,2,2,3,5", "--sig7", "--sh0", "--json"),
     "79fecc871cd6a65a485c34306d0bd03923696febc499e7a9c2908c433e25e80c"),
])
def test_json_stdout_pins(capsys, argv, sha256):
    # the JSON objects of a report, a sweep and a dim-7 record with both
    # extras, byte for byte
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def test_enumerate_out_file(tmp_path, capsys):
    path = tmp_path / "census.jsonl"
    code, out, _ = run_cli(
        capsys, "enumerate", "--dim", "5", "--max-exponent", "3",
        "--out", str(path),
    )
    assert code == 0
    assert out == ""  # payload went to the file
    recs = import_records(path)
    assert [r.exponents for r in recs] == [
        (2, 2, 2, 2), (2, 2, 2, 3), (2, 2, 3, 3), (2, 3, 3, 3), (3, 3, 3, 3),
    ]


@pytest.mark.parametrize("argv", [
    ("--dim", "4", "--max-exponent", "5"),
    ("--dim", "5", "--max-exponent", "1"),
])
def test_enumerate_checks_its_arguments_before_any_output(tmp_path, capsys,
                                                          argv):
    path = tmp_path / "census.csv"
    assert run_cli(capsys, "enumerate", *argv, "--out", str(path))[:2] == (2, "")
    assert run_cli(capsys, "enumerate", *argv)[:2] == (2, "")
    assert list(tmp_path.iterdir()) == []


def test_enumerate_that_fails_partway(tmp_path, capsys, monkeypatch):
    # records are built and written in batches of 32: stdout keeps all 39
    # rows built before the failure, while --out replaces its file only
    # once the census is done
    from brieskorn import BudgetExceeded, enumerate_links, tables

    built = enumerate_links(5, 6)[:39]
    count = tables.moduli_dimension

    def count_or_fail(link):
        if link.exponents == (3, 3, 4, 4):  # the 40th vector
            raise BudgetExceeded(f"no budget for {link.exponents}")
        return count(link)

    monkeypatch.setattr(tables, "moduli_dimension", count_or_fail)
    census = ("enumerate", "--dim", "5", "--max-exponent", "6")
    code, out, err = run_cli(capsys, *census, "--format", "jsonl")
    assert code == 3 and "budget exceeded" in err
    assert [json.loads(line)["exponents"] for line in out.splitlines()] == [
        list(rec.exponents) for rec in built
    ]
    path = tmp_path / "census.jsonl"
    path.write_text("an earlier census\n")
    assert run_cli(capsys, *census, "--out", str(path))[:2] == (3, "")
    assert path.read_text() == "an earlier census\n"
    assert list(tmp_path.iterdir()) == [path]


def test_sweep_that_fails_partway(capsys, monkeypatch):
    # a sweep is built and printed in batches of 32 as it goes: stdout keeps
    # the 39 rows before the instance that fails
    from brieskorn import BudgetExceeded, tables

    count = tables.moduli_dimension

    def count_or_fail(link):
        if link.exponents == (2, 3, 4, 4 + 12 * 39):  # k = 39, the 40th
            raise BudgetExceeded(f"no budget for {link.exponents}")
        return count(link)

    monkeypatch.setattr(tables, "moduli_dimension", count_or_fail)
    code, out, err = run_cli(capsys, "sweep", "2,3,4,4+12k", "0..45")
    assert code == 3 and "budget exceeded" in err
    assert [line.split(":")[0] for line in out.splitlines()] == [
        f"k={k}" for k in range(39)
    ]


def test_enumerate_out_file_has_the_mode_open_gives(tmp_path, capsys):
    plain = tmp_path / "plain.csv"
    plain.write_text("")
    path = tmp_path / "census.csv"
    run_cli(capsys, "enumerate", "--dim", "5", "--max-exponent", "3",
            "--out", str(path))
    assert path.stat().st_mode == plain.stat().st_mode


def _held_bytes(argv):
    """The most memory traced while ``main(argv)`` ran, above what is still
    allocated when it returns, so the interpreter's free lists, which keep
    what a run freed and grow with the objects it churned, do not count."""
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert main(argv) == 0
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - current


def test_enumerate_memory_does_not_grow_with_the_census(tmp_path):
    # 210 and 1001 records; a census held whole until written read ~180
    # and ~780 KB here
    def held(bound):
        return _held_bytes(["enumerate", "--dim", "5", "--max-exponent",
                            str(bound), "--out", str(tmp_path / "c.jsonl")])

    assert held(12) < held(8) + 64 * 1024


def test_collide_memory_per_record(tmp_path):
    # collide keeps one (canonical, chi_m) pair per record: ~200 bytes each
    # on these 1001 records, against ~900 when it kept every record whole
    path = tmp_path / "c12.jsonl"
    assert main(["enumerate", "--dim", "5", "--max-exponent", "12",
                 "--out", str(path)]) == 0
    assert _held_bytes(["collide", "--in", str(path)]) < 300 * 1001


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_enumerate_stdout_equals_export_file(tmp_path, capsys, fmt):
    # stdout and export_records share one record writer
    from brieskorn import enumerate_links, export_records

    _, out, _ = run_cli(
        capsys, "enumerate", "--dim", "5", "--max-exponent", "6",
        "--format", fmt,
    )
    path = tmp_path / f"census.{fmt}"
    export_records(enumerate_links(5, 6), path, fmt)
    assert out.encode() == path.read_bytes()


def test_analyze_stdout_does_not_depend_on_the_cache(tmp_path, capsys,
                                                     monkeypatch):
    # box 2*3*5*7*4763 > 1e6, so a plain call skips the signature; a cached
    # --sig7 or --sh0 record must not leak its extras into a plain call
    v = "2,3,5,7,4763"
    monkeypatch.delenv("BRIESKORN_CACHE_DIR", raising=False)
    plain = [run_cli(capsys, "analyze", v, *flags)[1]
             for flags in [("--json",), ()]]
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    assert run_cli(capsys, "analyze", v, "--sig7", "--sh0")[0] == 0
    assert [run_cli(capsys, "analyze", v, *flags)[1]
            for flags in [("--json",), ()]] == plain
    assert json.loads(plain[0])["sig7"] is None


def test_analyze_keeps_one_signature_file_per_canonical_vector(
        tmp_path, capsys, monkeypatch):
    # only a five-exponent signature reaches the cache, one file per sorted
    # vector, whatever the order and extras of the call
    cache = tmp_path / "cache"
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(cache))
    for argv in [("2,3,7,22", "--sh0"), ("2,3,5,7,4763",)]:
        assert run_cli(capsys, "analyze", *argv)[0] == 0
    assert not cache.exists()
    for argv in [("5,2,2,3,2", "--sig7"), ("2,2,2,3,5", "--sig7", "--sh0")]:
        assert run_cli(capsys, "analyze", *argv)[0] == 0
    assert [p.relative_to(cache) for p in cache.rglob("*") if p.is_file()] == [
        Path(f"v{__version__}", "2-2-2-3-5.json")
    ]


def test_analyze_rechecks_a_tampered_cache_file(tmp_path, capsys,
                                                monkeypatch):
    # a stored signature that breaks Brieskorn's count (here its parity) is
    # a miss: the signature is counted again, printed and rewritten
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    code, out, _ = run_cli(capsys, "analyze", "2,2,2,3,5", "--sig7", "--json")
    assert (code, json.loads(out)["sig7"]) == (0, 8)
    [path] = (tmp_path / "cache").rglob("2-2-2-3-5.json")
    assert path.read_text() == "8"
    path.write_text("9")
    code, again, _ = run_cli(capsys, "analyze", "2,2,2,3,5", "--sig7", "--json")
    assert (code, again) == (0, out)
    assert path.read_text() == "8"


@pytest.mark.parametrize("garbage", [b"1/0", b"abc", b"\xff"])
def test_analyze_rebuilds_a_cache_file_with_a_malformed_fraction(
        tmp_path, capsys, monkeypatch, garbage):
    # a signature file holding no JSON integer, here a fraction, a word or
    # a byte that is not UTF-8, is a miss and is rewritten
    monkeypatch.setenv("BRIESKORN_CACHE_DIR", str(tmp_path / "cache"))
    code, out, _ = run_cli(capsys, "analyze", "2,2,2,3,5", "--sig7", "--json")
    [path] = (tmp_path / "cache").rglob("2-2-2-3-5.json")
    stored = path.read_bytes()
    path.write_bytes(garbage)
    assert run_cli(capsys, "analyze", "2,2,2,3,5", "--sig7",
                   "--json")[:2] == (0, out)
    assert path.read_bytes() == stored


@pytest.mark.parametrize("fmt, chi_m", [
    ("jsonl", "1/0"), ("csv", "abc"), ("csv", "1/0"),
])
def test_collide_rejects_a_malformed_fraction(tmp_path, capsys, fmt, chi_m):
    from brieskorn import export_records

    path = tmp_path / f"in.{fmt}"
    export_records([build_record((2, 3, 7, 22))], path)
    path.write_text(path.read_text().replace("77/10", chi_m))
    code, out, err = run_cli(capsys, "collide", "--in", str(path))
    assert (code, out) == (2, "")
    assert "brieskorn: error:" in err


@pytest.mark.parametrize("field, value", [
    ("mu_P", "77"), ("mu_P", 77.0), ("exponents", [2, "3", 7, 22]),
    ("sig7", "8"), ("degree", 30.5), ("homotopy_sphere", "no"),
    ("middle_rank", True), ("exponents", [1, 0]), ("exponents", []),
])
def test_collide_rejects_a_field_of_the_wrong_type(tmp_path, capsys, field,
                                                   value):
    from brieskorn.tables import record_to_json_dict

    d = {**record_to_json_dict(build_record((2, 3, 7, 22))), field: value}
    path = tmp_path / "in.jsonl"
    path.write_text(json.dumps(d) + "\n")
    code, out, _ = run_cli(capsys, "collide", "--in", str(path),
                           "--filter", "positive")
    assert (code, out) == (2, "")


@pytest.mark.parametrize("part, field, value, message", [
    (None, None, None, "line 3: missing field 'dim'"),
    ("se", "positivity", 1, "line 3: se.positivity cannot be 1"),
    ("moduli", "kuranishi_dim", None,
     "line 3: missing field 'moduli.kuranishi_dim'"),
    ("", "chi_m", "1/0", "line 3: chi_m cannot be '1/0'"),
    ("", "exponents", [1, 0], "line 3: exponents cannot be [1, 0]"),
    ("", "exponents", [2, 3], "line 3: exponents cannot be [2, 3]"),
    ("se", "verdict", "Maybe", "line 3: se.verdict cannot be 'Maybe'"),
    ("se", "coprime_iff", "yes", "line 3: se.coprime_iff cannot be 'yes'"),
    ("dim5_type", "kind", "Torus", "line 3: dim5_type.kind cannot be 'Torus'"),
    ("", "degree", 49, "line 3: degree disagrees with exponents [2, 3, 4, 16]"),
    ("", "recip_sum", "56/48",
     "line 3: recip_sum disagrees with exponents [2, 3, 4, 16]"),
    ("", "exponents", [2, 3, 4, 17],
     "line 3: degree disagrees with exponents [2, 3, 4, 17]"),
])
def test_collide_names_the_line_and_field_of_a_bad_record(
        tmp_path, capsys, part, field, value, message):
    from brieskorn.tables import record_to_json_dict

    good = [record_to_json_dict(build_record(v))
            for v in [(2, 3, 7, 22), (3, 3, 4, 7)]]
    if part is None:
        bad = {"exponents": [1]}
    else:
        bad = record_to_json_dict(build_record((2, 3, 4, 16)))
        obj = bad[part] if part else bad
        if value is None:
            del obj[field]
        else:
            obj[field] = value
    path = tmp_path / "in.jsonl"
    path.write_text("".join(json.dumps(d) + "\n" for d in [*good, bad]))
    code, out, err = run_cli(capsys, "collide", "--in", str(path))
    assert (code, out) == (2, "")
    assert f"brieskorn: error: {message}\n" in err


@pytest.mark.parametrize("edit, message", [
    (lambda row: row + ";x", "line 6: row has 13 cells, expected 12"),
    (lambda row: "1,0" + row[7:], "line 6: exponents cannot be [1, 0]"),
    (lambda row: "2,3" + row[7:], "line 6: exponents cannot be [2, 3]"),
    (lambda row: row.replace("3/2", "1/2"),
     "line 6: column 'chi_m' of '2,2,3,3': stored '1/2' disagrees with "
     "recomputed '3/2'"),
])
def test_collide_names_the_line_of_a_bad_csv_row(tmp_path, capsys, edit,
                                                 message):
    path = tmp_path / "in.csv"
    run_cli(capsys, "enumerate", "--dim", "5", "--max-exponent", "5",
            "--out", str(path))
    lines = path.read_text().splitlines(keepends=True)
    assert lines[5].startswith("2,2,3,3;")
    lines[5] = edit(lines[5].rstrip("\n")) + "\n"
    path.write_text("".join(lines))
    code, out, err = run_cli(capsys, "collide", "--in", str(path))
    assert (code, out) == (2, "")
    assert f"brieskorn: error: {message}\n" in err


@pytest.mark.parametrize("fmt, tail, message", [
    ("jsonl", b"\xff\n", "line 3: byte 0xff is not UTF-8"),
    ("csv", b"2,3,4,16\xff;\n", "line 4: byte 0xff is not UTF-8"),
    ("jsonl", b"[" * 100_000 + b"\n", "line 3: invalid JSON ("),
    ("csv", b"x" * 200_000 + b"\n",
     "line 4: field larger than field limit (131072)"),
], ids=["jsonl-not-utf8", "csv-not-utf8", "jsonl-too-deep",
        "csv-huge-cell"])
def test_collide_names_the_line_of_malformed_bytes(tmp_path, capsys, fmt,
                                                   tail, message):
    from brieskorn import export_records

    path = tmp_path / f"in.{fmt}"
    export_records([build_record(v) for v in [(2, 3, 7, 22), (3, 3, 4, 7)]],
                   path)
    path.write_bytes(path.read_bytes() + tail)
    code, out, err = run_cli(capsys, "collide", "--in", str(path))
    assert (code, out) == (2, "")
    assert f"brieskorn: error: {message}" in err


def test_enumerate_out_names_the_path_given(tmp_path, capsys):
    path = tmp_path / "no" / "such" / "census.jsonl"
    code, out, err = run_cli(capsys, "enumerate", "--dim", "5",
                             "--max-exponent", "3", "--out", str(path))
    assert (code, out) == (1, "")
    assert f"No such file or directory: '{path}'" in err
    assert ".tmp" not in err


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_collide_filters_imported_records(tmp_path, capsys, fmt):
    from brieskorn import enumerate_links, export_records

    path = tmp_path / f"c10.{fmt}"
    export_records(enumerate_links(5, 10), path)
    census = ("--dim", "5", "--max-exponent", "10")
    for name in ["homotopy_sphere", "positive"]:
        code, out, _ = run_cli(capsys, "collide", *census, "--filter", name)
        assert code == 0
        assert run_cli(capsys, "collide", "--in", str(path),
                       "--filter", name)[:2] == (0, out)
        if name == "homotopy_sphere":
            assert sum(line.startswith("chi_m = ")
                       for line in out.splitlines()) == 11


def test_collide_refuses_an_empty_window(capsys):
    for bound in ("3", "4"):
        code, out, _ = run_cli(capsys, "collide", "--dim", "5",
                               "--max-exponent", bound, "--window", "3", "1")
        assert (code, out) == (2, "")


def test_collide_from_file(tmp_path, capsys):
    from brieskorn import export_records

    records = [build_record(v) for v in [(2, 3, 7, 22), (3, 3, 4, 7)]]
    path = tmp_path / "in.jsonl"
    export_records(records, path)
    code, out, _ = run_cli(capsys, "collide", "--in", str(path))
    assert code == 0
    assert out.splitlines()[0] == "chi_m = 77/10  [2 links]"
    assert "L(2,3,7,22)" in out and "L(3,3,4,7)" in out


def test_collide_no_collisions(tmp_path, capsys):
    from brieskorn import export_records

    path = tmp_path / "in.jsonl"
    export_records([build_record((2, 3, 4, 16))], path)
    _, out, _ = run_cli(capsys, "collide", "--in", str(path))
    assert out == "no collisions\n"


# 2, 4, ..., 2^18, 2^18: mu_P = 0, and 19 exponents
_ZERO_MU_P_19 = ",".join(str(2**i) for i in [*range(1, 19), 18])


def test_exit_code_validation(capsys):
    assert run_cli(capsys, "mec", "2,x,4")[0] == 2
    assert run_cli(capsys, "mec", "2,4,6,12")[0] == 2
    # mu_P = 0 is refused before the 2^19 index subsets are refused
    assert run_cli(capsys, "mec", _ZERO_MU_P_19)[0] == 2
    # the invalid first instance is caught before any row or CSV header
    for fmt in ((), ("--csv",)):
        code, out, _ = run_cli(capsys, "sweep", "2,3,5,1+30k", "0..5", *fmt)
        assert (code, out) == (2, "")


def test_exit_code_budget(capsys):
    # one axis of 62499998 points is a walked half over the lattice kernel's
    # bound: refused before the walk, not after it
    start = time.perf_counter()
    code, _, err = run_cli(capsys, "analyze", "2,2,2,2,62499999", "--sig7")
    assert time.perf_counter() - start < 2
    assert code == 3
    assert "budget" in err


def test_exit_code_budget_oversize_moduli_count():
    # d is about 1e13: the moduli half-boxes would need millions of partial
    # sums, so the lattice kernel refuses before allocating anything
    proc = subprocess.run(
        [sys.executable, "-m", "brieskorn.cli", "analyze", "2,3,7,43,1807,3263443"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_exit_code_budget_oversize_first_page():
    # mu_P = -2 against d ~ 1e13: degree 0 meets ~1e13 candidate periods,
    # so the windowed page refuses before walking any
    proc = subprocess.run(
        [sys.executable, "-m", "brieskorn.cli", "sh-ranks", "2,3,7,43,1807,3263443",
         "0", "0"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert "budget" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv", [
    ("mec", ",".join(["2"] * 26)),
    ("analyze", ",".join(["3"] * 24)),
    # the page walks its strata before it checks mu_P
    ("sh-ranks", _ZERO_MU_P_19, "0", "0"),
])
def test_exit_code_budget_too_many_index_subsets(capsys, argv):
    # 2^26, 2^24 and 2^19 index subsets: the subset lattice refuses before
    # allocating its lists, instead of a MemoryError or a minutes-long walk
    start = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 3
    assert out == ""
    assert "budget" in err and "Traceback" not in err


def test_exit_code_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["sh-ranks", "2,3,7,22"])  # missing window bounds
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["collide"])  # needs --in or --dim/--max-exponent
    assert exc.value.code == 1
    for census in (["--dim", "5"], ["--max-exponent", "6"]):
        with pytest.raises(SystemExit) as exc:  # --in and a census
            main(["collide", "--in", "records.jsonl", *census])
        assert exc.value.code == 1


def test_stdout_is_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "analyze", "2,3,4,16", "--json")
    _, out2, _ = run_cli(capsys, "analyze", "2,3,4,16", "--json")
    assert out1 == out2
    _, out1, _ = run_cli(capsys, "enumerate", "--dim", "5", "--max-exponent", "4")
    _, out2, _ = run_cli(capsys, "enumerate", "--dim", "5", "--max-exponent", "4",
                         "--jobs", "2")
    assert out1 == out2


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "brieskorn.cli", "mec", "2,2,3,3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "3/2\n"
    assert proc.stderr.startswith("brieskorn ")
    proc = subprocess.run(
        [sys.executable, "-m", "brieskorn.cli", "mec", "junk"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 2


def test_a_reader_that_closes_stdout_early_is_no_error():
    # `enumerate ... | head -n 2`: the closed pipe ends the run quietly,
    # exit 0, with nothing on stderr but the banner and no traceback at exit
    proc = subprocess.Popen(
        [sys.executable, "-m", "brieskorn.cli", "enumerate", "--dim", "5",
         "--max-exponent", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    lines = [proc.stdout.readline() for _ in range(2)]
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 0
    assert lines[0].startswith("exponents;")
    assert lines[1].startswith("2,2,2,2;")
    assert err == f"brieskorn {__version__}\n"


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_an_out_fifo_whose_reader_closes_is_an_io_error(tmp_path):
    fifo = tmp_path / "census.jsonl"
    os.mkfifo(fifo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "brieskorn.cli", "enumerate", "--dim", "5",
         "--max-exponent", "30", "--out", str(fifo)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    with open(fifo, "rb") as fh:
        assert fh.read(100)
    out, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert out == ""
    assert "brieskorn: i/o error: [Errno 32] Broken pipe" in err
