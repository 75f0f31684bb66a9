"""Acceptance gate: ten headline guarantees, one test per criterion.

Run with ``pytest -v tests/test_acceptance.py`` to get a per-criterion
pass/fail checklist.  Every assertion is exact (integers and fractions,
no floating-point tolerances) and each criterion carries a wall-clock
ceiling so the gate also guards against performance regressions.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from brieskorn import (
    chi_s1,
    enumerate_links,
    family_sweep,
    make_link,
    maslov_index,
    mean_euler,
    mean_euler_from_ranks,
    middle_betti,
    moduli_dimension,
    parse_sweep_spec,
    period_spectrum,
    principal_index,
    se_status,
    sh_plus_ranks,
    sylvester_links,
)
from oracles import count_weighted_monomials, phi, sylvester_numerator

# (family spec, k range, chi_m numerator b + c*k, denominator b + c*k)
# The denominator always equals the principal index mu_P of the instance.
FAMILY_CLOSED_FORMS = [
    ("2,3,5,1+30k", "1..25", (31, 270), (62, 60)),  # homotopy S^5
    ("2,3,3,3+6k", "0..25", (3, 10), (6, 4)),       # M_2
    ("2,3,4,4+12k", "0..25", (4, 21), (8, 6)),      # M_3, first residue
    ("2,3,4,8+12k", "0..25", (11, 21), (10, 6)),    # M_3, second residue
    ("2,3,5,6+30k", "0..25", (6, 45), (12, 10)),    # M_5
    ("2,3,5,12+30k", "0..25", (15, 45), (14, 10)),  # M_5
    ("2,3,5,18+30k", "0..25", (24, 45), (16, 10)),  # M_5
    ("2,3,5,24+30k", "0..25", (33, 45), (18, 10)),  # M_5
    ("2,3,5,10+30k", "0..25", (4, 27), (8, 6)),     # 2M_3
    ("2,3,5,20+30k", "0..25", (13, 27), (10, 6)),   # 2M_3
    ("2,3,5,15+30k", "0..25", (3, 18), (6, 4)),     # 4M_2
]


def test_criterion_01_eleven_family_closed_forms():
    t0 = time.monotonic()
    rows_checked = 0
    for family, k_range, (nb, nc), (db, dc) in FAMILY_CLOSED_FORMS:
        for k, rec in family_sweep(parse_sweep_spec(family, k_range)):
            assert rec.chi_m == Fraction(nb + nc * k, db + dc * k), (family, k)
            assert rec.mu_P == db + dc * k, (family, k)
            rows_checked += 1
    assert rows_checked == 25 + 10 * 26
    elapsed = time.monotonic() - t0
    print(f"criterion 1: {rows_checked} family rows exact in {elapsed:.2f}s")
    assert elapsed < 10


@pytest.mark.xfail(
    strict=True,
    reason="a transposed-denominator variant (6+8k) of the first M_3 row "
    "circulates; it agrees with the computed value only at k = 1",
)
def test_criterion_01_m3_transposed_denominator_variant():
    for k, rec in family_sweep(parse_sweep_spec("2,3,4,4+12k", "0..25")):
        assert rec.chi_m == Fraction(4 + 21 * k, 6 + 8 * k), k


def test_criterion_02_worked_example_decomposition():
    t0 = time.monotonic()
    link = make_link((2, 3, 4, 16))
    layers = link.strata
    mins = sorted(s.min_period for s in layers)
    decomposition = {}
    for s in layers:
        larger = [m for m in mins if m > s.min_period]
        decomposition[s.exponents] = (
            chi_s1(s.exponents),
            phi(s.min_period, larger, link.degree),
        )
    assert decomposition == {
        (2, 3, 4, 16): (3, 1),
        (2, 3, 4): (2, 3),
        (2, 4, 16): (0, 2),
        (2, 3): (1, 4),
        (2, 4): (2, 6),
    }
    assert principal_index(link) == 14
    # every stratum contributes with sign +1: all shifts are even
    for s in layers:
        assert maslov_index(link, s.min_period).shift % 2 == 0
    total = sum(c * f for c, f in decomposition.values())
    assert mean_euler(link).value == Fraction(total, 14) == Fraction(25, 14)
    elapsed = time.monotonic() - t0
    print(f"criterion 2: chi_m(2,3,4,16) = 25/14 decomposed in {elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_03_k_fold_connected_sum_grid():
    t0 = time.monotonic()
    for p in range(2, 41):
        for q in range(p, 41):
            g = math.gcd(p, q)
            link = make_link((2, 2, p, q))
            assert mean_euler(link).value == Fraction(p * q + g * g, 2 * (p + q))
            assert middle_betti((2, 2, p, q)) == g - 1
    elapsed = time.monotonic() - t0
    print(f"criterion 3: 780 links L(2,2,p,q) exact in {elapsed:.2f}s")
    assert elapsed < 10


def test_criterion_04_degree_zero_rank_distinguishes():
    t0 = time.monotonic()
    first = make_link((2, 3, 7, 22))
    second = make_link((3, 3, 4, 7))
    assert mean_euler(first).value == mean_euler(second).value == Fraction(77, 10)
    narrow_first = sh_plus_ranks(first, 0, 0)
    narrow_second = sh_plus_ranks(second, 0, 0)
    assert narrow_first.ranks[0] == 6
    assert narrow_second.ranks[0] == 7
    assert narrow_first.lacunary and narrow_second.lacunary
    wide_first = sh_plus_ranks(first, -10, 30)
    wide_second = sh_plus_ranks(second, -10, 30)
    assert wide_first.lacunary and wide_second.lacunary
    assert wide_first.ranks[0] == 6 and wide_second.ranks[0] == 7
    elapsed = time.monotonic() - t0
    print(f"criterion 4: SH_0 = 6 vs 7 at equal chi_m = 77/10 in {elapsed:.2f}s")
    assert elapsed < 5


def test_criterion_05_rank_average_identity_on_random_links():
    t0 = time.monotonic()
    rng = random.Random(20260815)
    links = []
    while len(links) < 30:
        length = rng.choice([4, 5])
        vec = tuple(rng.randint(2, 30) for _ in range(length))
        link = make_link(vec)
        if principal_index(link) == 0:
            continue
        links.append(link)
    for link in links:
        assert mean_euler_from_ranks(link).value == mean_euler(link).value, (
            link.exponents
        )
    elapsed = time.monotonic() - t0
    print(f"criterion 5: rank-average identity on 30 links in {elapsed:.2f}s")
    assert elapsed < 60


def test_criterion_06_sasaki_einstein_verdicts():
    t0 = time.monotonic()
    report = se_status(make_link((2, 3, 11, 11)))
    assert report.verdict.value == "Exists" and report.sufficient2

    for k in range(4, 51):
        report = se_status(make_link((2, 2, 2, k)))
        assert report.verdict.value == "Obstructed", k
        assert report.lichnerowicz_obstructed, k

    report = se_status(make_link((2, 2, 2, 3)))
    assert not report.lichnerowicz_obstructed
    assert report.verdict.value == "Unknown"

    report = se_status(make_link((2, 3, 5, 7)))
    assert report.verdict.value == "Exists"
    assert report.coprime_iff.value == "Yes"

    count = 0
    for vec in itertools.combinations_with_replacement(range(2, 31), 4):
        report = se_status(make_link(vec))
        assert not (report.verdict.value == "Exists"
                    and report.lichnerowicz_obstructed), vec
        count += 1
    assert count == 35960
    elapsed = time.monotonic() - t0
    print(f"criterion 6: verdicts consistent on {count} links in {elapsed:.2f}s")
    assert elapsed < 30


def test_criterion_07_moduli_side_by_side():
    t0 = time.monotonic()
    report = moduli_dimension(make_link((2, 3, 11, 11)))
    assert (report.kuranishi_dim, report.perturbation_count) == (8, 10)
    report = moduli_dimension(make_link((2, 3, 5, 7)))
    assert (report.kuranishi_dim, report.perturbation_count) == (0, 0)
    elapsed = time.monotonic() - t0
    print(f"criterion 7: (8, 10) and (0, 0) side by side in {elapsed:.2f}s")
    assert elapsed < 1


def test_criterion_08_sylvester_tails_distinct():
    t0 = time.monotonic()
    links = sylvester_links(3, 200)
    assert len(links) == 56
    assert all(vec[:5] == (2, 4, 6, 14, 86) for vec in links)
    values = [mean_euler(make_link(vec)).value for vec in links]
    assert len(set(values)) == 56

    # the closed form is the machinery's numerator chi_m * |mu_P|, link by link
    for vec, value in zip(links, values):
        mu_p = principal_index(make_link(vec))
        assert sylvester_numerator(3, vec[-1]) == value * abs(mu_p), vec
    a0, a1, a2 = (vec[-1] for vec in links[:3])
    n0, n1, n2 = (sylvester_numerator(3, a) for a in (a0, a1, a2))
    # affine in a across consecutive admissible tails, with positive slope
    assert (n1 - n0) * (a2 - a1) == (n2 - n1) * (a1 - a0)
    assert n1 > n0
    elapsed = time.monotonic() - t0
    print(f"criterion 8: 56 distinct chi_m on dim-9 Sylvester links in {elapsed:.2f}s")
    assert elapsed < 30


def _lattice_middle_rank(vec):
    """Independent oracle: count interior box points with integral angle sum."""
    lcm = math.lcm(*vec)
    rays = [lcm // a for a in vec]
    count = 0
    for point in itertools.product(*(range(1, a) for a in vec)):
        if sum(x * r for x, r in zip(point, rays)) % lcm == 0:
            count += 1
    return count


def _brute_weighted_count(weights, total):
    """Independent oracle: number of monomials of weighted degree ``total``."""

    def recurse(idx, remaining):
        if idx == len(weights):
            return 1 if remaining == 0 else 0
        return sum(
            recurse(idx + 1, remaining - k * weights[idx])
            for k in range(remaining // weights[idx] + 1)
        )

    return recurse(0, total)


def _multisets(lo, hi, size):
    if size == 0:
        yield ()
        return
    for first in range(lo, hi + 1):
        for rest in _multisets(first, hi, size - 1):
            yield (first,) + rest


def test_criterion_09_oracle_suites():
    t0 = time.monotonic()
    # (a) middle Betti number against a raw lattice count, box-budgeted sample
    rng = random.Random(96321)
    checked = 0
    while checked < 12:
        length = rng.randint(2, 6)
        vec = tuple(rng.randint(2, 50) for _ in range(length))
        box = 1
        for a in vec:
            box *= a - 1
        if box > 200_000:
            continue
        assert middle_betti(vec) == _lattice_middle_rank(vec), vec
        checked += 1

    # (b) weighted monomial counts against brute-force enumeration
    for weights in [(33, 22, 6, 6), (6, 4, 3, 3), (1, 1), (5, 7, 11)]:
        for total in range(0, 201, 13):
            assert count_weighted_monomials(weights, total) == (
                _brute_weighted_count(weights, total)
            ), (weights, total)

    # (c) the census enumerator against an independent multiset generator
    records = enumerate_links(5, 12)
    expected = list(_multisets(2, 12, 4))
    assert [rec.exponents for rec in records] == expected
    assert len(records) == 1001

    elapsed = time.monotonic() - t0
    print(f"criterion 9: three oracle suites in {elapsed:.2f}s")
    assert elapsed < 60


CENSUS_DECLARATIONS = """\
criterion 10: published census counts, declared not reproduced here:
  - 353 families with vanishing signature (dim 7 sweep)
  - 983 rational homology spheres / 494 homotopy spheres (dim 9 sweep)
  - 82 families / 76 components in the Sasaki-Einstein moduli census
These are spreadsheet-derived totals whose precise enumeration domains are
not pinned down by any formula this library implements; reproducing them
byte-for-byte is out of scope (see README).  Nothing in the package
computes or pretends to compute them."""


def test_criterion_10_census_declarations():
    print(CENSUS_DECLARATIONS)
    # documentation-only: the declaration exists and names all three counts
    assert "353" in CENSUS_DECLARATIONS
    assert "983" in CENSUS_DECLARATIONS and "494" in CENSUS_DECLARATIONS
    assert "82" in CENSUS_DECLARATIONS and "76" in CENSUS_DECLARATIONS
