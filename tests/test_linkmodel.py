"""Exponent vectors, strata, and period spectra."""

import math
import random
import time
from itertools import combinations, combinations_with_replacement

import pytest

from brieskorn import linkmodel
from brieskorn import (
    BudgetExceeded,
    DimensionTooLow,
    InvalidExponent,
    Stratum,
    canonical_exponents,
    index_set,
    make_link,
    middle_betti,
    parse_exponents,
    period_spectrum,
    strata,
    sylvester_links,
    sylvester_sequence,
)


def strata_by_closure(link):
    """Reference strata: close every index subset of size >= 2 under
    T = lcm(a_S), S -> I_T, and keep one stratum per period.  Its period
    count scans the periods T <= d (only multiples of its minimal period
    can have I_T = S), and its middle rank is middle_betti's."""
    a = link.exponents
    found = {}
    for size in range(2, len(a) + 1):
        for subset in combinations(range(len(a)), size):
            t = math.lcm(*(a[j] for j in subset))
            if t not in found:
                idx = index_set(link, t)
                sub = tuple(a[j] for j in sorted(idx))
                found[t] = Stratum(
                    index_set=idx,
                    exponents=sub,
                    min_period=t,
                    dim=2 * len(idx) - 3,
                    period_count=sum(
                        index_set(link, m) == idx
                        for m in range(t, link.degree + 1, t)
                    ),
                    middle_rank=middle_betti(sub),
                )
    return tuple(sorted(found.values(), key=lambda s: s.min_period))


def test_parse_exponents():
    assert parse_exponents("2,3,4,16") == (2, 3, 4, 16)
    assert parse_exponents(" 2, 3 ,4 ") == (2, 3, 4)


@pytest.mark.parametrize("text", [
    "", ",,", "2,x,4", "2,3.5",
    # an empty cell, an underscore and a non-ASCII digit are not typed
    # integers, although int() reads the last two
    "2,,3,4", "2,3,4,", "2,3,4_0", "\u0663,2,4",
])
def test_parse_exponents_rejects(text):
    # parsing is lexical only; value/length checks live in make_link
    with pytest.raises(InvalidExponent):
        parse_exponents(text)


@pytest.mark.parametrize("vec", [(2,), (2, 3, 1), (2, -3, 4)])
def test_make_link_rejects_parsed_but_invalid(vec):
    assert parse_exponents(",".join(str(a) for a in vec)) == vec
    with pytest.raises(InvalidExponent):
        make_link(vec)


def test_make_link_profile():
    link = make_link((2, 3, 4, 16))
    assert link.degree == 48
    assert link.weights == (24, 16, 12, 3)
    assert link.link_dim == 5
    assert link.recip_sum * 48 == 55
    # gcd graph: edges exactly between non-coprime exponent positions
    assert set(link.gcd_graph) == {(0, 2), (0, 3), (2, 3)}


def test_make_link_validates():
    with pytest.raises(InvalidExponent):
        make_link((2,))
    with pytest.raises(InvalidExponent):
        make_link((2, 1, 3))
    with pytest.raises(InvalidExponent):
        make_link((2.0, 3, 4))


def test_canonical_exponents_sorts_only():
    assert canonical_exponents((16, 3, 2, 4)) == (2, 3, 4, 16)
    # user order is preserved on the profile itself
    assert make_link((16, 3, 2, 4)).exponents == (16, 3, 2, 4)
    assert make_link((16, 3, 2, 4)).canonical == (2, 3, 4, 16)


def test_index_set():
    link = make_link((2, 3, 4, 16))
    assert index_set(link, 6) == frozenset({0, 1})
    assert index_set(link, 16) == frozenset({0, 2, 3})
    assert index_set(link, 48) == frozenset({0, 1, 2, 3})
    assert index_set(link, 5) == frozenset()


def test_strata_of_worked_example():
    link = make_link((2, 3, 4, 16))
    by_period = {s.min_period: s for s in strata(link)}
    assert set(by_period) == {4, 6, 12, 16, 48}
    assert by_period[4].exponents == (2, 4)
    assert by_period[6].exponents == (2, 3)
    assert by_period[12].exponents == (2, 3, 4)
    assert by_period[16].exponents == (2, 4, 16)
    assert by_period[48].exponents == (2, 3, 4, 16)
    assert by_period[4].dim == 1
    assert by_period[12].dim == 3
    assert by_period[48].dim == 5


def test_strata_periods_are_distinct():
    # I_T is a function of T, so two strata can never share a period
    for v in [(2, 3, 4, 16), (2, 2, 3, 3), (2, 7, 7, 7), (2, 2, 2, 3, 5),
              (6, 10, 15), (2, 4, 6, 14, 86, 5)]:
        periods = [s.min_period for s in strata(make_link(v))]
        assert len(periods) == len(set(periods)), v


def test_strata_index_sets_are_closed():
    # each stratum's index set equals I at its own minimal period
    link = make_link((2, 2, 3, 8))
    for s in strata(link):
        assert s.index_set == index_set(link, s.min_period)
        assert s.min_period == math.lcm(*(link.exponents[j] for j in s.index_set))


def test_strata_match_the_closure_reference():
    # every multiset of 3-4 exponents in 2..12, and seeded 5-6-exponent
    # vectors in 2..40 in shuffled order, repeats included (the lattice is
    # taken over positions, so equal exponents must not merge strata)
    vectors = [
        v for k in (3, 4)
        for v in combinations_with_replacement(range(2, 13), k)
    ]
    rng = random.Random(5)
    for _ in range(300):
        v = [rng.choice((2, 3, 4, 6, 8, 9, 12, 15, 40))
             for _ in range(rng.randint(4, 5))]
        v += [rng.randint(2, 40)]
        rng.shuffle(v)
        vectors.append(tuple(v))
    # 7 and 8 exponents walk a kept lattice shape, 9 a transient one
    vectors += [
        (2, 3, 4, 6, 8, 9, 12), (3, 2, 6, 2, 4, 5, 10),
        (2, 2, 3, 4, 6, 6, 8, 12),
        (2, 3, 4, 6, 8, 9, 12, 2, 3), (6, 2, 2, 3, 4, 5, 10, 3, 15),
    ]
    for v in vectors:
        link = make_link(v)
        assert strata(link) == strata_by_closure(link), v


def test_lattice_shapes_are_kept_for_small_arities_only():
    strata(make_link((2, 3, 4, 6, 8, 9, 12)))
    assert 7 in linkmodel._LATTICE_SHAPES
    strata(make_link((2, 3, 4, 6, 8, 9, 12, 2, 3)))
    assert 9 not in linkmodel._LATTICE_SHAPES
    assert max(linkmodel._LATTICE_SHAPES) <= 8


def test_strata_and_spectrum_accept_an_exponent_vector():
    link = make_link((2, 3, 4, 16))
    assert strata((2, 3, 4, 16)) == strata(link)
    assert period_spectrum((2, 3, 4, 16)) == period_spectrum(link)


def test_strata_need_three_exponents():
    with pytest.raises(DimensionTooLow):
        strata(make_link((2, 3)))


def test_period_spectrum_worked_example():
    link = make_link((2, 3, 4, 16))
    spec = period_spectrum(link)
    assert spec.principal_period == 48
    labels = {}
    for t, stratum in spec.entries:
        labels.setdefault(stratum.exponents, []).append(t)
    # phi counts from the worked example: 6, 4, 3, 2, 1
    assert len(labels[(2, 4)]) == 6
    assert len(labels[(2, 3)]) == 4
    assert len(labels[(2, 3, 4)]) == 3
    assert len(labels[(2, 4, 16)]) == 2
    assert labels[(2, 3, 4, 16)] == [48]
    # spot labels
    assert labels[(2, 3, 4)] == [12, 24, 36]
    assert labels[(2, 4, 16)] == [16, 32]
    # entries are sorted by period and unique
    periods = [t for t, _ in spec.entries]
    assert periods == sorted(periods)
    assert len(periods) == len(set(periods))


def test_period_spectrum_labels_match_index_sets():
    for v in [(2, 3, 4, 16), (3, 3, 4, 7), (2, 2, 2, 4)]:
        link = make_link(v)
        for t, stratum in period_spectrum(link).entries:
            assert stratum.index_set == index_set(link, t), (v, t)


def test_period_spectrum_refuses_oversize_spectrum():
    # 16.0M candidate periods: refused before any of the ~1.3 GB of
    # entries is built
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        period_spectrum(make_link((2, 2, 2, 3, 4000001)))
    assert time.monotonic() - t0 < 1


def test_sylvester_sequence():
    assert sylvester_sequence(5) == (2, 3, 7, 43, 1807)
    c = sylvester_sequence(6)
    for i in range(len(c)):
        for j in range(i + 1, len(c)):
            assert math.gcd(c[i], c[j]) == 1


def test_sylvester_links():
    assert sylvester_links(0, 3) == [(2, 4, 3)]
    assert sylvester_links(1, 12) == [(2, 4, 6, 5), (2, 4, 6, 7), (2, 4, 6, 11)]
    # admissibility is coprimality to the c_i only (here: odd, prime to 3);
    # positivity of the principal index is a separate question per tail
    assert len(sylvester_links(1, 100)) == 32
    assert all(a % 2 and a % 3 for (_, _, _, a) in sylvester_links(1, 100))
    nine = sylvester_links(3, 40)
    assert all(v[:5] == (2, 4, 6, 14, 86) for v in nine)
    assert [v[5] for v in nine] == [5, 11, 13, 17, 19, 23, 25, 29, 31, 37]
