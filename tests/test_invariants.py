"""Indices, phi counts, mean Euler characteristics, and graded rank tables."""

import pickle
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from brieskorn import (
    BudgetExceeded,
    DimensionTooLow,
    GradedRanks,
    NotLacunary,
    NotMorseBottCover,
    PageColumn,
    PreconditionFailed,
    ZeroPrincipalIndex,
    chi_s1,
    e1_page,
    index_set,
    make_link,
    maslov_index,
    mean_euler,
    mean_euler_from_ranks,
    page_columns,
    period_spectrum,
    principal_index,
    quotient_betti,
    sh_plus_ranks,
)
from oracles import phi


def phi_by_scan(period, exclusions, principal_period):
    """Reference phi: walk every multiple of the period up to the principal
    one and drop those absorbed by a strictly larger stratum."""
    if period == principal_period:
        return 1
    return sum(
        1
        for t in range(period, principal_period + 1, period)
        if not any(t % e == 0 for e in exclusions)
    )


def e1_page_by_blocks(link, k_lo, k_hi):
    """Reference first page and its columns: index every period of the
    first action block, then translate the block by (d, mu_P) until the
    window is passed."""
    a = link.exponents
    mu_p = principal_index(link)
    betti = {s: quotient_betti(s.exponents).ranks for s in link.strata}
    entries = []
    for t, s in period_spectrum(link).entries:
        assert index_set(link, t) == s.index_set
        outside = [aj for j, aj in enumerate(a) if j not in s.index_set]
        mu = (
            2 * sum(t // a[j] for j in s.index_set)
            + sum(2 * (t // aj) + 1 for aj in outside)
            - 2 * t
        )
        shift = mu - (s.dim - 1) // 2
        entries.append((t, s, shift, betti[s]))
    lo_m, hi_m = k_lo - 1, k_hi + 1
    if mu_p > 0:
        blocks = max(0, (hi_m - min(e[2] for e in entries)) // mu_p) + 1
    else:
        top = max(e[2] + len(e[3]) - 1 for e in entries)
        blocks = max(0, (lo_m - top) // mu_p) + 1
    ranks = {k: 0 for k in range(k_lo, k_hi + 1)}
    columns = []
    occupied = []
    for m in range(blocks):
        for i, (t, s, shift, betti) in enumerate(entries):
            shift += m * mu_p
            if shift > hi_m or shift + len(betti) - 1 < lo_m:
                continue
            ordinal = m * len(entries) + i + 1
            for l, b in enumerate(betti):
                if b and lo_m <= shift + l <= hi_m:
                    occupied.append((ordinal, shift + l))
                if k_lo <= shift + l <= k_hi:
                    ranks[shift + l] += b
            period = t + m * link.degree
            columns.append(PageColumn(
                period=period, cover=period // s.min_period,
                exponents=s.exponents, shift=shift, ranks=betti,
            ))
    first, last = {}, {}
    for ordinal, k in occupied:
        first[k] = min(first.get(k, ordinal), ordinal)
        last[k] = max(last.get(k, ordinal), ordinal)
    lacunary = all(first.get(k - 1, o) >= o for k, o in last.items())
    return GradedRanks(
        k_lo=k_lo, k_hi=k_hi, ranks=ranks, period_degree=mu_p,
        period_action=link.degree, lacunary=lacunary, exponents=a,
    ), tuple(columns)


def stratum_exclusions(link):
    """Map each stratum to the minimal periods of its strict superstrata."""
    ss = link.strata
    out = {}
    for s in ss:
        out[s] = tuple(
            t.min_period for t in ss if t.index_set > s.index_set
        )
    return out


# ---------------------------------------------------------------------------
# indices


def test_maslov_index_worked_example():
    link = make_link((2, 3, 4, 16))
    rep = maslov_index(link, 48)
    assert rep.maslov == 14
    assert rep.stratum_dim == 5
    assert rep.shift == 12
    rep6 = maslov_index(link, 6)
    assert rep6.maslov == 2
    assert rep6.stratum_dim == 1
    assert rep6.shift == 2


def test_maslov_index_cover_and_periodicity():
    link = make_link((2, 3, 4, 16))
    mu_p = principal_index(link)
    # period 4 stratum: cover 13 gives T = 52 = 4 + 48, still Morse-Bott
    r1 = maslov_index(link, 4, cover=1)
    r13 = maslov_index(link, 4, cover=13)
    assert r13.shift - r1.shift == mu_p


def test_maslov_index_rejects_non_morse_bott_cover():
    link = make_link((2, 3, 4, 16))
    # T = 12: the outside exponent 4 divides it, so the period-6 stratum
    # does not persist as a Morse-Bott manifold at its double cover
    with pytest.raises(NotMorseBottCover):
        maslov_index(link, 6, cover=2)


def test_maslov_index_rejects_non_stratum_period():
    link = make_link((2, 3, 4, 16))
    with pytest.raises(PreconditionFailed):
        maslov_index(link, 5)
    with pytest.raises(PreconditionFailed):
        maslov_index(link, 24)  # a period, but not a minimal one


def test_principal_index_values():
    assert principal_index(make_link((2, 3, 4, 16))) == 14
    assert principal_index(make_link((2, 2, 2, 2))) == 4
    assert principal_index(make_link((2, 3, 7, 22))) == 20
    assert principal_index(make_link((2, 7, 7, 7))) == -2
    assert principal_index(make_link((2, 4, 6, 12))) == 0


def test_shift_parity_is_uniform():
    # shift = n - 1 (mod 2) for every stratum at its minimal period: every
    # 4-multiset of 2..12 and a few longer vectors
    for v in [*combinations_with_replacement(range(2, 13), 4),
              (2, 3, 4, 16), (2, 2, 2, 3, 5), (2, 4, 6, 14, 86, 5)]:
        link = make_link(v)
        n = len(v) - 1
        for s in link.strata:
            rep = maslov_index(link, s.min_period)
            assert rep.shift % 2 == (n - 1) % 2, (v, s.exponents)


# ---------------------------------------------------------------------------
# phi


def test_phi_worked_example():
    # exclusions are the minimal periods of the strictly larger strata
    assert phi(4, (12, 16, 48), 48) == 6
    assert phi(6, (12, 48), 48) == 4
    assert phi(12, (48,), 48) == 3
    assert phi(16, (48,), 48) == 2
    assert phi(48, (), 48) == 1


def test_phi_matches_scan_on_real_links():
    for v in [(2, 3, 4, 16), (2, 2, 3, 3), (3, 3, 4, 7), (2, 3, 7, 22),
              (2, 2, 2, 3, 5), (2, 4, 6, 14, 86, 5)]:
        link = make_link(v)
        t_p = period_spectrum(link).principal_period
        for s, excl in stratum_exclusions(link).items():
            assert phi(s.min_period, excl, t_p) == phi_by_scan(
                s.min_period, excl, t_p
            ), (v, s.exponents)


def test_phi_equals_spectrum_label_count():
    # the spectrum lists exactly the phi(S) periods carrying each stratum
    for v in [(2, 3, 4, 16), (2, 3, 7, 22), (2, 2, 2, 4), (2, 3, 3, 3, 3)]:
        link = make_link(v)
        spec = period_spectrum(link)
        counts = {}
        for _, stratum in spec.entries:
            counts[stratum] = counts.get(stratum, 0) + 1
        for s, excl in stratum_exclusions(link).items():
            assert counts[s] == phi(s.min_period, excl, spec.principal_period)


def test_phi_validates():
    with pytest.raises(PreconditionFailed):
        phi(5, (), 48)  # period must divide the principal period
    with pytest.raises(PreconditionFailed):
        phi(0, (), 48)
    with pytest.raises(PreconditionFailed):
        phi(4, (0,), 48)


# ---------------------------------------------------------------------------
# mean Euler characteristic


KNOWN_MEAN_EULER = {
    (2, 3, 4, 16): Fraction(25, 14),
    (2, 2, 3, 3): Fraction(3, 2),
    (2, 3, 5, 31): Fraction(301, 122),
    (2, 3, 3, 9): Fraction(13, 10),
    (2, 3, 4, 4): Fraction(1, 2),
    (2, 3, 4, 28): Fraction(23, 10),
    (2, 3, 4, 40): Fraction(67, 26),
    (2, 4, 6, 5): Fraction(43, 14),
    (2, 2, 2, 2): Fraction(1),
    (2, 3, 7, 22): Fraction(77, 10),
    (3, 3, 4, 7): Fraction(77, 10),
    (2, 7, 7, 7): Fraction(-25, 2),
    (2, 2, 2, 3, 5): Fraction(-39, 62),
    (2, 3, 3, 3, 3): Fraction(-13, 10),
    (3, 4, 5, 6): Fraction(7, 2),
    (3, 3, 4, 4): Fraction(13, 2),
}


@pytest.mark.parametrize("v,expected", sorted(KNOWN_MEAN_EULER.items()))
def test_mean_euler_known_values(v, expected):
    assert mean_euler(make_link(v)).value == expected


def test_mean_euler_accepts_raw_exponents():
    assert mean_euler((2, 3, 4, 16)).value == Fraction(25, 14)


def test_mean_euler_needs_nonzero_principal_index():
    for v in [(2, 4, 6, 12), (2, 3, 6), (2, 4, 4)]:
        with pytest.raises(ZeroPrincipalIndex):
            mean_euler(make_link(v))
        with pytest.raises(ZeroPrincipalIndex):
            mean_euler_from_ranks(make_link(v))


def test_mean_euler_needs_three_exponents():
    # mu_P = -2 for (2, 3), so the stratum walk itself must refuse it
    with pytest.raises(DimensionTooLow):
        mean_euler((2, 3))


def test_mean_euler_against_full_spectrum_sum():
    # alternative evaluation: sum over *every* spectrum period with its own
    # sign and quotient Euler characteristic; must agree with the phi form
    for v in [(2, 3, 4, 16), (3, 3, 4, 7), (2, 7, 7, 7), (2, 2, 2, 3, 5),
              (2, 4, 6, 14, 86, 5)]:
        link = make_link(v)
        spec = period_spectrum(link)
        mu_p = principal_index(link)
        total = 0
        for t, stratum in spec.entries:
            rep = maslov_index(link, stratum.min_period, t // stratum.min_period)
            sign = -1 if rep.shift % 2 else 1
            total += sign * chi_s1(stratum.exponents)
        assert Fraction(total, abs(mu_p)) == mean_euler(link).value, v


def mean_euler_by_signed_strata(vec):
    """Reference mean Euler characteristic: each stratum's term E(S) * chi
    signed by its own shift at its minimal period, the form the one-sign
    sums of mean_euler and mean_euler_from_ranks are checked against."""
    link = make_link(vec)
    a = link.exponents
    total = 0
    for s in link.strata:
        t, size = s.min_period, len(s.exponents)
        mu = 2 * (sum(t // aj for aj in a) - t) + len(a) - size
        chi = s.period_count * chi_s1(s.exponents)
        total += -chi if (mu - size + 2) % 2 else chi
    return Fraction(total, abs(principal_index(link)))


def test_mean_euler_past_the_kept_lattice_shapes():
    # past 8 exponents no lattice shape is kept: mean_euler reads only the
    # popcounts of the walk's masks, and the strata are the walk's rows
    for v in [(2, 3, 4, 6, 8, 9, 12, 2, 5), (2, 2, 3, 4, 6, 8, 9, 12, 16, 18)]:
        assert mean_euler(make_link(v)).value == mean_euler_by_signed_strata(v)
    link = make_link(range(2, 20))  # 2^18 index subsets, the walk's budget
    assert mean_euler(link).value == Fraction(640640210839, 240201518)
    assert len(link.strata) == 951


@pytest.mark.parametrize("top,length", [(18, 4), (10, 5)])
def test_one_sign_sums_match_the_signed_strata_reference(top, length):
    # every 4-multiset of 2..18 and 5-multiset of 2..10 with mu_P != 0
    for v in combinations_with_replacement(range(2, top + 1), length):
        link = make_link(v)
        if principal_index(link) == 0:
            continue
        expected = mean_euler_by_signed_strata(v)
        assert mean_euler(link).value == expected, v
        assert mean_euler_from_ranks(link).value == expected, v


# ---------------------------------------------------------------------------
# graded ranks


def test_sh0_distinguishes_the_contact_pair():
    # equal mean Euler characteristics, different degree-0 ranks
    a = sh_plus_ranks(make_link((2, 3, 7, 22)), 0, 0)
    b = sh_plus_ranks(make_link((3, 3, 4, 7)), 0, 0)
    assert a.ranks == {0: 6}
    assert b.ranks == {0: 7}
    assert a.lacunary and b.lacunary


def test_degree_zero_columns_of_2_3_7_22():
    columns = page_columns(make_link((2, 3, 7, 22)), 0, 0)
    at_zero = {c.period for c in columns if c.shift == 0}
    assert at_zero == {6, 12, 14, 18, 21, 42}


def test_degree_zero_columns_of_3_3_4_7():
    columns = page_columns(make_link((3, 3, 4, 7)), 0, 0)
    contrib = {c.period: c.ranks[0 - c.shift] for c in columns if c.shift == 0}
    assert contrib == {3: 3, 6: 3, 12: 1}


def test_ranks_only_callers_build_no_page_column(monkeypatch):
    # the page's columns are built by page_columns, not by the callers that
    # read only ranks and lacunary
    from brieskorn import build_record, find_mec_collisions, invariants

    built = []
    page_column = invariants.PageColumn

    def counting_page_column(*args, **kwargs):
        built.append(args)
        return page_column(*args, **kwargs)

    monkeypatch.setattr(invariants, "PageColumn", counting_page_column)
    pair = [build_record(v, with_sh0=True)
            for v in [(2, 3, 7, 22), (3, 3, 4, 7)]]
    assert [rec.sh0_rank for rec in pair] == [6, 7]
    [group] = find_mec_collisions(pair)
    assert len(group.clusters) == 2
    strict = mean_euler_from_ranks(make_link((2, 3, 7, 22)), strict=True)
    assert strict.value == Fraction(77, 10)
    g = sh_plus_ranks(make_link((2, 3, 7, 22)), 0, 0)
    assert g.ranks == {0: 6} and built == []
    columns = page_columns(make_link((2, 3, 7, 22)), 0, 0)
    assert len(columns) == len(built) > 0
    assert g.columns == columns  # the property reads page_columns afresh
    assert g == GradedRanks(g.k_lo, g.k_hi, g.ranks, g.period_degree,
                            g.period_action, g.lacunary, (2, 3, 7, 22))
    monkeypatch.undo()
    assert pickle.loads(pickle.dumps(g)) == g


@pytest.mark.parametrize("v", [(2, 3, 5, 7), (2, 5, 9, 11), (2, 5, 7, 13),
                               (2, 3, 4, 16)])
def test_page_reads_only_strata_that_reach_the_window(monkeypatch, v):
    # a column of period T spans degrees within n - 1 of T*mu_P/d, so one
    # meeting [-1, 1] has T <= n*d/|mu_P|; most strata of these links start
    # past that, and the page walks none of their periods
    from brieskorn import invariants

    link = make_link(v)
    t_hi = (len(v) - 1) * link.degree // abs(principal_index(link))
    reachable = [s for s in link.strata if s.min_period <= t_hi]
    assert 0 < 2 * len(reachable) < len(link.strata)
    walked = []
    stratum_periods = invariants._stratum_periods

    def counting_stratum_periods(exponents, period, t_lo, t_hi):
        walked.append(period)
        return stratum_periods(exponents, period, t_lo, t_hi)

    monkeypatch.setattr(invariants, "_stratum_periods", counting_stratum_periods)
    assert sh_plus_ranks(link, 0, 0) == e1_page_by_blocks(link, 0, 0)[0]
    assert sorted(walked) == [s.min_period for s in reachable]


def test_page_rank_average_and_collide_build_no_stratum(monkeypatch):
    # they read the rows of the profile's walk; only LinkProfile.strata
    # builds Stratum tuples
    from brieskorn import enumerate_links, find_mec_collisions, linkmodel

    built = []
    stratum = linkmodel.Stratum

    def counting_stratum(*args):
        built.append(args)
        return stratum(*args)

    monkeypatch.setattr(linkmodel, "Stratum", counting_stratum)
    for v in [(2, 3, 7, 22), (3, 3, 4, 7), (2, 3, 5, 7), (2, 2, 2, 3, 5)]:
        assert page_columns(make_link(v), -3, 3)
        assert mean_euler_from_ranks(make_link(v)) == mean_euler(make_link(v))
        strict = mean_euler_from_ranks(make_link(v), strict=True)
        assert strict == mean_euler(make_link(v))
    groups = find_mec_collisions(enumerate_links(5, 12))
    assert groups and built == []
    assert len(make_link((2, 3, 4, 16)).strata) == len(built) == 5


def test_page_columns_match_the_block_reference_on_small_multisets():
    for v in combinations_with_replacement(range(2, 13), 4):
        link = make_link(v)
        if principal_index(link) != 0:
            assert page_columns(link, -2, 2) == (
                e1_page_by_blocks(link, -2, 2)[1]), v


def test_page_vanishes_below_minimal_shift():
    for v in [(2, 3, 4, 16), (3, 3, 4, 7)]:
        link = make_link(v)
        min_shift = min(
            maslov_index(link, s.min_period).shift for s in link.strata
        )
        g = e1_page(link, min_shift - 6, min_shift - 1)
        assert all(r == 0 for r in g.ranks.values()), v


def test_page_rejects_empty_window():
    with pytest.raises(PreconditionFailed):
        e1_page(make_link((2, 3, 4, 16)), 5, 4)


def test_page_needs_nonzero_principal_index():
    with pytest.raises(ZeroPrincipalIndex):
        e1_page(make_link((2, 4, 6, 12)), 0, 0)


def test_graded_ranks_json_shape():
    g = sh_plus_ranks(make_link((2, 3, 7, 22)), -1, 2)
    d = g.to_json_dict()
    assert d == {
        "k_lo": -1,
        "k_hi": 2,
        "ranks": {"-1": 0, "0": 6, "1": 0, "2": 16},
        "mu_P": 20,
        "lacunary": True,
    }


def test_stable_window_alternating_sum_reproduces_numerator():
    # one full degree period just past the first action block sums to
    # chi_m * mu_P = 25 for the worked example
    link = make_link((2, 3, 4, 16))
    g = sh_plus_ranks(link, 17, 30)
    assert sum((-1) ** k * r for k, r in g.ranks.items()) == 25


def test_mean_euler_from_ranks_agrees():
    for v in [(2, 3, 4, 16), (2, 2, 3, 3), (2, 3, 5, 31), (3, 4, 5, 6),
              (2, 7, 7, 7), (2, 2, 2, 3, 5), (2, 3, 3, 3, 3), (3, 3, 4, 4)]:
        link = make_link(v)
        assert mean_euler_from_ranks(link).value == mean_euler(link).value, v


def test_strict_mode_raises_exactly_when_not_lacunary():
    # (2,7,7,7): its (7,7,7) stratum is a genus-15 curve quotient whose odd
    # middle rank (30) sits at odd total degrees next to even-degree classes
    with pytest.raises(NotLacunary):
        mean_euler_from_ranks(make_link((2, 7, 7, 7)), strict=True)
    with pytest.raises(NotLacunary):
        mean_euler_from_ranks(make_link((2, 3, 4, 16)), strict=True)
    v = mean_euler_from_ranks(make_link((2, 3, 7, 22)), strict=True)
    assert v.value == Fraction(77, 10)
    # mu_P < 0: the stable window lies below the first block; (2,7,7,7)
    # above has mu_P = -2 too
    v = mean_euler_from_ranks(make_link((3, 4, 5, 7)), strict=True)
    assert v.value == Fraction(113, 62)
    v = mean_euler_from_ranks(make_link((2, 7, 7, 8)), strict=True)
    assert v.value == Fraction(11, 2)


def test_rank_average_builds_no_spectrum():
    # 16.0M candidate periods, inside the 2^24 budget: the rank average
    # counts them one stratum at a time, in at most d/2 = 12M sieve bytes,
    # where a sorted spectrum of its 12M entries needs about 1.3 GB
    vec = (2, 2, 2, 3, 4000001)
    tracemalloc.start()
    try:
        t0 = time.monotonic()
        value = mean_euler_from_ranks(vec).value
        elapsed = time.monotonic() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == mean_euler(vec).value
    assert elapsed < 2
    assert peak < 64 << 20


def test_non_lacunary_page_is_flagged():
    g = sh_plus_ranks(make_link((2, 7, 7, 7)), -4, 2)
    assert not g.lacunary
    assert g.ranks[-1] == 30


def _oracle_windows(link):
    """Windows below the first block, straddling it, and well past it."""
    mu_p = principal_index(link)
    shifts = [
        maslov_index(link, s.min_period).shift for s in link.strata
    ]
    low, high = min(shifts), max(shifts) + 2 * len(link.exponents)
    far = 7 * mu_p + (high if mu_p > 0 else low)
    return [
        (low - 9, low - 1), (low - 2, low + 2), (0, 0), (-3, 5),
        (low, high), (high - 1, high + abs(mu_p)), (far, far + 4),
    ]


def test_windowed_page_matches_full_block_reference():
    rng = random.Random(20261018)
    links = [(2, 7, 7, 7), (2, 3, 7, 22), (3, 3, 4, 7), (2, 3, 4, 16),
             (2, 2, 2, 3, 5), (2, 3, 3, 3, 3), (2, 4, 6, 14, 86, 5)]
    while len(links) < 40:
        vec = tuple(rng.randint(2, 24) for _ in range(rng.choice([3, 4, 5])))
        link = make_link(vec)
        if principal_index(link) != 0 and link.degree < 3000:
            links.append(vec)
    signs = set()
    for vec in links:
        link = make_link(vec)
        signs.add(principal_index(link) > 0)
        for k_lo, k_hi in _oracle_windows(link):
            page = (e1_page(link, k_lo, k_hi), page_columns(link, k_lo, k_hi))
            assert page == e1_page_by_blocks(link, k_lo, k_hi), (
                vec, k_lo, k_hi)
    assert signs == {True, False}
    assert not e1_page(make_link((2, 7, 7, 7)), -4, 2).lacunary


def test_strict_rank_average_of_a_link_with_tiny_mu_p():
    # L(2,3,7,43,1807): mu_P = -2 against d = 3,263,442, so the stable
    # window meets 4,995,509 candidate periods, over the page's bound; its
    # page sieves the 1,110,109 of one action block and translates them
    link = make_link((2, 3, 7, 43, 1807))
    strict = mean_euler_from_ranks(link, strict=True)
    assert strict == mean_euler(link)
    assert strict.value == Fraction(-910223, 2)


def test_far_window_is_cheap_and_periodic():
    # mu_P = 20: a window near 10^12 reads the same ranks as its translate
    # by a multiple of mu_P into the stable range just past the first block
    link = make_link((2, 3, 7, 22))
    k = 10**12 + 7
    t0 = time.monotonic()
    far = sh_plus_ranks(link, k, k + 3)
    assert time.monotonic() - t0 < 1
    near_lo = 100 + k % 20
    near = sh_plus_ranks(link, near_lo, near_lo + 3)
    assert [far.ranks[k + i] for i in range(4)] == [
        near.ranks[near_lo + i] for i in range(4)
    ]
    assert far.lacunary == near.lacunary
    assert sum(far.ranks.values()) > 0


def test_page_and_rank_average_refuse_oversize_work():
    # Sylvester link: mu_P = -2 against d ~ 1e13, so degree 0 meets ~1e13
    # candidate periods and the spectrum has as many entries
    sylvester = make_link((2, 3, 7, 43, 1807, 3263443))
    t0 = time.monotonic()
    with pytest.raises(BudgetExceeded):
        e1_page(sylvester, 0, 0)
    with pytest.raises(BudgetExceeded):
        mean_euler_from_ranks(sylvester)
    # few periods, but a window of 2^24 degrees is refused before its table
    # of ranks is allocated
    with pytest.raises(BudgetExceeded):
        e1_page(make_link((5, 23, 27, 28, 29)), 0, 1 << 24)
    # mu_P = 40,000,022: the strict stable window alone is over the page
    # budget, so it is refused before any period is walked
    with pytest.raises(BudgetExceeded):
        mean_euler_from_ranks((2, 2, 2, 3, 4000001), strict=True)
    # a degree and a candidate period are counted by the bytes they hold:
    # 5,000,001 degrees with 10,000,004 candidates are within 2^24 of them
    # but over 2^29 bytes, so they are refused before any rank is held (they
    # died with a MemoryError under a 1 GiB address-space cap when counted
    # as units); so are the 7,340,032 candidates of one action block of
    # (2, 2, 7340031), 880,806,040 bytes
    tracemalloc.start()
    try:
        for v, k_lo, k_hi in [((2, 3, 4, 16), 0, 5_000_000),
                              ((2, 2, 7340031), 0, 10)]:
            link = make_link(v)
            with pytest.raises(BudgetExceeded, match="bytes"):
                e1_page(link, k_lo, k_hi)
        # page_columns holds every translate of the block's columns, so it
        # counts each candidate period of the window's whole period range:
        # e1_page answers these windows from one block, but their columns
        # are refused before any is built
        for v, k_lo, k_hi in [((2, 3, 7, 43, 1807), -100000, 0),
                              ((2, 3, 4, 16), 0, 2684300)]:
            with pytest.raises(BudgetExceeded, match="bytes"):
                page_columns(make_link(v), k_lo, k_hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert time.monotonic() - t0 < 1
