"""Property-based tests for structural invariants of the calculators.

These are identities that should hold on *every* admissible exponent
vector, not just the worked examples pinned elsewhere: permutation
invariance, parity and sign of the principal index, agreement of the two
orbifold Euler characteristic computations, and agreement of the
rank-table Euler average with the closed-form mean Euler characteristic,
agreement of the windowed first page with the full-block reference,
and agreement of the meet-in-the-middle lattice counts (signature, moduli,
perturbations) with their direct oracles.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from brieskorn import (
    chi_s1,
    e1_page,
    index_set,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    make_link,
    maslov_index,
    mean_euler,
    mean_euler_from_ranks,
    middle_betti,
    milnor_signature_dim7,
    moduli_dimension,
    period_spectrum,
    principal_index,
    quotient_betti,
    se_status,
    sh_plus_ranks,
    sylvester_sequence,
)
from brieskorn.homology import _quotient_chi
from brieskorn.linkmodel import _stratum_periods
from oracles import count_weighted_monomials, phi
from test_einstein import SHARED_PRIME_POWERS, se_status_by_fractions
from test_homology import sig_by_fractions
from test_invariants import e1_page_by_blocks

SETTINGS = settings(deadline=None, max_examples=60)

exponent_vectors = st.lists(st.integers(2, 12), min_size=3, max_size=5).map(tuple)
exponent_vectors_4 = st.lists(st.integers(2, 12), min_size=4, max_size=4).map(tuple)


def shuffled(vec):
    entries = list(vec)
    random.Random(sum(vec)).shuffle(entries)
    return tuple(entries)


@SETTINGS
@given(exponent_vectors)
def test_permutation_invariance(vec):
    link = make_link(vec)
    twin = make_link(shuffled(vec))
    assert principal_index(link) == principal_index(twin)
    assert middle_betti(vec) == middle_betti(twin.exponents)
    assert quotient_betti(vec) == quotient_betti(twin.exponents)
    if principal_index(link) != 0:
        assert mean_euler(link).value == mean_euler(twin).value
        assert sh_plus_ranks(link, 0, 0).ranks == sh_plus_ranks(twin, 0, 0).ranks


@SETTINGS
@given(exponent_vectors)
def test_principal_index_parity_and_sign(vec):
    link = make_link(vec)
    mu_p = principal_index(link)
    assert mu_p % 2 == 0
    if mu_p > 0:
        assert link.recip_sum > 1
    elif mu_p < 0:
        assert link.recip_sum < 1
    else:
        assert link.recip_sum == 1


@SETTINGS
@given(exponent_vectors)
def test_phi_matches_brute_scan(vec):
    link = make_link(vec)
    layers = link.strata
    mins = sorted(s.min_period for s in layers)
    total = 0
    for s in layers:
        larger = [m for m in mins if m > s.min_period]
        if s.min_period == link.degree:
            brute = 1  # the principal period itself
        else:
            brute = sum(
                1
                for t in range(s.min_period, link.degree, s.min_period)
                if not any(t % m == 0 for m in larger)
            )
        assert phi(s.min_period, larger, link.degree) == brute
        total += brute
    assert total == len(period_spectrum(link).entries)


@SETTINGS
@given(st.lists(st.integers(2, 40), min_size=3, max_size=6).map(tuple))
def test_lattice_count_is_phi_and_the_spectrum_count(vec):
    # E(S) = #{T <= d : I_T = S} from the subset lattice is the stratum's
    # phi against the larger strata periods and its number of spectrum
    # entries; the spectrum is listed only while it stays small
    link = make_link(vec)
    rows = link.strata
    periods = [s.min_period for s in rows]
    assert periods == sorted(periods)
    for k, s in enumerate(rows):
        assert s.period_count == phi(s.min_period, periods[k + 1 :], link.degree)
    if sum(link.degree // t for t in periods) <= 200_000:
        labels = {}
        for _, s in period_spectrum(link).entries:
            labels[s.index_set] = labels.get(s.index_set, 0) + 1
        assert labels == {s.index_set: s.period_count for s in rows}


@SETTINGS
@given(
    st.lists(st.integers(2, 6) | st.integers(2, 40), min_size=3, max_size=6)
    .map(tuple)
)
def test_sieve_count_is_the_lattice_count(vec):
    # the rank average counts each stratum's periods by a sieve over its
    # multiples; small exponents make repeats, so strata of several sizes
    link = make_link(vec)
    sieved = {
        s.index_set: _stratum_periods(vec, s.min_period, 1, link.degree)[1].count(1)
        for s in link.strata
    }
    assert sieved == {s.index_set: s.period_count for s in link.strata}
    if sum(link.degree // s.min_period for s in link.strata) <= 200_000:
        labels = Counter(s.index_set for _, s in period_spectrum(link).entries)
        assert labels == sieved


@SETTINGS
@given(
    st.lists(st.integers(2, 40), min_size=3, max_size=6).map(tuple),
    st.integers(0, 1 << 40),
    st.integers(-3, 400),
)
def test_stratum_periods_are_the_periods_each_stratum_labels(vec, at, width):
    # the one period sieve against its definition I_T = S, on windows
    # [start, stop] inside [1, 3d] (the first page sieves windows that
    # start off the minimal period's multiples); width <= 0 gives start >
    # stop, an empty window
    link = make_link(vec)
    start = 1 + at % (3 * link.degree)
    stop = min(start + width - 1, 3 * link.degree)
    window = range(start, stop + 1)
    labels = [index_set(link, t) for t in window]
    for s in link.strata:
        periods = itertools.compress(
            *_stratum_periods(vec, s.min_period, start, stop))
        assert list(periods) == [
            t for t, label in zip(window, labels) if label == s.index_set
        ], (s.index_set, start, stop)


@SETTINGS
@given(st.lists(st.integers(2, 9), min_size=3, max_size=7).map(tuple))
def test_lattice_rows_are_the_betti_oracles(vec):
    # small exponents make repeats, and so strata of several sizes, common
    link = make_link(vec)
    for s in link.strata:
        sub = tuple(vec[j] for j in sorted(s.index_set))
        assert s.middle_rank == middle_betti(sub)
        assert _quotient_chi(len(sub), s.middle_rank) == quotient_betti(sub).chi


@SETTINGS
@given(exponent_vectors)
def test_weight_boxes_fit_in_the_perturbation_box(vec):
    # every monomial of weighted degree w_i has b_j <= max(w) // w_j < a_j,
    # so one perturbation-box kernel call also counts every h0(O(w_i))
    link = make_link(vec)
    top = max(link.weights)
    assert all(top // w < a for w, a in zip(link.weights, vec))


@SETTINGS
@given(exponent_vectors)
def test_quotient_chi_equals_chi_s1(vec):
    q = quotient_betti(vec)
    alternating = sum((-1) ** k * b for k, b in enumerate(q.ranks))
    assert q.chi == alternating == chi_s1(vec)


@SETTINGS
@given(st.lists(st.integers(2, 12), min_size=4, max_size=5).map(tuple))
def test_rank_average_agrees_with_closed_form(vec):
    link = make_link(vec)
    if principal_index(link) == 0:
        return
    assert mean_euler_from_ranks(link).value == mean_euler(link).value


@SETTINGS
@given(exponent_vectors)
def test_closed_form_stable_window_reads_as_the_tight_one(vec):
    # strict mode places its |mu_P|-wide window past the first block in
    # closed form; the tightest such window starts at the first block's
    # degree support, read here off every spectrum period's shift
    link = make_link(vec)
    mu_p = principal_index(link)
    if mu_p == 0:
        return
    n, width = len(vec) - 1, abs(mu_p)
    spans = [
        (maslov_index(link, s.min_period, t // s.min_period).shift,
         2 * len(s.exponents) - 4)
        for t, s in period_spectrum(link).entries
    ]
    if mu_p > 0:
        tight = 1 + max(shift + span for shift, span in spans)
        closed = mu_p + n
    else:
        tight = min(shift for shift, _ in spans) - width
        closed = 2 * mu_p - n + 1
    pages = [e1_page(link, k, k + width - 1) for k in (tight, closed)]
    assert pages[0].lacunary == pages[1].lacunary
    sums = [sum((-1) ** k * r for k, r in g.ranks.items()) for g in pages]
    assert sums[0] == sums[1]


@SETTINGS
@given(exponent_vectors, st.integers(-60, 60), st.integers(0, 8))
def test_windowed_page_matches_full_block_reference(vec, k_lo, width):
    link = make_link(vec)
    if principal_index(link) == 0:
        return
    assert e1_page(link, k_lo, k_lo + width) == e1_page_by_blocks(
        link, k_lo, k_lo + width
    )


@SETTINGS
@given(exponent_vectors_4)
def test_existence_and_obstruction_disjoint(vec):
    report = se_status(make_link(vec))
    if report.verdict.value == "Exists":
        assert not report.lichnerowicz_obstructed


@SETTINGS
@given(exponent_vectors_4)
def test_rhs_iff_middle_rank_zero(vec):
    assert is_rational_homology_sphere(vec) == (middle_betti(vec) == 0)


@SETTINGS
@given(exponent_vectors_4)
def test_sphere_implies_rhs(vec):
    if is_homotopy_sphere(vec):
        assert is_rational_homology_sphere(vec)


@given(st.integers(1, 8))
def test_sylvester_pairwise_coprime(n):
    seq = sylvester_sequence(n)
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            assert math.gcd(seq[i], seq[j]) == 1


box_vectors_5 = (
    st.lists(st.integers(2, 12), min_size=5, max_size=5)
    .map(tuple)
    .filter(lambda v: math.prod(v) <= 3000)
)


@settings(deadline=None, max_examples=40)
@given(box_vectors_5)
def test_signature_kernel_matches_fraction_oracle(vec):
    assert milnor_signature_dim7(vec) == sig_by_fractions(vec)


@SETTINGS
@given(st.lists(st.integers(2, 12), min_size=3, max_size=5).map(tuple))
def test_moduli_counts_match_weighted_monomial_dp(vec):
    link = make_link(vec)
    report = moduli_dimension(link)
    w = link.weights
    assert report.h0_degree == count_weighted_monomials(w, link.degree)
    assert report.h0_weight_sum == sum(count_weighted_monomials(w, x) for x in w)


@SETTINGS
@given(
    st.lists(st.sampled_from(SHARED_PRIME_POWERS), min_size=3, max_size=5)
    .map(tuple)
    .filter(lambda v: math.prod(v) <= 20_000)
)
def test_pruned_moduli_box_matches_dp_and_brute_force(vec):
    # shared prime powers prune the box only partly: every stride q_i > 1
    # leaves h0(O(w_i)) = 1, and the counts agree with both oracles
    link = make_link(vec)
    report = moduli_dimension(link)
    w, d = link.weights, link.degree
    assert report.h0_degree == count_weighted_monomials(w, d)
    assert report.h0_weight_sum == sum(count_weighted_monomials(w, x) for x in w)
    brute = sum(
        1
        for b in itertools.product(*(range(a) for a in vec))
        if sum(bj * wj for bj, wj in zip(b, w)) == d
    )
    assert report.perturbation_count == brute
    for a, b, x in zip(link.exponents, link.b_numbers, w):
        if a // b > 1:
            assert count_weighted_monomials(w, x) == 1


@SETTINGS
@given(st.lists(st.integers(2, 60), min_size=3, max_size=8).map(tuple))
def test_integer_se_tests_match_fractions(vec):
    assert se_status(make_link(vec)) == se_status_by_fractions(vec)


@SETTINGS
@given(st.lists(st.integers(2, 60), min_size=2, max_size=7).map(tuple))
def test_recip_sum_is_the_sum_of_reciprocals(vec):
    assert make_link(vec).recip_sum == sum(Fraction(1, x) for x in vec)


@SETTINGS
@given(st.lists(st.integers(2, 9), min_size=3, max_size=4).map(tuple))
def test_perturbation_count_matches_brute_force(vec):
    link = make_link(vec)
    brute = sum(
        1
        for b in itertools.product(*(range(a) for a in vec))
        if sum(bj * wj for bj, wj in zip(b, link.weights)) == link.degree
    )
    assert moduli_dimension(link).perturbation_count == brute
