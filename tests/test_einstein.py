"""Sasaki-Einstein existence criteria, moduli counts, and Sylvester numerators."""

import itertools
import math
import random
import time
from collections.abc import ItemsView
from fractions import Fraction

import pytest

from brieskorn import (
    BudgetExceeded,
    CoprimeVerdict,
    PreconditionFailed,
    SEReport,
    SEVerdict,
    count_perturbation_monomials,
    count_weighted_monomials,
    lichnerowicz_obstructed,
    make_link,
    mean_euler,
    moduli_dimension,
    principal_index,
    se_coprime_iff,
    se_status,
    se_sufficient,
    sylvester_numerator,
)
from brieskorn import einstein, homology
from brieskorn.tables import record_to_json_dict


def test_sufficient_inequalities():
    assert se_sufficient(make_link((2, 3, 11, 11))) == (False, True)
    assert se_sufficient(make_link((3, 3, 3, 3))) == (False, False)
    assert se_sufficient(make_link((2, 2, 5, 5))) == (False, False)
    # not positive: both vacuously false
    assert se_sufficient(make_link((2, 3, 7, 42))) == (False, False)


def test_coprime_criterion():
    assert se_coprime_iff(make_link((2, 3, 5, 7))) is CoprimeVerdict.YES
    assert se_coprime_iff(make_link((2, 3, 5, 61))) is CoprimeVerdict.NO
    assert se_coprime_iff(make_link((2, 2, 5, 5))) is CoprimeVerdict.NOT_APPLICABLE


def test_lichnerowicz_bound():
    assert not lichnerowicz_obstructed(make_link((2, 2, 2, 3)))
    assert lichnerowicz_obstructed(make_link((2, 2, 2, 7)))
    assert lichnerowicz_obstructed(make_link((2, 3, 4, 28)))
    assert not lichnerowicz_obstructed(make_link((2, 3, 4, 16)))


def test_verdicts():
    r = se_status(make_link((2, 3, 11, 11)))
    assert r.verdict is SEVerdict.EXISTS
    assert r.sufficient2 and not r.sufficient1
    r = se_status(make_link((2, 3, 5, 7)))
    assert r.verdict is SEVerdict.EXISTS
    assert r.coprime_iff is CoprimeVerdict.YES
    assert se_status(make_link((2, 2, 2, 7))).verdict is SEVerdict.OBSTRUCTED
    assert se_status(make_link((2, 2, 5, 5))).verdict is SEVerdict.UNKNOWN
    # settled affirmatively in the literature, but not by these criteria
    r = se_status(make_link((2, 2, 2, 3)))
    assert r.verdict is SEVerdict.UNKNOWN
    assert not r.lichnerowicz_obstructed


def test_report_json_shape():
    d = record_to_json_dict(se_status(make_link((2, 3, 11, 11))))
    assert d == {
        "positivity": True,
        "sufficient1": False,
        "sufficient2": True,
        "coprime_iff": "NotApplicable",
        "lichnerowicz_obstructed": False,
        "verdict": "Exists",
    }


def se_status_by_fractions(vec):
    """The SE report with se_sufficient, se_coprime_iff and positivity in
    their Fraction form, sigma = sum 1/a_i: the reference the integer tests
    are checked against."""
    a = tuple(vec)
    n = len(a) - 1
    sigma = sum(Fraction(1, x) for x in a)
    s1 = s2 = False
    if sigma > 1:
        factor = Fraction(n, n - 1)
        bs = [math.gcd(math.lcm(*a[:i], *a[i + 1:]), x) for i, x in enumerate(a)]
        small = min(
            min(Fraction(1, x) for x in a),
            min(Fraction(1, bi * bj) for bi, bj in itertools.combinations(bs, 2)),
        )
        s1 = sigma < 1 + factor * small
        s2 = sigma < 1 + factor * Fraction(1, max(a)) * Fraction(1, min(a))
    if any(math.gcd(x, y) > 1 for x, y in itertools.combinations(a, 2)):
        cop = CoprimeVerdict.NOT_APPLICABLE
    elif 1 < sigma < 1 + Fraction(n, max(a)):
        cop = CoprimeVerdict.YES
    else:
        cop = CoprimeVerdict.NO
    lich = lichnerowicz_obstructed(a)
    if s1 or s2 or cop is CoprimeVerdict.YES:
        verdict = SEVerdict.EXISTS
    elif lich or cop is CoprimeVerdict.NO:
        verdict = SEVerdict.OBSTRUCTED
    else:
        verdict = SEVerdict.UNKNOWN
    return SEReport(sigma > 1, s1, s2, cop, lich, verdict)


@pytest.mark.parametrize("top,length", [(30, 3), (18, 4), (10, 5)])
def test_integer_se_tests_match_the_fraction_reference(top, length):
    # every 3-multiset of 2..30, 4-multiset of 2..18, 5-multiset of 2..10
    for v in itertools.combinations_with_replacement(range(2, top + 1), length):
        assert se_status(make_link(v)) == se_status_by_fractions(v), v


def brute_weighted_count(weights, degree):
    count = 0
    for combo in itertools.product(*(range(degree // w + 1) for w in weights)):
        if sum(c * w for c, w in zip(combo, weights)) == degree:
            count += 1
    return count


def test_count_weighted_monomials():
    assert count_weighted_monomials((33, 22, 6, 6), 66) == 14
    assert count_weighted_monomials((33, 22, 6, 6), 0) == 1
    assert count_weighted_monomials((1, 1), 3) == 4
    for degree in (7, 12, 30):
        for weights in [(2, 3), (3, 5, 7), (1, 2, 4), (6, 10, 15)]:
            assert count_weighted_monomials(weights, degree) == brute_weighted_count(
                weights, degree
            ), (weights, degree)


def test_count_weighted_monomials_validates():
    with pytest.raises(PreconditionFailed):
        count_weighted_monomials((), 5)
    with pytest.raises(PreconditionFailed):
        count_weighted_monomials((2, 0), 5)
    with pytest.raises(PreconditionFailed):
        count_weighted_monomials((2, 3), -1)


def test_count_weighted_monomials_refuses_a_huge_table_up_front():
    # a 10^9-entry table would die with MemoryError after allocating
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        count_weighted_monomials((1,), 10**9)
    assert time.perf_counter() - start < 1.0


def test_count_perturbation_monomials():
    assert count_perturbation_monomials(make_link((2, 3, 11, 11))) == 10
    assert count_perturbation_monomials(make_link((2, 3, 5, 7))) == 0
    # (2,2,2,2): b in {0,1}^4 with sum of weights 1+1+1+1 reaching d = 2
    assert count_perturbation_monomials(make_link((2, 2, 2, 2))) == 6


def test_count_perturbation_monomials_prunes_at_target():
    # d = 30 with weights all 1: compositions of 30 into 12 parts, each <= 29
    # (the 12 compositions with one part equal to 30 are excluded).  The box
    # has 30^12 points, but no partial sum above 30 is ever kept.
    link = make_link((30,) * 12)
    assert count_perturbation_monomials(link) == math.comb(41, 11) - 12
    assert moduli_dimension(link).h0_degree == count_weighted_monomials(
        (1,) * 12, 30
    )


def test_moduli_counts_walk_the_half_over_the_key_cap(monkeypatch):
    # the stride-pruned box of (2,12,18,24) has strides (1,1,3,2) and splits
    # into halves of 24 and 72 points; with the key cap at 50 the 72-point
    # half is walked instead of stored (the unpruned box, halves of 48 and
    # 216 points, is not refused at that cap either)
    link = make_link((2, 12, 18, 24))
    report = moduli_dimension(link)
    assert report.h0_degree == count_weighted_monomials(link.weights, link.degree)
    real, walked = einstein._lattice_halves, []

    def spy(*args, **kwargs):
        kept, other = real(*args, **kwargs)
        walked.append(not isinstance(other, ItemsView))
        return kept, other

    monkeypatch.setattr(einstein, "_lattice_halves", spy)
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 50)
    assert moduli_dimension(link) == report
    assert count_perturbation_monomials(link) == report.perturbation_count
    assert walked == [True, True]


def seeded_moduli_vectors(count=40, seed=11, pool=range(2, 25)):
    """3-6 exponents from ``pool`` whose degree keeps the h0 DP oracle cheap."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        v = tuple(rng.choice(pool) for _ in range(rng.randint(3, 6)))
        if math.lcm(*v) <= 20_000:
            out.append(v)
    return out


# Exponents sharing prime powers, so the moduli box is pruned only partly
# and still splits into two halves.
SHARED_PRIME_POWERS = (2, 3, 4, 6, 8, 9, 12, 16, 18, 24)


def h0_weight_sum_by_dp(link):
    return sum(count_weighted_monomials(link.weights, x) for x in link.weights)


def test_h0_weight_sum_matches_the_dp():
    for v in seeded_moduli_vectors():
        link = make_link(v)
        assert moduli_dimension(link).h0_weight_sum == h0_weight_sum_by_dp(link)


def test_h0_weight_sum_with_a_walked_half(monkeypatch):
    # all h0(O(w_i)) come from the one kernel call, the one with target d
    # that also counts the perturbations.  Give that call the smallest key
    # cap it accepts: then the half with fewer keys is kept and the other is
    # walked (unless both need as many).  Exponents from shared prime powers
    # keep enough of the box for a half to be walked.
    real, walked = einstein._lattice_halves, []

    def spy(steps, ranges, modulus=None, target=None, walk=1 << 24):
        if target != link.degree:
            return real(steps, ranges, modulus, target, walk)
        saved, homology._MAX_HALF_KEYS = homology._MAX_HALF_KEYS, cap
        try:
            kept, other = real(steps, ranges, modulus, target, walk)
        finally:
            homology._MAX_HALF_KEYS = saved
        walked.append(not isinstance(other, ItemsView))
        return kept, other

    monkeypatch.setattr(einstein, "_lattice_halves", spy)
    hits = 0
    for v in seeded_moduli_vectors(80, seed=1, pool=SHARED_PRIME_POWERS):
        link = make_link(v)
        for cap in itertools.count(1):
            walked.clear()
            try:
                report = moduli_dimension(link)
                break
            except BudgetExceeded:  # both halves over this cap
                continue
        if walked == [True]:
            assert report.h0_weight_sum == h0_weight_sum_by_dp(link), v
            hits += 1
    assert hits >= 30


@pytest.mark.parametrize("vec, counts", [
    ((2, 3, 5, 7, 4759000), (12, 9, 3, 7)),
    ((2, 2, 2, 2, 1048579), (11, 17, -6, 6)),
])
def test_moduli_of_a_large_pruned_box(vec, counts):
    # strides (1, 3, 1, 7, 475900) and (1, 1, 1, 1, 1048579): the unpruned
    # boxes have 10^9 and 1.7 * 10^7 points, each with a half over the key
    # cap that took seconds to walk; the pruned ones have 100 and 16
    link = make_link(vec)
    start = time.perf_counter()
    r = moduli_dimension(link)
    assert time.perf_counter() - start < 0.25
    assert (r.h0_degree, r.h0_weight_sum, r.kuranishi_dim,
            r.perturbation_count) == counts


def test_moduli_report():
    m = moduli_dimension(make_link((2, 3, 11, 11)))
    assert m.applicable
    assert m.h0_degree == 14
    assert m.h0_weight_sum == 6
    assert m.kuranishi_dim == 8
    assert m.perturbation_count == 10
    assert not moduli_dimension(make_link((2, 2, 3, 3))).applicable
    m = moduli_dimension(make_link((2, 3, 5, 7)))
    assert (m.kuranishi_dim, m.perturbation_count) == (0, 0)


def test_sylvester_numerator_values():
    # n = 1 admissible tails: odd and coprime to 3; P = (c_2 - 1)/2 = 3
    vals = {a: sylvester_numerator(1, a) for a in (5, 7, 11)}
    assert vals == {5: 43, 7: 59, 11: 91}
    # affine in a: (3P - 1)a + P, the machinery's chi_m * |mu_P|
    for a, v in vals.items():
        link = make_link((2, 4, 6, a))
        assert v == 8 * a + 3 == mean_euler(link).value * abs(principal_index(link))
    # n = 2: the sign (-1)^(n+1) and P = 21
    assert sylvester_numerator(2, 5) == -(62 * 5 + 21)


def test_sylvester_numerator_validates():
    # a = 13 gives mu_P = 2(12 - 13) < 0, and the identity still holds
    link = make_link((2, 4, 6, 13))
    assert principal_index(link) == -2
    assert sylvester_numerator(1, 13) == 107 == mean_euler(link).value * 2
    with pytest.raises(PreconditionFailed):
        sylvester_numerator(1, 6)  # shares a factor with the sequence
    with pytest.raises(PreconditionFailed):
        sylvester_numerator(-1, 5)
    with pytest.raises(PreconditionFailed):
        sylvester_numerator(1, 1)


def test_exists_and_obstructed_disjoint_small_grid():
    for v in itertools.combinations_with_replacement(range(2, 13), 4):
        r = se_status(make_link(v))
        assert not (
            r.verdict is SEVerdict.EXISTS and r.lichnerowicz_obstructed
        ), v
