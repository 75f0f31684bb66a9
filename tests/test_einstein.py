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
    DimensionTooLow,
    PreconditionFailed,
    SEReport,
    SEVerdict,
    enumerate_links,
    family_sweep,
    lichnerowicz_obstructed,
    make_link,
    mean_euler,
    moduli_dimension,
    parse_sweep_spec,
    principal_index,
    se_coprime_iff,
    se_status,
    se_sufficient,
)
from brieskorn import einstein, homology
from brieskorn.tables import record_to_json_dict
from oracles import (
    automorphism_monomials,
    automorphism_rank,
    count_weighted_monomials,
    greedy_half_sums,
    greedy_split_box,
    stride_pruned_counts,
    sylvester_numerator,
)


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
    with pytest.raises(DimensionTooLow):
        se_status(make_link((2, 3)))


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
    assert moduli_dimension(make_link((2, 3, 11, 11))).perturbation_count == 10
    assert moduli_dimension(make_link((2, 3, 5, 7))).perturbation_count == 0
    # (2,2,2,2): b in {0,1}^4 with sum of weights 1+1+1+1 reaching d = 2
    assert moduli_dimension(make_link((2, 2, 2, 2))).perturbation_count == 6


def test_count_perturbation_monomials_prunes_at_target():
    # d = 30 with weights all 1: compositions of 30 into 12 parts, each <= 29
    # (the 12 compositions with one part equal to 30 are excluded).  The box
    # has 30^12 points, but no partial sum above 30 is ever kept.
    link = make_link((30,) * 12)
    report = moduli_dimension(link)
    assert report.perturbation_count == math.comb(41, 11) - 12
    assert report.h0_degree == count_weighted_monomials((1,) * 12, 30)


def test_moduli_counts_walk_the_half_over_the_key_cap(monkeypatch):
    # (2,15,20,24) has b-numbers (2,15,20,12), so its counts run over 0 <=
    # c_j < beta_j at steps D / beta_j with D = 60 (d = 120); that box splits
    # into halves of 40 and 180 points, and with the key cap at 50 the
    # 180-point half, needing D + 1 = 61 keys, is walked instead of stored
    # (the unpruned box, halves of 48 and 300 points, is not refused at that
    # cap either)
    link = make_link((2, 15, 20, 24))
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
    assert walked == [True]


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
    # all h0(O(w_i)) come from the one kernel call of the link's b-number
    # class, the one that also counts the perturbations.  Give that call the
    # smallest key cap it accepts: then the half with fewer keys is kept and
    # the other is walked (unless both need as many).  Exponents from shared
    # prime powers keep enough of the box for a half to be walked.
    real, walked = einstein._lattice_halves, []

    def spy(steps, ranges, target=None):
        saved, homology._MAX_HALF_KEYS = homology._MAX_HALF_KEYS, cap
        try:
            kept, other = real(steps, ranges, target)
        finally:
            homology._MAX_HALF_KEYS = saved
        walked.append(not isinstance(other, ItemsView))
        return kept, other

    monkeypatch.setattr(einstein, "_lattice_halves", spy)
    hits = 0
    for v in seeded_moduli_vectors(160, seed=1, pool=SHARED_PRIME_POWERS):
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


def moduli_multisets():
    """The 10,627 vectors of the 4-multisets of 2..18, the 5-multisets of
    2..10 and the 3-multisets of 2..30."""
    return itertools.chain(
        itertools.combinations_with_replacement(range(2, 19), 4),
        itertools.combinations_with_replacement(range(2, 11), 5),
        itertools.combinations_with_replacement(range(2, 31), 3),
    )


def counts_or_refusal(count, link):
    try:
        return count(link)
    except BudgetExceeded:
        return "refused"


@pytest.mark.parametrize("keys, work, refused", [
    (homology._MAX_HALF_KEYS, homology._MAX_HALF_WORK, 0),
    (homology._MAX_HALF_KEYS, 64, 919),
    (100, 1000, 34),  # d + 1 over the key cap: the unpruned box is judged
])
def test_class_counts_match_the_stride_pruned_box(monkeypatch, keys, work,
                                                 refused):
    # the count over the b-number class answers, or refuses, exactly as the
    # stride-pruned box 0 <= b_j < a_j with target d does
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", keys)
    monkeypatch.setattr(homology, "_MAX_HALF_WORK", work)
    seen = 0
    for v in moduli_multisets():
        link = make_link(v)
        want = counts_or_refusal(stride_pruned_counts, link)
        assert counts_or_refusal(einstein._monomial_counts, link) == want, v
        seen += want == "refused"
    assert seen == refused


@pytest.mark.parametrize("keys, work, answered", [
    (homology._MAX_HALF_KEYS, homology._MAX_HALF_WORK, 0),
    (homology._MAX_HALF_KEYS, 64, 378),
    (100, 1000, 1041),
])
def test_the_split_answers_wherever_the_greedy_split_did(monkeypatch, keys,
                                                         work, answered):
    # the balanced greedy split, with the work check it left to each fill,
    # is the kernel as it was: wherever it answered, the split chosen by key
    # and fill bounds answers the same; where it refused and the chosen
    # split answers, the counts are the DP's
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", keys)
    monkeypatch.setattr(homology, "_MAX_HALF_WORK", work)
    links = [make_link(v) for v in moduli_multisets()]
    with monkeypatch.context() as greedy:
        greedy.setattr(homology, "_split_box", greedy_split_box)
        greedy.setattr(homology, "_half_sums", greedy_half_sums)
        old = [counts_or_refusal(einstein._monomial_counts, link)
               for link in links]
    seen = 0
    for link, want in zip(links, old):
        got = counts_or_refusal(einstein._monomial_counts, link)
        if want != "refused":
            assert got == want, link.exponents
        elif got != "refused":
            h0_d = count_weighted_monomials(link.weights, link.degree)
            assert got == (h0_d - len(link.exponents),
                           h0_weight_sum_by_dp(link)), link.exponents
            seen += 1
    assert seen == answered


def test_census_and_sweep_records_carry_the_fresh_moduli():
    # records built under one class memo per census or sweep report what
    # moduli_dimension computes afresh for each vector
    for rec in enumerate_links(5, 18):
        assert rec.moduli == moduli_dimension(make_link(rec.exponents))
    for family in ("2,3,4,4+12k", "2,6,6,3+3k", "4,6,9,2+4k"):
        for _, rec in family_sweep(parse_sweep_spec(family, "0..150")):
            assert rec.moduli == moduli_dimension(make_link(rec.exponents))


def test_automorphisms_remove_exactly_the_weight_sum():
    # at the Fermat polynomial, z_i -> z_i + eps g (deg g = w_i) moves it
    # along g z_i^(a_i - 1): there are h0_weight_sum of these monomials, and
    # they are pairwise distinct exactly when the count is applicable, so
    # kuranishi_dim is then the local moduli dimension
    for v in moduli_multisets():
        report = moduli_dimension(make_link(v))
        monomials = automorphism_monomials(v)
        assert len(monomials) == report.h0_weight_sum, v
        assert (len(set(monomials)) == len(monomials)) == report.applicable, v
    report = moduli_dimension(make_link((2, 3, 11, 11)))
    extra = set(automorphism_monomials((2, 3, 11, 11))) - {
        (2, 0, 0, 0), (0, 3, 0, 0), (0, 0, 11, 0), (0, 0, 0, 11)}
    assert extra == {(0, 0, 10, 1), (0, 0, 1, 10)}
    assert report.perturbation_count - len(extra) == report.kuranishi_dim


def test_automorphism_rank_at_a_random_polynomial_is_the_weight_sum():
    # a second check of the moduli reading: at a random f (mod 2^61 - 1),
    # the automorphisms move f in h0_weight_sum independent directions
    # wherever the count is applicable, so the orbit has full dimension;
    # where it is not, (2, 2, 2, 2) moves only 10 of 16 (O(4) fixes a quadric)
    checked = 0
    for v in itertools.combinations_with_replacement(range(2, 13), 4):
        report = moduli_dimension(make_link(v))
        if report.applicable and report.h0_degree <= 500:
            assert automorphism_rank(v) == report.h0_weight_sum, v
            checked += 1
    assert checked == 935
    assert automorphism_rank((2, 2, 2, 2)) == 10
    assert moduli_dimension(make_link((2, 2, 2, 2))).h0_weight_sum == 16


@pytest.mark.parametrize("vec, counts", [
    ((2, 3, 5, 7, 4759000), (12, 9, 3, 7)),
    ((2, 2, 2, 2, 1048579), (11, 17, -6, 6)),
    ((2,) * 18, (171, 324, -153, 153)),
    ((2, 3) * 9, (210, 162, 48, 192)),
    ((4, 6, 10, 14, 22, 26) * 3, (24160, 54, 24106, 24142)),
])
def test_moduli_of_a_large_pruned_box(vec, counts):
    # strides (1, 3, 1, 7, 475900) and (1, 1, 1, 1, 1048579): the unpruned
    # boxes have 10^9 and 1.7 * 10^7 points, each with a half over the key
    # cap that took seconds to walk; the pruned ones have 100 and 16.  The
    # last three have 18 equal axes, two groups of 9 and six groups of 3:
    # the split chooses how many of each group a half takes, one of 19, 100
    # and 4,096 splits
    link = make_link(vec)
    start = time.perf_counter()
    r = moduli_dimension(link)
    assert time.perf_counter() - start < 0.25
    assert (r.h0_degree, r.h0_weight_sum, r.kuranishi_dim,
            r.perturbation_count) == counts


def test_moduli_kernel_refuses_a_box_over_its_work_bound():
    # (720720,)*4: each half fits the key cap, but its second axis alone
    # takes about 5 * 10^11 (key, point) steps; refused before that axis
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        moduli_dimension(make_link((720720,) * 4))
    assert time.perf_counter() - start < 5


def test_moduli_kernel_work_bound_refuses_a_small_box(monkeypatch):
    # (2,3,11,11) answers at the default bound; its half-sums take 11 steps
    link = make_link((2, 3, 11, 11))
    assert moduli_dimension(link).kuranishi_dim == 8
    monkeypatch.setattr(homology, "_MAX_HALF_WORK", 10)
    with pytest.raises(BudgetExceeded):
        moduli_dimension(link)


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
