"""Integral homology data: Betti ranks, sphere tests, classifiers, signatures."""

import collections
import importlib.util
import itertools
import math
import random
import time
import tracemalloc
from pathlib import Path

import pytest

from brieskorn import (
    BudgetExceeded,
    CoprimeVerdict,
    Dim5Kind,
    DimensionMismatch,
    DimensionTooLow,
    InvalidExponent,
    LinkProfile,
    PreconditionFailed,
    build_record,
    chi_s1,
    diffeo_type_dim5,
    enumerate_links,
    exotic_class_dim7,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    make_link,
    middle_betti,
    milnor_signature_dim7,
    quotient_betti,
    se_coprime_iff,
)
from brieskorn import homology
from brieskorn.homology import _lattice_halves
from oracles import (
    components_by_union_find,
    cyclic_signature_dim7,
    fill_steps,
    gcd_graph_reading_by_components,
    greedy_half_sums,
    greedy_split_box,
    sphere_criteria_by_components,
)


def box_kappa(exponents):
    """Middle Betti rank by direct lattice count (Milnor-Orlik): the number
    of interior box points x, 1 <= x_j < a_j, with sum x_j / a_j an integer."""
    count = 0
    for x in itertools.product(*(range(1, a) for a in exponents)):
        s = sum(xi * (math.lcm(*exponents) // a) for xi, a in zip(x, exponents))
        if s % math.lcm(*exponents) == 0:
            count += 1
    return count


@pytest.mark.parametrize("v", [
    (2, 3), (2, 2), (4, 6),
    (2, 3, 5), (7, 7, 7), (2, 4, 16), (2, 3, 4), (3, 3, 4), (6, 6, 6),
    (2, 2, 2, 2), (2, 3, 4, 16), (2, 2, 3, 3), (3, 3, 3, 3), (2, 4, 4, 6),
    (2, 2, 2, 3, 5), (2, 3, 3, 2, 6),
])
def test_middle_betti_against_lattice_count(v):
    assert middle_betti(v) == box_kappa(v)


def kernel_kappa(exponents):
    """Middle Betti rank from the lattice kernel: open-box points x whose
    exact sum x_j d/a_j, met in the middle, is a multiple k d of d (each
    summand lies in (0, d), so 0 < k < len(exponents))."""
    d = math.lcm(*exponents)
    kept, other = _lattice_halves(
        [d // a for a in exponents], [range(1, a) for a in exponents]
    )
    return sum(count * kept.get(k * d - s, 0)
               for s, count in other for k in range(1, len(exponents)))


def negacyclic(total, m):
    """t^total in Z[t]/(t^m + 1), as (key, sign)."""
    laps, key = divmod(total, m)
    return key, -1 if laps % 2 else 1


def test_half_sums_wrap_negacyclically():
    # read in Z[t]/(t^m + 1), a sum past m wraps to sum - m with its count
    # negated; every step value is below m, so one wrap per axis is enough,
    # though the unreduced sums reach 24 > 2m at m = 11
    axes = [(5, range(2)), (3, range(1, 4)), (2, range(1, 6, 2))]
    points = list(itertools.product(*(rng for _, rng in axes)))
    for m in (40, 12, 11):
        brute = collections.Counter()
        for p in points:
            key, sign = negacyclic(sum(x * w for (w, _), x in zip(axes, p)), m)
            brute[key] += sign
        sums = homology._half_sums(axes, m, negacyclic=True)
        assert all(0 <= s < m for s in sums)
        assert collections.Counter(sums) == brute
    # the two-axis sums 3..14: 14 wraps past 12 to 2 with count -1
    assert homology._half_sums(axes[:2], 12, negacyclic=True)[2] == -1
    # not negacyclic, sums at or past top are dropped
    assert homology._half_sums(axes, 15) == collections.Counter(
        t for t in (sum(x * w for (w, _), x in zip(axes, p)) for p in points)
        if t < 15
    )


def test_lattice_halves_walks_the_half_over_the_key_cap(monkeypatch):
    # with the key cap lowered to 10, the 50-point half cannot be stored:
    # it is walked one point at a time against the stored 6-key half
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 10)
    steps, ranges = [7, 5, 3], [range(50), range(2), range(1, 4)]
    brute = collections.Counter(
        sum(x * w for x, w in zip(p, steps))
        for p in itertools.product(*ranges)
    )
    kept, other = _lattice_halves(steps, ranges)
    pairs = list(other)
    assert len(kept) == 6 and len(pairs) == 50
    met = collections.Counter()
    for s, n in pairs:
        for t, m in kept.items():
            met[s + t] += n * m
    assert met == brute
    kept, other = _lattice_halves(steps, ranges, target=100)
    assert sum(n * kept.get(100 - s, 0) for s, n in other) == sum(
        1 for p in itertools.product(*ranges)
        if sum(x * w for x, w in zip(p, steps)) == 100
    )
    monkeypatch.setattr(homology, "_MAX_HALF_WORK", 49)
    with pytest.raises(BudgetExceeded, match="50 points to walk, over 49"):
        _lattice_halves(steps, ranges)
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 5)
    with pytest.raises(BudgetExceeded):
        _lattice_halves(steps, ranges)


def test_the_split_search_refuses_over_the_subset_budget():
    # 19 distinct axes have 2^19 splits, over the subset budget of 2^18:
    # refused before any half is judged
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded, match="524288 splits, over 262144"):
        homology._split_box(range(1, 20), [range(2)] * 19)
    assert time.perf_counter() - start < 0.1


def test_a_walked_half_holds_no_axis_in_memory(monkeypatch):
    # the 50000-point half is over the lowered key cap, so it is walked
    # against the 2-key half; it yields each sum instead of copying its axis
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 10)
    tracemalloc.start()
    try:
        kept, other = _lattice_halves([1, 3], [range(50000), range(2)])
        points = total = 0
        for s, n in other:
            points += n
            total += s * n
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert kept == {0: 1, 3: 1}
    assert (points, total) == (50000, sum(range(50000)))
    assert peak < 100_000


def seven_smooth(n):
    for p in (2, 3, 5, 7):
        while n % p == 0:
            n //= p
    return n == 1


def test_middle_betti_against_kernel_count_beyond_brute_force_cap():
    # boxes from 2e5 (where the brute-force lattice oracles stop) to 1e7;
    # 7-smooth exponents share factors, so most middle ranks are non-zero
    pool = [n for n in range(2, 121) if seven_smooth(n)]
    rng = random.Random(20150629)
    vectors = []
    while len(vectors) < 20:
        vec = tuple(rng.choice(pool) for _ in range(rng.randint(4, 6)))
        if 200_000 < math.prod(a - 1 for a in vec) <= 10**7:
            vectors.append(vec)
    ranks = [middle_betti(v) for v in vectors]
    assert [kernel_kappa(v) for v in vectors] == ranks
    assert sum(1 for r in ranks if r) >= 10


def test_middle_betti_known_values():
    assert middle_betti((7, 7, 7)) == 30        # Fermat septic curve, 2g = 30
    assert middle_betti((2, 4, 16)) == 2
    assert middle_betti((2, 2, 2, 2)) == 1
    assert middle_betti((3, 3, 3, 3)) == 6
    assert middle_betti((2, 3, 4, 16)) == 0


@pytest.mark.parametrize("function", [middle_betti, quotient_betti])
def test_middle_betti_refuses_too_many_subsets_up_front(function):
    # 2^19 subsets: refused before the inclusion-exclusion walk starts
    start = time.perf_counter()
    with pytest.raises(BudgetExceeded):
        function((3,) * 19)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (2, 4), (6, 9), (5, 7), (12, 18)])
def test_middle_betti_connected_sum_rule(p, q):
    assert middle_betti((2, 2, p, q)) == math.gcd(p, q) - 1


def test_betti_numbers_agree_on_every_permutation():
    # both oracles are permutation invariant
    for v in [(2, 3, 4, 16), (2, 2, 3, 3), (7, 7, 2), (2, 3, 3, 2, 6), (4, 6)]:
        kappa, qb = middle_betti(v), quotient_betti(v)
        for p in itertools.permutations(v):
            assert middle_betti(p) == kappa
            assert quotient_betti(p) == qb


def test_quotient_betti_surface_case():
    # q = 0: the quotient of L(a,b) is gcd(a,b) points
    qb = quotient_betti((3, 3))
    assert qb.ranks == (3,)
    assert qb.chi == 3
    assert quotient_betti((2, 3)).ranks == (1,)


def test_quotient_betti_curve_case():
    # q = 1: middle rank = 2 * genus of the quotient curve
    qb = quotient_betti((7, 7, 7))
    assert qb.ranks == (1, 30, 1)
    assert qb.chi == -28
    assert quotient_betti((2, 3, 7)).ranks == (1, 0, 1)


def test_quotient_betti_threefold_case():
    qb = quotient_betti((2, 2, 2, 2))
    assert qb.ranks == (1, 0, 2, 0, 1)
    assert qb.chi == 4


def test_quotient_betti_chi_is_alternating_sum():
    # chi is the closed form (q + 1) +- kappa; the multisets of {2, 3, 4, 6}
    # pin it to the ranks for 2 to 7 exponents and many middle ranks
    small = [v for n in range(2, 8)
             for v in itertools.combinations_with_replacement((2, 3, 4, 6), n)]
    for v in [(2, 3), (5, 5), (2, 3, 4), (4, 4, 4), (2, 3, 4, 16), (2, 2, 3, 3),
              *small]:
        qb = quotient_betti(v)
        assert qb.chi == sum((-1) ** i * r for i, r in enumerate(qb.ranks))
        assert qb.chi == chi_s1(v)


def test_chi_s1_worked_example():
    assert chi_s1((2, 3, 4, 16)) == 3
    assert chi_s1((2, 3, 4)) == 2
    assert chi_s1((2, 4, 16)) == 0
    assert chi_s1((2, 3)) == 1
    assert chi_s1((2, 4)) == 2


def test_sphere_tests():
    # two isolated vertices in the gcd graph
    assert is_homotopy_sphere((2, 3, 5, 7))
    # one isolated vertex plus an odd all-gcd-2 component
    assert is_homotopy_sphere((2, 2, 3, 4))
    assert not is_homotopy_sphere((2, 2, 3, 3))
    assert not is_homotopy_sphere((2, 3, 4, 16))
    assert not is_homotopy_sphere((2, 2, 2, 2, 2))
    assert is_rational_homology_sphere((2, 3, 4, 16))
    assert not is_rational_homology_sphere((2, 2, 3, 3))


def test_sphere_tests_dimension_guard():
    with pytest.raises(DimensionTooLow):
        is_homotopy_sphere((2, 3, 5))
    with pytest.raises(DimensionTooLow):
        is_rational_homology_sphere((2, 3, 5))


def test_homotopy_sphere_implies_trivial_rational_homology():
    for v in itertools.combinations_with_replacement(range(2, 8), 4):
        if is_homotopy_sphere(v):
            assert is_rational_homology_sphere(v), v
            assert middle_betti(v) == 0, v


@pytest.mark.parametrize("length", [4, 5])
def test_gcd_graph_criteria_against_components_oracle(length):
    # every multiset of 4 or 5 exponents in 2..12 (1001 and 3003 links)
    for v in itertools.combinations_with_replacement(range(2, 13), length):
        link = make_link(v)
        sphere, rhs = sphere_criteria_by_components(v)
        assert is_homotopy_sphere(link) is sphere, v
        assert is_rational_homology_sphere(link) is rhs, v
        coprime = all(len(c) == 1 for c in components_by_union_find(v))
        verdict = se_coprime_iff(link)
        assert (verdict is not CoprimeVerdict.NOT_APPLICABLE) is coprime, v
        if length == 4:
            t = diffeo_type_dim5(link)
            assert (t.kind is Dim5Kind.SPHERE) is sphere, v
            if t.kind is Dim5Kind.RATIONAL_HOMOLOGY_SPHERE:
                assert rhs, v


def b_numbers_by_definition(exponents):
    """b_i = gcd(lcm of the other exponents, a_i), one lcm per index."""
    a = exponents
    return tuple(
        math.gcd(math.lcm(*a[:i], *a[i + 1:]), x) for i, x in enumerate(a)
    )


def test_gcd_graph_criteria_against_oracles_on_random_vectors():
    # seeded vectors of 3..22 exponents in 2..60, so both sides of the 2^18
    # subset cap: a third uniform, a third from the primes and their
    # doubles, which makes isolated vertices common, and a third built
    # round an odd number of doubles of distinct primes (an odd all-2
    # component), one exponent then redrawn at random
    rng = random.Random(23)
    primes = [p for p in range(3, 31) if all(p % q for q in range(2, p))]
    pool = [2] + primes + [2 * p for p in primes]
    seen = collections.Counter()
    for k in range(3000):
        n = rng.randint(3, 22)
        if k % 3 == 0:
            v = [rng.randint(2, 60) for _ in range(n)]
        elif k % 3 == 1:
            v = [rng.choice(pool) for _ in range(n)]
        else:
            halves = rng.sample([1] + primes[:9], rng.choice((3, 5, 7, 9)))
            odds = [x for x in range(3, 61, 2)
                    if all(math.gcd(x, h) == 1 for h in halves)]
            v = [2 * h for h in halves]
            v += [rng.choice(odds) for _ in range(max(0, n - len(v)))]
            v[rng.randrange(len(v))] = rng.randint(2, 60)
            rng.shuffle(v)
        v, n = tuple(v), len(v)
        link = make_link(v)
        assert link.b_numbers == b_numbers_by_definition(v), v
        coprime = all(len(c) == 1 for c in components_by_union_find(v))
        verdict = se_coprime_iff(link)
        assert (verdict is not CoprimeVerdict.NOT_APPLICABLE) is coprime, v
        if n == 3:
            with pytest.raises(DimensionTooLow):
                is_homotopy_sphere(link)
            continue
        assert link._gcd_reading == gcd_graph_reading_by_components(v), v
        sphere, rhs = sphere_criteria_by_components(v)
        assert is_homotopy_sphere(link) is sphere, v
        assert is_rational_homology_sphere(link) is rhs, v
        seen[sphere, rhs, coprime, n > 18] += 1
        seen["odd_two", link._gcd_reading[1]] += 1
        seen["odd_two past the cap", link._gcd_reading[1] and n > 18] += 1
    # every reading the criteria tell apart occurs, past the cap too
    # (no 19 exponents in 2..60 are pairwise coprime: there are 17 primes)
    for key in [(True, True, True, False), (True, True, False, True),
                (False, True, False, True), (False, False, False, True),
                ("odd_two", True), ("odd_two past the cap", True)]:
        assert seen[key] > 0, (key, seen)


def test_gcd_graph_criteria_read_the_profile_b_numbers():
    link = make_link((2, 2, 2, 3, 3))
    assert link.b_numbers == (2, 2, 2, 3, 3)
    assert link._gcd_reading == (0, True)  # the evens, all gcds 2
    assert is_rational_homology_sphere(link)
    assert not is_homotopy_sphere(link)
    assert se_coprime_iff(link) is CoprimeVerdict.NOT_APPLICABLE
    # the criteria read what the profile keeps: the reading is kept too,
    # so inject into a fresh profile before first use
    link = make_link((2, 2, 2, 3, 3))
    link.__dict__["b_numbers"] = (2, 2, 2, 1, 3)
    assert is_homotopy_sphere(link)  # one isolated vertex and the evens
    assert se_coprime_iff(link) is CoprimeVerdict.NOT_APPLICABLE
    link = make_link((2, 2, 2, 3, 3))
    link.__dict__["b_numbers"] = (2, 2, 4, 3, 3)
    assert not is_rational_homology_sphere(link)
    link = make_link((2, 2, 2, 3, 3))
    link.__dict__["b_numbers"] = (1, 1, 1, 1, 1)
    assert is_homotopy_sphere(link)
    assert se_coprime_iff(link) is not CoprimeVerdict.NOT_APPLICABLE


def test_census_record_reads_the_walk_and_b_numbers_once(monkeypatch):
    # the subset-lattice walk (the mean Euler sum, middle rank and dim-5
    # kappa), the b-numbers (the SE tests and the moduli box) and their
    # gcd-graph reading (both sphere criteria): once per record; the
    # Stratum view of the walk is never built
    names = ["_lattice", "b_numbers", "_gcd_reading", "strata"]
    made = {name: [] for name in names}

    def counting(name, func):
        def wrapped(link):
            made[name].append(link.exponents)
            return func(link)
        return wrapped

    for name in names:
        prop = LinkProfile.__dict__[name]
        monkeypatch.setattr(prop, "func", counting(name, prop.func))
    vectors = [(2, 3, 4, 16), (2, 2, 3, 3), (2, 3, 5, 7), (2, 2, 2, 3, 5)]
    for v in vectors:
        build_record(v)
    assert made == {**{name: vectors for name in names}, "strata": []}
    # nor does a census
    records = enumerate_links(5, 9)
    assert len(records) == 330
    assert made["strata"] == []


def test_diffeo_type_sphere():
    t = diffeo_type_dim5((2, 3, 5, 7))
    assert t.kind is Dim5Kind.SPHERE
    assert str(t) == "Sphere5"


def test_diffeo_type_connected_sum():
    t = diffeo_type_dim5((2, 2, 3, 3))
    assert t.kind is Dim5Kind.CONNECTED_SUM
    assert t.count == 2
    assert str(t) == "ConnectedSumS2xS3(2)"
    assert diffeo_type_dim5((2, 2, 2, 2)).count == 1
    assert diffeo_type_dim5((2, 2, 6, 9)).count == 2


@pytest.mark.parametrize("v,name", [
    ((2, 3, 3, 9), "M2"),
    ((2, 3, 3, 15), "M2"),
    ((2, 3, 4, 16), "M3"),
    ((2, 3, 4, 8), "M3"),
    ((2, 3, 5, 6), "M5"),
    ((2, 3, 5, 12), "M5"),
    ((2, 3, 5, 18), "M5"),
    ((2, 3, 5, 24), "M5"),
    ((2, 3, 5, 10), "2M3"),
    ((2, 3, 5, 20), "2M3"),
    ((2, 3, 5, 15), "4M2"),
])
def test_diffeo_type_rhs_families(v, name):
    t = diffeo_type_dim5(v)
    assert t.kind is Dim5Kind.RATIONAL_HOMOLOGY_SPHERE
    assert t.name == name
    assert str(t) == f"RationalHomologySphere({name})"


def test_diffeo_type_order_insensitive():
    assert diffeo_type_dim5((16, 4, 3, 2)).name == "M3"
    assert diffeo_type_dim5((3, 2, 2, 3)).count == 2


def test_diffeo_type_unclassified():
    t = diffeo_type_dim5((3, 3, 3, 3))
    assert t.kind is Dim5Kind.UNCLASSIFIED
    assert t.middle_rank == 6
    assert str(t) == "Unclassified(middle_rank=6)"


def test_diffeo_type_needs_four_exponents():
    with pytest.raises(DimensionMismatch):
        diffeo_type_dim5((2, 3, 5))
    with pytest.raises(DimensionMismatch):
        diffeo_type_dim5((2, 3, 5, 7, 11))


CLASSIFIERS = [
    middle_betti,
    quotient_betti,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    diffeo_type_dim5,
]


@pytest.mark.parametrize("fn", CLASSIFIERS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("v", [
    (2, 3, 4, 16), (16, 3, 2, 4), (2, 2, 3, 3), (2, 3, 5, 31), (2, 3, 3, 9),
    (3, 3, 3, 3),
])
def test_classifiers_agree_on_tuple_and_link_profile(fn, v):
    assert fn(make_link(v)) == fn(v)


@pytest.mark.parametrize("fn", CLASSIFIERS, ids=lambda fn: fn.__name__)
@pytest.mark.parametrize("bad", [(1, 3, 4), (2, 3.0, 4)])
def test_classifiers_still_check_plain_tuples(fn, bad):
    with pytest.raises(InvalidExponent):
        fn(bad)


def sig_by_fractions(exponents):
    """Signature oracle with Fraction arithmetic instead of modular tables."""
    from fractions import Fraction

    sig = 0
    for x in itertools.product(*(range(1, a) for a in exponents)):
        r = sum(Fraction(xi, a) for xi, a in zip(x, exponents)) % 2
        if 0 < r < 1:
            sig += 1
        elif 1 < r < 2:
            sig -= 1
    return sig


@pytest.mark.parametrize("v", [
    (2, 2, 2, 2, 2), (2, 2, 2, 3, 5), (2, 2, 2, 2, 3), (2, 3, 3, 4, 5),
    (3, 3, 3, 3, 3),
])
def test_milnor_signature_against_fraction_oracle(v):
    assert milnor_signature_dim7(v) == sig_by_fractions(v)


def signature_or_refusal(v):
    try:
        return milnor_signature_dim7(v)
    except BudgetExceeded:
        return "refused"


def test_milnor_signature_against_the_cyclic_count(monkeypatch):
    # 2,000 seeded vectors (entries 2..30, box <= 2e5) and Brieskorn's 28
    # spheres against the mod-2d count.  At the default key cap both halves
    # are stored; at lowered caps a half is walked, its largest axis summed
    # in closed form where the kept half has fewer keys than it has points.
    # The greedy split, with the work check it left to each fill, is the
    # kernel as it was: every vector it answered at a lowered cap answers,
    # and so do the 262 and 1,889 it refused at caps 200 and 30
    rng = random.Random(20151027)
    vectors = [(2, 2, 2, 3, 6 * k - 1) for k in range(1, 29)]
    while len(vectors) < 2028:
        v = tuple(rng.randint(2, 30) for _ in range(5))
        if math.prod(v) <= 200_000:
            vectors.append(v)
    want = [cyclic_signature_dim7(v) for v in vectors]
    assert [milnor_signature_dim7(v) for v in vectors] == want
    greedy = {}
    with monkeypatch.context() as m:
        m.setattr(homology, "_split_box", greedy_split_box)
        m.setattr(homology, "_half_sums", greedy_half_sums)
        for cap in (200, 30):
            m.setattr(homology, "_MAX_HALF_KEYS", cap)
            greedy[cap] = [signature_or_refusal(v) for v in vectors]
    closed, walked = set(), set()
    axis_signs, split_box = homology._axis_signs, homology._split_box

    def spy_axis(*args):
        closed.add(v)
        return axis_signs(*args)

    def spy_split(*args, **kwargs):
        halves = split_box(*args, **kwargs)
        if halves[2]:
            walked.add(v)
        return halves

    monkeypatch.setattr(homology, "_axis_signs", spy_axis)
    monkeypatch.setattr(homology, "_split_box", spy_split)
    answered = 0
    for cap in (200, 30):
        monkeypatch.setattr(homology, "_MAX_HALF_KEYS", cap)
        for v, sigma, old in zip(vectors, want, greedy[cap]):
            try:
                assert milnor_signature_dim7(v) == sigma, (cap, v)
                answered += old == "refused"
            except BudgetExceeded:
                # only the split refuses, and only where the greedy did
                assert old == "refused", (cap, v)
                d = math.lcm(*v)
                with pytest.raises(BudgetExceeded):
                    split_box([d // a for a in v], [range(1, a) for a in v],
                              target=2 * d - 1)
    assert len(closed) >= 40 and len(walked - closed) >= 500
    assert {(2, 2, 2, 3, 6 * k - 1) for k in range(6, 29)} <= closed
    assert answered == 262 + 1889


def analyze7_vectors():
    """The 144 five-exponent links of the perfbench analyze7 workload's
    seeds 1-3, drawn by its own generator."""
    path = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [v for seed in (1, 2, 3) for v in workloads.analyze7_vectors(seed)]


def fill_bound(axes, target):
    """The split's bound on the steps to fill a half, in its axis order: each
    axis takes its points times the key bound of the axes before it,
    min(points, ceil((target + 1) / g)) for the gcd g of their steps."""
    bound, keys, points, g = 0, 1, 1, 0
    for w, rng in axes:
        bound += keys * len(rng)
        points, g = points * len(rng), math.gcd(g, w * rng.step)
        keys = min(points, -(-(target + 1) // g))
    return bound


def test_the_split_fills_the_analyze7_links_in_fewer_steps(monkeypatch):
    # both halves of the chosen split are stored, as some split stores
    # both, and each fills, mod t^d + 1, within the fill bound it was judged
    # by at key bound 2d; over the 144 analyze7 links the signature's fills
    # take at most 3/4 of the greedy split's steps
    vectors = analyze7_vectors()
    chosen, fill = homology._split_box, homology._half_sums
    for v in vectors:
        d = math.lcm(*v)
        steps, ranges = [d // a for a in v], [range(1, a) for a in v]
        kept, other, walked = chosen(steps, ranges, target=2 * d - 1)
        assert not walked, v
        for half in kept, other:
            assert fill_steps(half, d, True) <= fill_bound(half, 2 * d - 1), v
    calls = []

    def spy(axes, top, negacyclic=False):
        calls.append(fill_steps(axes, top, negacyclic))
        return fill(axes, top, negacyclic)

    monkeypatch.setattr(homology, "_half_sums", spy)
    totals = []
    for split in (greedy_split_box, chosen):
        monkeypatch.setattr(homology, "_split_box", split)
        calls.clear()
        for v in vectors:
            milnor_signature_dim7(v)
        totals.append(sum(calls))
    assert 4 * totals[1] <= 3 * totals[0], totals


def test_milnor_signature_known_values():
    # sigma(2,2,2,3,5) = 8: the Milnor generator of bP_8
    assert milnor_signature_dim7((2, 2, 2, 3, 5)) == 8
    assert milnor_signature_dim7((2, 2, 2, 2, 2)) == 1


def test_milnor_signature_one_large_axis():
    # the large axis alone makes one half of 1048578 points, over the key
    # cap but within the walk bound: that half is not stored, and its one
    # axis is summed in closed form against the one kept key.
    # Every sum is 2 + x/a with 0 < x/a < 1, so sigma = a - 1.
    a = 1048579
    assert milnor_signature_dim7((2, 2, 2, 2, a)) == a - 1


def test_milnor_signature_guards():
    with pytest.raises(DimensionMismatch):
        milnor_signature_dim7((2, 3, 4, 16))
    with pytest.raises(DimensionMismatch):
        exotic_class_dim7((2, 3, 5, 7))
    # one axis of 62499998 points: a walked half over the kernel's bound
    with pytest.raises(BudgetExceeded):
        milnor_signature_dim7((2, 2, 2, 2, 62499999))
    for bad in [(1, 2, 2, 3, 5), (2, 2, 2, 3, 5.0)]:
        with pytest.raises(InvalidExponent):
            milnor_signature_dim7(bad)


def test_exotic_class():
    assert exotic_class_dim7((2, 2, 2, 3, 5)) == 1
    # Brieskorn's 28 spheres: (2,2,2,3,6k-1) walks through all bP_8 classes
    seen = {exotic_class_dim7((2, 2, 2, 3, 6 * k - 1)) for k in range(1, 29)}
    assert seen == set(range(28))


def test_exotic_class_needs_homotopy_sphere():
    with pytest.raises(PreconditionFailed):
        exotic_class_dim7((2, 2, 2, 2, 2))
