"""Integral homology data: Betti ranks, sphere tests, classifiers, signatures."""

import collections
import itertools
import math
import random

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
    """Middle Betti rank from the lattice kernel: open-box points x with
    sum x_j d/a_j = 0 mod d, met in the middle."""
    d = math.lcm(*exponents)
    kept, other = _lattice_halves(
        [d // a for a in exponents], [range(1, a) for a in exponents], modulus=d
    )
    return sum(count * kept.get(-s % d, 0) for s, count in other)


def test_lattice_halves_walks_the_half_over_the_key_cap(monkeypatch):
    # with the key cap lowered to 10, the 50-point half cannot be stored:
    # it is walked one point at a time against the stored 6-key half
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 10)
    steps, ranges = [7, 5, 3], [range(50), range(2), range(1, 4)]
    brute = collections.Counter(
        sum(x * w for x, w in zip(p, steps)) % 40
        for p in itertools.product(*ranges)
    )
    kept, other = _lattice_halves(steps, ranges, modulus=40)
    pairs = list(other)
    assert len(kept) == 6 and len(pairs) == 50
    met = collections.Counter()
    for s, n in pairs:
        for t, m in kept.items():
            met[(s + t) % 40] += n * m
    assert met == brute
    kept, other = _lattice_halves(steps, ranges, target=100)
    assert sum(n * kept.get(100 - s, 0) for s, n in other) == sum(
        1 for p in itertools.product(*ranges)
        if sum(x * w for x, w in zip(p, steps)) == 100
    )
    with pytest.raises(BudgetExceeded):
        _lattice_halves(steps, ranges, modulus=40, walk=49)
    monkeypatch.setattr(homology, "_MAX_HALF_KEYS", 5)
    with pytest.raises(BudgetExceeded):
        _lattice_halves(steps, ranges, modulus=40)


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
    for v in [(2, 3), (5, 5), (2, 3, 4), (4, 4, 4), (2, 3, 4, 16), (2, 2, 3, 3)]:
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


def components_by_union_find(exponents):
    """Reference gcd-graph components: union every pair with gcd > 1."""
    parent = list(range(len(exponents)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in itertools.combinations(range(len(exponents)), 2):
        if math.gcd(exponents[i], exponents[j]) > 1:
            parent[find(i)] = find(j)
    comps = collections.defaultdict(list)
    for i in range(len(exponents)):
        comps[find(i)].append(i)
    return list(comps.values())


def sphere_criteria_by_components(exponents):
    """Reference (homotopy sphere, rational homology sphere) from the
    components: isolated vertices, and odd components (>= 3) whose pairwise
    gcds all equal 2."""
    comps = components_by_union_find(exponents)
    isolated = sum(1 for c in comps if len(c) == 1)
    odd_two = any(
        len(c) >= 3 and len(c) % 2 == 1 and all(
            math.gcd(exponents[i], exponents[j]) == 2
            for i, j in itertools.combinations(c, 2)
        )
        for c in comps
    )
    return (
        isolated >= 2 or (isolated == 1 and odd_two),
        isolated >= 1 or odd_two,
    )


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


def test_gcd_graph_criteria_read_the_profile_components():
    link = make_link((2, 2, 3, 3))
    assert link._gcd_components == ((0, 1), (2, 3))
    assert not is_homotopy_sphere(link)
    # the criteria read what the profile keeps, not a second walk: the
    # reading is kept too, so inject into a fresh profile before first use
    link = make_link((2, 2, 3, 3))
    link.__dict__["_gcd_components"] = ((0,), (1,), (2,), (3,))
    assert is_homotopy_sphere(link)
    assert se_coprime_iff(link) is CoprimeVerdict.NOT_APPLICABLE
    link.__dict__["gcd_graph"] = ()
    assert se_coprime_iff(link) is not CoprimeVerdict.NOT_APPLICABLE


def test_census_record_walks_gcd_graph_once(monkeypatch):
    # the gcd graph's components, their reading by both sphere criteria and
    # the b-numbers of the SE tests and the moduli box: once per record
    names = ["_gcd_components", "_gcd_reading", "b_numbers"]
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
    assert made == {name: vectors for name in names}


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


def test_milnor_signature_known_values():
    # sigma(2,2,2,3,5) = 8: the Milnor generator of bP_8
    assert milnor_signature_dim7((2, 2, 2, 3, 5)) == 8
    assert milnor_signature_dim7((2, 2, 2, 2, 2)) == 1


def test_milnor_signature_one_large_axis():
    # box 2^4 * 1048579 is far below the default budget, but the large axis
    # alone makes one half of 1048578 points: that half is walked, not
    # stored.  Every sum is 2 + x/a with 0 < x/a < 1, so sigma = a - 1.
    a = 1048579
    assert milnor_signature_dim7((2, 2, 2, 2, a)) == a - 1


def test_milnor_signature_guards():
    with pytest.raises(DimensionMismatch):
        milnor_signature_dim7((2, 3, 4, 16))
    with pytest.raises(DimensionMismatch):
        exotic_class_dim7((2, 3, 5, 7))
    with pytest.raises(BudgetExceeded):
        milnor_signature_dim7((2, 2, 2, 3, 5), budget=10)
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
