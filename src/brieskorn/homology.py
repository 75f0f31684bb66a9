"""Homology of Brieskorn-Pham links and their S^1-quotients, and the
classical classifiers built on it (Brieskorn graph theorem, Smale's dim-5
classification, Milnor-plumbing signatures in dim 7).

Rational homology of a (2n-1)-dimensional link is concentrated in degrees
0, n-1, n, 2n-1; the only interesting rank is the middle one, computed here
by an inclusion-exclusion formula over subsets of the exponents (equivalently
by counting monodromy eigenvalue-one lattice points, which the tests use as
an independent oracle).  The S^1-quotient (a weighted projective complete
intersection) has Betti numbers obtained from the middle rank via the Gysin
sequence.  The classifiers take an exponent vector or a LinkProfile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from bisect import bisect_left
from itertools import accumulate, combinations, product, repeat

from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLow,
    InternalInconsistency,
    PreconditionFailed,
)
from .linkmodel import _MAX_SUBSETS, _as_link, _checked_exponents, make_link

__all__ = [
    "middle_betti",
    "QuotientBetti",
    "quotient_betti",
    "chi_s1",
    "is_rational_homology_sphere",
    "is_homotopy_sphere",
    "Dim5Kind",
    "Dim5Type",
    "diffeo_type_dim5",
    "milnor_signature_dim7",
    "exotic_class_dim7",
]


def middle_betti(exponents):
    """Rank of the middle homology of the link, by inclusion-exclusion.

    For exponents (a_0, ..., a_n) this is

        sum over subsets J of {0..n} of (-1)^{n+1-|J|} prod(a_J) / lcm(a_J)

    (empty subset contributes (-1)^{n+1}).  The value equals the number of
    monodromy eigenvalue-one lattice points
    #{ x : 1 <= x_j < a_j, sum x_j / a_j integral }, which is manifestly
    non-negative and permutation invariant.  Randell's and Milnor-Orlik's
    formulas for the characteristic polynomial of the monodromy reduce to
    this count over the rationals.  More than 2^18 subsets raise
    BudgetExceeded.

    >>> middle_betti((2, 2, 3, 3))
    2
    >>> middle_betti((2, 4))
    1
    """
    a = _as_link(exponents).exponents
    if 1 << len(a) > _MAX_SUBSETS:
        raise BudgetExceeded(f"2^{len(a)} index subsets, over {_MAX_SUBSETS}")
    n1 = len(a)
    total = 0
    for size in range(n1 + 1):
        sign = -1 if (n1 - size) % 2 else 1
        for subset in combinations(a, size):
            p, l = math.prod(subset), math.lcm(*subset)  # 1, 1 when empty
            if p % l:
                raise InternalInconsistency(
                    f"lcm {l} does not divide product {p}"
                )
            total += sign * (p // l)
    if total < 0:
        raise InternalInconsistency(
            f"middle Betti number came out negative ({total}) for {a}"
        )
    return total


@dataclass(frozen=True)
class QuotientBetti:
    """Betti numbers b_0..b_{2q} of the S^1-quotient, plus their
    alternating sum ``chi`` (the Euler characteristic)."""

    ranks: tuple
    chi: int


def quotient_betti(exponents):
    """Betti numbers of the quotient orbifold L(a)/S^1 over the rationals.

    With m+1 exponents the quotient has complex dimension q = m-1.  The Gysin
    sequence of S^1 -> L -> L/S^1 gives b_i = 1 for even i, 0 for odd i,
    except in the middle degree q where the middle homology of the link
    enters: b_q = 1 + kappa for q even, b_q = kappa for q odd (kappa the
    middle Betti number of the link).

    For q = 0 (two exponents) the quotient is a finite set of
    gcd(a_0, a_1) points, so ranks = (gcd,).

    >>> quotient_betti((2, 4, 16))
    QuotientBetti(ranks=(1, 2, 1), chi=0)
    >>> quotient_betti((2, 2, 3, 3)).ranks
    (1, 0, 3, 0, 1)
    """
    a = _as_link(exponents).exponents
    kappa = middle_betti(a)
    if len(a) == 2 and kappa != math.gcd(*a) - 1:
        raise InternalInconsistency(
            f"two-exponent middle rank {kappa} != gcd-1 = {math.gcd(*a) - 1}"
        )
    ranks = _quotient_ranks(len(a), kappa)
    chi = sum(r if i % 2 == 0 else -r for i, r in enumerate(ranks))
    if len(a) > 2 and (ranks[0] != 1 or ranks[-1] != 1):
        raise InternalInconsistency("quotient must have b_0 = b_top = 1")
    return QuotientBetti(ranks=ranks, chi=chi)


def _quotient_ranks(size, kappa):
    """:func:`quotient_betti` ranks from the exponent count and kappa."""
    q = size - 2
    ranks = [1 - i % 2 for i in range(2 * q + 1)]
    ranks[q] = kappa + 1 - q % 2
    return tuple(ranks)


def _quotient_chi(size, kappa):
    """The alternating sum of :func:`_quotient_ranks`, (q + 1) +- kappa."""
    q = size - 2
    return q + 1 - kappa if q % 2 else q + 1 + kappa


def chi_s1(exponents):
    """Euler characteristic of the S^1-quotient (alternating Betti sum).

    >>> chi_s1((2, 3, 4, 16))
    3
    >>> chi_s1((2, 4, 16))
    0
    """
    return quotient_betti(exponents).chi


def _gcd_graph_reading(exponents):
    """What both sphere criteria read off the link's gcd graph, kept with
    its profile (``LinkProfile._gcd_reading``): the number of isolated
    vertices, and whether some component of odd order >= 3 has all
    pairwise gcds exactly 2.  Needs dimension >= 5."""
    link = _as_link(exponents)
    if len(link.exponents) < 4:
        raise DimensionTooLow(
            "the gcd-graph sphere criteria apply to links of dimension >= 5 "
            f"(at least four exponents); got {len(link.exponents)}"
        )
    return link._gcd_reading


def is_rational_homology_sphere(exponents):
    """Brieskorn graph criterion for rational homology spheres.

    Build the graph on the exponents with an edge whenever gcd > 1.  The link
    is a rational homology sphere iff the graph has at least one isolated
    vertex, or some connected component with an odd number (>= 3) of
    vertices whose pairwise gcds all equal 2.

    >>> is_rational_homology_sphere((2, 2, 3, 3))
    False
    >>> is_rational_homology_sphere((2, 3, 3, 9))
    True
    """
    isolated, odd_two = _gcd_graph_reading(exponents)
    return isolated >= 1 or odd_two


def is_homotopy_sphere(exponents):
    """Brieskorn graph criterion for homotopy spheres.

    True iff the gcd graph has at least two isolated vertices, or exactly
    one isolated vertex together with a connected component of odd order
    >= 3 whose pairwise gcds all equal 2.

    >>> is_homotopy_sphere((2, 3, 5, 7))
    True
    >>> is_homotopy_sphere((2, 2, 2, 3))
    True
    >>> is_homotopy_sphere((2, 2, 3, 3))
    False
    """
    isolated, odd_two = _gcd_graph_reading(exponents)
    return isolated >= 2 or (isolated == 1 and odd_two)


class Dim5Kind(Enum):
    SPHERE = "Sphere5"
    CONNECTED_SUM = "ConnectedSumS2xS3"
    RATIONAL_HOMOLOGY_SPHERE = "RationalHomologySphere"
    UNCLASSIFIED = "Unclassified"


@dataclass(frozen=True)
class Dim5Type:
    """Diffeomorphism type of a 5-dimensional link, as far as recognized.

    ``kind`` says which branch applied; ``middle_rank`` is always the middle
    Betti number.  ``count`` is the number of S^2 x S^3 summands for the
    connected-sum branch; ``name`` is the rational-homology-sphere family
    label (M2, M3, M5, 2M3, 4M2) when one of the recognized residue families
    matched.
    """

    kind: Dim5Kind
    middle_rank: int
    count: int | None = None
    name: str | None = None

    def __str__(self):
        if self.kind is Dim5Kind.SPHERE:
            return "Sphere5"
        if self.kind is Dim5Kind.CONNECTED_SUM:
            return f"ConnectedSumS2xS3({self.count})"
        if self.kind is Dim5Kind.RATIONAL_HOMOLOGY_SPHERE:
            return f"RationalHomologySphere({self.name})"
        return f"Unclassified(middle_rank={self.middle_rank})"


def _rhs_family_name(sorted_exponents):
    """Residue-class family of Smale-Barden manifolds, if recognized.

    The recognized families (m >= smallest member, k >= 0):
      M2  = L(2,3,3,3+6k)
      M3  = L(2,3,4,4+12k) and L(2,3,4,8+12k)
      M5  = L(2,3,5,m), m = 6, 12, 18, 24 (mod 30)
      2M3 = L(2,3,5,m), m = 10, 20 (mod 30)
      4M2 = L(2,3,5,15+30k)
    """
    head, m = sorted_exponents[:3], sorted_exponents[3]
    if head == (2, 3, 3) and m % 6 == 3:
        return "M2"
    if head == (2, 3, 4) and m % 12 in (4, 8):
        return "M3"
    if head == (2, 3, 5):
        r = m % 30
        if r in (6, 12, 18, 24):
            return "M5"
        if r in (10, 20):
            return "2M3"
        if r == 15:
            return "4M2"
    return None


def diffeo_type_dim5(exponents):
    """Classify a 5-dimensional link up to diffeomorphism where possible.

    Branches, in order: homotopy sphere (Smale: the standard S^5);
    L(2,2,p,q) up to order, a connected sum of gcd(p,q)-1 copies of
    S^2 x S^3; the recognized rational-homology-sphere residue families;
    otherwise Unclassified carrying the middle rank.

    >>> str(diffeo_type_dim5((2, 2, 3, 3)))
    'ConnectedSumS2xS3(2)'
    >>> str(diffeo_type_dim5((2, 3, 4, 16)))
    'RationalHomologySphere(M3)'
    >>> str(diffeo_type_dim5((2, 3, 5, 31)))
    'Sphere5'
    """
    link = _as_link(exponents)
    a = link.exponents
    if len(a) != 4:
        raise DimensionMismatch(
            f"dim-5 classification needs four exponents, got {len(a)}"
        )
    kappa = link.strata[-1].middle_rank  # the principal stratum
    srt = tuple(sorted(a))
    if is_homotopy_sphere(link):
        if kappa != 0:
            raise InternalInconsistency(
                f"homotopy sphere {a} has middle rank {kappa}"
            )
        return Dim5Type(kind=Dim5Kind.SPHERE, middle_rank=0)
    if srt[0] == 2 and srt[1] == 2:
        g = math.gcd(srt[2], srt[3])
        if kappa != g - 1:
            raise InternalInconsistency(
                f"L(2,2,p,q) middle rank {kappa} != gcd-1 = {g - 1}"
            )
        return Dim5Type(
            kind=Dim5Kind.CONNECTED_SUM, middle_rank=kappa, count=g - 1
        )
    name = _rhs_family_name(srt)
    if name is not None:
        if not is_rational_homology_sphere(link) or kappa != 0:
            raise InternalInconsistency(
                f"family {name} member {a} is not a rational homology sphere"
            )
        return Dim5Type(
            kind=Dim5Kind.RATIONAL_HOMOLOGY_SPHERE, middle_rank=0, name=name
        )
    return Dim5Type(kind=Dim5Kind.UNCLASSIFIED, middle_rank=kappa)


# Most keys in one {partial sum: count} dict of the kernel (about 100 MB).
_MAX_HALF_KEYS = 1 << 20


def _half_sums(axes, modulus, top):
    """{sum of x_j * step_j over the axes (mod modulus), below top: count}."""
    sums = {0: 1}
    for w, rng in axes:
        nxt = {}
        get, lo, hi, step = nxt.get, rng.start * w, rng.stop * w, rng.step * w
        for s, count in sums.items():
            for v in range(s + lo, min(s + hi, top), step):
                v = v % modulus if modulus else v
                nxt[v] = get(v, 0) + count
        sums = nxt
    return sums


def _split_box(steps, ranges, modulus=None, target=None, walk=1 << 24):
    """Split the lattice box x_j in ranges[j] into two halves of balanced
    box size.  Returns (kept, other, walked): the (step, range) axes of the
    larger half whose bound min(half box, target + 1, modulus) is within
    _MAX_HALF_KEYS, those of the other half, and whether the other half is
    over that bound too, so walked point by point.  Both halves over the
    bound, or a walked half of more than ``walk`` points, raise
    BudgetExceeded."""
    top = math.inf if target is None else target + 1
    halves, sizes = [[], []], [1, 1]
    axes = sorted(zip(steps, ranges), key=lambda ax: len(ax[1]), reverse=True)
    for axis in axes:
        k = sizes[1] < sizes[0]
        halves[k].append(axis)
        sizes[k] *= len(axis[1])
    need = [min(n, top, modulus or math.inf) for n in sizes]
    # keep the half within the cap, else the larger box; half 0 on a tie
    cap = _MAX_HALF_KEYS
    k = (need[0] <= cap, sizes[0]) < (need[1] <= cap, sizes[1])
    walked = need[1 - k] > cap
    if need[k] > cap or walked and sizes[1 - k] > walk:
        raise BudgetExceeded(f"lattice half-boxes too large: need {need}")
    return halves[k], halves[1 - k], walked


def _lattice_halves(steps, ranges, modulus=None, target=None, walk=1 << 24):
    """Meet in the middle over the lattice box x_j in ranges[j] (each
    range's step honoured), split by :func:`_split_box`.  Returns (kept,
    other): the dict {sum of x_j * steps[j] (mod modulus), at most target:
    point count} of the kept half, and (sum, count) pairs of the other half,
    from its dict or, when walked, one point at a time (sums unreduced)."""
    kept, other, walked = _split_box(steps, ranges, modulus, target, walk)
    top = math.inf if target is None else target + 1
    sums = _half_sums(kept, modulus, top)
    if walked:
        axes = [range(r.start * w, r.stop * w, r.step * w) for w, r in other]
        return sums, zip(map(sum, product(*axes)), repeat(1))
    return sums, _half_sums(other, modulus, top).items()


def _check_box(a, budget):
    """BudgetExceeded when the signature's lattice box prod(a) is over
    ``budget``; the cached signature is held to the same bound."""
    box = math.prod(a)
    if box > budget:
        raise BudgetExceeded(f"lattice box {box} exceeds budget {budget}")


def milnor_signature_dim7(exponents, budget=10**9):
    """Signature of the Milnor fibre intersection form for a 7-dim link.

    Brieskorn's count over the open lattice box 0 < x_j < a_j:

        sigma = #{ x : sum x_j/a_j mod 2 in (0,1) }
              - #{ x : sum x_j/a_j mod 2 in (1,2) }

    (boundary points, i.e. integral or odd-integral sums, contribute zero;
    they are exactly the monodromy eigenvalue-one points).  With d = lcm(a),
    one half of the axes (see :func:`_lattice_halves`) is reduced to sorted
    residues of sum x_j d/a_j mod 2d, which each residue of the other half
    bisects for the arcs (0,d) and (d,2d).  A box above ``budget`` (default
    10^9 lattice points) raises BudgetExceeded.

    >>> milnor_signature_dim7((2, 2, 2, 3, 5))
    8
    >>> milnor_signature_dim7((2, 2, 2, 2, 2))
    1
    """
    a = _checked_exponents(exponents)
    if len(a) != 5:
        raise DimensionMismatch(
            f"signature is computed for 7-dimensional links "
            f"(five exponents); got {len(a)}"
        )
    _check_box(a, budget)
    d = math.lcm(*a)
    twod = 2 * d
    steps, ranges = [d // aj for aj in a], [range(1, aj) for aj in a]
    kept, other = _lattice_halves(steps, ranges, modulus=twod, walk=budget)
    keys = sorted(kept)
    prefix = [0, *accumulate(kept[s] for s in keys)]

    def below(x):  # kept residues s with s < x, counted periodically
        laps, x = divmod(x, twod)
        return laps * prefix[-1] + prefix[bisect_left(keys, x)]

    return sum(  # r + s mod 2d in (0, d) counts +1, in (d, 2d) counts -1
        n * (below(d - r) - below(1 - r) - below(twod - r) + below(d + 1 - r))
        for r, n in other
    )


def exotic_class_dim7(exponents, budget=10**9):
    """Class of a 7-dimensional homotopy-sphere link in bP_8 = Z/28.

    The group of homotopy 7-spheres bounding parallelizable manifolds is
    cyclic of order 28, detected by one eighth of the signature of a bounding
    parallelizable manifold (the Milnor fibre here).  Requires the link to be
    a homotopy sphere; its signature is then divisible by 8.

    >>> exotic_class_dim7((2, 2, 2, 3, 5))
    1
    """
    link = make_link(exponents)
    a = link.exponents
    if len(a) != 5:
        raise DimensionMismatch(
            f"exotic classes live in dim 7 (five exponents); got {len(a)}"
        )
    if not is_homotopy_sphere(link):
        raise PreconditionFailed(
            f"{a} is not a homotopy sphere; bP_8 class undefined"
        )
    sigma = milnor_signature_dim7(a, budget=budget)
    if sigma % 8:
        raise InternalInconsistency(
            f"homotopy-sphere signature {sigma} not divisible by 8"
        )
    return (sigma // 8) % 28
