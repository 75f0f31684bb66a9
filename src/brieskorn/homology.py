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
from collections import Counter
from itertools import accumulate, combinations, repeat

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
    link = _as_link(exponents)
    a = link.exponents
    kappa = middle_betti(link)
    if len(a) == 2 and kappa != math.gcd(*a) - 1:
        raise InternalInconsistency(
            f"two-exponent middle rank {kappa} != gcd-1 = {math.gcd(*a) - 1}"
        )
    ranks = _quotient_ranks(len(a), kappa)
    if len(a) > 2 and (ranks[0] != 1 or ranks[-1] != 1):
        raise InternalInconsistency("quotient must have b_0 = b_top = 1")
    return QuotientBetti(ranks=ranks, chi=_quotient_chi(len(a), kappa))


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
    pairwise gcds exactly 2.  Both are read off the b-numbers b_i =
    gcd(a_i, lcm of the others) = lcm_{j != i} gcd(a_i, a_j), with no graph
    built: i is isolated iff b_i = 1, and such a component can only be the
    set of even exponents, which is one iff it has odd size >= 3 and each
    of its b_i is 2.  Needs dimension >= 5."""
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
    kappa = link._lattice[2][-1]  # the principal stratum's kappa
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


# Most keys in one {partial sum: count} dict of the kernel (about 100 MB),
# and most steps to fill one half, or points to walk one (a few seconds).
_MAX_HALF_KEYS = 1 << 20
_MAX_HALF_WORK = 1 << 24


def _half_sums(axes, top, negacyclic=False):
    """{sum of x_j * step_j over the axes, below top: count}.  Negacyclic,
    they are read in Z[t]/(t^top + 1): a sum past top wraps to sum - top,
    count negated, once, as each x_j * step_j < top.  The axes are filled
    in the order given, each costing its length times the keys so far:
    :func:`_split_box` orders them shortest first and bounds that cost."""
    sums = {0: 1}
    for w, rng in axes:
        nxt = {}
        get, lo, hi, step = nxt.get, rng.start * w, rng.stop * w, rng.step * w
        for s, count in sums.items():
            below = range(s + lo, min(s + hi, top), step)
            for v in below:
                nxt[v] = get(v, 0) + count
            if negacyclic:  # t^top = -1
                for v in range(s + lo - top, s + hi - top, step)[len(below):]:
                    nxt[v] = get(v, 0) - count
        sums = nxt
    return sums


def _split_box(steps, ranges, target=None):
    """Split the lattice box x_j in ranges[j] into two halves of axes.  A
    half holds at most min(points, ceil((target + 1) / g)) sums, g the gcd
    of step x range step over its axes, and filling it shortest axis first
    takes at most its fill bound: per axis, its points times that bound of
    the axes before it.  Keeps a half within _MAX_HALF_KEYS keys and
    _MAX_HALF_WORK fill; stores the other so too if any split allows, else
    walks it, at most _MAX_HALF_WORK points counted as its fill; then takes
    the least total fill, then the most kept keys.  Equal axes are split by
    count; over _MAX_SUBSETS splits, or none, raise BudgetExceeded.  Gives
    (kept, other, walked), axes shortest first, a walked half longest first."""
    groups = sorted(Counter(zip(steps, ranges)).items(),
                    key=lambda group: len(group[0][1]))
    if (splits := math.prod(n + 1 for _, n in groups)) > _MAX_SUBSETS:
        raise BudgetExceeded(f"{splits} splits, over {_MAX_SUBSETS}")
    # halves within both bounds (past one, a half stays past it), as (sum
    # c_i r_i for c_i axes of group i in mixed radix, keys, points, gcd, fill)
    halves, radix, box = [(0, 1, 1, 0, 0)], 1, 1
    for (w, rng), n in groups:
        size, grown = len(rng), []
        for half in halves:
            grown.append(half)
            i, keys, points, g, fill = half
            g = math.gcd(g, w * rng.step)
            bound = math.inf if target is None else target // g + 1
            for _ in range(n):
                fill, points = fill + keys * size, points * size
                keys = points if points < bound else bound
                if keys > _MAX_HALF_KEYS or fill > _MAX_HALF_WORK:
                    break
                grown.append((i := i + radix, keys, points, g, fill))
        halves, radix, box = grown, radix * (n + 1), box * size ** n
    fills = {half[0]: half[4] for half in halves}
    best, least_walk = ((True, math.inf, 0), None), math.inf
    for i, keys, points, _, fill in halves:
        walked = (other := fills.get(radix - 1 - i)) is None
        if walked:
            other = box // max(points, 1)  # points is 0 only if box is
            if other > _MAX_HALF_WORK:
                least_walk = min(least_walk, other)
                continue
        if (rank := (walked, fill + other, -keys)) < best[0]:
            best = rank, i
    (walked, _, _), i = best
    if i is None:
        raise BudgetExceeded(f"lattice half of {least_walk} points to walk, "
                             f"over {_MAX_HALF_WORK}")
    kept, other = [], []
    for axis, n in groups:
        i, c = divmod(i, n + 1)
        kept, other = kept + [axis] * c, other + [axis] * (n - c)
    return kept, other[::-1] if walked else other, walked


def _lattice_halves(steps, ranges, target=None):
    """Meet in the middle over the lattice box x_j in ranges[j] (each range's
    step honoured), halved by :func:`_split_box` and filled within its bounds.
    Returns (kept, other): the :func:`_half_sums` dict of the kept half, at
    most target, and the other half's (sum, count) pairs, stored or walked."""
    kept, other, walked = _split_box(steps, ranges, target)
    top = math.inf if target is None else target + 1
    sums = _half_sums(kept, top)
    if not walked:
        return sums, _half_sums(other, top).items()
    walk = (0,)  # one generator per axis, in product order; none stores it
    for w, r in other:
        axis = range(r.start * w, r.stop * w, r.step * w)
        walk = (s + x for s, xs in zip(walk, repeat(axis)) for x in xs)
    return sums, zip(walk, repeat(1))


def _axis_signs(y, w, a):
    """Sum over 0 < x < a of (-1)^floor((y + x w)/aw): (a - 1) - 2 sum_x
    floor((y + x w)/aw) + 4 sum_x floor((y + x w)/2aw), floor sums (the
    AtCoder Library's floor_sum) of one divmod each as w divides aw: of
    q = y // w, a - 1 - q % a points have floor q // a, q % a one more."""
    q = y // w
    return (-1) ** (q // a) * (a - 1 - 2 * (q % a))


def milnor_signature_dim7(exponents):
    """Signature of the Milnor fibre intersection form for a 7-dim link.

    Brieskorn's count over the open lattice box 0 < x_j < a_j:

        sigma = #{ x : sum x_j/a_j mod 2 in (0,1) }
              - #{ x : sum x_j/a_j mod 2 in (1,2) }

    (boundary points, i.e. integral or odd-integral sums, contribute zero;
    they are exactly the monodromy eigenvalue-one points).  With d = lcm(a)
    and y = sum x_j d/a_j, sigma sums (-1)^floor(y/d), the sign of t^y in
    Z[t]/(t^d + 1), over the whole box: x -> a - x takes y = kd to (5 - k)d,
    so the boundary points cancel in pairs.  Each half of the axes reduces
    there, split by :func:`_split_box` at target 2d - 1: a half whose steps
    d/a_j have gcd g keeps at most d/g keys mod t^d + 1, within its key
    bound 2d/g, so it fills within its fill bound.  With Pre and Tot the
    prefix sums and total of the kept half's counts, each key r of the
    other half, N_r points, takes one bisect: sigma = sum_r N_r (2 Pre(d -
    r) - Tot).  A walked half sums its longest axis by :func:`_axis_signs`,
    or walks it when the kept half has at least as many keys.  A box the
    split refuses raises BudgetExceeded.

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
    d = math.lcm(*a)
    steps, ranges = [d // aj for aj in a], [range(1, aj) for aj in a]
    kept_axes, other, walked = _split_box(steps, ranges, target=2 * d - 1)
    kept = _half_sums(kept_axes, d, negacyclic=True)
    pairs = _half_sums(other[walked:], d, negacyclic=True).items()
    if walked:  # its longest axis x w (x in xs) on each key c of the rest
        w, xs = other[0]
        if len(kept) < len(xs):
            return sum(n * m * _axis_signs(c + s, w, xs.stop)
                       for c, m in pairs for s, n in kept.items())
        pairs = ((y % d, -m if y >= d else m)
                 for c, m in pairs for y in range(c + w, c + xs.stop * w, w))
    keys = sorted(kept)
    prefix = [0, *accumulate(kept[s] for s in keys)]
    total = prefix[-1]  # r meets the kept keys below d - r with +1, else -1
    return sum(n * (2 * prefix[bisect_left(keys, d - r)] - total)
               for r, n in pairs)


def exotic_class_dim7(exponents):
    """Class of a 7-dimensional homotopy-sphere link in bP_8 = Z/28.

    The group of homotopy 7-spheres bounding parallelizable manifolds is
    cyclic of order 28, detected by one eighth of the signature of a bounding
    parallelizable manifold (the Milnor fibre here).  Requires the link to be
    a homotopy sphere; its signature is then divisible by 8.

    >>> exotic_class_dim7((2, 2, 2, 3, 5))
    1
    """
    link = _as_link(exponents)
    a = link.exponents
    if len(a) != 5:
        raise DimensionMismatch(
            f"exotic classes live in dim 7 (five exponents); got {len(a)}"
        )
    if not is_homotopy_sphere(link):
        raise PreconditionFailed(
            f"{a} is not a homotopy sphere; bP_8 class undefined"
        )
    sigma = milnor_signature_dim7(a)
    if sigma % 8:
        raise InternalInconsistency(
            f"homotopy-sphere signature {sigma} not divisible by 8"
        )
    return (sigma // 8) % 28
