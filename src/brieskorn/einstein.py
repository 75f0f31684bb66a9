"""Sasaki-Einstein existence criteria and deformation counts.

Everything here evaluates number-theoretic inequalities and lattice counts
in exact integer arithmetic; no metric is ever constructed.  The criteria
are the classical ones for Brieskorn-Pham links:

* two sufficient inequalities in the style of Boyer-Galicki-Kollar, using
  the auxiliary integers b_i = gcd(lcm_{j != i} a_j, a_i), which the link's
  profile keeps (``LinkProfile.b_numbers``);
* the Ghigi-Kollar sharp characterization in the pairwise-coprime case,
  which holds iff every b_i is 1: b_i = lcm_{j != i} gcd(a_i, a_j), as gcd
  distributes over lcm, so no gcd graph is built;
* the Lichnerowicz-type obstruction of Gauntlett-Martelli-Sparks-Yau,
  expressed through the weights.

Each inequality in sigma = sum 1/a_i is cleared of denominators through
sigma = W / d, W = sum w_i, so the tests compare integers, not Fractions.

The three are combined into a single verdict (Exists / Obstructed / Unknown)
by :func:`se_status`.  The moduli side counts weighted-homogeneous monomials:
the Kuranishi-style dimension h^0(O(d)) - sum_i h^0(O(w_i)) and the number
of admissible perturbation monomials z^b with 0 <= b_j < a_j of weighted
degree d, counted by meeting in the middle; h^0(O(d)) is the latter plus the
n + 1 pure powers z_j^{a_j}, the only ones of degree d with some b_j = a_j.
Both are reported; :class:`ModuliReport` says when the first is the moduli.

Both counts are exact sums sum_k b_k / a_k = 1 (target d) or 1/a_i (target
w_i) over monomials z^b, and most of the box cannot meet them.  Let beta_j =
gcd(a_j, lcm_{k != j} a_k), the auxiliary integer above, and q_j = a_j /
beta_j.  If p^e exactly divides a_j and the other exponents at most p^f, f <
e, multiply the sum by d = lcm(a): all terms but b_j d/a_j, and the right
side unless it is d/a_j, are divisible by p^(e-f), and d/a_j is prime to p.
So q_j divides b_j, or b_j - 1 for the target w_j: if q_i > 1, h^0(O(w_i)) =
1 (z_i alone).  Otherwise b_j = q_j c_j, 0 <= c_j < beta_j, and b_j w_j =
(d/D) c_j D/beta_j with D = lcm(beta): the counts are those of sum c_j
D/beta_j = D, or D/beta_i where beta_i = a_i, a function of the b-number
class (the sorted beta_i, negated where beta_i = a_i).
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from enum import Enum

from .errors import DimensionTooLow, InternalInconsistency
from . import homology
from .homology import _lattice_halves
# make_link: the doctests call it, perfbench's self-test reads it here
from .linkmodel import _as_link, make_link  # noqa: F401

__all__ = [
    "SEVerdict",
    "CoprimeVerdict",
    "SEReport",
    "se_sufficient",
    "se_coprime_iff",
    "lichnerowicz_obstructed",
    "se_status",
    "ModuliReport",
    "moduli_dimension",
]


def _require_surface_dim(link):
    if len(link.exponents) < 3:
        raise DimensionTooLow(
            "Sasaki-Einstein criteria need at least three exponents"
        )


class SEVerdict(Enum):
    EXISTS = "Exists"
    OBSTRUCTED = "Obstructed"
    UNKNOWN = "Unknown"


class CoprimeVerdict(Enum):
    YES = "Yes"
    NO = "No"
    NOT_APPLICABLE = "NotApplicable"


def se_sufficient(link):
    """The two sufficient inequalities, as a pair of booleans.

    With sigma = sum 1/a_i and n+1 exponents:

      first:   1 < sigma < 1 + (n/(n-1)) * min over { 1/a_i } and
               { 1/(b_i b_j) : i < j }
      second:  1 < sigma < 1 + (n/(n-1)) * min_i(1/a_i) * max_j(1/a_j)

    Either firing implies a Sasaki-Einstein metric exists.  Both compare
    integers: with W = sum w_i = d * sigma, sigma > 1 is W > d, and sigma <
    1 + n / ((n-1) M) is W (n-1) M < d ((n-1) M + n), where M = max(max_i
    a_i, max_{i<j} b_i b_j) for the first and max(a) min(a) for the second.

    >>> se_sufficient(make_link((2, 3, 11, 11)))
    (False, True)
    """
    link = _as_link(link)
    _require_surface_dim(link)
    a, d, w_sum = link.exponents, link.degree, sum(link.weights)
    if w_sum <= d:
        return (False, False)
    n = len(a) - 1
    b_lo, b_hi = sorted(link.b_numbers)[-2:]
    return tuple(
        w_sum * (n - 1) * m < d * ((n - 1) * m + n)
        for m in (max(max(a), b_lo * b_hi), max(a) * min(a))
    )


def se_coprime_iff(link):
    """Ghigi-Kollar: for pairwise coprime exponents the existence question
    is *equivalent* to 1 < sigma < 1 + n * min_i(1/a_i), which with W =
    sum w_i = d * sigma is d < W and W max(a) < d (max(a) + n).

    Returns Yes/No accordingly, or NotApplicable when some pair of exponents
    shares a factor, that is when some b-number b_i exceeds 1.

    >>> se_coprime_iff(make_link((2, 3, 5, 7)))
    <CoprimeVerdict.YES: 'Yes'>
    >>> se_coprime_iff(make_link((2, 3, 5, 61)))
    <CoprimeVerdict.NO: 'No'>
    """
    link = _as_link(link)
    _require_surface_dim(link)
    if any(b > 1 for b in link.b_numbers):  # some gcd(a_i, a_j) > 1
        return CoprimeVerdict.NOT_APPLICABLE
    a, d, w_sum = link.exponents, link.degree, sum(link.weights)
    if d < w_sum and w_sum * max(a) < d * (max(a) + len(a) - 1):
        return CoprimeVerdict.YES
    return CoprimeVerdict.NO


def lichnerowicz_obstructed(link):
    """Weight-form of the Lichnerowicz/Bishop volume obstruction:

        |w| - d >= n * min_i w_i   implies no Sasaki-Einstein metric.

    (Equality is included: the borderline of the underlying Fano-index bound
    is attained only by the round sphere, which no nontrivial link is.)

    >>> lichnerowicz_obstructed(make_link((2, 2, 2, 5)))
    True
    >>> lichnerowicz_obstructed(make_link((2, 2, 2, 3)))
    False
    """
    link = _as_link(link)
    _require_surface_dim(link)
    n = len(link.exponents) - 1
    return sum(link.weights) - link.degree >= n * min(link.weights)


@dataclass(frozen=True)
class SEReport:
    """Outcome of all Sasaki-Einstein criteria for one link.

    ``verdict`` is Exists when a sufficient criterion fires (or the coprime
    characterization says Yes), Obstructed when the Lichnerowicz bound or
    the coprime characterization rules a metric out, Unknown otherwise.
    Exists and Obstructed are mutually exclusive by construction; the code
    still cross-checks and treats a clash as an internal bug.
    """

    positivity: bool
    sufficient1: bool
    sufficient2: bool
    coprime_iff: CoprimeVerdict
    lichnerowicz_obstructed: bool
    verdict: SEVerdict


def se_status(link):
    """Combine all criteria into one :class:`SEReport`.

    >>> se_status(make_link((2, 3, 11, 11))).verdict
    <SEVerdict.EXISTS: 'Exists'>
    >>> se_status(make_link((2, 2, 2, 7))).verdict
    <SEVerdict.OBSTRUCTED: 'Obstructed'>
    >>> se_status(make_link((2, 2, 5, 5))).verdict
    <SEVerdict.UNKNOWN: 'Unknown'>
    """
    link = _as_link(link)
    _require_surface_dim(link)
    s1, s2 = se_sufficient(link)
    cop = se_coprime_iff(link)
    lich = lichnerowicz_obstructed(link)
    exists = s1 or s2 or cop is CoprimeVerdict.YES
    obstructed = lich or cop is CoprimeVerdict.NO
    if exists and obstructed:
        raise InternalInconsistency(
            f"criteria clash for {link.exponents}: "
            f"sufficient=({s1},{s2}) coprime={cop.value} lichnerowicz={lich}"
        )
    if exists:
        verdict = SEVerdict.EXISTS
    elif obstructed:
        verdict = SEVerdict.OBSTRUCTED
    else:
        verdict = SEVerdict.UNKNOWN
    return SEReport(
        positivity=sum(link.weights) > link.degree,  # sigma > 1
        sufficient1=s1,
        sufficient2=s2,
        coprime_iff=cop,
        lichnerowicz_obstructed=lich,
        verdict=verdict,
    )


# {b-number class: counts} of the census batch being built, set around each
# batch by tables._records_of; outside one, every count is fresh
_class_memo = ContextVar("_class_memo")


def _monomial_counts(link):
    """(perturbations, sum_i h^0(O(w_i))) of the link's b-number class (see
    :func:`moduli_dimension`) through ``_class_memo``: one kernel call over
    0 <= c_j < beta_j at steps D / beta_j, target D = lcm(beta), where only
    sums s <= max D / beta_i can meet the target of some beta_i = a_i."""
    a, d, beta = link.exponents, link.degree, link.b_numbers
    if d + 1 > homology._MAX_HALF_KEYS:
        # refuse what the kernel refuses on the unpruned box 0 <= b_j < a_j;
        # while d + 1 is within the key cap, no half of it is over that cap
        homology._split_box(link.weights, map(range, a), target=d)
    cls = tuple(sorted([-b if b == x else b for x, b in zip(a, beta)]))
    memo = _class_memo.get(None)
    if memo and cls in memo:
        return memo[cls]
    top = math.lcm(*beta)
    axes = [b for b in beta if b > 1]  # beta_j = 1 holds c_j = 0
    targets = [top // -b for b in cls if b < 0]
    kept, other = _lattice_halves([top // b for b in axes],
                                  [range(b) for b in axes], target=top)
    get, reach = kept.get, max(targets, default=0)
    perturbations, h0_w = 0, len(cls) - len(targets)  # q_i > 1: z_i alone
    for s, n in other:
        perturbations += n * get(top - s, 0)
        if s <= reach:
            for t in targets:
                h0_w += n * get(t - s, 0)
    if memo is not None:
        memo[cls] = perturbations, h0_w
    return perturbations, h0_w


@dataclass(frozen=True)
class ModuliReport:
    """Both deformation counts, side by side.

    ``kuranishi_dim`` = h^0(O(d)) - sum_i h^0(O(w_i)) on CP(w) and
    ``perturbation_count``, the admissible perturbation monomials, differ
    by h0_weight_sum - (n + 1): 8 vs 10 for (2,3,11,11).  When
    ``applicable`` (at most one exponent 2), ``kuranishi_dim`` is the local
    moduli dimension (Boyer-Galicki-Kollar, *Einstein metrics on spheres*,
    Ann. of Math. 2005): z_i -> z_i + eps g, deg g = w_i, moves the Fermat
    polynomial along the h0_weight_sum monomials g z_i^(a_i - 1), which are
    then pairwise distinct; for (2,3,11,11) they remove z_2^10 z_3 and
    z_2 z_3^10 from the perturbations.
    """

    applicable: bool
    h0_degree: int
    h0_weight_sum: int
    kuranishi_dim: int
    perturbation_count: int


def moduli_dimension(link):
    """Compute the :class:`ModuliReport` of a link.

    h^0(O(d)) = perturbation_count + n + 1: of the b with 0 <= b_j <= a_j and
    sum b_j w_j = d, one with some b_j = a_j has b_j w_j = d already, so it is
    one of the n + 1 pure powers; the rest are the perturbations.  h^0(O(w_i))
    counts b >= 0 with sum b_j w_j = w_i, and b_j <= max(w) / w_j =
    a_j / min(a) < a_j, so one kernel call over the box 0 <= b_j < a_j with
    target d answers the perturbations and every w_i at once.

    That call counts the link's b-number class (see the module docstring),
    whose key sets are those of the stride-pruned box scaled by D/d: the
    kernel fills them in as many steps, under a no larger key bound.
    Links with d + 1 over the key cap are refused first as the unpruned box
    0 <= b_j < a_j would be.

    >>> r = moduli_dimension(make_link((2, 3, 11, 11)))
    >>> (r.kuranishi_dim, r.perturbation_count)
    (8, 10)
    """
    link = _as_link(link)
    _require_surface_dim(link)
    perturbations, h0_w = _monomial_counts(link)
    h0_d = perturbations + len(link.exponents)
    kuranishi = h0_d - h0_w
    applicable = sum(1 for a in link.exponents if a == 2) <= 1
    if applicable and kuranishi < 0:
        raise InternalInconsistency(
            f"negative deformation dimension {kuranishi} for {link.exponents}"
        )
    return ModuliReport(
        applicable=applicable,
        h0_degree=h0_d,
        h0_weight_sum=h0_w,
        kuranishi_dim=kuranishi,
        perturbation_count=perturbations,
    )
