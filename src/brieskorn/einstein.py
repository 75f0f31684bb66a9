"""Sasaki-Einstein existence criteria and deformation counts.

Everything here evaluates number-theoretic inequalities and lattice counts
in exact arithmetic; no metric is ever constructed.  The criteria are the
classical ones for Brieskorn-Pham links:

* two sufficient inequalities in the style of Boyer-Galicki-Kollar, using
  the auxiliary integers b_i = gcd(lcm_{j != i} a_j, a_i);
* the Ghigi-Kollar sharp characterization in the pairwise-coprime case;
* the Lichnerowicz-type obstruction of Gauntlett-Martelli-Sparks-Yau,
  expressed through the weights.

The three are combined into a single verdict (Exists / Obstructed / Unknown)
by :func:`se_status`.  The moduli side counts weighted-homogeneous monomials:
the Kuranishi-style dimension h^0(O(d)) - sum_i h^0(O(w_i)) and the number
of admissible perturbation monomials z^b with 0 <= b_j < a_j of weighted
degree d, counted by meeting in the middle; h^0(O(d)) is the latter plus the
n + 1 pure powers z_j^{a_j}, the only ones of degree d with some b_j = a_j.
For some links the two counts disagree in the literature; both are reported.

Both counts are exact sums sum_k b_k / a_k = 1 (target d) or 1/a_i (target
w_i) over monomials z^b, and most of the box cannot meet them.  Let q_j =
a_j / gcd(a_j, lcm_{k != j} a_k), a_j over the auxiliary integer above.  If
p^e exactly divides a_j and every other exponent carries at most p^f, f < e,
multiply the sum by d = lcm(a): every term but b_j d/a_j, and the right-hand
side unless it is d/a_j, is divisible by p^(e-f), while d/a_j is prime to p.
So p^(e-f) divides b_j, or b_j - 1 when the target is w_j; over all such p,
q_j divides b_j, or b_j - 1.  The counts therefore visit only multiples of
q_j on axis j, a_j / q_j points instead of a_j, and a weight with q_i > 1
has h^0(O(w_i)) = 1, the monomial z_i alone.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations

from .errors import (
    BudgetExceeded,
    DimensionTooLow,
    InternalInconsistency,
    PreconditionFailed,
)
from . import homology
from .homology import _lattice_halves
from .linkmodel import _as_link, make_link, sylvester_sequence

__all__ = [
    "SEVerdict",
    "CoprimeVerdict",
    "SEReport",
    "se_sufficient",
    "se_coprime_iff",
    "lichnerowicz_obstructed",
    "se_status",
    "count_weighted_monomials",
    "count_perturbation_monomials",
    "ModuliReport",
    "moduli_dimension",
    "sylvester_numerator",
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


def _b_numbers(exponents):
    """b_i = gcd(lcm of the other exponents, a_i)."""
    return tuple(
        math.gcd(math.lcm(*exponents[:i], *exponents[i + 1:]), a)
        for i, a in enumerate(exponents)
    )


def se_sufficient(link):
    """The two sufficient inequalities, as a pair of booleans.

    With sigma = sum 1/a_i and n+1 exponents:

      first:   1 < sigma < 1 + (n/(n-1)) * min over { 1/a_i } and
               { 1/(b_i b_j) : i < j }
      second:  1 < sigma < 1 + (n/(n-1)) * min_i(1/a_i) * max_j(1/a_j)

    Either firing implies a Sasaki-Einstein metric exists.

    >>> se_sufficient(make_link((2, 3, 11, 11)))
    (False, True)
    """
    link = _as_link(link)
    _require_surface_dim(link)
    a = link.exponents
    n = len(a) - 1
    sigma = link.recip_sum
    if sigma <= 1:
        return (False, False)
    factor = Fraction(n, n - 1)
    bs = _b_numbers(a)
    small = min(
        min(Fraction(1, ai) for ai in a),
        min(Fraction(1, bs[i] * bs[j]) for i, j in combinations(range(len(a)), 2)),
    )
    first = sigma < 1 + factor * small
    second = sigma < 1 + factor * Fraction(1, max(a)) * Fraction(1, min(a))
    return (first, second)


def se_coprime_iff(link):
    """Ghigi-Kollar: for pairwise coprime exponents the existence question
    is *equivalent* to 1 < sigma < 1 + n * min_i(1/a_i).

    Returns Yes/No accordingly, or NotApplicable when some pair of exponents
    shares a factor.

    >>> se_coprime_iff(make_link((2, 3, 5, 7)))
    <CoprimeVerdict.YES: 'Yes'>
    >>> se_coprime_iff(make_link((2, 3, 5, 61)))
    <CoprimeVerdict.NO: 'No'>
    """
    link = _as_link(link)
    _require_surface_dim(link)
    if link.gcd_graph:
        return CoprimeVerdict.NOT_APPLICABLE
    a = link.exponents
    n = len(a) - 1
    sigma = link.recip_sum
    if 1 < sigma < 1 + Fraction(n, max(a)):
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
        positivity=link.recip_sum > 1,
        sufficient1=s1,
        sufficient2=s2,
        coprime_iff=cop,
        lichnerowicz_obstructed=lich,
        verdict=verdict,
    )


# Most cells, len(weights) * (degree + 1), of count_weighted_monomials's
# table.  Under a 1 GiB address-space cap at this bound, (1, 1) with degree
# 2^24 - 1 peaks at 0.64 GiB in 5.2 s (per cell, two weights hold the most;
# one, three and eight 1s peak at 0.52, 0.60 and 0.24 GiB), and (1, 1) with
# degree 2^25 fails with MemoryError.
_MAX_DP_CELLS = 1 << 25


def count_weighted_monomials(weights, degree):
    """Number of monomials of weighted degree ``degree``: the coefficient
    count #{ b : sum b_j w_j = degree } = h^0 of O(degree) on the weighted
    projective space CP(w).  A table of more than 2^25 cells,
    len(weights) * (degree + 1), raises BudgetExceeded before it is built.

    >>> count_weighted_monomials((33, 22, 6, 6), 66)
    14
    >>> count_weighted_monomials((1, 1), 3)
    4
    """
    weights = tuple(weights)
    if not weights:
        raise PreconditionFailed("need at least one weight")
    for w in weights:
        if not isinstance(w, int) or isinstance(w, bool) or w < 1:
            raise PreconditionFailed(f"weight {w!r} must be an integer >= 1")
    if degree < 0:
        raise PreconditionFailed(f"degree must be >= 0, got {degree}")
    if len(weights) * (degree + 1) > _MAX_DP_CELLS:
        raise BudgetExceeded(f"monomial-count table over {_MAX_DP_CELLS} cells")
    table = [1] + [0] * degree  # table[m] = #{ b : sum b_j w_j = m }
    for w in weights:
        for amount in range(w, degree + 1):
            table[amount] += table[amount - w]
    return table[degree]


def count_perturbation_monomials(link):
    """Number of monomials z^b of weighted degree d with 0 <= b_j < a_j.

    These are the perturbations of the defining polynomial that stay inside
    the same weighted-homogeneous family with isolated singularity (each
    variable's exponent stays below its own a_j), met in the middle.

    >>> count_perturbation_monomials(make_link((2, 3, 11, 11)))
    10
    >>> count_perturbation_monomials(make_link((2, 3, 5, 7)))
    0
    """
    return _monomial_counts(_as_link(link))[0]


def _monomial_counts(link):
    """(perturbations, sum_i h^0(O(w_i))) from one kernel call over the
    stride-pruned box (see :func:`moduli_dimension`); only sums s <= max(w)
    can meet some w_i."""
    a, w, d = link.exponents, link.weights, link.degree
    if d + 1 > homology._MAX_HALF_KEYS:
        # refuse what the kernel refuses on the unpruned box 0 <= b_j < a_j;
        # while d + 1 is within the key cap, it refuses nothing there
        homology._split_box(w, map(range, a), target=d)
    strides = [aj // bj for aj, bj in zip(a, _b_numbers(a))]
    # an axis with q_j = a_j holds b_j = 0 alone, so it adds nothing
    axes = [(x, range(0, aj, q)) for x, aj, q in zip(w, a, strides) if q < aj]
    kept, other = _lattice_halves([x for x, _ in axes], [r for _, r in axes], target=d)
    get, top = kept.get, max(w)
    weights = Counter(x for x, q in zip(w, strides) if q == 1).items()
    perturbations, h0_w = 0, sum(q > 1 for q in strides)
    for s, n in other:
        perturbations += n * get(d - s, 0)
        if s <= top:
            for x, m in weights:
                h0_w += n * m * get(x - s, 0)
    return perturbations, h0_w


@dataclass(frozen=True)
class ModuliReport:
    """Both deformation counts, side by side.

    ``kuranishi_dim`` = h^0(O(d)) - sum_i h^0(O(w_i)) on CP(w);
    ``perturbation_count`` = number of admissible perturbation monomials.
    The two measure the same moduli in different ways and are known to
    disagree for some links (e.g. 8 vs 10 for (2,3,11,11)); this package
    reports both and adjudicates neither.  ``applicable`` records whether
    the hypersurface-deformation count is justified for this link (at most
    one exponent equal to 2).
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

    That call visits only b_j divisible by q_j = a_j / gcd(a_j, lcm of the
    other exponents).  A prime power p^(e-f) of q_j has p^e exactly dividing
    a_j and at most p^f in the others; in sum_k b_k d/a_k = d or d/a_i every
    term but b_j d/a_j is divisible by p^(e-f), d/a_j is not divisible by p,
    and the right-hand side is divisible by p^(e-f) unless i = j.  So q_j
    divides every b_j counted, except that b_i = 1 mod q_i for the target
    w_i: when q_i > 1, b_i = 1 and h^0(O(w_i)) = 1, the monomial z_i.  The
    boxes of links with d + 1 over the kernel's key cap are still refused
    as the unpruned box 0 <= b_j < a_j would be.

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


def sylvester_numerator(n, a):
    """Numerator chi_m * |mu_P| of the mean Euler characteristic of the
    Sylvester link (2, 2c_0, ..., 2c_n, a), summed over its stratum table.

    For S a subset of {0..n}, a tail stratum {2, a} + {2c_j : j in S} has
    E = prod_{j not in S}(c_j - 1) and chi = |S| + 1; every other stratum is
    {2} + {2c_j : j in S} with S non-empty, E = (a - 1) prod_{j not in S}
    (c_j - 1) and chi = |S| + (|S| mod 2).  Every shift has the sign
    (-1)^(n+1), so the numerator is

        (-1)^(n+1) sum_S prod_{j not in S}(c_j - 1)
                         * [(|S| + 1) + (a - 1)(|S| + |S| mod 2)],

    which equals (-1)^(n+1) ((3P - 1) a + P) with P = (c_{n+1} - 1)/2, and
    mean_euler * |mu_P| of the link.

    Preconditions: n >= 0 and a >= 2 coprime to c_0..c_n.  Such an a is
    odd, so mu_P = 2(2(c_{n+1} - 1) - a) is never zero.

    >>> sylvester_numerator(1, 5)
    43
    """
    if n < 0:
        raise PreconditionFailed("need n >= 0")
    cs = sylvester_sequence(n + 1)
    if a < 2:
        raise PreconditionFailed(f"tail exponent {a} is below 2")
    for c in cs:
        if math.gcd(a, c) != 1:
            raise PreconditionFailed(
                f"tail exponent {a} shares a factor with sylvester term {c}"
            )
    total = 0
    for size in range(n + 2):
        for subset in combinations(range(n + 1), size):
            outside = math.prod(c - 1 for j, c in enumerate(cs) if j not in subset)
            total += outside * (size + 1 + (a - 1) * (size + size % 2))
    return (-1) ** (n + 1) * total
