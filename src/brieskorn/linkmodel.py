"""Brieskorn-Pham links and their Reeb-orbit strata.

A Brieskorn-Pham link L(a) for an exponent vector a = (a_0, ..., a_n) is the
intersection of the singularity {z_0^{a_0} + ... + z_n^{a_n} = 0} with the
unit sphere in C^{n+1}.  It carries the contact structure induced by the
weighted Sasakian structure with weights w_j = d / a_j, where d = lcm(a_j).
All periods below are measured in units of the common circle action, i.e.
with the overall factor of 2*pi dropped.

The Reeb flow is periodic on each stratum: a point whose coordinate support
is exactly S \\subseteq {0..n} returns to itself after time T iff a_j | T for
every j in S.  For an integer T the fixed-point set of the time-T flow is the
sub-link on the index set

    I_T = { j : a_j | T },

which is itself a Brieskorn-Pham link, of dimension 2*|I_T| - 3.  The strata
of the flow are the distinct such sub-links with |I_T| >= 2, each recorded at
its minimal period lcm{ a_j : j in I_T }.

>>> lk = make_link((2, 3, 4, 16))
>>> lk.degree, lk.weights
(48, (24, 16, 12, 3))
>>> [ (s.min_period, s.exponents) for s in lk.strata ]
[(4, (2, 4)), (6, (2, 3)), (12, (2, 3, 4)), (16, (2, 4, 16)), (48, (2, 3, 4, 16))]
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, combinations, compress
from operator import itemgetter
from typing import NamedTuple

from .errors import BudgetExceeded, DimensionTooLow
from .errors import InternalInconsistency, InvalidExponent

__all__ = [
    "LinkProfile",
    "Stratum",
    "PeriodSpectrum",
    "parse_exponents",
    "canonical_exponents",
    "make_link",
    "index_set",
    "period_spectrum",
    "sylvester_sequence",
    "sylvester_links",
]


# A typed integer; int() alone also reads underscores and non-ASCII digits
_INTEGER = re.compile(r"[+-]?[0-9]+")


def parse_exponents(text):
    """Parse a comma-separated exponent vector such as ``"2,3,4,16"``.

    Each cell, stripped, must be an optionally signed run of ASCII digits;
    an empty cell is an error.

    >>> parse_exponents("2,3,4,16")
    (2, 3, 4, 16)
    """
    parts = [p.strip() for p in str(text).split(",")]
    for p in parts:
        if not _INTEGER.fullmatch(p):
            raise InvalidExponent(f"exponent {p!r} is not an integer")
    return tuple(map(int, parts))


def canonical_exponents(exponents):
    """Sorted (non-decreasing) copy of the vector, used as a dedup/cache key.

    The link type is invariant under permuting coordinates, so two vectors
    with the same multiset of exponents describe the same link.  User-facing
    functions preserve the order they were given; canonicalization is only
    for comparing, deduplicating and caching.
    """
    return tuple(sorted(exponents))


@dataclass(frozen=True)
class LinkProfile:
    """Basic numerical profile of a Brieskorn-Pham link.

    Attributes
    ----------
    exponents : tuple of int, in the order supplied by the caller
    degree : int, d = lcm of the exponents
    weights : tuple of int, w_j = d / a_j
    link_dim : int, 2n - 1 for n + 1 exponents
    recip_sum : Fraction, sum of 1/a_j; the link is "positive" (log Fano
        range) exactly when this exceeds 1

    The subset-lattice walk (:func:`_lattice_walk`), the Boyer-Galicki-Kollar
    numbers b_i and the reading of Brieskorn's gcd graph (an edge when
    gcd(a_i, a_j) > 1) are made on first use and shared by the invariants
    handed the profile; the :class:`Stratum` tuple is a view of its rows.
    The graph is read off the b-numbers: as b_i = lcm_{j != i} gcd(a_i,
    a_j), i is isolated iff b_i = 1; a component of odd order >= 3 with all
    pairwise gcds 2 holds every even exponent (any two share 2) and no odd
    one, so it is one iff the evens number an odd >= 3 and each has b_i = 2
    (then every gcd(a_i, a_j) with a_i even divides 2).
    """

    exponents: tuple
    degree: int
    weights: tuple
    link_dim: int
    recip_sum: Fraction

    @cached_property
    def b_numbers(self):
        """b_i = gcd(lcm of the other exponents, a_i), the auxiliary
        integers of the Boyer-Galicki-Kollar inequalities, from the prefix
        and suffix lcms, so in O(n) lcms and with no cap on n."""
        a = self.exponents
        before = [*accumulate(a, math.lcm, initial=1)][:-1]
        after = [*accumulate(a[:0:-1], math.lcm, initial=1)][::-1]
        return tuple(map(math.gcd, map(math.lcm, before, after), a))

    @cached_property
    def _gcd_reading(self):
        """(isolated vertices, whether some component of odd order >= 3
        has all pairwise gcds 2): what both sphere criteria read off the
        gcd graph, from the b-numbers as the class docstring shows."""
        b = self.b_numbers
        evens = [bi for ai, bi in zip(self.exponents, b) if ai % 2 == 0]
        odd_two = len(evens) >= 3 and len(evens) % 2 == 1 and set(evens) == {2}
        return b.count(1), odd_two

    @cached_property
    def _lattice(self):
        """(lcms, counts, kappas) of :func:`_lattice_walk`."""
        return _lattice_walk(self)

    @cached_property
    def _strata_rows(self):
        """(mask, lcm(a_S), E(S), kappa(S)) per stratum S of the walk, by mask."""
        lcms, counts, kappas = self._lattice
        return [(s, lcms[s], e, kappas[s])
                for s, e in enumerate(counts) if e and s & (s - 1)]

    @property
    def canonical(self):
        return canonical_exponents(self.exponents)

    @cached_property
    def strata(self):
        """All strata of the Reeb flow as :class:`Stratum` tuples, one per
        row of :attr:`_strata_rows`, sorted by minimal period (the principal
        stratum, at period d, last); no two strata share one, as I_T depends
        on T alone."""
        a = self.exponents
        return tuple(sorted(
            (Stratum(frozenset(j for j in range(len(a)) if s >> j & 1),
                     _mask_exponents(a, s), p, 2 * s.bit_count() - 3, e, kappa)
             for s, p, e, kappa in self._strata_rows),
            key=itemgetter(2),  # by min_period
        ))


def _checked_exponents(link_or_exponents):
    """A profile's exponents; a vector as a tuple, checked as make_link does."""
    if isinstance(link_or_exponents, LinkProfile):
        return link_or_exponents.exponents
    exponents = tuple(link_or_exponents)
    if len(exponents) < 2:
        raise InvalidExponent(
            f"need at least two exponents, got {len(exponents)}"
        )
    for a in exponents:
        if not isinstance(a, int) or isinstance(a, bool):
            raise InvalidExponent(f"exponent {a!r} is not an integer")
        if a < 2:
            raise InvalidExponent(f"exponent {a} is below 2")
    return exponents


def make_link(exponents):
    """Validate an exponent vector and compute its :class:`LinkProfile`.

    Every entry must be an integer >= 2 and there must be at least two of
    them.  (Classifiers and Reeb-orbit machinery impose stronger dimension
    requirements of their own; a two-exponent vector still has a meaningful
    degree/weight/homology profile.)  With d = lcm(a) and w_j = d / a_j,
    sum 1/a_j = sum w_j / d, so ``recip_sum`` is one Fraction(sum(w), d).

    >>> make_link((2, 2, 2, 2)).weights
    (1, 1, 1, 1)
    >>> make_link((2, 3, 4, 16)).recip_sum
    Fraction(55, 48)
    """
    exponents = _checked_exponents(exponents)
    d = math.lcm(*exponents)
    weights = tuple(d // a for a in exponents)
    return LinkProfile(
        exponents=exponents,
        degree=d,
        weights=weights,
        link_dim=2 * len(exponents) - 3,
        recip_sum=Fraction(sum(weights), d),
    )


def _as_link(link_or_exponents):
    """A :class:`LinkProfile` as it is; an exponent vector via make_link."""
    if isinstance(link_or_exponents, LinkProfile):
        return link_or_exponents
    return make_link(link_or_exponents)


def index_set(link, period):
    """I_T = indices j with a_j | T: the coordinate support fixed at time T."""
    return frozenset(
        j for j, a in enumerate(link.exponents) if period % a == 0
    )


class Stratum(NamedTuple):
    """One stratum of the Reeb flow: a sub-link fixed by the time-T map.

    Attributes
    ----------
    index_set : frozenset of coordinate indices (I_T)
    exponents : the sub-link's exponents, in ambient index order
    min_period : lcm of the sub-link's exponents; the stratum appears in the
        period spectrum exactly at the multiples of this
    dim : 2*|I_T| - 3, the real dimension of the sub-link
    period_count : E(S) = #{1 <= T <= d : I_T = S}, the periods it labels
    middle_rank : kappa(S), the sub-link's middle Betti number
    """

    index_set: frozenset
    exponents: tuple
    min_period: int
    dim: int
    period_count: int
    middle_rank: int


# Most index subsets 2^(n+1) a subset walk may visit (about a second); it
# is checked before anything is allocated.
_MAX_SUBSETS = 1 << 18

# Most index subsets of a lattice whose shape is kept.  The shape of the
# lattice of n positions holds n * 2^(n-1) Moebius pairs and 2^n walk steps:
# for 2^n <= 256 (n <= 8 exponents) all kept shapes are a few thousand small
# tuples, while one for n = 18 would hold 2.4M pairs.  Past it, none is kept.
_MAX_KEPT_SHAPE = 1 << 8
_LATTICE_SHAPES = {}  # n -> (Moebius pairs, walk steps), n <= 8


def _moebius_pairs(n):
    """(S minus j, S) for each index j and each mask S holding j, j-major:
    the steps of the per-index Moebius transforms, in order."""
    return (
        (lo, lo + b)
        for b in (1 << j for j in range(n))
        for base in range(0, 1 << n, 2 * b)
        for lo in range(base, base + b)
    )


def _lattice_shape(n):
    """The plan of a walk over the subset lattice of n positions, which
    depends on n alone: its Moebius pairs, and for each mask S > 0 in order
    the walk step (S minus its lowest index, that index).  Shared by every
    link with n exponents when 2^n <= 256; larger arities get generators,
    so a walk keeps no state."""
    shape = _LATTICE_SHAPES.get(n)
    if shape is not None:
        return shape
    steps = ((s & (s - 1), (s & -s).bit_length() - 1) for s in range(1, 1 << n))
    if 1 << n > _MAX_KEPT_SHAPE:
        return _moebius_pairs(n), steps
    return _LATTICE_SHAPES.setdefault(n, (tuple(_moebius_pairs(n)), tuple(steps)))


def _lattice_walk(link):
    """(lcms, counts, kappas), each a list indexed by the bit mask of an
    index subset S: lcm(a_S), E(S) = #{1 <= T <= d : I_T = S} and kappa(S),
    the sub-link's middle Betti number; the principal stratum is the last
    entry of each; its strata are the rows ``LinkProfile._strata_rows``.

    One walk over the 2^(n+1) subsets, taken over positions: with R the
    set S minus its lowest index j and g = gcd(lcm(a_R), a_j), lcm(a_S) is
    lcm(a_R) / g * a_j and so prod(a_S) / lcm(a_S) is prod(a_R) / lcm(a_R)
    * g.  Per index, Moebius transforms turn #{T : S within I_T} = d /
    lcm(a_S) into E(S) and prod(a_S) / lcm(a_S) into kappa(S) (see
    middle_betti).  The walk steps and the masks those transforms pair
    depend on n alone: :func:`_lattice_shape` plans them once per arity and
    shares the plan, so the walk does only the per-link arithmetic.  More
    than 2^18 subsets raise BudgetExceeded before anything is allocated.
    """
    a = link.exponents
    if len(a) < 3:
        raise DimensionTooLow(
            "stratum enumeration needs a link of dimension >= 3 "
            f"(at least three exponents); got {len(a)}"
        )
    if 1 << len(a) > _MAX_SUBSETS:
        raise BudgetExceeded(f"2^{len(a)} index subsets, over {_MAX_SUBSETS}")
    pairs, steps = _lattice_shape(len(a))
    lcms, kappas = [1], [1]  # indexed by the bit mask of S
    for rest, j in steps:
        t = lcms[rest]
        g = math.gcd(t, a[j])
        lcms.append(t // g * a[j])
        kappas.append(kappas[rest] * g)  # prod(a_S) / lcm(a_S), for now
    d = lcms[-1]
    counts = [d // t for t in lcms]
    for lo, hi in pairs:
        counts[lo] -= counts[hi]
        kappas[hi] -= kappas[lo]
    if d != link.degree or counts[-1] != 1:
        raise InternalInconsistency("principal stratum missing or misplaced")
    if min(kappas) < 0:  # each kappa(S) counts lattice points
        raise InternalInconsistency(f"negative sub-link middle rank in {a}")
    return lcms, counts, kappas


def _mask_exponents(exponents, mask):
    """The exponents a_j whose bit j is set in ``mask``, in index order."""
    return tuple(a for j, a in enumerate(exponents) if mask >> j & 1)


@dataclass(frozen=True)
class PeriodSpectrum:
    """Every period T <= d at which some stratum is fixed, with its label.

    ``entries`` is a tuple of (T, stratum) sorted by T; the stratum labeling
    T is the one with index set I_T.  The spectrum consists of all multiples
    of the strata minimal periods up to and including the principal period,
    and it is periodic: I_{T + d} = I_T.
    """

    entries: tuple
    principal_period: int


def _stratum_periods(exponents, p, start, stop):
    """The periods in [start, stop] labelled by the stratum S of minimal
    period p of the link with these ``exponents``, as a pair: the range of
    multiples k * p there, and a bytearray holding, per multiple, 1 when no
    exponent outside S divides it (for those, and only those, I_T is S) and
    0 otherwise.  ``itertools.compress`` of the pair walks them in order;
    ``count(1)`` of the bytearray counts them.

    A sieve: the exponents outside S are those that do not divide p, as S
    is I_p, and such an a divides k * p exactly when a / gcd(a, p) divides
    k, so each clears its multiples by one slice assignment.  The work is
    one byte per candidate period.
    """
    first = -(-start // p)
    periods = range(first * p, stop + 1, p)
    n = len(periods)
    keep = bytearray(b"\x01") * n
    for a in exponents:
        if p % a:
            step = a // math.gcd(a, p)
            i = -first % step  # k = first + i is the first multiple of step
            keep[i::step] = b"\x00" * ((n - 1 - i) // step + 1)
    return periods, keep


def _period_work(periods, start, stop):
    """Candidate periods in [start, stop], the multiples there of each of
    the minimal ``periods``: :func:`_stratum_periods` sieves one byte per
    candidate, and every walk checks this against its bound first."""
    before = start - 1  # each term is <= 0 when stop < start
    return max(0, sum(stop // p - before // p for p in periods))


# Most candidate periods, sum d/T_i, the spectrum may hold.  An entry costs
# about 110 bytes at the peak (its (T, stratum) tuple, T, the list and
# tuple slots, the sort's keys).  Under a 1 GiB address-space cap
# (2, 2, 7340031), with 7,340,031 entries at this bound, peaks at 0.80 GiB;
# (2, 2, 9400009) fails with MemoryError.
_MAX_SPECTRUM_ENTRIES = 7 << 20


def period_spectrum(link):
    """Compute the :class:`PeriodSpectrum` of one principal period.

    Built stratum by stratum from the multiples of its minimal period (never
    by scanning 1..d, which is hopeless when d is large and the minimal
    periods are small).  Every period with |I_T| >= 2 is labelled once,
    because the strata are closed under T -> I_T.  When the candidate
    periods, sum d/T_i over the strata, are over 7 * 2^20 BudgetExceeded
    is raised before any entry is built.
    """
    link = _as_link(link)
    a, d = link.exponents, link.degree
    work = _period_work((s.min_period for s in link.strata), 1, d)
    if work > _MAX_SPECTRUM_ENTRIES:
        raise BudgetExceeded(
            f"period spectrum of {link.exponents} has up to {work} entries, "
            f"over {_MAX_SPECTRUM_ENTRIES}"
        )
    entries = [(t, s) for s in link.strata
               for t in compress(*_stratum_periods(a, s.min_period, 1, d))]
    entries.sort(key=lambda e: e[0])
    return PeriodSpectrum(entries=tuple(entries), principal_period=d)


def sylvester_sequence(count):
    """First ``count`` terms of Sylvester's sequence 2, 3, 7, 43, 1807, ...

    Defined by c_0 = 2 and c_{i+1} = c_i(c_i - 1) + 1; equivalently
    c_i = 1 + prod_{j<i} c_j, which makes the terms pairwise coprime (any
    common divisor of c_i and c_j, j < i, divides 1).  Coprimality is
    re-checked here for the terms we ever use.

    >>> sylvester_sequence(5)
    (2, 3, 7, 43, 1807)
    """
    if count < 1:
        raise InvalidExponent("sylvester_sequence needs count >= 1")
    seq = [2]
    while len(seq) < count:
        c = seq[-1]
        seq.append(c * (c - 1) + 1)
    for i, j in combinations(range(min(count, 7)), 2):
        if math.gcd(seq[i], seq[j]) != 1:
            raise InternalInconsistency(
                f"sylvester terms c_{i}, c_{j} are not coprime"
            )
    return tuple(seq)


def sylvester_links(n, a_max):
    """Exponent vectors (2, 2c_0, ..., 2c_n, a) for admissible a <= a_max.

    The tail exponent a ranges over 2 <= a <= a_max with gcd(a, c_i) = 1 for
    all i <= n (in particular a is odd, since c_0 = 2).  These links have
    dimension 2n + 3.

    >>> sylvester_links(1, 5)
    [(2, 4, 6, 5)]
    >>> sylvester_links(0, 3)
    [(2, 4, 3)]
    """
    if n < 0:
        raise InvalidExponent("sylvester_links needs n >= 0")
    cs = sylvester_sequence(n + 1)
    head = (2,) + tuple(2 * c for c in cs)
    out = []
    for a in range(2, a_max + 1):
        if all(math.gcd(a, c) == 1 for c in cs):
            out.append(head + (a,))
    return out
