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
>>> [ (s.min_period, s.exponents) for s in strata(lk) ]
[(4, (2, 4)), (6, (2, 3)), (12, (2, 3, 4)), (16, (2, 4, 16)), (48, (2, 3, 4, 16))]
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations
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
    "strata",
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

    The strata (:func:`_lattice_strata`), the Boyer-Galicki-Kollar numbers
    and the gcd graph with its components and their reading are computed on
    first use and kept with the profile, so the invariants handed one
    profile share them.
    """

    exponents: tuple
    degree: int
    weights: tuple
    link_dim: int
    recip_sum: Fraction

    @cached_property
    def gcd_graph(self):
        """Edges (i, j), i < j, with gcd(a_i, a_j) > 1: Brieskorn's graph."""
        a = self.exponents
        return tuple(
            (i, j)
            for i, j in combinations(range(len(a)), 2)
            if math.gcd(a[i], a[j]) > 1
        )

    @cached_property
    def _gcd_components(self):
        """Connected components of :attr:`gcd_graph`, as tuples of indices."""
        parent = list(range(len(self.exponents)))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i, j in self.gcd_graph:
            parent[find(i)] = find(j)
        comps = {}
        for i in range(len(parent)):
            comps.setdefault(find(i), []).append(i)
        return tuple(map(tuple, comps.values()))

    @cached_property
    def _gcd_reading(self):
        """What both sphere criteria read off :attr:`gcd_graph`: the number
        of isolated vertices, and whether some component of odd order >= 3
        has all pairwise gcds exactly 2."""
        a, comps = self.exponents, self._gcd_components
        odd_two = any(
            len(comp) >= 3
            and len(comp) % 2 == 1
            and all(math.gcd(a[i], a[j]) == 2 for i, j in combinations(comp, 2))
            for comp in comps
        )
        return sum(len(comp) == 1 for comp in comps), odd_two

    @cached_property
    def b_numbers(self):
        """b_i = gcd(lcm of the other exponents, a_i), the auxiliary
        integers of the Boyer-Galicki-Kollar inequalities."""
        a = self.exponents
        return tuple(
            math.gcd(math.lcm(*a[:i], *a[i + 1:]), x) for i, x in enumerate(a)
        )

    @property
    def canonical(self):
        return canonical_exponents(self.exponents)

    @cached_property
    def strata(self):
        """The :class:`Stratum` tuple of :func:`_lattice_strata`."""
        return _lattice_strata(self)


def _checked_exponents(exponents):
    """``exponents`` as a tuple, after the checks :func:`make_link` makes."""
    exponents = tuple(exponents)
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
        (its :func:`~brieskorn.invariants.phi`)
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
# lattice of n positions holds n * 2^(n-1) Moebius pairs, 2^n walk steps
# and up to 2^n index sets: for 2^n <= 256 (n <= 8 exponents) all kept
# shapes together are a few thousand small objects, while one for n = 18
# would hold 2.4M pairs.  Past the cap a walk keeps nothing.
_MAX_KEPT_SHAPE = 1 << 8
_LATTICE_SHAPES = {}  # n -> (Moebius pairs, walk steps, mask rows), n <= 8


def _mask_shape(n, s):
    """(index frozenset, sub-exponent getter, dim) of the index subset of
    n positions with bit mask s, |S| >= 2."""
    idx = [j for j in range(n) if s >> j & 1]
    return frozenset(idx), itemgetter(*idx), 2 * len(idx) - 3


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
    depends on n alone: its Moebius pairs; for each mask S > 0 in order,
    the walk step (S minus its lowest index, that index); and for each mask
    with |S| >= 2, the row (S, *:func:`_mask_shape`).  Shared by every link
    with n exponents when 2^n <= 256; larger arities get generators, so a
    walk keeps no state."""
    shape = _LATTICE_SHAPES.get(n)
    if shape is not None:
        return shape
    steps = ((s & (s - 1), (s & -s).bit_length() - 1) for s in range(1, 1 << n))
    rows = ((s, *_mask_shape(n, s)) for s in range(1 << n) if s & (s - 1))
    plan = _moebius_pairs(n), steps, rows
    if 1 << n > _MAX_KEPT_SHAPE:
        return plan
    return _LATTICE_SHAPES.setdefault(n, tuple(map(tuple, plan)))


def _lattice_strata(link):
    """All strata of the Reeb flow, as :class:`Stratum` tuples sorted by
    minimal period (the principal stratum, at period d, last).

    They are the index subsets S with |S| >= 2 and E(S) > 0, read off one
    walk over the 2^(n+1) subsets, taken over positions: lcm(a_S) is
    lcm(lcm of S minus its lowest index j, a_j), prod(a_S) likewise.  Per
    index, Moebius transforms turn #{T : S within I_T} = d / lcm(a_S) into
    E(S) and prod(a_S) / lcm(a_S) into kappa(S) (see middle_betti).  The
    walk steps, the masks those transforms pair, and each mask's index
    set, sub-exponent getter and dim depend on n alone:
    :func:`_lattice_shape` plans them once per arity and shares the plan,
    so the walk does only the per-link arithmetic.  More than 2^18 subsets
    raise BudgetExceeded before anything is allocated.
    """
    a = link.exponents
    if len(a) < 3:
        raise DimensionTooLow(
            "stratum enumeration needs a link of dimension >= 3 "
            f"(at least three exponents); got {len(a)}"
        )
    if 1 << len(a) > _MAX_SUBSETS:
        raise BudgetExceeded(f"2^{len(a)} index subsets, over {_MAX_SUBSETS}")
    pairs, steps, rows = _lattice_shape(len(a))
    lcms, prods = [1], [1]  # indexed by the bit mask of S
    for rest, j in steps:
        lcms.append(math.lcm(lcms[rest], a[j]))
        prods.append(prods[rest] * a[j])
    counts = [lcms[-1] // t for t in lcms]
    kappas = [p // t for p, t in zip(prods, lcms)]
    for lo, hi in pairs:
        counts[lo] -= counts[hi]
        kappas[hi] -= kappas[lo]
    if lcms[-1] != link.degree or counts[-1] != 1:
        raise InternalInconsistency("principal stratum missing or misplaced")
    if min(kappas) < 0:  # each kappa(S) counts lattice points
        raise InternalInconsistency(f"negative sub-link middle rank in {a}")
    out = [
        Stratum(index_set, getter(a), lcms[s], dim, counts[s], kappas[s])
        for s, index_set, getter, dim in rows
        if counts[s] > 0
    ]
    out.sort(key=itemgetter(2))  # by min_period
    return tuple(out)


def strata(link):
    """All strata of the Reeb flow, sorted by minimal period.

    They are the index sets S, |S| >= 2, with S = I_T for some T <= d, each
    at its minimal period lcm{a_j : j in S}, with its period count E(S) and
    middle rank kappa(S); see :func:`_lattice_strata`.  The last is the
    principal stratum (the whole link, at period d).  Distinct strata never
    share a minimal period, because I_T is a function of T alone.
    """
    return _as_link(link).strata


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


def _stratum_periods(link, stratum, start, stop):
    """The periods in [start, stop] labelled by ``stratum``, in order.

    They are the multiples of its minimal period that no exponent outside
    the stratum divides: for those, and only those, I_T is its index set.
    """
    outside = [
        a for j, a in enumerate(link.exponents) if j not in stratum.index_set
    ]
    p = stratum.min_period
    return (
        t
        for t in range(-(-start // p) * p, stop + 1, p)
        if 0 not in map(t.__mod__, outside)
    )


def _stratum_period_count(link, stratum):
    """#{1 <= T <= d : I_T = S}, the periods labelled by ``stratum`` S.

    A sieve over the multiples T = k * p of its minimal period p: an
    exponent a outside S divides k * p exactly when a / gcd(a, p) divides
    k, so one bytearray of d/p + 1 marks takes every such step's multiples
    by slice assignment, and the unmarked k are counted.
    """
    p = stratum.min_period
    size = link.degree // p
    marks = bytearray(size + 1)
    for j, a in enumerate(link.exponents):
        if j not in stratum.index_set:
            step = a // math.gcd(a, p)
            marks[step::step] = b"\x01" * (size // step)
    return size - marks.count(1)


def _check_spectrum_size(link, bound):
    """Raise BudgetExceeded when the link's strata have more than ``bound``
    candidate periods, sum d/T_i (an upper bound on the spectrum's size)."""
    work = sum(link.degree // s.min_period for s in link.strata)
    if work > bound:
        raise BudgetExceeded(
            f"period spectrum of {link.exponents} has up to {work} entries, "
            f"over {bound}"
        )


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
    d = link.degree
    _check_spectrum_size(link, _MAX_SPECTRUM_ENTRIES)
    entries = [
        (t, s) for s in link.strata for t in _stratum_periods(link, s, 1, d)
    ]
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
