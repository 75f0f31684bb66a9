"""Reeb-orbit indices, orbit counts, and mean Euler characteristics.

The closed Reeb orbits of a Brieskorn-Pham link organize into the strata of
:mod:`brieskorn.linkmodel`.  Each stratum, traversed with total period T
(a multiple of its minimal period), carries a Robbin-Salamon index

    mu(T) = 2 * sum_{j in I_T} T/a_j  +  2 * sum_{j not in I_T} floor(T/a_j)
            + #{j not in I_T}  -  2T,

valid exactly when no exponent outside I_T divides T (otherwise the
fixed-point set jumps and the cover is not Morse-Bott).  The grading shift
used by the Morse-Bott spectral sequence is

    shift(T) = mu(T) - (dim Sigma_T - 1) / 2 .

A parity fact: mu(T) = (n+1) - |I_T| (mod 2), hence shift(T) = n - 1
(mod 2) for *every* stratum and cover of a link with n+1 exponents.  All
strata therefore enter the mean Euler characteristic with the same sign
(-1)^{n-1}, which the code applies once to the sum.  Note the parity of
the *shifts* does not by itself make the first page lacunary: a stratum
whose quotient has odd complex dimension and positive middle rank (e.g.
the genus-15 curve quotient of the (7,7,7) stratum inside (2,7,7,7))
contributes classes at odd offsets from its shift, and such pages can
support differentials.

The mean Euler characteristic is

    chi_m = (1/|mu_P|) * sum_i (-1)^{shift(T_i)} * phi_i * chi^{S^1}(Sigma_i)

summed over strata at their minimal periods, where mu_P is the index of the
principal orbit and phi_i counts how many periods below the principal one
belong to stratum i (``Stratum.period_count``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress

from .errors import (
    BudgetExceeded,
    InternalInconsistency,
    NotLacunary,
    NotMorseBottCover,
    PreconditionFailed,
    ZeroPrincipalIndex,
)
from .homology import _quotient_chi, _quotient_ranks
from .linkmodel import (
    _as_link,
    _mask_exponents,
    _period_work,
    _stratum_periods,
    index_set,
    make_link,
    period_spectrum,  # noqa: F401  not called; perfbench's self-test wraps it
)

__all__ = [
    "IndexReport",
    "maslov_index",
    "principal_index",
    "MeanEuler",
    "mean_euler",
    "PageColumn",
    "GradedRanks",
    "e1_page",
    "page_columns",
    "sh_plus_ranks",
    "mean_euler_from_ranks",
]


@dataclass(frozen=True)
class IndexReport:
    """Robbin-Salamon data of one stratum cover.

    period: the stratum's minimal period T; cover: N (total period N*T);
    maslov: mu of the N-fold traversal; stratum_dim: 2|I_T| - 3;
    shift: mu - (stratum_dim - 1)/2, the spectral-sequence grading shift.
    """

    period: int
    cover: int
    maslov: int
    stratum_dim: int
    shift: int


def _shift(link, size, total_period):
    """Grading shift mu(t) - (dim Sigma - 1)/2 at a period t with |I_t| = size.

    Inside I_t the floors are exact, so mu(t) = 2 * sum_j floor(t/a_j)
    + #{j outside} - 2t, and (dim Sigma - 1)/2 = size - 2.  Hence
    shift - (n+1) = 2(sum_j floor(t/a_j) - t - size + 1) is even: every
    shift of a link with n+1 exponents has the parity of n + 1.
    """
    a = link.exponents
    t = total_period
    return 2 * (sum(map(t.__floordiv__, a)) - t - size + 1) + len(a)


def maslov_index(link, period, cover=1):
    """Robbin-Salamon index report for the N-fold cover of a stratum.

    ``period`` must be the minimal period of a stratum (the lcm of its
    exponents); ``cover`` the positive traversal count N.  Raises
    NotMorseBottCover when some exponent outside the stratum divides N*T:
    those covers sit inside a bigger stratum and carry its index instead.

    >>> maslov_index(make_link((2, 3, 4, 16)), 12)
    IndexReport(period=12, cover=1, maslov=3, stratum_dim=3, shift=2)
    """
    link = _as_link(link)
    if cover < 1:
        raise PreconditionFailed(f"cover must be >= 1, got {cover}")
    if period < 1:
        raise PreconditionFailed(f"period must be >= 1, got {period}")
    idx = index_set(link, period)
    if len(idx) < 2:
        raise PreconditionFailed(
            f"{period} is not a stratum period: I_{period} has "
            f"{len(idx)} element(s)"
        )
    min_period = math.lcm(*(link.exponents[j] for j in idx))
    if min_period != period:
        raise PreconditionFailed(
            f"{period} is not a stratum *minimal* period "
            f"(its stratum starts at {min_period})"
        )
    total = cover * period
    for j, aj in enumerate(link.exponents):
        if j not in idx and total % aj == 0:
            raise NotMorseBottCover(
                f"cover {cover} of period {period} has total period {total} "
                f"divisible by exponent a_{j} = {aj} outside the stratum"
            )
    shift = _shift(link, len(idx), total)
    return IndexReport(
        period=period,
        cover=cover,
        maslov=shift + len(idx) - 2,
        stratum_dim=2 * len(idx) - 3,
        shift=shift,
    )


def principal_index(link):
    """Index mu_P of the principal orbit: 2 * (|w| - d).

    Positive exactly when sum 1/a_j > 1 (the log Fano range), zero on the
    Calabi-Yau boundary, negative below it.  Always even.

    >>> principal_index(make_link((2, 3, 4, 16)))
    14
    """
    link = _as_link(link)
    return 2 * (sum(link.weights) - link.degree)


def _nonzero_principal_index(link):
    """mu_P of a profile; ZeroPrincipalIndex when it is zero."""
    mu_p = principal_index(link)
    if mu_p == 0:
        raise ZeroPrincipalIndex(f"principal index of {link.exponents} is zero")
    return mu_p


@dataclass(frozen=True)
class MeanEuler:
    """Mean Euler characteristic, as an exact rational."""

    value: Fraction


def mean_euler(link):
    """Mean Euler characteristic of the link's contact structure.

    Sums (-1)^shift * E(S) * chi^{S^1} over the strata S at their minimal
    periods and divides by |mu_P|.  Every shift has the parity of n + 1
    (see :func:`_shift`), so the sign is applied once, to the sum.  E(S) =
    #{T <= d : I_T = S}, and chi^{S^1} comes from kappa(S), the sub-link's
    middle Betti number, both read off the arrays of the profile's walk
    over the 2^(n+1) index subsets (``LinkProfile._lattice``; past 2^18
    BudgetExceeded is raised) at the masks with |S| >= 2 and E(S) > 0, of
    which only the popcount is read, so no Stratum or index set is built.
    Exact rational arithmetic.  Raises ZeroPrincipalIndex when mu_P = 0 (the
    average does not converge to a finite period-independent value).

    >>> mean_euler(make_link((2, 3, 4, 16))).value
    Fraction(25, 14)
    >>> mean_euler(make_link((2, 2, 3, 3))).value
    Fraction(3, 2)
    """
    link = _as_link(link)
    mu_p = _nonzero_principal_index(link)
    _, counts, kappas = link._lattice
    numerator = sum(e * _quotient_chi(s.bit_count(), kappas[s])
                    for s, e in enumerate(counts) if e and s & (s - 1))
    if len(link.exponents) % 2:  # (-1)^shift, the same for every stratum
        numerator = -numerator
    return MeanEuler(value=Fraction(numerator, abs(mu_p)))


@dataclass(frozen=True, slots=True)
class PageColumn:
    """One column of the first page: a stratum traversed with some period."""

    period: int
    cover: int
    exponents: tuple
    shift: int
    ranks: tuple


@dataclass(frozen=True)
class GradedRanks:
    """Per-degree ranks of positive equivariant symplectic homology.

    ``ranks`` maps every degree in [k_lo, k_hi] to its rank (zeros included).
    ``period_degree`` is mu_P (degrees repeat with this period across action
    blocks), ``period_action`` the principal period.  ``lacunary`` certifies
    that no two first-page entries with total degree in [k_lo-1, k_hi+1]
    sit at adjacent degrees with the later one in a column of smaller
    period (the degeneration criterion: the ranks are exact, else upper
    bounds).  ``columns`` calls :func:`page_columns` on every read.
    """

    k_lo: int
    k_hi: int
    ranks: dict
    period_degree: int
    period_action: int
    lacunary: bool
    exponents: tuple

    @property
    def columns(self):
        return page_columns(self.exponents, self.k_lo, self.k_hi)

    def to_json_dict(self):
        return {
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "ranks": {str(k): v for k, v in sorted(self.ranks.items())},
            "mu_P": self.period_degree,
            "lacunary": self.lacunary,
        }


# Most bytes one first page may hold, counted before it holds any: a
# window degree 200 (its rank, least and greatest period), a block
# candidate period 120 (a sieve byte and one _shift call of about 1.4 us,
# no held tuple), and, as page_columns holds every translate, a candidate
# of the window's whole period range 240 (a column peaks near 210).  At this
# bound under a 1 GiB cap, e1_page of (2, 3, 4, 16) over [0, 2684300] and
# page_columns of (2, 2, 1001) over [0, 8898] peak 412 and 445 MiB.
_MAX_PAGE_BYTES, _DEGREE_BYTES, _PERIOD_BYTES = 1 << 29, 200, 120
# Most candidate periods one rank average may sieve, one byte each.
_MAX_SIEVE_BYTES = 1 << 24


def _multiples(lo, hi, step, least):
    """The r >= least with lo <= r * step <= hi, as a range (step != 0)."""
    lo, hi = (lo, hi) if step > 0 else (hi, lo)
    return range(max(least, -(-lo // step)), hi // step + 1)


def _page_block(link, k_lo, k_hi, translates=False):
    """(t, mask, lcm(a_S), shift(t), Betti vector) per column of the action
    block [t_lo, t_top], t_top = min(t_hi, t_lo + d - 1), stratum by stratum:
    a column that meets [k_lo-1, k_hi+1] has its period T in [t_lo, t_hi],
    and as I_{T+d} = I_T and shift(T + d) = shift(T) + mu_P, it is a block
    column translated by (r * d, r * mu_P), r >= 0.  Only the walk's rows
    (``LinkProfile._strata_rows``) with lcm <= t_top are read.  Past 2^29
    bytes, 200 per window degree and 120 per block candidate (with
    ``translates``, 240 per candidate in [t_lo, t_hi], each a column that
    may be held), BudgetExceeded is raised before any period is walked."""
    if k_hi < k_lo:
        raise PreconditionFailed(f"empty degree window [{k_lo}, {k_hi}]")
    rows = link._strata_rows
    mu_p = _nonzero_principal_index(link)
    a, d, n = link.exponents, link.degree, len(link.exponents) - 1
    # shift(T) = T*mu_P/d + c with c in [1-n, n+3-2|I|], and a column spans
    # 2|I|-4 degrees past its shift: so every degree lies within n-1 of
    # T*mu_P/d, and [k_lo-1, k_hi+1] bounds T*mu_P by these
    reach = _multiples((k_lo - n) * d, (k_hi + n) * d, mu_p, 1)
    t_lo, t_top = reach.start, min(reach.stop, reach.start + d) - 1
    end, unit = (reach.stop - 1, 2) if translates else (t_top, 1)
    periods = _period_work([row[1] for row in rows], t_lo, end)  # lcm(a_S)
    held = _DEGREE_BYTES * (k_hi - k_lo + 1) + unit * _PERIOD_BYTES * periods
    if held > _MAX_PAGE_BYTES:
        raise BudgetExceeded(f"first page of {a} in degrees [{k_lo}, {k_hi}] "
                             f"holds up to {held} bytes for {k_hi - k_lo + 1} "
                             f"degrees and {periods} candidate periods, over "
                             f"{_MAX_PAGE_BYTES}")
    for s, p, _, kappa in [row for row in rows if row[1] <= t_top]:
        size = s.bit_count()
        betti = _quotient_ranks(size, kappa)
        for t in compress(*_stratum_periods(a, p, t_lo, t_top)):
            yield t, s, p, _shift(link, size, t), betti


def e1_page(link, k_lo, k_hi):
    """First page of the Morse-Bott spectral sequence, in a degree window.

    Every period T with |I_T| >= 2 labels one column, ordered by period
    (by action); the column of a stratum traversed with period T holds the
    quotient's Betti vector at total degrees shift(T), ..., shift(T) + 2q,
    and degrees below every column vanish.  The page is periodic: only the
    action block of d periods from the window's least period is sieved
    (:func:`_page_block`), and its rank and least and greatest period per
    degree are carried across the window mu_P degrees at a time, so the
    cost follows the window, not d: about min(d, (k_hi - k_lo + 2n) *
    d/|mu_P|) * sum 1/T_i shifts.  :func:`page_columns` lists the columns.
    """
    link = _as_link(link)
    ranks, first, last = {}, {}, {}  # per degree: rank, least, greatest period
    for t, _, _, shift, betti in _page_block(link, k_lo, k_hi):
        for k, b in enumerate(betti, shift):
            if b:
                ranks[k] = ranks.get(k, 0) + b
                if first.setdefault(k, t) > t:
                    first[k] = t
                if last.setdefault(k, t) < t:
                    last[k] = t
    mu_p, d = principal_index(link), link.degree
    lo_m, hi_m = k_lo - 1, k_hi + 1
    # past the block's edge, each degree adds the final count mu_P before it
    if mu_p > 0:
        walk = range(min(ranks, default=hi_m) + mu_p, hi_m + 1)
    else:
        walk = range(max(ranks, default=lo_m) + mu_p, lo_m - 1, -1)
    for k in walk:
        j = k - mu_p
        if j in ranks:
            ranks[k] = ranks.get(k, 0) + ranks[j]
            first.setdefault(k, first[j] + d)
            last[k] = last[j] + d
    lacunary = all(first.get(k - 1, t) >= t
                   for k, t in last.items() if lo_m < k <= hi_m)
    del first, last  # before the window's ranks are filled
    window = dict.fromkeys(range(k_lo, k_hi + 1), 0)
    window.update((k, v) for k, v in ranks.items() if k_lo <= k <= k_hi)
    return GradedRanks(k_lo, k_hi, window, mu_p, d, lacunary, link.exponents)


def page_columns(link, k_lo, k_hi):
    """The first page's columns that meet [k_lo-1, k_hi+1], by period:
    each column of :func:`e1_page`'s action block and its translates by
    (r * d, r * mu_P), r >= 0, there.  Raises as :func:`e1_page` does, but
    counts every candidate period of the window as a column held.

    >>> [c.period for c in page_columns((3, 3, 4, 7), 0, 0) if c.shift == 0]
    [3, 6, 12]
    """
    link = _as_link(link)
    a, d, mu_p = link.exponents, link.degree, principal_index(link)
    out = []
    for t, s, p, shift, betti in _page_block(link, k_lo, k_hi, True):
        names = _mask_exponents(a, s)
        rs = _multiples(k_lo - shift - len(betti), k_hi + 1 - shift, mu_p, 0)
        out += [PageColumn(t + r * d, (t + r * d) // p, names,
                           shift + r * mu_p, betti) for r in rs]
    return tuple(sorted(out, key=lambda c: c.period))  # a column per period


def sh_plus_ranks(link, k_lo, k_hi):
    """Ranks of positive equivariant symplectic homology in [k_lo, k_hi].

    Exact when the page is lacunary, otherwise upper bounds; the
    ``lacunary`` flag (the window-scoped check) says which.  Every shift
    has the same parity, but a stratum whose quotient has odd complex
    dimension and positive middle rank (a curve of positive genus, say)
    puts classes at odd degrees, so non-lacunary pages occur: (2,7,7,7).
    The cost is :func:`e1_page`'s, one action block of periods.

    >>> sh_plus_ranks(make_link((2, 3, 7, 22)), 0, 0).ranks
    {0: 6}
    """
    return e1_page(link, k_lo, k_hi)


def mean_euler_from_ranks(link, strict=False):
    """Mean Euler characteristic recovered from graded ranks alone.

    Past the first action block the rank profile repeats with degree
    period mu_P, so the alternating sum over one stable window of width
    |mu_P|, divided by |mu_P|, is the mean Euler characteristic.  That
    window holds each first-block column once, translated by a multiple of
    mu_P (even), so the sum is sum (-1)^shift * chi over those columns: one
    term per stratum, chi times the periods T <= d it labels, and the one
    sign every shift has (see :func:`_shift`).  No phi count is used, so
    agreeing with :func:`mean_euler` is a strong cross-check.  The periods
    are counted by one sieve pass of d/T_i bytes per stratum, with no shift
    computed; past 2^24 bytes BudgetExceeded is raised up front.

    When lacunary, the first-page ranks are the homology ranks and this is
    the defining average.  Otherwise they are upper bounds, but the
    alternating sum over a stable period is still exact: differentials
    cancel in pairs of adjacent degrees, and by periodicity the pairs
    straddling the window's ends balance.  ``strict=True`` demands the
    certified reading and raises NotLacunary when the stable window fails
    the check.  Only then is the page built, on a stable window placed in
    closed form: every first-block degree lies within n - 1 of
    T * mu_P / d for some T <= d, so the window starts at mu_P + n when
    mu_P > 0 and ends at mu_P - n when mu_P < 0.  Every full |mu_P|-wide
    window past the first block gives the same verdict and the same sum.

    >>> mean_euler_from_ranks(make_link((2, 3, 4, 16))).value
    Fraction(25, 14)
    """
    link = _as_link(link)
    mu_p = _nonzero_principal_index(link)
    a, d, rows = link.exponents, link.degree, link._strata_rows
    work = _period_work([p for _, p, _, _ in rows], 1, d)
    if work > _MAX_SIEVE_BYTES:
        raise BudgetExceeded(f"rank average of {a} sieves "
                             f"{work} periods, over {_MAX_SIEVE_BYTES}")
    alternating = sum(_stratum_periods(a, p, 1, d)[1].count(1)
                      * _quotient_chi(s.bit_count(), kappa)
                      for s, p, _, kappa in rows)
    if len(link.exponents) % 2:  # (-1)^shift, the same for every stratum
        alternating = -alternating
    width = abs(mu_p)
    if strict:
        n = len(link.exponents) - 1
        k_lo = mu_p + n if mu_p > 0 else 2 * mu_p - n + 1
        graded = e1_page(link, k_lo, k_lo + width - 1)
        if not graded.lacunary:
            raise NotLacunary(
                f"first page of {link.exponents} is not lacunary over the "
                f"stable window [{k_lo}, {k_lo + width - 1}]; its ranks are "
                "upper bounds, call with strict=False for the (still exact) "
                "Euler average"
            )
        if sum((-1) ** k * v for k, v in graded.ranks.items()) != alternating:
            raise InternalInconsistency(
                f"stable-window ranks of {link.exponents} do not sum to the "
                "first block's alternating column sum"
            )
    return MeanEuler(value=Fraction(alternating, width))
