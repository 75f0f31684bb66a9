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
from functools import cached_property
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


@dataclass(frozen=True)
class PageColumn:
    """One column of the first page: a stratum traversed with some period."""

    period: int
    cover: int
    exponents: tuple
    shift: int
    ranks: tuple


@dataclass(frozen=True, init=False)
class GradedRanks:
    """Per-degree ranks of positive equivariant symplectic homology.

    ``ranks`` maps every degree in [k_lo, k_hi] to its rank (zeros included).
    ``period_degree`` is mu_P (degrees repeat with this period across action
    blocks), ``period_action`` the principal period.  ``lacunary`` certifies
    that no two first-page entries with total degree in [k_lo-1, k_hi+1]
    sit at adjacent degrees with the later one in a column of smaller
    period -- the degeneration criterion; when it holds the ranks are
    exact, otherwise they are upper bounds.  ``columns`` retains the
    contributing columns, a tuple of :class:`PageColumn`; it may be given
    as any iterable of them, which is read into the tuple on first use, so
    a caller that reads only the ranks builds no column.
    """

    k_lo: int
    k_hi: int
    ranks: dict
    period_degree: int
    period_action: int
    lacunary: bool
    columns: tuple  # a field, read through the cached_property below

    def __init__(self, k_lo, k_hi, ranks, period_degree, period_action,
                 lacunary, columns=()):
        vars(self).update(
            k_lo=k_lo, k_hi=k_hi, ranks=ranks, period_degree=period_degree,
            period_action=period_action, lacunary=lacunary, _columns=columns,
        )

    @cached_property
    def columns(self):
        return tuple(self._columns)

    def __getstate__(self):  # pickle and copy the columns, not the iterable
        return dict(vars(self), _columns=self.columns)

    def to_json_dict(self):
        return {
            "k_lo": self.k_lo,
            "k_hi": self.k_hi,
            "ranks": {str(k): v for k, v in sorted(self.ranks.items())},
            "mu_P": self.period_degree,
            "lacunary": self.lacunary,
        }


# Most candidate periods (plus window degrees) one page may walk, and most
# candidate periods one rank average may sieve.
_MAX_PAGE_WORK = 1 << 24


def e1_page(link, k_lo, k_hi):
    """First page of the Morse-Bott spectral sequence, in a degree window.

    Every period T with |I_T| >= 2 labels one column, and the columns are
    ordered by period (by action); the column of a stratum traversed with
    period T contributes the quotient's Betti vector at total degrees
    shift(T), shift(T)+1, ..., shift(T) + 2q.  Degrees below every column
    vanish.

    Only columns that can meet [k_lo-1, k_hi+1] are built.  A column of
    period T spans degrees within n - 1 of T * mu_P / d, which bounds T to
    [t_lo, t_hi].  Only the walk's strata (``LinkProfile._strata_rows``) of
    minimal period T_i <= t_hi are read, each walking its multiples there
    but those an outside exponent divides (a bigger stratum's).  The cost
    grows with these candidate periods, about (k_hi - k_lo + 2n) * d /
    |mu_P| * sum 1/T_i over those strata, not with d alone; past 2^24 of
    them plus window degrees, BudgetExceeded is raised before any is built.

    Returns :class:`GradedRanks` with per-column detail for every column
    whose degree span meets [k_lo-1, k_hi+1], sorted by period and built
    as :class:`PageColumn` objects (exponents from the stratum's mask) when
    ``columns`` is read.
    """
    link = _as_link(link)
    if k_hi < k_lo:
        raise PreconditionFailed(
            f"empty degree window [{k_lo}, {k_hi}]"
        )
    rows = link._strata_rows
    mu_p = _nonzero_principal_index(link)
    lo_m, hi_m = k_lo - 1, k_hi + 1
    a, d = link.exponents, link.degree
    n = len(a) - 1
    # shift(T) = T*mu_P/d + c with c in [1-n, n+3-2|I|], and a column spans
    # 2|I|-4 degrees past its shift: so every degree lies within n-1 of
    # T*mu_P/d, and [lo, hi] below bounds T*mu_P.
    lo, hi = (lo_m - n + 1) * d, (hi_m + n - 1) * d
    if mu_p < 0:
        lo, hi = hi, lo
    t_lo, t_hi = max(1, -(-lo // mu_p)), hi // mu_p
    rows = [row for row in rows if row[1] <= t_hi]  # row[1] = lcm(a_S)
    work = k_hi - k_lo + 1 + _period_work([row[1] for row in rows], t_lo, t_hi)
    if work > _MAX_PAGE_WORK:
        raise BudgetExceeded(
            f"first page of {link.exponents} in degrees [{k_lo}, {k_hi}] "
            f"needs {work} degrees and candidate periods, over "
            f"{_MAX_PAGE_WORK}"
        )
    found, ranks = [], {k: 0 for k in range(k_lo, k_hi + 1)}
    first, last = {}, {}  # per margin degree, its least and greatest period
    for s, p, _, kappa in rows:
        size = s.bit_count()
        span = 2 * size - 4
        betti = None
        for t in compress(*_stratum_periods(a, p, t_lo, t_hi)):
            shift = _shift(link, size, t)
            if shift > hi_m or shift + span < lo_m:
                continue
            if betti is None:
                betti = _quotient_ranks(size, kappa)
            found.append((t, s, p, shift, betti))
            for k, b in enumerate(betti, shift):
                if b and lo_m <= k <= hi_m:
                    if first.setdefault(k, t) > t:
                        first[k] = t
                    if last.setdefault(k, t) < t:
                        last[k] = t
                    if k_lo <= k <= k_hi:
                        ranks[k] += b
    return GradedRanks(
        k_lo=k_lo,
        k_hi=k_hi,
        ranks=ranks,
        period_degree=mu_p,
        period_action=d,
        lacunary=all(first.get(k - 1, t) >= t for k, t in last.items()),
        # (found,) binds now; the sort by period waits for .columns
        columns=(PageColumn(t, t // p, _mask_exponents(a, s), shift, betti)
                 for cols in (found,) for t, s, p, shift, betti in sorted(cols)),
    )


def sh_plus_ranks(link, k_lo, k_hi):
    """Ranks of positive equivariant symplectic homology in [k_lo, k_hi].

    Exact when the page is lacunary; otherwise the first-page ranks are
    upper bounds for the homology ranks, and the ``lacunary`` flag (the
    window-scoped check) says which situation the caller is in.  Every shift
    has the same parity, but strata whose quotient is odd-complex-dimensional
    with positive middle rank (a curve of positive genus, say) inject
    odd-degree classes, so non-lacunary pages do occur -- (2,7,7,7) is one.

    The cost follows the periods whose columns can meet the window, as in
    :func:`e1_page`, and BudgetExceeded is raised when they are too many.

    >>> sh_plus_ranks(make_link((2, 3, 7, 22)), 0, 0).ranks
    {0: 6}
    """
    return e1_page(link, k_lo, k_hi)


def mean_euler_from_ranks(link, strict=False):
    """Mean Euler characteristic recovered from graded ranks alone.

    Uses the (T_P, mu_P)-periodicity of the page: past the degrees touched
    by the first action block, the rank profile repeats with degree period
    mu_P, so the alternating sum over one stable window of width |mu_P|,
    divided by |mu_P|, equals the mean Euler characteristic.  That window
    holds every column of the first block exactly once, translated by some
    multiple of mu_P (even), so the sum is read off the first block's
    columns as sum (-1)^shift * chi.  Independent of :func:`mean_euler`
    (no phi counts), which makes the agreement of the two a strong
    cross-check.  Every shift has the parity of n + 1 (see :func:`_shift`),
    so the sum has one term per stratum, chi times the periods T <= d it
    labels, and one sign, applied to the total.  The periods are counted
    by one sieve pass of d/T_i bytes over the stratum's multiples, so the
    cost is sum d/T_i bytes and slice steps, with no period spectrum
    built; past 2^24 BudgetExceeded is raised up front.

    In the lacunary case the first-page ranks are the homology ranks, so
    this is literally the defining average.  When the page is not lacunary
    the first-page ranks are only upper bounds, but the *alternating sum*
    over a stable period is still exact: differentials cancel in pairs of
    adjacent degrees, and by periodicity the pairs straddling the window
    boundary balance.  Pass ``strict=True`` to demand the certified reading
    and get NotLacunary when the stable window fails the check.  Only then
    is the page built, on a stable window placed in closed form: every
    first-block degree lies within n - 1 of T * mu_P / d for some T <= d,
    so the window starts at mu_P + n when mu_P > 0 and ends at mu_P - n
    when mu_P < 0.  Every full |mu_P|-wide window past the first block
    gives the same lacunarity verdict and the same alternating sum.

    >>> mean_euler_from_ranks(make_link((2, 3, 4, 16))).value
    Fraction(25, 14)
    """
    link = _as_link(link)
    mu_p = _nonzero_principal_index(link)
    a, d, rows = link.exponents, link.degree, link._strata_rows
    work = _period_work([p for _, p, _, _ in rows], 1, d)
    if work > _MAX_PAGE_WORK:
        raise BudgetExceeded(f"rank average of {a} sieves "
                             f"{work} periods, over {_MAX_PAGE_WORK}")
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
