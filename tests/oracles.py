"""Reference forms of invariants the package computes along another path.

The paper writes each invariant in more than one form.  The package keeps
one code path per invariant; the other forms live here, as the references
the tests compare it against:

* :func:`phi`, the inclusion-exclusion count of a stratum's periods, which
  the package reads off the stratum table as ``Stratum.period_count``;
* :func:`count_weighted_monomials`, the dynamic-programming count of
  h^0(O(d)), which the package answers by meeting in the middle
  (``moduli_dimension``);
* :func:`stride_pruned_counts`, the moduli counts over the box of the
  exponents at strides q_j = a_j / b_j with target d, which the package
  reduces to a count of the b-number class;
* :func:`greedy_split_box` and :func:`greedy_half_sums`, the lattice
  kernel's split of its box into two halves of balanced box size, longest
  axis first, with the work check of each fill, where the package chooses
  among all splits by key and fill bounds (``homology._split_box``);
* :func:`automorphism_monomials`, the monomials g z_i^(a_i - 1) along which
  the graded automorphisms move the Fermat polynomial, as many as
  ``ModuliReport.h0_weight_sum`` counts, and :func:`automorphism_rank`,
  the rank of that action at a random polynomial;
* :func:`sylvester_numerator`, the closed-form chi_m * |mu_P| of the
  Sylvester links, which the package sums over the stratum table
  (``mean_euler``);
* :func:`gcd_graph_edges` and its components by union-find, from which
  :func:`sphere_criteria_by_components` reads Brieskorn's two sphere
  criteria, which the package reads off the b-numbers
  (``LinkProfile._gcd_reading``);
* :func:`cyclic_signature_dim7`, Brieskorn's dim-7 signature from residues
  mod 2d counted over the arcs (0, d) and (d, 2d), which the package counts
  with signs in Z[t]/(t^d + 1) (``milnor_signature_dim7``).
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from collections import defaultdict
from itertools import accumulate, combinations

from brieskorn import homology
from brieskorn.errors import BudgetExceeded, PreconditionFailed
from brieskorn.linkmodel import sylvester_sequence


def phi(period, exclusions, principal_period):
    """Count multiples of ``period`` below ``principal_period`` avoiding all
    ``exclusions``.

        phi(T_i; T_{i+1}, ..., T_k) =
            #{ a >= 1 : a*T_i < T_k, a*T_i not in T_j*N for any j > i }

    with the convention phi(T_k; empty) = 1 for the principal period itself.
    In the mean-Euler formula the exclusions are the strictly larger strata
    minimal periods, so phi counts the spectrum entries that are labeled by
    this stratum rather than a bigger one.

    Implemented by inclusion-exclusion over the lcm lattice (with the
    exclusion list reduced to divisibility-minimal elements and branches
    pruned once the running lcm reaches the principal period), so it stays
    fast when the principal period is large.

    >>> phi(4, [12, 16, 48], 48)
    6
    >>> phi(48, [], 48)
    1
    """
    if period < 1:
        raise PreconditionFailed(f"period must be >= 1, got {period}")
    if principal_period % period:
        raise PreconditionFailed(
            f"{period} does not divide the principal period {principal_period}"
        )
    for e in exclusions:
        if e < 1:
            raise PreconditionFailed(f"exclusion {e} must be >= 1")
    if period == principal_period:
        return 1
    limit = principal_period - 1
    # Join each exclusion against the base period; keep divisibility-minimal
    # representatives below the cap (multiples of a larger join are a subset).
    joins = sorted(
        {
            math.lcm(period, e)
            for e in exclusions
            if math.lcm(period, e) <= limit
        }
    )
    minimal = []
    for j in joins:
        if not any(j % m == 0 for m in minimal):
            minimal.append(j)

    total = limit // period

    def union(start, running, sign):
        acc = 0
        for k in range(start, len(minimal)):
            l = math.lcm(running, minimal[k])
            if l > limit:
                continue
            acc += sign * (limit // l) + union(k + 1, l, -sign)
        return acc

    return total - union(0, 1, 1)


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


def stride_pruned_counts(link):
    """(perturbations, sum_i h^0(O(w_i))) of a LinkProfile from one lattice
    kernel call over 0 <= b_j < a_j at stride q_j = a_j / b_j (b_j the
    link's b-number) with target d, refused as the unpruned box would be
    when d + 1 is over the kernel's key cap.  A weight with q_i > 1 has
    h^0(O(w_i)) = 1; only sums s <= max(w) can meet some w_i.

    >>> from brieskorn import make_link
    >>> stride_pruned_counts(make_link((2, 3, 11, 11)))
    (10, 6)
    """
    a, w, d = link.exponents, link.weights, link.degree
    if d + 1 > homology._MAX_HALF_KEYS:
        homology._split_box(w, map(range, a), target=d)
    steps, axes, weights, h0_w = [], [], {}, 0
    for x, aj, bj in zip(w, a, link.b_numbers):
        q = aj // bj
        if q < aj:  # an axis with q_j = a_j holds b_j = 0 alone
            steps.append(x)
            axes.append(range(0, aj, q))
        h0_w += q > 1
        if q == 1:
            weights[x] = weights.get(x, 0) + 1
    kept, other = homology._lattice_halves(steps, axes, target=d)
    get, top, weights = kept.get, max(w), weights.items()
    perturbations = 0
    for s, n in other:
        perturbations += n * get(d - s, 0)
        if s <= top:
            for x, m in weights:
                h0_w += n * m * get(x - s, 0)
    return perturbations, h0_w


def greedy_split_box(steps, ranges, target=None):
    """Split the lattice box x_j in ranges[j] into two halves of balanced
    box size.  Returns (kept, other, walked): the (step, range) axes of the
    larger half whose bound min(half box, target + 1) is within
    _MAX_HALF_KEYS, those of the other half (largest axis first), and
    whether the other half is over that bound too, so walked point by
    point.  Both halves over the bound, or a walked half of more than
    _MAX_HALF_WORK points, raise BudgetExceeded."""
    top = math.inf if target is None else target + 1
    halves, sizes = [[], []], [1, 1]
    axes = sorted(zip(steps, ranges), key=lambda ax: len(ax[1]), reverse=True)
    for axis in axes:
        k = sizes[1] < sizes[0]
        halves[k].append(axis)
        sizes[k] *= len(axis[1])
    need = [min(n, top) for n in sizes]
    # keep the half within the cap, else the larger box; half 0 on a tie
    cap = homology._MAX_HALF_KEYS
    k = (need[0] <= cap, sizes[0]) < (need[1] <= cap, sizes[1])
    walked = need[1 - k] > cap
    if need[k] > cap:
        raise BudgetExceeded(f"lattice half-boxes too large: need {need}")
    if walked and sizes[1 - k] > homology._MAX_HALF_WORK:
        raise BudgetExceeded(f"lattice half of {sizes[1 - k]} points to "
                             f"walk, over {homology._MAX_HALF_WORK}")
    return halves[k], halves[1 - k], walked


_half_sums = homology._half_sums


def fill_steps(axes, top, negacyclic=False):
    """The steps ``homology._half_sums`` takes over the axes, in their
    order: each axis costs its points times the keys of the axes before it.

    >>> fill_steps([(1, range(3)), (3, range(2))], 10)  # 3 + 3 * 2
    9
    """
    return sum(len(_half_sums(axes[:i], top, negacyclic)) * len(rng)
               for i, (_, rng) in enumerate(axes))


def greedy_half_sums(axes, top, negacyclic=False):
    """``homology._half_sums`` behind the work check that the greedy split
    left to the fill: past _MAX_HALF_WORK :func:`fill_steps`, it raises
    BudgetExceeded.  With :func:`greedy_split_box`, the kernel as it was."""
    steps = fill_steps(axes, top, negacyclic)
    if steps > homology._MAX_HALF_WORK:
        raise BudgetExceeded(f"lattice half-sums need {steps} steps, "
                             f"over {homology._MAX_HALF_WORK}")
    return _half_sums(axes, top, negacyclic)


def _monomials_of_weight(weights, target, j=0):
    """Exponent tuples b >= 0 with sum b_k * weights[k] (k >= j) = target."""
    if j == len(weights):
        if target == 0:
            yield ()
        return
    for b in range(target // weights[j] + 1):
        for rest in _monomials_of_weight(weights, target - b * weights[j], j + 1):
            yield (b, *rest)


def automorphism_monomials(exponents):
    """The monomials g z_i^(a_i - 1), g of weighted degree w_i, as exponent
    tuples in a list (with repeats): the directions in which z_i -> z_i +
    eps g moves the Fermat polynomial sum z_i^(a_i).

    >>> sorted(automorphism_monomials((2, 3, 11, 11)))[:4]
    [(0, 0, 0, 11), (0, 0, 1, 10), (0, 0, 10, 1), (0, 0, 11, 0)]
    >>> len(automorphism_monomials((2, 3, 11, 11)))
    6
    """
    a = tuple(exponents)
    d = math.lcm(*a)
    w = [d // aj for aj in a]
    return [
        tuple(b + (a[i] - 1) * (j == i) for j, b in enumerate(g))
        for i in range(len(a))
        for g in _monomials_of_weight(w, w[i])
    ]


_PRIME = (1 << 61) - 1


def automorphism_rank(exponents):
    """Rank, mod the prime 2^61 - 1, of the graded automorphisms' action at
    a random polynomial f of weighted degree d: the span of g * df/dz_i
    over the indices i and the monomials g of weighted degree w_i, by
    Gaussian elimination.  f has a coefficient drawn from seed 0 on
    every monomial of degree d.  The generic rank is at least the rank at
    the Fermat point, whose directions are :func:`automorphism_monomials`,
    and at most their number.

    >>> automorphism_rank((2, 3, 11, 11))
    6
    """
    a = tuple(exponents)
    d = math.lcm(*a)
    w = [d // aj for aj in a]
    rng = random.Random(0)
    f = {m: rng.randrange(1, _PRIME) for m in _monomials_of_weight(w, d)}
    pivots = {}  # leading monomial -> row with that lead, lead coefficient 1
    for i in range(len(a)):
        for g in _monomials_of_weight(w, w[i]):
            row = defaultdict(int)  # g * df/dz_i, by monomial
            for m, c in f.items():
                if m[i]:
                    key = tuple(x + y - (j == i) for j, (x, y) in enumerate(zip(m, g)))
                    row[key] = (row[key] + c * m[i]) % _PRIME
            row = {k: v for k, v in row.items() if v}
            while row:
                lead = max(row)
                if lead not in pivots:
                    inverse = pow(row[lead], -1, _PRIME)
                    pivots[lead] = {k: v * inverse % _PRIME for k, v in row.items()}
                    break
                c = row[lead]  # clear the lead; the pivot's other keys are below it
                for k, v in pivots[lead].items():
                    row[k] = (row.get(k, 0) - c * v) % _PRIME
                row = {k: v for k, v in row.items() if v}
    return len(pivots)


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


def gcd_graph_edges(exponents):
    """Brieskorn's gcd graph: the pairs (i, j), i < j, with gcd(a_i, a_j) > 1.

    >>> gcd_graph_edges((2, 3, 4, 16))
    [(0, 2), (0, 3), (2, 3)]
    """
    return [
        (i, j)
        for i, j in combinations(range(len(exponents)), 2)
        if math.gcd(exponents[i], exponents[j]) > 1
    ]


def components_by_union_find(exponents):
    """Connected components of :func:`gcd_graph_edges`, as index lists.

    >>> components_by_union_find((2, 3, 4, 16))
    [[0, 2, 3], [1]]
    """
    parent = list(range(len(exponents)))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for i, j in gcd_graph_edges(exponents):
        parent[find(i)] = find(j)
    comps = defaultdict(list)
    for i in range(len(exponents)):
        comps[find(i)].append(i)
    return list(comps.values())


def gcd_graph_reading_by_components(exponents):
    """(isolated vertices, whether some component of odd order >= 3 has all
    pairwise gcds 2), read off :func:`components_by_union_find`."""
    comps = components_by_union_find(exponents)
    isolated = sum(1 for c in comps if len(c) == 1)
    odd_two = any(
        len(c) >= 3 and len(c) % 2 == 1 and all(
            math.gcd(exponents[i], exponents[j]) == 2
            for i, j in combinations(c, 2)
        )
        for c in comps
    )
    return isolated, odd_two


def sphere_criteria_by_components(exponents):
    """Brieskorn's (homotopy sphere, rational homology sphere) from the
    components: at least two isolated vertices, or one with an odd all-2
    component; at least one isolated vertex, or an odd all-2 component.

    >>> sphere_criteria_by_components((2, 2, 2, 3))
    (True, True)
    >>> sphere_criteria_by_components((2, 2, 3, 3))
    (False, False)
    """
    isolated, odd_two = gcd_graph_reading_by_components(exponents)
    return (
        isolated >= 2 or (isolated == 1 and odd_two),
        isolated >= 1 or odd_two,
    )


def cyclic_signature_dim7(exponents):
    """Brieskorn's dim-7 signature by the cyclic count: with d = lcm(a), each
    half of the axes (split greedily, longest axis first) is reduced to
    {sum x_j d/a_j mod 2d: points}, and each residue r of one half bisects
    the other half's sorted residues for the arcs (0, d), counted +1, and
    (d, 2d), counted -1.  No bound: for boxes a test can afford.

    >>> cyclic_signature_dim7((2, 2, 2, 3, 5))
    8
    """
    a = tuple(exponents)
    d = math.lcm(*a)
    twod = 2 * d
    halves, sizes = [[], []], [1, 1]
    for aj in sorted(a, reverse=True):
        k = sizes[1] < sizes[0]
        halves[k].append(aj)
        sizes[k] *= aj - 1

    def residues(half):
        sums = {0: 1}
        for aj in half:
            nxt = defaultdict(int)
            for s, n in sums.items():
                for x in range(1, aj):
                    nxt[(s + x * (d // aj)) % twod] += n
            sums = nxt
        return sums

    kept, other = map(residues, halves)
    keys = sorted(kept)
    prefix = [0, *accumulate(kept[s] for s in keys)]

    def below(x):  # kept residues s with s < x, counted periodically
        laps, x = divmod(x, twod)
        return laps * prefix[-1] + prefix[bisect_left(keys, x)]

    return sum(  # r + s mod 2d in (0, d) counts +1, in (d, 2d) counts -1
        n * (below(d - r) - below(1 - r) - below(twod - r) + below(d + 1 - r))
        for r, n in other.items()
    )
