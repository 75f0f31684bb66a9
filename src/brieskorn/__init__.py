"""Exact contact and Sasakian invariants of Brieskorn-Pham links.

The link of the Brieskorn-Pham singularity z_0^{a_0} + ... + z_n^{a_n} = 0
is a (2n-1)-dimensional contact manifold.  This package computes, in exact
rational arithmetic throughout:

* its closed Reeb orbit strata, Maslov-type indices, and mean Euler
  characteristic of equivariant symplectic homology;
* graded equivariant rank tables over any degree window;
* integral homology data (Brieskorn-Milnor): middle Betti rank, homotopy
  and rational-homology sphere tests, the dimension-5 diffeomorphism type
  where recognized (spheres, L(2,2,p,q), five residue families), and the
  dimension-7 Milnor signature with its exotic-sphere class in bP_8;
* Sasaki-Einstein existence verdicts (Boyer-Galicki-Kollar sufficient
  bounds, the pairwise-coprime characterization of
  Ghigi-Kollar, and the Lichnerowicz-type obstruction of
  Gauntlett-Martelli-Sparks-Yau), plus Kuranishi-style moduli counts;
* censuses of exponent vectors with filtering, family sweeps, and scans
  for links sharing a mean Euler characteristic.

Start with :func:`make_link` and :func:`build_record`, or the ``brieskorn``
command-line tool.

>>> from brieskorn import make_link, mean_euler
>>> str(mean_euler(make_link((2, 2, 3, 3))).value)
'3/2'
"""

__version__ = "0.1.0"

# Each module's __all__ is its public surface; the package re-exports them
# all, so a name is listed once, where it is defined.
from . import einstein, errors, homology, invariants, linkmodel, tables
from .errors import *
from .linkmodel import *
from .homology import *
from .invariants import *
from .einstein import *
from .tables import *

__all__ = ["__version__"] + [
    name
    for module in (errors, linkmodel, homology, invariants, einstein, tables)
    for name in module.__all__
]
