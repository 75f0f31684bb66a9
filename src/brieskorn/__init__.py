"""Exact contact and Sasakian invariants of Brieskorn-Pham links.

The link of the Brieskorn-Pham singularity z_0^{a_0} + ... + z_n^{a_n} = 0
is a (2n-1)-dimensional contact manifold.  This package computes, in exact
rational arithmetic throughout:

* its closed Reeb orbit strata, Maslov-type indices, and mean Euler
  characteristic of equivariant symplectic homology;
* graded equivariant rank tables over any degree window;
* integral homology data (Brieskorn-Milnor): middle Betti rank, homotopy
  and rational-homology sphere tests, the dimension-5 diffeomorphism type
  (Smale classification), and the dimension-7 Milnor signature with its
  exotic-sphere class in bP_8;
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

from .errors import (
    BrieskornError,
    BudgetExceeded,
    DimensionMismatch,
    DimensionTooLow,
    InternalInconsistency,
    InvalidExponent,
    InvalidInstance,
    NotLacunary,
    NotMorseBottCover,
    PreconditionFailed,
    SchemaError,
    ValidationError,
    ZeroPrincipalIndex,
)
from .linkmodel import (
    LinkProfile,
    PeriodSpectrum,
    Stratum,
    canonical_exponents,
    index_set,
    make_link,
    parse_exponents,
    period_spectrum,
    strata,
    sylvester_links,
    sylvester_sequence,
)
from .homology import (
    Dim5Kind,
    Dim5Type,
    QuotientBetti,
    chi_s1,
    diffeo_type_dim5,
    exotic_class_dim7,
    is_homotopy_sphere,
    is_rational_homology_sphere,
    middle_betti,
    milnor_signature_dim7,
    quotient_betti,
)
from .invariants import (
    GradedRanks,
    IndexReport,
    MeanEuler,
    PageColumn,
    e1_page,
    maslov_index,
    mean_euler,
    mean_euler_from_ranks,
    phi,
    principal_index,
    sh_plus_ranks,
)
from .einstein import (
    CoprimeVerdict,
    ModuliReport,
    SEReport,
    SEVerdict,
    count_perturbation_monomials,
    count_weighted_monomials,
    lichnerowicz_obstructed,
    moduli_dimension,
    se_coprime_iff,
    se_status,
    se_sufficient,
    sylvester_numerator,
)
from .tables import (
    KNOWN_SE_EXISTS,
    CollisionGroup,
    LinkRecord,
    SweepSpec,
    build_record,
    cached_record,
    enumerate_links,
    export_records,
    family_sweep,
    find_mec_collisions,
    import_records,
    parse_sweep_spec,
)

__all__ = [
    "__version__",
    # errors
    "BrieskornError",
    "ValidationError",
    "InvalidExponent",
    "DimensionTooLow",
    "DimensionMismatch",
    "InvalidInstance",
    "PreconditionFailed",
    "ZeroPrincipalIndex",
    "NotMorseBottCover",
    "SchemaError",
    "NotLacunary",
    "BudgetExceeded",
    "InternalInconsistency",
    # link model
    "LinkProfile",
    "Stratum",
    "PeriodSpectrum",
    "make_link",
    "parse_exponents",
    "canonical_exponents",
    "index_set",
    "strata",
    "period_spectrum",
    "sylvester_sequence",
    "sylvester_links",
    # homology
    "middle_betti",
    "QuotientBetti",
    "quotient_betti",
    "chi_s1",
    "is_homotopy_sphere",
    "is_rational_homology_sphere",
    "Dim5Kind",
    "Dim5Type",
    "diffeo_type_dim5",
    "milnor_signature_dim7",
    "exotic_class_dim7",
    # invariants
    "IndexReport",
    "maslov_index",
    "principal_index",
    "phi",
    "MeanEuler",
    "mean_euler",
    "GradedRanks",
    "PageColumn",
    "e1_page",
    "sh_plus_ranks",
    "mean_euler_from_ranks",
    # einstein
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
    # tables
    "LinkRecord",
    "build_record",
    "cached_record",
    "KNOWN_SE_EXISTS",
    "enumerate_links",
    "SweepSpec",
    "parse_sweep_spec",
    "family_sweep",
    "CollisionGroup",
    "find_mec_collisions",
    "export_records",
    "import_records",
]
