"""The package surface: one list of public names per module, re-exported."""

import os
import subprocess
import sys

import pytest

import brieskorn
from brieskorn import einstein, errors, homology, invariants, linkmodel, tables

MODULES = (errors, linkmodel, homology, invariants, einstein, tables)

PUBLIC_NAMES = [
    "BrieskornError", "BudgetExceeded", "CollisionGroup", "CoprimeVerdict",
    "Dim5Kind", "Dim5Type", "DimensionMismatch", "DimensionTooLow",
    "GradedRanks", "IndexReport", "InternalInconsistency", "InvalidExponent",
    "InvalidInstance", "KNOWN_SE_EXISTS", "LinkProfile", "LinkRecord",
    "MeanEuler", "ModuliReport", "NotLacunary", "NotMorseBottCover",
    "PageColumn", "PeriodSpectrum", "PreconditionFailed", "QuotientBetti",
    "SEReport", "SEVerdict", "SchemaError", "Stratum", "SweepSpec",
    "ValidationError", "ZeroPrincipalIndex", "__version__", "build_record",
    "cached_record", "canonical_exponents", "chi_s1", "diffeo_type_dim5",
    "e1_page", "enumerate_links", "exotic_class_dim7", "export_records",
    "family_sweep", "find_mec_collisions", "import_records", "index_set",
    "is_homotopy_sphere", "is_rational_homology_sphere",
    "lichnerowicz_obstructed", "make_link", "maslov_index", "mean_euler",
    "mean_euler_from_ranks", "middle_betti", "milnor_signature_dim7",
    "moduli_dimension", "parse_exponents", "parse_sweep_spec",
    "period_spectrum", "principal_index", "quotient_betti", "se_coprime_iff",
    "se_status", "se_sufficient", "sh_plus_ranks", "sylvester_links",
    "sylvester_sequence",
]


def test_public_names_are_pinned():
    assert len(brieskorn.__all__) == len(set(brieskorn.__all__)) == 66
    assert sorted(brieskorn.__all__) == PUBLIC_NAMES


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_each_name_is_the_object_of_its_home_module(module):
    for name in module.__all__:
        obj = getattr(module, name)
        assert getattr(brieskorn, name) is obj, name
        if hasattr(obj, "__module__"):
            assert obj.__module__ == module.__name__, name


def test_star_import_gives_exactly_the_public_names():
    namespace = {}
    exec("from brieskorn import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == PUBLIC_NAMES


def test_the_package_imports_without_the_test_oracles():
    # the references in tests/oracles.py are not on an installed path
    src = os.path.dirname(os.path.dirname(brieskorn.__file__))
    code = "import sys, brieskorn.cli; print('oracles' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=src, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert (out.returncode, out.stdout, out.stderr) == (0, "False\n", "")
