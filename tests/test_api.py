"""The public surface of the ``fockspec`` package."""

from types import ModuleType

import fockspec

EXPORTED = (
    "BiPoly", "CharPoly", "ComplexPlane", "DEFAULT_DEGREE_CAP", "DegreeOverflowError",
    "DeltaLattice", "Differential", "Eigenvalue", "FlagMatrix", "FockVector",
    "IsospectralReport", "LeakageError", "NonConvergenceError", "ParseError",
    "QESCoeffs", "QLattice", "Rational", "Realization", "SolvabilityReport",
    "Spectrum", "UnboundParameterError", "UniPoly", "WeylElement",
    "add", "as_rational", "canonical_text", "char_poly", "classify", "commutator",
    "complex_act_a", "complex_act_b", "complex_fiber_matrix", "eigenvector",
    "es_diagonal", "eval_poly_in_L0", "falling", "flag_matrix", "fock_apply",
    "heun_constraint_residual", "invariant_degree_scan", "is_exactly_solvable",
    "isospectral_check", "lower", "make", "multiply", "parse", "print_canonical",
    "q_number", "qes_constraint_residuals", "qes_leakage_residuals",
    "quasi_monomial_change", "realize_matrix", "restrict", "roots", "scale",
    "spectrum",
)


def test_exported_names_are_pinned():
    # submodules are left out: importing one (fockspec.cli, say) adds it
    names = {
        name for name, value in vars(fockspec).items()
        if not name.startswith("_") and not isinstance(value, ModuleType)
    }
    assert names == set(EXPORTED)
    assert isinstance(fockspec.catalog, ModuleType)
    assert fockspec.__version__ == "0.1.0"


def test_unipoly_and_fock_vector_are_one_type():
    assert fockspec.UniPoly is fockspec.FockVector
    assert issubclass(fockspec.CharPoly, fockspec.UniPoly)
