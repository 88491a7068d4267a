"""fockspec: exact spectral engine for operators with polynomial eigenfunctions.

Normal-orders elements of the Heisenberg enveloping algebra over exact
rationals, classifies them as exactly- or quasi-exactly-solvable, realizes
them as differential, finite-difference, discrete and complex-plane
operators, and computes their polynomial-sector spectra from exact
characteristic polynomials.
"""

from .weyl import (
    DEFAULT_DEGREE_CAP,
    DegreeOverflowError,
    FlagMatrix,
    FockVector,
    Rational,
    WeylElement,
    add,
    as_rational,
    canonical_text,
    commutator,
    eval_poly_in_L0,
    falling,
    flag_matrix,
    fock_apply,
    make,
    multiply,
    scale,
)
from .realizations import (
    BiPoly,
    ComplexPlane,
    DeltaLattice,
    Differential,
    QLattice,
    Realization,
    UniPoly,
    complex_act_a,
    complex_act_b,
    complex_fiber_matrix,
    q_number,
    quasi_monomial_change,
    realize_matrix,
)
from .solvability import (
    QESCoeffs,
    SolvabilityReport,
    classify,
    es_diagonal,
    heun_constraint_residual,
    invariant_degree_scan,
    is_exactly_solvable,
    qes_constraint_residuals,
    qes_leakage_residuals,
)
from .spectra import (
    CharPoly,
    Eigenvalue,
    IsospectralReport,
    LeakageError,
    NonConvergenceError,
    Spectrum,
    char_poly,
    eigenvector,
    isospectral_check,
    restrict,
    roots,
    spectrum,
)
from .opdsl import ParseError, UnboundParameterError, lower, parse, print_canonical
from . import catalog

__version__ = "0.1.0"
