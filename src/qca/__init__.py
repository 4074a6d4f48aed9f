"""Exact engine for skew-symmetric quantum cluster algebras.

Builds the initial quantum seed of a symmetric Cartan matrix and reduced
word, mutates quantum seeds inside the initial quantum torus over
Z[v^{+-1}] (v^2 = q), and verifies every integer identity the construction
asserts: compatibility, parity, weight balance, the exchange identity,
q-commutation after mutation, homogeneity, Laurentness, positivity, the
classical q = 1 shadow, and mutation involutivity.
"""

from .cartan import (
    CartanDatum,
    Weight,
    WeylWord,
    check_reduced,
    coroot_pair,
    inversion_roots,
    pair_weight_root,
    reflect,
    weyl_apply,
)
from .checks import ALL_CHECKS, CheckReport, default_sequences, run_suite
from .classical import ClassicalSeed, classical_mutate, classical_shadow, compare_q1
from .errors import (
    EngineInvariantError,
    IncompatibleError,
    NotDivisibleError,
    NotReducedError,
)
from .gls import GLSData, analyze_word, build_initial_seed, build_quiver, lambda_matrix
from .seeds import (
    BMatrix,
    QuantumSeed,
    check_compatible,
    cluster_monomial,
    exchange_exponents,
    mutate,
    mutate_seq,
    mutate_variable,
)
from .torus import LMatrix, TorusElem, exact_left_div, q_commute_exponent

__version__ = "0.1.0"

# the only arithmetic implementation; benchmark records stamp it
KERNEL_BACKEND = "python"

__all__ = [
    "__version__",
    "CartanDatum",
    "Weight",
    "WeylWord",
    "coroot_pair",
    "pair_weight_root",
    "reflect",
    "weyl_apply",
    "inversion_roots",
    "check_reduced",
    "LMatrix",
    "TorusElem",
    "KERNEL_BACKEND",
    "exact_left_div",
    "q_commute_exponent",
    "BMatrix",
    "QuantumSeed",
    "check_compatible",
    "exchange_exponents",
    "cluster_monomial",
    "mutate",
    "mutate_seq",
    "mutate_variable",
    "GLSData",
    "analyze_word",
    "build_quiver",
    "lambda_matrix",
    "build_initial_seed",
    "ClassicalSeed",
    "classical_shadow",
    "classical_mutate",
    "compare_q1",
    "ALL_CHECKS",
    "CheckReport",
    "run_suite",
    "default_sequences",
    "NotReducedError",
    "IncompatibleError",
    "NotDivisibleError",
    "EngineInvariantError",
]
