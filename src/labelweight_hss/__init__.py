"""Linear homomorphic secret sharing from labelweight codes.

Construct t-private, s-server schemes for low-degree product evaluation
out of linear codes whose nonzero codewords touch more than d*t server
labels, instantiate them from Goppa, Hermitian-curve and Reed-Solomon
codes, run them monolithically or as a simulated protocol, audit their
privacy exhaustively, and reproduce the parameter trade-off tables and
random-code analysis that motivate the constructions.
"""

__version__ = "0.1.0"

from .codes import (
    LabeledCode,
    Labeling,
    ball_volume,
    goppa_build,
    goppa_condition,
    hermitian_build,
    hermitian_points,
    labelweight,
    min_distance,
    rs_build,
)
from .galois import FieldSpec, Polynomial, find_irreducible
from .hss import (
    HssParams,
    HssScheme,
    cnf_share,
    privacy_audit,
    reconstruct,
    run_end_to_end,
    scheme_for_code,
    scheme_rate,
    synthesize_eval,
)
from .kernels import BACKEND as KERNEL_BACKEND
from .matrix import MatrixF, kernel_basis, rref, solve_particular
from .protocol import simulate

__all__ = [
    "FieldSpec",
    "HssParams",
    "HssScheme",
    "KERNEL_BACKEND",
    "LabeledCode",
    "Labeling",
    "MatrixF",
    "Polynomial",
    "ball_volume",
    "cnf_share",
    "find_irreducible",
    "goppa_build",
    "goppa_condition",
    "hermitian_build",
    "hermitian_points",
    "kernel_basis",
    "labelweight",
    "min_distance",
    "privacy_audit",
    "reconstruct",
    "rref",
    "rs_build",
    "run_end_to_end",
    "scheme_for_code",
    "scheme_rate",
    "simulate",
    "solve_particular",
    "synthesize_eval",
]
