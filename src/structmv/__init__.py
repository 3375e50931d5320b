"""structmv: structured matrix-vector products with verified multiplication
counts.

Circulant, Toeplitz, Hankel, symmetric, Toeplitz-plus-Hankel, sparse, and
arbitrarily nested multilevel (Kronecker) structures, each with a bilinear
program whose genuine-multiplication count is minimal and measured at
runtime, plus a direct path that applies the same program with the
parameters encoded once per matrix (``prepare(m)``), and a dense
brute-force oracle for cross-checking.
"""

from .bilinear import BilinearProgram, CountReport, Prepared, apply, kron, prune_check
from .kernels import (
    circulant_program,
    hankel_program,
    sparse_program,
    symmetric_program,
    toeplitz_program,
    tph_program,
)
from .multilevel import (
    intermediate_w_values,
    multilevel_program,
    prepare,
)
from .oracle import dense, naive_matvec
from .structures import (
    CirculantRep,
    HankelRep,
    MultilevelRep,
    SparseRep,
    SparsityPattern,
    StructureError,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
    order,
    param_dim,
    validate,
)

__version__ = "0.1.0"

__all__ = [
    "BilinearProgram",
    "CirculantRep",
    "CountReport",
    "HankelRep",
    "MultilevelRep",
    "Prepared",
    "SparseRep",
    "SparsityPattern",
    "StructureError",
    "StructuredMatrix",
    "SymmetricRep",
    "ToeplitzPlusHankelRep",
    "ToeplitzRep",
    "apply",
    "circulant_program",
    "dense",
    "hankel_program",
    "intermediate_w_values",
    "kron",
    "multilevel_program",
    "naive_matvec",
    "order",
    "param_dim",
    "prepare",
    "prune_check",
    "sparse_program",
    "symmetric_program",
    "toeplitz_program",
    "tph_program",
    "validate",
]
