"""Multilevel (nested Kronecker) structured products.

A multilevel matrix runs one program on one parameter vector: the tensor
composition of its levels' single-level programs, on the Kronecker product
of their raw parameter vectors.  Its count is the product of the level
counts, and its inactive slots are multiplied by the constant 0 on both
routes.  Each map is one :class:`~structmv.operators.Kron` operator with a
factor per level, applied as one mode product per level with no Kronecker
matrix formed, unless the whole map is small enough to keep dense.  A
single-level matrix is a multilevel matrix of one level, so
:func:`multilevel_program`, :func:`param_vector` and :func:`prepare` serve
every matrix; :func:`prepare` encodes each level's parameters once, by
that level's own program (see :class:`structmv.bilinear.Prepared`).
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from . import bilinear, kernels
from .bilinear import BilinearProgram
from .structures import KINDS, MultilevelRep, StructuredMatrix


def _kron_vectors(vectors) -> np.ndarray:
    """Kronecker product of 1-D vectors as a flattened outer product,
    without ``np.kron``'s per-call set-up."""
    return reduce(lambda a, b: np.outer(a, b).reshape(-1), vectors)


def _levels(m: StructuredMatrix) -> tuple:
    """The levels of ``m``; a single-level matrix is its own only level."""
    return m.levels if isinstance(m, MultilevelRep) else (m,)


def param_vector(m: StructuredMatrix) -> np.ndarray:
    """Kronecker product of the levels' raw parameter vectors."""
    return _kron_vectors([kernels.single_level_params(level)
                          for level in _levels(m)])


def multilevel_program(m: StructuredMatrix) -> BilinearProgram:
    """Tensor composition of the levels' single-level programs, one
    :func:`bilinear.kron` of all of them; for a single-level matrix, its
    cached single-level program."""
    return bilinear.kron(*[kernels.single_level_program(level)
                           for level in _levels(m)])


def prepare(m: StructuredMatrix) -> bilinear.Prepared:
    """``m`` prepared for direct products: every parameter encoding done
    once, and kept on the matrix object, which is immutable and compared
    by identity, for as long as it lives.

    The prepared matrix keeps :func:`multilevel_program` and one
    coefficient per slot of it: ``param_dim(m)`` genuine multiplications
    plus the inactive slots, which hold 0.
    """
    prepared = vars(m).get("_prepared")
    if prepared is None:
        prepared = _encode(m)
        object.__setattr__(m, "_prepared", prepared)
    return prepared


def _encode(m: StructuredMatrix) -> bilinear.Prepared:
    # the Kronecker encoder applied to param_vector(m) is the Kronecker
    # product of the levels' encoded parameters, which costs far less
    coef = _kron_vectors([
        bilinear.coefficients(kernels.single_level_program(level),
                              kernels.single_level_params(level))
        for level in _levels(m)])
    return bilinear.Prepared(KINDS[type(m)], multilevel_program(m), coef)


def multilevel_matvec_direct(m: MultilevelRep, v) -> tuple[np.ndarray, int]:
    """Product of the prepared matrix (see :func:`prepare`); returns
    (product, measured count).  The count is the number of pointwise
    products evaluated, the product of the level counts per vector.
    """
    return prepare(m).apply(v)


def intermediate_w_values(m: MultilevelRep, v) -> np.ndarray:
    """Top-level pointwise products of the program route on one vector.

    As a matrix: row s is a head slot, column t a tail slot; inactive slots
    are zero.  Exposed for inspection and testing.
    """
    if len(m.levels) < 2:
        raise ValueError("intermediate products need at least two levels")
    if np.ndim(v) != 1:
        raise ValueError(f"expected a vector, got shape {np.shape(v)}")
    program = multilevel_program(m)
    coef = bilinear.coefficients(program, param_vector(m))
    w = bilinear._slots(program, coef, v)
    return w.reshape(kernels.single_level_program(m.levels[0]).r, -1)
