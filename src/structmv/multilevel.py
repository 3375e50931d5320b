"""Multilevel (nested Kronecker) structured products.

The program route tensor-composes the per-level programs, so its count is
the product of the level counts; its inactive slots are multiplied by the
constant 0.  The direct route applies the same composition with each
level's inactive slots dropped first: its encoders and decoder are
:class:`~structmv.operators.Kron` operators, applied as one mode product
per level with no Kronecker matrix formed, and every slot is a genuine
multiplication.  :func:`prepare` encodes the parameters once per matrix,
so a product is the Kronecker vector encoder, one pointwise multiply and
the Kronecker decoder (see :class:`structmv.bilinear.Prepared`).
"""

from __future__ import annotations

from functools import lru_cache, reduce

import numpy as np

from . import bilinear, kernels
from .bilinear import BilinearProgram
from .structures import MultilevelRep, StructuredMatrix, ToeplitzPlusHankelRep


def level_program(level: StructuredMatrix) -> BilinearProgram:
    """Per-level program used in tensor composition.

    Identical to the single-level builders except for Toeplitz-plus-Hankel,
    which is re-parameterized on its 4n-3 gauge-fixed coordinates so that
    level parameter dimensions multiply correctly.
    """
    if isinstance(level, ToeplitzPlusHankelRep):
        return _gauged_tph_program(level.n)
    return kernels.single_level_program(level)


@lru_cache(maxsize=64)
def _gauged_tph_program(n: int) -> BilinearProgram:
    """:func:`kernels.tph_program` on the gauge-fixed coordinates."""
    return bilinear.conjugate_by(kernels.tph_program(n),
                                 pre_param=kernels.tph_gauge_embed(n),
                                 pre_vec=None, post=None)


def level_params(level: StructuredMatrix) -> np.ndarray:
    """Parameter vector matching :func:`level_program`."""
    if isinstance(level, ToeplitzPlusHankelRep):
        raw = kernels.single_level_params(level)
        return kernels.tph_gauge_project(level.n) @ raw
    return kernels.single_level_params(level)


def _kron_vectors(vectors) -> np.ndarray:
    """Kronecker product of 1-D vectors as a flattened outer product,
    without ``np.kron``'s per-call set-up."""
    return reduce(lambda a, b: np.outer(a, b).reshape(-1), vectors)


def param_vector(m: MultilevelRep) -> np.ndarray:
    """Kronecker product of the per-level parameter vectors."""
    return _kron_vectors([level_params(level) for level in m.levels])


def multilevel_program(m: MultilevelRep) -> BilinearProgram:
    """Tensor composition of the per-level programs (left fold)."""
    return reduce(bilinear.kron, [level_program(level) for level in m.levels])


@lru_cache(maxsize=64)
def _active_program(program: BilinearProgram) -> BilinearProgram:
    """``program`` with its inactive slots dropped, once per level program
    (the builders cache theirs), so that every slot is counted."""
    return bilinear.drop_inactive(program)


def prepare(m: StructuredMatrix) -> bilinear.Prepared:
    """``m`` prepared for direct products: every parameter encoding done
    once, and kept on the matrix object for as long as it lives.

    A multilevel matrix keeps the Kronecker product of its levels' programs
    with their inactive slots dropped, and that program's encoded
    parameters: one complex number per genuine multiplication of a
    product, ``param_dim(m)`` in all.
    """
    if not isinstance(m, MultilevelRep):
        return kernels.prepare_level(m)
    return kernels.memo(m, _prepare_kron)


def _prepare_kron(m: MultilevelRep) -> bilinear.Prepared:
    programs = [_active_program(level_program(level)) for level in m.levels]
    # the Kronecker encoder applied to param_vector(m) is the Kronecker
    # product of the levels' encoded parameters, which costs far less
    coef = _kron_vectors([program.enc_param @ level_params(level)
                          for program, level in zip(programs, m.levels)])
    return bilinear.Prepared("multilevel", reduce(bilinear.kron, programs), coef)


def multilevel_matvec_direct(m: MultilevelRep, v) -> tuple[np.ndarray, int]:
    """Product of the prepared matrix (see :func:`prepare`); returns
    (product, measured count).  The count is the number of pointwise
    products evaluated, the product of the level counts per vector.
    """
    return prepare(m).apply(v)


def intermediate_w_values(m: MultilevelRep, v) -> np.ndarray:
    """Top-level pointwise products of the program route, as a matrix.

    Row s is a head slot, column t a tail slot; inactive slots are zero.
    Exposed for inspection and testing.
    """
    if len(m.levels) < 2:
        raise ValueError("intermediate products need at least two levels")
    head_p = level_program(m.levels[0])
    tail_p = multilevel_program(MultilevelRep(m.levels[1:]))
    full = bilinear.kron(head_p, tail_p)
    coef = bilinear.coefficients(full, param_vector(m))
    return bilinear.slot_products(full, coef, v).reshape(head_p.r, tail_p.r)
