"""Multilevel (nested Kronecker) structured products.

Two routes again.  The program route tensor-composes the per-level
programs, so its count is the product of the level counts.  The direct
route applies the same Kronecker product one level at a time, as a mode
product per level, with no Kronecker matrix formed.  :func:`prepare` does
its parameter side once per matrix: it takes the program of the levels
after the first (the tail, in operator form, cached by shape) and
multiplies the head level's slot coefficients by the tail's encoded
parameters.  A product then encodes each block of the vector with the
tail's vector encoder, runs the head level's own direct stage from
:mod:`structmv.kernels` over the encoded block with those coefficients,
and decodes with the tail's decoder.  Each pointwise product w[s, t]
formed from an active head slot s and an active tail slot t is one genuine
multiplication; structurally-zero slots are skipped and not counted."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from . import bilinear, kernels
from .bilinear import BilinearProgram
from .structures import (
    MultilevelRep,
    SparseRep,
    StructuredMatrix,
    ToeplitzPlusHankelRep,
    order,
)


def level_program(level: StructuredMatrix) -> BilinearProgram:
    """Per-level program used in tensor composition.

    Identical to the single-level builders except for Toeplitz-plus-Hankel,
    which is re-parameterized on its 4n-3 gauge-fixed coordinates so that
    level parameter dimensions multiply correctly.
    """
    if isinstance(level, ToeplitzPlusHankelRep):
        n = level.n
        return bilinear.conjugate_by(
            kernels.tph_program(n),
            pre_param=kernels.tph_gauge_embed(n),
            pre_vec=None,
            post=None,
        )
    return kernels.single_level_program(level)


def level_params(level: StructuredMatrix) -> np.ndarray:
    """Parameter vector matching :func:`level_program`."""
    if isinstance(level, ToeplitzPlusHankelRep):
        raw = kernels.single_level_params(level)
        return kernels.tph_gauge_project(level.n) @ raw
    return kernels.single_level_params(level)


def param_vector(m: MultilevelRep) -> np.ndarray:
    """Flattened outer product of the per-level parameter vectors (their
    Kronecker product, without ``np.kron``'s per-call set-up)."""
    return reduce(lambda a, b: np.outer(a, b).reshape(-1),
                  [level_params(level) for level in m.levels])


def multilevel_program(m: MultilevelRep) -> BilinearProgram:
    """Tensor composition of the per-level programs (left fold)."""
    return reduce(bilinear.kron, [level_program(level) for level in m.levels])


@dataclass(frozen=True)
class _TailShape:
    """Levels after the head, hashed and compared by ``key``: what their
    program depends on, each level's structure and order and a sparse
    level's support, but no parameter value."""

    key: tuple
    levels: tuple = field(compare=False)


@lru_cache(maxsize=32)
def _tail_program(shape: _TailShape) -> BilinearProgram:
    """The tail's program in operator form with its inactive slots
    dropped, so that every slot the head stage multiplies is counted."""
    program = multilevel_program(MultilevelRep(shape.levels))
    return bilinear.drop_inactive(program)


def prepare(m: StructuredMatrix) -> kernels.Prepared:
    """``m`` prepared for direct products: every parameter encoding done
    once, and kept on the matrix object for as long as it lives.

    A multilevel matrix keeps the tail's cached program and its first
    level's slot coefficients times the tail's encoded parameters, so that
    a product is the tail's vector encoder, the first level's stage and the
    tail's decoder.  The coefficients hold one complex number per genuine
    multiplication of a product, ``param_dim(m)`` in all.
    """
    if not isinstance(m, MultilevelRep):
        return kernels.prepare_level(m)
    return kernels.memo(m, _prepare_multilevel)


def _prepare_multilevel(m: MultilevelRep) -> kernels.Prepared:
    head = kernels.prepare_level(m.levels[0])
    if len(m.levels) == 1:
        return head
    tail_rep = MultilevelRep(m.levels[1:])
    key = tuple((type(level), level.pattern if isinstance(level, SparseRep)
                 else level.n) for level in tail_rep.levels)
    tail = _tail_program(_TailShape(key, tail_rep.levels))
    coef = np.outer(head.coef, tail.enc_param @ param_vector(tail_rep))
    coef.setflags(write=False)
    return kernels.Prepared("multilevel", order(m), head.stage, coef, tail)


def multilevel_matvec_direct(m: MultilevelRep, v) -> tuple[np.ndarray, int]:
    """Blocked evaluation of the prepared matrix (see :func:`prepare`);
    returns (product, measured count).  The count is the number of
    pointwise products evaluated, (head count) x (tail count) per vector.
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
    v = np.asarray(v, dtype=complex).reshape(-1)
    pa = full.enc_param.apply(param_vector(m))
    pv = full.enc_vec.apply(v)
    w = np.zeros(full.r, dtype=complex)
    w[full.active] = pa[full.active] * pv[full.active]
    return w.reshape(head_p.r, tail_p.r)
