"""Multilevel (nested Kronecker) structured products.

Two routes again.  The program route tensor-composes the per-level
programs, so its count is the product of the level counts.  The direct
route applies the same Kronecker product one level at a time, as a mode
product per level, with no Kronecker matrix formed: it encodes each block
of the vector with the tail's vector encoder (the program of the levels
after the first, in operator form), runs the head level's own direct stage
from :mod:`structmv.kernels` over the encoded block with the tail's encoded
parameters as the per-column factor, and decodes with the tail's decoder.
Each pointwise product w[s, t] formed from an active head slot s and an
active tail slot t is one genuine multiplication; structurally-zero slots
are skipped and not counted.
"""

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


def multilevel_matvec_direct(m: MultilevelRep, v) -> tuple[np.ndarray, int]:
    """Blocked evaluation; returns (product, measured count).

    The tail's vector encoder maps each of the head's blocks of v to the
    tail's slots, the head's own direct stage runs on that block with the
    tail's encoded parameters as its per-column factor, and the tail's
    decoder maps the result back.  The measured count is the number of
    pointwise products evaluated, (head count) x (tail count).
    """
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(v) != order(m):
        raise ValueError(
            f"vector length {len(v)} does not match order {order(m)}"
        )
    head = m.levels[0]
    if len(m.levels) == 1:
        return kernels.direct_matvec(head, v)
    tail_rep = MultilevelRep(m.levels[1:])
    key = tuple((type(level), level.pattern if isinstance(level, SparseRep)
                 else level.n) for level in tail_rep.levels)
    tail = _tail_program(_TailShape(key, tail_rep.levels))
    blocks = v.reshape(order(head), tail.n_in)
    x = (tail.enc_vec @ blocks.T).T
    phi = tail.enc_param @ param_vector(tail_rep)
    z, count = kernels.direct_stage(head, x, phi)
    return (tail.dec @ z.T).T.reshape(-1), count


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
