"""Multilevel (nested Kronecker) structured products.

Two routes again.  The program route tensor-composes the per-level
programs, so its count is the product of the level counts.  The direct
route dispatches on the head structure: it runs the head's own kernel
stages literally while treating the whole tail through the tail's program
maps (parameter encode, vector encode, decode).  Each pointwise product
w[s, t] formed from an active head slot s and an active tail slot t is one
genuine multiplication; structurally-zero slots are skipped and not
counted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np

from . import bilinear, kernels
from .bilinear import BilinearProgram
from .structures import (
    CirculantRep,
    HankelRep,
    MultilevelRep,
    SparseRep,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
    order,
)
from .transform import fourier_matrix


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
    """Flattened outer product of the per-level parameter vectors."""
    return reduce(np.kron, [level_params(level) for level in m.levels])


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
    """The tail's program with its maps formed as dense matrices, which
    the head stages multiply by directly; their size is quadratic in the
    tail's order."""
    p = multilevel_program(MultilevelRep(shape.levels))
    return BilinearProgram(p.enc_param.to_dense(), p.enc_vec.to_dense(),
                           p.dec.to_dense(), p.active)


def _psi_blocks(v, n_head, tail: BilinearProgram) -> np.ndarray:
    """psi[k, t]: tail vector-encode of the k-th block of v."""
    blocks = np.asarray(v, dtype=complex).reshape(n_head, tail.n_in)
    return blocks @ tail.enc_vec.matrix.T


def _head_circulant(head_row, head_mask, tail, phi_b, v):
    """Circulant head: one product per active (frequency, tail slot).

    w[s, t] = (W @ head_row)[s] * phi_b[t]  x  sum_k conj(W)[s, k] psi[k, t]
    and the output blocks are (W / n) applied to the tail-decoded w rows.
    """
    head_row = np.asarray(head_row, dtype=complex).reshape(-1)
    n_head = len(head_row)
    w_mat = fourier_matrix(n_head)
    a_hat = w_mat @ head_row
    psi = _psi_blocks(v, n_head, tail)
    vec_side = np.conj(w_mat) @ psi
    coeff = np.outer(a_hat, phi_b)
    mask = np.outer(head_mask, tail.active)
    w = np.zeros((n_head, tail.r), dtype=complex)
    w[mask] = coeff[mask] * vec_side[mask]
    out_blocks = (w_mat @ (w @ tail.dec.matrix.T)) / n_head
    return out_blocks.reshape(-1), int(mask.sum())


def _head_toeplitz(param, tail, phi_b, v, extra_skip=()):
    param = np.asarray(param, dtype=complex).reshape(-1)
    n_head = (len(param) + 1) // 2
    c = kernels.toeplitz_embedding(n_head).embed(param)
    sub_len = len(v)
    padded = np.concatenate([np.asarray(v, dtype=complex), np.zeros(sub_len)])
    head_mask = np.ones(2 * n_head, dtype=bool)
    head_mask[0] = False
    for s in extra_skip:
        head_mask[s] = False
    z, count = _head_circulant(c, head_mask, tail, phi_b, padded)
    return z[:sub_len], count


def _head_hankel(param, tail, phi_b, v):
    param = np.asarray(param, dtype=complex).reshape(-1)
    n_head = (len(param) + 1) // 2
    z, count = _head_toeplitz(param[::-1], tail, phi_b, v)
    blocks = z.reshape(n_head, -1)
    return blocks[::-1].reshape(-1), count


def _head_symmetric(param, n_head, tail, phi_b, v):
    n_tail = tail.n_in
    z = np.zeros(n_head * n_tail, dtype=complex)
    count = 0
    for k, shell in kernels.symmetric_shells(param, n_head):
        rows = slice(k * n_tail, (n_head - k) * n_tail)
        w, c = _head_hankel(shell, tail, phi_b, v[rows])
        z[rows] += w
        count += c
    return z, count


def _head_tph(t_param, h_param, tail, phi_b, v):
    shift = kernels.tph_alpha((len(t_param) + 1) // 2) @ t_param
    z_h, c_h = _head_hankel(h_param + shift, tail, phi_b, v)
    z_t, c_t = _head_toeplitz(t_param - shift, tail, phi_b, v, extra_skip=(1,))
    return z_h + z_t, c_h + c_t


def _head_sparse(rep: SparseRep, tail, phi_b, v):
    n_head = rep.n
    psi = _psi_blocks(v, n_head, tail)
    act = tail.active
    n_active = int(act.sum())
    w = np.zeros((n_head, tail.r), dtype=complex)
    count = 0
    for (i, j), value in zip(rep.pattern.support, rep.values):
        w[i, act] += (value * phi_b[act]) * psi[j, act]
        count += n_active
    out_blocks = w @ tail.dec.matrix.T
    return out_blocks.reshape(-1), count


def multilevel_matvec_direct(m: MultilevelRep, v) -> tuple[np.ndarray, int]:
    """Head-dispatch evaluation; returns (product, measured count).

    The measured count is the number of pointwise products actually
    evaluated and always equals the product of the level counts.
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
    phi_b = tail.enc_param.matrix @ param_vector(tail_rep)
    if isinstance(head, CirculantRep):
        head_mask = np.ones(head.n, dtype=bool)
        return _head_circulant(head.param, head_mask, tail, phi_b, v)
    if isinstance(head, ToeplitzRep):
        return _head_toeplitz(head.param, tail, phi_b, v)
    if isinstance(head, HankelRep):
        return _head_hankel(head.param, tail, phi_b, v)
    if isinstance(head, SymmetricRep):
        return _head_symmetric(head.param, head.n, tail, phi_b, v)
    if isinstance(head, ToeplitzPlusHankelRep):
        return _head_tph(head.toeplitz.param, head.hankel.param, tail, phi_b, v)
    if isinstance(head, SparseRep):
        return _head_sparse(head, tail, phi_b, v)
    raise TypeError(f"unsupported head structure: {type(head).__name__}")


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
