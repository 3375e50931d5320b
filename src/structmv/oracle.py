"""Brute-force ground truth: expand to a dense matrix, multiply naively."""

from __future__ import annotations

import numpy as np

from .structures import (
    CirculantRep,
    HankelRep,
    MultilevelRep,
    SparseRep,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
)


def dense(m: StructuredMatrix) -> np.ndarray:
    """Entrywise expansion of a structured representation.

    Multilevel representations expand each level and take the iterated
    Kronecker product.  Cost is quadratic in the order; intended for
    testing at desk scale only.
    """
    if isinstance(m, CirculantRep):
        idx = (np.arange(m.n)[None, :] - np.arange(m.n)[:, None]) % m.n
        return m.param[idx]
    if isinstance(m, ToeplitzRep):
        idx = (np.arange(m.n)[None, :] - np.arange(m.n)[:, None]) + m.n - 1
        return m.param[idx]
    if isinstance(m, HankelRep):
        idx = 2 * m.n - 2 - (np.arange(m.n)[:, None] + np.arange(m.n)[None, :])
        return m.param[idx]
    if isinstance(m, SymmetricRep):
        # the packed position of (i, j), i <= j, as symmetric_pack_index has it
        i, j = np.triu_indices(m.n)
        values = m.param[i * m.n - i * (i + 1) // 2 + j]
        out = np.empty((m.n, m.n), dtype=complex)
        out[i, j] = values
        out[j, i] = values
        return out
    if isinstance(m, ToeplitzPlusHankelRep):
        return dense(m.toeplitz) + dense(m.hankel)
    if isinstance(m, SparseRep):
        out = np.zeros((m.n, m.n), dtype=complex)
        out[m.pattern.rows, m.pattern.cols] = m.values
        return out
    if isinstance(m, MultilevelRep):
        out = dense(m.levels[0])
        for level in m.levels[1:]:
            out = np.kron(out, dense(level))
        return out
    raise TypeError(f"not a structured matrix: {type(m).__name__}")


def naive_matvec(d: np.ndarray, v) -> np.ndarray:
    """Row-by-row inner products; the reference every fast path must match."""
    d = np.asarray(d, dtype=complex)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {d.shape}")
    if d.shape[1] != len(v):
        raise ValueError(
            f"matrix order {d.shape[1]} does not match vector length {len(v)}"
        )
    return np.array([np.dot(row, v) for row in d])
