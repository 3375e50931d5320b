"""Brute-force ground truth: expand to a dense matrix, multiply naively."""

from __future__ import annotations

import numpy as np

from .structures import (
    MultilevelRep,
    ParamRep,
    SparseRep,
    StructuredMatrix,
    ToeplitzPlusHankelRep,
)


def dense(m: StructuredMatrix) -> np.ndarray:
    """Entrywise expansion of a structured representation.

    Entry (i, j) of a structure of one vector is ``param[entry(n, i, j)]``.
    Multilevel representations expand each level and take the iterated
    Kronecker product.  Cost is quadratic in the order; intended for
    testing at desk scale only.
    """
    if isinstance(m, ParamRep):
        k = np.arange(m.n)
        return m.param[m.entry(m.n, k[:, None], k)]
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
