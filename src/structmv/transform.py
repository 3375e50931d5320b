"""Discrete Fourier machinery.

The Fourier matrix used throughout has the positive-exponent kernel
``W[r, c] = exp(2*pi*i*r*c/n)``; it is symmetric, and its inverse is
``conj(W)/n``.  :func:`fourier_matrix` forms W densely, for reference
checks and the small head stages of multilevel products.  The transforms
:func:`dft` and :func:`idft` apply W and its inverse in O(n log n) with
numpy's FFT; in numpy's negative-exponent convention ``W @ x`` is
``n * ifft(x)``.  Transform entries are constants, so the
transforms cost no genuine multiplications.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np


@lru_cache(maxsize=16)
def fourier_matrix(n: int) -> np.ndarray:
    """Order-n Fourier matrix with entry (r, c) = exp(2*pi*i*r*c/n).

    Rows and columns are indexed from 0, so the first row and column are
    all ones.  The returned array is cached and read-only.
    """
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    k = np.arange(n)
    # reduce the exponent mod n before evaluating, for exact symmetry
    w = np.exp(2j * np.pi * (np.outer(k, k) % n) / n)
    w.setflags(write=False)
    return w


@lru_cache(maxsize=16)
def exchange_matrix(n: int) -> np.ndarray:
    """Anti-diagonal permutation matrix J reversing coordinate order."""
    j = np.eye(n)[::-1].copy()
    j.setflags(write=False)
    return j


def dft(x) -> np.ndarray:
    """Unnormalized forward transform W @ x, along the first axis."""
    x = np.asarray(x, dtype=complex)
    return len(x) * np.fft.ifft(x, axis=0)


def idft(x) -> np.ndarray:
    """True inverse transform W^{-1} @ x = conj(W) @ x / n, along the first
    axis."""
    x = np.asarray(x, dtype=complex)
    return np.fft.fft(x, axis=0) / len(x)


def exchange_apply(x) -> np.ndarray:
    """Reverse coordinate order (left-multiplication by J)."""
    return np.asarray(x, dtype=complex)[::-1].copy()
