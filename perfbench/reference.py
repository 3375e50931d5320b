"""Independent ground truth for the benchmark.

Dense matrices are built here from the index formulas that the
``structmv.structures`` docstrings state, never through ``structmv.oracle``,
and genuine-multiplication counts come from their closed forms.  The
:class:`Checker` compares every output the benchmark collects against them
and tallies what it attempted and what failed.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

# relative error allowed against the dense product
TOL = 1e-9


def dense_level(structure: str, n: int, raw) -> np.ndarray:
    """Dense matrix of one level from its raw inputs (see ``cases``)."""
    if structure == "toeplitz_plus_hankel":
        return dense_level("toeplitz", n, raw[0]) + dense_level("hankel", n, raw[1])
    i = np.arange(n)[:, None]
    j = np.arange(n)[None, :]
    if structure == "circulant":
        return np.asarray(raw, dtype=complex)[(j - i) % n]
    if structure == "toeplitz":
        return np.asarray(raw, dtype=complex)[j - i + n - 1]
    if structure == "hankel":
        return np.asarray(raw, dtype=complex)[2 * n - 2 - i - j]
    out = np.zeros((n, n), dtype=complex)
    if structure == "symmetric":
        # packed row-major upper triangle: (0,0), (0,1), ..., (0,n-1), (1,1), ...
        rows, cols = np.triu_indices(n)
        out[rows, cols] = raw
        out[cols, rows] = raw
        return out
    support, values = raw
    for (r, c), value in zip(support, values):
        out[r, c] = value
    return out


def dense(levels) -> np.ndarray:
    """Dense matrix of a case: the Kronecker product over its levels, each
    given as ``((structure, n, nnz), raw)``."""
    out = np.ones((1, 1), dtype=complex)
    for (structure, n, _), raw in levels:
        out = np.kron(out, dense_level(structure, n, raw))
    return out


def level_count(structure: str, n: int, nnz) -> int:
    """Genuine multiplications per product that the paper proves minimal."""
    return {
        "circulant": n,
        "toeplitz": 2 * n - 1,
        "hankel": 2 * n - 1,
        "symmetric": n * (n + 1) // 2,
        "toeplitz_plus_hankel": 4 * n - 3,
        "sparse": nnz,
    }[structure]


def closed_form_count(levels) -> int:
    """The product of the level counts."""
    out = 1
    for level, _ in levels:
        out *= level_count(*level)
    return out


def rel_err(got, want) -> float:
    """Largest entry error relative to the largest entry of ``want``."""
    got = np.asarray(got, dtype=complex).reshape(-1)
    want = np.asarray(want, dtype=complex).reshape(-1)
    if got.shape != want.shape:
        return float("inf")
    scale = float(np.abs(want).max()) if want.size else 0.0
    err = float(np.abs(got - want).max()) if want.size else 0.0
    return err / scale if scale > 0 else err


class Checker:
    """Tallies checked operations by kind, and the ones that failed.

    A failed operation either returned a wrong output (``wrong``, which
    makes the run incorrect) or did not return one at all: it raised, or a
    CLI child exited with an error.
    """

    def __init__(self):
        self.attempted = Counter()
        self.failed = Counter()
        self.wrong = 0
        self.failures = []

    def record(self, kind: str, label: str, problem: str | None, wrong=True) -> bool:
        self.attempted[kind] += 1
        if problem is not None:
            self.failed[kind] += 1
            self.wrong += wrong
            if len(self.failures) < 20:
                self.failures.append(f"{kind} {label}: {problem}")
        return problem is None

    def error(self, kind: str, label: str, problem: str) -> bool:
        """An operation that returned no output."""
        return self.record(kind, label, problem, wrong=False)

    def product(self, label, got, count, want, want_count, kind="product") -> bool:
        """One matrix-vector product against its dense value and count."""
        err = rel_err(got, want)
        if not err <= TOL:
            problem = f"relative error {err:.3e} > {TOL:g}"
        elif count != want_count:
            problem = f"count {count} != {want_count}"
        else:
            problem = None
        return self.record(kind, label, problem)

    def values(self, label, got, want, tol=TOL, kind="stage") -> bool:
        """Any other array output, such as a transform or an embedding."""
        err = rel_err(got, want)
        return self.record(
            kind, label, None if err <= tol else f"relative error {err:.3e} > {tol:g}"
        )

    def equal(self, label, got, want, kind="stage") -> bool:
        return self.record(kind, label, None if got == want else f"{got!r} != {want!r}")
