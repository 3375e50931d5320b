"""Parameter-space representations of structured matrices.

Every matrix class is stored by its free parameters only: a circulant by its
first row, a Toeplitz or Hankel matrix by its 2n-1 distinct entries, a
symmetric matrix by its packed upper triangle, a sparse matrix by the values
on its support, and a multilevel matrix by the list of its Kronecker factors.
All storage is 0-indexed and complex double precision; real inputs are
promoted with zero imaginary parts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Union

import numpy as np


class StructureError(ValueError):
    """A representation violates one of its structural invariants."""


def _cvec(values) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(-1)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class ParamRep:
    """A structure of order n stored as one parameter vector ``param``.

    The base of the four structures of this form; equality is identity.
    """

    n: int
    param: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "param", _cvec(self.param))


class CirculantRep(ParamRep):
    """Circulant matrix of order n; ``param`` is the first row.

    Entry (i, j) equals ``param[(j - i) % n]``: each row is the cyclic
    right shift of the previous one.
    """


class ToeplitzRep(ParamRep):
    """Toeplitz matrix of order n stored as 2n-1 diagonal values.

    Entry (i, j) equals ``param[j - i + n - 1]``; param goes from the
    bottom-left corner to the top-right corner.
    """


class HankelRep(ParamRep):
    """Hankel matrix of order n stored as 2n-1 anti-diagonal values.

    Entry (i, j) equals ``param[2n - 2 - i - j]``; param goes from the
    bottom-right corner to the top-left corner.
    """


class SymmetricRep(ParamRep):
    """Symmetric matrix of order n stored as its packed upper triangle.

    Row-major packing: ``param[k] = S[i, j]`` for i <= j with
    ``k = i*n - i*(i+1)//2 + j`` (see :func:`symmetric_pack_index`).
    """


@dataclass(frozen=True, eq=False)
class ToeplitzPlusHankelRep:
    """Sum T + H of a Toeplitz and a Hankel matrix of the same order.

    The split is not unique: shifting any multiple of the all-ones matrix
    between the two components leaves the sum unchanged.  The raw storage
    keeps both components (4n-2 values); the effective parameter count is
    4n-3 (see :func:`param_dim`).
    """

    toeplitz: ToeplitzRep
    hankel: HankelRep

    @property
    def n(self) -> int:
        return self.toeplitz.n


@dataclass(frozen=True)
class SparsityPattern:
    """Support of a sparse matrix: the (row, col) pairs that may be nonzero.

    The stored order of ``support`` is the canonical enumeration that value
    vectors align with; ``rows`` and ``cols`` hold the same pairs as index
    arrays, built once here and left out of equality and hashing.  Equality
    is by value; the hash is computed once here, since hashing the support
    walks all of it.
    """

    n: int
    support: tuple
    rows: np.ndarray = field(init=False, repr=False, compare=False)
    cols: np.ndarray = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        support = tuple((int(i), int(j)) for i, j in self.support)
        index = np.array(support, dtype=np.intp).reshape(len(support), 2).T
        index.setflags(write=False)
        object.__setattr__(self, "support", support)
        object.__setattr__(self, "rows", index[0])
        object.__setattr__(self, "cols", index[1])
        object.__setattr__(self, "_hash", hash((self.n, support)))

    def __hash__(self) -> int:
        return self._hash


@dataclass(frozen=True, eq=False)
class SparseRep:
    """Sparse matrix: values aligned with the pattern's support order."""

    pattern: SparsityPattern
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _cvec(self.values))

    @property
    def n(self) -> int:
        return self.pattern.n


@dataclass(frozen=True, eq=False)
class MultilevelRep:
    """Iterated Kronecker product A_1 (x) ... (x) A_p of structured factors.

    Levels must themselves be single-level structures; the represented
    matrix has order equal to the product of the level orders.
    """

    levels: tuple

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))


SingleLevelRep = Union[
    CirculantRep,
    ToeplitzRep,
    HankelRep,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    SparseRep,
]
StructuredMatrix = Union[SingleLevelRep, MultilevelRep]

# each structure's name in files, on the command line and in messages
KINDS = {
    CirculantRep: "circulant",
    ToeplitzRep: "toeplitz",
    HankelRep: "hankel",
    SymmetricRep: "symmetric",
    ToeplitzPlusHankelRep: "toeplitz_plus_hankel",
    SparseRep: "sparse",
    MultilevelRep: "multilevel",
}


def symmetric_pack_index(n: int, i: int, j: int) -> int:
    """Packed position of entry (i, j) of an order-n symmetric matrix.

    0-indexed row-major upper triangle; (i, j) and (j, i) map to the same
    slot.
    """
    if i > j:
        i, j = j, i
    return i * n - i * (i + 1) // 2 + j


def order(m: StructuredMatrix) -> int:
    """Order of the represented square matrix."""
    if isinstance(m, MultilevelRep):
        return math.prod(order(level) for level in m.levels)
    return m.n


def param_dim(m: StructuredMatrix) -> int:
    """Effective number of free parameters of the structure.

    This equals the number of genuine multiplications the structure's
    kernel performs.  Toeplitz-plus-Hankel reports 4n-3, one less than its
    raw storage, because of the all-ones gauge freedom between the two
    components.
    """
    if isinstance(m, CirculantRep):
        return m.n
    if isinstance(m, (ToeplitzRep, HankelRep)):
        return 2 * m.n - 1
    if isinstance(m, SymmetricRep):
        return m.n * (m.n + 1) // 2
    if isinstance(m, ToeplitzPlusHankelRep):
        return 4 * m.n - 3
    if isinstance(m, SparseRep):
        return len(m.pattern.support)
    if isinstance(m, MultilevelRep):
        return math.prod(param_dim(level) for level in m.levels)
    raise TypeError(f"not a structured matrix: {type(m).__name__}")


def _require(cond: bool, message: str):
    if not cond:
        raise StructureError(message)


def require_params(kind: str, n: int, got: int, need: int) -> None:
    """Raise StructureError unless a ``kind`` of order ``n`` has its
    ``need`` parameters."""
    _require(got == need,
             f"{kind} of order {n} needs {need} parameters, got {got}")


def validate(m: StructuredMatrix) -> None:
    """Check all invariants of ``m``; raise StructureError on the first
    violation, return None when the representation is well formed."""
    if isinstance(m, ParamRep):
        kind = KINDS[type(m)]
        _require(m.n >= 1, f"{kind} order must be >= 1, got {m.n}")
        require_params(kind, m.n, len(m.param), param_dim(m))
    elif isinstance(m, ToeplitzPlusHankelRep):
        validate(m.toeplitz)
        validate(m.hankel)
        _require(
            m.toeplitz.n == m.hankel.n,
            f"component orders differ: toeplitz {m.toeplitz.n} vs hankel {m.hankel.n}",
        )
    elif isinstance(m, SparsityPattern):
        _require(m.n >= 1, f"pattern order must be >= 1, got {m.n}")
        rows, cols = m.rows, m.cols
        bad = (rows < 0) | (rows >= m.n) | (cols < 0) | (cols >= m.n)
        # a stable sort keeps equal entries in support order, so each one
        # after the first of its run repeats an earlier entry
        ranked = np.lexsort((cols, rows))
        later, earlier = ranked[1:], ranked[:-1]
        again = (rows[later] == rows[earlier]) & (cols[later] == cols[earlier])
        bad[later[again]] = True
        if bad.any():  # the first bad entry, out of range or repeated
            i, j = m.support[int(np.argmax(bad))]
            _require(
                0 <= i < m.n and 0 <= j < m.n,
                f"support index ({i}, {j}) out of range for order {m.n}",
            )
            raise StructureError(f"duplicate support entry ({i}, {j})")
    elif isinstance(m, SparseRep):
        validate(m.pattern)
        _require(
            len(m.values) == len(m.pattern.support),
            f"sparse needs {len(m.pattern.support)} values, got {len(m.values)}",
        )
    elif isinstance(m, MultilevelRep):
        _require(len(m.levels) >= 1, "multilevel needs at least one level")
        for level in m.levels:
            _require(
                not isinstance(level, MultilevelRep),
                "multilevel levels must not be nested multilevel structures",
            )
            validate(level)
    else:
        raise StructureError(f"not a structured matrix: {type(m).__name__}")
