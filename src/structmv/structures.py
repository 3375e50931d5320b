"""Parameter-space representations of structured matrices.

Every matrix class is stored by its free parameters only, and owns that
layout: ``params`` is its raw parameter vector, and each class of one vector
``param`` states its parameter count and the parameter each entry holds as
the formulas ``size`` and ``entry``.  All storage is 0-indexed and complex
double precision; real inputs are promoted with zero imaginary parts.
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
    Their formulas broadcast over arrays: ``size(n)`` is the parameter count
    at order n, and ``entry(n, i, j)`` the position of entry (i, j).
    """

    n: int
    param: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "param", _cvec(self.param))

    @property
    def params(self) -> np.ndarray:
        """The raw parameter vector, ``param`` itself."""
        return self.param


class CirculantRep(ParamRep):
    """Circulant matrix of order n; ``param`` is its first row."""

    @staticmethod
    def size(n):
        return n

    @staticmethod
    def entry(n, i, j):
        return j - i + n * (j < i)


class ToeplitzRep(ParamRep):
    """Toeplitz matrix of order n; ``param`` holds its diagonals from the
    bottom-left corner to the top-right corner."""

    @staticmethod
    def size(n):
        return 2 * n - 1

    @staticmethod
    def entry(n, i, j):
        return j - i + n - 1


class HankelRep(ParamRep):
    """Hankel matrix of order n; ``param`` holds its anti-diagonals from
    the bottom-right corner to the top-left corner."""

    @staticmethod
    def size(n):
        return 2 * n - 1

    @staticmethod
    def entry(n, i, j):
        return 2 * n - 2 - i - j


class SymmetricRep(ParamRep):
    """Symmetric matrix of order n; ``param`` is its upper triangle packed
    row by row, and (i, j) and (j, i) share one parameter."""

    @staticmethod
    def size(n):
        return n * (n + 1) // 2

    @staticmethod
    def entry(n, i, j):
        i, j = np.minimum(i, j), np.maximum(i, j)
        return i * n - i * (i + 1) // 2 + j


# the packed position of entry (i, j) of an order-n symmetric matrix
symmetric_pack_index = SymmetricRep.entry


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

    @property
    def params(self) -> np.ndarray:
        """The raw parameter vector: the Toeplitz then the Hankel values."""
        return np.concatenate([self.toeplitz.param, self.hankel.param])


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

    @property
    def params(self) -> np.ndarray:
        """The raw parameter vector, ``values`` itself."""
        return self.values


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
    if isinstance(m, ParamRep):
        return m.size(m.n)
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
