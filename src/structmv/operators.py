"""Matrix-free linear maps for the three maps of a bilinear program.

Every encoder and decoder the builders need is a Fourier transform, an
index map (embedding, zero-pad, row selection, exchange, gather, scatter),
a Kronecker product or a stack of these, so each is stored in that form
and applied without forming its matrix.  Each operator has ``shape``
(rows, columns), ``apply(x)`` acting on the first axis of ``x`` with any
trailing batch axes, and ``to_dense()`` for tests and small reference
checks.  ``op @ x`` is ``op.apply(x)``.

Use :func:`compose` and :func:`as_operator` to build operators: they
flatten nested compositions, fuse neighbouring index maps into one, and
keep an operator of at most SMALL_DENSE entries as its dense matrix.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .transform import fourier_matrix

# an operator with at most this many entries applies as its dense matrix:
# one small matrix product costs less than a chain of numpy calls
SMALL_DENSE = 4096


class Operator:
    """Base of the operator kinds; subclasses set ``shape`` and define
    ``apply`` and ``to_dense``."""

    shape: tuple

    def apply(self, x) -> np.ndarray:
        raise NotImplementedError

    def to_dense(self) -> np.ndarray:
        raise NotImplementedError

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)


class Fourier(Operator):
    """``scale`` times the order-n Fourier matrix W[r, c] = exp(2*pi*i*r*c/n)
    (see :mod:`structmv.transform`), or times its conjugate when ``conj``."""

    def __init__(self, n: int, conj: bool = False, scale: float = 1.0):
        self.n, self.conj, self.scale = n, conj, scale
        self.shape = (n, n)

    def apply(self, x) -> np.ndarray:
        # numpy's fft has the negative exponent: conj(W) @ x is fft(x), and
        # W @ x is the unnormalized inverse transform
        if self.conj:
            out = np.fft.fft(x, axis=0)
        else:
            out = np.fft.ifft(x, axis=0, norm="forward")
        return out if self.scale == 1.0 else out * self.scale

    def to_dense(self) -> np.ndarray:
        w = fourier_matrix(self.n)
        return (np.conj(w) if self.conj else w) * self.scale


class Select(Operator):
    """Index map in coordinate form: entry (rows[k], cols[k]) holds
    vals[k], every other entry is zero.  The builders' index maps hold
    0/+-1 entries.  Entries are summed per position and kept sorted by
    row, so that rows with one entry each apply as a gather or a scatter,
    and other rows as one segmented sum."""

    def __init__(self, shape, rows, cols, vals=None):
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        vals = (np.ones(len(rows)) if vals is None
                else np.asarray(vals, dtype=float).reshape(-1))
        m, n = shape
        key, inverse = np.unique(rows * max(n, 1) + cols, return_inverse=True)
        vals = np.bincount(inverse.reshape(-1), weights=vals, minlength=len(key))
        keep = vals != 0
        key, vals = key[keep], vals[keep]
        self.shape = (m, n)
        self.rows, self.cols, self.vals = key // max(n, 1), key % max(n, 1), vals
        self._gather = len(key) == m and np.array_equal(self.rows, np.arange(m))
        self._unit = bool(np.all(vals == 1))
        self._out_rows, self._starts = np.unique(self.rows, return_index=True)
        self._one_per_row = len(self._out_rows) == len(key)

    @classmethod
    def take(cls, n: int, index) -> "Select":
        """Rows of the identity of order n at ``index``: x -> x[index]."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        return cls((len(index), n), np.arange(len(index)), index)

    @property
    def T(self) -> "Select":
        return Select(self.shape[::-1], self.cols, self.rows, self.vals)

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x)
        terms = x[self.cols]
        if not self._unit:
            terms = terms * self.vals.reshape((-1,) + (1,) * (x.ndim - 1))
        if self._gather:
            return terms
        out = np.zeros((self.shape[0],) + x.shape[1:], dtype=terms.dtype)
        if self._one_per_row:
            out[self.rows] = terms
        elif len(terms):
            out[self._out_rows] = np.add.reduceat(terms, self._starts, axis=0)
        return out

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows, self.cols] = self.vals
        return out

    def then(self, other: "Select") -> "Select":
        """The product ``other @ self`` as one index map."""
        # pair each entry (i, j) of other with every entry (j, l) of self
        per_row = np.bincount(self.rows, minlength=self.shape[0])
        first = np.concatenate([[0], np.cumsum(per_row)[:-1]])
        reps = per_row[other.cols]
        left = np.repeat(np.arange(len(other.cols)), reps)
        offsets = np.arange(len(left)) - np.repeat(np.cumsum(reps) - reps, reps)
        right = first[other.cols][left] + offsets
        return Select((other.shape[0], self.shape[1]), other.rows[left],
                      self.cols[right], other.vals[left] * self.vals[right])


class Dense(Operator):
    """An explicit matrix: an array a caller passed in, or an operator
    small enough that one product beats applying its parts."""

    def __init__(self, matrix):
        matrix = np.array(matrix, dtype=complex)
        if matrix.ndim != 2:
            raise ValueError(f"expected a 2-D matrix, got shape {matrix.shape}")
        matrix.setflags(write=False)
        self.matrix = matrix
        self.shape = matrix.shape

    def apply(self, x) -> np.ndarray:
        return self.matrix @ x

    def to_dense(self) -> np.ndarray:
        return self.matrix


class Compose(Operator):
    """Product ops[0] @ ops[1] @ ...; the last factor applies first."""

    def __init__(self, ops):
        self.ops = tuple(ops)
        self.shape = (self.ops[0].shape[0], self.ops[-1].shape[1])

    def apply(self, x) -> np.ndarray:
        for op in reversed(self.ops):
            x = op.apply(x)
        return x

    def to_dense(self) -> np.ndarray:
        return reduce(np.matmul, [op.to_dense() for op in self.ops])


class Kron(Operator):
    """Kronecker product of the factors, applied by one mode product per
    factor (row-major, as ``np.kron`` orders its indices).

    Each factor acts on the leading axis of a 2-D array and the result is
    transposed, which rotates the next factor's axis to the front.
    """

    def __init__(self, factors):
        self.factors = _flatten(Kron, factors)
        self.shape = (int(np.prod([f.shape[0] for f in self.factors])),
                      int(np.prod([f.shape[1] for f in self.factors])))

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x)
        batch = x.shape[1:]
        if x.size == 0 or self.shape[0] == 0:
            return np.zeros((self.shape[0],) + batch, dtype=complex)
        t = x
        for f in self.factors:
            t = f.apply(t.reshape(f.shape[1], -1)).T
        # t is now (batch, rows) in row-major order
        return t.reshape(-1, self.shape[0]).T.reshape(self.shape[0], *batch)

    def to_dense(self) -> np.ndarray:
        return reduce(np.kron, [f.to_dense() for f in self.factors])


class VStack(Operator):
    """Operators on one input, their outputs concatenated."""

    def __init__(self, ops):
        self.ops = _flatten(VStack, ops)
        self.shape = (sum(op.shape[0] for op in self.ops), self.ops[0].shape[1])

    def apply(self, x) -> np.ndarray:
        return np.concatenate([op.apply(x) for op in self.ops])

    def to_dense(self) -> np.ndarray:
        return np.vstack([op.to_dense() for op in self.ops])


class HStack(Operator):
    """Operators on consecutive blocks of one input, their outputs summed."""

    def __init__(self, ops):
        self.ops = _flatten(HStack, ops)
        self.shape = (self.ops[0].shape[0], sum(op.shape[1] for op in self.ops))
        self._ends = np.cumsum([op.shape[1] for op in self.ops])

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x)
        out, start = 0, 0
        for op, end in zip(self.ops, self._ends):
            out = out + op.apply(x[start:end])
            start = end
        return out

    def to_dense(self) -> np.ndarray:
        return np.hstack([op.to_dense() for op in self.ops])


def _flatten(kind, ops) -> tuple:
    """``ops`` with each operator of type ``kind`` replaced by its parts."""
    out = []
    for op in ops:
        if isinstance(op, kind):
            out.extend(op.factors if kind is Kron else op.ops)
        else:
            out.append(op)
    return tuple(out)


def _entries(op: Operator) -> int:
    return op.shape[0] * op.shape[1]


def as_operator(x) -> Operator:
    """The operator to store for ``x``.  An array becomes a :class:`Dense`
    matrix, and so does an operator of at most SMALL_DENSE entries.  Index
    maps stay as they are (they apply as one gather), and so does a small
    product that passes through a larger operator, whose matrix would cost
    more to form than it saves."""
    if not isinstance(x, Operator):
        return Dense(x)
    if isinstance(x, (Dense, Select)) or _entries(x) > SMALL_DENSE:
        return x
    if _entries(x) == 0:
        return Dense(np.zeros(x.shape))
    if isinstance(x, Compose) and max(map(_entries, x.ops)) > SMALL_DENSE:
        return x
    return Dense(x.to_dense())


def compose(*ops) -> Operator:
    """The product ops[0] @ ops[1] @ ..., with nested products flattened
    and neighbouring index maps fused into one."""
    parts = _flatten(Compose, map(as_operator, ops))
    for left, right in zip(parts, parts[1:]):
        if left.shape[1] != right.shape[0]:
            raise ValueError(f"cannot compose shapes {left.shape} and {right.shape}")
    flat = []
    for part in parts:
        if flat and isinstance(part, Select) and isinstance(flat[-1], Select):
            part = part.then(flat.pop())
        flat.append(part)
    return as_operator(flat[0] if len(flat) == 1 else Compose(flat))
