"""Matrix-free linear maps for the three maps of a bilinear program.

Every encoder and decoder the builders need is a Fourier transform, an
index map (embedding, exchange, gather, scatter, sum of blocks, gauge
shift), or a product or Kronecker product of these, so each is stored in
that form and applied without forming its matrix.  A Fourier transform
may be windowed to its first rows and first columns, which is how a
vector is zero-padded before a transform and its first outputs kept
after one.
Each operator has ``shape`` (rows, columns), ``apply(x)`` acting on the
first axis of ``x`` with any trailing batch axes, and ``to_dense()`` for
tests and small reference checks.  ``op @ x`` is ``op.apply(x)``.  A
Kronecker product applies one mode product per factor, and a dense
factor's product is laid out for the next factor with no copy between.

:func:`compose` builds a product, with nested products flattened, and
decides nothing about storage.  :func:`as_operator` is the one storage
rule, and a bilinear program stores each of its maps as it gives it: a
map of at most SMALL_DENSE entries becomes its dense matrix, unless it is
a gather or a product through a larger operator.

An index map (:class:`Select`) whose row k holds one entry for every k
applies as a gather, and any other by one plan.  If at least half of its
rows hold one or two entries, those rows are two gathers, one per entry,
from the input with a zero row appended, and its longer rows are one
segmented sum (``np.add.reduceat``); if not, all of its entries are, and
are the output if the last row is not empty.  A run of columns is a view,
and a block of vectors gathers by ``np.take``.
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
    (see :mod:`structmv.transform`), or times its conjugate when ``conj``,
    restricted to its first ``rows`` rows and first ``cols`` columns (all
    n by default).  The column window zero-pads the input to order n and
    the row window keeps the first outputs, both for free: ``np.fft``'s
    ``n=`` pads, and a slice of the leading axis is a view."""

    def __init__(self, n: int, conj: bool = False, scale: float = 1.0,
                 rows: int | None = None, cols: int | None = None):
        self.n, self.conj, self.scale = n, conj, scale
        self.shape = (n if rows is None else rows, n if cols is None else cols)

    def apply(self, x) -> np.ndarray:
        # numpy's fft has the negative exponent: conj(W) @ x is fft(x), and
        # W @ x is the unnormalized inverse transform
        if self.conj:
            out = np.fft.fft(x, n=self.n, axis=0)
        else:
            out = np.fft.ifft(x, n=self.n, axis=0, norm="forward")
        out = out[:self.shape[0]]
        if self.scale != 1.0:
            out *= self.scale
        return out

    def to_dense(self) -> np.ndarray:
        w = fourier_matrix(self.n)[:self.shape[0], :self.shape[1]]
        return (np.conj(w) if self.conj else w) * self.scale


class Select(Operator):
    """Index map in coordinate form: entry (rows[k], cols[k]) holds vals[k],
    every other entry is zero.  The builders' index maps hold 0/+-1 entries,
    except the Toeplitz-plus-Hankel gauge shift, whose weights are complex.
    Entries are summed per position and kept sorted by row.  ``is_gather``
    is True when row k has one entry for every k, so that applying the map
    is one gather, a copy: callers write into it.  Any other map applies by
    its :class:`_Pairs` plan, never a view, which the first ``apply`` builds
    and keeps, so the maps that a program stores as dense matrices never
    build one.  Entries that arrive in strictly increasing (row, col) order
    are kept as they are; others are sorted once."""

    def __init__(self, shape, rows, cols, vals=None):
        rows = np.asarray(rows, dtype=np.intp).reshape(-1)
        cols = np.asarray(cols, dtype=np.intp).reshape(-1)
        vals = np.ones(len(rows)) if vals is None else np.asarray(vals)
        vals = vals.astype(np.promote_types(vals.dtype, float),
                           copy=False).reshape(-1)
        m, n = shape
        key = rows * max(n, 1) + cols
        if np.any(key[1:] <= key[:-1]):
            # a stable sort and np.add.at sum a repeated position in input
            # order (np.add.reduceat would add the first entry last)
            order = np.argsort(key, kind="stable")
            key = key[order]
            new = np.concatenate(([True], key[1:] != key[:-1]))
            summed = np.zeros(np.count_nonzero(new), vals.dtype)
            np.add.at(summed, np.cumsum(new) - 1, vals[order])
            first = order[new]
            rows, cols, vals = rows[first], cols[first], summed
        keep = vals != 0
        self.shape = (m, n)
        self.rows, self.cols, self.vals = rows[keep], cols[keep], vals[keep]
        self.is_gather = (len(self.rows) == m
                          and np.array_equal(self.rows, np.arange(m)))
        self._unit = bool(np.all(self.vals == 1))
        # the plan of a map that is not a gather: built by the first apply
        self._pairs = None

    @classmethod
    def take(cls, n: int, index) -> "Select":
        """Rows of the identity of order n at ``index``: x -> x[index]."""
        index = np.asarray(index, dtype=np.intp).reshape(-1)
        return cls((len(index), n), np.arange(len(index)), index)

    @property
    def T(self) -> "Select":
        # a stable sort by column keeps each column's rows in order, so the
        # transposed entries arrive sorted and are not sorted again
        order = np.argsort(self.cols, kind="stable")
        return Select(self.shape[::-1], self.cols[order], self.rows[order],
                      self.vals[order])

    def apply(self, x) -> np.ndarray:
        x = np.asarray(x)
        if self.is_gather:
            if self._unit and x.ndim == 1:
                return x[self.cols]
            return _read(x, self.cols, None if self._unit else self.vals)
        if self._pairs is None:
            self._pairs = _Pairs(self)
        return self._pairs.apply(x)

    def to_dense(self) -> np.ndarray:
        out = np.zeros(self.shape, self.vals.dtype)
        out[self.rows, self.cols] = self.vals
        return out


class _Pairs:
    """The plan by which a :class:`Select` that is not a gather applies.
    If at least half of the rows hold one or two entries, row r is
    xe[c0[r]] * w0[r] + xe[c1[r]] * w1[r], then the ``long`` rows, of three
    or more entries, are overwritten by their segmented sums.  Column n is
    the zero row of ``xe``; when no row reads it, ``zero`` is False and x
    serves as it is.  A long row reads its first entry, which its sum then
    overwrites.  A weight vector whose entries are all 1 is not kept: w0 is
    judged on the rows of one or two entries, w1 on the rows of two and the
    sums' weights on the long rows' own entries.  c1 is None when no row
    has two entries.  With fewer short rows the gathers cost more than they
    save: c0 is None and every nonempty row is long, one segmented sum over
    all of the map's entries, the output (``whole``) if the last row is not
    empty, an empty row's term zeroed.  Columns in one run (the long rows', or
    c0 and c1 if c1 is kept) are a slice: a view of x, never written."""

    __slots__ = ("m", "c0", "c1", "w0", "w1", "zero", "long", "whole", "dtype")

    def __init__(self, op: Select):
        m, n = op.shape
        # the weights' dtype, or None when every weight is 1
        self.m, self.dtype = m, None if op._unit else op.vals.dtype
        per_row = np.bincount(op.rows, minlength=m)
        rows = np.flatnonzero(per_row)  # the nonempty rows
        counts = per_row[rows]  # entries per nonempty row
        # the rows are sorted, so each row's entries follow the previous row's
        starts = np.cumsum(counts) - counts
        short = counts <= 2
        self.c0 = self.c1 = self.w0 = self.w1 = self.long = None
        self.zero = self.whole = False
        if 2 * np.count_nonzero(short) < m:
            short[:] = False  # too few short rows for the gathers to pay
        else:
            self.c0 = np.full(m, n)
            self.c0[rows] = op.cols[starts]
            two = counts == 2
            n_two = np.count_nonzero(two)
            if n_two:
                second, rows2 = starts[two] + 1, rows[two]
                c1 = np.full(m, n)
                c1[rows2] = op.cols[second]
                self.c0, self.c1 = _run(self.c0), _run(c1)  # their sum is new
                if np.any(op.vals[second] != 1):
                    self.w1 = np.zeros(m, op.vals.dtype)
                    self.w1[rows2] = op.vals[second]
            # a long row's first weight is never read: its sum overwrites it
            if np.any(op.vals[starts[short]] != 1):
                self.w0 = np.zeros(m, op.vals.dtype)
                self.w0[rows] = op.vals[starts]
            # c0 reads the zero row at an empty row, c1 at every row that
            # has no second entry
            self.zero = len(starts) < m or 0 < n_two < m
        long = ~short
        if long.any():
            entries = slice(None) if self.c0 is None else np.repeat(long, counts)
            vals = op.vals[entries]
            self.whole = self.c0 is None and per_row[-1] > 0
            rows, sizes = ((_run(np.flatnonzero(per_row == 0)), per_row)
                           if self.whole else (rows[long], counts[long]))
            self.long = (rows, _run(op.cols[entries]),
                         vals if np.any(vals != 1) else None,
                         np.cumsum(sizes) - sizes)

    def apply(self, x: np.ndarray) -> np.ndarray:
        if self.dtype is not None:
            # promoted as x * vals would be
            x = x.astype(np.promote_types(x.dtype, self.dtype), copy=False)
        vector = x.ndim == 1
        if self.long is not None:
            rows, cols, vals, starts = self.long
            terms = x[cols] if vector and vals is None else _read(x, cols, vals)
            sums = np.add.reduceat(terms, starts, axis=0)
            if self.whole:
                sums[rows] = 0
                return sums
        if self.c0 is None:
            out = np.zeros((self.m,) + x.shape[1:], x.dtype)
        else:
            xe = x
            if self.zero:
                xe = np.empty((len(x) + 1,) + x.shape[1:], x.dtype)
                xe[:-1] = x
                xe[-1] = 0
            out = (xe[self.c0] if vector and self.w0 is None
                   else _read(xe, self.c0, self.w0))
            if self.c1 is not None:
                second = (xe[self.c1] if vector and self.w1 is None
                          else _read(xe, self.c1, self.w1))
                if isinstance(self.c0, slice) and self.w0 is None:
                    out = out + second
                else:
                    out += second
        if self.long is not None:
            out[rows] = sums
        return out


def _read(x: np.ndarray, index, weights=None) -> np.ndarray:
    """``x[index]`` along the first axis, times ``weights``, one per row
    read (None: all 1).  A block gathers by ``take``, which numpy runs
    several times faster than fancy indexing there; a vector by indexing,
    the faster on one axis, and a slice is a view.  Callers index an
    unweighted vector themselves: this call costs about 0.1 us, a few
    percent of a product of order 32."""
    block = x.ndim > 1 and not isinstance(index, slice)
    if weights is None:
        return x.take(index, axis=0) if block else x[index]
    # the gather is multiplied as a temporary, so that numpy can write the
    # product into it instead of into a fresh array
    return ((x.take(index, axis=0) if block else x[index])
            * weights.reshape((-1,) + (1,) * (x.ndim - 1)))


def _run(index: np.ndarray):
    """``index`` as a slice if it is one increasing run, or as it is."""
    a = int(index[0]) if len(index) else 0
    run = np.array_equal(index, np.arange(a, a + len(index)))
    return slice(a, a + len(index)) if run else index


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
        x = np.asarray(x)
        if x.ndim <= 2:
            return self.matrix @ x
        # matmul would treat a 3-D x as a stack of matrices
        return np.tensordot(self.matrix, x, axes=1)

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
    transposed, which rotates the next factor's axis to the front.  A
    :class:`Dense` factor forms that transpose directly, as
    ``u.T @ matrix.T``: the product reads both transposed views without a
    copy and leaves a row-major array that the next factor reshapes as a
    view.  Any other factor's transposed result is copied by that reshape.
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
            u = t.reshape(f.shape[1], -1)
            t = u.T @ f.matrix.T if isinstance(f, Dense) else f.apply(u).T
        # t is now (batch, rows) in row-major order
        return t.reshape(-1, self.shape[0]).T.reshape(self.shape[0], *batch)

    def to_dense(self) -> np.ndarray:
        return reduce(np.kron, [f.to_dense() for f in self.factors])


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
    """The operator a bilinear program stores for the map ``x``, the one
    storage rule.  An array becomes a :class:`Dense` matrix.  A dense
    matrix or a gather stays as it is, and so does an operator of more than
    SMALL_DENSE entries, or a product that passes through one, whose
    matrix would cost more to form than it saves.  Any other operator
    becomes its dense matrix: one small product beats a segmented sum or a
    chain of numpy calls."""
    if not isinstance(x, Operator):
        return Dense(x)
    if isinstance(x, Dense) or (isinstance(x, Select) and x.is_gather):
        return x
    if _entries(x) == 0:
        return Dense(np.zeros(x.shape))
    if _entries(x) > SMALL_DENSE:
        return x
    if isinstance(x, Compose) and max(map(_entries, x.ops)) > SMALL_DENSE:
        return x
    return Dense(x.to_dense())


def compose(*ops) -> Operator:
    """The product ops[0] @ ops[1] @ ..., with nested products flattened:
    a :class:`Compose`, or the one operator.  How it is stored is left to
    :func:`as_operator`."""
    parts = _flatten(Compose, ops)
    for left, right in zip(parts, parts[1:]):
        if left.shape[1] != right.shape[0]:
            raise ValueError(f"cannot compose shapes {left.shape} and {right.shape}")
    return parts[0] if len(parts) == 1 else Compose(parts)
