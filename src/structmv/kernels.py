"""Structure-specific kernels.

Each structure gets two evaluation routes that must agree:

* a builder producing a :class:`~structmv.bilinear.BilinearProgram` whose
  active-slot count is provably minimal for that structure, and
* a literal step-by-step matvec (the "direct path") that performs the same
  stages inline.  :func:`prepare_level` encodes a matrix's parameters once
  into its stage's slot coefficients and keeps them on the matrix, so a
  direct product is vector encode, pointwise multiply and decode, on a
  vector or on a block of vectors along a trailing axis.  The multilevel
  direct route runs the head level's stage over its encoded tail this way.

The circulant kernel diagonalizes by the Fourier matrix.  Toeplitz embeds
into a circulant of twice the order with the free first-row entry chosen as
minus the parameter sum, which zeroes the frequency-0 slot and saves one
multiplication.  Hankel reduces to Toeplitz by reversing parameters and
output.  Symmetric forms one product per entry pair, a_ij (v_i + v_j), and
one per diagonal entry, (a_ii - sum_{j != i} a_ij) v_i, with index maps
only.  Toeplitz-plus-Hankel shifts a multiple of the all-ones matrix between
its two components so that the Toeplitz part's frequency-1 slot vanishes as
well, saving a second multiplication.  Sparse is the usual support-driven
matvec, as one gather, one multiply and one segmented sum.  The direct
stages apply the maps of :func:`circulant_program` (of twice the order for
Toeplitz, Hankel and Toeplitz-plus-Hankel), :func:`symmetric_program` and
:func:`sparse_program`, so the choice between a small dense matrix and an
index map or ``np.fft`` is the operators' one rule.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable

import numpy as np

from . import bilinear
from .bilinear import BilinearProgram
from .operators import Dense, Fourier, Select, VStack, compose
from .structures import (
    CirculantRep,
    HankelRep,
    SparseRep,
    SparsityPattern,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
)


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Embedding of an order-n Toeplitz matrix into an order-2n circulant.

    ``op`` maps the 2n-1 Toeplitz parameters to the circulant's first row
    (t_n..t_{2n-1}, b, t_1..t_{n-1} in 1-indexed terms) with b = -sum(t),
    so the first row always sums to zero.  The program builders use ``op``;
    :meth:`embed` applies it by slicing, with an optional other ``b``.
    """

    n: int
    op: Select

    @property
    def matrix(self) -> np.ndarray:
        """``op`` as a dense (2n, 2n-1) matrix, for reference checks."""
        return self.op.to_dense()

    def embed(self, param, b=None) -> np.ndarray:
        """First row of the embedding circulant; ``b`` overrides the free
        entry (the product's first n outputs do not depend on it)."""
        n = self.n
        param = np.asarray(param, dtype=complex).reshape(-1)
        _check_length("toeplitz", n, param, 2 * n - 1)
        c = np.empty(2 * n, dtype=complex)
        c[:n] = param[n - 1:]
        c[n] = -param.sum() if b is None else b
        c[n + 1:] = param[:n - 1]
        return c


@lru_cache(maxsize=64)
def toeplitz_embedding(n: int) -> EmbeddingSpec:
    rows = np.concatenate([np.arange(n), np.full(2 * n - 1, n),
                           n + np.arange(1, n)])
    cols = np.concatenate([n - 1 + np.arange(n), np.arange(2 * n - 1),
                           np.arange(n - 1)])
    vals = np.concatenate([np.ones(n), -np.ones(2 * n - 1), np.ones(n - 1)])
    return EmbeddingSpec(n=n, op=Select((2 * n, 2 * n - 1), rows, cols, vals))


def _exchange(n: int) -> Select:
    """Anti-diagonal permutation J reversing coordinate order."""
    return Select.take(n, np.arange(n)[::-1])


# ---------------------------------------------------------------------------
# program builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def circulant_program(n: int) -> BilinearProgram:
    """n multiplications: pointwise product of the two transforms.

    enc_param = W, enc_vec = conj(W) (= n W^{-1}), dec = W/n, so that
    dec @ ((W a) * (conj(W) v)) is exactly the circulant product.
    """
    return BilinearProgram(
        enc_param=Fourier(n),
        enc_vec=Fourier(n, conj=True),
        dec=Fourier(n, scale=1 / n),
        active=np.ones(n, dtype=bool),
    )


@lru_cache(maxsize=64)
def toeplitz_program(n: int) -> BilinearProgram:
    """2n-1 multiplications via the order-2n circulant embedding.

    The slots are the 2n circulant frequencies; frequency 0 is inactive
    because the embedded first row sums to zero identically.  The vector
    is zero-padded to 2n and the first n outputs are kept.
    """
    cp = circulant_program(2 * n)
    first_n = Select.take(2 * n, np.arange(n))
    active = np.ones(2 * n, dtype=bool)
    active[0] = False
    return BilinearProgram(
        enc_param=compose(cp.enc_param, toeplitz_embedding(n).op),
        enc_vec=compose(cp.enc_vec, first_n.T),
        dec=compose(first_n, cp.dec),
        active=active,
    )


@lru_cache(maxsize=64)
def hankel_program(n: int) -> BilinearProgram:
    """2n-1 multiplications: Toeplitz on reversed parameters, output reversed."""
    return bilinear.conjugate_by(
        toeplitz_program(n),
        pre_param=_exchange(2 * n - 1),
        pre_vec=None,
        post=_exchange(n),
    )


@lru_cache(maxsize=64)
def symmetric_program(n: int) -> BilinearProgram:
    """n(n+1)/2 multiplications, one per packed parameter.

    Slot k belongs to packed parameter k, entry (i, j) of the upper
    triangle.  A pair slot, i < j, forms w_ij = a_ij (v_i + v_j); the
    diagonal slot of i forms d_i = (a_ii - sum_{j != i} a_ij) v_i.  Then
    y_i = d_i + sum_{j != i} w_ij = sum_j a_ij v_j.  The diagonal factor is
    linear in the parameters, so forming it is free.  Every map is an index
    map, and the decoder is the vector encoder's transpose: each slot feeds
    back the outputs whose inputs it summed.
    """
    i, j = np.triu_indices(n)  # row-major, as symmetric_pack_index packs
    dim = len(i)
    slots = np.arange(dim)
    pair = i != j
    # the entries are listed in (row, column) order, so Select keeps them
    # without a sort: slot k reads v_i, then v_j for a pair
    reads = np.stack([np.ones(dim, dtype=bool), pair], axis=1)
    enc_vec = Select((dim, n), np.repeat(slots, 1 + pair),
                     np.stack([i, j], axis=1)[reads])
    # a pair slot reads its own parameter; the diagonal slot of row i reads
    # a_ii and minus every a_ij, at the slots pack[i] in increasing order
    pack = np.empty((n, n), dtype=np.intp)
    pack[i, j] = pack[j, i] = slots
    per_slot = np.where(pair, 1, n)
    rows = np.repeat(slots, per_slot)
    cols, vals = rows.copy(), np.ones(len(rows))
    at = (np.cumsum(per_slot) - n)[~pair][:, None] + np.arange(n)
    cols[at] = pack
    vals[at] = np.where(np.eye(n, dtype=bool), 1.0, -1.0)
    enc_param = Select((dim, dim), rows, cols, vals)
    return BilinearProgram(
        enc_param=enc_param,
        enc_vec=enc_vec,
        dec=enc_vec.T,
        active=np.ones(dim, dtype=bool),
    )


@lru_cache(maxsize=64)
def tph_alpha(n: int) -> np.ndarray:
    """Row functional giving the all-ones shift for Toeplitz-plus-Hankel.

    alpha @ t is the frequency-1 transform coefficient of the Toeplitz
    embedding divided by 2n; subtracting (alpha @ t) times the all-ones
    parameter vector from t makes that coefficient vanish identically.
    Each embedding entry (r, q) adds its value times the frequency-1
    twiddle exp(2*pi*i*r/(2n)) to alpha[q].
    """
    emb = toeplitz_embedding(n).op
    twiddle = np.exp(1j * np.pi * emb.rows / n)
    row = np.zeros(2 * n - 1, dtype=complex)
    np.add.at(row, emb.cols, emb.vals * twiddle)
    row /= 2 * n
    row.setflags(write=False)
    return row


@lru_cache(maxsize=64)
def tph_program(n: int) -> BilinearProgram:
    """4n-3 multiplications on raw parameters (t_1..t_{2n-1}, h_1..h_{2n-1}).

    The program shifts a = alpha @ t of the all-ones matrix from the
    Toeplitz to the Hankel component, then sums a Hankel program on h + a
    and a Toeplitz program on t - a.  The Toeplitz branch has two inactive
    slots: frequency 0 from its own embedding and frequency 1 from the
    shift.
    """
    m = 2 * n - 1
    shift = Dense(np.concatenate([tph_alpha(n), np.zeros(m)])[None, :])
    rows = np.arange(m)

    def shifted(component, sign):
        """(m, 4n-2): the component's m entries plus sign * (alpha @ t)."""
        both = VStack([Select.take(2 * m, component), shift])
        plus = Select((m, m + 1), np.concatenate([rows, rows]),
                      np.concatenate([rows, np.full(m, m)]),
                      np.concatenate([np.ones(m), np.full(m, sign)]))
        return compose(plus, both)

    hpart = bilinear.conjugate_by(
        hankel_program(n), shifted(m + rows, 1.0), None, None)
    tpart = bilinear.conjugate_by(
        toeplitz_program(n), shifted(rows, -1.0), None, None)
    active = np.concatenate([hpart.active, tpart.active])
    active[hpart.r + 1] = False  # frequency 1 of the Toeplitz branch
    summed = bilinear.add(hpart, tpart)
    return BilinearProgram(
        enc_param=summed.enc_param,
        enc_vec=summed.enc_vec,
        dec=summed.dec,
        active=active,
    )


def sparse_program(pattern: SparsityPattern) -> BilinearProgram:
    """One multiplication per support entry: select value, select v[j],
    accumulate into output i."""
    r = len(pattern.rows)
    return BilinearProgram(
        enc_param=Select.take(r, np.arange(r)),
        enc_vec=Select.take(pattern.n, pattern.cols),
        dec=Select.take(pattern.n, pattern.rows).T,
        active=np.ones(r, dtype=bool),
    )


# ---------------------------------------------------------------------------
# multilevel gauge for the Toeplitz-plus-Hankel parameter space
# ---------------------------------------------------------------------------
#
# The raw (t, h) pair has 4n-2 entries but one all-ones gauge direction.
# For tensor composition we need exactly 4n-3 coordinates per level, so we
# fix the gauge where the Toeplitz component has zero main diagonal: shift
# c = t[n-1] of the all-ones matrix into the Hankel component and drop the
# now-zero diagonal coordinate.  The kernel re-derives its own shift, so
# the coordinate choice does not affect counts.

def _gauge_coordinates(n: int) -> np.ndarray:
    """Raw (t, h) positions of the 4n-3 gauge-fixed coordinates: every
    entry but the Toeplitz main diagonal t[n-1]."""
    return np.delete(np.arange(4 * n - 2), n - 1)


@lru_cache(maxsize=64)
def tph_gauge_project(n: int) -> Select:
    """(4n-3, 4n-2) map from raw (t, h) to gauge-fixed coordinates."""
    coords = _gauge_coordinates(n)
    rows = np.arange(4 * n - 3)
    # every coordinate gets -c (Toeplitz) or +c (Hankel) from c = t[n-1]
    signs = np.where(coords < 2 * n - 1, -1.0, 1.0)
    return Select((4 * n - 3, 4 * n - 2),
                  np.concatenate([rows, rows]),
                  np.concatenate([coords, np.full(4 * n - 3, n - 1)]),
                  np.concatenate([np.ones(4 * n - 3), signs]))


@lru_cache(maxsize=64)
def tph_gauge_embed(n: int) -> Select:
    """(4n-2, 4n-3) section: reinsert the zero diagonal coordinate."""
    return Select.take(4 * n - 2, _gauge_coordinates(n)).T


# ---------------------------------------------------------------------------
# direct paths
# ---------------------------------------------------------------------------
#
# A stage encodes x, multiplies it pointwise by the slot coefficients that
# :func:`prepare_level` encoded once per matrix, and decodes.  It acts on
# the first axis of x, of shape (n,) or (n, ...), so a block of vectors
# costs one pass.  The coefficients have shape (slots,) or (slots, B), their
# second axis matching the second of x: the multilevel route passes the
# head's coefficients times the tail's encoded parameters.  Counts are the
# products formed: active slots times the columns of x.

def _form_products(coef, x_hat) -> int:
    """Multiply the last len(coef) slots of ``x_hat`` in place by
    ``coef``.  The slots before them are structurally zero: they are set
    to zero, and neither formed nor counted.  Returns the products formed."""
    first = len(x_hat) - len(coef)
    x_hat[:first] = 0
    active = x_hat[first:]
    active *= coef.reshape(coef.shape + (1,) * (x_hat.ndim - coef.ndim))
    return active.size


def _program_stage(program, coef, x):
    """The stage on the vector encoder and decoder of ``program``:
    circulant, symmetric and sparse use their own program's maps."""
    x_hat = program.enc_vec @ x
    count = _form_products(coef, x_hat)
    return program.dec @ x_hat, count


def _toeplitz_stage(program, coef, x):
    """The order-2n circulant stage of ``program`` on the zero-padded
    vector; the first n outputs are the product."""
    z, count = _program_stage(program, coef,
                              np.concatenate([x, np.zeros_like(x)]))
    return z[:len(x)], count


def _hankel_stage(program, coef, x):
    """Toeplitz on the reversed parameters (encoded in ``coef``), output
    reversed."""
    z, count = _toeplitz_stage(program, coef, x)
    return z[::-1], count


def _tph_stage(program, coef, x):
    """The Hankel branch on ``coef[:2n-1]`` and the Toeplitz branch on
    ``coef[2n-1:]``, which skips frequency 1 as well; both branches share
    one transform of the zero-padded vector."""
    n = len(x)
    x_hat = program.enc_vec @ np.concatenate([x, np.zeros_like(x)])
    hankel = x_hat.copy()
    count = (_form_products(coef[:2 * n - 1], hankel)
             + _form_products(coef[2 * n - 1:], x_hat))
    return (program.dec @ hankel)[:n][::-1] + (program.dec @ x_hat)[:n], count


@dataclass(frozen=True, eq=False)
class Prepared:
    """A matrix ready for direct products, with everything that depends
    only on the matrix computed once.

    ``stage(coef, x)`` is the direct stage of the matrix, or of its first
    level, and ``coef`` its read-only slot coefficients.  For a multilevel
    matrix, ``tail`` is the program of the levels after the first: its
    vector encoder maps each first-level block of the vector to the tail's
    slots before the stage and its decoder maps them back after it, and
    ``coef`` is the first level's coefficients times the tail's encoded
    parameters, one column per tail slot.  ``kind`` names the structure in
    error messages.
    """

    kind: str
    n: int
    stage: Callable
    coef: np.ndarray
    tail: BilinearProgram | None = None

    def apply(self, v) -> tuple[np.ndarray, int]:
        """Product with ``v`` of shape (n,), or with each column of ``v`` of
        shape (n, k).  Returns (product, count); the count is the genuine
        multiplications formed, k times the parameter dimension."""
        v = np.asarray(v, dtype=complex)
        if v.ndim not in (1, 2):
            raise ValueError(
                f"expected a vector or a block of vectors, got shape {v.shape}"
            )
        if len(v) != self.n:
            raise ValueError(
                f"{self.kind} order {self.n} does not match vector length "
                f"{len(v)}"
            )
        if self.tail is None:
            return self.stage(self.coef, v)
        enc_vec, dec = self.tail.enc_vec, self.tail.dec
        blocks = v.reshape((self.n // enc_vec.shape[1], enc_vec.shape[1])
                           + v.shape[1:])
        x = np.swapaxes(enc_vec @ np.swapaxes(blocks, 0, 1), 0, 1)
        z, count = self.stage(self.coef, x)
        out = np.swapaxes(dec @ np.swapaxes(z, 0, 1), 0, 1)
        return out.reshape(v.shape), count


def memo(m: StructuredMatrix, build) -> Prepared:
    """``build(m)``, computed once per matrix object and kept on the object
    itself.  A representation is immutable and compared by identity, so
    the memo is a pure function of the object and lives as long as it."""
    prepared = vars(m).get("_prepared")
    if prepared is None:
        prepared = build(m)
        object.__setattr__(m, "_prepared", prepared)
    return prepared


def prepare_level(m: StructuredMatrix) -> Prepared:
    """The single-level matrix ``m`` prepared for direct products, once
    per matrix object."""
    return memo(m, _encode)


def _check_length(kind, n, param, need):
    if len(param) != need:
        raise ValueError(
            f"{kind} of order {n} needs {need} parameters, got {len(param)}"
        )


def _toeplitz_coefficients(param, n, b=None, first=1):
    """Slot coefficients of the order-2n embedding circulant from slot
    ``first`` up.  Frequency 0 is structurally zero only for the default
    ``b``; Toeplitz-plus-Hankel skips frequency 1 as well with first=2."""
    c = toeplitz_embedding(n).embed(param, b=b)
    return (circulant_program(2 * n).enc_param @ c)[first:]


def _encode(m: StructuredMatrix) -> Prepared:
    """Encode the parameters of ``m`` into its stage's slot coefficients."""
    if isinstance(m, CirculantRep):
        _check_length("circulant", m.n, m.param, m.n)
        program = circulant_program(m.n)
        kind, stage = "circulant", partial(_program_stage, program)
        coef = program.enc_param @ m.param
    elif isinstance(m, ToeplitzRep):
        kind = "toeplitz"
        stage = partial(_toeplitz_stage, circulant_program(2 * m.n))
        coef = _toeplitz_coefficients(m.param, m.n)
    elif isinstance(m, HankelRep):
        kind = "hankel"
        stage = partial(_hankel_stage, circulant_program(2 * m.n))
        coef = _toeplitz_coefficients(m.param[::-1], m.n)
    elif isinstance(m, SymmetricRep):
        _check_length("symmetric", m.n, m.param, m.n * (m.n + 1) // 2)
        program = symmetric_program(m.n)
        kind, stage = "symmetric", partial(_program_stage, program)
        coef = program.enc_param @ m.param
    elif isinstance(m, ToeplitzPlusHankelRep):
        n, t, h = m.n, m.toeplitz.param, m.hankel.param
        _check_length("toeplitz", n, t, 2 * n - 1)
        shift = tph_alpha(n) @ t
        kind = "toeplitz_plus_hankel"
        stage = partial(_tph_stage, circulant_program(2 * n))
        coef = np.concatenate([
            _toeplitz_coefficients((h + shift)[::-1], n),
            _toeplitz_coefficients(t - shift, n, first=2),
        ])
    elif isinstance(m, SparseRep):
        _check_length("sparse", m.n, m.values, len(m.pattern.rows))
        kind, stage = "sparse", partial(_program_stage, sparse_program(m.pattern))
        coef = m.values
    else:
        raise TypeError(f"no single-level direct path for {type(m).__name__}")
    coef.setflags(write=False)
    return Prepared(kind, m.n, stage, coef)


def direct_circulant_matvec(rep: CirculantRep, v) -> np.ndarray:
    """Transform, multiply pointwise, transform back."""
    return prepare_level(rep).apply(v)[0]


def direct_toeplitz_matvec(rep: ToeplitzRep, v, b=None) -> np.ndarray:
    """Circulant embedding of twice the order applied to the zero-padded
    vector; the first n outputs are the product for any choice of ``b``,
    which is the embedding's free entry.  A ``b`` other than the default
    is encoded for this call only."""
    if b is None:
        return prepare_level(rep).apply(v)[0]
    stage = partial(_toeplitz_stage, circulant_program(2 * rep.n))
    coef = _toeplitz_coefficients(rep.param, rep.n, b=b, first=0)
    return Prepared("toeplitz", rep.n, stage, coef).apply(v)[0]


def direct_hankel_matvec(rep: HankelRep, v) -> np.ndarray:
    """Toeplitz on reversed parameters, output reversed."""
    return prepare_level(rep).apply(v)[0]


def direct_symmetric_matvec(rep: SymmetricRep, v) -> np.ndarray:
    """One product per pair and per diagonal entry, summed back."""
    return prepare_level(rep).apply(v)[0]


def direct_tph_matvec(rep: ToeplitzPlusHankelRep, v) -> np.ndarray:
    """Shift the all-ones gauge, then Hankel plus Toeplitz products."""
    return prepare_level(rep).apply(v)[0]


def direct_sparse_matvec(rep: SparseRep, v) -> np.ndarray:
    """Usual support-driven matrix-vector product: one gather, one
    multiply by the values and one segmented sum."""
    return prepare_level(rep).apply(v)[0]


# ---------------------------------------------------------------------------
# single-level dispatch
# ---------------------------------------------------------------------------

def single_level_program(m: StructuredMatrix) -> BilinearProgram:
    """Program for one non-multilevel structure, on its raw parameters."""
    if isinstance(m, CirculantRep):
        return circulant_program(m.n)
    if isinstance(m, ToeplitzRep):
        return toeplitz_program(m.n)
    if isinstance(m, HankelRep):
        return hankel_program(m.n)
    if isinstance(m, SymmetricRep):
        return symmetric_program(m.n)
    if isinstance(m, ToeplitzPlusHankelRep):
        return tph_program(m.n)
    if isinstance(m, SparseRep):
        return sparse_program(m.pattern)
    raise TypeError(f"no single-level program for {type(m).__name__}")


def single_level_params(m: StructuredMatrix) -> np.ndarray:
    """Raw parameter vector matching :func:`single_level_program`."""
    if isinstance(m, ToeplitzPlusHankelRep):
        return np.concatenate([m.toeplitz.param, m.hankel.param])
    if isinstance(m, SparseRep):
        return np.asarray(m.values, dtype=complex)
    return np.asarray(m.param, dtype=complex)


def direct_stage(m: StructuredMatrix, x, phi=None) -> tuple[np.ndarray, int]:
    """The structure's direct stage on ``x``, a vector or an (n, B) block
    of B vectors; ``phi`` of shape (B,) scales the parameters per column,
    so column t of the result is phi[t] times the product with x[:, t].
    Returns (product, count)."""
    prepared = prepare_level(m)
    if phi is None:
        return prepared.apply(x)
    coef = np.outer(prepared.coef, phi)
    return Prepared(prepared.kind, prepared.n, prepared.stage, coef).apply(x)


def direct_matvec(m: StructuredMatrix, v) -> tuple[np.ndarray, int]:
    """Direct-path product and its genuine multiplication count, for a
    vector or a block of vectors (see :class:`Prepared`)."""
    return prepare_level(m).apply(v)
