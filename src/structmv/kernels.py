"""Structure-specific kernels.

Each structure gets two evaluation routes that must agree:

* a builder producing a :class:`~structmv.bilinear.BilinearProgram` whose
  active-slot count is provably minimal for that structure, and
* a literal step-by-step matvec (the "direct path") that performs the same
  stages inline.

The circulant kernel diagonalizes by the Fourier matrix.  Toeplitz embeds
into a circulant of twice the order with the free first-row entry chosen as
minus the parameter sum, which zeroes the frequency-0 slot and saves one
multiplication.  Hankel reduces to Toeplitz by reversing parameters and
output.  Symmetric peels Hankel shells off the border.  Toeplitz-plus-Hankel
shifts a multiple of the all-ones matrix between its two components so that
the Toeplitz part's frequency-1 slot vanishes as well, saving a second
multiplication.  Sparse is the usual support-driven matvec.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce

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
    symmetric_pack_index,
)
from .transform import dft, idft


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
        if len(param) != 2 * n - 1:
            raise ValueError(
                f"toeplitz of order {n} needs {2 * n - 1} parameters, "
                f"got {len(param)}"
            )
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
def symmetric_shell_maps(n: int) -> tuple:
    """Index maps from packed symmetric parameters to each shell's Hankel
    parameters.

    Shell k (k = 0, 1, ...) is the Hankel matrix matching the first row and
    last column of the order n-2k residual; subtracting it zeroes the
    residual's border, and the sum of the re-embedded shells reconstructs
    the symmetric matrix.  As :func:`symmetric_shells` shows, shell k is its
    border minus shell k-1's border on the same anti-diagonals, so its map
    is the difference of two 0/1 selections.  Returns ceil(n/2) operators
    of shape (2(n-2k)-1, n(n+1)/2).
    """
    dim = n * (n + 1) // 2
    index = _border_index(n)
    maps = []
    previous = np.empty(0, dtype=np.intp)
    start = 0
    for k in range((n + 1) // 2):
        length = 2 * (n - 2 * k) - 1
        border = index[start:start + length]
        rows = np.arange(length)
        maps.append(Select(
            (length, dim),
            np.concatenate([rows, rows[:len(previous)]]),
            np.concatenate([border, previous]),
            np.concatenate([np.ones(length), -np.ones(len(previous))]),
        ))
        previous, start = border[2:-2], start + length
    return tuple(maps)


@lru_cache(maxsize=64)
def symmetric_program(n: int) -> BilinearProgram:
    """n(n+1)/2 multiplications: a Hankel program per peeled shell.

    Shell k acts on the middle segment v[k : n-k] and its output embeds
    back at the same offset.  The shells' parameter maps are linear in the
    packed symmetric parameters, so the whole thing is one program; the
    per-shell frequency-0 slots are structurally zero and are dropped,
    leaving every remaining slot active.
    """
    pieces = []
    for k, shell_map in enumerate(symmetric_shell_maps(n)):
        nk = n - 2 * k
        segment = Select.take(n, k + np.arange(nk))
        pieces.append(bilinear.conjugate_by(
            hankel_program(nk), pre_param=shell_map, pre_vec=segment,
            post=segment.T
        ))
    return bilinear.drop_inactive(reduce(bilinear.add, pieces))


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
    n = pattern.n
    r = len(pattern.support)
    support = np.array(pattern.support, dtype=np.intp).reshape(r, 2)
    return BilinearProgram(
        enc_param=Select.take(r, np.arange(r)),
        enc_vec=Select.take(n, support[:, 1]),
        dec=Select.take(n, support[:, 0]).T,
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

def _circulant_steps(c, x, first=0):
    """Transform both sides, multiply pointwise over slots ``first`` and
    up, transform back.  Slots below ``first`` are structurally zero and
    are neither formed nor counted.  Returns (product, genuine
    multiplication count)."""
    c = np.asarray(c, dtype=complex).reshape(-1)
    x = np.asarray(x, dtype=complex).reshape(-1)
    if len(c) != len(x):
        raise ValueError(
            f"circulant order {len(c)} does not match vector length {len(x)}"
        )
    prod = dft(c)
    prod[:first] = 0
    prod[first:] *= idft(x)[first:]
    return dft(prod), len(c) - first


def _toeplitz_steps(param, v, b=None, first=1):
    """Frequency 0 is structurally zero only for the default ``b``, so a
    caller that sets ``b`` passes ``first=0``; Toeplitz-plus-Hankel skips
    frequency 1 as well with ``first=2``."""
    v = np.asarray(v, dtype=complex).reshape(-1)
    n = len(v)
    c = toeplitz_embedding(n).embed(param, b=b)
    padded = np.concatenate([v, np.zeros(n, dtype=complex)])
    z, count = _circulant_steps(c, padded, first)
    return z[:n], count


def _hankel_steps(param, v):
    param = np.asarray(param, dtype=complex).reshape(-1)
    z, count = _toeplitz_steps(param[::-1], v)
    return z[::-1], count


@lru_cache(maxsize=64)
def _border_index(n: int) -> np.ndarray:
    """Packed indices of the border of every shell of an order-n symmetric
    matrix, shell after shell, in Hankel parameter order: shell k's border
    is row k and column n-1-k, and its parameter q sits on anti-diagonal
    i + j = 2n-2-2k-q."""
    index = []
    for k in range((n + 1) // 2):
        for s in range(2 * n - 2 - 2 * k, 2 * k - 1, -1):
            i = max(k, s - (n - 1 - k))
            index.append(symmetric_pack_index(n, i, s - i))
    out = np.array(index, dtype=np.intp)
    out.setflags(write=False)
    return out


def symmetric_shells(param, n: int):
    """Yield (k, Hankel parameters of shell k) for the ceil(n/2) shells
    peeled off the border of an order-n symmetric matrix.

    Shell k has order n-2k and sits at offset k; the shells sum to the
    matrix.  The shells peeled before shell k are Hankel, so their sum is
    constant along each anti-diagonal, and it equals the matrix on shell
    k-1's border, which the peel left zero.  So shell k is its border minus
    shell k-1's border on the same anti-diagonals: O(n^2) work in all.
    """
    param = np.asarray(param, dtype=complex).reshape(-1)
    if len(param) != n * (n + 1) // 2:
        raise ValueError(
            f"symmetric of order {n} needs {n * (n + 1) // 2} parameters, "
            f"got {len(param)}"
        )
    borders = param[_border_index(n)]
    previous = np.zeros(2 * n + 3, dtype=complex)
    start = 0
    for k in range((n + 1) // 2):
        border = borders[start:start + 2 * (n - 2 * k) - 1]
        yield k, border - previous[2:-2]
        previous, start = border, start + len(border)


def _symmetric_steps(param, n, v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(v) != n:
        raise ValueError(
            f"symmetric order {n} does not match vector length {len(v)}"
        )
    z = np.zeros(n, dtype=complex)
    count = 0
    for k, shell in symmetric_shells(param, n):
        w, c = _hankel_steps(shell, v[k:n - k])
        z[k:n - k] += w
        count += c
    return z, count


def _tph_steps(t_param, h_param, v):
    t_param = np.asarray(t_param, dtype=complex).reshape(-1)
    h_param = np.asarray(h_param, dtype=complex).reshape(-1)
    n = (len(t_param) + 1) // 2
    shift = tph_alpha(n) @ t_param
    z_h, c_h = _hankel_steps(h_param + shift, v)
    # the shifted Toeplitz part also has a vanishing frequency-1 slot
    z_t, c_t = _toeplitz_steps(t_param - shift, v, first=2)
    return z_h + z_t, c_h + c_t


def _sparse_steps(rep: SparseRep, v):
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(v) != rep.n:
        raise ValueError(
            f"sparse order {rep.n} does not match vector length {len(v)}"
        )
    z = np.zeros(rep.n, dtype=complex)
    for (i, j), value in zip(rep.pattern.support, rep.values):
        z[i] += value * v[j]
    return z, len(rep.pattern.support)


def direct_circulant_matvec(rep: CirculantRep, v) -> np.ndarray:
    """Transform, multiply pointwise, transform back."""
    return _circulant_steps(rep.param, v)[0]


def direct_toeplitz_matvec(rep: ToeplitzRep, v, b=None) -> np.ndarray:
    """Circulant embedding of twice the order applied to the zero-padded
    vector; the first n outputs are the product for any choice of ``b``."""
    return _toeplitz_steps(rep.param, v, b=b, first=1 if b is None else 0)[0]


def direct_hankel_matvec(rep: HankelRep, v) -> np.ndarray:
    """Toeplitz on reversed parameters, output reversed."""
    return _hankel_steps(rep.param, v)[0]


def direct_symmetric_matvec(rep: SymmetricRep, v) -> np.ndarray:
    """Peel Hankel shells off the border and accumulate their products."""
    return _symmetric_steps(rep.param, rep.n, v)[0]


def direct_tph_matvec(rep: ToeplitzPlusHankelRep, v) -> np.ndarray:
    """Shift the all-ones gauge, then Hankel plus Toeplitz products."""
    return _tph_steps(rep.toeplitz.param, rep.hankel.param, v)[0]


def direct_sparse_matvec(rep: SparseRep, v) -> np.ndarray:
    """Usual support-driven matrix-vector product."""
    return _sparse_steps(rep, v)[0]


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


def direct_matvec(m: StructuredMatrix, v) -> tuple[np.ndarray, int]:
    """Direct-path product and its genuine multiplication count."""
    if isinstance(m, CirculantRep):
        return _circulant_steps(m.param, v)
    if isinstance(m, ToeplitzRep):
        return _toeplitz_steps(m.param, v)
    if isinstance(m, HankelRep):
        return _hankel_steps(m.param, v)
    if isinstance(m, SymmetricRep):
        return _symmetric_steps(m.param, m.n, v)
    if isinstance(m, ToeplitzPlusHankelRep):
        return _tph_steps(m.toeplitz.param, m.hankel.param, v)
    if isinstance(m, SparseRep):
        return _sparse_steps(m, v)
    raise TypeError(f"no single-level direct path for {type(m).__name__}")
