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
from functools import lru_cache

import numpy as np

from . import bilinear
from .bilinear import BilinearProgram
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
from .transform import dft, exchange_matrix, fourier_matrix, idft


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Embedding of an order-n Toeplitz matrix into an order-2n circulant.

    ``matrix`` maps the 2n-1 Toeplitz parameters to the circulant's first
    row (t_n..t_{2n-1}, b, t_1..t_{n-1} in 1-indexed terms) with
    b = -sum(t), so the first row always sums to zero.  The program
    builders use ``matrix``; :meth:`embed` applies it by indexing.
    """

    n: int
    matrix: np.ndarray

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


@lru_cache(maxsize=None)
def toeplitz_embedding(n: int) -> EmbeddingSpec:
    m = np.zeros((2 * n, 2 * n - 1))
    m[np.arange(n), n - 1 + np.arange(n)] = 1.0
    m[n, :] = -1.0
    m[n + np.arange(1, n), np.arange(n - 1)] = 1.0
    m.setflags(write=False)
    return EmbeddingSpec(n=n, matrix=m)


# ---------------------------------------------------------------------------
# program builders
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def circulant_program(n: int) -> BilinearProgram:
    """n multiplications: pointwise product of the two transforms.

    enc_param = W, enc_vec = conj(W) (= n W^{-1}), dec = W/n, so that
    dec @ ((W a) * (conj(W) v)) is exactly the circulant product.
    """
    w = fourier_matrix(n)
    return BilinearProgram(
        enc_param=w,
        enc_vec=np.conj(w),
        dec=w / n,
        active=np.ones(n, dtype=bool),
    )


@lru_cache(maxsize=None)
def toeplitz_program(n: int) -> BilinearProgram:
    """2n-1 multiplications via the order-2n circulant embedding.

    The slots are the 2n circulant frequencies; frequency 0 is inactive
    because the embedded first row sums to zero identically.
    """
    cp = circulant_program(2 * n)
    emb = toeplitz_embedding(n)
    active = np.ones(2 * n, dtype=bool)
    active[0] = False
    return BilinearProgram(
        enc_param=cp.enc_param @ emb.matrix,
        enc_vec=cp.enc_vec[:, :n],
        dec=cp.dec[:n, :],
        active=active,
    )


@lru_cache(maxsize=None)
def hankel_program(n: int) -> BilinearProgram:
    """2n-1 multiplications: Toeplitz on reversed parameters, output reversed."""
    return bilinear.conjugate_by(
        toeplitz_program(n),
        pre_param=exchange_matrix(2 * n - 1),
        pre_vec=np.eye(n),
        post=exchange_matrix(n),
    )


@lru_cache(maxsize=None)
def symmetric_shell_maps(n: int) -> tuple:
    """Linear maps from packed symmetric parameters to each shell's Hankel
    parameters.

    Shell k (k = 0, 1, ...) is the Hankel matrix matching the first row and
    last column of the order n-2k residual; subtracting it zeroes the
    residual's border, and the sum of the re-embedded shells reconstructs
    the symmetric matrix.  Returns ceil(n/2) matrices of shape
    (2(n-2k)-1, n(n+1)/2).
    """
    dim = n * (n + 1) // 2
    maps = []
    packed_map = np.eye(dim)  # packed residual k in terms of the original
    nk = n
    shells = (n + 1) // 2
    for k in range(shells):
        sub = nk * (nk + 1) // 2
        extract = np.zeros((2 * nk - 1, sub))
        for q in range(nk):  # h[q] = residual[nk-1-q, nk-1]
            extract[q, symmetric_pack_index(nk, nk - 1 - q, nk - 1)] = 1.0
        for q in range(nk, 2 * nk - 1):  # h[q] = residual[0, 2nk-2-q]
            extract[q, symmetric_pack_index(nk, 0, 2 * nk - 2 - q)] = 1.0
        maps.append(extract @ packed_map)
        if k + 1 < shells:
            inner = nk - 2
            peel = np.zeros((inner * (inner + 1) // 2, sub))
            for i in range(inner):
                for j in range(i, inner):
                    row = symmetric_pack_index(inner, i, j)
                    peel[row, symmetric_pack_index(nk, i + 1, j + 1)] += 1.0
                    peel[row, :] -= extract[2 * nk - 4 - i - j, :]
            packed_map = peel @ packed_map
            nk = inner
    return tuple(maps)


@lru_cache(maxsize=None)
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
        hp = hankel_program(nk)
        select = np.zeros((nk, n))
        select[np.arange(nk), k + np.arange(nk)] = 1.0
        part = bilinear.conjugate_by(
            hp, pre_param=shell_map, pre_vec=select, post=select.T
        )
        pieces.append(bilinear.drop_inactive(part))
    out = pieces[0]
    for piece in pieces[1:]:
        out = bilinear.add(out, piece)
    return out


@lru_cache(maxsize=None)
def tph_alpha(n: int) -> np.ndarray:
    """Row functional giving the all-ones shift for Toeplitz-plus-Hankel.

    alpha @ t is the frequency-1 transform coefficient of the Toeplitz
    embedding divided by 2n; subtracting (alpha @ t) times the all-ones
    parameter vector from t makes that coefficient vanish identically.
    """
    row = fourier_matrix(2 * n)[1] @ toeplitz_embedding(n).matrix / (2 * n)
    row.setflags(write=False)
    return row


@lru_cache(maxsize=None)
def tph_program(n: int) -> BilinearProgram:
    """4n-3 multiplications on raw parameters (t_1..t_{2n-1}, h_1..h_{2n-1}).

    The program shifts a = alpha @ t of the all-ones matrix from the
    Toeplitz to the Hankel component, then sums a Hankel program on h + a
    and a Toeplitz program on t - a.  The Toeplitz branch has two inactive
    slots: frequency 0 from its own embedding and frequency 1 from the
    shift.
    """
    d_raw = 4 * n - 2
    alpha = tph_alpha(n)
    ones = np.ones(2 * n - 1)
    to_hankel = np.zeros((2 * n - 1, d_raw), dtype=complex)
    to_hankel[:, 2 * n - 1:] = np.eye(2 * n - 1)
    to_hankel[:, : 2 * n - 1] += np.outer(ones, alpha)
    to_toeplitz = np.zeros((2 * n - 1, d_raw), dtype=complex)
    to_toeplitz[:, : 2 * n - 1] = np.eye(2 * n - 1) - np.outer(ones, alpha)

    eye = np.eye(n)
    hpart = bilinear.conjugate_by(hankel_program(n), to_hankel, eye, eye)
    tpart = bilinear.conjugate_by(toeplitz_program(n), to_toeplitz, eye, eye)
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
    enc_param = np.eye(r, dtype=complex)
    enc_vec = np.zeros((r, n), dtype=complex)
    dec = np.zeros((n, r), dtype=complex)
    for t, (i, j) in enumerate(pattern.support):
        enc_vec[t, j] = 1.0
        dec[i, t] = 1.0
    return BilinearProgram(
        enc_param=enc_param,
        enc_vec=enc_vec,
        dec=dec,
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

@lru_cache(maxsize=None)
def tph_gauge_project(n: int) -> np.ndarray:
    """(4n-3, 4n-2) map from raw (t, h) to gauge-fixed coordinates."""
    d_raw = 4 * n - 2
    rows = []
    diag = n - 1
    for q in range(2 * n - 1):
        if q == diag:
            continue
        row = np.zeros(d_raw)
        row[q] = 1.0
        row[diag] -= 1.0
        rows.append(row)
    for q in range(2 * n - 1):
        row = np.zeros(d_raw)
        row[2 * n - 1 + q] = 1.0
        row[diag] += 1.0
        rows.append(row)
    out = np.array(rows)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def tph_gauge_embed(n: int) -> np.ndarray:
    """(4n-2, 4n-3) section: reinsert the zero diagonal coordinate."""
    d_raw = 4 * n - 2
    out = np.zeros((d_raw, 4 * n - 3))
    col = 0
    for q in range(2 * n - 1):
        if q == n - 1:
            continue
        out[q, col] = 1.0
        col += 1
    for q in range(2 * n - 1):
        out[2 * n - 1 + q, col] = 1.0
        col += 1
    out.setflags(write=False)
    return out


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
