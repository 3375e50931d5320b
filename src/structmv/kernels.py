"""Structure-specific kernels.

Each structure gets a builder producing a
:class:`~structmv.bilinear.BilinearProgram` whose active-slot count is
provably minimal for that structure.  The direct path applies that same
program: :func:`structmv.multilevel.prepare` encodes a matrix's parameters
once with the program's own parameter encoder, one coefficient per slot
and 0 at the inactive slots, and keeps them on the matrix as a
:class:`~structmv.bilinear.Prepared`.  A direct product is the program's
vector encoder, one pointwise multiply and its decoder, on a vector or on
a block of vectors along a trailing axis.

The circulant kernel diagonalizes by the Fourier matrix.  Toeplitz embeds
into a circulant of twice the order, laid out by ``ToeplitzRep.entry``,
with the free first-row entry chosen as minus the parameter sum, which
zeroes the frequency-0 slot and saves one multiplication; its vector
encoder and decoder are single order-2n transforms windowed to n columns
and n rows.  Only :func:`toeplitz_embedding` and :func:`toeplitz_program`
decide that order and embedding.  A Hankel matrix with parameters h is
the Toeplitz matrix with the same h times the exchange J, H_h = T_h J, so
the Hankel program is the Toeplitz program after a reversal of the input,
and a Hankel matrix's coefficients are those of the Toeplitz matrix with
its parameters.  Symmetric forms one product per entry pair,
a_ij (v_i + v_j), and one per diagonal entry, (a_ii - sum_{j != i} a_ij)
v_i, with index maps only.  Toeplitz-plus-Hankel shifts a multiple of the
all-ones matrix between its two components so that the Toeplitz part's
frequency-1 slot vanishes as well, saving a second multiplication.  It
reads its transform order, slots and gains off the Toeplitz program: its
parameter encoder is the Toeplitz encoder on each component, then the
shift as an index map on the slots, and by H_h = T_h J its Hankel branch
reads the shared forward transform at -k, weighed by a root of unity.
Sparse is the usual support-driven matvec, as one gather, one multiply
and one segmented sum; a sparse decoder whose rows mostly hold one or two
entries sums by two gathers instead.  Whether a map applies as a small
dense matrix, an index map or ``np.fft`` is decided once, when the
program stores it, the same on both routes.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import multilevel  # a cycle: neither reads the other at import
from .bilinear import BilinearProgram
from .operators import Fourier, Kron, Select, compose
from .structures import (
    KINDS,
    CirculantRep,
    HankelRep,
    SparseRep,
    SparsityPattern,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
    require_params,
)


@dataclass(frozen=True, eq=False)
class EmbeddingSpec:
    """Embedding of an order-n Toeplitz matrix into an order-2n circulant.

    ``op`` maps the 2n-1 Toeplitz parameters to the circulant's first row:
    the matrix's first row, then b = -sum(t), then its first column from
    the bottom up, so the first row always sums to zero.
    """

    n: int
    op: Select

    def embed(self, param) -> np.ndarray:
        """First row of the embedding circulant, ``op @ param``."""
        param = np.asarray(param, dtype=complex).reshape(-1)
        require_params("toeplitz", self.n, len(param), 2 * self.n - 1)
        return self.op @ param


@lru_cache(maxsize=64)
def toeplitz_embedding(n: int) -> EmbeddingSpec:
    d, i = ToeplitzRep.size(n), np.arange(n)
    rows = np.concatenate([i, np.full(d, n), n + i[1:]])
    cols = np.concatenate([ToeplitzRep.entry(n, 0, i), np.arange(d),
                           ToeplitzRep.entry(n, i[:0:-1], 0)])
    vals = np.concatenate([np.ones(n), -np.ones(d), np.ones(n - 1)])
    return EmbeddingSpec(n=n, op=Select((2 * n, d), rows, cols, vals))


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
    because the embedded first row sums to zero identically.  Each map is
    one order-2n transform: the parameter encoder transforms the embedded
    first row, the vector encoder is windowed to n columns, which
    zero-pads the vector, and the decoder to its first n rows.
    """
    active = np.ones(2 * n, dtype=bool)
    active[0] = False
    return BilinearProgram(
        enc_param=compose(Fourier(2 * n), toeplitz_embedding(n).op),
        enc_vec=Fourier(2 * n, conj=True, cols=n),
        dec=Fourier(2 * n, scale=1 / (2 * n), rows=n),
        active=active,
    )


@lru_cache(maxsize=64)
def hankel_program(n: int) -> BilinearProgram:
    """2n-1 multiplications: H_h = T_h J, the Toeplitz program after the
    reversal J of the input.

    The parameter encoder, the decoder and the slots are Toeplitz's own, so
    a Hankel matrix's coefficients are bit for bit those of the Toeplitz
    matrix with the same parameters, and both routes encode it alike.
    """
    tp = toeplitz_program(n)
    return BilinearProgram(
        enc_param=tp.enc_param,
        enc_vec=compose(tp.enc_vec, Select.take(n, np.arange(n)[::-1])),
        dec=tp.dec,
        active=tp.active,
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
    i, j = np.triu_indices(n)  # row-major, as SymmetricRep packs
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
    pack = SymmetricRep.entry(n, np.arange(n)[:, None], np.arange(n))
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
def tph_program(n: int) -> BilinearProgram:
    """4n-3 multiplications on raw parameters (t_1..t_{2n-1}, h_1..h_{2n-1}).

    The program sums a Hankel product on h + a and a Toeplitz product on
    t - a, with a the multiple of the all-ones matrix, which is both
    Toeplitz and Hankel, chosen so that the Toeplitz part's frequency-1
    slot vanishes.  The Toeplitz branch has two inactive slots: frequency 0
    from its own embedding and frequency 1 from the shift.

    Every Toeplitz fact is read off ``tp = toeplitz_program(n)``: its
    transform order N = tp.r, its active slots, its encoder and decoder.
    Both branches share the forward transform X of the padded vector and
    the decoder, so a product takes one transform each way.  By H_h = T_h J
    the Hankel branch is a Toeplitz product on the reversed vector, whose
    transform at slot k is d_k X_{-k}, d_k = exp(-2*pi*i*((n-1)k mod N)/N).
    So the Hankel slots read X at -k and weigh their coefficients by d_k,
    and the decoder sums the two slot vectors before its one transform.

    The parameter encoder is tp's encoder on h and on t, then the slot map.
    With T and H those encodings and g the encoding of the all-ones
    matrix's parameters, 0 at tp's inactive slots, the shift is
    a = T_1 / g_1.  With r = g / g_1, slot k of the Toeplitz branch is
    T_k - r_k T_1, 0 at k = 1, and of the Hankel branch d_k (H_k + r_k T_1).
    """
    tp = toeplitz_program(n)
    N = tp.r
    k = np.arange(N)
    g = np.where(tp.active, tp.enc_param @ np.ones(tp.d_param), 0)
    r = g / g[1]
    # d_k is formed from angles below 2 pi, which keeps it accurate
    d = np.exp(-2j * np.pi * ((n - 1) * k % N) / N)
    # slot j is weight[j] times itself plus gain[j] times slot N+1, the
    # Toeplitz frequency 1, whose row is dropped: r_1 may not round to 1
    weight = np.concatenate([d, np.ones(N)])
    gain = np.concatenate([d * r, -r])
    weight[N + 1] = gain[N + 1] = 0
    slots = np.arange(2 * N)
    shift = Select((2 * N, 2 * N), np.concatenate([slots, slots]),
                   np.concatenate([slots, np.full(2 * N, N + 1)]),
                   np.concatenate([weight, gain]))
    # the Hankel slots read X[-k], the Toeplitz slots X[k]; [I I] sums
    # slot k of each branch into row k
    both_reads = Select.take(N, np.concatenate([-k % N, k]))
    both_sum = Select.take(N, np.tile(k, 2)).T
    return BilinearProgram(
        # [t; h] -> [h; t], then the Toeplitz encoder on each component
        enc_param=compose(shift, Kron([Select.take(2, [1, 0]),
                                       tp.enc_param])),
        enc_vec=compose(both_reads, tp.enc_vec),
        dec=compose(tp.dec, both_sum),
        # frequency 1 of the Toeplitz branch is inactive too
        active=np.concatenate([tp.active, tp.active & (k != 1)]),
    )


@lru_cache(maxsize=64)
def sparse_program(pattern: SparsityPattern) -> BilinearProgram:
    """One multiplication per support entry: select value, select v[j],
    accumulate into output i.  Cached per pattern, which compares and
    hashes by value."""
    r = len(pattern.rows)
    return BilinearProgram(
        enc_param=Select.take(r, np.arange(r)),
        enc_vec=Select.take(pattern.n, pattern.cols),
        dec=Select.take(pattern.n, pattern.rows).T,
        active=np.ones(r, dtype=bool),
    )


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
    """``m.params``, the raw parameter vector of :func:`single_level_program`;
    one of another length than the program takes is a ValueError."""
    need = single_level_program(m).d_param
    param = m.params
    require_params(KINDS[type(m)], m.n, len(param), need)
    return param


# ---------------------------------------------------------------------------
# direct path
# ---------------------------------------------------------------------------

def direct_matvec(m: StructuredMatrix, v) -> tuple[np.ndarray, int]:
    """Direct-path product and its genuine multiplication count, for a
    vector or a block of vectors: ``prepare(m).apply(v)`` (see
    :func:`structmv.multilevel.prepare`)."""
    return multilevel.prepare(m).apply(v)
