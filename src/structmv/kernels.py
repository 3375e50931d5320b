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
into a circulant of twice the order with the free first-row entry chosen as
minus the parameter sum, which zeroes the frequency-0 slot and saves one
multiplication; its vector encoder and decoder are single order-2n
transforms windowed to n columns and n rows.  Hankel is the Toeplitz
program between two reversals, a gather of the parameters before its
parameter encoder and one of the output after its decoder, so the Toeplitz
family keeps one embedding map; from order 33 on, a Hankel product's two
routes give the same bits.  Symmetric forms one product per entry pair,
a_ij (v_i + v_j), and one per diagonal entry, (a_ii - sum_{j != i} a_ij) v_i,
with index maps only.  Toeplitz-plus-Hankel shifts a multiple of the
all-ones matrix between its two components so that the Toeplitz part's
frequency-1 slot vanishes as well, saving a second multiplication; the
shift is an index map on the slots of the program's parameter encoder, so
the direct route and a multilevel level run it on the raw 4n-2 parameters
too.  Its Hankel branch moves the output reversal onto its frequency slots
(the FFT flip identity), so both branches share one forward and one
inverse transform.  Sparse is the usual support-driven matvec, as one
gather, one multiply and one segmented sum; a sparse decoder whose rows
mostly hold one or two entries sums by two gathers instead.  Whether a map
applies as a small dense matrix, an index map or ``np.fft`` is decided
once, when the program stores it, the same on both routes.
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

    ``op`` maps the 2n-1 Toeplitz parameters to the circulant's first row
    (t_n..t_{2n-1}, b, t_1..t_{n-1} in 1-indexed terms) with b = -sum(t),
    so the first row always sums to zero.  The program builders apply or
    re-index ``op``; :meth:`embed` builds the row by slicing instead, with
    an optional other ``b``.
    """

    n: int
    op: Select

    def embed(self, param, b=None) -> np.ndarray:
        """First row of the embedding circulant; ``b`` overrides the free
        entry (the product's first n outputs do not depend on it)."""
        n = self.n
        param = np.asarray(param, dtype=complex).reshape(-1)
        require_params("toeplitz", n, len(param), 2 * n - 1)
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
    """2n-1 multiplications: the Toeplitz program between two reversals.

    The parameter encoder is the Toeplitz encoder after the reversal of
    the 2n-1 parameters, and the decoder the reversal of order n after the
    Toeplitz decoder; the vector encoder and the slots are Toeplitz's.
    From n = 33 on, the encoder runs the same reversal, index map and
    transform as :func:`structmv.multilevel.prepare` does for a Hankel
    level, so both routes give the same bits.  Below, the encoder is
    stored as the dense matrix (W E) J, whose rows sum in another order.
    """
    tp, m = toeplitz_program(n), 2 * n - 1
    return BilinearProgram(
        enc_param=compose(tp.enc_param, Select.take(m, np.arange(m)[::-1])),
        enc_vec=tp.enc_vec,
        dec=compose(Select.take(n, np.arange(n)[::-1]), tp.dec),
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

    Both branches share the forward transform X of the padded vector and
    the Toeplitz decoder, so a product takes one transform each way.  The
    FFT flip identity moves the Hankel branch's output reversal onto its
    slots: with w = exp(i*pi/n), W the order-2n Fourier matrix, F_n its
    first n rows, P the gather k -> -k mod 2n and D = diag(w^((n-1)k)),
    the exchange J of order n satisfies J F_n W = F_n W P D, and
    P D W = W Q with Q the gather q -> (n+1-q) mod 2n.  So the reversed
    Toeplitz product J F_n W (s * X) is F_n W ((P D s) * (P X)): the Hankel
    slots read X at -k, their coefficients are the transform of Q, the
    embedding E and J applied to h + a, and the decoder sums the two slot
    vectors before its one windowed inverse transform.  P fixes slot 0, so
    the Hankel branch's frequency-0 slot stays the inactive one.

    The parameter encoder is one index map to Q E J h and E t, one batched
    transform of both, and the shift, an index map on the slots.  With
    T = W E t and H = W Q E J h, the shift is a = T_1 / (2n), and E 1 is
    1 - 2n e_n, so W E 1 = -2n (-1)^k and W Q E 1 = W (1 - 2n e_1) =
    -2n w^k at k != 0 (both are 0 at k = 0).  Slot k != 0 of the Toeplitz
    branch is T_k + (-1)^k T_1, which is 0 at k = 1, and of the Hankel
    branch H_k - w^k T_1.
    """
    m, k = 2 * n - 1, np.arange(2 * n)
    # Q E J on h, with Q's row gather and J's column reversal applied to
    # the embedding's entries, then E on t
    emb = toeplitz_embedding(n).op
    embed = Select((4 * n, 2 * m),
                   np.concatenate([(n + 1 - emb.rows) % (2 * n),
                                   2 * n + emb.rows]),
                   np.concatenate([2 * m - 1 - emb.cols, emb.cols]),
                   np.concatenate([emb.vals, emb.vals]))
    # slot j is itself plus gain[j] times slot 2n+1, the Toeplitz branch's
    # frequency 1, which thereby cancels to an empty row
    gain = np.concatenate([-np.exp(1j * np.pi * k / n), (-1.0) ** k])
    gain[[0, 2 * n]] = 0
    slots = np.arange(4 * n)
    shift = Select((4 * n, 4 * n), np.concatenate([slots, slots]),
                   np.concatenate([slots, np.full(4 * n, 2 * n + 1)]),
                   np.concatenate([np.ones(4 * n), gain]))
    tp = toeplitz_program(n)
    active = np.concatenate([tp.active, tp.active])
    active[2 * n + 1] = False  # frequency 1 of the Toeplitz branch
    # the Hankel slots read X[-k], the Toeplitz slots X[k]; [I I] sums
    # slot k of each branch into row k
    both_reads = Select.take(2 * n, np.concatenate([-k % (2 * n), k]))
    both_sum = Select((2 * n, 4 * n), np.repeat(k, 2),
                      np.stack([k, k + 2 * n], axis=1).reshape(-1))
    return BilinearProgram(
        # I_2 (x) W: one batched transform of both branches
        enc_param=compose(shift, Kron([Select.take(2, [0, 1]),
                                       Fourier(2 * n)]), embed),
        enc_vec=compose(both_reads, tp.enc_vec),
        dec=compose(tp.dec, both_sum),
        active=active,
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
