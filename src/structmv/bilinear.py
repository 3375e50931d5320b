"""Explicit bilinear programs with multiplication counting.

A bilinear program evaluates a bilinear map in four stages: encode the
parameter vector (enc_param), encode the input vector (enc_vec), multiply
the two encodings pointwise, and decode (dec).  Only the pointwise products
count as genuine multiplications; everything else is multiplication by
fixed constants, which is free.  Both routes run one product function,
which checks the input once, encodes it, multiplies it in place by a full
vector of slot coefficients and decodes it: :class:`Prepared` encodes the
coefficients once, :func:`apply` on each call.

The three maps are operators (:mod:`structmv.operators`): Fourier
transforms, index maps, and their compositions and Kronecker products,
with no matrix formed beyond ``operators.SMALL_DENSE`` entries.  A
program decides how each map is stored, once, by
:func:`~structmv.operators.as_operator`; the builders only build.  The
one combinator here, :func:`kron`, composes any number of programs by one
Kronecker product of their maps per map.

Slots whose parameter-side row is identically zero are marked inactive by
the builder.  Their coefficient is set to exactly 0, and multiplying by the
constant 0 is free, so the number of active slots is the program's
multiplication count.  The inactive mask is an analytic claim
made by whoever built the program; :func:`prune_check` verifies it
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .operators import Kron, Operator, as_operator

# an inactive slot's row must be this small relative to the largest entry
PRUNE_RTOL = 1e-10

# random parameter vectors that prune_check applies enc_param to
PRUNE_PROBES = 3


@dataclass(frozen=True, eq=False)
class BilinearProgram:
    """Concrete rank decomposition of a bilinear map.

    enc_param : (r, d_param) map from parameters to product slots
    enc_vec   : (r, n_in) map from the input vector to product slots
    dec       : (n_out, r) map from slot products to the output
    active    : (r,) bool mask; False rows of enc_param are structurally zero

    Each map is stored as :func:`~structmv.operators.as_operator` gives
    it.  ``count``, the genuine multiplications per evaluation, and
    ``inactive``, the indices of the inactive slots, are computed once.
    """

    enc_param: Operator
    enc_vec: Operator
    dec: Operator
    active: np.ndarray
    count: int = field(init=False, repr=False)
    inactive: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("enc_param", "enc_vec", "dec"):
            object.__setattr__(self, name, as_operator(getattr(self, name)))
        act = np.array(self.active, dtype=bool).reshape(-1)
        act.setflags(write=False)
        object.__setattr__(self, "active", act)
        r = self.enc_param.shape[0]
        if self.enc_vec.shape[0] != r or self.dec.shape[1] != r or len(act) != r:
            raise ValueError(
                f"inconsistent slot counts: enc_param {self.enc_param.shape}, "
                f"enc_vec {self.enc_vec.shape}, dec {self.dec.shape}, "
                f"active {len(act)}"
            )
        inactive = np.flatnonzero(~act)
        inactive.setflags(write=False)
        object.__setattr__(self, "count", int(act.sum()))
        object.__setattr__(self, "inactive", inactive)

    @property
    def r(self) -> int:
        return self.enc_param.shape[0]

    @property
    def d_param(self) -> int:
        return self.enc_param.shape[1]

    @property
    def n_in(self) -> int:
        return self.enc_vec.shape[1]

    @property
    def n_out(self) -> int:
        return self.dec.shape[0]


@dataclass(frozen=True)
class CountReport:
    """Theoretical vs numerically measured multiplication count."""

    theoretical: int
    measured: int
    match: bool


def coefficients(program: BilinearProgram, a) -> np.ndarray:
    """Slot coefficients of ``program`` on parameter vector ``a``: its
    parameter encoding, with the inactive slots set to exactly 0.  A view
    gives the bits of its contiguous copy, as in :func:`apply`."""
    a = np.ascontiguousarray(a, dtype=complex).reshape(-1)
    if len(a) != program.d_param:
        raise ValueError(
            f"parameter vector has length {len(a)}, expected {program.d_param}"
        )
    coef = program.enc_param @ a
    coef[program.inactive] = 0
    return coef


def _slots(program: BilinearProgram, coef, v,
           kind: str = "program") -> np.ndarray:
    """``v`` of shape (n_in,), or (n_in, k) for k vectors, encoded and
    times ``coef``; ``kind`` names the matrix in errors."""
    # C order, as in coefficients: dense maps round strided views differently
    v = np.asarray(v, dtype=complex, order="C")
    if v.ndim not in (1, 2):
        raise ValueError(
            f"expected a vector or a block of vectors, got shape {v.shape}"
        )
    if len(v) != program.enc_vec.shape[1]:
        raise ValueError(f"{kind} order {program.n_in} does not match "
                         f"input vector length {len(v)}")
    x = program.enc_vec.apply(v)
    x *= coef if v.ndim == 1 else coef[:, None]
    return x


def _product(program: BilinearProgram, coef, v,
             kind: str = "program") -> tuple[np.ndarray, int]:
    """The product of both routes: the :func:`_slots` of ``v`` decoded.
    Returns (product, count), k times the active slots for k vectors."""
    x = _slots(program, coef, v, kind)
    k = 1 if x.ndim == 1 else x.shape[1]
    return program.dec.apply(x), program.count * k


@dataclass(frozen=True, eq=False)
class Prepared:
    """A matrix ready for products: its bilinear ``program`` and ``coef``,
    one read-only coefficient per slot, encoded once from the matrix's
    parameters.  The constructor takes ``coef``, with no copy if it is a
    complex array, sets every inactive slot to exactly 0 in place and makes
    it read-only.  ``kind`` names the structure in error messages."""

    kind: str
    program: BilinearProgram
    coef: np.ndarray

    def __post_init__(self):
        coef = np.asarray(self.coef, dtype=complex)
        coef[self.program.inactive] = 0
        coef.setflags(write=False)
        object.__setattr__(self, "coef", coef)

    def apply(self, v) -> tuple[np.ndarray, int]:
        """Product with ``v`` of shape (n,), or with each column of ``v`` of
        shape (n, k).  Returns (product, count); the count is the genuine
        multiplications formed, k times the active slots."""
        return _product(self.program, self.coef, v, self.kind)


def apply(program: BilinearProgram, a, v) -> tuple[np.ndarray, int]:
    """Evaluate the program on parameter vector ``a`` and input ``v``.

    Returns (output, measured_count) where measured_count is the number of
    genuine products formed (the active slots).  ``v`` takes the shapes of
    :meth:`Prepared.apply`: a ``v`` of shape (n_in, k) is a block of k
    vectors, the output has shape (n_out, k) and the count is k times the
    active slots.
    """
    return _product(program, coefficients(program, a), v)


def kron(*programs: BilinearProgram) -> BilinearProgram:
    """Tensor-product composition of one or more programs.

    The composed program evaluates the Kronecker-factored bilinear map on
    outer-product parameters; its count is exactly the product of the
    counts.  Each map is one :class:`~structmv.operators.Kron` of the
    programs' maps, so the small-map rule of
    :func:`~structmv.operators.as_operator` judges the whole map, never a
    partial product.  ``kron(p)`` is ``p``.
    """
    if len(programs) == 1:
        return programs[0]
    return BilinearProgram(
        enc_param=Kron([p.enc_param for p in programs]),
        enc_vec=Kron([p.enc_vec for p in programs]),
        dec=Kron([p.dec for p in programs]),
        active=reduce(np.kron, [p.active for p in programs]).astype(bool),
    )


def prune_check(program: BilinearProgram) -> CountReport:
    """Verify the active mask against the numeric content of enc_param.

    enc_param is applied to PRUNE_PROBES pseudorandom complex parameter
    vectors at once, drawn by :func:`_probes`, a fixed-seed SplitMix64
    generator, so that the check does not import ``numpy.random``.  A slot
    measures as active when its largest value is above PRUNE_RTOL times
    the largest value of any slot.  A structurally zero slot is 0 up to
    rounding; any other slot is a nonzero polynomial in the random
    parameters, so it is nonzero with probability 1 (Schwartz-Zippel).
    ``match`` is False when the builder's mask disagrees with the
    measurement anywhere, which indicates a builder bug.
    """
    if program.r == 0:
        return CountReport(theoretical=0, measured=0, match=True)
    mags = np.abs(program.enc_param.apply(_probes(program.d_param)))
    scale = mags.max() if mags.size else 0.0
    row_max = mags.max(axis=1) if mags.size else np.zeros(program.r)
    numeric = row_max > PRUNE_RTOL * scale
    theoretical = int(program.active.sum())
    measured = int(numeric.sum())
    return CountReport(
        theoretical=theoretical,
        measured=measured,
        match=bool(np.array_equal(numeric, program.active)),
    )


def _probes(d: int) -> np.ndarray:
    """PRUNE_PROBES complex vectors of length ``d`` as a (d, PRUNE_PROBES)
    array, with real and imaginary parts uniform in [-1, 1): the outputs 1,
    2, ... of SplitMix64 (Steele, Lea and Flood, 2014) from seed 0,
    computed at once in wrapping uint64 arithmetic."""
    z = np.arange(1, 2 * d * PRUNE_PROBES + 1, dtype=np.uint64)
    z *= np.uint64(0x9E3779B97F4A7C15)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mult)
    z ^= z >> np.uint64(31)
    parts = z.view(np.int64).reshape(2, d, PRUNE_PROBES) / 2.0**63
    return parts[0] + 1j * parts[1]
