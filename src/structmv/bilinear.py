"""Explicit bilinear programs with multiplication counting.

A bilinear program evaluates a bilinear map in four stages: encode the
parameter vector (enc_param), encode the input vector (enc_vec), multiply
the two encodings pointwise, and decode (dec).  Only the pointwise products
count as genuine multiplications; everything else is multiplication by
fixed constants, which is free.

The three maps are operators (:mod:`structmv.operators`): Fourier
transforms, index maps, and their compositions, Kronecker products and
stacks, with no matrix formed beyond ``operators.SMALL_DENSE`` entries.
Arrays passed in are kept as dense matrices.  The combinators here
(:func:`kron`, :func:`conjugate_by`, :func:`add`, :func:`drop_inactive`)
compose operators.

Slots whose parameter-side row is identically zero are marked inactive by
the builder and never evaluated, so the number of active slots is the
program's multiplication count.  The inactive mask is an analytic claim
made by whoever built the program; :func:`prune_check` verifies it
numerically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .operators import HStack, Kron, Operator, Select, VStack, as_operator, compose

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

    The maps are operators; an array given for one is kept as a dense
    matrix.
    """

    enc_param: Operator
    enc_vec: Operator
    dec: Operator
    active: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "enc_param", as_operator(self.enc_param))
        object.__setattr__(self, "enc_vec", as_operator(self.enc_vec))
        object.__setattr__(self, "dec", as_operator(self.dec))
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

    @property
    def count(self) -> int:
        """Number of genuine multiplications per evaluation."""
        return int(self.active.sum())


@dataclass(frozen=True)
class CountReport:
    """Theoretical vs numerically measured multiplication count."""

    theoretical: int
    measured: int
    match: bool


def apply(program: BilinearProgram, a, v) -> tuple[np.ndarray, int]:
    """Evaluate the program on parameter vector ``a`` and input ``v``.

    Returns (output, measured_count) where measured_count is the number of
    pointwise products actually evaluated (the active slots).
    """
    a = np.asarray(a, dtype=complex).reshape(-1)
    v = np.asarray(v, dtype=complex).reshape(-1)
    if len(a) != program.d_param:
        raise ValueError(
            f"parameter vector has length {len(a)}, expected {program.d_param}"
        )
    if len(v) != program.n_in:
        raise ValueError(
            f"input vector has length {len(v)}, expected {program.n_in}"
        )
    pa = program.enc_param.apply(a)
    pv = program.enc_vec.apply(v)
    act = program.active
    w = np.zeros(program.r, dtype=complex)
    w[act] = pa[act] * pv[act]
    return program.dec.apply(w), int(act.sum())


def kron(p1: BilinearProgram, p2: BilinearProgram) -> BilinearProgram:
    """Tensor-product composition of two programs.

    The composed program evaluates the Kronecker-factored bilinear map on
    outer-product parameters; its count is exactly count(p1) * count(p2).
    """
    return BilinearProgram(
        enc_param=Kron([p1.enc_param, p2.enc_param]),
        enc_vec=Kron([p1.enc_vec, p2.enc_vec]),
        dec=Kron([p1.dec, p2.dec]),
        active=np.kron(p1.active, p2.active).astype(bool),
    )


def conjugate_by(
    program: BilinearProgram, pre_param, pre_vec, post
) -> BilinearProgram:
    """Compose with fixed linear maps: parameters through ``pre_param``,
    inputs through ``pre_vec``, outputs through ``post``.  Each map is an
    operator or an array; ``None`` leaves that side unchanged.

    The slots and their active mask are unchanged, so the count is too.
    """
    pre_param, pre_vec, post = (
        None if m is None else as_operator(m) for m in (pre_param, pre_vec, post)
    )
    if pre_param is not None and pre_param.shape[0] != program.d_param:
        raise ValueError(
            f"pre_param has {pre_param.shape[0]} rows, expected {program.d_param}"
        )
    if pre_vec is not None and pre_vec.shape[0] != program.n_in:
        raise ValueError(
            f"pre_vec has {pre_vec.shape[0]} rows, expected {program.n_in}"
        )
    if post is not None and post.shape[1] != program.n_out:
        raise ValueError(
            f"post has {post.shape[1]} columns, expected {program.n_out}"
        )
    return BilinearProgram(
        enc_param=program.enc_param if pre_param is None
        else compose(program.enc_param, pre_param),
        enc_vec=program.enc_vec if pre_vec is None
        else compose(program.enc_vec, pre_vec),
        dec=program.dec if post is None else compose(post, program.dec),
        active=program.active,
    )


def add(p1: BilinearProgram, p2: BilinearProgram) -> BilinearProgram:
    """Pointwise sum of two programs over the same spaces.

    Slots concatenate and the decoded outputs add; counts add as well.
    """
    if (p1.d_param, p1.n_in, p1.n_out) != (p2.d_param, p2.n_in, p2.n_out):
        raise ValueError("programs act on different spaces")
    return BilinearProgram(
        enc_param=VStack([p1.enc_param, p2.enc_param]),
        enc_vec=VStack([p1.enc_vec, p2.enc_vec]),
        dec=HStack([p1.dec, p2.dec]),
        active=np.concatenate([p1.active, p2.active]),
    )


def drop_inactive(program: BilinearProgram) -> BilinearProgram:
    """Remove structurally-zero slots; the evaluated map is unchanged."""
    act = program.active
    keep = Select.take(program.r, np.flatnonzero(act))
    return BilinearProgram(
        enc_param=compose(keep, program.enc_param),
        enc_vec=compose(keep, program.enc_vec),
        dec=compose(program.dec, keep.T),
        active=np.ones(int(act.sum()), dtype=bool),
    )


def prune_check(program: BilinearProgram) -> CountReport:
    """Verify the active mask against the numeric content of enc_param.

    enc_param is applied to PRUNE_PROBES seeded random parameter vectors at
    once.  A slot measures as active when its largest value is above
    PRUNE_RTOL times the largest value of any slot.  A structurally zero
    slot is 0 up to rounding; any other slot is a nonzero polynomial in
    the random parameters, so it is nonzero with probability 1
    (Schwartz-Zippel).  ``match`` is False when the builder's mask
    disagrees with the measurement anywhere, which indicates a builder bug.
    """
    if program.r == 0:
        return CountReport(theoretical=0, measured=0, match=True)
    rng = np.random.default_rng(0)
    shape = (program.d_param, PRUNE_PROBES)
    probes = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mags = np.abs(program.enc_param.apply(probes))
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
