"""Shared helpers for the test suite."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import structmv as sm
from structmv import kernels, multilevel, transform
from structmv.structures import symmetric_pack_index

SRC = Path(__file__).resolve().parents[1] / "src"

SINGLE_LEVEL = (
    "circulant",
    "toeplitz",
    "hankel",
    "symmetric",
    "toeplitz_plus_hankel",
    "sparse",
)


def gaussian(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def rel_err(got, want):
    got = np.asarray(got)
    want = np.asarray(want)
    scale = float(np.abs(want).max()) if want.size else 0.0
    err = float(np.abs(got - want).max()) if got.size else 0.0
    return err / scale if scale > 0 else err


def random_instance(structure, n, rng, density=0.5):
    if structure == "circulant":
        return sm.CirculantRep(n, gaussian(rng, n))
    if structure == "toeplitz":
        return sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1))
    if structure == "hankel":
        return sm.HankelRep(n, gaussian(rng, 2 * n - 1))
    if structure == "symmetric":
        return sm.SymmetricRep(n, gaussian(rng, n * (n + 1) // 2))
    if structure == "toeplitz_plus_hankel":
        return sm.ToeplitzPlusHankelRep(
            toeplitz=sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1)),
            hankel=sm.HankelRep(n, gaussian(rng, 2 * n - 1)),
        )
    if structure == "sparse":
        mask = rng.random((n, n)) < density
        support = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
        return sm.SparseRep(
            sm.SparsityPattern(n, support), gaussian(rng, len(support))
        )
    raise ValueError(structure)


def tph_shift_row(n):
    """The row whose product with t is the multiple of the all-ones matrix
    that tph_program moves from the Toeplitz to the Hankel component: the
    frequency-1 transform coefficient of t's embedding over 2n."""
    return (transform.fourier_matrix(2 * n)[1]
            @ kernels.toeplitz_embedding(n).op.to_dense() / (2 * n))


def toeplitz_with_free_entry(rep, v, b):
    """The first n outputs of the order-2n embedding circulant of ``rep``,
    with ``b`` as its free entry, on the zero-padded vector: the Toeplitz
    product for every ``b``."""
    n = rep.n
    c = kernels.toeplitz_embedding(n).embed(rep.param)
    c[n] = b
    padded = np.concatenate([v, np.zeros(n)])
    return kernels.direct_matvec(sm.CirculantRep(2 * n, c), padded)[0][:n]


def check_prepared_block(m, block):
    """``prepare(m)`` on a block of vectors agrees with the oracle to 1e-9,
    and to 1e-12 with direct products column by column and with the
    program route on the same block; the count is the block's width
    times ``param_dim``."""
    got, count = sm.prepare(m).apply(block)
    k = block.shape[1]
    assert got.shape == block.shape
    assert rel_err(got, sm.dense(m) @ block) < 1e-9
    columns = [sm.prepare(m).apply(block[:, t]) for t in range(k)]
    assert rel_err(got, np.stack([y for y, _ in columns], axis=1)) < 1e-12
    program_block, program_count = sm.apply(multilevel.multilevel_program(m),
                                             multilevel.param_vector(m), block)
    assert rel_err(got, program_block) < 1e-12
    assert all(c == sm.param_dim(m) for _, c in columns)
    assert count == program_count == k * sm.param_dim(m)


def run_cli(args, cwd):
    return run_python(["-m", "structmv", *args], cwd)


def run_python(args, cwd):
    """A fresh Python process on ``args`` that imports structmv from SRC."""
    env = os.environ.copy()
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
    )


# ---------------------------------------------------------------------------
# Hankel shell peel of a symmetric matrix: a reference identity
# ---------------------------------------------------------------------------
#
# Shell k (k = 0, 1, ...) of an order-n symmetric matrix is the Hankel
# matrix of order n-2k at offset k that matches the first row and last
# column of the residual left by shells 0..k-1; the ceil(n/2) shells sum to
# the matrix.  Each shell's Hankel parameters are linear in the packed
# parameters, which gives a second construction with n(n+1)/2 products.


def border_index(n):
    """Packed indices of the border of every shell, shell after shell, in
    Hankel parameter order: shell k's border is row k and column n-1-k, and
    its parameter q sits on anti-diagonal i + j = 2n-2-2k-q."""
    index = []
    for k in range((n + 1) // 2):
        for s in range(2 * n - 2 - 2 * k, 2 * k - 1, -1):
            i = max(k, s - (n - 1 - k))
            index.append(symmetric_pack_index(n, i, s - i))
    return np.array(index, dtype=np.intp)


def symmetric_shells(param, n):
    """Yield (k, Hankel parameters of shell k), peeled by values.

    The shells before shell k are Hankel, so their sum is constant along
    each anti-diagonal and equals the matrix on shell k-1's border, which
    the peel left zero.  So shell k is its border minus shell k-1's border
    on the same anti-diagonals.
    """
    borders = np.asarray(param, dtype=complex)[border_index(n)]
    previous = np.zeros(2 * n + 3, dtype=complex)
    start = 0
    for k in range((n + 1) // 2):
        border = borders[start:start + 2 * (n - 2 * k) - 1]
        yield k, border - previous[2:-2]
        previous, start = border, start + len(border)


def symmetric_shell_maps(n):
    """Dense (2(n-2k)-1, n(n+1)/2) matrices taking the packed parameters to
    each shell's Hankel parameters: the difference of two 0/1 selections,
    shell k's border and shell k-1's on the same anti-diagonals."""
    index = border_index(n)
    maps = []
    previous = np.empty(0, dtype=np.intp)
    start = 0
    for k in range((n + 1) // 2):
        length = 2 * (n - 2 * k) - 1
        border = index[start:start + length]
        shell_map = np.zeros((length, n * (n + 1) // 2))
        shell_map[np.arange(length), border] += 1
        shell_map[np.arange(len(previous)), previous] -= 1
        maps.append(shell_map)
        previous, start = border[2:-2], start + length
    return tuple(maps)
