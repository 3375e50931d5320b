"""Seeded randomized cross-checks of the program route against the direct
route, the dense oracle, the closed-form count and a dense prune check,
on single vectors and on blocks of vectors."""

import tracemalloc

import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, cli, kernels, multilevel, oracle
from util import SINGLE_LEVEL, check_prepared_block, gaussian, random_instance, rel_err


def _dense_prune(program):
    """The active mask measured on the dense enc_param: a row is active
    when its largest entry is above PRUNE_RTOL times the largest entry."""
    mags = np.abs(program.enc_param.to_dense())
    return mags.max(axis=1) > bilinear.PRUNE_RTOL * mags.max()


def _cross_check(m, rng):
    v = gaussian(rng, sm.order(m))
    program = multilevel.multilevel_program(m)
    got, count = bilinear.apply(program, multilevel.param_vector(m), v)
    direct, dcount = sm.prepare(m).apply(v)
    assert rel_err(got, direct) < 1e-12
    assert rel_err(got, oracle.dense(m) @ v) < 1e-9
    assert count == dcount == sm.param_dim(m)
    report = bilinear.prune_check(program)
    if program.r:
        numeric = _dense_prune(program)
        assert report.measured == int(numeric.sum())
        assert report.match == bool(np.array_equal(numeric, program.active))
    assert report.match and report.measured == count
    # a block of three from its own generator, so the sweep's draws stay as
    # they are
    n = sm.order(m)
    check_prepared_block(m, gaussian(np.random.default_rng(n), (n, 3)))


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_single_level_sweep(structure):
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 100)
    for n in range(1, 9):
        for _ in range(3):
            _cross_check(random_instance(structure, n, rng), rng)


def test_multilevel_sweep():
    rng = np.random.default_rng(200)
    top = {1: 8, 2: 5, 3: 3}  # largest level order per number of levels
    for _ in range(90):
        depth = int(rng.integers(1, 4))
        levels = tuple(
            random_instance(SINGLE_LEVEL[rng.integers(len(SINGLE_LEVEL))],
                            int(rng.integers(1, top[depth] + 1)), rng)
            for _ in range(depth)
        )
        _cross_check(sm.MultilevelRep(levels), rng)


def test_large_sparse_builds_and_multiplies():
    # about 5,112 entries, whose nnz x nnz dense identity took 479 MiB
    rng = np.random.default_rng(300)
    m = cli.gen_matrix("sparse", 512, rng, density=5112 / 512**2)
    assert abs(len(m.pattern.support) - 5112) < 300
    tracemalloc.start()
    program = kernels.sparse_program(m.pattern)
    held = tracemalloc.get_traced_memory()[0]
    tracemalloc.stop()
    assert held < 2**20 * 4
    v = gaussian(rng, 512)
    got, count = bilinear.apply(program, m.values, v)
    direct, dcount = kernels.direct_matvec(m, v)
    assert rel_err(got, direct) < 1e-12
    assert rel_err(got, oracle.dense(m) @ v) < 1e-9
    assert count == dcount == len(m.pattern.support)
    assert bilinear.prune_check(program).match
