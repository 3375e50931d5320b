import gc
import os
import re
import subprocess
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, kernels, multilevel, oracle
from structmv.operators import SMALL_DENSE, Compose, Dense, Kron, Select
from util import (
    SINGLE_LEVEL, SRC, check_prepared_block, gaussian, random_instance, rel_err,
)


def _bccb(a, b, c, d):
    return sm.MultilevelRep((
        sm.CirculantRep(2, [a, b]), sm.CirculantRep(2, [c, d])
    ))


def test_param_vector_outer_product():
    m = _bccb(1, 2, 3, 4)
    np.testing.assert_allclose(multilevel.param_vector(m), [3, 4, 6, 8])


def test_param_vector_single_level_unchanged():
    rep = sm.ToeplitzRep(3, [1, 2, 3, 4, 5])
    m = sm.MultilevelRep((rep,))
    np.testing.assert_array_equal(multilevel.param_vector(m), rep.param)


def test_param_vector_all_ones():
    m = sm.MultilevelRep((
        sm.CirculantRep(2, [1, 1]), sm.HankelRep(2, [1, 1, 1])
    ))
    np.testing.assert_allclose(multilevel.param_vector(m), np.ones(6))


def test_param_vector_length_is_product_of_param_dims():
    rng = np.random.default_rng(0)
    m = sm.MultilevelRep((
        random_instance("toeplitz_plus_hankel", 3, rng),
        random_instance("circulant", 2, rng),
    ))
    # raw parameter lengths multiply (4n-2 for Toeplitz-plus-Hankel), and
    # so do the multiplication counts (4n-3)
    raw = [len(kernels.single_level_params(level)) for level in m.levels]
    assert len(multilevel.param_vector(m)) == np.prod(raw) == 10 * 2
    assert multilevel.multilevel_program(m).d_param == 10 * 2
    assert sm.param_dim(m) == np.prod([sm.param_dim(level) for level in m.levels])
    assert sm.param_dim(m) == 9 * 2


def test_program_counts():
    assert multilevel.multilevel_program(_bccb(1, 2, 3, 4)).count == 4
    m = sm.MultilevelRep((
        sm.CirculantRep(2, [1, 2]),
        sm.ToeplitzRep(2, [1, 2, 3]),
        sm.SymmetricRep(2, [1, 2, 3]),
    ))
    assert multilevel.multilevel_program(m).count == 18


def test_toeplitz_head_count_multiplies_any_tail():
    rng = np.random.default_rng(1)
    for tail_structure in ("circulant", "symmetric", "sparse"):
        tail = random_instance(tail_structure, 3, rng)
        m = sm.MultilevelRep((sm.ToeplitzRep(3, gaussian(rng, 5)), tail))
        assert (multilevel.multilevel_program(m).count
                == 5 * sm.param_dim(tail))


def test_worked_two_level_example():
    m = _bccb(1, 2, 3, 4)
    out, count = multilevel.multilevel_matvec_direct(m, [1, 0, 0, 0])
    np.testing.assert_allclose(out, [3, 4, 6, 8], atol=1e-12)
    assert count == 4


def test_identity_levels_give_identity():
    m = sm.MultilevelRep((
        sm.CirculantRep(2, [1, 0]),
        sm.CirculantRep(3, [1, 0, 0]),
    ))
    rng = np.random.default_rng(2)
    v = gaussian(rng, 6)
    out, count = multilevel.multilevel_matvec_direct(m, v)
    assert rel_err(out, v) < 1e-12
    assert count == 6


def test_two_level_hankel():
    rng = np.random.default_rng(3)
    m = sm.MultilevelRep((
        sm.HankelRep(2, gaussian(rng, 3)), sm.HankelRep(2, gaussian(rng, 3))
    ))
    v = gaussian(rng, 4)
    want = oracle.naive_matvec(oracle.dense(m), v)
    out, count = multilevel.multilevel_matvec_direct(m, v)
    assert rel_err(out, want) < 1e-9
    assert count == 9


def test_intermediate_w_values_worked_example():
    w = multilevel.intermediate_w_values(_bccb(1, 2, 3, 4), [1, 0, 0, 0])
    np.testing.assert_allclose(w, [[21, -3], [-7, 1]], atol=1e-12)


def test_intermediate_w_values_zero_vector():
    w = multilevel.intermediate_w_values(_bccb(1, 2, 3, 4), np.zeros(4))
    np.testing.assert_array_equal(w, np.zeros((2, 2)))


def test_intermediate_w_values_closed_forms():
    rng = np.random.default_rng(4)
    for _ in range(10):
        a, b, c, d = gaussian(rng, 4)
        x, y, z, t = gaussian(rng, 4)
        w = multilevel.intermediate_w_values(_bccb(a, b, c, d), [x, y, z, t])
        want = np.array([
            [(a + b) * (c + d) * ((x + y) + (z + t)),
             (a + b) * (c - d) * ((x - y) + (z - t))],
            [(a - b) * (c + d) * ((x + y) - (z + t)),
             (a - b) * (c - d) * ((x - y) - (z - t))],
        ])
        assert rel_err(w, want) < 1e-10


def test_intermediate_w_values_swap_symmetry():
    # identical levels and a swap-symmetric vector leave w symmetric
    rng = np.random.default_rng(5)
    a = gaussian(rng, 2)
    x = gaussian(rng, 2)
    m = sm.MultilevelRep((sm.CirculantRep(2, a), sm.CirculantRep(2, a)))
    w = multilevel.intermediate_w_values(m, np.kron(x, x))
    assert rel_err(w, w.T) < 1e-12


def test_intermediate_w_values_inactive_head_row_is_exactly_zero():
    rng = np.random.default_rng(6)
    m = sm.MultilevelRep((sm.ToeplitzRep(3, gaussian(rng, 5)),
                          sm.CirculantRep(2, gaussian(rng, 2))))
    w = multilevel.intermediate_w_values(m, gaussian(rng, 6))
    assert w.shape == (6, 2)
    assert not kernels.toeplitz_program(3).active[0]
    np.testing.assert_array_equal(w[0], 0)
    assert np.all(w[1:] != 0)


def test_intermediate_w_values_needs_two_levels():
    with pytest.raises(ValueError):
        multilevel.intermediate_w_values(
            sm.MultilevelRep((sm.CirculantRep(2, [1, 2]),)), [1, 2]
        )


@pytest.mark.parametrize("v", [np.ones((4, 4)), np.ones((4, 3)), 1.0],
                         ids=["square-block", "block", "scalar"])
def test_intermediate_w_values_takes_only_a_vector(v):
    with pytest.raises(ValueError, match="expected a vector"):
        multilevel.intermediate_w_values(_bccb(1, 2, 3, 4), v)


def test_intermediate_w_values_words_a_length_mismatch_as_apply():
    m = _bccb(1, 2, 3, 4)
    with pytest.raises(ValueError) as want:
        bilinear.apply(multilevel.multilevel_program(m),
                       multilevel.param_vector(m), [1, 2, 3])
    with pytest.raises(ValueError) as got:
        multilevel.intermediate_w_values(m, [1, 2, 3])
    assert str(got.value) == str(want.value)


def test_direct_rejects_length_mismatch():
    with pytest.raises(ValueError):
        multilevel.multilevel_matvec_direct(_bccb(1, 2, 3, 4), [1, 2, 3])


@pytest.mark.parametrize("head", SINGLE_LEVEL)
@pytest.mark.parametrize("tail", SINGLE_LEVEL)
def test_all_head_tail_pairs_agree(head, tail):
    # 20 random instances per pair across the order grid
    rng = np.random.default_rng(
        SINGLE_LEVEL.index(head) * len(SINGLE_LEVEL) + SINGLE_LEVEL.index(tail))
    for n1, n2 in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        for _ in range(5):
            m = sm.MultilevelRep((
                random_instance(head, n1, rng), random_instance(tail, n2, rng)
            ))
            v = gaussian(rng, n1 * n2)
            want = oracle.naive_matvec(oracle.dense(m), v)
            program = multilevel.multilevel_program(m)
            got, count = bilinear.apply(program, multilevel.param_vector(m), v)
            direct, dcount = multilevel.multilevel_matvec_direct(m, v)
            assert rel_err(got, want) < 1e-9
            assert rel_err(direct, got) < 1e-12
            assert count == dcount == sm.param_dim(m)


@pytest.mark.parametrize("head", SINGLE_LEVEL)
def test_three_level_every_head(head):
    rng = np.random.default_rng(SINGLE_LEVEL.index(head))
    tails = [("toeplitz", "symmetric"), ("hankel", "circulant")]
    for names in tails:
        for orders in [(2, 2, 2), (3, 2, 2), (2, 3, 2)]:
            m = sm.MultilevelRep(tuple(
                random_instance(s, n, rng)
                for s, n in zip((head,) + names, orders)
            ))
            v = gaussian(rng, sm.order(m))
            want = oracle.naive_matvec(oracle.dense(m), v)
            got, count = bilinear.apply(
                multilevel.multilevel_program(m), multilevel.param_vector(m), v
            )
            direct, dcount = multilevel.multilevel_matvec_direct(m, v)
            assert rel_err(got, want) < 1e-9
            assert rel_err(direct, got) < 1e-12
            assert count == dcount == sm.param_dim(m)


def test_tph_level_uses_gauge_fixed_coordinates():
    rng = np.random.default_rng(7)
    # a dense parameter encoder at n = 2, a structured one at 17 and 64
    for n in (2, 17, 64):
        level = random_instance("toeplitz_plus_hankel", n, rng)
        p = kernels.single_level_program(level)
        params = kernels.single_level_params(level)
        assert p.d_param == len(params) == 4 * n - 2  # the raw parameters
        got, count = bilinear.apply(p, params, gaussian(rng, n))
        assert count == p.count == 4 * n - 3  # gauge-fixed coordinates
        # the slot coefficients depend on the gauge class only: shifting
        # the all-ones matrix between the components leaves every one
        # unchanged
        want = bilinear.coefficients(p, params)
        shift = complex(*rng.standard_normal(2))
        ones = np.ones(2 * n - 1)
        gauged = params + shift * np.concatenate([-ones, ones])
        np.testing.assert_allclose(bilinear.coefficients(p, gauged), want,
                                   rtol=0, atol=1e-12 * np.abs(want).max())


def test_tph_level_enters_on_raw_parameters():
    rng = np.random.default_rng(7)
    m = sm.MultilevelRep((random_instance("toeplitz_plus_hankel", 3, rng),
                          random_instance("circulant", 2, rng)))
    program = multilevel.multilevel_program(m)
    assert program.count == sm.param_dim(m) == 18
    assert bilinear.prune_check(program).match
    for at in range(3):
        names = ["hankel", "circulant"]
        names.insert(at, "toeplitz_plus_hankel")
        m = sm.MultilevelRep(tuple(random_instance(s, 2, rng) for s in names))
        v = gaussian(rng, sm.order(m))
        want = oracle.dense(m) @ v
        for got, count in (
            bilinear.apply(multilevel.multilevel_program(m),
                           multilevel.param_vector(m), v),
            multilevel.multilevel_matvec_direct(m, v),
        ):
            assert rel_err(got, want) < 1e-9
            assert count == sm.param_dim(m)


def test_single_level_multilevel_direct_matches_kernels():
    rng = np.random.default_rng(8)
    rep = random_instance("symmetric", 5, rng)
    v = gaussian(rng, 5)
    out, count = multilevel.multilevel_matvec_direct(
        sm.MultilevelRep((rep,)), v
    )
    want, wcount = kernels.direct_matvec(rep, v)
    np.testing.assert_array_equal(out, want)
    assert count == wcount == 15


def test_symmetric_head_sweep():
    rng = np.random.default_rng(12)
    for n_head in range(1, 7):
        for tail in (sm.CirculantRep(2, gaussian(rng, 2)),
                     sm.ToeplitzRep(3, gaussian(rng, 5)),
                     sm.HankelRep(2, gaussian(rng, 3))):
            m = sm.MultilevelRep((random_instance("symmetric", n_head, rng), tail))
            v = gaussian(rng, sm.order(m))
            got, count = multilevel.multilevel_matvec_direct(m, v)
            assert rel_err(got, oracle.dense(m) @ v) < 1e-9
            assert count == sm.param_dim(m)


def test_equal_sparse_tails_share_one_cache_entry():
    # two equal patterns that are distinct objects hash alike, once each
    support = ((0, 1), (2, 0), (2, 2))
    patterns = [sm.SparsityPattern(3, support), sm.SparsityPattern(3, list(support))]
    assert patterns[0] is not patterns[1]
    assert patterns[0] == patterns[1] and hash(patterns[0]) == hash(patterns[1])
    kernels.sparse_program.cache_clear()
    rng = np.random.default_rng(15)
    for pattern in patterns:
        m = sm.MultilevelRep((random_instance("circulant", 2, rng),
                              sm.SparseRep(pattern, gaussian(rng, 3))))
        v = gaussian(rng, sm.order(m))
        got, count = multilevel.multilevel_matvec_direct(m, v)
        assert rel_err(got, oracle.dense(m) @ v) < 1e-9
        assert count == sm.param_dim(m)
    # the second matrix finds the sparse level program of the first
    info = kernels.sparse_program.cache_info()
    assert (info.misses, info.currsize) == (1, 1)


@pytest.mark.parametrize("support", [(), ((1, 2), (0, 0), (1, 0), (1, 1))],
                         ids=["empty", "repeated-row"])
def test_sparse_edge_supports_as_every_level(support):
    # a single level, a head over each structure, and a tail under each
    rng = np.random.default_rng(len(support))
    nnz = len(support)

    def sparse():
        return sm.SparseRep(sm.SparsityPattern(3, support), gaussian(rng, nnz))

    cases = [((sparse(),), 1)]
    for other in SINGLE_LEVEL:
        level = random_instance(other, 2, rng)
        cases.append(((sparse(), level), sm.param_dim(level)))
        cases.append(((level, sparse()), sm.param_dim(level)))
    for levels, tail_count in cases:
        m = sm.MultilevelRep(levels)
        v = gaussian(rng, sm.order(m))
        got, count = multilevel.multilevel_matvec_direct(m, v)
        assert rel_err(got, oracle.dense(m) @ v) < 1e-9
        assert count == nnz * tail_count == sm.param_dim(m)


def test_direct_tail_stays_matrix_free():
    # the tail T32 (x) H32 once took 752 MB as a dense program
    rng = np.random.default_rng(14)
    m = sm.MultilevelRep((random_instance("circulant", 16, rng),
                          random_instance("toeplitz", 32, rng),
                          random_instance("hankel", 32, rng)))
    v = gaussian(rng, sm.order(m))
    for build in (kernels.circulant_program, kernels.toeplitz_program,
                  kernels.hankel_program):
        build.cache_clear()
    tracemalloc.start()
    try:
        got, count = multilevel.multilevel_matvec_direct(m, v)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the product prepared m, and its coefficients are still held
    r = multilevel.multilevel_program(m).r
    assert 16 * r == multilevel.prepare(m).coef.nbytes <= held
    assert peak < 32 * 2**20
    want, wcount = bilinear.apply(multilevel.multilevel_program(m),
                                  multilevel.param_vector(m), v)
    assert rel_err(got, want) < 1e-12
    assert count == wcount == sm.param_dim(m)


def test_prepare_holds_its_coefficients_once():
    # Prepared takes the coefficient array that prepare builds, with no copy
    rng = np.random.default_rng(16)

    def c32_t32_h32():
        return sm.MultilevelRep((random_instance("circulant", 32, rng),
                                 random_instance("toeplitz", 32, rng),
                                 random_instance("hankel", 32, rng)))

    multilevel.prepare(c32_t32_h32())  # the programs are built and warm
    m = c32_t32_h32()
    tracemalloc.start()
    try:
        coef = multilevel.prepare(m).coef
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert coef.nbytes == 16 * multilevel.multilevel_program(m).r
    assert peak < 1.5 * coef.nbytes


def test_each_map_is_one_kron_with_a_factor_per_level():
    rng = np.random.default_rng(15)
    m = sm.MultilevelRep(tuple(random_instance("circulant", n, rng)
                               for n in (8, 8, 8, 2)))
    program = multilevel.multilevel_program(m)
    for op in (program.enc_param, program.enc_vec, program.dec):
        # no product of some of the levels is kept as one dense factor
        assert isinstance(op, Kron) and len(op.factors) == 4
        assert max(f.shape[0] * f.shape[1] for f in op.factors) <= 64
    # a whole map of at most SMALL_DENSE entries stays dense
    small = multilevel.multilevel_program(sm.MultilevelRep(
        tuple(random_instance("circulant", 4, rng) for _ in range(2))))
    for op in (small.enc_param, small.enc_vec, small.dec):
        assert isinstance(op, Dense)


@pytest.mark.parametrize("head", SINGLE_LEVEL)
@pytest.mark.parametrize("tail", SINGLE_LEVEL)
def test_direct_route_runs_the_multilevel_program(head, tail):
    rng = np.random.default_rng(
        SINGLE_LEVEL.index(head) * len(SINGLE_LEVEL) + SINGLE_LEVEL.index(tail) + 60)
    for levels in ([(head, 2), (tail, 3)], [(head, 3), (tail, 2), (head, 2)]):
        m = sm.MultilevelRep(tuple(random_instance(s, n, rng) for s, n in levels))
        program = multilevel.multilevel_program(m)
        prepared = multilevel.prepare(m).program
        assert prepared.r == program.r
        np.testing.assert_array_equal(prepared.active, program.active)
        v = gaussian(rng, sm.order(m))
        got, count = bilinear.apply(program, multilevel.param_vector(m), v)
        direct, dcount = multilevel.multilevel_matvec_direct(m, v)
        assert rel_err(direct, got) < 1e-12
        assert count == dcount == sm.param_dim(m)


@pytest.mark.parametrize("head", SINGLE_LEVEL)
def test_prepared_block_every_head(head):
    rng = np.random.default_rng(SINGLE_LEVEL.index(head) + 40)
    for tail in SINGLE_LEVEL:
        for levels in ([(head, 2), (tail, 3)], [(head, 3), (tail, 2), ("toeplitz", 2)]):
            m = sm.MultilevelRep(tuple(random_instance(s, n, rng) for s, n in levels))
            check_prepared_block(m, gaussian(rng, (sm.order(m), 3)))


def test_prepare_encodes_a_multilevel_matrix_once(monkeypatch):
    calls = []
    real = multilevel._encode

    def counting(m):
        calls.append(len(m.levels))  # not m itself, which must be freed
        return real(m)

    monkeypatch.setattr(multilevel, "_encode", counting)
    rng = np.random.default_rng(41)
    m = sm.MultilevelRep((random_instance("toeplitz", 3, rng),
                          random_instance("sparse", 2, rng),
                          random_instance("hankel", 2, rng)))
    assert sm.prepare(m) is sm.prepare(m)
    for _ in range(2):
        multilevel.multilevel_matvec_direct(m, gaussian(rng, 12))
    assert calls == [3]
    coef = sm.prepare(m).coef
    assert coef.shape == (multilevel.multilevel_program(m).r,)
    assert not coef.flags.writeable
    ref = weakref.ref(m)
    del m
    gc.collect()
    assert ref() is None


def test_direct_product_frees_its_levels():
    # no cache keeps a level, or its prepared memo, past its matrix
    rng = np.random.default_rng(42)
    m = sm.MultilevelRep((random_instance("circulant", 4, rng),
                          random_instance("toeplitz", 64, rng)))
    multilevel.multilevel_matvec_direct(m, gaussian(rng, sm.order(m)))
    ref = weakref.ref(m.levels[1])
    del m
    gc.collect()
    assert ref() is None


_SMALL_LEVELS = """
import sys

import numpy as np

import structmv as sm
from structmv import multilevel

rng = np.random.default_rng(0)


def t(n):
    return sm.ToeplitzRep(n, rng.standard_normal(2 * n - 1))


def h(n):
    return sm.HankelRep(n, rng.standard_normal(2 * n - 1))


for levels in [(sm.ToeplitzPlusHankelRep(t(8), h(8)), t(8)),
               (t(16), sm.CirculantRep(16, rng.standard_normal(16)), h(4))]:
    m = sm.MultilevelRep(levels)
    v = rng.standard_normal(sm.order(m))
    program = sm.apply(multilevel.multilevel_program(m),
                       multilevel.param_vector(m), v)[0]
    direct = sm.prepare(m).apply(v)[0]
    assert np.abs(program - direct).max() <= 1e-12 * np.abs(direct).max()
assert "numpy.fft" not in sys.modules, "numpy.fft was imported"
"""


def test_small_levels_never_import_numpy_fft():
    # every map of these levels is a small dense matrix, so building,
    # preparing and applying them must not load numpy.fft, which numpy
    # imports lazily at a cost of about 2 ms
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", _SMALL_LEVELS], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


# the matrices of the kron benchmark workload; each sparse level has a
# quarter of its entries in its support
KRON_SHAPES = ("C32xC32", "T16xT16", "H16xH16", "T16xC16xH4", "C8xC8xC8xC2",
               "S8xT16", "Sp16xC16", "TpH8xT8", "T8xC8xH4", "C4xC4xC4xC2",
               "S4xT8", "TpH4xSp8")
TAGS = {"C": "circulant", "T": "toeplitz", "H": "hankel", "S": "symmetric",
        "TpH": "toeplitz_plus_hankel", "Sp": "sparse"}


def _size(op):
    return op.shape[0] * op.shape[1]


def _parts(op):
    """``op`` and every operator inside it."""
    yield op
    inner = op.ops if isinstance(op, Compose) else (
        op.factors if isinstance(op, Kron) else ())
    for part in inner:
        yield from _parts(part)


def test_no_stored_map_holds_a_large_dense_matrix():
    # program maps are structured operators: a dense matrix anywhere in a
    # map holds at most SMALL_DENSE entries, so no map grows as O(n^2)
    rng = np.random.default_rng(17)
    matrices = [random_instance(s, n, rng, density=0.25)
                for s in SINGLE_LEVEL for n in (1, 17, 64, 512)
                if s != "symmetric" or n <= 64]
    for shape in KRON_SHAPES:
        levels = [re.fullmatch(r"(\D+)(\d+)", part).groups()
                  for part in shape.split("x")]
        matrices.append(sm.MultilevelRep(tuple(
            random_instance(TAGS[tag], int(n), rng, density=0.25)
            for tag, n in levels)))
    for m in matrices:
        program = multilevel.multilevel_program(m)
        for op in (program.enc_param, program.enc_vec, program.dec):
            for part in _parts(op):
                if isinstance(part, Dense):
                    assert part.matrix.size <= SMALL_DENSE, (m, part.shape)
                # a small index map that is not a gather is stored dense
                if isinstance(part, Select) and _size(part) <= SMALL_DENSE:
                    assert part.is_gather, (m, part.shape)
            # the one storage rule: a small map is stored dense unless it is
            # a gather or a product through a larger operator
            if _size(op) <= SMALL_DENSE:
                assert (isinstance(op, Dense)
                        or isinstance(op, Select) and op.is_gather
                        or isinstance(op, Compose)
                        and max(map(_size, op.ops)) > SMALL_DENSE), (m, op)
