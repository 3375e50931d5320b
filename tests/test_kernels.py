import gc
import itertools
import weakref

import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, kernels, multilevel, operators, oracle, transform
from util import (
    SINGLE_LEVEL,
    check_prepared_block,
    gaussian,
    random_instance,
    rel_err,
    symmetric_shell_maps,
    symmetric_shells,
    toeplitz_with_free_entry,
    tph_shift_row,
)


# ---------------------------------------------------------------------------
# circulant
# ---------------------------------------------------------------------------

def test_circulant_identity_matrix():
    out, count = bilinear.apply(
        kernels.circulant_program(3), [1, 0, 0], [5, 6, 7]
    )
    np.testing.assert_allclose(out, [5, 6, 7], atol=1e-12)
    assert count == 3


def test_circulant_shift_matrix():
    out, _ = bilinear.apply(
        kernels.circulant_program(4), [0, 1, 0, 0], [1, 2, 3, 4]
    )
    np.testing.assert_allclose(out, [2, 3, 4, 1], atol=1e-12)


def test_circulant_count_is_n():
    for n in range(1, 17):
        assert kernels.circulant_program(n).count == n


# ---------------------------------------------------------------------------
# toeplitz
# ---------------------------------------------------------------------------

def test_toeplitz_examples():
    out, _ = bilinear.apply(kernels.toeplitz_program(2), [0, 1, 0], [3, 4])
    np.testing.assert_allclose(out, [3, 4], atol=1e-12)
    # parameters (1,2,3) give the matrix [[2,3],[1,2]]
    out, _ = bilinear.apply(kernels.toeplitz_program(2), [1, 2, 3], [1, 1])
    np.testing.assert_allclose(out, [5, 3], atol=1e-12)


def test_toeplitz_count_is_2n_minus_1():
    for n in range(1, 17):
        assert kernels.toeplitz_program(n).count == 2 * n - 1


def test_toeplitz_vector_maps_are_single_windowed_transforms():
    # the zero-pad and the first-n selection are the transforms' windows
    program = kernels.toeplitz_program(64)
    for op, window in [(program.enc_vec, (128, 64)), (program.dec, (64, 128))]:
        assert type(op) is operators.Fourier
        assert op.n == 128 and op.shape == window


def test_fft_flip_identity():
    # J F_n W = F_n W P D, and P D W = W Q with Q the gather q -> (n+1-q)
    # mod 2n; tph_program's Hankel rows, d_k times the transform of E h,
    # equal the transform of Q E J h
    for n in (1, 2, 3, 4, 7, 16):
        w = transform.fourier_matrix(2 * n)
        k = np.arange(2 * n)
        p = np.eye(2 * n)[-k % (2 * n)]
        d = np.diag(np.exp(1j * np.pi * (n - 1) * k / n))
        np.testing.assert_allclose(w[:n][::-1], w[:n] @ p @ d, atol=1e-12)
        q = np.eye(2 * n)[(n + 1 - np.arange(2 * n)) % (2 * n)]
        np.testing.assert_allclose(p @ d @ w, w @ q, atol=1e-12)
        emb = kernels.toeplitz_embedding(n).op.to_dense()
        hankel = kernels.tph_program(n).enc_param.to_dense()[:2 * n]
        m = 2 * n - 1
        alpha = np.concatenate([tph_shift_row(n), np.zeros(m)])
        shifted = np.hstack([np.zeros((m, m)), np.eye(m)]) + alpha
        np.testing.assert_allclose(
            hankel, w @ q @ emb[:, ::-1] @ shifted, atol=1e-12)


def test_embed_applies_embedding_matrix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 31):
        emb = kernels.toeplitz_embedding(n)
        param = gaussian(rng, 2 * n - 1)
        want = emb.op.to_dense() @ param
        np.testing.assert_allclose(emb.embed(param), want, rtol=0, atol=1e-12)


def test_embed_rejects_wrong_length():
    with pytest.raises(ValueError):
        kernels.toeplitz_embedding(3).embed(np.ones(4))


def test_embedding_first_row_sums_to_zero():
    rng = np.random.default_rng(0)
    for n in (1, 2, 5, 9):
        emb = kernels.toeplitz_embedding(n)
        param = gaussian(rng, 2 * n - 1)
        c = emb.embed(param)
        assert len(c) == 2 * n
        assert abs(c.sum()) <= 1e-12 * np.abs(c).sum()


def test_toeplitz_output_independent_of_b():
    rng = np.random.default_rng(1)
    for n in range(1, 17):
        rep = sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1))
        v = gaussian(rng, n)
        default, _ = kernels.direct_matvec(rep, v)
        zero_b = toeplitz_with_free_entry(rep, v, 0.0)
        assert rel_err(zero_b, default) < 1e-9


# ---------------------------------------------------------------------------
# hankel
# ---------------------------------------------------------------------------

def test_hankel_examples():
    out, _ = bilinear.apply(kernels.hankel_program(2), [0, 1, 0], [5, 7])
    np.testing.assert_allclose(out, [7, 5], atol=1e-12)
    # parameters (1,2,3) give the matrix [[3,2],[2,1]]
    out, _ = bilinear.apply(kernels.hankel_program(2), [1, 2, 3], [1, 0])
    np.testing.assert_allclose(out, [3, 2], atol=1e-12)


def test_hankel_count_is_2n_minus_1():
    for n in range(1, 17):
        assert kernels.hankel_program(n).count == 2 * n - 1


def test_hankel_is_toeplitz_times_the_exchange():
    # H_h = T_h J: a Hankel matrix has the coefficients of the Toeplitz
    # matrix with the same parameters, and its vector encoder is Toeplitz's
    # with the columns reversed
    rng = np.random.default_rng(2)
    for n in (1, 3, 6, 33, 45, 46, 64, 512):
        h = gaussian(rng, 2 * n - 1)
        v = gaussian(rng, n)
        hankel, toeplitz = sm.HankelRep(n, h), sm.ToeplitzRep(n, h)
        np.testing.assert_array_equal(sm.prepare(hankel).coef,
                                      sm.prepare(toeplitz).coef)
        np.testing.assert_array_equal(
            kernels.hankel_program(n).enc_vec.to_dense(),
            kernels.toeplitz_program(n).enc_vec.to_dense()[:, ::-1])
        got, _ = kernels.direct_matvec(hankel, v)
        want, _ = kernels.direct_matvec(toeplitz, v[::-1])
        if n >= 46:
            np.testing.assert_array_equal(got, want)
        else:
            # the vector encoder is one dense matrix, F J, whose rows sum
            # the input in another order than F's rows sum J v
            assert rel_err(got, want) < 1e-12


@pytest.mark.parametrize("n", [32, 33, 45, 46, 64, 512])
def test_hankel_above_the_dense_threshold(n):
    # the parameter encoder and the decoder are the Toeplitz program's own;
    # from n = 46 the vector encoder is the Toeplitz transform after a
    # reversal gather, and below it is stored as one dense matrix
    rng = np.random.default_rng(n)
    m = random_instance("hankel", n, rng)
    program, tp = kernels.hankel_program(n), kernels.toeplitz_program(n)
    assert program.enc_param is tp.enc_param and program.dec is tp.dec
    assert isinstance(program.enc_vec, operators.Dense) == (n <= 45)
    if n > 45:
        fourier, reversal = program.enc_vec.ops
        assert isinstance(fourier, operators.Fourier) and fourier is tp.enc_vec
        assert isinstance(reversal, operators.Select) and reversal.is_gather
        np.testing.assert_array_equal(reversal.cols, np.arange(n)[::-1])
    params = kernels.single_level_params(m)
    v = gaussian(rng, (n, 3))
    dense = oracle.dense(m)
    for block in (v[:, 0], v):
        got, count = bilinear.apply(program, params, block)
        direct, dcount = kernels.direct_matvec(m, block)
        assert rel_err(got, dense @ block) < 1e-9
        assert rel_err(direct, dense @ block) < 1e-9
        assert rel_err(got, direct) < 1e-12
        assert count == dcount == (2 * n - 1) * (1 if block.ndim == 1 else 3)
    report = bilinear.prune_check(program)
    assert report.match and report.measured == program.count == 2 * n - 1


# ---------------------------------------------------------------------------
# symmetric
# ---------------------------------------------------------------------------

def test_symmetric_examples():
    # identity of order 3 packs as (1,0,0,1,0,1)
    out, count = bilinear.apply(
        kernels.symmetric_program(3), [1, 0, 0, 1, 0, 1], [4, 5, 6]
    )
    np.testing.assert_allclose(out, [4, 5, 6], atol=1e-12)
    assert count == 6
    out, _ = bilinear.apply(kernels.symmetric_program(2), [1, 2, 3], [1, 0])
    np.testing.assert_allclose(out, [1, 2], atol=1e-12)


def test_symmetric_count_is_triangular():
    for n in range(1, 17):
        assert kernels.symmetric_program(n).count == n * (n + 1) // 2
    assert kernels.symmetric_program(3).count == 6
    assert kernels.symmetric_program(4).count == 10


def test_symmetric_program_slots_all_active():
    p = kernels.symmetric_program(5)
    assert p.r == p.count == 15


def test_symmetric_shells_reconstruct_matrix():
    rng = np.random.default_rng(3)
    for n in range(1, 11):
        rep = sm.SymmetricRep(n, gaussian(rng, n * (n + 1) // 2))
        want = oracle.dense(rep)
        total = np.zeros((n, n), dtype=complex)
        for k, shell_map in enumerate(symmetric_shell_maps(n)):
            nk = n - 2 * k
            h = shell_map @ rep.param
            total[k:k + nk, k:k + nk] += oracle.dense(sm.HankelRep(nk, h))
        assert np.abs(total - want).max() <= 1e-12 * np.abs(want).max()


def _border_hankel_params(mat):
    """Hankel parameters matching a square matrix's first row and last
    column."""
    nk = mat.shape[0]
    h = np.empty(2 * nk - 1, dtype=complex)
    h[:nk] = mat[::-1, nk - 1]
    h[nk - 1:] = mat[0, ::-1]
    return h


def test_symmetric_residual_borders_vanish():
    # peeling by values (the direct path) zeroes the border exactly; the
    # linear-map route agrees to roundoff
    rng = np.random.default_rng(4)
    n = 7
    rep = sm.SymmetricRep(n, gaussian(rng, n * (n + 1) // 2))
    residual = oracle.dense(rep)
    scale = np.abs(residual).max()
    for k, shell_map in enumerate(symmetric_shell_maps(n)):
        nk = n - 2 * k
        exact = _border_hankel_params(residual)
        mapped = shell_map @ rep.param
        assert np.abs(mapped - exact).max() <= 1e-12 * scale
        peeled = residual - oracle.dense(sm.HankelRep(nk, exact))
        assert np.abs(peeled[0, :]).max() == 0
        assert np.abs(peeled[-1, :]).max() == 0
        assert np.abs(peeled[:, 0]).max() == 0
        assert np.abs(peeled[:, -1]).max() == 0
        residual = peeled[1:-1, 1:-1]


def test_direct_symmetric_identity():
    rep = sm.SymmetricRep(4, [1, 0, 0, 0, 1, 0, 0, 1, 0, 1])
    v = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_allclose(kernels.direct_matvec(rep, v)[0], v,
                               atol=1e-12)


def test_symmetric_maps_are_signed_selections():
    for n in range(1, 21):
        p = kernels.symmetric_program(n)
        for op in (p.enc_param, p.enc_vec, p.dec):
            assert set(np.unique(op.to_dense())) <= {0, 1, -1}


def test_symmetric_count_and_prune_check():
    for n in range(1, 41):
        p = kernels.symmetric_program(n)
        report = bilinear.prune_check(p)
        assert p.r == p.count == n * (n + 1) // 2
        assert report.match and report.measured == p.count


def test_symmetric_small_maps_are_dense():
    # index maps of at most SMALL_DENSE entries apply as one matrix product
    for n, kind in ((8, operators.Dense), (64, operators.Select)):
        p = kernels.symmetric_program(n)
        for op in (p.enc_param, p.enc_vec, p.dec):
            assert isinstance(op, kind)


@pytest.mark.parametrize("first", [True, False], ids=["S_n-T8", "T8-S_n"])
def test_symmetric_kron_with_toeplitz(first):
    rng = np.random.default_rng(20 + first)
    for n in (1, 2, 3, 5, 8, 11):
        s = random_instance("symmetric", n, rng)
        t = random_instance("toeplitz", 8, rng)
        m = sm.MultilevelRep((s, t) if first else (t, s))
        v = gaussian(rng, sm.order(m))
        want = oracle.dense(m) @ v
        program = multilevel.multilevel_program(m)
        got, count = bilinear.apply(program, multilevel.param_vector(m), v)
        assert rel_err(got, want) < 1e-9
        assert count == program.count == sm.param_dim(m)
        got, count = multilevel.multilevel_matvec_direct(m, v)
        assert rel_err(got, want) < 1e-9
        assert count == sm.param_dim(m)


# ---------------------------------------------------------------------------
# toeplitz plus hankel
# ---------------------------------------------------------------------------

def _tph(t, h, n):
    return sm.ToeplitzPlusHankelRep(
        toeplitz=sm.ToeplitzRep(n, t), hankel=sm.HankelRep(n, h)
    )


def test_tph_examples():
    rep = _tph([0, 1, 0], [0, 0, 0], 2)  # identity Toeplitz, zero Hankel
    out, _ = kernels.direct_matvec(rep, [3, 4])
    np.testing.assert_allclose(out, [3, 4], atol=1e-12)
    rep = _tph([1, 2, 3], [1, 2, 3], 2)  # X = [[5,5],[3,3]]
    out, count = kernels.direct_matvec(rep, [1, 1])
    np.testing.assert_allclose(out, [10, 6], atol=1e-12)
    assert count == 5


def test_tph_count_is_4n_minus_3():
    for n in range(2, 13):
        assert kernels.tph_program(n).count == 4 * n - 3
    assert kernels.tph_program(1).count == 1


def test_tph_shifted_embedding_loses_two_frequencies():
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8):
        t = gaussian(rng, 2 * n - 1)
        shift = tph_shift_row(n) @ t
        coeffs = transform.dft(kernels.toeplitz_embedding(n).embed(t - shift))
        scale = np.abs(t).max()
        assert abs(coeffs[0]) <= 1e-9 * scale
        assert abs(coeffs[1]) <= 1e-9 * scale


def test_tph_gauge_shift_is_a_slot_index_map():
    # with X = W E t and Y = W Q E J h, slot k != 0 of the Toeplitz branch
    # is X_k + (-1)^k X_1 and of the Hankel branch Y_k - w^k X_1
    rng = np.random.default_rng(4)
    for n in list(range(1, 18)) + [33, 64]:
        m, k = 2 * n - 1, np.arange(2 * n)
        w = transform.fourier_matrix(2 * n)
        emb = kernels.toeplitz_embedding(n).op.to_dense()
        q = np.eye(2 * n)[(n + 1 - k) % (2 * n)]
        t, h = gaussian(rng, m), gaussian(rng, m)
        x, y = w @ emb @ t, w @ q @ emb @ h[::-1]
        coef = kernels.tph_program(n).enc_param @ np.concatenate([t, h])
        want = np.concatenate([y - w[1] * x[1], x + (-1.0) ** k * x[1]])
        want[[0, 2 * n]] = y[0], x[0]
        np.testing.assert_allclose(coef, want, rtol=0,
                                   atol=1e-12 * np.abs(want).max())
        assert coef[2 * n + 1] == 0


def _toeplitz_program_of_order(n, N):
    """A Toeplitz program over an order-N circulant, N >= 2n - 1: its first
    row is the matrix's first row, then b = -sum(t), then N - 2n zeros,
    then the matrix's first column from the bottom up."""
    i = np.arange(n)
    emb = np.zeros((N, 2 * n - 1))
    emb[i, sm.ToeplitzRep.entry(n, 0, i)] = 1
    emb[N - n + i[1:], sm.ToeplitzRep.entry(n, i[:0:-1], 0)] = 1
    emb[n] -= 1
    return bilinear.BilinearProgram(
        enc_param=transform.fourier_matrix(N) @ emb,
        enc_vec=operators.Fourier(N, conj=True, cols=n),
        dec=operators.Fourier(N, scale=1 / N, rows=n),
        active=np.arange(N) != 0,
    )


@pytest.mark.parametrize("n, N", [(5, 12), (33, 70), (40, 100)])
def test_tph_reads_the_toeplitz_transform_order(monkeypatch, n, N):
    # the Toeplitz-plus-Hankel builder takes the transform order, the slots
    # and the gains from the Toeplitz program, so it runs on one of any order
    tp = _toeplitz_program_of_order(n, N)
    monkeypatch.setattr(kernels, "toeplitz_program", lambda order: tp)
    kernels.tph_program.cache_clear()
    try:
        program = kernels.tph_program(n)
    finally:
        kernels.tph_program.cache_clear()
    rng = np.random.default_rng(N)
    m = random_instance("toeplitz_plus_hankel", n, rng)
    params, v = m.params, gaussian(rng, n)
    got, count = bilinear.apply(program, params, v)
    assert rel_err(got, oracle.dense(m) @ v) < 1e-9
    assert program.r == 2 * N and count == 2 * (N - 1) - 1
    report = bilinear.prune_check(program)
    assert report.match and report.measured == count
    assert (program.enc_param @ params)[N + 1] == 0


def test_tph_gauge_shift_preserves_sum():
    rng = np.random.default_rng(6)
    n = 4
    t = gaussian(rng, 2 * n - 1)
    h = gaussian(rng, 2 * n - 1)
    shift = tph_shift_row(n) @ t
    before = oracle.dense(_tph(t, h, n))
    after = oracle.dense(_tph(t - shift, h + shift, n))
    assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()


def test_direct_tph_cancelling_components_give_zero():
    rng = np.random.default_rng(7)
    n = 3
    t = gaussian(rng, 2 * n - 1)
    # the Hankel that equals -T entrywise: h[2n-2-i-j] = -t[j-i+n-1]
    # only exists when T is itself Hankel-shaped; use constant diagonals
    t0 = np.full(2 * n - 1, t[0])
    rep = _tph(t0, -t0[::-1], n)
    assert np.abs(oracle.dense(rep)).max() < 1e-12 * abs(t[0])
    out, _ = kernels.direct_matvec(rep, gaussian(rng, n))
    assert np.abs(out).max() < 1e-9 * abs(t[0])


@pytest.mark.parametrize("n", [17, 31, 33, 64, 512])
def test_tph_encodes_with_the_toeplitz_encoder(n):
    # the parameter encoder is the slot shift after the Toeplitz program's
    # own encoder on each component, h into the Hankel slots and t into the
    # Toeplitz slots: no embedding or transform of its own
    tp = kernels.toeplitz_program(n)
    ops = kernels.tph_program(n).enc_param.ops
    assert len(ops) == 2 and isinstance(ops[1], operators.Kron)
    assert ops[1].factors[1] is tp.enc_param
    rng = np.random.default_rng(n)
    t, h = gaussian(rng, 2 * n - 1), gaussian(rng, 2 * n - 1)
    got = ops[1] @ np.concatenate([t, h])
    want = np.concatenate([tp.enc_param @ h, tp.enc_param @ t])
    if isinstance(tp.enc_param, operators.Dense):
        # up to n = 32 the Toeplitz encoder is a stored matrix, which the
        # Kronecker product multiplies by both components in one product,
        # summing in another order than one matrix-vector product
        np.testing.assert_allclose(got, want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("n", [16, 17, 31, 64, 512])
def test_tph_above_the_dense_threshold(n):
    # from n = 17 the parameter encoder is the slot shift after the
    # Toeplitz encoder on each component, not one dense matrix
    rng = np.random.default_rng(n)
    m = random_instance("toeplitz_plus_hankel", n, rng)
    program = kernels.tph_program(n)
    assert isinstance(program.enc_param, operators.Dense) == (n <= 16)
    params = kernels.single_level_params(m)
    v = gaussian(rng, (n, 3))
    dense = oracle.dense(m)
    for block in (v[:, 0], v):
        got, count = bilinear.apply(program, params, block)
        direct, dcount = kernels.direct_matvec(m, block)
        assert rel_err(got, dense @ block) < 1e-9
        assert rel_err(direct, dense @ block) < 1e-9
        np.testing.assert_array_equal(got, direct)
        assert count == dcount == (4 * n - 3) * (1 if block.ndim == 1 else 3)
    report = bilinear.prune_check(program)
    assert report.match and report.measured == program.count == 4 * n - 3


@pytest.mark.parametrize("structure", ["hankel", "toeplitz_plus_hankel"])
@pytest.mark.parametrize("n", [512, 1024])
def test_hankel_phases_keep_full_accuracy(structure, n):
    # the Hankel slot weights d_k are roots of unity formed from angles
    # below 2 pi; from the unreduced angle pi (n-1) k / n they lose about
    # two digits, which the 1e-9 gate would not see
    rng = np.random.default_rng(n + 7)
    m = random_instance(structure, n, rng)
    v = gaussian(rng, n)
    want = oracle.dense(m) @ v
    program = kernels.single_level_program(m)
    got, _ = bilinear.apply(program, kernels.single_level_params(m), v)
    assert rel_err(got, want) < 1e-14
    assert rel_err(kernels.direct_matvec(m, v)[0], want) < 1e-14


# ---------------------------------------------------------------------------
# sparse
# ---------------------------------------------------------------------------

def test_sparse_diagonal():
    pattern = sm.SparsityPattern(3, ((0, 0), (1, 1), (2, 2)))
    out, count = bilinear.apply(
        kernels.sparse_program(pattern), [2, 3, 4], [1, 1, 1]
    )
    np.testing.assert_allclose(out, [2, 3, 4])
    assert count == 3


def test_sparse_upper_triangular():
    pattern = sm.SparsityPattern(2, ((0, 0), (0, 1), (1, 1)))
    out, count = bilinear.apply(
        kernels.sparse_program(pattern), [1, 2, 3], [1, 1]
    )
    np.testing.assert_allclose(out, [3, 3])
    assert count == 3


def test_sparse_empty_support():
    pattern = sm.SparsityPattern(4, ())
    out, count = bilinear.apply(kernels.sparse_program(pattern), [], [1, 2, 3, 4])
    np.testing.assert_array_equal(out, np.zeros(4))
    assert count == 0
    rep = sm.SparseRep(pattern, [])
    direct, dcount = kernels.direct_matvec(rep, [1, 2, 3, 4])
    np.testing.assert_array_equal(direct, np.zeros(4))
    assert dcount == 0


def test_sparse_read_only_values_and_vector():
    # the parameter encoder is an identity gather, which copies: the slot
    # stage writes into its coefficients and never into the values
    rng = np.random.default_rng(13)
    support = tuple((i, (3 * i + k) % 40) for i in range(40) for k in range(4))
    values = gaussian(rng, len(support))
    values.setflags(write=False)
    m = sm.SparseRep(sm.SparsityPattern(40, support), values)
    v = gaussian(rng, 40)
    v.setflags(write=False)
    before = values.copy()
    want = oracle.dense(m) @ v
    program = kernels.sparse_program(m.pattern)
    got, count = bilinear.apply(program, kernels.single_level_params(m), v)
    assert rel_err(got, want) < 1e-12 and count == len(support)
    np.testing.assert_array_equal(multilevel.prepare(m).apply(v)[0], got)
    np.testing.assert_array_equal(m.values, before)


def test_sparse_pattern_index_arrays():
    pattern = sm.SparsityPattern(4, ((2, 1), (0, 3), (2, 0)))
    np.testing.assert_array_equal(pattern.rows, [2, 0, 2])
    np.testing.assert_array_equal(pattern.cols, [1, 3, 0])
    assert not pattern.rows.flags.writeable
    assert not pattern.cols.flags.writeable
    same = sm.SparsityPattern(4, [[2, 1], [0, 3], [2, 0]])
    assert same == pattern and hash(same) == hash(pattern)
    empty = sm.SparsityPattern(4, ())
    assert empty.rows.shape == empty.cols.shape == (0,)


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_direct_stage_on_a_block(structure):
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 50)
    for n in (1, 2, 3, 8, 33):
        m = random_instance(structure, n, rng)
        x = gaussian(rng, (n, 4))
        got, count = kernels.direct_matvec(m, x)
        assert got.shape == (n, 4)
        assert rel_err(got, oracle.dense(m) @ x) < 1e-9
        assert count == 4 * sm.param_dim(m)


# ---------------------------------------------------------------------------
# cross-route agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_program_and_direct_match_oracle(structure):
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure))
    for n in range(1, 13):
        for _ in range(5):
            m = random_instance(structure, n, rng)
            v = gaussian(rng, n)
            want = oracle.naive_matvec(oracle.dense(m), v)
            program = kernels.single_level_program(m)
            got, count = bilinear.apply(
                program, kernels.single_level_params(m), v
            )
            direct, dcount = kernels.direct_matvec(m, v)
            assert rel_err(got, want) < 1e-9
            assert rel_err(direct, want) < 1e-9
            assert rel_err(direct, got) < 1e-12
            assert count == dcount == sm.param_dim(m)


def test_direct_matvec_fast_path_agrees():
    # the np.fft direct route against the dense-Fourier program route
    rng = np.random.default_rng(9)
    for structure in SINGLE_LEVEL:
        for n in (8, 16, 32):
            m = random_instance(structure, n, rng)
            v = gaussian(rng, n)
            slow, c1 = bilinear.apply(
                kernels.single_level_program(m),
                kernels.single_level_params(m), v
            )
            fast, c2 = kernels.direct_matvec(m, v)
            assert c1 == c2
            assert rel_err(fast, slow) < 1e-12


def test_symmetric_direct_sweep():
    rng = np.random.default_rng(10)
    for n in range(1, 25):
        m = random_instance("symmetric", n, rng)
        v = gaussian(rng, n)
        got, count = kernels.direct_matvec(m, v)
        assert rel_err(got, oracle.dense(m) @ v) < 1e-9
        assert count == sm.param_dim(m)
        if n <= 12:  # the peel by values agrees with the shell maps
            maps = symmetric_shell_maps(n)
            for k, shell in symmetric_shells(m.param, n):
                assert rel_err(shell, maps[k] @ m.param) < 1e-12


def test_direct_matvec_rejects_length_mismatch():
    with pytest.raises(ValueError):
        kernels.direct_matvec(sm.CirculantRep(3, [1, 2, 3]), [1, 2])
    with pytest.raises(ValueError):
        kernels.direct_matvec(
            sm.SparseRep(sm.SparsityPattern(2, ()), []), [1, 2, 3]
        )


# ---------------------------------------------------------------------------
# prepared matrices
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_prepared_block_every_order(structure):
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 60)
    for n in range(1, 34):
        check_prepared_block(random_instance(structure, n, rng),
                             gaussian(rng, (n, 3)))


@pytest.mark.parametrize("structure, n, density", [("symmetric", 64, 0.5),
                                                   ("sparse", 64, 0.5),
                                                   ("sparse", 256, 0.1)])
def test_index_map_blocks_equal_their_columns_bit_for_bit(structure, n,
                                                          density):
    # every map is an index map, whose gathers and segmented sums treat
    # each column of a block as they treat one vector
    rng = np.random.default_rng(n)
    m = random_instance(structure, n, rng, density)
    program = multilevel.multilevel_program(m)
    assert all(isinstance(op, operators.Select)
               for op in (program.enc_param, program.enc_vec, program.dec))
    assert max(np.bincount(program.dec.rows)) > 2  # long rows: a segmented sum
    params = multilevel.param_vector(m)
    block = gaussian(rng, (n, 3))
    for route in (sm.prepare(m).apply,
                  lambda v: bilinear.apply(program, params, v)):
        np.testing.assert_array_equal(
            route(block)[0],
            np.stack([route(block[:, t])[0] for t in range(3)], axis=1))


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_prepare_encodes_once_per_matrix(structure, monkeypatch):
    encoded = []
    real = multilevel._encode

    def counting(m):
        encoded.append(m)
        return real(m)

    monkeypatch.setattr(multilevel, "_encode", counting)
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 70)
    m = random_instance(structure, 5, rng)
    prepared = sm.prepare(m)
    assert sm.prepare(m) is prepared
    for _ in range(2):
        kernels.direct_matvec(m, gaussian(rng, 5))
    assert encoded == [m]
    assert not prepared.coef.flags.writeable
    with pytest.raises(ValueError):
        prepared.coef[0] = 0


def test_prepared_memo_dies_with_its_matrix():
    rng = np.random.default_rng(80)
    for structure in SINGLE_LEVEL:
        m = random_instance(structure, 4, rng)
        kernels.direct_matvec(m, gaussian(rng, 4))
        ref = weakref.ref(m)
        del m
        gc.collect()
        assert ref() is None


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_prepared_inactive_slots_hold_the_constant_zero(structure):
    inactive_slots = {"toeplitz": 1, "hankel": 1, "toeplitz_plus_hankel": 3}
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 90)
    for n in range(1, 10):
        m = random_instance(structure, n, rng)
        prepared = sm.prepare(m)
        inactive = ~prepared.program.active
        assert len(prepared.coef) == prepared.program.r
        assert inactive.sum() == inactive_slots.get(structure, 0)
        np.testing.assert_array_equal(prepared.coef[inactive], 0)
        _, count = prepared.apply(gaussian(rng, n))
        assert count == prepared.program.count == sm.param_dim(m)


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_program_and_direct_routes_agree_bit_for_bit(structure):
    # one program, one encoding of its parameters and one slot stage; the
    # orders above 32 and the sparse densities reach the index-map plans
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 100)
    orders = {"symmetric": (1, 4, 9, 16, 32, 64),
              "sparse": (1, 4, 9, 16, 33, 64)}.get(structure,
                                                 (1, 4, 9, 16, 33, 64, 512))
    densities = (0.02, 0.1, 0.5) if structure == "sparse" else (0.5,)
    for n, density in itertools.product(orders, densities):
        m = random_instance(structure, n, rng, density)
        v = gaussian(rng, (n, 3))
        program = kernels.single_level_program(m)
        params = kernels.single_level_params(m)
        dense = oracle.dense(m)
        for block in (v[:, 0], v):
            got = bilinear.apply(program, params, block)[0]
            np.testing.assert_array_equal(got,
                                          kernels.direct_matvec(m, block)[0])
            assert rel_err(got, dense @ block) < 1e-9


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_products_do_not_depend_on_the_input_layout(structure):
    # a reversed view and its contiguous copy hold the same numbers, so
    # both routes must give the same bits on them
    rng = np.random.default_rng(SINGLE_LEVEL.index(structure) + 110)
    for n in (3, 8, 16):
        m = random_instance(structure, n, rng)
        program = kernels.single_level_program(m)
        params = kernels.single_level_params(m)
        v = gaussian(rng, n)
        np.testing.assert_array_equal(
            bilinear.apply(program, params[::-1], v)[0],
            bilinear.apply(program, params[::-1].copy(), v)[0])
        np.testing.assert_array_equal(
            bilinear.apply(program, params, v[::-1])[0],
            bilinear.apply(program, params, v[::-1].copy())[0])
        np.testing.assert_array_equal(sm.prepare(m).apply(v[::-1])[0],
                                      sm.prepare(m).apply(v[::-1].copy())[0])


def test_prepared_rejects_bad_shapes():
    prepared = sm.prepare(sm.CirculantRep(3, [1, 2, 3]))
    with pytest.raises(ValueError, match="circulant order 3"):
        prepared.apply(np.ones((2, 3)))
    with pytest.raises(ValueError, match="block"):
        prepared.apply(np.ones((3, 1, 1)))
    with pytest.raises(ValueError, match="symmetric of order 3 needs 6"):
        sm.prepare(sm.SymmetricRep(3, [1, 2, 3]))
