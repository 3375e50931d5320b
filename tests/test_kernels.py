import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, kernels, oracle, transform
from util import SINGLE_LEVEL, gaussian, random_instance, rel_err


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


def test_embed_applies_embedding_matrix():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8, 31):
        emb = kernels.toeplitz_embedding(n)
        param = gaussian(rng, 2 * n - 1)
        want = emb.matrix @ param
        np.testing.assert_allclose(emb.embed(param), want, rtol=0, atol=1e-12)
        b = gaussian(rng, 1)[0]
        want[n] = b
        np.testing.assert_array_equal(emb.embed(param, b), want)


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
        default = kernels.direct_toeplitz_matvec(rep, v)
        zero_b = kernels.direct_toeplitz_matvec(rep, v, b=0.0)
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


def test_hankel_is_reversed_toeplitz_on_reversed_params():
    rng = np.random.default_rng(2)
    for n in (1, 3, 6):
        h = gaussian(rng, 2 * n - 1)
        v = gaussian(rng, n)
        hankel = kernels.direct_hankel_matvec(sm.HankelRep(n, h), v)
        toeplitz = kernels.direct_toeplitz_matvec(sm.ToeplitzRep(n, h[::-1]), v)
        np.testing.assert_array_equal(hankel, toeplitz[::-1])


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
        for k, shell_map in enumerate(kernels.symmetric_shell_maps(n)):
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
    for k, shell_map in enumerate(kernels.symmetric_shell_maps(n)):
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
    np.testing.assert_allclose(kernels.direct_symmetric_matvec(rep, v), v,
                               atol=1e-12)


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
        shift = kernels.tph_alpha(n) @ t
        coeffs = transform.dft(kernels.toeplitz_embedding(n).embed(t - shift))
        scale = np.abs(t).max()
        assert abs(coeffs[0]) <= 1e-9 * scale
        assert abs(coeffs[1]) <= 1e-9 * scale


def test_tph_alpha_is_the_embedding_frequency_1_row():
    for n in range(1, 17):
        want = (transform.fourier_matrix(2 * n)[1]
                @ kernels.toeplitz_embedding(n).matrix / (2 * n))
        np.testing.assert_allclose(kernels.tph_alpha(n), want, rtol=0, atol=1e-12)


def test_tph_gauge_shift_preserves_sum():
    rng = np.random.default_rng(6)
    n = 4
    t = gaussian(rng, 2 * n - 1)
    h = gaussian(rng, 2 * n - 1)
    shift = kernels.tph_alpha(n) @ t
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


def test_tph_gauge_round_trip():
    rng = np.random.default_rng(8)
    for n in (1, 2, 4, 6):
        raw = gaussian(rng, 4 * n - 2)
        coords = kernels.tph_gauge_project(n) @ raw
        assert len(coords) == 4 * n - 3
        back = kernels.tph_gauge_embed(n) @ coords
        before = oracle.dense(_tph(raw[:2 * n - 1], raw[2 * n - 1:], n))
        after = oracle.dense(_tph(back[:2 * n - 1], back[2 * n - 1:], n))
        assert np.abs(after - before).max() <= 1e-12 * np.abs(before).max()
        # projecting a gauge-fixed vector is the identity
        np.testing.assert_allclose(
            kernels.tph_gauge_project(n) @ back, coords, atol=1e-14
        )


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


# ---------------------------------------------------------------------------
# cross-route agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_program_and_direct_match_oracle(structure):
    rng = np.random.default_rng(hash(structure) % 2**32)
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
        if n <= 12:  # the peel agrees with the program's shell maps
            maps = kernels.symmetric_shell_maps(n)
            for k, shell in kernels.symmetric_shells(m.param, n):
                assert rel_err(shell, maps[k].to_dense() @ m.param) < 1e-12


def test_direct_matvec_rejects_length_mismatch():
    with pytest.raises(ValueError):
        kernels.direct_circulant_matvec(sm.CirculantRep(3, [1, 2, 3]), [1, 2])
    with pytest.raises(ValueError):
        kernels.direct_sparse_matvec(
            sm.SparseRep(sm.SparsityPattern(2, ()), []), [1, 2, 3]
        )
