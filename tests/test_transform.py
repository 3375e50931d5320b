import numpy as np
import pytest

from structmv.kernels import hankel_program
from structmv.operators import Select
from structmv.transform import dft, fourier_matrix, idft
from util import gaussian, rel_err


def test_dft_delta_and_constant():
    np.testing.assert_allclose(dft([1, 0, 0, 0]), np.ones(4), atol=1e-14)
    np.testing.assert_allclose(dft([1, 1, 1, 1]), [4, 0, 0, 0], atol=1e-14)


def test_dft_second_basis_vector_gives_second_column():
    # for n=4 the first nontrivial root is i
    np.testing.assert_allclose(dft([0, 1, 0, 0]), [1, 1j, -1, -1j], atol=1e-14)


def test_idft_examples():
    np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-14)
    np.testing.assert_allclose(idft([1, 1, 1, 1]), [1, 0, 0, 0], atol=1e-14)


def test_idft_inverts_dft():
    rng = np.random.default_rng(0)
    v = gaussian(rng, 8)
    assert rel_err(idft(dft(v)), v) < 1e-10
    assert rel_err(dft(idft(v)), v) < 1e-10


def _exchange(n):
    """The exchange J = np.eye(n)[::-1] as an index map."""
    return Select.take(n, np.arange(n)[::-1])


def test_exchange():
    # the exchange map that hankel_program's vector encoder applies first
    np.testing.assert_array_equal(
        hankel_program(64).enc_vec.ops[1].to_dense(), np.eye(64)[::-1])
    np.testing.assert_array_equal(_exchange(3) @ np.array([1, 2, 3]), [3, 2, 1])
    np.testing.assert_array_equal(_exchange(2) @ np.array([5, 7]), [7, 5])
    v = np.arange(6, dtype=complex)
    np.testing.assert_array_equal(_exchange(6) @ (_exchange(6) @ v), v)
    j = _exchange(4).to_dense()
    np.testing.assert_array_equal(j, np.eye(4)[::-1])
    np.testing.assert_array_equal(j @ j, np.eye(4))


def test_fourier_matrix_small():
    np.testing.assert_array_equal(fourier_matrix(1), [[1]])
    np.testing.assert_allclose(fourier_matrix(2), [[1, 1], [1, -1]], atol=1e-15)
    np.testing.assert_allclose(
        fourier_matrix(4)[2], [1, -1, 1, -1], atol=1e-14
    )


def test_fourier_matrix_border_ones_and_symmetry():
    for n in (1, 2, 3, 5, 8, 13):
        w = fourier_matrix(n)
        np.testing.assert_array_equal(w[0], np.ones(n))
        np.testing.assert_array_equal(w[:, 0], np.ones(n))
        np.testing.assert_array_equal(w, w.T)


@pytest.mark.parametrize("n", list(range(1, 17)) + [24, 32, 48, 64])
def test_fourier_inverse_identity(n):
    w = fourier_matrix(n)
    assert np.abs(w @ np.conj(w) - n * np.eye(n)).max() <= 1e-10 * n


def test_dft_is_linear():
    rng = np.random.default_rng(1)
    for _ in range(20):
        x, y = gaussian(rng, 9), gaussian(rng, 9)
        alpha, beta = gaussian(rng, 1)[0], gaussian(rng, 1)[0]
        assert rel_err(dft(alpha * x + beta * y),
                       alpha * dft(x) + beta * dft(y)) < 1e-10


def test_fourier_rejects_bad_order():
    with pytest.raises(ValueError):
        fourier_matrix(0)


@pytest.mark.parametrize(
    "n", [1, 2, 4, 8, 16, 32, 64, 128, 256, 3, 5, 6, 13, 100, 1024]
)
def test_fast_path_agrees_with_reference(n):
    # dft/idft run on np.fft; the reference is the dense Fourier matrix
    rng = np.random.default_rng(n)
    x = gaussian(rng, n)
    w = fourier_matrix(n)
    assert rel_err(dft(x), w @ x) < 1e-12
    assert rel_err(idft(x), np.conj(w) @ x / n) < 1e-12
