import numpy as np
import pytest

import structmv as sm
from structmv import oracle
from util import SINGLE_LEVEL, gaussian, random_instance


def test_dense_circulant():
    got = oracle.dense(sm.CirculantRep(3, [1, 2, 3]))
    np.testing.assert_array_equal(got, [[1, 2, 3], [3, 1, 2], [2, 3, 1]])


def test_dense_toeplitz():
    got = oracle.dense(sm.ToeplitzRep(2, [1, 2, 3]))
    np.testing.assert_array_equal(got, [[2, 3], [1, 2]])


def test_dense_hankel():
    got = oracle.dense(sm.HankelRep(2, [1, 2, 3]))
    np.testing.assert_array_equal(got, [[3, 2], [2, 1]])


def test_dense_two_level_circulant():
    m = sm.MultilevelRep((
        sm.CirculantRep(2, [1, 2]), sm.CirculantRep(2, [3, 4])
    ))
    np.testing.assert_array_equal(
        oracle.dense(m),
        [[3, 4, 6, 8], [4, 3, 8, 6], [6, 8, 3, 4], [8, 6, 4, 3]],
    )


def test_dense_symmetric_matches_pack_formula():
    # the packing by a walk of the upper triangle, row by row, with a
    # counter, not by the formula that oracle.dense reads
    rng = np.random.default_rng(30)
    for n in range(1, 13):
        m = random_instance("symmetric", n, rng)
        want = np.empty((n, n), dtype=complex)
        k = 0
        for i in range(n):
            for j in range(i, n):
                want[i, j] = want[j, i] = m.param[k]
                k += 1
        assert k == len(m.param)
        np.testing.assert_array_equal(oracle.dense(m), want)


@pytest.mark.parametrize("structure, index", [
    ("circulant", lambda n, i, j: (j - i) % n),
    ("toeplitz", lambda n, i, j: j - i + n - 1),
    ("hankel", lambda n, i, j: 2 * n - 2 - i - j),
])
def test_dense_matches_entry_formula_by_loop(structure, index):
    rng = np.random.default_rng(32)
    for n in range(1, 13):
        m = random_instance(structure, n, rng)
        want = np.empty((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                assert m.entry(n, i, j) == index(n, i, j)
                want[i, j] = m.param[index(n, i, j)]
        np.testing.assert_array_equal(oracle.dense(m), want)


@pytest.mark.parametrize("support", [(), ((1, 2), (0, 0), (1, 0), (1, 1))],
                         ids=["empty", "repeated-row"])
def test_dense_sparse_edge_supports(support):
    values = gaussian(np.random.default_rng(31), len(support))
    want = np.zeros((3, 3), dtype=complex)
    for (i, j), value in zip(support, values):
        want[i, j] = value
    m = sm.SparseRep(sm.SparsityPattern(3, support), values)
    np.testing.assert_array_equal(oracle.dense(m), want)


def test_naive_matvec_identity():
    v = np.array([1.0, 2.0, 3.0])
    np.testing.assert_array_equal(oracle.naive_matvec(np.eye(3), v), v)


def test_naive_matvec_first_column():
    d = np.array([[3, 4, 6, 8], [4, 3, 8, 6], [6, 8, 3, 4], [8, 6, 4, 3]],
                 dtype=complex)
    np.testing.assert_array_equal(
        oracle.naive_matvec(d, [1, 0, 0, 0]), [3, 4, 6, 8]
    )


def test_naive_matvec_zero():
    np.testing.assert_array_equal(
        oracle.naive_matvec(np.zeros((3, 3)), [1, 2, 3]), np.zeros(3)
    )


def test_naive_matvec_rejects_mismatch():
    with pytest.raises(ValueError):
        oracle.naive_matvec(np.eye(3), [1, 2])
    with pytest.raises(ValueError):
        oracle.naive_matvec(np.ones((2, 3)), [1, 2, 3])


def test_dense_symmetric_is_symmetric():
    rng = np.random.default_rng(0)
    d = oracle.dense(random_instance("symmetric", 6, rng))
    np.testing.assert_array_equal(d, d.T)


@pytest.mark.parametrize("structure", SINGLE_LEVEL)
def test_dense_linear_in_parameters(structure):
    rng = np.random.default_rng(1)
    n = 4
    a = random_instance(structure, n, rng)
    if structure == "sparse":
        b = sm.SparseRep(a.pattern, gaussian(rng, len(a.pattern.support)))
    elif structure == "toeplitz_plus_hankel":
        b = sm.ToeplitzPlusHankelRep(
            toeplitz=sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1)),
            hankel=sm.HankelRep(n, gaussian(rng, 2 * n - 1)),
        )
    else:
        b = type(a)(n, gaussian(rng, len(a.param)))
    s, t = gaussian(rng, 2)
    if structure == "sparse":
        mixed = sm.SparseRep(a.pattern, s * a.values + t * b.values)
    elif structure == "toeplitz_plus_hankel":
        mixed = sm.ToeplitzPlusHankelRep(
            toeplitz=sm.ToeplitzRep(
                n, s * a.toeplitz.param + t * b.toeplitz.param
            ),
            hankel=sm.HankelRep(n, s * a.hankel.param + t * b.hankel.param),
        )
    else:
        mixed = type(a)(n, s * a.param + t * b.param)
    want = s * oracle.dense(a) + t * oracle.dense(b)
    np.testing.assert_allclose(oracle.dense(mixed), want, atol=1e-12)


def test_dense_multilevel_equals_iterated_kron():
    rng = np.random.default_rng(2)
    levels = tuple(
        random_instance(s, n, rng)
        for s, n in (("circulant", 2), ("hankel", 3), ("sparse", 2))
    )
    m = sm.MultilevelRep(levels)
    want = np.kron(
        np.kron(oracle.dense(levels[0]), oracle.dense(levels[1])),
        oracle.dense(levels[2]),
    )
    np.testing.assert_array_equal(oracle.dense(m), want)
