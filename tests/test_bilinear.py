import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, kernels, oracle
from structmv.bilinear import BilinearProgram
from util import gaussian, rel_err

IDENTITY = BilinearProgram(
    enc_param=[[1.0]], enc_vec=[[1.0]], dec=[[1.0]], active=[True]
)


def test_apply_identity_program():
    out, count = bilinear.apply(IDENTITY, [3.0], [5.0])
    np.testing.assert_allclose(out, [15.0])
    assert count == 1


def test_apply_circulant_program():
    out, count = bilinear.apply(
        kernels.circulant_program(3), [1, 2, 3], [1, 1, 1]
    )
    np.testing.assert_allclose(out, [6, 6, 6], atol=1e-12)
    assert count == 3


def test_apply_toeplitz_identity_counts_all_active_slots():
    out, count = bilinear.apply(kernels.toeplitz_program(2), [0, 1, 0], [3, 4])
    np.testing.assert_allclose(out, [3, 4], atol=1e-12)
    assert count == 3


def test_apply_rejects_bad_dimensions():
    with pytest.raises(ValueError, match="parameter"):
        bilinear.apply(IDENTITY, [1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="input"):
        bilinear.apply(IDENTITY, [1.0], [1.0, 2.0])


def test_kron_identity():
    p = bilinear.kron(IDENTITY, IDENTITY)
    assert p.r == 1 and p.count == 1
    out, _ = bilinear.apply(p, [2.0], [7.0])
    np.testing.assert_allclose(out, [14.0])


def test_kron_counts_multiply():
    c2 = kernels.circulant_program(2)
    assert bilinear.kron(c2, c2).count == 4
    t2 = kernels.toeplitz_program(2)
    h2 = kernels.hankel_program(2)
    assert bilinear.kron(t2, h2).count == 9
    assert bilinear.kron(t2, h2).count == t2.count * h2.count


def test_kron_matches_dense_kronecker_oracle():
    rng = np.random.default_rng(7)
    for n1, n2 in [(2, 2), (3, 4), (4, 4)]:
        a1, a2 = gaussian(rng, n1), gaussian(rng, n2)
        v1, v2 = gaussian(rng, n1), gaussian(rng, n2)
        p = bilinear.kron(
            kernels.circulant_program(n1), kernels.circulant_program(n2)
        )
        got, _ = bilinear.apply(p, np.kron(a1, a2), np.kron(v1, v2))
        d = np.kron(
            oracle.dense(sm.CirculantRep(n1, a1)),
            oracle.dense(sm.CirculantRep(n2, a2)),
        )
        want = oracle.naive_matvec(d, np.kron(v1, v2))
        assert rel_err(got, want) < 1e-9


def test_conjugate_by_identity_is_noop():
    p = kernels.circulant_program(3)
    q = bilinear.conjugate_by(p, np.eye(3), np.eye(3), np.eye(3))
    np.testing.assert_array_equal(q.enc_param.to_dense(), p.enc_param.to_dense())
    np.testing.assert_array_equal(q.enc_vec.to_dense(), p.enc_vec.to_dense())
    np.testing.assert_array_equal(q.dec.to_dense(), p.dec.to_dense())
    assert q.count == p.count


def test_conjugate_by_realizes_hankel_from_toeplitz():
    # reverse parameters in, reverse coordinates out
    rng = np.random.default_rng(8)
    from structmv.transform import exchange_matrix

    for n in range(1, 9):
        p = bilinear.conjugate_by(
            kernels.toeplitz_program(n),
            pre_param=exchange_matrix(2 * n - 1),
            pre_vec=np.eye(n),
            post=exchange_matrix(n),
        )
        h = gaussian(rng, 2 * n - 1)
        v = gaussian(rng, n)
        got, count = bilinear.apply(p, h, v)
        want = oracle.naive_matvec(oracle.dense(sm.HankelRep(n, h)), v)
        assert rel_err(got, want) < 1e-9
        assert count == 2 * n - 1


def test_conjugate_by_shape_mismatch():
    with pytest.raises(ValueError):
        bilinear.conjugate_by(IDENTITY, np.eye(2), np.eye(1), np.eye(1))


def test_prune_check_reports():
    for prog, expect in [
        (kernels.circulant_program(4), 4),
        (kernels.toeplitz_program(4), 7),
        (kernels.tph_program(3), 9),
    ]:
        report = bilinear.prune_check(prog)
        assert report.theoretical == expect
        assert report.measured == expect
        assert report.match


def test_prune_check_flags_wrong_mask():
    bad = BilinearProgram(
        enc_param=[[1.0], [1.0]],
        enc_vec=[[1.0], [1.0]],
        dec=[[1.0, 1.0]],
        active=[True, False],  # claims a structural zero that is not there
    )
    report = bilinear.prune_check(bad)
    assert not report.match
    assert report.measured == 2 and report.theoretical == 1


def test_apply_is_bilinear():
    rng = np.random.default_rng(9)
    p = kernels.toeplitz_program(4)
    a1, a2 = gaussian(rng, 7), gaussian(rng, 7)
    v1, v2 = gaussian(rng, 4), gaussian(rng, 4)
    s, t = gaussian(rng, 2)
    left, _ = bilinear.apply(p, s * a1 + t * a2, v1)
    want = s * bilinear.apply(p, a1, v1)[0] + t * bilinear.apply(p, a2, v1)[0]
    assert rel_err(left, want) < 1e-9
    right, _ = bilinear.apply(p, a1, s * v1 + t * v2)
    want = s * bilinear.apply(p, a1, v1)[0] + t * bilinear.apply(p, a1, v2)[0]
    assert rel_err(right, want) < 1e-9


def test_inactive_slots_never_contribute():
    rng = np.random.default_rng(10)
    built = kernels.tph_program(3)
    enc_vec = built.enc_vec.to_dense()
    p = BilinearProgram(built.enc_param, enc_vec, built.dec, built.active)
    zeroed_rows = np.array(enc_vec, copy=True)
    zeroed_rows[~p.active] = 0.0
    q = BilinearProgram(p.enc_param, zeroed_rows, p.dec, p.active)
    a = gaussian(rng, p.d_param)
    v = gaussian(rng, p.n_in)
    np.testing.assert_array_equal(
        bilinear.apply(p, a, v)[0], bilinear.apply(q, a, v)[0]
    )


def test_drop_inactive_preserves_map():
    rng = np.random.default_rng(11)
    p = kernels.toeplitz_program(3)
    q = bilinear.drop_inactive(p)
    assert q.r == p.count and q.count == p.count
    a, v = gaussian(rng, 5), gaussian(rng, 3)
    assert rel_err(bilinear.apply(q, a, v)[0], bilinear.apply(p, a, v)[0]) < 1e-14


def test_program_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        BilinearProgram(
            enc_param=np.ones((2, 3)),
            enc_vec=np.ones((3, 3)),
            dec=np.ones((3, 2)),
            active=[True, True],
        )
