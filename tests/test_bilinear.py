import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, kernels, oracle
from structmv.bilinear import BilinearProgram
from util import gaussian, rel_err, run_python

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


def test_apply_rejects_a_three_dimensional_input():
    program = kernels.circulant_program(3)
    with pytest.raises(ValueError, match="block"):
        bilinear.apply(program, [1, 2, 3], np.ones((3, 1, 1)))


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


def test_kron_of_three_programs_equals_the_left_fold():
    p1, p2, p3 = (kernels.circulant_program(3), kernels.toeplitz_program(4),
                  kernels.hankel_program(2))
    p = bilinear.kron(p1, p2, p3)
    fold = bilinear.kron(bilinear.kron(p1, p2), p3)
    for name in ("enc_param", "enc_vec", "dec"):
        np.testing.assert_allclose(getattr(p, name).to_dense(),
                                   getattr(fold, name).to_dense(),
                                   rtol=0, atol=1e-12)
    np.testing.assert_array_equal(p.active, fold.active)
    assert p.count == fold.count == p1.count * p2.count * p3.count
    assert bilinear.kron(p1) is p1


def test_tph_program_transforms_a_shared_vector_once(monkeypatch):
    # the two Toeplitz-plus-Hankel branches share their vector encoder and
    # their decoder, so each route takes one forward transform of the
    # padded vector, and a direct product one inverse transform; the
    # program route adds one batched inverse transform of both branches to
    # encode the parameters
    n = 64
    rng = np.random.default_rng(9)
    m = sm.ToeplitzPlusHankelRep(sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1)),
                                 sm.HankelRep(n, gaussian(rng, 2 * n - 1)))
    v = gaussian(rng, n)
    sm.prepare(m)  # encode the parameters before counting transforms
    calls = {"fft": 0, "ifft": 0}

    def counting(name):
        real = getattr(np.fft, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.fft, name, counting(name))
    direct, dcount = kernels.direct_matvec(m, v)
    assert calls == {"fft": 1, "ifft": 1}
    program = kernels.tph_program(n)
    got, count = bilinear.apply(program, kernels.single_level_params(m), v)
    assert calls == {"fft": 2, "ifft": 3}
    assert rel_err(got, oracle.dense(m) @ v) < 1e-9
    assert rel_err(direct, got) < 1e-12
    assert count == dcount == 4 * n - 3


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


def test_prune_check_is_repeatable_without_numpy_random(tmp_path):
    """Two checks of one program agree, and the probes come from the
    module's own seeded generator, in a process that never imports
    numpy.random."""
    code = ("import sys\n"
            "from structmv import bilinear, kernels\n"
            "for p in (kernels.toeplitz_program(6), kernels.symmetric_program(5)):\n"
            "    first, second = bilinear.prune_check(p), bilinear.prune_check(p)\n"
            "    print(first == second, first.match)\n"
            "print('numpy.random' in sys.modules)\n")
    r = run_python(["-c", code], tmp_path)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == ["True", "True", "True", "True", "False"]


def test_probes_are_splitmix64_from_seed_zero():
    """The probes are SplitMix64's outputs 1, 2, ... as signed 64-bit
    integers over 2**63: real parts first, then imaginary parts, each
    filled row by row."""
    def splitmix64(k):
        z = k * 0x9E3779B97F4A7C15 % 2**64
        z = (z ^ z >> 30) * 0xBF58476D1CE4E5B9 % 2**64
        z = (z ^ z >> 27) * 0x94D049BB133111EB % 2**64
        return z ^ z >> 31

    assert splitmix64(1) == 0xE220A8397B1DCDAF  # its published first output
    d = 4
    probes = bilinear._probes(d)
    assert probes.shape == (d, bilinear.PRUNE_PROBES)
    want = [(z - 2**64 if z >= 2**63 else z) / 2**63
            for z in map(splitmix64, range(1, 2 * probes.size + 1))]
    np.testing.assert_array_equal(probes.real.reshape(-1), want[:probes.size])
    np.testing.assert_array_equal(probes.imag.reshape(-1), want[probes.size:])


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


def test_program_shape_validation():
    with pytest.raises(ValueError, match="inconsistent"):
        BilinearProgram(
            enc_param=np.ones((2, 3)),
            enc_vec=np.ones((3, 3)),
            dec=np.ones((3, 2)),
            active=[True, True],
        )
