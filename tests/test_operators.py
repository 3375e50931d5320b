import importlib
import pkgutil

import numpy as np
import pytest

import structmv
from structmv.kernels import toeplitz_embedding
from structmv.operators import (
    Compose, Dense, Fourier, Kron, Select, as_operator, compose,
)
from structmv.transform import fourier_matrix
from util import gaussian, rel_err


def _check(op, rng, tol=1e-12):
    """apply agrees with to_dense on a vector and on a batch of three."""
    d = op.to_dense()
    assert d.shape == op.shape
    x = gaussian(rng, op.shape[1])
    assert rel_err(op.apply(x), d @ x) < tol
    xs = gaussian(rng, (op.shape[1], 3))
    out = op.apply(xs)
    assert out.shape == (op.shape[0], 3)
    assert rel_err(out, d @ xs) < tol


@pytest.mark.parametrize("n", [1, 2, 3, 8, 31, 32, 33, 64, 100])
def test_fourier_matches_fourier_matrix(n):
    rng = np.random.default_rng(n)
    w = fourier_matrix(n)
    for conj, scale in [(False, 1.0), (True, 1.0), (False, 1 / n)]:
        op = Fourier(n, conj=conj, scale=scale)
        want = (np.conj(w) if conj else w) * scale
        np.testing.assert_array_equal(op.to_dense(), want)
        _check(op, rng)
        # windowed to the first rows, the first columns, or both
        for rows, cols in [(max(n // 2, 1), None), (None, (n + 1) // 2),
                           (max(n - 1, 1), (n + 2) // 3)]:
            op = Fourier(n, conj=conj, scale=scale, rows=rows, cols=cols)
            block = want[:rows, :cols]
            assert op.shape == block.shape
            np.testing.assert_array_equal(op.to_dense(), block)
            _check(op, rng)
    windowed = Fourier(n, conj=True, rows=max(n - 1, 1), cols=(n + 1) // 2)
    _check(Kron([Select.take(3, [2, 0]), windowed, Fourier(2)]), rng)


def test_select_sums_duplicates_and_drops_zeros():
    op = Select((2, 3), [0, 0, 1, 1], [1, 1, 2, 0], [1.0, 1.0, 1.0, -1.0])
    np.testing.assert_array_equal(op.to_dense(), [[0, 2, 0], [-1, 0, 1]])
    cancel = Select((1, 2), [0, 0], [1, 1], [1.0, -1.0])
    assert len(cancel.rows) == 0
    np.testing.assert_array_equal(cancel.apply(np.ones(2)), [0.0])
    # shuffled entries with repeats sum per position in input order, as
    # np.add.at does, and come out sorted by (row, column)
    rng = np.random.default_rng(12)
    rows, cols = rng.integers(0, 5, 40), rng.integers(0, 6, 40)
    for vals in (rng.standard_normal(40), gaussian(rng, 40)):
        op = Select((5, 6), rows, cols, vals)
        want = np.zeros((5, 6), vals.dtype)
        np.add.at(want, (rows, cols), vals)
        assert op.vals.dtype == vals.dtype
        np.testing.assert_array_equal(op.to_dense(), want)
        key = op.rows * 6 + op.cols
        assert np.all(key[1:] > key[:-1])
        _check(op, rng)


def test_select_kinds_apply():
    rng = np.random.default_rng(1)
    gather = Select.take(5, [4, 0, 2])
    signed = Select((3, 5), [0, 1, 2], [4, 0, 2], [1.0, -1.0, 1.0])
    scatter = Select.take(6, [5, 1, 3]).T
    summed = Select((3, 4), [0, 0, 2, 2, 2], [0, 3, 1, 2, 3], [1, -1, 1, 1, -1])
    empty = Select((4, 2), [], [])
    for op in (gather, signed, scatter, summed, empty, gather.T):
        _check(op, rng)


WEIGHTS = {"unit": None, "real": [-1.0, -0.5, 0.5, 1.0],
           "complex": [1.0, -1.0, 0.5j, -1j, 0.5 - 0.5j]}


def _random_select(rng, m, n, sizes, weights):
    """An (m, n) index map whose row i holds sizes[i] entries (at most n),
    with weights drawn from WEIGHTS[weights]."""
    sizes = np.minimum(sizes, n)
    rows = np.repeat(np.arange(m), sizes)
    cols = np.concatenate([np.sort(rng.choice(n, k, replace=False))
                           for k in sizes] + [np.zeros(0, dtype=int)])
    vals = (None if weights == "unit"
            else rng.choice(WEIGHTS[weights], len(rows)))
    return Select((m, n), rows, cols, vals)


def _runs_select(rng, kind, weights):
    """An index map whose columns run in order: every row two entries, at
    columns a + i and a + m + i (kind 0); one entry at a + i and, in some
    rows, two more past those (kind 1); or rows of none, three or six
    entries reading consecutive columns (kind 2)."""
    m, a = rng.integers(1, 30), rng.integers(0, 4)
    i = np.arange(m)
    if kind == 0:
        rows, n = np.repeat(i, 2), a + 2 * m
        cols = np.stack([a + i, a + m + i], axis=1)
    elif kind == 1:
        long = rng.random(m) < 0.3
        rows, n = np.repeat(i, np.where(long, 3, 1)), a + 3 * m
        cols = np.concatenate([[a + k] + [a + m + 2 * k, a + m + 2 * k + 1]
                               * int(b) for k, b in zip(i, long)])
    else:
        rows = np.repeat(i, rng.choice([0, 3, 6], size=m, p=[0.2, 0.4, 0.4]))
        cols, n = a + np.arange(len(rows)), a + len(rows) + rng.integers(0, 3)
    vals = (None if weights == "unit"
            else rng.choice(WEIGHTS[weights], len(rows)))
    return Select((m, max(n, 1)), rows, cols, vals)


@pytest.mark.parametrize("mix", ["all short", "mostly short", "mostly long",
                                 "one or none", "empty", "runs"])
def test_select_rows_of_any_length_match_to_dense(mix):
    """Rows of 0, 1, 2 and more entries, in maps that apply by two gathers,
    by one gather that reads the zero row and by one segmented sum, and in
    maps that read runs of columns as views, with unit, real and complex
    weights, on complex and real inputs with and without batch axes and on
    integers.  No input is written."""
    rng = np.random.default_rng(7)
    p = {"all short": [0, 0.5, 0.5, 0, 0],
         "mostly short": [0.1, 0.3, 0.35, 0.15, 0.1],
         "mostly long": [0.1, 0.1, 0.1, 0.3, 0.4],
         "one or none": [0.3, 0.7, 0, 0, 0],
         "empty": [1, 0, 0, 0, 0]}.get(mix)
    for k, weights in enumerate(["unit", "real"] * 15 + ["complex"] * 15):
        if mix == "runs":
            op = _runs_select(rng, k % 3, weights)
            m, n = op.shape
        else:
            m, n = rng.integers(1, 40, size=2)
            sizes = rng.choice([0, 1, 2, 3, 6], size=m, p=p)
            op = _random_select(rng, m, n, sizes, weights)
        d = op.to_dense()
        for batch in [(), (3,), (2, 4)]:
            x = gaussian(rng, (n,) + batch)
            x.setflags(write=False)
            for part in (x, x.real):
                before = part.copy()
                out = op.apply(part)
                np.testing.assert_array_equal(part, before)
                assert out.shape == (m,) + batch
                assert rel_err(out, np.tensordot(d, part, axes=1)) < 1e-12
        _exact(op, rng.integers(-50, 50, size=n))
        if np.any(op.vals != 1):  # weights promote single precision, as d @ x
            assert op.apply(np.ones(n, np.float32)).dtype == op.vals.dtype
    real = Select((3, 4), [0, 0, 1, 2], [1, 2, 3, 0], [1.0, -1.0, 0.5, 2.0])
    np.testing.assert_array_equal(real.apply(np.arange(4)), [-1.0, 1.5, 0.0])


def _exact(op, x):
    """op.apply(x) equals op.to_dense() @ x bit for bit; both are exact
    on integer-valued inputs."""
    np.testing.assert_array_equal(op.apply(x), op.to_dense() @ x)


@pytest.mark.parametrize("n", [2, 5, 64, 512])
def test_two_gathers_skip_weights_that_are_all_one(n):
    """The Toeplitz embedding holds -1 only in its long row, whose sum
    overwrites it, so its gathers keep no weights; a map whose second
    entries are -1 keeps w1 only.  Results stay exact."""
    rng = np.random.default_rng(n)
    ints = rng.integers(-50, 50, size=(2 * n - 1, 2))
    embed = toeplitz_embedding(n).op
    _exact(embed, ints[:, 0] + 1j * ints[:, 1])
    _exact(embed, ints.astype(float))
    out = embed.apply(ints[:, 0])  # integers still come out as floats
    assert out.dtype == float
    pairs = embed._pairs
    assert pairs.w0 is None and pairs.w1 is None and pairs.long[2] is not None

    # row r is x[r] - x[r + 1], the last row x[n - 1] alone
    rows = np.concatenate([np.arange(n - 1), np.arange(n)])
    cols = np.concatenate([np.arange(1, n), np.arange(n)])
    vals = np.concatenate([-np.ones(n - 1), np.ones(n)])
    diff = Select((n, n), rows, cols, vals)
    _exact(diff, ints[:n].astype(float))
    _exact(diff, ints[:n, 0])
    pairs = diff._pairs
    assert pairs.w0 is None and pairs.w1 is not None and pairs.long is None


def test_maps_of_mostly_long_rows_build_no_gathers():
    """The symmetric decoder sums n entries per row, and a sparse decoder
    of which a third of the rows hold one entry still has fewer than half
    short: each applies as one segmented sum over all of its entries, with
    no gather.  Results stay exact."""
    from structmv.kernels import sparse_program, symmetric_program
    from structmv.structures import SparsityPattern
    # row i holds one entry if 3 divides i and four otherwise
    support = [(i, (i + 7 * k) % 64) for i in range(64)
               for k in range(1 if i % 3 == 0 else 4)]
    sparse = sparse_program(SparsityPattern(64, support)).dec
    rng = np.random.default_rng(9)
    for op in (symmetric_program(64).dec, sparse):
        assert isinstance(op, Select) and not op.is_gather
        ints = rng.integers(-50, 50, size=(op.shape[1], 2))
        _exact(op, ints[:, 0])
        _exact(op, ints[:, 0] + 1j * ints[:, 1])
        _exact(op, ints.astype(float))
        pairs = op._pairs
        assert pairs.c0 is None and pairs.c1 is None and pairs.long is not None


def test_symmetric_vector_encoder_needs_no_segmented_sum(monkeypatch):
    """Every row of the pair map holds one or two entries, so it applies as
    two gathers and never reaches np.add.reduceat."""
    from structmv.kernels import symmetric_program
    op = symmetric_program(64).enc_vec
    assert isinstance(op, Select)

    class NoReduceat:
        def reduceat(self, *args, **kwargs):
            raise AssertionError("np.add.reduceat was called")

    rng = np.random.default_rng(8)
    x = gaussian(rng, (64, 2))
    want = op.to_dense() @ x
    monkeypatch.setattr(np, "add", NoReduceat())
    assert rel_err(op.apply(x), want) < 1e-12


def test_plans_read_runs_as_views_and_return_whole_sums(monkeypatch):
    """The symmetric decoder and a sparse decoder with no empty row return
    their segmented sums as they are, with no zero fill; the sparse decoder
    reads its slots, 0 to r - 1 in order, as one view, and the
    Toeplitz-plus-Hankel decoder's [I I] sum reads the two halves of the
    slot vector as two.  Results stay exact."""
    from structmv.kernels import sparse_program, symmetric_program, tph_program
    from structmv.structures import SparsityPattern
    # row i holds three to six entries
    support = [(i, (i + 7 * k) % 64) for i in range(64)
               for k in range(3 + i % 4)]
    sparse = sparse_program(SparsityPattern(64, support)).dec
    both_sum = tph_program(64).dec.ops[-1]
    rng = np.random.default_rng(10)
    ops = (symmetric_program(64).dec, sparse, both_sum)
    xs = [rng.integers(-50, 50, size=op.shape[1]) for op in ops]
    wants = [op.to_dense() @ x for op, x in zip(ops, xs)]
    for op, x in zip(ops, xs):
        op.apply(x)  # builds the plan
    assert isinstance(sparse._pairs.long[1], slice)
    assert isinstance(both_sum._pairs.c0, slice)
    assert isinstance(both_sum._pairs.c1, slice)

    def no_zeros(*args, **kwargs):
        raise AssertionError("np.zeros was called")

    monkeypatch.setattr(np, "zeros", no_zeros)
    for op, x, want in zip(ops, xs, wants):
        np.testing.assert_array_equal(op.apply(x), want)


def test_compose_of_index_maps_is_their_product():
    rng = np.random.default_rng(2)
    for _ in range(20):
        m, k, n = rng.integers(1, 7, size=3)
        a = Select((m, k), rng.integers(0, m, 9), rng.integers(0, k, 9),
                   rng.choice([-1.0, 1.0], 9))
        b = Select((k, n), rng.integers(0, k, 9), rng.integers(0, n, 9),
                   rng.choice([-1.0, 1.0], 9))
        product = compose(a, b)
        want = a.to_dense() @ b.to_dense()
        np.testing.assert_array_equal(product.to_dense(), want)
        for x in (gaussian(rng, n), gaussian(rng, (n, 3))):
            np.testing.assert_allclose(product.apply(x), want @ x,
                                       rtol=0, atol=1e-12)


def test_compose_flattens_and_checks_shapes():
    rng = np.random.default_rng(3)
    n = 128
    inner = compose(Select.take(n, np.arange(n)[::-1]), Dense(gaussian(rng, (n, 2))))
    op = compose(Fourier(n), inner)
    assert [type(p) for p in op.ops] == [Fourier, Select, Dense]
    _check(op, rng)
    with pytest.raises(ValueError, match="compose"):
        compose(Fourier(4), Select.take(5, [0, 1, 2]))


def test_small_operators_become_dense():
    rng = np.random.default_rng(6)
    n = 8
    small = as_operator(compose(Fourier(2 * n),
                                Select.take(2 * n, np.arange(n)).T))
    assert isinstance(small, Dense)
    np.testing.assert_allclose(
        small.to_dense(), fourier_matrix(2 * n)[:, :n], rtol=0, atol=1e-14)
    assert isinstance(as_operator(Fourier(64)), Dense)
    assert isinstance(as_operator(Fourier(65)), Fourier)
    assert isinstance(as_operator(Select.take(3, [0])), Select)
    assert isinstance(as_operator(Select.take(3, [0]).T), Dense)
    # a small product that passes through a large operator stays a product
    through = as_operator(compose(Select.take(4096, [0]), Fourier(4096),
                                  Select.take(4096, [1]).T))
    assert isinstance(through, Compose) and through.shape == (1, 1)
    _check(through, rng)
    empty = as_operator(Kron([Fourier(100), Select((0, 3), [], [])]))
    assert isinstance(empty, Dense) and empty.shape == (0, 300)


def test_kron_matches_np_kron():
    rng = np.random.default_rng(4)
    dense, dense2 = Dense(gaussian(rng, (2, 5))), Dense(gaussian(rng, (3, 2)))
    fourier, select = Fourier(3), Select.take(4, [1, 3])
    chain = Compose([Fourier(6, conj=True), Select.take(6, [0, 1, 2]).T])
    factors = [fourier, select, dense,
               as_operator(compose(Fourier(6, conj=True),
                                   Select.take(6, [0, 1, 2]).T))]
    # a dense factor applies in its own layout: put it first, in the middle
    # and last, beside every other kind, and next to another dense factor
    cases = [factors[:k] for k in range(1, len(factors) + 1)] + [
        [dense, select, chain, fourier], [select, dense, chain],
        [fourier, chain, select, dense], [dense, dense2], [chain, dense2, dense],
    ]
    for fs in cases:
        op = Kron(fs)
        _check(op, rng)
        want = fs[0].to_dense()
        for f in fs[1:]:
            want = np.kron(want, f.to_dense())
        np.testing.assert_allclose(op.to_dense(), want, rtol=0, atol=1e-12)
        n = op.shape[1]
        strided = gaussian(rng, (2 * n, 6))
        slices = [strided[::2, 0], strided[::2, ::2], strided[1::2, 1:4]]
        assert not any(x.flags.c_contiguous for x in slices)
        for x in [gaussian(rng, n), gaussian(rng, (n, 3))] + slices:
            got = op.apply(x)
            assert got.shape == (op.shape[0],) + x.shape[1:]
            np.testing.assert_allclose(got, want @ x, rtol=0, atol=1e-12)


def test_kron_with_an_empty_factor():
    op = Kron([Fourier(2), Select((0, 3), [], [])])
    assert op.shape == (0, 6)
    assert op.apply(np.ones(6)).shape == (0,)


def test_as_operator_keeps_operators_and_wraps_arrays():
    f = Fourier(128)
    assert as_operator(f) is f
    d = as_operator([[1.0, 2.0]])
    assert isinstance(d, Dense) and d.shape == (1, 2)
    with pytest.raises(ValueError):
        Dense(np.ones(3))


def test_no_unbounded_caches():
    names = [info.name for info in pkgutil.iter_modules(structmv.__path__)]
    cached = {}  # by identity: a cached function imported elsewhere is one cache
    for name in names:
        if name == "__main__":
            continue
        module = importlib.import_module(f"structmv.{name}")
        for attr in vars(module).values():
            if callable(attr) and hasattr(attr, "cache_parameters"):
                cached[id(attr)] = (attr.__qualname__,
                                    attr.cache_parameters()["maxsize"])
    assert len(cached) == 8
    assert [c for c in cached.values() if c[1] is None] == []
