import dataclasses

import numpy as np
import pytest

import structmv as sm
from structmv.structures import KINDS, ParamRep, StructureError, symmetric_pack_index


def test_order_single_level():
    assert sm.order(sm.CirculantRep(4, np.ones(4))) == 4
    pattern = sm.SparsityPattern(5, ((0, 0),))
    assert sm.order(sm.SparseRep(pattern, [1.0])) == 5


def test_order_multilevel_is_product():
    m = sm.MultilevelRep((
        sm.CirculantRep(2, [1, 2]),
        sm.ToeplitzRep(3, [1, 2, 3, 4, 5]),
    ))
    assert sm.order(m) == 6


def test_param_dim_table():
    assert sm.param_dim(sm.CirculantRep(4, np.ones(4))) == 4
    assert sm.param_dim(sm.ToeplitzRep(3, np.ones(5))) == 5
    assert sm.param_dim(sm.HankelRep(3, np.ones(5))) == 5
    assert sm.param_dim(sm.SymmetricRep(3, np.ones(6))) == 6
    tph = sm.ToeplitzPlusHankelRep(
        toeplitz=sm.ToeplitzRep(3, np.ones(5)),
        hankel=sm.HankelRep(3, np.ones(5)),
    )
    assert sm.param_dim(tph) == 9  # 4n-3, one below the raw 4n-2 storage
    pattern = sm.SparsityPattern(4, ((0, 1), (2, 3), (3, 3)))
    assert sm.param_dim(sm.SparseRep(pattern, np.ones(3))) == 3


def test_param_dim_multilevel_is_product():
    m = sm.MultilevelRep((
        sm.ToeplitzRep(2, [0, 1, 0]),
        sm.HankelRep(2, [0, 1, 0]),
    ))
    assert sm.param_dim(m) == 9


def test_validate_accepts_well_formed():
    sm.validate(sm.CirculantRep(3, [1, 2, 3]))
    sm.validate(sm.ToeplitzRep(2, [1, 2, 3]))
    sm.validate(sm.SparsityPattern(2, ((0, 0), (1, 1))))


def test_validate_rejects_bad_lengths():
    with pytest.raises(StructureError, match="toeplitz.*4"):
        sm.validate(sm.ToeplitzRep(3, [1, 2, 3, 4]))
    with pytest.raises(StructureError, match="circulant"):
        sm.validate(sm.CirculantRep(3, [1, 2]))
    with pytest.raises(StructureError, match="symmetric"):
        sm.validate(sm.SymmetricRep(3, [1, 2, 3]))


def test_validate_rejects_bad_pattern():
    with pytest.raises(StructureError, match="duplicate"):
        sm.validate(sm.SparsityPattern(2, ((0, 0), (0, 0))))
    with pytest.raises(StructureError, match="out of range"):
        sm.validate(sm.SparsityPattern(2, ((0, 2),)))
    pattern = sm.SparsityPattern(2, ((0, 0),))
    with pytest.raises(StructureError, match="values"):
        sm.validate(sm.SparseRep(pattern, [1.0, 2.0]))


def _first_bad_support_entry(n, support):
    """The loop that validate's vectorized check replaced: the message of
    the first entry out of range or repeating an earlier one."""
    seen = set()
    for i, j in support:
        if not (0 <= i < n and 0 <= j < n):
            return f"support index ({i}, {j}) out of range for order {n}"
        if (i, j) in seen:
            return f"duplicate support entry ({i}, {j})"
        seen.add((i, j))
    return None


def test_validate_names_the_first_bad_support_entry():
    rng = np.random.default_rng(12)
    for _ in range(500):
        n = int(rng.integers(1, 5))
        support = tuple(map(tuple, rng.integers(-1, n + 1, (rng.integers(9), 2))))
        want = _first_bad_support_entry(n, support)
        pattern = sm.SparsityPattern(n, support)
        if want is None:
            sm.validate(pattern)
        else:
            with pytest.raises(StructureError) as exc:
                sm.validate(pattern)
            assert str(exc.value) == want


def test_validate_rejects_nested_multilevel():
    inner = sm.MultilevelRep((sm.CirculantRep(2, [1, 2]),))
    with pytest.raises(StructureError, match="nested"):
        sm.validate(sm.MultilevelRep((inner,)))
    with pytest.raises(StructureError, match="at least one"):
        sm.validate(sm.MultilevelRep(()))


def test_validate_rejects_mismatched_tph_orders():
    bad = sm.ToeplitzPlusHankelRep(
        toeplitz=sm.ToeplitzRep(2, [1, 2, 3]),
        hankel=sm.HankelRep(3, [1, 2, 3, 4, 5]),
    )
    with pytest.raises(StructureError, match="orders differ"):
        sm.validate(bad)


def test_symmetric_packing_is_contiguous_row_major():
    for n in range(1, 9):
        seen = [symmetric_pack_index(n, i, j)
                for i in range(n) for j in range(i, n)]
        assert seen == list(range(n * (n + 1) // 2))
        # symmetric in its arguments
        assert symmetric_pack_index(n, n - 1, 0) == symmetric_pack_index(n, 0, n - 1)


def test_real_input_promotes_to_complex():
    rep = sm.CirculantRep(3, [1, 2, 3])
    assert rep.param.dtype == complex
    assert np.all(rep.param.imag == 0)


def test_params_are_read_only():
    rep = sm.CirculantRep(3, [1, 2, 3])
    with pytest.raises(ValueError):
        rep.param[0] = 5.0


@pytest.mark.parametrize("cls, params", [
    (sm.CirculantRep, 3), (sm.ToeplitzRep, 5), (sm.HankelRep, 5),
    (sm.SymmetricRep, 6)])
def test_param_structures_share_one_frozen_base(cls, params):
    rep = cls(3, np.arange(params))
    assert isinstance(rep, ParamRep) and cls in KINDS
    assert repr(rep).startswith(f"{cls.__name__}(n=3, param=array(")
    assert cls.__doc__ != ParamRep.__doc__
    # equality is identity
    assert rep == rep and rep != cls(3, np.arange(params))
    with pytest.raises(dataclasses.FrozenInstanceError):
        rep.n = 4
    sm.validate(rep)
