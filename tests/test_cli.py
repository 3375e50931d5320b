import csv
import json

import numpy as np
import pytest

import structmv as sm
from structmv import cli, kernels, multilevel
from util import run_cli


def _write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(cli.dumps(obj))
    return str(path)


def _vector_file(tmp_path, name, values):
    return _write(tmp_path, name, cli.vector_to_obj(np.asarray(values, dtype=complex)))


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

def test_gen_is_deterministic(tmp_path):
    r1 = run_cli(["gen", "--structure", "circulant", "--n", "4", "--seed", "1"],
                 tmp_path)
    r2 = run_cli(["gen", "--structure", "circulant", "--n", "4", "--seed", "1"],
                 tmp_path)
    assert r1.returncode == 0 and r2.returncode == 0
    assert r1.stdout == r2.stdout
    obj = json.loads(r1.stdout)
    assert obj["structure"] == "circulant" and obj["n"] == 4


def test_gen_multilevel_order(tmp_path):
    r = run_cli(["gen", "--structure", "multilevel",
                 "--levels", "circulant:2,toeplitz:3", "--seed", "0"], tmp_path)
    assert r.returncode == 0
    m = cli.matrix_from_obj(json.loads(r.stdout))
    assert sm.order(m) == 6


def test_gen_sparse_density(tmp_path):
    r = run_cli(["gen", "--structure", "sparse", "--n", "4",
                 "--density", "0.25", "--seed", "7"], tmp_path)
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    entries = obj["entries"]
    assert 0 <= len(entries) <= 16
    for entry in entries:
        assert 0 <= entry["i"] < 4 and 0 <= entry["j"] < 4


def test_gen_unknown_structure(tmp_path):
    r = run_cli(["gen", "--structure", "banded", "--n", "4"], tmp_path)
    assert r.returncode == 2


def test_gen_missing_size(tmp_path):
    r = run_cli(["gen", "--structure", "circulant"], tmp_path)
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------

def test_apply_circulant(tmp_path):
    mat = _write(tmp_path, "m.json", {
        "structure": "circulant", "n": 3,
        "param": [[1, 0], [2, 0], [3, 0]],
    })
    vec = _vector_file(tmp_path, "v.json", [1, 1, 1])
    for method in ("program", "direct"):
        r = run_cli(["apply", mat, vec, "--method", method], tmp_path)
        assert r.returncode == 0, r.stderr
        out = cli.vector_from_obj(json.loads(r.stdout))
        np.testing.assert_allclose(out, [6, 6, 6], atol=1e-12)
        assert "multiplications: 3" in r.stderr


def test_apply_worked_two_level_example(tmp_path):
    mat = _write(tmp_path, "m.json", {
        "structure": "multilevel",
        "levels": [
            {"structure": "circulant", "n": 2, "param": [[1, 0], [2, 0]]},
            {"structure": "circulant", "n": 2, "param": [[3, 0], [4, 0]]},
        ],
    })
    vec = _vector_file(tmp_path, "v.json", [1, 0, 0, 0])
    r = run_cli(["apply", mat, vec, "--method", "direct"], tmp_path)
    assert r.returncode == 0, r.stderr
    out = cli.vector_from_obj(json.loads(r.stdout))
    np.testing.assert_allclose(out, [3, 4, 6, 8], atol=1e-12)
    assert "multiplications: 4" in r.stderr


def test_apply_toeplitz_identity(tmp_path):
    mat = _write(tmp_path, "m.json", {
        "structure": "toeplitz", "n": 2,
        "param": [[0, 0], [1, 0], [0, 0]],
    })
    vec = _vector_file(tmp_path, "v.json", [3, 4])
    r = run_cli(["apply", mat, vec], tmp_path)
    assert r.returncode == 0
    out = cli.vector_from_obj(json.loads(r.stdout))
    np.testing.assert_allclose(out, [3, 4], atol=1e-12)
    assert "multiplications: 3" in r.stderr


def test_apply_dimension_mismatch(tmp_path):
    mat = _write(tmp_path, "m.json", {
        "structure": "circulant", "n": 3,
        "param": [[1, 0], [2, 0], [3, 0]],
    })
    vec = _vector_file(tmp_path, "v.json", [1, 1])
    r = run_cli(["apply", mat, vec], tmp_path)
    assert r.returncode == 2


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_generated_instance_passes(tmp_path):
    gen = run_cli(["gen", "--structure", "hankel", "--n", "5", "--seed", "3",
                   "-o", "h.json"], tmp_path)
    assert gen.returncode == 0
    r = run_cli(["verify", "h.json", "--seed", "11"], tmp_path)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "PASS" in r.stdout


def test_verify_corrupted_file_exits_2(tmp_path):
    mat = _write(tmp_path, "bad.json", {
        "structure": "toeplitz", "n": 3,
        "param": [[1, 0], [2, 0], [3, 0], [4, 0]],  # wrong length
    })
    r = run_cli(["verify", mat], tmp_path)
    assert r.returncode == 2


def test_verify_non_finite_rejected(tmp_path):
    path = tmp_path / "nan.json"
    path.write_text('{"structure": "circulant", "n": 1, "param": [[NaN, 0]]}')
    r = run_cli(["verify", str(path)], tmp_path)
    assert r.returncode == 2


def test_verify_impossible_tolerance_reports_error(tmp_path):
    gen = run_cli(["gen", "--structure", "circulant", "--n", "64",
                   "--seed", "5", "-o", "c.json"], tmp_path)
    assert gen.returncode == 0
    r = run_cli(["verify", "c.json", "--tol", "1e-18"], tmp_path)
    assert r.returncode in (0, 1)
    assert "rel error" in r.stdout


def test_verify_builds_the_program_once(tmp_path, monkeypatch, capsys):
    gen = run_cli(["gen", "--structure", "multilevel", "--levels",
                   "toeplitz:3,circulant:2,hankel:2", "-o", "m.json"], tmp_path)
    assert gen.returncode == 0
    full_builds = []
    real = multilevel.multilevel_program

    def counting(m):
        if len(m.levels) == 3:
            full_builds.append(m)
        return real(m)

    monkeypatch.setattr(multilevel, "multilevel_program", counting)
    assert cli.main(["verify", str(tmp_path / "m.json")]) == 0
    assert "PASS" in capsys.readouterr().out
    assert len(full_builds) == 1


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def _count_column(stdout, column):
    rows = [line.split() for line in stdout.strip().splitlines()[1:]]
    return [int(row[column]) for row in rows]


def test_count_toeplitz_table(tmp_path):
    r = run_cli(["count", "--structure", "toeplitz", "--n", "1",
                 "--n-max", "8"], tmp_path)
    assert r.returncode == 0
    assert _count_column(r.stdout, 2) == [1, 3, 5, 7, 9, 11, 13, 15]
    assert all(line.endswith("yes") for line in r.stdout.strip().splitlines()[1:])


def test_count_symmetric_table(tmp_path):
    r = run_cli(["count", "--structure", "symmetric", "--n", "1",
                 "--n-max", "5"], tmp_path)
    assert r.returncode == 0
    assert _count_column(r.stdout, 2) == [1, 3, 6, 10, 15]


def test_count_tph_table(tmp_path):
    r = run_cli(["count", "--structure", "toeplitz_plus_hankel", "--n", "2",
                 "--n-max", "5"], tmp_path)
    assert r.returncode == 0
    assert _count_column(r.stdout, 2) == [5, 9, 13, 17]


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def test_bench_csv_format(tmp_path):
    r = run_cli(["bench", "--structure", "circulant", "--n-max", "64",
                 "--reps", "2", "--csv", "bench.csv"], tmp_path)
    assert r.returncode == 0, r.stderr
    with open(tmp_path / "bench.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows
    sizes = sorted({int(row["N"]) for row in rows})
    assert sizes == [2, 4, 8, 16, 32, 64]
    methods = {row["method"] for row in rows}
    assert methods == {"structured-program", "structured-direct", "dense-naive"}
    for row in rows:
        n = int(row["N"])
        assert int(row["wall_time_ns"]) > 0
        if row["method"] == "dense-naive":
            assert int(row["mult_count"]) == n * n
        else:
            assert int(row["mult_count"]) == n  # circulant count is N
    # per-method N columns are monotone increasing
    for method in methods:
        ns = [int(row["N"]) for row in rows if row["method"] == method]
        assert ns == sorted(ns)


def test_bench_records_the_direct_count(tmp_path, monkeypatch, capsys):
    real = kernels.direct_matvec

    def one_extra(m, v):
        result, count = real(m, v)
        return result, count + 1

    monkeypatch.setattr(kernels, "direct_matvec", one_extra)
    csv_path = tmp_path / "bench.csv"
    code = cli.main(["bench", "--structure", "toeplitz", "--n-max", "4",
                     "--reps", "2", "--csv", str(csv_path)])
    assert code == 1
    assert "mismatch" in capsys.readouterr().err
    with open(csv_path, newline="") as fh:
        rows = [row for row in csv.DictReader(fh)
                if row["method"] == "structured-direct"]
    assert [int(row["mult_count"]) for row in rows] == [4, 8]


@pytest.mark.parametrize("instance", [
    ["--structure", "hankel", "--n-max", "8"],
    # order 8192 is past the oracle, so the check is against the program
    ["--levels", "sparse:64,sparse:128", "--density", "0.002"],
])
def test_bench_fails_on_a_wrong_result(tmp_path, monkeypatch, capsys, instance):
    def perturbed(real):
        def route(m, v):
            result, count = real(m, v)
            result = result.copy()
            result[np.argmax(np.abs(result))] *= 1 + 1e-6
            return result, count
        return route

    monkeypatch.setattr(kernels, "direct_matvec", perturbed(kernels.direct_matvec))
    monkeypatch.setattr(multilevel, "multilevel_matvec_direct",
                        perturbed(multilevel.multilevel_matvec_direct))
    code = cli.main(["bench", *instance, "--reps", "1",
                     "--csv", str(tmp_path / "b.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "structured-direct" in err and "mismatch" in err
    assert "structured-program" not in err


def test_bench_rejects_reps_below_one(tmp_path):
    for reps in ("0", "-3"):
        r = run_cli(["bench", "--n-max", "4", "--reps", reps], tmp_path)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert "--reps" in r.stderr.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# malformed input: exit 2, one error line, no traceback
# ---------------------------------------------------------------------------

_ONE = [[1, 0]]


@pytest.mark.parametrize("matrix, vector", [
    ({"structure": "circulant", "n": True, "param": _ONE}, {"n": 1, "v": _ONE}),
    ({"structure": "circulant", "n": 1, "param": [[True, 0]]}, {"n": 1, "v": _ONE}),
    ({"structure": "toeplitz_plus_hankel", "n": 1, "toeplitz": _ONE,
      "hankel": [[0, False]]}, {"n": 1, "v": _ONE}),
    ({"structure": "sparse", "n": 1, "entries": [{"i": False, "j": 0, "v": [1, 0]}]},
     {"n": 1, "v": _ONE}),
    ({"structure": "sparse", "n": 1, "entries": [{"i": 0, "j": True, "v": [1, 0]}]},
     {"n": 1, "v": _ONE}),
    ({"structure": "sparse", "n": 1, "entries": [{"i": 0, "j": 0, "v": [1, True]}]},
     {"n": 1, "v": _ONE}),
    ({"structure": "circulant", "n": 1, "param": _ONE}, {"n": True, "v": _ONE}),
    ({"structure": "circulant", "n": 1, "param": _ONE}, {"n": 1, "v": [[False, 0]]}),
])
def test_json_booleans_are_not_numbers(tmp_path, matrix, vector):
    mat = _write(tmp_path, "m.json", matrix)
    vec = _write(tmp_path, "v.json", vector)
    for args in (["apply", mat, vec], ["verify", mat, vec]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("args", [
    ["gen", "--structure", "sparse", "--n", "4", "--density", "7"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "0"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "-0.5"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "nan"],
    ["gen", "--structure", "vector", "--n", "0"],
    ["gen", "--structure", "circulant", "--n", "-2"],
    ["count", "--n", "0"],
    ["count", "--n", "1", "--n-max", "0"],
])
def test_out_of_range_arguments_exit_2(tmp_path, args):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert "error:" in r.stderr.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# file round trips
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["--structure", "circulant", "--n", "3"],
    ["--structure", "toeplitz", "--n", "3"],
    ["--structure", "hankel", "--n", "3"],
    ["--structure", "symmetric", "--n", "3"],
    ["--structure", "toeplitz_plus_hankel", "--n", "3"],
    ["--structure", "sparse", "--n", "4", "--density", "0.5"],
    ["--structure", "multilevel", "--levels", "circulant:2,sparse:2"],
])
def test_round_trip_is_byte_identical(tmp_path, args):
    r = run_cli(["gen", *args, "--seed", "9"], tmp_path)
    assert r.returncode == 0
    text = r.stdout
    again = cli.dumps(cli.matrix_to_obj(cli.matrix_from_obj(json.loads(text))))
    assert again == text


def test_vector_round_trip(tmp_path):
    r = run_cli(["gen", "--structure", "vector", "--n", "5", "--seed", "2"],
                tmp_path)
    assert r.returncode == 0
    obj = json.loads(r.stdout)
    v = cli.vector_from_obj(obj)
    assert cli.dumps(cli.vector_to_obj(v)) == r.stdout


def test_vector_length_mismatch_rejected():
    with pytest.raises(cli.FileFormatError):
        cli.vector_from_obj({"n": 3, "v": [[1, 0], [2, 0]]})
