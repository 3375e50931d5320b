import csv
import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import structmv as sm
from structmv import bilinear, cli, multilevel, oracle
from util import run_cli, run_python


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


# sha256 of `gen --structure <key> --seed 3`: a document depends on the
# parameter count, the draw order and the serialization
_GEN_DIGESTS = {
    "circulant --n 5":
        "8f7a1746d1f00312ae8495fbb7c71c7c88820b873907ac154e6d9ffdb01d3005",
    "toeplitz --n 5":
        "e25149f86995c202e3d2a25752a9f2fe6a1a32b06acdcb55bc5661c7e38f371a",
    "hankel --n 5":
        "bbb58353c4683b7fcdf04afba2b77da3bc5fd3625b9ef07ee0befe060bbc15a8",
    "symmetric --n 5":
        "8f23b03463d01be9b18db8e3d7a2c2826c149b672a297f9e22f24c279e75eee9",
    "toeplitz_plus_hankel --n 5":
        "757ce27724e2ce581edb5e9cfe6308e250bdbb888612c4458bd685ed8bb140f7",
    "sparse --n 5":
        "3507b4d1e5f32db6d82a51ed049ecabc865ab6b15dd974a72bfe73a6a94340b4",
    "sparse --n 5 --density 0.6":
        "2fbb21aa26caa64bc260719b31b19ccfcde8e54cd76cb6e4eebaa163318e0a1f",
    "multilevel --levels toeplitz_plus_hankel:2,sparse:3,symmetric:2":
        "e8408cbc68aacf35ccea2739a84fadf03935e2f0a36ad07a41788c45cd7cc6d5",
}


@pytest.mark.parametrize("key", list(_GEN_DIGESTS))
def test_gen_documents_are_pinned(capsys, key):
    assert cli.main(["gen", "--structure", *key.split(), "--seed", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == _GEN_DIGESTS[key]


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


def test_verify_refuses_a_seed_with_a_vector_file(tmp_path):
    # the seed only draws the vector that a vector file would replace
    mat = _write(tmp_path, "c.json",
                 {"structure": "circulant", "n": 2, "param": [[1, 0], [2, 0]]})
    vec = _vector_file(tmp_path, "v.json", [1, 2j])
    r = run_cli(["verify", mat, vec, "--seed", "3"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    lines = r.stderr.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "--seed" in lines[0]
    seeded = run_cli(["verify", mat, "--seed", "7"], tmp_path)
    assert seeded.returncode == 0 and "PASS" in seeded.stdout
    default, zero = (run_cli(["verify", mat, *seed], tmp_path)
                     for seed in ([], ["--seed", "0"]))
    assert default.returncode == 0 and default.stdout == zero.stdout


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


def test_verify_tolerance_must_be_finite_and_non_negative(tmp_path):
    gen = run_cli(["gen", "--structure", "circulant", "--n", "4",
                   "-o", "c.json"], tmp_path)
    assert gen.returncode == 0
    for tol in ("inf", "nan", "-1"):
        r = run_cli(["verify", "c.json", "--tol", tol], tmp_path)
        assert r.returncode == 2 and r.stdout == ""
        assert "Traceback" not in r.stderr
        assert "--tol" in r.stderr.strip().splitlines()[-1]
    r = run_cli(["verify", "c.json", "--tol", "0"], tmp_path)
    assert r.returncode in (0, 1) and "tolerance:" in r.stdout


@pytest.mark.parametrize("message", ["Unable to allocate 4.00 GiB", ""])
def test_verify_out_of_memory_exits_2(tmp_path, monkeypatch, capsys, message):
    gen = run_cli(["gen", "--structure", "toeplitz", "--n", "4",
                   "-o", "t.json"], tmp_path)
    assert gen.returncode == 0

    def no_memory(m):
        raise MemoryError(message)

    monkeypatch.setattr(oracle, "dense", no_memory)
    assert cli.main(["verify", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: out of memory")
    assert message in err[0]


# ---------------------------------------------------------------------------
# count
# ---------------------------------------------------------------------------

def test_count_all_output_is_unchanged(tmp_path):
    # counts come from param_dim; the table is byte-for-byte the one that
    # the per-structure closed forms printed
    r = run_cli(["count", "--structure", "all", "--n", "1",
                 "--n-max", "12"], tmp_path)
    assert r.returncode == 0
    want = Path(__file__).parent / "data" / "count_all_n1_12.txt"
    assert r.stdout == want.read_text()


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

def test_bench_builds_the_program_once(monkeypatch, capsys):
    full_builds = []
    real = multilevel.multilevel_program

    def counting(m):
        if len(m.levels) == 3:
            full_builds.append(m)
        return real(m)

    monkeypatch.setattr(multilevel, "multilevel_program", counting)
    assert cli.main(["bench", "--levels", "toeplitz:3,circulant:2,hankel:2",
                     "--reps", "1"]) == 0
    assert "structured-direct" in capsys.readouterr().out
    assert len(full_builds) == 1


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
    real = bilinear.Prepared.apply

    def one_extra(prepared, v):
        result, count = real(prepared, v)
        return result, count + 1

    monkeypatch.setattr(bilinear.Prepared, "apply", one_extra)
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
    real = bilinear.Prepared.apply

    def perturbed(prepared, v):
        result, count = real(prepared, v)
        result = result.copy()
        result[np.argmax(np.abs(result))] *= 1 + 1e-6
        return result, count

    monkeypatch.setattr(bilinear.Prepared, "apply", perturbed)
    code = cli.main(["bench", *instance, "--reps", "1",
                     "--csv", str(tmp_path / "b.csv")])
    assert code == 1
    err = capsys.readouterr().err
    assert "structured-direct" in err and "mismatch" in err
    assert "structured-program" not in err


def test_bench_opens_its_csv_before_timing(tmp_path, monkeypatch, capsys):
    def no_prepare(m):
        raise AssertionError("an instance was prepared")

    monkeypatch.setattr(multilevel, "prepare", no_prepare)
    code = cli.main(["bench", "--structure", "toeplitz", "--n-max", "4",
                     "--csv", str(tmp_path / "missing" / "b.csv")])
    assert code == 2
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error:")


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


@pytest.mark.parametrize("deep", ["matrix", "vector"])
def test_deeply_nested_json_exits_2(tmp_path, deep):
    mat = _write(tmp_path, "m.json",
                 {"structure": "circulant", "n": 1, "param": _ONE})
    vec = _write(tmp_path, "v.json", {"n": 1, "v": _ONE})
    if deep == "matrix":
        mat = str(tmp_path / "deep.json")
        Path(mat).write_text("[" * 100_000)
    else:
        vec = str(tmp_path / "deep.json")
        Path(vec).write_text('{"n": 1, "v": ' + "[" * 5000 + "]" * 5000 + "}")
    for args in (["apply", mat, vec], ["verify", mat, vec]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2
        assert "Traceback" not in r.stderr
        assert r.stderr.strip().splitlines() == [
            f"error: {tmp_path / 'deep.json'}: invalid JSON (nested too deeply)"]


@pytest.mark.parametrize("args", [
    ["gen", "--structure", "sparse", "--n", "4", "--density", "7"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "0"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "-0.5"],
    ["gen", "--structure", "sparse", "--n", "4", "--density", "nan"],
    ["gen", "--structure", "vector", "--n", "0"],
    ["gen", "--structure", "circulant", "--n", "-2"],
    ["count", "--n", "0"],
    ["count", "--n", "1", "--n-max", "0"],
    ["gen", "--structure", "circulant", "--n", "2", "--levels", "toeplitz:3"],
    ["gen", "--structure", "multilevel", "--n", "9", "--levels", "circulant:2"],
    ["gen", "--structure", "circulant", "--n", "2", "--density", "0.5"],
    ["gen", "--structure", "vector", "--n", "2", "--density", "0.5"],
    ["gen", "--structure", "multilevel", "--levels", "circulant:2,toeplitz:2",
     "--density", "0.5"],
    ["count", "--structure", "circulant", "--n", "2", "--density", "0.5"],
    ["bench", "--structure", "toeplitz", "--n-max", "4", "--density", "0.5"],
    ["bench", "--levels", "circulant:2,toeplitz:2", "--density", "0.5"],
])
def test_out_of_range_arguments_exit_2(tmp_path, args):
    r = run_cli(args, tmp_path)
    assert r.returncode == 2
    assert "Traceback" not in r.stderr
    assert r.stdout == ""
    assert "error:" in r.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("command", ["gen", "verify", "count", "bench"])
def test_negative_seed_exits_2_naming_the_option(tmp_path, command):
    mat = _write(tmp_path, "c.json",
                 {"structure": "circulant", "n": 1, "param": _ONE})
    args = {"gen": ["gen", "--structure", "vector", "--n", "2"],
            "verify": ["verify", mat],
            "count": ["count", "--structure", "sparse"],
            "bench": ["bench", "--n-max", "4"]}[command]
    r = run_cli(args + ["--seed", "-1"], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert "Traceback" not in r.stderr
    assert "--seed" in r.stderr.strip().splitlines()[-1]


@pytest.mark.parametrize("bad", ["matrix", "vector"])
def test_file_that_is_not_utf8_names_its_path(tmp_path, bad):
    mat = _write(tmp_path, "m.json",
                 {"structure": "circulant", "n": 1, "param": _ONE})
    vec = _write(tmp_path, "v.json", {"n": 1, "v": _ONE})
    latin = tmp_path / "latin1.json"
    latin.write_bytes(b'{"n": 1, "v": [[1, 0]], "note": "\xff"}')
    if bad == "matrix":
        mat = str(latin)
    else:
        vec = str(latin)
    for args in (["apply", mat, vec], ["verify", mat, vec]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2 and r.stdout == ""
        lines = r.stderr.strip().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: {latin}: invalid JSON (not UTF-8: ")


def _overflowing_circulant(tmp_path):
    mat = _write(tmp_path, "m.json", {"structure": "circulant", "n": 2,
                                      "param": [[1e308, 0], [1e308, 0]]})
    return mat, _vector_file(tmp_path, "v.json", [1.0, 1.0])


@pytest.mark.parametrize("method", ["program", "direct"])
def test_apply_overflow_exits_2(tmp_path, method):
    mat, vec = _overflowing_circulant(tmp_path)
    r = run_cli(["apply", mat, vec, "--method", method], tmp_path)
    assert r.returncode == 2 and r.stdout == ""
    assert r.stderr.strip().splitlines() == ["error: product is not finite"]


def test_verify_overflow_fails_without_warnings(tmp_path):
    mat, vec = _overflowing_circulant(tmp_path)
    for args in (["verify", mat, vec], ["verify", mat]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 1, r.stdout + r.stderr
        assert r.stdout.strip().splitlines()[-1] == "FAIL"
        assert r.stderr == ""


_HUGE = 10**400  # a JSON integer that no float holds


@pytest.mark.parametrize("matrix, vector, message", [
    ({"structure": "circulant", "n": 2, "param": [[1, 0], [0, _HUGE]]},
     {"n": 2, "v": [[1, 0], [1, 0]]},
     "param[1] holds an integer too large for a float"),
    ({"structure": "toeplitz_plus_hankel", "n": 1, "toeplitz": [[-_HUGE, 0]],
      "hankel": _ONE}, {"n": 1, "v": _ONE},
     "toeplitz[0] holds an integer too large for a float"),
    ({"structure": "toeplitz_plus_hankel", "n": 1, "toeplitz": _ONE,
      "hankel": [[0, _HUGE]]}, {"n": 1, "v": _ONE},
     "hankel[0] holds an integer too large for a float"),
    ({"structure": "sparse", "n": 2, "entries": [
        {"i": 0, "j": 0, "v": [1, 0]}, {"i": 1, "j": 1, "v": [_HUGE, 0]}]},
     {"n": 2, "v": [[1, 0], [1, 0]]},
     "entries[1].v[0] holds an integer too large for a float"),
    ({"structure": "circulant", "n": 1, "param": _ONE}, {"n": 1, "v": [[_HUGE, 0]]},
     "v[0] holds an integer too large for a float"),
], ids=["param", "toeplitz", "hankel", "entry-v", "vector-v"])
def test_json_integer_too_large_for_a_float_exits_2(tmp_path, matrix, vector,
                                                     message):
    mat = _write(tmp_path, "m.json", matrix)
    vec = _write(tmp_path, "v.json", vector)
    for args in (["apply", mat, vec], ["verify", mat, vec]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.strip().splitlines() == [f"error: {message}"]


@pytest.mark.parametrize("key, value", [
    ("i", 2**63), ("j", 2**63), ("i", -2**63 - 1), ("j", _HUGE)],
    ids=["i-2^63", "j-2^63", "i-below-int64", "j-huge"])
def test_sparse_index_too_large_for_an_index_exits_2(tmp_path, key, value):
    entry = {"i": 0, "j": 0, "v": [1, 0]}
    bad = dict(entry, **{key: value})
    mat = _write(tmp_path, "m.json", {"structure": "sparse", "n": 1,
                                      "entries": [entry, bad]})
    vec = _write(tmp_path, "v.json", {"n": 1, "v": _ONE})
    for args in (["apply", mat, vec], ["verify", mat, vec]):
        r = run_cli(args, tmp_path)
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr.strip().splitlines() == [
            f"error: entries[1].{key} does not fit in an index"]


@pytest.mark.parametrize("values, message", [
    ([[1, 0], [2, 0], "x"], "entries[2].v[0] is not a [re, im] pair"),
    ([[1, 0], [1e400, 0], "x"], "entries[1].v contains a non-finite value"),
    ([[1, 0], [0, -1e400], [1e400, 0]],
     "entries[1].v contains a non-finite value"),
    ([[1, 0], [True, 0]], "entries[1].v[0] is not a [re, im] pair"),
])
def test_sparse_values_name_the_first_bad_entry(values, message):
    entries = [{"i": k, "j": k, "v": v} for k, v in enumerate(values)]
    with pytest.raises(cli.FileFormatError) as exc:
        cli.matrix_from_obj({"structure": "sparse", "n": 3, "entries": entries})
    assert str(exc.value) == message


# what an apply or verify child has loaded once cli.main returns
_LOADED = ("import sys\n"
           "from structmv import cli\n"
           "rc = cli.main(sys.argv[1:])\n"
           "print('loaded:', [name for name in ('numpy.random', 'statistics', "
           "'csv') if name in sys.modules])\n"
           "raise SystemExit(rc)\n")


def test_apply_and_verify_load_only_what_they_run(tmp_path):
    """Only gen, verify without a vector file and bench draw random inputs
    or write CSV, so an apply or verify child on files imports neither
    numpy.random nor statistics nor csv."""
    mat = _write(tmp_path, "m.json", {"structure": "sparse", "n": 3, "entries": [
        {"i": 0, "j": 2, "v": [1.5, -1]}, {"i": 2, "j": 1, "v": [0, 2]}]})
    vec = _vector_file(tmp_path, "v.json", [1, 2j, -3])
    for args in (["apply", mat, vec, "-o", "out.json"],
                 ["apply", mat, vec, "--method", "direct", "-o", "out.json"],
                 ["verify", mat, vec]):
        r = run_python(["-c", _LOADED, *args], tmp_path)
        assert r.returncode == 0, r.stdout + r.stderr
        assert r.stdout.splitlines()[-1] == "loaded: []"


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
