"""Tests of the benchmark's own code.

    python3 -m pytest perfbench
"""

import json
import sys

import numpy as np
import pytest

import cases
import host
import layers
import phases
import reference
from spans import Tracer

sm = cases.load_structmv()

C2xC2 = cases.Case(
    "C2xC2",
    ((("circulant", 2, None), np.array([1.0, 2.0])),
     (("circulant", 2, None), np.array([3.0, 4.0]))),
    (np.array([1.0, 0.0, 0.0, 0.0]),),
)


def test_worked_example_c2_kron_c2():
    want = reference.dense(C2xC2.levels) @ C2xC2.vectors[0]
    assert np.array_equal(want, [3, 4, 6, 8])
    assert reference.closed_form_count(C2xC2.levels) == 4
    rep = C2xC2.build(sm)
    program, params = cases.program_and_params(sm, rep)
    checker = reference.Checker()
    checker.product("program", *sm.bilinear.apply(program, params, C2xC2.vectors[0]),
                    want, 4)
    checker.product("direct", *cases.direct_product(sm, rep, C2xC2.vectors[0]), want, 4)
    assert (checker.attempted["product"], checker.failed["product"]) == (2, 0)


def test_perturbed_product_counts_as_failed():
    want = reference.dense(C2xC2.levels) @ C2xC2.vectors[0]
    checker = reference.Checker()
    assert checker.product("exact", want.copy(), 4, want, 4)
    assert not checker.product("perturbed", want * (1 + 1e-6), 4, want, 4)
    assert (checker.attempted["product"], checker.failed["product"]) == (2, 1)
    assert checker.wrong == 1


def test_count_off_by_one_counts_as_failed():
    want = reference.dense(C2xC2.levels) @ C2xC2.vectors[0]
    checker = reference.Checker()
    assert not checker.product("over", want, 5, want, 4)
    assert not checker.product("under", want, 3, want, 4)
    assert (checker.attempted["product"], checker.failed["product"]) == (2, 2)


def test_dense_follows_the_index_formulas():
    a, b, c = 1.0, 2.0, 3.0
    assert np.array_equal(reference.dense_level("circulant", 3, np.array([a, b, c])),
                          [[a, b, c], [c, a, b], [b, c, a]])
    p = np.array([10.0, 11.0, 12.0])  # toeplitz: (i, j) -> p[j - i + 1]
    assert np.array_equal(reference.dense_level("toeplitz", 2, p), [[11, 12], [10, 11]])
    assert np.array_equal(reference.dense_level("hankel", 2, p), [[12, 11], [11, 10]])
    assert np.array_equal(reference.dense_level("symmetric", 2, p), [[10, 11], [11, 12]])
    sparse = (((0, 1), (1, 0)), np.array([5.0, 6.0]))
    assert np.array_equal(reference.dense_level("sparse", 2, sparse), [[0, 5], [6, 0]])


@pytest.mark.parametrize("spec", cases.PROBES + ("T4xSp3@4xTpH2", "S5xH3"))
def test_reference_agrees_with_structmv(spec):
    case = cases.draw_case(np.random.default_rng(7), spec)
    rep = case.build(sm)
    assert np.array_equal(reference.dense(case.levels), sm.oracle.dense(rep))
    assert reference.closed_form_count(case.levels) == sm.param_dim(rep)


def test_documents_parse_back_to_the_same_matrix(tmp_path):
    case = cases.draw_case(np.random.default_rng(3), "TpH3xSp4@5xS2")
    (mpath, vpath), = cases.write_docs([case], tmp_path)
    rep = sm.cli.matrix_from_obj(sm.cli.load_json(mpath))
    v = sm.cli.vector_from_obj(sm.cli.load_json(vpath))
    assert np.array_equal(sm.oracle.dense(rep), reference.dense(case.levels))
    assert np.array_equal(v, case.vectors[0])


def test_inputs_depend_only_on_the_seed():
    one, again, other = (cases.draw_inputs("kron", s) for s in (5, 5, 6))
    for x, y, z in zip(one.matrices, again.matrices, other.matrices):
        assert all(np.array_equal(p, q) for p, q in zip(x.vectors, y.vectors))
        assert not np.array_equal(x.vectors[0], z.vectors[0])
        assert reference.closed_form_count(x.levels) == reference.closed_form_count(z.levels)


def _child(code, stdout="", stderr=""):
    return phases.ChildRun(code, 0.1, stdout, stderr)


def test_verify_output_is_checked():
    good = "\n".join(["order:            4", "theoretical count: 4",
                      "program count:     4", "direct count:      4", "PASS"])
    checker = reference.Checker()
    assert phases.check_verify(checker, "ok", _child(0, good), 4)
    assert not phases.check_verify(checker, "count", _child(0, good), 5)
    assert not phases.check_verify(checker, "fail", _child(1, good[:-4] + "FAIL"), 4)
    assert not phases.check_verify(checker, "usage", _child(2, "", "error: x"), 4)
    assert (checker.attempted["cli"], checker.failed["cli"], checker.wrong) == (4, 3, 2)


def test_self_time_subtracts_children():
    tracer = Tracer()
    with tracer.op("root"):
        with tracer.span("child"):
            pass
    root, child = tracer.spans
    assert (root["parent"], child["parent"], child["op"]) == (None, 0, root["op"])
    total = root["end_ns"] - root["start_ns"]
    assert tracer.self_ns() == [total - (child["end_ns"] - child["start_ns"]),
                                child["end_ns"] - child["start_ns"]]


def test_benchmark_json_names_what_the_code_measures():
    spec = json.loads((cases.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(cases.WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in cases.WORKLOADS.values()]
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (m.name, m.unit) for m in layers.METRICS]
    assert [m["name"] for m in spec["end_to_end"]] == [
        "program_per_s", "direct_per_s", "apply_s", "verify_s", "setup_s", "peak_rss_mb"]


def test_slowdown_is_the_geometric_mean_of_median_over_nominal():
    nominal = host.NOMINAL_S
    blocks = [{k: f * nominal[k] for k in nominal} for f in (1.0, 1.5, 9.0)]
    assert host.slowdown(blocks) == pytest.approx(1.5)
    blocks = [{"memory": 2 * nominal["memory"], "python": 0.5 * nominal["python"],
               "blas": 4 * nominal["blas"]}]
    assert host.slowdown(blocks, ("memory",)) == pytest.approx(2.0)
    assert host.slowdown(blocks) == pytest.approx(4 ** (1 / 3))


def test_a_child_past_its_time_is_killed(tmp_path, monkeypatch):
    monkeypatch.setattr(phases, "CHILD_TIMEOUT_S", 0.5)
    child = phases.run_child([sys.executable, "-c", "import time; time.sleep(60)"],
                             tmp_path)
    assert child.code != 0
    assert child.wall_s < 30


def test_faster_half_mean_keeps_the_middle_sample():
    assert phases.faster_half_mean([5.0, 1.0, 3.0, 2.0, 4.0]) == 2.0
    assert phases.faster_half_mean([4.0, 1.0, 3.0, 2.0]) == 1.5
    assert phases.faster_half_mean([7.0]) == 7.0
