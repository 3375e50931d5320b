"""Acceptance suite.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s``) and enforces its stated tolerance and, where given, its
runtime budget.
"""

import csv
import itertools
import json
import time

import numpy as np

import structmv as sm
from structmv import bilinear, cli, kernels, multilevel, oracle, transform
from util import (
    SINGLE_LEVEL,
    gaussian,
    random_instance,
    rel_err,
    run_cli,
    symmetric_shell_maps,
    toeplitz_with_free_entry,
    tph_shift_row,
)


def _finish(number, label, failures, elapsed=None, limit=None):
    if limit is not None and elapsed is not None and elapsed >= limit:
        failures.append(f"runtime {elapsed:.1f}s exceeded {limit}s budget")
    status = "PASS" if not failures else "FAIL"
    timing = f" [{elapsed:.1f}s]" if elapsed is not None else ""
    print(f"CRITERION {number} ({label}): {status}{timing}")
    assert not failures, f"criterion {number}: " + "; ".join(failures[:8])


def test_criterion_1_count_table():
    t0 = time.perf_counter()
    failures = []
    formulas = {
        "circulant": lambda n: n,
        "toeplitz": lambda n: 2 * n - 1,
        "hankel": lambda n: 2 * n - 1,
        "symmetric": lambda n: n * (n + 1) // 2,
        "toeplitz_plus_hankel": lambda n: 4 * n - 3,
    }
    builders = {
        "circulant": kernels.circulant_program,
        "toeplitz": kernels.toeplitz_program,
        "hankel": kernels.hankel_program,
        "symmetric": kernels.symmetric_program,
        "toeplitz_plus_hankel": kernels.tph_program,
    }
    for name, formula in formulas.items():
        start = 2 if name == "toeplitz_plus_hankel" else 1
        for n in range(start, 17):
            report = bilinear.prune_check(builders[name](n))
            want = formula(n)
            if not (report.match and report.measured == report.theoretical == want):
                failures.append(f"{name} n={n}: want {want}, got {report}")
    rng = np.random.default_rng(2024)
    for _ in range(50):
        n = int(rng.integers(1, 17))
        m = random_instance("sparse", n, rng, density=float(rng.uniform(0.05, 0.9)))
        report = bilinear.prune_check(kernels.sparse_program(m.pattern))
        want = len(m.pattern.support)
        if not (report.match and report.measured == report.theoretical == want):
            failures.append(f"sparse n={n}: want {want}, got {report}")
    _finish(1, "exact count table", failures, time.perf_counter() - t0, 10.0)


def test_criterion_2_multilevel_count_multiplicativity():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(7)

    def check(levels, label):
        m = sm.MultilevelRep(levels)
        expected = 1
        for level in levels:
            expected *= sm.param_dim(level)
        program = multilevel.multilevel_program(m)
        v = gaussian(rng, sm.order(m))
        _, applied = bilinear.apply(program, multilevel.param_vector(m), v)
        _, direct = multilevel.multilevel_matvec_direct(m, v)
        report = bilinear.prune_check(program)
        if not (program.count == applied == direct == expected
                and report.match and report.measured == expected):
            failures.append(
                f"{label}: expected {expected}, program {program.count}, "
                f"applied {applied}, direct {direct}, prune {report}"
            )

    for head, second in itertools.product(SINGLE_LEVEL, repeat=2):
        for n1, n2 in itertools.product((2, 3), repeat=2):
            levels = (random_instance(head, n1, rng),
                      random_instance(second, n2, rng))
            check(levels, f"{head}({n1}) x {second}({n2})")

    three_level = [
        (("circulant", 2), ("toeplitz", 2), ("symmetric", 2)),
        (("hankel", 2), ("circulant", 3), ("toeplitz", 2)),
        (("toeplitz_plus_hankel", 2), ("hankel", 2), ("circulant", 2)),
        (("sparse", 3), ("symmetric", 2), ("hankel", 2)),
        (("symmetric", 3), ("sparse", 2), ("toeplitz_plus_hankel", 2)),
    ]
    for spec in three_level:
        levels = tuple(random_instance(s, n, rng) for s, n in spec)
        check(levels, " x ".join(f"{s}({n})" for s, n in spec))

    # the canonical 3-level case has count 2 * 3 * 3 = 18
    canonical = sm.MultilevelRep((
        random_instance("circulant", 2, rng),
        random_instance("toeplitz", 2, rng),
        random_instance("symmetric", 2, rng),
    ))
    if multilevel.multilevel_program(canonical).count != 18:
        failures.append("circulant(2) x toeplitz(2) x symmetric(2) != 18")
    _finish(2, "multilevel count multiplicativity", failures,
            time.perf_counter() - t0, 30.0)


def test_criterion_3_worked_two_level_reproduction():
    failures = []
    rng = np.random.default_rng(99)
    for trial in range(20):
        a, b, c, d = gaussian(rng, 4)
        x, y, z, t = gaussian(rng, 4)
        m = sm.MultilevelRep((
            sm.CirculantRep(2, [a, b]), sm.CirculantRep(2, [c, d])
        ))
        v = np.array([x, y, z, t])
        want = oracle.naive_matvec(oracle.dense(m), v)
        got, count = multilevel.multilevel_matvec_direct(m, v)
        prog_out, prog_count = bilinear.apply(
            multilevel.multilevel_program(m), multilevel.param_vector(m), v
        )
        if count != 4 or prog_count != 4:
            failures.append(f"trial {trial}: counts {count}, {prog_count} != 4")
        if rel_err(got, want) >= 1e-10 or rel_err(prog_out, want) >= 1e-10:
            failures.append(f"trial {trial}: result error {rel_err(got, want):.2e}")
        w = multilevel.intermediate_w_values(m, v)
        closed = np.array([
            [(a + b) * (c + d) * ((x + y) + (z + t)),
             (a + b) * (c - d) * ((x - y) + (z - t))],
            [(a - b) * (c + d) * ((x + y) - (z + t)),
             (a - b) * (c - d) * ((x - y) - (z - t))],
        ])
        if rel_err(w, closed) >= 1e-10:
            failures.append(f"trial {trial}: w error {rel_err(w, closed):.2e}")
    _finish(3, "2x2 block-circulant worked example", failures)


def test_criterion_4_oracle_equivalence_suite():
    t0 = time.perf_counter()
    failures = []
    rng = np.random.default_rng(123)
    for structure in SINGLE_LEVEL:
        worst_prog = worst_direct = worst_pair = 0.0
        for n in range(1, 17):
            for _ in range(100):
                m = random_instance(structure, n, rng)
                v = gaussian(rng, n)
                want = oracle.naive_matvec(oracle.dense(m), v)
                got, _ = bilinear.apply(
                    kernels.single_level_program(m),
                    kernels.single_level_params(m), v,
                )
                direct, _ = kernels.direct_matvec(m, v)
                worst_prog = max(worst_prog, rel_err(got, want))
                worst_direct = max(worst_direct, rel_err(direct, want))
                worst_pair = max(worst_pair, rel_err(direct, got))
        if worst_prog >= 1e-9:
            failures.append(f"{structure}: program vs oracle {worst_prog:.2e}")
        if worst_direct >= 1e-9:
            failures.append(f"{structure}: direct vs oracle {worst_direct:.2e}")
        if worst_pair >= 1e-12:
            failures.append(f"{structure}: direct vs program {worst_pair:.2e}")

    # multilevel instances, total order bounded by 64
    shapes = [
        (("circulant", 4), ("toeplitz", 4)),
        (("hankel", 3), ("symmetric", 4), ("circulant", 2)),
        (("toeplitz_plus_hankel", 4), ("hankel", 4)),
        (("sparse", 4), ("toeplitz", 2), ("circulant", 4)),
        (("symmetric", 8), ("toeplitz_plus_hankel", 2)),
        (("toeplitz", 2), ("circulant", 2), ("hankel", 2), ("sparse", 2)),
    ]
    for spec in shapes:
        for _ in range(10):
            m = sm.MultilevelRep(tuple(
                random_instance(s, n, rng) for s, n in spec
            ))
            total = sm.order(m)
            assert total <= 64
            v = gaussian(rng, total)
            want = oracle.naive_matvec(oracle.dense(m), v)
            got, _ = bilinear.apply(
                multilevel.multilevel_program(m), multilevel.param_vector(m), v
            )
            direct, _ = multilevel.multilevel_matvec_direct(m, v)
            label = " x ".join(f"{s}({n})" for s, n in spec)
            if rel_err(got, want) >= 1e-9:
                failures.append(f"{label}: program {rel_err(got, want):.2e}")
            if rel_err(direct, want) >= 1e-9:
                failures.append(f"{label}: direct {rel_err(direct, want):.2e}")
    _finish(4, "oracle equivalence", failures, time.perf_counter() - t0)


def test_criterion_5_identity_resolution_suite():
    failures = []
    rng = np.random.default_rng(55)

    # (a) the embedding's free entry does not affect the product
    for n in range(1, 17):
        rep = sm.ToeplitzRep(n, gaussian(rng, 2 * n - 1))
        v = gaussian(rng, n)
        default_b, _ = kernels.direct_matvec(rep, v)
        zero_b = toeplitz_with_free_entry(rep, v, 0.0)
        if rel_err(zero_b, default_b) >= 1e-9:
            failures.append(f"(a) n={n}: {rel_err(zero_b, default_b):.2e}")

    # (b) shifted Toeplitz embedding has vanishing frequency 0 and 1
    for n in range(2, 13):
        t = gaussian(rng, 2 * n - 1)
        shift = tph_shift_row(n) @ t
        coeffs = transform.dft(kernels.toeplitz_embedding(n).embed(t - shift))
        norm = np.linalg.norm(t)
        if abs(coeffs[0]) > 1e-9 * norm or abs(coeffs[1]) > 1e-9 * norm:
            failures.append(
                f"(b) n={n}: |f0|={abs(coeffs[0]):.2e} |f1|={abs(coeffs[1]):.2e}"
            )

    # (c) shells re-embed to the symmetric matrix exactly
    for n in range(1, 13):
        rep = sm.SymmetricRep(n, gaussian(rng, n * (n + 1) // 2))
        want = oracle.dense(rep)
        total = np.zeros((n, n), dtype=complex)
        for k, shell_map in enumerate(symmetric_shell_maps(n)):
            nk = n - 2 * k
            shell = shell_map @ rep.param
            total[k:k + nk, k:k + nk] += oracle.dense(sm.HankelRep(nk, shell))
        if np.abs(total - want).max() > 1e-12 * np.abs(want).max():
            failures.append(f"(c) n={n}: {np.abs(total - want).max():.2e}")

    # (d) corrected circulant scaling vs the uncorrected variant
    for n in (2, 3, 8, 13):
        rep = sm.CirculantRep(n, gaussian(rng, n))
        v = gaussian(rng, n)
        want = oracle.naive_matvec(oracle.dense(rep), v)
        corrected, _ = kernels.direct_matvec(rep, v)
        uncorrected = transform.dft(
            transform.dft(rep.param) * (n * transform.idft(v))
        )
        if rel_err(corrected, want) >= 1e-9:
            failures.append(f"(d) n={n}: corrected {rel_err(corrected, want):.2e}")
        if rel_err(uncorrected, n * want) >= 1e-9:
            failures.append(
                f"(d) n={n}: uncorrected is not n*oracle "
                f"({rel_err(uncorrected, n * want):.2e})"
            )
    _finish(5, "identity resolution", failures)


def test_criterion_6_cli_end_to_end(tmp_path):
    t0 = time.perf_counter()
    failures = []
    gen_args = {
        "circulant": ["--n", "4"],
        "toeplitz": ["--n", "4"],
        "hankel": ["--n", "4"],
        "symmetric": ["--n", "4"],
        "toeplitz_plus_hankel": ["--n", "4"],
        "sparse": ["--n", "5", "--density", "0.4"],
        "multilevel": ["--levels", "circulant:2,toeplitz:3"],
    }
    for tag, extra in gen_args.items():
        mat = f"{tag}.json"
        r = run_cli(["gen", "--structure", tag, *extra, "--seed", "1",
                     "-o", mat], tmp_path)
        if r.returncode != 0:
            failures.append(f"gen {tag}: exit {r.returncode}: {r.stderr}")
            continue
        parsed = cli.matrix_from_obj(json.loads((tmp_path / mat).read_text()))
        order_n = sm.order(parsed)
        vec = f"{tag}_v.json"
        r = run_cli(["gen", "--structure", "vector", "--n", str(order_n),
                     "--seed", "2", "-o", vec], tmp_path)
        if r.returncode != 0:
            failures.append(f"gen vector for {tag}: exit {r.returncode}")
            continue
        for method in ("program", "direct"):
            r = run_cli(["apply", mat, vec, "--method", method], tmp_path)
            if r.returncode != 0:
                failures.append(f"apply {tag} {method}: exit {r.returncode}")
        r = run_cli(["verify", mat, vec], tmp_path)
        if r.returncode != 0:
            failures.append(f"verify {tag}: exit {r.returncode}: {r.stdout}")

    bench_start = time.perf_counter()
    r = run_cli(["bench", "--structure", "circulant", "--n-max", "1024",
                 "--reps", "3", "--csv", "bench.csv"], tmp_path)
    bench_elapsed = time.perf_counter() - bench_start
    if r.returncode != 0:
        failures.append(f"bench: exit {r.returncode}: {r.stderr}")
    elif bench_elapsed >= 60.0:
        failures.append(f"bench took {bench_elapsed:.1f}s (budget 60s)")
    else:
        with open(tmp_path / "bench.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        sizes = sorted({int(row["N"]) for row in rows})
        if not rows or sizes[-1] != 1024:
            failures.append(f"bench CSV malformed or missing N=1024: {sizes}")
        for row in rows:
            if set(row) != {"structure", "N", "method", "wall_time_ns",
                            "mult_count"}:
                failures.append(f"bench CSV columns wrong: {sorted(row)}")
                break
    _finish(6, "CLI end to end", failures, time.perf_counter() - t0)
