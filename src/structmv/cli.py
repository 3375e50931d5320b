"""Command-line surface: gen, apply, verify, count, bench.

Matrices and vectors travel as JSON documents with complex entries encoded
as [re, im] pairs.  Result payloads go to stdout or -o; multiplication
counts and other diagnostics go to stderr so pipelines stay clean.  Exit
codes: 0 success, 1 verification failure, 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import csv
import json
import statistics
import sys
import time

import numpy as np

from . import bilinear, kernels, multilevel, oracle
from .structures import (
    CirculantRep,
    HankelRep,
    MultilevelRep,
    SparseRep,
    SparsityPattern,
    StructureError,
    StructuredMatrix,
    SymmetricRep,
    ToeplitzPlusHankelRep,
    ToeplitzRep,
    order,
    param_dim,
    validate,
)

STRUCTURES = (
    "circulant",
    "toeplitz",
    "hankel",
    "symmetric",
    "toeplitz_plus_hankel",
    "sparse",
    "multilevel",
)

_TAGS = {
    CirculantRep: "circulant",
    ToeplitzRep: "toeplitz",
    HankelRep: "hankel",
    SymmetricRep: "symmetric",
    ToeplitzPlusHankelRep: "toeplitz_plus_hankel",
    SparseRep: "sparse",
    MultilevelRep: "multilevel",
}


class FileFormatError(ValueError):
    """A JSON document does not match the matrix/vector file schema."""


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def _is_int(x) -> bool:
    # JSON true/false load as bool, which is a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_number(x) -> bool:
    return _is_int(x) or isinstance(x, float)


def _pairs_to_complex(pairs, what: str) -> np.ndarray:
    if not isinstance(pairs, list):
        raise FileFormatError(f"{what} must be an array of [re, im] pairs")
    out = np.empty(len(pairs), dtype=complex)
    for k, pair in enumerate(pairs):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(_is_number(x) for x in pair)
        ):
            raise FileFormatError(f"{what}[{k}] is not a [re, im] pair")
        out[k] = complex(pair[0], pair[1])
    if not np.all(np.isfinite(out.real)) or not np.all(np.isfinite(out.imag)):
        raise FileFormatError(f"{what} contains a non-finite value")
    return out


def _complex_to_pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def matrix_to_obj(m: StructuredMatrix) -> dict:
    tag = _TAGS[type(m)]
    if isinstance(m, ToeplitzPlusHankelRep):
        return {
            "structure": tag,
            "n": m.n,
            "toeplitz": _complex_to_pairs(m.toeplitz.param),
            "hankel": _complex_to_pairs(m.hankel.param),
        }
    if isinstance(m, SparseRep):
        entries = [
            {"i": i, "j": j, "v": [float(z.real), float(z.imag)]}
            for (i, j), z in zip(m.pattern.support, m.values)
        ]
        return {"structure": tag, "n": m.n, "entries": entries}
    if isinstance(m, MultilevelRep):
        return {"structure": tag, "levels": [matrix_to_obj(x) for x in m.levels]}
    return {"structure": tag, "n": m.n, "param": _complex_to_pairs(m.param)}


def matrix_from_obj(obj) -> StructuredMatrix:
    if not isinstance(obj, dict):
        raise FileFormatError("matrix document must be a JSON object")
    tag = obj.get("structure")
    if tag not in STRUCTURES:
        raise FileFormatError(f"unknown structure tag: {tag!r}")
    if tag == "multilevel":
        levels = obj.get("levels")
        if not isinstance(levels, list) or not levels:
            raise FileFormatError("multilevel needs a non-empty 'levels' array")
        m = MultilevelRep(tuple(matrix_from_obj(x) for x in levels))
        validate(m)
        return m
    n = obj.get("n")
    if not _is_int(n) or n < 1:
        raise FileFormatError(f"'n' must be a positive integer, got {n!r}")
    if tag == "toeplitz_plus_hankel":
        m = ToeplitzPlusHankelRep(
            toeplitz=ToeplitzRep(n, _pairs_to_complex(obj.get("toeplitz"), "toeplitz")),
            hankel=HankelRep(n, _pairs_to_complex(obj.get("hankel"), "hankel")),
        )
    elif tag == "sparse":
        raw = obj.get("entries")
        if not isinstance(raw, list):
            raise FileFormatError("sparse needs an 'entries' array")
        support = []
        values = np.empty(len(raw), dtype=complex)
        for k, entry in enumerate(raw):
            if not isinstance(entry, dict) or not {"i", "j", "v"} <= set(entry):
                raise FileFormatError(f"entries[{k}] must have keys i, j, v")
            if not _is_int(entry["i"]) or not _is_int(entry["j"]):
                raise FileFormatError(f"entries[{k}] indices must be integers")
            support.append((entry["i"], entry["j"]))
            values[k] = _pairs_to_complex([entry["v"]], f"entries[{k}].v")[0]
        m = SparseRep(SparsityPattern(n, tuple(support)), values)
    else:
        param = _pairs_to_complex(obj.get("param"), "param")
        cls = {
            "circulant": CirculantRep,
            "toeplitz": ToeplitzRep,
            "hankel": HankelRep,
            "symmetric": SymmetricRep,
        }[tag]
        m = cls(n, param)
    validate(m)
    return m


def vector_to_obj(v) -> dict:
    v = np.asarray(v, dtype=complex).reshape(-1)
    return {"n": len(v), "v": _complex_to_pairs(v)}


def vector_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict):
        raise FileFormatError("vector document must be a JSON object")
    n = obj.get("n")
    if not _is_int(n) or n < 1:
        raise FileFormatError(f"'n' must be a positive integer, got {n!r}")
    v = _pairs_to_complex(obj.get("v"), "v")
    if len(v) != n:
        raise FileFormatError(f"vector claims n={n} but has {len(v)} entries")
    return v


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _reject_constant(name):
    raise FileFormatError(f"non-finite constant {name!r} is not permitted")


def load_json(path):
    try:
        with open(path) as fh:
            return json.load(fh, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise FileFormatError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise FileFormatError(f"{path}: {exc}") from exc


def _write_payload(text: str, out_path):
    if out_path is None or out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# instance generation
# ---------------------------------------------------------------------------

def _gaussian(rng, size) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def gen_matrix(structure, n, rng, density=0.25, levels=None) -> StructuredMatrix:
    """Pseudorandom instance with standard complex Gaussian parameters."""
    if structure == "circulant":
        return CirculantRep(n, _gaussian(rng, n))
    if structure == "toeplitz":
        return ToeplitzRep(n, _gaussian(rng, 2 * n - 1))
    if structure == "hankel":
        return HankelRep(n, _gaussian(rng, 2 * n - 1))
    if structure == "symmetric":
        return SymmetricRep(n, _gaussian(rng, n * (n + 1) // 2))
    if structure == "toeplitz_plus_hankel":
        return ToeplitzPlusHankelRep(
            toeplitz=ToeplitzRep(n, _gaussian(rng, 2 * n - 1)),
            hankel=HankelRep(n, _gaussian(rng, 2 * n - 1)),
        )
    if structure == "sparse":
        mask = rng.random((n, n)) < density
        support = tuple((int(i), int(j)) for i, j in np.argwhere(mask))
        return SparseRep(SparsityPattern(n, support), _gaussian(rng, len(support)))
    if structure == "multilevel":
        if not levels:
            raise FileFormatError("multilevel generation needs --levels")
        return MultilevelRep(
            tuple(gen_matrix(s, k, rng, density=density) for s, k in levels)
        )
    raise FileFormatError(f"unknown structure: {structure!r}")


def _parse_levels(spec: str):
    """Parse 'circulant:2,toeplitz:3' into [(structure, n), ...]."""
    out = []
    for chunk in spec.split(","):
        parts = chunk.strip().split(":")
        if len(parts) != 2:
            raise FileFormatError(f"bad level spec {chunk!r}, want structure:n")
        name, n_text = parts
        if name not in STRUCTURES or name == "multilevel":
            raise FileFormatError(f"bad level structure {name!r}")
        try:
            n = int(n_text)
        except ValueError:
            raise FileFormatError(f"bad level order {n_text!r}") from None
        if n < 1:
            raise FileFormatError(f"level order must be >= 1, got {n}")
        out.append((name, n))
    return out


# ---------------------------------------------------------------------------
# shared evaluation helpers
# ---------------------------------------------------------------------------

def program_for(m: StructuredMatrix) -> bilinear.BilinearProgram:
    if isinstance(m, MultilevelRep):
        return multilevel.multilevel_program(m)
    return kernels.single_level_program(m)


def params_for(m: StructuredMatrix) -> np.ndarray:
    if isinstance(m, MultilevelRep):
        return multilevel.param_vector(m)
    return kernels.single_level_params(m)


def apply_structured(m: StructuredMatrix, v, method: str):
    """Evaluate by the requested route; returns (result, count)."""
    if method == "program":
        return bilinear.apply(program_for(m), params_for(m), v)
    if method == "direct":
        if isinstance(m, MultilevelRep):
            return multilevel.multilevel_matvec_direct(m, v)
        return kernels.direct_matvec(m, v)
    raise FileFormatError(f"unknown method: {method!r}")


def _rel_err(got, want) -> float:
    got = np.asarray(got)
    want = np.asarray(want)
    scale = float(np.abs(want).max()) if want.size else 0.0
    err = float(np.abs(got - want).max()) if want.size else 0.0
    return err / scale if scale > 0 else err


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.structure == "vector":
        if args.n is None:
            raise FileFormatError("vector generation needs --n")
        payload = dumps(vector_to_obj(_gaussian(rng, args.n)))
        _write_payload(payload, args.output)
        return 0
    levels = _parse_levels(args.levels) if args.levels else None
    if args.structure == "multilevel":
        m = gen_matrix("multilevel", None, rng, density=args.density, levels=levels)
    else:
        if args.n is None:
            raise FileFormatError(f"{args.structure} generation needs --n")
        m = gen_matrix(args.structure, args.n, rng, density=args.density)
    validate(m)
    _write_payload(dumps(matrix_to_obj(m)), args.output)
    return 0


def cmd_apply(args) -> int:
    m = matrix_from_obj(load_json(args.matrix))
    v = vector_from_obj(load_json(args.vector))
    if len(v) != order(m):
        raise FileFormatError(
            f"vector length {len(v)} does not match matrix order {order(m)}"
        )
    result, count = apply_structured(m, v, args.method)
    print(f"multiplications: {count}", file=sys.stderr)
    _write_payload(dumps(vector_to_obj(result)), args.output)
    return 0


def cmd_verify(args) -> int:
    m = matrix_from_obj(load_json(args.matrix))
    if args.vector is not None:
        v = vector_from_obj(load_json(args.vector))
        if len(v) != order(m):
            raise FileFormatError(
                f"vector length {len(v)} does not match matrix order {order(m)}"
            )
    else:
        rng = np.random.default_rng(args.seed)
        v = _gaussian(rng, order(m))
    want = oracle.naive_matvec(oracle.dense(m), v)
    theoretical = param_dim(m)
    program = program_for(m)
    prog_result, prog_count = bilinear.apply(program, params_for(m), v)
    direct_result, direct_count = apply_structured(m, v, "direct")
    report = bilinear.prune_check(program)
    err_prog = _rel_err(prog_result, want)
    err_direct = _rel_err(direct_result, want)
    ok = (
        err_prog <= args.tol
        and err_direct <= args.tol
        and prog_count == theoretical
        and direct_count == theoretical
        and report.match
    )
    print(f"order:            {order(m)}")
    print(f"theoretical count: {theoretical}")
    print(f"program count:     {prog_count}")
    print(f"direct count:      {direct_count}")
    print(f"prune check:       {'match' if report.match else 'MISMATCH'}")
    print(f"program rel error: {err_prog:.3e}")
    print(f"direct rel error:  {err_direct:.3e}")
    print(f"tolerance:         {args.tol:.3e}")
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


_COUNT_FORMULAS = {
    "circulant": lambda n: n,
    "toeplitz": lambda n: 2 * n - 1,
    "hankel": lambda n: 2 * n - 1,
    "symmetric": lambda n: n * (n + 1) // 2,
    "toeplitz_plus_hankel": lambda n: 4 * n - 3,
}


def cmd_count(args) -> int:
    names = (
        [s for s in STRUCTURES if s != "multilevel"]
        if args.structure == "all"
        else [args.structure]
    )
    n_lo = args.n if args.n is not None else 1
    n_hi = args.n_max if args.n_max is not None else n_lo
    if n_hi < n_lo:
        raise FileFormatError(f"--n-max {n_hi} is below --n {n_lo}")
    rows = []
    for name in names:
        for n in range(n_lo, n_hi + 1):
            if name == "sparse":
                rng = np.random.default_rng(args.seed + n)
                m = gen_matrix("sparse", n, rng, density=args.density)
                theoretical = len(m.pattern.support)
                program = kernels.sparse_program(m.pattern)
            else:
                theoretical = _COUNT_FORMULAS[name](n)
                program = kernels.single_level_program(
                    gen_matrix(name, n, np.random.default_rng(0))
                )
            report = bilinear.prune_check(program)
            match = report.match and report.measured == theoretical
            rows.append((name, n, theoretical, report.measured, match))
    width = max(len(name) for name, *_ in rows)
    print(f"{'structure':<{width}}  {'n':>4}  {'theoretical':>11}  "
          f"{'measured':>8}  match")
    ok = True
    for name, n, theoretical, measured, match in rows:
        ok &= match
        print(f"{name:<{width}}  {n:>4}  {theoretical:>11}  {measured:>8}  "
              f"{'yes' if match else 'NO'}")
    return 0 if ok else 1


def cmd_bench(args) -> int:
    rng = np.random.default_rng(args.seed)
    if args.levels:
        levels = _parse_levels(args.levels)
        instances = [("multilevel", gen_matrix(
            "multilevel", None, rng, density=args.density, levels=levels))]
    else:
        sizes = []
        n = 2
        while n <= args.n_max:
            sizes.append(n)
            n *= 2
        if not sizes:
            raise FileFormatError(f"--n-max {args.n_max} is below 2")
        instances = [
            (args.structure, gen_matrix(args.structure, n, rng, density=args.density))
            for n in sizes
        ]
    rows = []
    failures = []
    for name, m in instances:
        total = order(m)
        v = _gaussian(rng, total)
        program = program_for(m)
        params = params_for(m)
        methods = [
            ("structured-program", lambda: bilinear.apply(program, params, v),
             param_dim(m)),
            ("structured-direct", lambda: apply_structured(m, v, "direct"),
             param_dim(m)),
        ]
        # every timed result is checked against the oracle, or for orders
        # too large for it against the other route
        if total <= 4096:
            d = oracle.dense(m)
            want, tol = oracle.naive_matvec(d, v), 1e-9
            methods.append(("dense-naive",
                            lambda: (oracle.naive_matvec(d, v), total * total),
                            total * total))
        else:
            want, tol = bilinear.apply(program, params, v)[0], 1e-12
        for method, fn, expected_count in methods:
            fn()  # warm caches before timing
            times, errors, counts = [], [], set()
            for _ in range(args.reps):
                t0 = time.perf_counter_ns()
                result, count = fn()
                times.append(time.perf_counter_ns() - t0)
                errors.append(_rel_err(result, want))
                counts.add(count)
            if max(errors) > tol or counts != {expected_count}:
                failures.append(f"{name} N={total} {method}: rel error "
                                f"{max(errors):.3e}, counts {sorted(counts)}, "
                                f"want {expected_count}")
            rows.append((name, total, method, int(statistics.median(times)), count))
    out = open(args.csv, "w", newline="") if args.csv else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(["structure", "N", "method", "wall_time_ns", "mult_count"])
        writer.writerows(rows)
    finally:
        if args.csv:
            out.close()
    for line in failures:
        print(f"mismatch: {line}", file=sys.stderr)
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _density(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not 0 < value <= 1:
        raise argparse.ArgumentTypeError(f"must be in (0, 1], got {text}")
    return value


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="structmv",
        description="Structured matrix-vector products with verified "
                    "multiplication counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a pseudorandom instance file")
    gen.add_argument("--structure", required=True,
                     choices=STRUCTURES + ("vector",))
    gen.add_argument("--n", type=_positive_int)
    gen.add_argument("--levels", help="multilevel spec, e.g. circulant:2,toeplitz:3")
    gen.add_argument("--density", type=_density, default=0.25,
                     help="sparse support density (default 0.25)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("-o", "--output", help="output path (default stdout)")
    gen.set_defaults(fn=cmd_gen)

    app = sub.add_parser("apply", help="multiply a matrix file by a vector file")
    app.add_argument("matrix")
    app.add_argument("vector")
    app.add_argument("--method", choices=("program", "direct"), default="program")
    app.add_argument("-o", "--output", help="output path (default stdout)")
    app.set_defaults(fn=cmd_apply)

    ver = sub.add_parser("verify", help="check both methods against the "
                                        "dense oracle")
    ver.add_argument("matrix")
    ver.add_argument("vector", nargs="?", help="vector file (default: "
                                               "generated from --seed)")
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--tol", type=float, default=1e-9)
    ver.set_defaults(fn=cmd_verify)

    cnt = sub.add_parser("count", help="theoretical vs measured count table")
    cnt.add_argument("--structure", default="all",
                     choices=tuple(s for s in STRUCTURES if s != "multilevel")
                     + ("all",))
    cnt.add_argument("--n", type=_positive_int, default=1,
                     help="first order (default 1)")
    cnt.add_argument("--n-max", type=_positive_int, help="last order (default --n)")
    cnt.add_argument("--density", type=_density, default=0.25)
    cnt.add_argument("--seed", type=int, default=0)
    cnt.set_defaults(fn=cmd_count)

    ben = sub.add_parser("bench", help="time both methods, write CSV")
    ben.add_argument("--structure", default="circulant",
                     choices=tuple(s for s in STRUCTURES if s != "multilevel"))
    ben.add_argument("--levels", help="bench one fixed multilevel instance")
    ben.add_argument("--n-max", type=int, default=256)
    ben.add_argument("--reps", type=_positive_int, default=5)
    ben.add_argument("--csv", help="output path (default stdout)")
    ben.add_argument("--density", type=_density, default=0.25)
    ben.add_argument("--seed", type=int, default=0)
    ben.set_defaults(fn=cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (FileFormatError, StructureError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
