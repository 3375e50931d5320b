"""Benchmark of structmv, run from the root of a checkout:

    python3 perfbench/run.py --workload fft-1d --seed 1 --seconds 25 --trace 0

Untraced (``--trace 0``) it reports the end-to-end metrics; traced
(``--trace 1``) the per-layer metrics, and it writes its spans to
``perfbench/out/``.  The last line of standard output is one JSON object;
the lines before it say what was attempted, what failed, and the genuine
multiplications per product.  See README.md in this directory.
"""

import os

# one BLAS/OpenMP thread, set before numpy loads; children inherit it
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402
import host  # noqa: E402
import layers  # noqa: E402
import phases  # noqa: E402
import reference  # noqa: E402
from spans import Tracer  # noqa: E402

OUT = Path(__file__).resolve().parent / "out"
# share of --seconds that a traced run spends on timed products
LIBRARY_SHARE = 0.5


def set_up_here(sm, inputs, checker, tracer=None, ref=None):
    """This process's own set-up, timed; its first products are checked.
    The library's rounds time reference blocks if ``ref`` is given."""
    gc.collect()
    t0 = time.perf_counter()
    if tracer is None:
        reps, programs, firsts = cases.set_up(sm, inputs.matrices)
    else:
        with tracer.op("bench.setup"):
            reps, programs, firsts = cases.set_up(sm, inputs.matrices)
    seconds = time.perf_counter() - t0
    lib = phases.Library(sm, inputs.matrices, reps, programs,
                         cases.WORKLOADS[inputs.workload].repeat, ref)
    for k, outs in enumerate(firsts):
        for route, out in zip(phases.ROUTES, outs):
            lib.check(checker, route, k, 0, out)
    return lib, seconds


def describe(inputs, checker):
    for case in inputs.matrices + inputs.docs:
        print(f"case {case.spec}: order {cases.order_of(case.spec)}, "
              f"{reference.closed_form_count(case.levels)} genuine "
              f"multiplications per product")
    for kind in sorted(checker.attempted):
        print(f"{kind}: attempted {checker.attempted[kind]}, "
              f"failed {checker.failed[kind]}")
    for line in checker.failures:
        print(f"FAILED {line}")


def untraced(sm, args, inputs, workdir):
    """End-to-end metrics, each scaled to the nominal host speed (see
    host.py).  The program route is scaled by the memory kernel of the
    library rounds' reference blocks alone, since it streams through dense
    maps; the direct route by the kernels of the work that carries it in
    this workload; set-up by all three kernels, since it mixes interpreted
    loops, BLAS calls and memory traffic; the CLI children by the reference
    children of the CLI rounds, since most of their time is the same
    start-up."""
    workload = cases.WORKLOADS[args.workload]
    checker = reference.Checker()
    ref = host.Reference()
    # set-ups: setup_samples - 1 fresh children, then this process
    setups = [phases.run_helper("setup", args.workload, args.seed, workdir)["setup_s"]
              for _ in range(workload.setup_samples - 1)]
    lib, seconds = set_up_here(sm, inputs, checker, ref=ref)
    setups.append(seconds)
    cli = phases.Cli(inputs.docs, workdir, spawn_argv=host.SPAWN_ARGV)
    phases.measure(lib, cli, workload.library_rounds, args.seconds, checker)
    rates, cli_times = lib.rates(), cli.times()
    memory = host.slowdown(ref.samples, ("memory",))
    direct = host.slowdown(ref.samples, workload.direct_kinds)
    mixed = host.slowdown(ref.samples)
    spawn = cli_times["spawn_s"] / host.NOMINAL_SPAWN_S
    setup = statistics.median(setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    describe(inputs, checker)
    print(f"set-up samples (s): {', '.join(f'{s:.3f}' for s in setups)}")
    print(ref.describe())
    print(f"reference children: {len(cli.spawns)}, faster-half mean "
          f"{cli_times['spawn_s']:.4f} s")
    print(f"slowdown against nominal: memory {memory:.4f}, "
          f"{'+'.join(workload.direct_kinds)} {direct:.4f}, all three {mixed:.4f}, "
          f"spawn {spawn:.4f}")
    print(f"unscaled: program_per_s {rates['program']:.4f}, "
          f"direct_per_s {rates['direct']:.4f}, apply_s {cli_times['apply_s']:.4f}, "
          f"verify_s {cli_times['verify_s']:.4f}, setup_s {setup:.4f}")
    print(f"peak resident set {rss_mb:.1f} MB, of which the reference arrays "
          f"{ref.resident_mb:.1f} MB")
    values = {
        "program_per_s": (rates["program"] * memory, "products/s"),
        "direct_per_s": (rates["direct"] * direct, "products/s"),
        "apply_s": (cli_times["apply_s"] / spawn, "s"),
        "verify_s": (cli_times["verify_s"] / spawn, "s"),
        "setup_s": (setup / mixed, "s"),
        "peak_rss_mb": (rss_mb - ref.resident_mb, "MB"),
    }
    return checker, {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def traced(sm, args, inputs, workdir):
    checker = reference.Checker()
    tracer = Tracer()
    builds = phases.run_helper("builds", args.workload, args.seed, workdir)["spans"]
    tracer.extend(builds, process="child")
    maps_mb = phases.run_helper("maps", args.workload, args.seed, workdir)["maps_mb"]
    lib, _ = set_up_here(sm, inputs, checker, tracer)
    cli = phases.Cli(inputs.docs, workdir, report_peak=True)
    end = time.perf_counter() + args.seconds * LIBRARY_SHARE
    while lib.rounds == 0 or time.perf_counter() < end:
        lib.round(checker, tracer)
    rates = lib.rates()
    baselines = layers.stage_rounds(sm, tracer, checker, inputs, lib, cli)
    startup = layers.startup_children(tracer, workdir)
    cli.round(checker, tracer)
    metrics = layers.metrics_from(tracer, {
        "kernels.build_s": layers.cold_build_seconds(builds),
        "bilinear.maps_mb": maps_mb,
        "cli.startup_s": statistics.median(startup),
        "cli.peak_rss_mb": max(map(phases.peak_mb, cli.children)),
    })
    spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.write(spans_path)
    describe(inputs, checker)
    print(f"traced program_per_s {rates['program']:.4f}, "
          f"direct_per_s {rates['direct']:.4f}")
    for spec, (naive_ms, matmul_ms) in baselines.items():
        print(f"baseline {spec}: oracle.naive_matvec {naive_ms:.4f} ms, "
              f"numpy dense @ v {matmul_ms:.4f} ms")
    print(f"spans: {len(tracer.spans)} written to {spans_path.relative_to(cases.ROOT)}")
    return checker, metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        sm = cases.load_structmv()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    inputs = cases.draw_inputs(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        checker, metrics = (traced if args.trace else untraced)(sm, args, inputs, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": checker.wrong == 0,
        "attempted": sum(checker.attempted.values()),
        "failed": sum(checker.failed.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
