"""Per-layer numbers of a traced run.

The layers are structmv's modules.  Each call below goes into one public
function on the workload's own inputs, inside a span named after that
function; the metrics are self times of those spans.  A workload that has
no matrix of some structure (or no multilevel matrix) times that structure
on a small probe instead (``cases.PROBES``), so every metric is measured on
every workload; compare such a number only with the same workload.
"""

from __future__ import annotations

import json
import statistics
import sys
from dataclasses import dataclass

import numpy as np

import cases
import phases
import reference
from spans import Tracer

STRUCTURES = ("circulant", "toeplitz", "hankel", "symmetric",
              "toeplitz_plus_hankel", "sparse")

# passes over the stage calls below; each pass is one round
STAGE_PASSES = 3
STARTUP_CHILDREN = 3


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    span: str | None = None  # mean self time of spans with this name
    match: tuple = ()        # (attribute, value) pairs the spans must carry


METRICS = (
    Metric("transform.dft_us", "us", "transform.dft"),
    Metric("transform.idft_us", "us", "transform.idft"),
    Metric("kernels.embed_us", "us", "kernels.embed"),
    *(Metric(f"kernels.direct_ms.{s}", "ms", "kernels.direct_matvec",
             (("structure", s),)) for s in STRUCTURES),
    Metric("kernels.build_s", "s"),
    *(Metric(f"bilinear.apply_ms.{s}", "ms", "bilinear.apply", (("structure", s),))
      for s in STRUCTURES + ("multilevel",)),
    Metric("bilinear.maps_mb", "MB"),
    Metric("bilinear.prune_check_ms", "ms", "bilinear.prune_check"),
    Metric("multilevel.build_ms", "ms", "multilevel.multilevel_program",
           (("role", "full"),)),
    Metric("multilevel.tail_build_ms", "ms", "multilevel.multilevel_program",
           (("role", "tail"),)),
    Metric("multilevel.direct_ms", "ms", "multilevel.multilevel_matvec_direct"),
    Metric("oracle.dense_ms", "ms", "oracle.dense"),
    Metric("oracle.naive_matvec_ms", "ms", "oracle.naive_matvec"),
    Metric("cli.parse_ms", "ms", "cli.parse"),
    Metric("cli.serialize_ms", "ms", "cli.serialize"),
    Metric("cli.startup_s", "s"),
    Metric("cli.peak_rss_mb", "MB"),
)

_SCALE = {"us": 1e-3, "ms": 1e-6, "s": 1e-9}


# ---------------------------------------------------------------------------
# inputs of the stage calls
# ---------------------------------------------------------------------------

def level_cases(matrices) -> list:
    """Each level of each multilevel matrix as a single-level case, with
    the leading slice of the matrix's vector."""
    out = []
    for case in matrices:
        if case.structure != "multilevel":
            continue
        for i, level in enumerate(case.levels):
            n = level[0][1]
            out.append(cases.Case(f"{case.spec}[{i}]", (level,),
                                  (case.vectors[0][:n],)))
    return out


def stage_inputs(inputs):
    """Cases of the stage calls: ``products`` (both routes, outside the
    timed rounds), ``multis`` (multilevel builds) and ``transformed``
    (embedding and transforms)."""
    levels = level_cases(inputs.matrices)
    singles = [c for c in inputs.matrices if c.structure != "multilevel"]
    multis = [c for c in inputs.matrices if c.structure == "multilevel"]
    present = {c.structure for c in singles + levels + multis}
    probes = [p for p in inputs.probes if p.structure not in present]
    products = levels + probes
    if not multis:
        multis = [p for p in probes if p.structure == "multilevel"]
    transformed = singles + [c for c in products if c.structure != "multilevel"]
    return products, multis, transformed


def _toeplitz_like(case):
    """(order, Toeplitz parameters, vector) for every Toeplitz product the
    direct route of this case runs: Hankel reversed, symmetric per shell."""
    ((structure, n, _), raw), = case.levels
    v = case.vectors[0]
    if structure == "toeplitz":
        return [(n, raw, v)]
    if structure == "hankel":
        return [(n, raw[::-1], v)]
    if structure == "toeplitz_plus_hankel":
        return [(n, raw[0], v), (n, raw[1][::-1], v)]
    if structure == "symmetric":
        return [(n - 2 * k, raw[:2 * (n - 2 * k) - 1], v[k:n - k])
                for k in range((n + 1) // 2)]
    return []


def stage_transforms(sm, tracer, checker, case):
    """Embedding and transforms, as the direct route of ``case`` runs them."""
    ((structure, n, _), raw), = case.levels
    pairs = []
    if structure == "circulant":
        pairs.append((np.asarray(raw), case.vectors[0]))
    for nk, param, v in _toeplitz_like(case):
        param = np.ascontiguousarray(param)
        with tracer.span("kernels.embed", n=nk):
            c = sm.kernels.toeplitz_embedding(nk).embed(param)
        want = np.concatenate([param[nk - 1:], [-param.sum()], param[:nk - 1]])
        checker.values(f"embed {case.spec} n={nk}", c, want)
        pairs.append((c, np.concatenate([v, np.zeros(nk)])))
    for a, v in pairs:
        with tracer.span("transform.dft", n=len(a)):
            a_hat = sm.transform.dft(a)
        checker.values(f"dft {case.spec} n={len(a)}", a_hat, len(a) * np.fft.ifft(a))
        with tracer.span("transform.idft", n=len(v)):
            v_hat = sm.transform.idft(v)
        checker.values(f"idft {case.spec} n={len(v)}", v_hat, np.fft.fft(v) / len(v))


def stage_products(sm, tracer, checker, case):
    """Both routes on one case outside the timed rounds."""
    rep = case.build(sm)
    v = case.vectors[0]
    want = reference.dense(case.levels) @ v
    count = reference.closed_form_count(case.levels)
    program, params = cases.program_and_params(sm, rep)
    direct = ("multilevel.multilevel_matvec_direct" if case.structure == "multilevel"
              else "kernels.direct_matvec")
    with tracer.span("bilinear.apply", structure=case.structure):
        out = sm.bilinear.apply(program, params, v)
    checker.product(f"{case.spec} program", *out, want, count, kind="stage")
    with tracer.span(direct, structure=case.structure):
        out = cases.direct_product(sm, rep, v)
    checker.product(f"{case.spec} direct", *out, want, count, kind="stage")


def stage_multilevel(sm, tracer, checker, case):
    rep = case.build(sm)
    tail = sm.MultilevelRep(rep.levels[1:])
    with tracer.span("multilevel.multilevel_program", role="full"):
        program = sm.multilevel.multilevel_program(rep)
    checker.equal(f"{case.spec} program count", program.count,
                  reference.closed_form_count(case.levels))
    with tracer.span("multilevel.multilevel_program", role="tail"):
        program = sm.multilevel.multilevel_program(tail)
    checker.equal(f"{case.spec} tail count", program.count,
                  reference.closed_form_count(case.levels[1:]))


def stage_matrix(sm, tracer, checker, lib, k, baselines):
    """prune_check, the dense oracle, and numpy's dense product as the
    single-threaded baseline."""
    case = lib.matrices[k]
    program, _ = lib.programs[k]
    with tracer.span("bilinear.prune_check"):
        report = sm.bilinear.prune_check(program)
    checker.equal(f"{case.spec} prune check", (report.match, report.measured),
                  (True, lib.counts[k]))
    with tracer.span("oracle.dense"):
        d = sm.oracle.dense(lib.reps[k])
    checker.values(f"{case.spec} oracle.dense", d, reference.dense(case.levels))
    v = case.vectors[0]
    with tracer.span("oracle.naive_matvec") as naive:
        got = sm.oracle.naive_matvec(d, v)
    checker.values(f"{case.spec} naive_matvec", got, lib.expected[k][0])
    with tracer.span("numpy.matmul") as matmul:
        got = d @ v
    checker.values(f"{case.spec} dense @ v", got, lib.expected[k][0])
    baselines.setdefault(case.spec, []).append(
        tuple((s["end_ns"] - s["start_ns"]) / 1e6 for s in (naive, matmul)))


def stage_cli(sm, tracer, checker, cli, k):
    case = cli.docs[k]
    mpath, vpath = cli.paths[k]
    with tracer.span("cli.parse"):
        rep = sm.cli.matrix_from_obj(sm.cli.load_json(mpath))
        v = sm.cli.vector_from_obj(sm.cli.load_json(vpath))
    checker.equal(f"{case.spec} parsed", (sm.order(rep), sm.param_dim(rep),
                                          bool(np.array_equal(v, case.vectors[0]))),
                  (cases.order_of(case.spec),
                   reference.closed_form_count(case.levels), True))
    with tracer.span("cli.serialize"):
        text = sm.cli.dumps(sm.cli.vector_to_obj(cli.expected[k]))
    back = [complex(a, b) for a, b in json.loads(text)["v"]]
    checker.values(f"{case.spec} serialized", back, cli.expected[k], tol=0.0)


def stage_rounds(sm, tracer, checker, inputs, lib, cli) -> dict:
    """STAGE_PASSES passes over every stage call; returns, per matrix, the
    median ms of ``oracle.naive_matvec`` and of numpy ``dense @ v``."""
    products, multis, transformed = stage_inputs(inputs)
    baselines = {}
    for _ in range(STAGE_PASSES):
        for case in transformed:
            with tracer.op("bench.transforms", case=case.spec):
                stage_transforms(sm, tracer, checker, case)
        for case in products:
            with tracer.op("bench.product", case=case.spec):
                stage_products(sm, tracer, checker, case)
        for case in multis:
            with tracer.op("bench.multilevel_build", case=case.spec):
                stage_multilevel(sm, tracer, checker, case)
        for k in range(len(lib.matrices)):
            with tracer.op("bench.matrix", case=lib.matrices[k].spec):
                stage_matrix(sm, tracer, checker, lib, k, baselines)
        for k in range(len(cli.docs)):
            with tracer.op("bench.cli_documents", case=cli.docs[k].spec):
                stage_cli(sm, tracer, checker, cli, k)
    return {spec: tuple(statistics.median(x) for x in zip(*rows))
            for spec, rows in baselines.items()}


def startup_children(tracer, workdir) -> list:
    walls = []
    for _ in range(STARTUP_CHILDREN):
        with tracer.op("cli.startup"):
            child = phases.run_child([sys.executable, "-c", "import structmv"], workdir)
        if child.code != 0:
            raise RuntimeError(f"import structmv exited {child.code}: {child.stderr}")
        walls.append(child.wall_s)
    return walls


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------

def metrics_from(tracer: Tracer, extra: dict) -> dict:
    """Every per-layer metric: span means from ``tracer``, the rest from
    ``extra`` (same names)."""
    selfs = tracer.self_ns()
    out = {}
    for metric in METRICS:
        if metric.span is None:
            value = extra[metric.name]
        else:
            times = [t for s, t in zip(tracer.spans, selfs)
                     if s["name"] == metric.span
                     and all(s.get(a) == b for a, b in metric.match)]
            if not times:
                raise RuntimeError(f"no {metric.span} spans for {metric.name}")
            value = statistics.fmean(times) * _SCALE[metric.unit]
        out[metric.name] = {"value": value, "unit": metric.unit}
    return out


def cold_build_seconds(spans) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans
               if s["name"] == "kernels.single_level_program") * 1e-9
