"""The timed phases of a run: products in process, and CLI children.

Both are made of whole rounds.  A round touches every matrix (or document)
once per route; a longer run adds rounds, never a partial one.  Garbage is
collected before each round.
"""

from __future__ import annotations

import contextlib
import gc
import json
import re
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import cases
import reference

ROUTES = ("program", "direct")
CHILD_TIMEOUT_S = 90


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

@dataclass
class ChildRun:
    code: int
    wall_s: float
    stdout: str
    stderr: str


def run_child(argv, workdir: Path) -> ChildRun:
    """Run one child to its end; wall time from spawn to exit.

    The wait blocks until the child exits, and a timer kills a child that
    runs past ``CHILD_TIMEOUT_S``.  ``Popen.wait(timeout=...)`` would poll
    with sleeps of up to 50 ms and so round every wall time up to the next
    poll.
    """
    out_path, err_path = workdir / "child.out", workdir / "child.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err,
                                env=cases.child_env(), cwd=cases.ROOT)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            proc.wait()
        finally:
            timer.cancel()
            timer.join()
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        wall = time.perf_counter() - t0
    return ChildRun(proc.returncode, wall, out_path.read_text(), err_path.read_text())


def run_helper(mode, workload, seed, workdir) -> dict:
    """One ``child.py`` measurement in a fresh process."""
    child = run_child([sys.executable, str(Path(__file__).with_name("child.py")),
                       mode, workload, str(seed)], workdir)
    if child.code != 0:
        raise RuntimeError(f"child.py {mode} exited {child.code}: {child.stderr[-2000:]}")
    return json.loads(child.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------
# products in process
# ---------------------------------------------------------------------------

class Library:
    """Built matrices of one workload with their expected products."""

    def __init__(self, sm, matrices, reps, programs, repeat, host=None):
        self.sm = sm
        self.host = host
        self.matrices = matrices
        self.reps = reps
        self.programs = programs
        self.repeat = repeat
        self.rounds = 0
        self.samples = {route: [] for route in ROUTES}
        self.counts = [reference.closed_form_count(c.levels) for c in matrices]
        self.expected = []
        for case in matrices:
            d = reference.dense(case.levels)
            self.expected.append([d @ v for v in case.vectors])

    def layer(self, route, k) -> str:
        if route == "program":
            return "bilinear.apply"
        if self.matrices[k].structure == "multilevel":
            return "multilevel.multilevel_matvec_direct"
        return "kernels.direct_matvec"

    def check(self, checker, route, k, which, out):
        label = f"{self.matrices[k].spec} {route}"
        if isinstance(out, Exception):
            return checker.error("product", label, repr(out))
        result, count = out
        return checker.product(label, result, count, self.expected[k][which],
                               self.counts[k])

    def attempt(self, route, k, v):
        """One product as ``(result, count)``, or the exception it raised."""
        try:
            if route == "program":
                program, params = self.programs[k]
                return self.sm.bilinear.apply(program, params, v)
            return cases.direct_product(self.sm, self.reps[k], v)
        except Exception as exc:  # counted as a failed operation
            return exc

    def round(self, checker, tracer=None):
        """One block of ``repeat[route]`` products on every matrix per route
        (which route goes first alternates); each block is one sample.
        With a tracer, each product is an operation whose child span is
        the layer call.  With a host reference, a reference block comes
        first."""
        gc.collect()
        if self.host is not None:
            self.host.block()
        for route in (ROUTES if self.rounds % 2 == 0 else ROUTES[::-1]):
            jobs = [(k, (self.rounds * self.repeat[route] + r) % len(case.vectors))
                    for r in range(self.repeat[route])
                    for k, case in enumerate(self.matrices)]
            self.samples[route].append(self._block(route, jobs, checker, tracer))
        self.rounds += 1

    def _block(self, route, jobs, checker, tracer) -> float:
        """Seconds for one block of products, checked after the clock stops."""
        outs = []
        t0 = time.perf_counter()
        if tracer is None:
            for k, which in jobs:
                outs.append(self.attempt(route, k, self.matrices[k].vectors[which]))
        else:
            for k, which in jobs:
                case = self.matrices[k]
                with tracer.op("bench.product", case=case.spec, route=route):
                    with tracer.span(self.layer(route, k), structure=case.structure):
                        outs.append(self.attempt(route, k, case.vectors[which]))
        seconds = time.perf_counter() - t0
        for (k, which), out in zip(jobs, outs):
            self.check(checker, route, k, which, out)
        return seconds

    def rates(self) -> dict:
        """Products per second by route, at the median block time."""
        return {route: self.repeat[route] * len(self.reps)
                / statistics.median(self.samples[route]) for route in ROUTES}


# ---------------------------------------------------------------------------
# CLI children
# ---------------------------------------------------------------------------

_COUNT_LINE = re.compile(r"^(theoretical|program|direct) count:\s+(\d+)$", re.M)


def check_apply(checker, label, child: ChildRun, out_path: Path, want, want_count):
    """Exit 0, then the product in the output file and the count on stderr."""
    if child.code != 0:
        return checker.error("cli", label, f"exit {child.code}: {child.stderr[-300:]}")
    try:
        doc = json.loads(out_path.read_text())
        got = [complex(re_, im) for re_, im in doc["v"]]
        count = int(re.search(r"multiplications:\s*(\d+)", child.stderr).group(1))
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        return checker.record("cli", label, f"unreadable output: {exc!r}")
    return checker.product(label, got, count, want, want_count, kind="cli")


def check_verify(checker, label, child: ChildRun, want_count):
    """Exit 0, ``PASS`` last, and all three counts equal to the closed form.
    Exit 1 is a verification failure, any other code no answer at all."""
    if child.code not in (0, 1):
        return checker.error("cli", label, f"exit {child.code}: {child.stderr[-300:]}")
    lines = child.stdout.strip().splitlines()
    counts = {name: int(value) for name, value in _COUNT_LINE.findall(child.stdout)}
    if child.code != 0 or not lines or lines[-1] != "PASS":
        problem = f"exit {child.code}, last line {lines[-1] if lines else ''!r}"
    elif counts != {name: want_count for name in ("theoretical", "program", "direct")}:
        problem = f"counts {counts} != {want_count}"
    else:
        problem = None
    return checker.record("cli", label, problem)


# Runs ``python -m structmv`` and then reports the peak resident set of the
# new process image alone.  The child's rusage would not do: it also counts
# the parent's pages at spawn time, since vfork shares them until exec.
_PEAK_WRAPPER = """\
import runpy, sys
try:
    runpy.run_module("structmv", run_name="__main__", alter_sys=True)
finally:
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    sys.stderr.write("peak-rss-kb: " + hwm.split()[1] + "\\n")
"""
_PEAK_LINE = re.compile(r"^peak-rss-kb: (\d+)$", re.M)


def peak_mb(child: ChildRun) -> float:
    """Peak resident set that a child started with ``report_peak`` wrote."""
    return int(_PEAK_LINE.search(child.stderr).group(1)) / 1024


class Cli:
    """The workload's documents on disk, with their expected products.
    With ``report_peak`` each child also reports its peak resident set;
    with ``spawn_argv`` a reference child runs before each document's
    children (see host.py)."""

    def __init__(self, docs, workdir: Path, report_peak=False, spawn_argv=None):
        self.docs = docs
        self.workdir = workdir
        self.spawn_argv = spawn_argv
        self.spawns = []
        self.command = [sys.executable] + (["-c", _PEAK_WRAPPER] if report_peak
                                           else ["-m", "structmv"])
        self.paths = cases.write_docs(docs, workdir)
        self.rounds = 0
        self.applies = {}
        self.verifies = {}
        self.children = []
        self.counts = [reference.closed_form_count(c.levels) for c in docs]
        self.expected = [reference.dense(c.levels) @ c.vectors[0] for c in docs]

    def apply(self, checker, k, method) -> ChildRun:
        mpath, vpath = self.paths[k]
        out_path = self.workdir / "apply.json"
        out_path.unlink(missing_ok=True)
        child = run_child(self.command + ["apply", str(mpath), str(vpath),
                                          "--method", method, "-o", str(out_path)],
                          self.workdir)
        check_apply(checker, f"apply {self.docs[k].spec} {method}", child, out_path,
                    self.expected[k], self.counts[k])
        return child

    def verify(self, checker, k) -> ChildRun:
        mpath, vpath = self.paths[k]
        child = run_child(self.command + ["verify", str(mpath), str(vpath)],
                          self.workdir)
        check_verify(checker, f"verify {self.docs[k].spec}", child, self.counts[k])
        return child

    def round(self, checker, tracer=None):
        """Per document, ``apply`` by both methods (which goes first
        alternates) and one ``verify``."""
        gc.collect()
        for k, case in enumerate(self.docs):
            if self.spawn_argv is not None:
                self.spawns.append(self.spawn())
            methods = ROUTES if (self.rounds + k) % 2 == 0 else ROUTES[::-1]
            for method in methods:
                with _op(tracer, "cli.apply", case=case.spec, method=method):
                    child = self.apply(checker, k, method)
                self.applies.setdefault((k, method), []).append(child.wall_s)
                self.children.append(child)
            with _op(tracer, "cli.verify", case=case.spec):
                child = self.verify(checker, k)
            self.verifies.setdefault(k, []).append(child.wall_s)
            self.children.append(child)
        self.rounds += 1

    def spawn(self) -> float:
        """Wall seconds of one reference child, which must exit 0."""
        child = run_child(list(self.spawn_argv), self.workdir)
        if child.code != 0:
            raise RuntimeError(f"reference child exited {child.code}: "
                               f"{child.stderr[-2000:]}")
        return child.wall_s

    def times(self) -> dict:
        """``apply_s``: the mean over (document, method) of the faster-half
        mean of its wall seconds over rounds; ``verify_s``: the same over
        documents; ``spawn_s``: the faster-half mean of the reference
        children, if any ran."""
        out = {
            "apply_s": statistics.fmean(map(faster_half_mean, self.applies.values())),
            "verify_s": statistics.fmean(map(faster_half_mean, self.verifies.values())),
        }
        if self.spawns:
            out["spawn_s"] = faster_half_mean(self.spawns)
        return out


def faster_half_mean(samples) -> float:
    """Mean of the faster half of ``samples``, the middle one included.

    Other tenants' work only ever adds time to a child, one child at a
    time, so the faster half is what the CLI itself costs.  With four or
    five rounds per document, one or two slow children still moved the
    median; over simulated runs of four to eight rounds, this mean spread
    about half as much as the median.
    """
    ordered = sorted(samples)
    return statistics.fmean(ordered[:(len(ordered) + 1) // 2])


def _op(tracer, name, **attrs):
    return contextlib.nullcontext() if tracer is None else tracer.op(name, **attrs)


def measure(lib: Library, cli: Cli, library_rounds: int, seconds: float, checker):
    """Alternate ``library_rounds`` rounds of products with one CLI round,
    so that both kinds of sample spread over the whole run.  Cycles are
    whole; a new one starts while more than half a mean cycle is left, so
    a run lasts ``seconds`` on average."""
    start = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(library_rounds):
            lib.round(checker)
        cli.round(checker)
        cycles += 1
        elapsed = time.perf_counter() - start
        if seconds - elapsed <= elapsed / cycles / 2:
            return
