"""Workloads: which matrices, vectors and CLI documents a run uses.

A case is written as a compact spec: ``C`` circulant, ``T`` Toeplitz, ``H``
Hankel, ``S`` symmetric, ``TpH`` Toeplitz-plus-Hankel and ``Sp`` sparse,
each followed by its order; a sparse level also names its support size
after ``@``.  Levels joined by ``x`` form a multilevel (Kronecker) matrix,
so ``T16xC16xH4`` is T16 (x) C16 (x) H4.  Every parameter, support and
vector is drawn from one numpy generator seeded with the run's seed, in a
fixed order, so a seed fixes the inputs; orders and support sizes never
depend on the seed, so neither do the amounts of work.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# vectors per timed case; products cycle through them
VECTORS_PER_CASE = 2

_TAGS = {
    "C": "circulant",
    "T": "toeplitz",
    "H": "hankel",
    "S": "symmetric",
    "TpH": "toeplitz_plus_hankel",
    "Sp": "sparse",
}
_LEVEL = re.compile(r"^(TpH|Sp|C|T|H|S)(\d+)(?:@(\d+))?$")


@dataclass(frozen=True)
class Workload:
    """Timed matrices and CLI documents.  ``repeat`` is the products per
    matrix and route in one round; ``library_rounds`` the rounds of products
    between two CLI rounds, a fifth to a half as long as a CLI round: the
    rates come from thirty or more rounds, the CLI times from three or more
    per document.  ``setup_samples`` set-ups are timed per run, more where a
    set-up is short.  ``direct_kinds`` names the reference kernels (see
    host.py) of the work that carries the workload's direct route; its
    rate is scaled by their slowdown."""

    matrices: tuple
    docs: tuple
    repeat: dict
    library_rounds: int
    setup_samples: int
    direct_kinds: tuple
    why: str


WORKLOADS = {
    # Orders in the hundreds: the transforms and the Toeplitz embedding carry
    # the direct route, the dense maps carry the program route.  TpH1024
    # would need about 9 s and 1.2 GB to build, so 512 is the top order.
    "fft-1d": Workload(
        matrices=("C512", "T512", "H512", "TpH512"),
        docs=("C512", "T256", "H256", "TpH128"),
        repeat={"program": 2, "direct": 1},
        library_rounds=12,
        setup_samples=3,
        # products with dense Fourier matrices of up to 16 MB
        direct_kinds=("memory", "blas"),
        why="orders 512: transforms and embedding drive the direct route, "
            "dense maps the program route",
    ),
    # The shell peel and the support loop are Python-bound kernels code with
    # little transform work; symmetric_shell_maps(64) dominates set-up.
    # Support sizes stay small because sparse_program stores an nnz x nnz
    # identity map.
    "peel-sparse": Workload(
        matrices=("S32", "S64", "Sp256@1311", "Sp224@1505"),
        docs=("S32", "S16", "Sp256@1311", "Sp96@276"),
        repeat={"program": 2, "direct": 3},
        library_rounds=16,
        setup_samples=3,
        # the shell peel and the support loop run in the interpreter
        direct_kinds=("python",),
        why="symmetric shell peel and sparse support loop: Python-bound "
            "kernels code with little FFT work",
    ),
    # multilevel and bilinear.kron do the work; 1-D transforms stay at
    # orders of 64 or less.  The last three put every other structure at
    # the head.
    "kron": Workload(
        matrices=("C32xC32", "T16xT16", "H16xH16", "T16xC16xH4",
                  "C8xC8xC8xC2", "S8xT16", "Sp16@64xC16", "TpH8xT8"),
        docs=("T8xC8xH4", "C4xC4xC4xC2", "S4xT8", "TpH4xSp8@16"),
        repeat={"program": 1, "direct": 8},
        library_rounds=10,
        setup_samples=7,
        # a loop over the levels around small transforms and products
        direct_kinds=("python", "blas"),
        why="Kronecker products of small levels: multilevel and "
            "bilinear.kron work, transforms of order 64 or less",
    ),
}

# one small matrix per structure, timed per layer only on workloads that
# have no matrix of that structure, so every per-layer metric is measured
PROBES = ("C8", "T8", "H8", "S8", "TpH8", "Sp8@16", "C2xC2")


def parse_spec(spec: str) -> list:
    """``'T16xSp8@16'`` -> ``[('toeplitz', 16, None), ('sparse', 8, 16)]``."""
    levels = []
    for part in spec.split("x"):
        match = _LEVEL.match(part)
        if match is None:
            raise ValueError(f"bad case spec {spec!r}")
        tag, n, nnz = match.groups()
        levels.append((_TAGS[tag], int(n), int(nnz) if nnz else None))
    return levels


def order_of(spec: str) -> int:
    out = 1
    for _, n, _ in parse_spec(spec):
        out *= n
    return out


def _gaussian(rng, size) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def draw_level(rng, structure, n, nnz):
    """Raw inputs of one level: a parameter array, a (t, h) pair, or a
    (support, values) pair."""
    if structure == "circulant":
        return _gaussian(rng, n)
    if structure in ("toeplitz", "hankel"):
        return _gaussian(rng, 2 * n - 1)
    if structure == "symmetric":
        return _gaussian(rng, n * (n + 1) // 2)
    if structure == "toeplitz_plus_hankel":
        return _gaussian(rng, 2 * n - 1), _gaussian(rng, 2 * n - 1)
    flat = np.sort(rng.choice(n * n, size=nnz, replace=False))
    support = tuple((int(k // n), int(k % n)) for k in flat)
    return support, _gaussian(rng, nnz)


@dataclass(frozen=True, eq=False)
class Case:
    """One matrix: its spec, raw inputs per level, and product vectors."""

    spec: str
    levels: tuple  # ((structure, n, nnz), raw) per level
    vectors: tuple

    @property
    def structure(self) -> str:
        return self.levels[0][0][0] if len(self.levels) == 1 else "multilevel"

    def build(self, sm):
        """The representation, through structmv's public constructors."""
        reps = [_build_level(sm, s, n, raw) for (s, n, _), raw in self.levels]
        return reps[0] if len(reps) == 1 else sm.MultilevelRep(tuple(reps))


def _build_level(sm, structure, n, raw):
    if structure == "circulant":
        return sm.CirculantRep(n, raw)
    if structure == "toeplitz":
        return sm.ToeplitzRep(n, raw)
    if structure == "hankel":
        return sm.HankelRep(n, raw)
    if structure == "symmetric":
        return sm.SymmetricRep(n, raw)
    if structure == "toeplitz_plus_hankel":
        return sm.ToeplitzPlusHankelRep(sm.ToeplitzRep(n, raw[0]),
                                        sm.HankelRep(n, raw[1]))
    return sm.SparseRep(sm.SparsityPattern(n, raw[0]), raw[1])


def draw_case(rng, spec, vectors=VECTORS_PER_CASE) -> Case:
    levels = tuple((lv, draw_level(rng, *lv)) for lv in parse_spec(spec))
    n = order_of(spec)
    return Case(spec, levels, tuple(_gaussian(rng, n) for _ in range(vectors)))


@dataclass(frozen=True)
class Inputs:
    workload: str
    matrices: tuple
    docs: tuple
    probes: tuple


def draw_inputs(workload: str, seed: int) -> Inputs:
    """Every input of one run, as a pure function of workload and seed."""
    w = WORKLOADS[workload]
    rng = np.random.default_rng(seed)
    matrices = tuple(draw_case(rng, s) for s in w.matrices)
    docs = tuple(draw_case(rng, s, vectors=1) for s in w.docs)
    probes = tuple(draw_case(rng, s, vectors=1) for s in PROBES)
    return Inputs(workload, matrices, docs, probes)


# ---------------------------------------------------------------------------
# the package under test
# ---------------------------------------------------------------------------

def load_structmv():
    """Import structmv from this checkout's ``src``, not from anywhere else."""
    if not (SRC / "structmv" / "__init__.py").is_file():
        raise ImportError(f"no structmv sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import structmv
    import structmv.cli  # noqa: F401  (the CLI layer is not imported by the package)

    if Path(structmv.__file__).resolve().parent != SRC / "structmv":
        raise ImportError(f"structmv was imported from {structmv.__file__}")
    return structmv


def child_env() -> dict:
    """Environment for every child process: ``src`` importable, BLAS and
    OpenMP pinned to one thread."""
    env = dict(os.environ)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + rest if rest else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def program_and_params(sm, rep):
    if isinstance(rep, sm.MultilevelRep):
        return sm.multilevel.multilevel_program(rep), sm.multilevel.param_vector(rep)
    return sm.kernels.single_level_program(rep), sm.kernels.single_level_params(rep)


def direct_product(sm, rep, v):
    if isinstance(rep, sm.MultilevelRep):
        return sm.multilevel.multilevel_matvec_direct(rep, v)
    return sm.kernels.direct_matvec(rep, v)


def set_up(sm, cases):
    """Build every case and take its first product by both routes.

    Returns ``(reps, programs, firsts)``; ``firsts`` holds, per case, the
    program and direct ``(result, count)`` pairs for its first vector.
    """
    reps, programs, firsts = [], [], []
    for case in cases:
        rep = case.build(sm)
        program, params = program_and_params(sm, rep)
        v = case.vectors[0]
        firsts.append((sm.bilinear.apply(program, params, v),
                       direct_product(sm, rep, v)))
        reps.append(rep)
        programs.append((program, params))
    return reps, programs, firsts


# ---------------------------------------------------------------------------
# CLI documents, in the file format of the project README
# ---------------------------------------------------------------------------

def _pairs(values) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(values, dtype=complex)]


def _level_obj(structure, n, raw) -> dict:
    if structure == "toeplitz_plus_hankel":
        return {"structure": structure, "n": n,
                "toeplitz": _pairs(raw[0]), "hankel": _pairs(raw[1])}
    if structure == "sparse":
        support, values = raw
        entries = [{"i": i, "j": j, "v": [float(z.real), float(z.imag)]}
                   for (i, j), z in zip(support, values)]
        return {"structure": structure, "n": n, "entries": entries}
    return {"structure": structure, "n": n, "param": _pairs(raw)}


def matrix_doc(case: Case) -> dict:
    objs = [_level_obj(s, n, raw) for (s, n, _), raw in case.levels]
    return objs[0] if len(objs) == 1 else {"structure": "multilevel", "levels": objs}


def vector_doc(v) -> dict:
    return {"n": len(v), "v": _pairs(v)}


def write_docs(cases, directory: Path) -> list:
    """Write each case's matrix and first vector; return the path pairs."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = []
    for k, case in enumerate(cases):
        mpath = directory / f"m{k}.json"
        vpath = directory / f"v{k}.json"
        mpath.write_text(json.dumps(matrix_doc(case)))
        vpath.write_text(json.dumps(vector_doc(case.vectors[0])))
        paths.append((mpath, vpath))
    return paths
