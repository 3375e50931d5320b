"""Fresh-process measurements, started by ``run.py`` one at a time.

    python3 perfbench/child.py setup|builds|maps WORKLOAD SEED

Each mode draws the run's inputs again from the seed, measures with cold
program caches, and prints one JSON object:

* ``setup``: seconds from the first call into structmv until every matrix
  has returned its first product by both routes;
* ``builds``: spans of cold ``kernels.single_level_program`` builds, one per
  single-level matrix or level;
* ``maps``: MB that tracemalloc still counts after every program is built.
"""

from __future__ import annotations

import gc
import json
import sys
import time
import tracemalloc

import cases
from spans import Tracer


def setup_seconds(sm, inputs) -> float:
    t0 = time.perf_counter()
    cases.set_up(sm, inputs.matrices)
    return time.perf_counter() - t0


def cold_builds(sm, inputs) -> list:
    tracer = Tracer()
    for case in inputs.matrices:
        rep = case.build(sm)
        levels = rep.levels if isinstance(rep, sm.MultilevelRep) else (rep,)
        for (level, _), level_rep in zip(case.levels, levels):
            with tracer.op("kernels.single_level_program", structure=level[0],
                           case=case.spec, cold=True):
                sm.kernels.single_level_program(level_rep)
    return tracer.spans


def maps_mb(sm, inputs) -> float:
    reps = [case.build(sm) for case in inputs.matrices]
    gc.collect()
    tracemalloc.start()
    programs = [cases.program_and_params(sm, rep) for rep in reps]  # noqa: F841
    gc.collect()
    held, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return held / 2**20


def main(argv) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    sm = cases.load_structmv()
    inputs = cases.draw_inputs(workload, seed)
    if mode == "setup":
        out = {"setup_s": setup_seconds(sm, inputs)}
    elif mode == "builds":
        out = {"spans": cold_builds(sm, inputs)}
    elif mode == "maps":
        out = {"maps_mb": maps_mb(sm, inputs)}
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
