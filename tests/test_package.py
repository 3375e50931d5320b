"""The package's public names."""

import re
from pathlib import Path

import structmv as sm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_all_is_sorted_without_duplicates_and_resolves():
    assert sm.__all__ == sorted(set(sm.__all__))
    missing = [name for name in sm.__all__ if not hasattr(sm, name)]
    assert missing == []


def test_benchmark_names_resolve():
    # the benchmark reads these names off the package; removing one stops
    # its run, so each must resolve (cli is a submodule loaded on demand)
    import structmv.cli  # noqa: F401

    names = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        names.update(re.findall(r"\bsm\.([A-Za-z_][\w.]*\w)",
                                path.read_text()))
    assert len(names) >= 28
    missing = [name for name in sorted(names)
               if not _resolves(sm, name.split("."))]
    assert missing == []


def _resolves(obj, parts) -> bool:
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True
