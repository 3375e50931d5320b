"""The package's public names and import boundaries."""

import ast
import re
import sys
from pathlib import Path

import structmv as sm

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
PACKAGE = Path(__file__).resolve().parents[1] / "src" / "structmv"


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


def test_oracle_and_structures_import_no_program_code():
    # the oracle is ground truth for the programs, so it and the layouts it
    # reads stay independent of kernels, operators and the rest
    for name in ("oracle.py", "structures.py"):
        tree = ast.parse((PACKAGE / name).read_text())
        found = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                found.add("." * node.level + module if node.level
                          else module.split(".")[0])
        allowed = set(sys.stdlib_module_names) | {"numpy", ".structures"}
        assert found - allowed == set(), name


def test_multilevel_names_no_single_level_structure():
    # prepare encodes every level by its own program, so multilevel has no
    # branch on a level's structure
    single = {"ParamRep", "CirculantRep", "ToeplitzRep", "HankelRep",
              "SymmetricRep", "ToeplitzPlusHankelRep", "SparseRep"}
    tree = ast.parse((PACKAGE / "multilevel.py").read_text())
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree)
              if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert names & single == set()


def test_tph_program_builds_no_embedding_or_transform():
    # Toeplitz-plus-Hankel encodes its parameters with the Toeplitz
    # program's encoder, so its builder names neither the embedding nor a
    # transform of its own
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    body = next(node for node in tree.body if isinstance(node, ast.FunctionDef)
                and node.name == "tph_program")
    names = {node.id for node in ast.walk(body) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(body)
              if isinstance(node, ast.Attribute)}
    assert names & {"Fourier", "toeplitz_embedding"} == set()


def test_tph_and_the_embedding_restate_no_toeplitz_layout():
    # tph_program reads its transform order off the Toeplitz program, so
    # it multiplies no integer constant by n; toeplitz_embedding lays out
    # the first row by ToeplitzRep.entry
    tree = ast.parse((PACKAGE / "kernels.py").read_text())
    bodies = {node.name: node for node in tree.body
              if isinstance(node, ast.FunctionDef)}
    multiples = [
        ast.unparse(node) for node in ast.walk(bodies["tph_program"])
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
        and {_kind(node.left), _kind(node.right)} == {"int", "n"}]
    assert multiples == []
    names = {node.id for node in ast.walk(bodies["toeplitz_embedding"])
             if isinstance(node, ast.Name)}
    assert "ToeplitzRep" in names


def _kind(node) -> str:
    if isinstance(node, ast.Constant) and type(node.value) is int:
        return "int"
    return "n" if isinstance(node, ast.Name) and node.id == "n" else "other"
