"""Structural guards on the source tree.

* No environment flags: nothing under ``src/repro`` reads ``os.environ``
  or ``os.getenv`` — engine choices that remain real live on
  ``UniCleanConfig``, which pickles to shard workers.
* The oracle is test-only: no module outside ``repro/oracle/`` imports
  ``repro.oracle``, and :func:`repro.oracle.reference_kernels` leaves
  every production seam as it found it.
"""

import ast
from pathlib import Path

import repro
from repro import oracle

SRC = Path(repro.__file__).resolve().parent
ORACLE = SRC / "oracle"


def _modules():
    for path in sorted(SRC.rglob("*.py")):
        yield path, ast.parse(path.read_text(), filename=str(path))


def test_no_module_reads_the_environment():
    offenders = []
    for path, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv"):
                offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
            elif isinstance(node, ast.ImportFrom) and node.module == "os":
                if any(a.name in ("environ", "getenv") for a in node.names):
                    offenders.append(f"{path.relative_to(SRC)}:{node.lineno}")
    assert offenders == []


def _imports_oracle(node) -> bool:
    if isinstance(node, ast.Import):
        return any(a.name.startswith("repro.oracle") for a in node.names)
    if isinstance(node, ast.ImportFrom) and node.level == 0:
        module = node.module or ""
        if module.startswith("repro.oracle"):
            return True
        return module == "repro" and any(a.name == "oracle" for a in node.names)
    return False


def test_only_the_oracle_imports_the_oracle():
    offenders = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path, tree in _modules()
        if ORACLE not in path.parents
        for node in ast.walk(tree)
        if _imports_oracle(node)
    ]
    assert offenders == []


def test_reference_kernels_restore_the_production_seams():
    before = [(owner, name, vars(owner)[name]) for owner, name, _ in oracle._seams()]
    with oracle.reference_kernels():
        for (owner, name, _), (_, _, replacement) in zip(before, oracle._seams()):
            assert vars(owner)[name] is replacement
    for owner, name, production in before:
        assert vars(owner)[name] is production
