"""Source checks over the modules of the package: every name a module imports
is used there, no refusal reads numpy's floating-point flags, and the pair
kernel imports no module of the package."""

import ast
import pathlib

import qubit_chaos

PACKAGE = pathlib.Path(qubit_chaos.__file__).parent

# (module, name): imported without a use in the module, for the caller named
ALLOWED = {
    ("atlas", "critical_orbits"),  # the benchmark's trace hooks patch atlas.critical_orbits
    ("orbits", "spherical_derivative"),  # the benchmark's trace hooks patch it on orbits
    # orbits re-exports the Lyapunov estimators for perfbench/wl_scalar.py, the
    # benchmark's trace hooks and tests/test_orbits.py
    ("orbits", "LyapunovEstimate"),
    ("orbits", "lyapunov_derivative"),
    ("orbits", "lyapunov_overlap"),
}


def _unused_imports(source: str) -> set[str]:
    """Names bound by the imports of ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys as s\nfrom math import pi, tau\n"
    assert _unused_imports(source + "print(os.sep, tau)\n") == {"s", "pi"}


def test_no_module_imports_a_name_it_does_not_use():
    unused = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
              for name in _unused_imports(path.read_text())}
    assert unused <= ALLOWED, sorted(unused - ALLOWED)
    # an allowlist entry whose import was used or deleted goes too
    assert unused == ALLOWED, sorted(ALLOWED - unused)


def _flag_reads(source: str) -> list[int]:
    """Lines of ``source`` that decide by numpy's floating-point flags: an
    ``errstate`` call with a keyword set to "raise", or an ``except`` clause
    naming FloatingPointError.  Which operations raise a flag can depend on
    numpy's SIMD loops, so a refusal decides by the values instead."""
    def name(node):
        return getattr(node, "attr", getattr(node, "id", None))

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and name(node.func) == "errstate":
            if any(isinstance(k.value, ast.Constant) and k.value.value == "raise"
                   for k in node.keywords):
                lines.append(node.lineno)
        elif isinstance(node, ast.ExceptHandler) and node.type is not None:
            types = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if any(name(t) == "FloatingPointError" for t in types):
                lines.append(node.lineno)
    return lines


def test_the_check_finds_a_flag_read():
    source = "\n".join([
        "with np.errstate(over='raise', invalid='ignore'): pass",
        "with np.errstate(divide='ignore'): pass",
        "with errstate(all='raise'): pass",
        "try: pass",
        "except (ValueError, FloatingPointError): pass",
        "try: pass",
        "except ValueError: pass",
    ])
    assert sorted(_flag_reads(source)) == [1, 3, 5]


def test_no_module_reads_floating_point_flags():
    reads = {path.stem: lines for path in sorted(PACKAGE.glob("*.py"))
             if (lines := _flag_reads(path.read_text()))}
    assert not reads, reads


def _package_imports(source: str) -> list[int]:
    """Lines of ``source`` that import a module of the package: a relative
    import, or an absolute one of ``qubit_chaos`` or below it."""
    def ours(name):
        return name is not None and name.split(".")[0] == "qubit_chaos"

    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and (node.level or ours(node.module)):
            lines.append(node.lineno)
        elif isinstance(node, ast.Import) and any(ours(a.name) for a in node.names):
            lines.append(node.lineno)
    return lines


def test_the_check_finds_a_package_import():
    source = "\n".join([
        "from .sphere import SpherePoint",
        "from . import orbits",
        "import qubit_chaos.sphere as sphere",
        "from qubit_chaos import atlas",
        "import numpy as np, qubit_chaos",
        "from __future__ import annotations",
        "import qubit_chaosx",
        "from math import inf",
    ])
    assert sorted(_package_imports(source)) == [1, 2, 3, 4, 5]


def test_the_kernel_imports_no_package_module():
    # the pair kernel is the bottom layer: every vector pipeline builds on it
    assert _package_imports((PACKAGE / "kernel.py").read_text()) == []
