"""Every name a module of the package imports is used in that module."""

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
