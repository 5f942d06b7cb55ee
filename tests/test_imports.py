"""Source checks over the modules of the package: every name a module imports
is used there, no refusal reads numpy's floating-point flags, the pair
kernel imports no module of the package, every parameter default is
overridden by some call, and every module constant is read by some code."""

import ast
import math
import pathlib
import re

import qubit_chaos

PACKAGE = pathlib.Path(qubit_chaos.__file__).parent
ROOT = pathlib.Path(__file__).resolve().parents[1]

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


def _defaulted_parameters(source: str) -> list[tuple[str, str, str, int | None]]:
    """(qualified name, called name, parameter, position) for each defaulted
    parameter of a top-level function or method of ``source``.  The
    position counts the arguments a call writes, so a method's first
    parameter (self or cls) is not one; it is None for a keyword-only one."""
    defs = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef):
            defs.append((node.name, node, 0))
        elif isinstance(node, ast.ClassDef):
            defs += [(f"{node.name}.{d.name}", d, 1) for d in node.body
                     if isinstance(d, ast.FunctionDef)]
    out = []
    for qualname, d, bound in defs:
        args = d.args.posonlyargs + d.args.args
        first = len(args) - len(d.args.defaults)
        out += [(qualname, d.name, a.arg, i - bound)
                for i, a in enumerate(args) if i >= first]
        out += [(qualname, d.name, a.arg, None)
                for a, v in zip(d.args.kwonlyargs, d.args.kw_defaults) if v is not None]
    return out


def _unpassed_defaults(package: dict[str, str], callers: list[str]) -> set[tuple[str, str]]:
    """("module.function", parameter) for each defaulted parameter of the
    ``package`` sources (module name -> source) that no call in ``callers``
    passes, by keyword or by position.  Calls match by the called name
    alone; one with ``*args`` fills every position and one with
    ``**kwargs`` names every keyword."""
    keywords, positions = {}, {}
    for source in callers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                keywords.setdefault(name, set()).update(k.arg for k in node.keywords)
                filled = (math.inf if any(isinstance(a, ast.Starred) for a in node.args)
                          else len(node.args))
                positions[name] = max(positions.get(name, 0), filled)
    return {(f"{module}.{qualname}", arg) for module, source in package.items()
            for qualname, name, arg, i in _defaulted_parameters(source)
            if not ({arg, None} & keywords.get(name, set())
                    or (i is not None and i < positions.get(name, 0)))}


def test_the_check_finds_a_default_no_call_sets():
    package = {"m": "\n".join([
        "def f(a, b=1, c=2, *, d=3, e=4): pass",
        "class C:",
        "    def g(self, x=0, y=1): pass",
        "def h(u=0): pass",
        "def k(v=0): pass",
        "def outer():",
        "    def inner(w=0): pass",
    ])}
    callers = [
        "f(0, 1, e=5)",  # b by position, e by keyword
        "C().g(7)",  # x by position: self is no call argument
        "h(*args)",  # *args may fill any position
        "k(**opts)",  # **opts may name any keyword
    ]
    assert _unpassed_defaults(package, callers) == {
        ("m.f", "c"), ("m.f", "d"), ("m.C.g", "y")}


def _callers(*tops: str) -> list[str]:
    return [path.read_text() for top in tops for path in sorted((ROOT / top).rglob("*.py"))]


def test_every_parameter_default_is_overridden():
    # a default that no call in the repository overrides is an option with
    # one value in use: it is a constant beside the code that reads it
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unpassed_defaults(package, _callers("src", "tests", "perfbench")) == set()


# ("module.function", parameter): a default that only tests override, with
# the reason it stays an option of the library
TEST_ONLY_DEFAULTS = {
    ("atlas.render_julia", "cycles"): "targets other than the critical orbits' cycles",
    ("orbits.classify_basin", "cycles"): "targets other than the critical orbits' cycles",
    ("orbits.classify_basin", "eps"): "the capture radius, which sets what the certificate refuses",
    ("orbits.critical_orbits", "eps"): "the settling radius of the tail scan",
    ("orbits.critical_orbits", "max_iter"): "the step budget before a verdict is withheld",
    ("orbits.critical_orbits", "max_period"): "the longest cycle the tail scan looks for",
    ("orbits.detect_cycle", "eps"): "the settling radius, for an orbit of the caller's own",
    ("orbits.detect_cycle", "max_period"): "the longest cycle, bounded by the orbit's length",
    ("orbits.Cycle.matches", "tol"): "how close two found cycles must be to be one",
    ("roots.aberth_roots", "max_iter"): "the sweep budget before a solve is refused",
}


def test_test_only_defaults_are_the_named_library_options():
    # a default that no call in src/ or perfbench/ overrides is set by tests
    # alone: a new one must be named above with its reason, or be a constant
    package = {path.stem: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _unpassed_defaults(package, _callers("src", "perfbench")) == set(TEST_ONLY_DEFAULTS)


def _constants(source: str) -> set[str]:
    """Names of the module-level UPPER_CASE constants that ``source`` assigns."""
    names = set()
    for node in ast.parse(source).body:
        targets = (node.targets if isinstance(node, ast.Assign)
                   else [node.target] if isinstance(node, ast.AnnAssign) else [])
        names.update(n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name) and re.fullmatch(r"[A-Z][A-Z0-9_]*", n.id))
    return names


def _read_names(source: str) -> set[str]:
    """Names that ``source`` reads, as a name or an attribute, and the names
    it imports from a module (by their own name, whatever binds them)."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(a.name for a in node.names)
    return names


def test_the_check_finds_a_constant_no_code_reads():
    source = "\n".join([
        "A = 1",
        "B: int = 2",
        "C, D = 3, 4",
        "E = 5",
        "lower = 6",
        "class K:",
        "    F = 7",
        "def f():",
        "    G = 8",
        "    return A + G",
    ])
    readers = ["import m\nprint(m.C)", "from m import D as d", "import m\nm.E = 0"]
    assert _constants(source) == {"A", "B", "C", "D", "E"}
    reads = set().union(*map(_read_names, [source, *readers]))
    assert _constants(source) - reads == {"B", "E"}


def test_every_module_constant_has_a_reader():
    # a constant that outlives the code that read it (a loop's chunk size,
    # a table only a test asserts) is dead: code in src/ or perfbench/ must
    # read it, not only a test
    constants = {(path.stem, name) for path in sorted(PACKAGE.glob("*.py"))
                 for name in _constants(path.read_text())}
    reads = set().union(*map(_read_names, _callers("src", "perfbench")))
    assert {(module, name) for module, name in constants if name not in reads} == set()
