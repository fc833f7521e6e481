import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qoverlap

MODULES = [qoverlap] + [
    importlib.import_module(f"qoverlap.{info.name}")
    for info in pkgutil.iter_modules(qoverlap.__path__)
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    """A deletion must take its ``__all__`` entry with it."""
    missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert not missing, f"{module.__name__}.__all__ names undefined {missing}"


_CACHES_AFTER_IMPORT = """
import json, sys
import qoverlap.cli
sizes = {
    f"{name}.{attr}": fn.cache_info().currsize
    for name, module in sorted(sys.modules.items()) if name.startswith("qoverlap")
    for attr, fn in vars(module).items()
    if hasattr(fn, "cache_info") and getattr(fn, "__module__", None) == name
}
print(json.dumps(sizes))
"""


def test_cli_import_builds_no_cache():
    """Importing the CLI compiles no ring and builds no program or parser: all wait for first use."""
    src = str(Path(qoverlap.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-c", _CACHES_AFTER_IMPORT], env=env, check=True, capture_output=True, text=True
    )
    sizes = json.loads(done.stdout)
    assert {
        "qoverlap.graphs._ring_chain",
        "qoverlap.graphs._ring_plan",
        "qoverlap.cli._parser",
    } <= set(sizes)
    assert not any(sizes.values()), sizes


def _places(text: str) -> set[tuple[str, str | None]]:
    """(file, innermost enclosing function or None) of every package line containing ``text``."""
    places = set()
    for path in sorted(Path(qoverlap.__file__).resolve().parent.rglob("*.py")):
        source = path.read_text()
        defs = [n for n in ast.walk(ast.parse(source)) if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for lineno, line in enumerate(source.splitlines(), 1):
            if text in line:
                inner = [d.name for d in defs if d.lineno <= lineno <= d.end_lineno]  # outermost first
                places.add((path.name, inner[-1] if inner else None))
    return places


def test_einsum_path_only_in_the_contraction_engine():
    """The contraction engine is the ring products, which plan no einsum: ``einsum_path`` appears nowhere in the package."""
    assert _places("einsum_path") == set()


def test_one_ring_walk():
    """``graphs._ring_chain`` is the package's only ring walk: the step that leaves a copy through
    its other mode is written there alone, and neither ``interferometer.py`` nor ``derive.py``
    defines a ring compiler of its own."""
    assert _places("^ 1") == {("graphs.py", "_ring_chain")}
    root = Path(qoverlap.__file__).resolve().parent
    for name in ("interferometer.py", "derive.py"):
        defined = {
            node.name
            for node in ast.walk(ast.parse((root / name).read_text()))
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        }
        assert not defined & {
            "_ring_chain", "_pattern_chain", "_Chain", "_ring_halves", "_ring_plan", "_ring_sums",
            "_ChainStack", "_stack_chains", "_ring_products",
        }, name


def test_one_quartic_solver_and_one_least_squares_solve():
    """Quartics go through ``overlaps.characteristic_roots``, never ``np.roots`` and
    never a companion eigensolve; the only ``lstsq`` is the trace-kernel solve of
    ``derive._matching_kernel``."""
    assert _places("np.roots") == set()
    assert _places("eigvals(") == _places("linalg.eig(") == set()
    assert _places("lstsq") == {("derive.py", "_matching_kernel")}


def test_overlap_route_makes_no_contraction():
    """Overlap words are star products of correlation matrices: ``overlaps.py`` calls no
    ``probability_batch(``, whose planned contractions serve the graph probabilities only."""
    assert {place for place in _places("probability_batch(") if place[0] == "overlaps.py"} == set()


def test_one_pattern_path():
    """Patterns come from ``graphs.pattern_rows`` alone: ``interferometer.py`` calls no ``einsum`` or
    ``matmul``, multiplies matrices with ``@`` only in the dense cross-check and the delta-method
    statistics, and imports no private name from ``graphs``."""
    source = (Path(qoverlap.__file__).resolve().parent / "interferometer.py").read_text()
    assert "einsum" not in source and "matmul" not in source
    tree = ast.parse(source)
    defs = [n for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)]
    products = {
        max((d for d in defs if d.lineno <= node.lineno <= d.end_lineno), key=lambda d: d.lineno, default=None)
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
    }
    assert {d.name for d in products if d is not None} == {
        "graph_probability", "_stat_values", "_linear_stat", "_o12_plus_root", "estimate_distances",
    }
    assert None not in products
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom) and n.module == "graphs" for a in n.names]
    assert "pattern_rows" in imported
    assert not [name for name in imported if name.startswith("_")], imported


def test_no_module_level_cache_dict():
    """Caches are ``functools.lru_cache`` functions: no module binds a dict it fills at run time."""
    found = []
    for path in sorted(Path(qoverlap.__file__).resolve().parent.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
            value = node.value
            empty = (isinstance(value, ast.Dict) and not value.keys) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", None) == "dict" and not value.args
            )
            if empty or any("cache" in name.lower() for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert not found, found


def _package_imports() -> dict[str, list[tuple[str, bool]]]:
    """Per package module, the package modules it imports and whether each import sits in a function.

    ``from . import x`` and ``from .x import y`` both count as importing
    ``qoverlap.x``; ``from qoverlap import x`` likewise.
    """
    root = Path(qoverlap.__file__).resolve().parent
    modules = {p.stem for p in root.glob("*.py")}
    graph = {}
    for path in sorted(root.glob("*.py")):
        name = "qoverlap" if path.stem == "__init__" else f"qoverlap.{path.stem}"
        tree = ast.parse(path.read_text())
        in_function = {
            id(node)
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
            for node in ast.walk(fn)
        }
        edges = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["qoverlap", node.module])) if node.level else node.module or ""
                submodules = [f"{base}.{a.name}" for a in node.names if base == "qoverlap" and a.name in modules]
                targets = submodules or [base]
            else:
                continue
            edges += [(t, id(node) in in_function) for t in targets if t.split(".")[0] == "qoverlap"]
        graph[name] = edges
    return graph


def test_no_package_import_inside_a_function():
    """Every module imports the package's modules at its top, so the import order is the module graph."""
    inside = sorted((name, target) for name, edges in _package_imports().items() for target, nested in edges if nested)
    assert not inside, inside


def test_module_import_graph_has_no_cycle():
    """The package's modules import one another in layers: no module reaches itself through its imports."""
    graph = {name: {target for target, _ in edges} for name, edges in _package_imports().items()}
    assert "qoverlap.interferometer" in graph["qoverlap.derive"]
    done, path = set(), []

    def visit(name):
        if name in path:
            raise AssertionError(f"import cycle: {' -> '.join(path[path.index(name):] + [name])}")
        if name in done:
            return
        path.append(name)
        for target in sorted(graph.get(name, ())):
            visit(target)
        path.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


DECLARED = {"numpy", "pytest", "hypothesis", "qoverlap"}


def test_imports_only_declared_dependencies():
    """``src/`` and ``tests/`` import the standard library, the declared packages and the tests'
    own helper modules only: scipy or mpmath may be installed, but ``pyproject.toml`` does not
    declare them."""
    root = Path(__file__).resolve().parent.parent
    helpers = {path.stem for path in (root / "tests").glob("*.py")}
    found = set()
    for path in sorted([*(root / "src").rglob("*.py"), *(root / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                tops = ["qoverlap" if node.level else node.module.split(".")[0]]
            else:
                continue
            found |= {(path.relative_to(root).as_posix(), top) for top in tops}
    allowed = sys.stdlib_module_names | DECLARED
    undeclared = sorted(
        (f, top) for f, top in found if top not in allowed | (helpers if f.startswith("tests/") else set())
    )
    assert not undeclared, undeclared
