"""The modules import in one direction: the simulators know nothing of the
detector or of the Monte Carlo harness, and the detector nothing of the
harness, so a source's counting methods live in mc, not on simulate's
FieldSource.  Random draws enter in a few named places only, and the
plaquettes are wound in one."""
import ast
from pathlib import Path

import gwhf

PACKAGE = Path(gwhf.__file__).parent


def _imports(module: str) -> set[str]:
    """The modules a gwhf module names in any import statement, at any
    depth, relative ones resolved within the package."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = (f"gwhf.{node.module}" if node.module else "gwhf") if node.level \
                else node.module
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def _referrers(name: str) -> set[str]:
    """module.Class.function of every function or method of gwhf whose
    body names `name`, bare or as an attribute (module level is
    `module`)."""
    found = set()

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if (isinstance(child, ast.Name) and child.id == name
                    or isinstance(child, ast.Attribute) and child.attr == name):
                found.add(scope)
            visit(child, scope)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return found


def test_realizations_are_drawn_only_by_the_plans():
    # a realization enters a plan only through its draw(seed, rs), which
    # makes component k of realization r from stream(seed, r, k); the
    # Poisson control draws its points from the same streams
    draws = {"simulate.StftPlan.draw", "simulate.SeriesPlan.draw"}
    assert _referrers("complex_normals") == draws
    assert _referrers("stream") == draws | {"mc._PoissonControl._points"}


def test_every_lattice_count_winds_in_one_pass():
    # the detector's flagged cells and the Monte Carlo zero count both come
    # from zeros.cells, the one caller of the plaquette winding pass
    assert _referrers("_windings") == {"zeros.cells"}


def test_simulate_imports_neither_the_detector_nor_the_harness():
    imported = _imports("simulate")
    assert "gwhf.kernels" in imported  # relative imports are seen
    assert not imported & {"gwhf.zeros", "gwhf.mc"}


def test_the_detector_does_not_import_the_harness():
    imported = _imports("zeros")
    assert "gwhf.simulate" in imported
    assert "gwhf.mc" not in imported
