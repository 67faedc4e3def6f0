"""The modules import in one direction: the simulators know nothing of the
detector or of the Monte Carlo harness, and the detector nothing of the
harness, so a source's counting methods live in mc, not on simulate's
FieldSource.  Random draws enter in a few named places only, the
plaquettes are wound in one, and only the zeros command detects.  No
module keeps an import it does not use."""
import ast
import re
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


def test_only_the_zeros_command_detects():
    # no Monte Carlo path detects zeros: every lattice count reduces the
    # cells of one winding pass, and the detector reads one grid for
    # `gwhf zeros`
    assert _referrers("detect_zeros") == {"cli._cmd_zeros"}


def test_simulate_imports_neither_the_detector_nor_the_harness():
    imported = _imports("simulate")
    assert "gwhf.kernels" in imported  # relative imports are seen
    assert not imported & {"gwhf.zeros", "gwhf.mc"}


def test_the_detector_does_not_import_the_harness():
    imported = _imports("zeros")
    assert "gwhf.simulate" in imported
    assert "gwhf.mc" not in imported


def _unused_imports(path: Path) -> list[str]:
    """module:line name of every name an import statement in the module
    binds that the module never reads, does not list in __all__, and whose
    statement carries no `# noqa: F401`."""
    text = path.read_text()
    tree, lines = ast.parse(text), text.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)) and not any(
                re.search(r"#\s*noqa:.*\bF401\b", line)
                for line in lines[node.lineno - 1:node.end_lineno]):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    exported = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    return [f"{path.stem}:{line} {name}" for name, line in sorted(bound.items())
            if name not in read | exported]


def test_every_import_is_used():
    # a removal that leaves an import behind fails here: every imported name
    # is read, exported in __all__, or marked `# noqa: F401` where it stays
    # on purpose (mc's detect_zeros, which the bench looks up there)
    assert [u for path in sorted(PACKAGE.glob("*.py")) for u in _unused_imports(path)] == []
