"""The modules import in one direction: the simulators know nothing of the
detector or of the Monte Carlo harness, and the detector nothing of the
harness, so a source's counting methods live in mc, not on simulate's
FieldSource."""
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


def test_simulate_imports_neither_the_detector_nor_the_harness():
    imported = _imports("simulate")
    assert "gwhf.kernels" in imported  # relative imports are seen
    assert not imported & {"gwhf.zeros", "gwhf.mc"}


def test_the_detector_does_not_import_the_harness():
    imported = _imports("zeros")
    assert "gwhf.simulate" in imported
    assert "gwhf.mc" not in imported
