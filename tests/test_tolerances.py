"""The tolerance policy is stated in one leaf module."""
import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "rbsde_lab"


def test_no_tolerance_literal_outside_the_tolerance_module():
    found = [
        f"{path.name}:{node.lineno}: {node.value!r}"
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "tolerances.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and isinstance(node.value, float) and 0.0 < abs(node.value) < 1e-2
    ]
    assert not found, found


def test_the_tolerance_module_imports_nothing_from_the_package():
    modules = []
    for node in ast.walk(ast.parse((PACKAGE / "tolerances.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            modules.append("." * node.level + (node.module or ""))
        elif isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
    assert not [m for m in modules if m.startswith(".") or m.split(".")[0] == "rbsde_lab"], modules
