"""Properties of the package as a whole."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labelweight_hss"


def test_no_module_imports_numpy():
    """Importing numpy adds about 11 MB of resident memory, a third of the
    peak of a small scheme's whole run, so the package keeps to pure
    Python; only tests and benchmarks may use numpy."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert all(name.partition(".")[0] != "numpy" for name in names), f"{path.name} imports numpy"
