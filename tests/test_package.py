"""Properties of the package as a whole."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "labelweight_hss"


def _nodes():
    """(module file name, node) for every AST node of the package's modules."""
    modules = sorted(PACKAGE.glob("*.py"))
    assert len(modules) > 5
    for path in modules:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            yield path.name, node


def test_no_module_imports_numpy():
    """Importing numpy adds about 11 MB of resident memory, a third of the
    peak of a small scheme's whole run, so the package keeps to pure
    Python; only tests and benchmarks may use numpy."""
    for name, node in _nodes():
        if isinstance(node, ast.Import):
            imported = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imported = [node.module or ""]
        else:
            continue
        assert all(module.partition(".")[0] != "numpy" for module in imported), f"{name} imports numpy"


def test_no_module_has_an_assert_statement():
    """Runtime invariants are explicit checks that raise a package error:
    ``python -O`` strips assert statements."""
    for name, node in _nodes():
        assert not isinstance(node, ast.Assert), f"{name}:{node.lineno} has an assert statement"


def _name(node) -> str | None:
    """The name a Name or Attribute node reads, else None."""
    return node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None


def test_only_the_budget_module_raises_the_budget_error():
    """Every enumeration gate is budget.check: one message, one override."""
    for name, node in _nodes():
        if isinstance(node, ast.Call) and _name(node.func) == "EnumerationBudgetExceeded":
            assert name == "budget.py", f"{name}:{node.lineno} constructs EnumerationBudgetExceeded"


def test_only_codes_calls_the_enumeration_kernel():
    """codes.span_labelweight is the one entry to kernels.min_labelweight,
    so the budget gate and the label layout have one home."""
    for name, node in _nodes():
        if _name(node) == "min_labelweight" or isinstance(node, ast.alias) and node.name == "min_labelweight":
            assert name in ("codes.py", "kernels.py"), f"{name}:{node.lineno} references min_labelweight"


def test_only_galois_reads_the_field_order_limit():
    """galois.require_table_order is the one test of q against 256, which
    FieldSpec.codes and FieldSpec.concat apply to every run of element
    codes, so the limit has one home."""
    for name, node in _nodes():
        if _name(node) == "MAX_TABLE_ORDER" or isinstance(node, ast.alias) and node.name == "MAX_TABLE_ORDER":
            assert name == "galois.py", f"{name}:{node.lineno} reads MAX_TABLE_ORDER"


TESTS = Path(__file__).resolve().parent
BENCHMARKS = TESTS.parent / "benchmarks"


def test_every_oracle_is_reachable_from_a_test_or_a_benchmark():
    """Every top-level function and class of tests/oracles.py is read as
    ``oracles.<name>`` or imported by name in a test module or a
    benchmarks/ script, or named by another oracle that is, so a
    retired reference cannot linger as a link that nothing reads."""
    tree = ast.parse((TESTS / "oracles.py").read_text(encoding="utf-8"))
    defs = {node.name: node for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    reached = set()
    for path in [*TESTS.glob("test_*.py"), *BENCHMARKS.glob("*.py")]:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "oracles":
                reached.add(node.attr)
            elif isinstance(node, ast.ImportFrom) and node.module == "oracles":
                reached.update(alias.name for alias in node.names)
    todo = list(reached & defs.keys())
    while todo:
        for node in ast.walk(defs[todo.pop()]):
            if isinstance(node, ast.Name) and node.id in defs and node.id not in reached:
                reached.add(node.id)
                todo.append(node.id)
    assert sorted(defs.keys() - reached) == []
