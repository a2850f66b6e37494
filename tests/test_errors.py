"""One failure vocabulary: ``errors.py`` defines seven classes, every raise in
the package names one of them, and every invariant is named by a literal,
so the set of invariant names can be read off the source."""

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parents[1] / "src" / "condchan"
CLASSES = {
    "CondChanError",
    "UsageError",
    "DocumentSyntaxError",
    "ShapeMismatch",
    "SupportMismatch",
    "InvariantViolation",
    "NoConvergence",
}


def parsed_sources():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SOURCE.glob("*.py"))]


def raised_name(node: ast.Raise):
    """Name of the class a raise statement raises; None for a bare re-raise."""
    if node.exc is None:
        return None
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_errors_module_defines_exactly_the_seven_classes():
    tree = ast.parse((SOURCE / "errors.py").read_text(encoding="utf-8"))
    assert {node.name for node in tree.body if isinstance(node, ast.ClassDef)} == CLASSES


def test_every_raise_names_one_of_the_classes():
    stray = [
        (name, node.lineno, raised_name(node))
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Raise) and raised_name(node) is not None
        and raised_name(node) not in CLASSES
    ]
    # the one other raise: the console script ends the process with main's code
    assert [(name, exc) for name, _, exc in stray] == [("cli.py", "SystemExit")], stray


def test_every_invariant_is_named_by_a_string_literal():
    calls = [
        (name, node)
        for name, tree in parsed_sources()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        and node.func.id == "InvariantViolation"
    ]
    assert len(calls) > 20
    for name, call in calls:
        first = call.args[0] if call.args else None
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), (name, call.lineno)

