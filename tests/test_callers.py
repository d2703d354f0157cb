"""Every function, class and method defined in robodet has a caller.

A name counts as called when it appears as a whole word in src/robodet or
perfbench/ anywhere but on its own ``def`` or ``class`` line.  The tests do
not count: code that only the tests run is code to delete.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "robodet"
SEARCHED = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py"))

# Kept without a caller, each for a reason given in ROADMAP.md.
ALLOWED = {"fold_batch_norm"}  # the inference plan's BN fold


def definitions():
    """(name, file, line) of every function, method and class in robodet."""
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield node.name, path, node.lineno


DEFINITIONS = [d for d in definitions()
               if not (d[0].startswith("__") and d[0].endswith("__"))]
LINES = {path: path.read_text().splitlines() for path in SEARCHED}


def uses(name, path, lineno):
    """(file, line) of each whole-word use of name but its definition."""
    word = re.compile(rf"\b{re.escape(name)}\b")
    return [(other, i) for other, lines in LINES.items()
            for i, line in enumerate(lines, start=1)
            if word.search(line) and (other, i) != (path, lineno)]


def test_definitions_are_found():
    names = {name for name, _, _ in DEFINITIONS}
    assert {"conv2d_forward", "ConvParams", "head_grid", "main"} <= names


def test_allowed_names_are_still_defined_and_uncalled():
    for name in ALLOWED:
        found = [d for d in DEFINITIONS if d[0] == name]
        assert found, f"{name} is no longer defined; drop it from ALLOWED"
        assert not uses(*found[0]), f"{name} has a caller now; drop it from ALLOWED"


CHECKED = [d for d in DEFINITIONS if d[0] not in ALLOWED]


@pytest.mark.parametrize("name, path, lineno", CHECKED,
                         ids=[f"{p.stem}.{n}" for n, p, _ in CHECKED])
def test_has_a_caller(name, path, lineno):
    assert uses(name, path, lineno), (
        f"{path.name}:{lineno}: {name} is used nowhere in src/robodet or perfbench/")
