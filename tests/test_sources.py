from __future__ import annotations

import ast
from pathlib import Path

import coslie

SOURCES = sorted(Path(coslie.__file__).parent.glob("*.py"))


def imports_random(tree: ast.AST) -> bool:
    """True if the module imports ``random`` by ``import``, ``from ...
    import`` or ``__import__("random")``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            if any(a.name.split(".")[0] == "random" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and (node.module or "").split(".")[0] == "random":
                return True
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "__import__"
            and node.args
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "random"
        ):
            return True
    return False


def test_the_scan_sees_every_import_form():
    for text in (
        "import random",
        "import os, random as r",
        "from random import Random",
        "def f():\n    return __import__('random').Random(1)",
    ):
        assert imports_random(ast.parse(text)), text
    for text in ("import randomness", "from . import random_tools", "x = 'random'"):
        assert not imports_random(ast.parse(text)), text


def test_no_module_but_verify_samples_at_random():
    """Every verdict of the engine is exact, so no module imports ``random``.

    ``verify.py`` is the one exception, until an exact test replaces the
    nondegeneracy policy of ``catalog verify-all``, which still accepts a
    printed condition as vanishing-equivalent to the computed volume after
    comparing them at seeded sample points.
    """
    assert len(SOURCES) > 1
    offenders = [
        p.name
        for p in SOURCES
        if p.name != "verify.py" and imports_random(ast.parse(p.read_text(encoding="utf-8")))
    ]
    assert offenders == []
