"""No dead exports: every public definition in src is used somewhere.

A module-level public function or class counts as used when another
part of the program names it: an identifier, attribute or import alias
in a ``src`` module, in ``tests/test_acceptance.py`` or in
``perfbench/*.py``, or a string constant there that equals the name (the
benchmark tracer builds some names from strings).  A name that only unit
tests reach belongs in the tests.
"""

import ast
import glob
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# ROADMAP item 2 builds the paper's certificate on it
UNUSED_BY_DESIGN = {"theorem_parameters"}


def _trees(pattern):
    for path in sorted(glob.glob(os.path.join(ROOT, pattern))):
        with open(path) as fh:
            yield ast.parse(fh.read(), path)


def _names(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def test_every_public_definition_in_src_is_used():
    src = list(_trees("src/rzeta/*.py"))
    public = {
        node.name
        for tree in src
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
    }
    readers = src + list(_trees("tests/test_acceptance.py"))
    readers += list(_trees("perfbench/*.py"))
    used = {name for tree in readers for name in _names(tree)}
    assert public - used == UNUSED_BY_DESIGN
