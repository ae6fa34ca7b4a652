"""Every public name of the package has a user outside the tests.

A public top-level function or class of ``src/curveprob``, or a public
method of such a class, must be referenced in the package itself, in
``bench/`` or in ``tools/``: as a name, an attribute or a string (the bench
tracer wraps functions by name). A reference inside the definition itself
(recursion) and an import alone do not count. Code that only tests reach
belongs in the tests, as a reference implementation next to them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curveprob"

# hides the covariate coordinate layout from the tests that build samples
# from curve and covariate objects
ALLOWED = {"RegressionSample.from_pairs"}


def public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_names():
    """(file, qualified name, name) of each public definition of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in filter(public, ast.parse(path.read_text()).body):
            yield path, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield path, f"{node.name}.{item.name}", item.name


class References(ast.NodeVisitor):
    def __init__(self):
        self.names, self.inside = set(), []

    def visit_definition(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_ClassDef = visit_definition

    def add(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        self.add(node.id)

    def visit_Attribute(self, node):
        self.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.add(node.value)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def test_every_public_name_is_used_outside_the_tests():
    refs = References()
    for folder in ("src", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs.visit(ast.parse(path.read_text()))
    unused = [f"{path.relative_to(ROOT)}: {qualified}"
              for path, qualified, name in public_names()
              if name not in refs.names and qualified not in ALLOWED]
    assert unused == []
