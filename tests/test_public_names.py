"""Every public name of the package has a user outside the tests.

A public top-level function or class of ``src/curveprob``, or a public
method of such a class, must be referenced in the package itself, in
``bench/`` or in ``tools/``: as a name, an attribute or a string (the bench
tracer wraps functions by name). A reference inside the definition itself
(recursion), a name that the enclosing function binds (a parameter or a
local of the same name), an attribute read off numpy (``np.add.at``) and an
import alone do not count. Likewise every
defaulted parameter of a public function must be passed, by keyword or by
position, by some call there. Code that only tests reach belongs in the
tests, as a reference implementation next to them.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "curveprob"
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

# hides the covariate coordinate layout from the tests that build samples
# from curve and covariate objects
ALLOWED = {"RegressionSample.from_pairs"}
# test seams: a finer search grid or bandwidth grid than the package uses
ALLOWED_DEFAULTS = {"ensemble_quantile.tol", "nw_select_bandwidth.grid"}


def public(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")


def public_definitions():
    """(file, qualified name, definition) of each public definition of the package."""
    for path in sorted(PACKAGE.rglob("*.py")):
        for node in filter(public, ast.parse(path.read_text()).body):
            yield path, node.name, node
            if isinstance(node, ast.ClassDef):
                for item in filter(public, node.body):
                    yield path, f"{node.name}.{item.name}", item


def bound_names(function) -> set:
    """The parameters of a function or lambda and the names it stores to,
    not counting those of functions and classes nested in it."""
    args = function.args
    names = {a.arg for a in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                             args.vararg, args.kwarg) if a}
    todo = list(function.body) if isinstance(function.body, list) else [function.body]
    while todo:
        node = todo.pop()
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        if not isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))
    return names


class References(ast.NodeVisitor):
    def __init__(self):
        self.names, self.inside, self.bound = set(), [], []
        self.calls = []  # (callee name, positional count, keyword names, unpacks)

    def visit_definition(self, node):
        self.inside.append(getattr(node, "name", "<lambda>"))
        self.bound.append(bound_names(node) if isinstance(node, FUNCTIONS) else set())
        self.generic_visit(node)
        self.bound.pop()
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_Lambda = visit_ClassDef = visit_definition

    def add(self, name):
        if name not in self.inside:
            self.names.add(name)

    def visit_Name(self, node):
        if not any(node.id in names for names in self.bound):
            self.add(node.id)

    def visit_Attribute(self, node):
        # numpy's attributes are not the package's: np.add.at is no use of a
        # method named at
        root = node.value
        while isinstance(root, ast.Attribute):
            root = root.value
        if getattr(root, "id", None) not in ("np", "numpy"):
            self.add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self.add(node.value)

    def visit_Call(self, node):
        callee = getattr(node.func, "id", getattr(node.func, "attr", None))
        if callee not in self.inside:
            keywords = {k.arg for k in node.keywords}  # None for **kwargs
            unpacks = None in keywords or any(isinstance(a, ast.Starred) for a in node.args)
            self.calls.append((callee, len(node.args), keywords, unpacks))
        self.generic_visit(node)

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import


def outside_references() -> References:
    refs = References()
    for folder in ("src", "bench", "tools"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            refs.visit(ast.parse(path.read_text()))
    return refs


def defaulted(qualified: str, function) -> list:
    """(parameter, position or None) of each parameter of ``function`` that
    has a default; the position counts the arguments a call passes, so a
    method's ``self`` or ``cls`` is not counted."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    if "." in qualified and not any(getattr(d, "id", None) == "staticmethod"
                                    for d in function.decorator_list):
        positional = positional[1:]
    out = [(a.arg, i) for i, a in enumerate(positional)
           if i >= len(positional) - len(args.defaults)]
    out += [(a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def test_every_public_name_is_used_outside_the_tests():
    refs = outside_references()
    unused = [f"{path.relative_to(ROOT)}: {qualified}"
              for path, qualified, node in public_definitions()
              if node.name not in refs.names and qualified not in ALLOWED]
    assert unused == []


def test_every_defaulted_parameter_of_a_public_function_is_passed_outside_the_tests():
    calls = outside_references().calls

    def passed(name, parameter, position):
        return any(callee == name and (parameter in keywords or unpacks
                                       or position is not None and count > position)
                   for callee, count, keywords, unpacks in calls)

    unpassed = [f"{path.relative_to(ROOT)}: {qualified}.{parameter}"
                for path, qualified, node in public_definitions()
                if isinstance(node, ast.FunctionDef)
                for parameter, position in defaulted(qualified, node)
                if not passed(node.name, parameter, position)
                and f"{qualified}.{parameter}" not in ALLOWED_DEFAULTS]
    assert unpassed == []
