"""Every public top-level function or class in src, and every public method
of a class there, is used by the package or by the benchmark.

A name counts as used when it is read (as a name, an attribute or an exact
string, as `bench/spans.py` names what it traces) anywhere in `src/hopfrb`
or `bench/*.py` outside its own definition.  Imports do not count.  Code
that only its own unit tests call is deleted, unless it is listed below
with the reason it stays.

The modules of src and of the tests are held to the same standard: a name
a module imports and never reads fails `test_every_src_module_reads_what_it_imports`
or `test_every_test_module_reads_what_it_imports`.  Each import is judged in
its own scope: a function-level import must be read by its function, and a
top-level import by some read that no local import shadows.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hopfrb"

KEPT = {
    "direct_sum": "paper statement: a direct sum of paired modules over one (A, P) pairs",
    "scale_weight": "paper statement: (M, mu P, mu T) is a paired module of weight mu lam",
    "idempotent_identities": "paper statement: the identities forced by idempotent P and T",
    "image_closed_under_p_action": "paper statement: T(M) is closed under the P(A)-action",
}


def _trees() -> dict:
    paths = [*sorted(SRC.glob("*.py")), *sorted((ROOT / "bench").glob("*.py"))]
    return {path: ast.parse(path.read_text()) for path in paths}


def _definitions(trees: dict) -> dict:
    """Public top-level function and class names in src -> (module, node)."""
    out = {}
    for path, tree in trees.items():
        if path.parent == SRC:
            for node in tree.body:
                if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                        and not node.name.startswith("_")):
                    out[node.name] = (path.stem, node)
    return out


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read in `tree`."""
    seen = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            seen[node.id] += 1
        elif isinstance(node, ast.Attribute):
            seen[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            seen[node.value] += 1
    return seen


def test_every_public_name_is_used_outside_its_definition():
    trees = _trees()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = [f"{module}.{name}"
              for name, (module, node) in sorted(_definitions(trees).items())
              if name not in KEPT and reads[name] == _reads(node)[name]]
    assert not unused, f"public names nothing in src or bench uses: {unused}"


def _methods(trees: dict) -> list:
    """(module.Class.name, node) per public method of a top-level class in src."""
    return [(f"{path.stem}.{cls.name}.{node.name}", node)
            for path, tree in trees.items() if path.parent == SRC
            for cls in tree.body if isinstance(cls, ast.ClassDef)
            for node in cls.body
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")]


def test_every_public_method_is_used_outside_its_definition():
    """A method counts as used when its name is read anywhere else, on any
    receiver: reads are not resolved to classes."""
    trees = _trees()
    reads = sum((_reads(tree) for tree in trees.values()), Counter())
    unused = [name for name, node in _methods(trees)
              if reads[node.name] == _reads(node)[node.name]]
    assert not unused, f"public methods nothing in src or bench uses: {unused}"


def test_every_kept_name_is_still_defined():
    assert set(KEPT) <= set(_definitions(_trees()))


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
_SCOPES = (*_FUNCTIONS, ast.ClassDef)
_NAMED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _params(node) -> list:
    args = node.args
    return [a for a in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs,
                        args.kwarg) if a is not None]


def _evaluated_outside(node) -> list:
    """The parts of a function, lambda or class that the enclosing scope
    evaluates: decorators, defaults, annotations, bases."""
    if isinstance(node, ast.ClassDef):
        return [*node.decorator_list, *node.bases, *node.keywords]
    args = node.args
    parts = [*args.defaults, *(d for d in args.kw_defaults if d is not None)]
    if isinstance(node, ast.Lambda):
        return parts
    returns = [node.returns] if node.returns else []
    return [*parts, *node.decorator_list, *returns,
            *(a.annotation for a in _params(node) if a.annotation)]


def _scopes(tree: ast.Module) -> list:
    """(scope, enclosing scope, the nodes the scope evaluates itself) for the
    module and every function, lambda and class in it."""
    out = []

    def visit(scope, outer, roots) -> None:
        own, stack = [], list(roots)
        while stack:
            node = stack.pop()
            own.append(node)
            if isinstance(node, _SCOPES):
                stack.extend(_evaluated_outside(node))
                visit(node, scope, node.body if isinstance(node.body, list) else [node.body])
            else:
                stack.extend(ast.iter_child_nodes(node))
        out.append((scope, outer, own))

    visit(tree, None, tree.body)
    return out


def _unread_imports(tree: ast.Module) -> list:
    """Names an import binds in one scope and no read resolves to.

    A read resolves to the innermost enclosing scope that binds the name,
    skipping class scopes as Python does.  So a top-level import that every
    reader shadows with a local import is unread, and so is a local import
    that its own function never reads; the latter is named `function.name`.
    `from m import x as x` (or `import x as x`) marks a re-export and is
    never unread."""
    scopes = _scopes(tree)
    outer_of, binds, imports = {}, {}, {}
    for scope, outer, own in scopes:
        bound = {a.arg for a in _params(scope)} if isinstance(scope, _FUNCTIONS) else set()
        imported = set()
        for node in own:
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
                bound.add(node.id)
            elif isinstance(node, _NAMED) or (isinstance(node, ast.ExceptHandler) and node.name):
                bound.add(node.name)
            elif (isinstance(node, (ast.Import, ast.ImportFrom))
                    and getattr(node, "module", "") != "__future__"):
                for alias in node.names:
                    name = (alias.asname or alias.name).split(".")[0]
                    bound.add(name)
                    if alias.asname != alias.name:
                        imported.add(name)
        outer_of[scope], binds[scope], imports[scope] = outer, bound, imported
    read = set()
    for scope, _, own in scopes:
        for node in own:
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                at = scope
                while at is not None and node.id not in binds[at]:
                    at = outer_of[at]
                    while isinstance(at, ast.ClassDef):
                        at = outer_of[at]
                read.add((at, node.id))
    return sorted(name if scope is tree else f"{scope.name}.{name}"
                  for scope, names in imports.items()
                  for name in names if (scope, name) not in read)


def _unread_by_module(folder: Path) -> dict:
    return {path.name: names for path in sorted(folder.glob("*.py"))
            if (names := _unread_imports(ast.parse(path.read_text())))}


def test_every_test_module_reads_what_it_imports():
    unread = _unread_by_module(ROOT / "tests")
    assert not unread, f"test modules import names they never read: {unread}"


def test_every_src_module_reads_what_it_imports():
    unread = _unread_by_module(SRC)
    assert not unread, f"src modules import names they never read: {unread}"


_SCOPED = """
from m import shadowed, used, annotated, kept as kept
import pkg.sub


def reads_its_own(x: annotated) -> None:
    from m import shadowed
    return shadowed, pkg.sub


def never_reads_its_own():
    from m import idle
    return used


class Holder:
    from m import in_class

    def method(self):
        return in_class  # a class scope is not visible here
"""


def test_unread_imports_resolve_by_scope():
    assert _unread_imports(ast.parse(_SCOPED)) == ["Holder.in_class", "never_reads_its_own.idle",
                                                   "shadowed"]
