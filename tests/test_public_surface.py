"""Every public top-level function or class in src is used by the package
or by the benchmark.

A name counts as used when it is read (as a name, an attribute or an exact
string, as `bench/spans.py` names what it traces) anywhere in `src/hopfrb`
or `bench/*.py` outside its own definition.  Imports do not count.  Code
that only its own unit tests call is deleted, unless it is listed below
with the reason it stays.

The modules of src and of the tests are held to the same standard: a name
a module imports and never reads fails `test_every_src_module_reads_what_it_imports`
or `test_every_test_module_reads_what_it_imports`; an import inside a
function counts too.
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
    "in_span": "oracle: the acceptance and exactlin tests decide span membership with it",
    "rank": "oracle: the exactlin tests check rank-nullity with it",
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


def test_every_kept_name_is_still_defined():
    assert set(KEPT) <= set(_definitions(_trees()))


def _unread_imports(tree: ast.AST) -> list:
    """Names that `tree` binds by an import and never reads."""
    bound = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", "") != "__future__"):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(bound - read)


def _unread_by_module(folder: Path) -> dict:
    return {path.name: names for path in sorted(folder.glob("*.py"))
            if (names := _unread_imports(ast.parse(path.read_text())))}


def test_every_test_module_reads_what_it_imports():
    unread = _unread_by_module(ROOT / "tests")
    assert not unread, f"test modules import names they never read: {unread}"


def test_every_src_module_reads_what_it_imports():
    unread = _unread_by_module(SRC)
    assert not unread, f"src modules import names they never read: {unread}"
