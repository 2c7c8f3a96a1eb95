"""No linter ships with the toolchain, so this test stands in for one rule of
it (pyflakes F401): every imported name is read somewhere in its scope.

A module-level import counts as read anywhere in the module, a function-level
one only inside its function. Names listed in ``__all__`` and imports marked
``# noqa: F401`` (deliberate re-exports) are exempt.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCOPES = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)


def _names_read(scope: ast.AST) -> set[str]:
    """Every name loaded inside scope, string annotations included."""
    out = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name):
            out.add(node.id)
        for ann in (getattr(node, "annotation", None), getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                out |= _names_read(ast.parse(ann.value, mode="eval"))
    return out


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return {e.value for e in node.value.elts}
    return set()


def unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    lines = source.splitlines()
    tree = ast.parse(source)
    exempt = _exported(tree)
    unused = []

    def visit(scope):
        read = _names_read(scope) | exempt
        stack = list(ast.iter_child_nodes(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, SCOPES):
                visit(node)
                continue
            stack.extend(ast.iter_child_nodes(node))
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                if name not in read:
                    unused.append(f"{path.relative_to(ROOT)}:{node.lineno}: {name}")

    visit(tree)
    return unused


def test_no_unused_imports():
    files = sorted((ROOT / "src" / "lsns").glob("*.py")) + sorted((ROOT / "tests").glob("*.py"))
    assert files
    unused = [u for f in files for u in unused_imports(f)]
    assert not unused, "imported but never read:\n" + "\n".join(unused)


def test_run_path_does_not_import_scipy_integrate():
    # scipy.integrate pulls scipy.optimize and scipy.sparse.linalg into every
    # process: set-up time and resident memory; only the oracles need it
    code = ("import sys, lsns.ensemble, lsns.cli; "
            "sys.exit('scipy.integrate' in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
