"""Every public name in the package is used by the package.

A public module-level function or class, or a public method, passes when
its name is referenced somewhere in src/ (a call, an attribute, an import),
when the benchmark's tracer wraps it, or when it is on KEPT below.  A name
that only tests use fails: the package should hold nothing that exists for
tests alone.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vortexwave"

#: referees and readers kept although nothing in src/ calls them
KEPT = (
    "jacobian_fd",              # finite-difference referee of the Jacobian
    "strength_derivative_fd",   # ... and of the strength derivative
    "eval_interior",            # interior value; referee of eval_interior_dy
    "to_even",                  # parity-checked inverse of even_values
    "nodes",                    # the full grid that even_values samples
    "load_snapshot",            # readers of the output files
    "load_branch_table",
    # wrapped by perfbench/tracer.py until the benchmark drops them
    "ddx",
    "evaluate_odd",
)


def _public(name):
    return not name.startswith("_")


def _definitions(tree):
    """(qualified name, bare name) of public functions, classes, methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and _public(
                node.name):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef) and _public(node.name):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and _public(item.name):
                    yield f"{node.name}.{item.name}", item.name


def _references(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (alias.name for alias in node.names)


def _span_targets():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {dotted.rpartition(".")[2] for _, dotted, _ in tracer.SPANS}


def test_every_public_name_has_a_caller_in_the_package():
    trees = {path.name: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}
    referenced = {name for tree in trees.values()
                  for name in _references(tree)}
    allowed = referenced | _span_targets() | set(KEPT)
    defined = [(f"{module}:{qualified}", name)
               for module, tree in trees.items()
               for qualified, name in _definitions(tree)]
    unused = [where for where, name in defined if name not in allowed]
    assert unused == [], f"public names nothing in src/ uses: {unused}"
    stale = set(KEPT) - {name for _, name in defined}
    assert not stale, f"KEPT names that no longer exist: {sorted(stale)}"
