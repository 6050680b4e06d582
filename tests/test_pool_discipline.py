"""The package's LAPACK work runs on scipy's OpenBLAS, not numpy's.

numpy and scipy wheels each bundle their own OpenBLAS with its own thread
pool.  A numpy LAPACK call in the per-point loop leaves numpy's threads
spinning while scipy factors the next layer operator, which then takes
50-70% longer.  So no module in src/ calls a numpy.linalg function
other than `norm`, which runs no LAPACK, except validation.py, whose checks
run outside any branch, and the cached set-up on ONCE_PER_RESOLUTION.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "vortexwave"

#: numpy.linalg functions that run no LAPACK
ALLOWED = ("norm",)

#: modules whose numpy.linalg calls never run inside a branch
EXEMPT = ("validation.py",)

#: (module, function) of cached set-up that runs once per resolution
ONCE_PER_RESOLUTION = (
    ("layers.py", "_vertical"),        # inverse Chebyshev Vandermonde
    ("layers.py", "_interior_eigen"),  # eigenvectors of d^2/dtau^2
    ("spectral.py", "_cos_inv"),       # inverse cosine collocation matrix
)


def _is_numpy_linalg(node):
    return (isinstance(node, ast.Attribute) and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id in ("np", "numpy"))


def _linalg_uses(tree):
    """(enclosing function, numpy.linalg name, line) of each use in a tree."""
    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Attribute) and _is_numpy_linalg(node.value):
            yield function, node.attr, node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module in (
                "numpy", "numpy.linalg"):
            for alias in node.names:
                if node.module == "numpy.linalg" or alias.name == "linalg":
                    yield function, alias.name, node.lineno
        for child in ast.iter_child_nodes(node):
            yield from visit(child, function)

    yield from visit(tree, None)


def test_no_numpy_lapack_outside_once_per_resolution_set_up():
    used_set_up = set()
    offending = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in EXEMPT:
            continue
        for function, name, line in _linalg_uses(ast.parse(path.read_text())):
            if name in ALLOWED:
                continue
            if (path.name, function) in ONCE_PER_RESOLUTION:
                used_set_up.add((path.name, function))
                continue
            offending.append(f"{path.name}:{line} {function}: "
                             f"numpy.linalg.{name}")
    assert offending == [], f"numpy LAPACK calls in src/: {offending}"
    stale = set(ONCE_PER_RESOLUTION) - used_set_up
    assert not stale, f"set-up that calls no numpy.linalg: {sorted(stale)}"
