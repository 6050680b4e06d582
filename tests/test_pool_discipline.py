"""The package's LAPACK work runs on scipy's OpenBLAS, not numpy's.

numpy and scipy wheels each bundle their own OpenBLAS with its own thread
pool.  A numpy LAPACK call in the per-point loop leaves numpy's threads
spinning while scipy factors the next layer operator, which then takes
50-70% longer.  So no module in src/ calls a numpy.linalg function
other than `norm`, which runs no LAPACK, except validation.py, whose checks
run outside any branch, and the cached set-up on ONCE_PER_RESOLUTION.  The
products of the layers' trace solves and adjoint blocks, and of the Lanczos
steps behind sigma_min, wake a pool the same way, so they run on scipy's
BLAS as well (README, "Threads"), and the BLAS-1 calls that stay on numpy's
BLAS are kept short.
"""

import ast
from pathlib import Path

import numpy as np

from vortexwave import cli

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


#: layers.py's apply, the variable terms it shares with delta = A - M
#: (which a Richardson step applies once per Krylov vector, after the
#: flat-strip solve), the closed-form flat adjoint block, its tau profiles and
#: probe column, the contraction of the shape derivatives with the adjoint
#: block or its flat closed form, and the Dirichlet-to-Neumann matrix, all
#: built on every Jacobian, exact or flat: every product in them goes
#: through `_blas_product`, which calls scipy.linalg.blas
BLAS_HELPERS = ("_apply", "_flat_solve", "_variable", "_variable_transpose",
                "_flat_profiles", "flat_adjoint_block", "_flat_probe_column",
                "_shape_products", "dno_matrix")

#: numpy functions that multiply arrays on numpy's own BLAS, or its pool
NUMPY_PRODUCTS = ("dot", "matmul", "einsum", "tensordot", "inner", "vdot")


def _function(tree, name):
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _called_name(call):
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(
        func, "id", None)


def _numpy_products(node):
    """The numpy products in a syntax tree."""
    for child in ast.walk(node):
        if isinstance(child, ast.BinOp) and isinstance(child.op, ast.MatMult):
            yield child
        elif (isinstance(child, ast.Call)
              and isinstance(child.func, ast.Attribute)
              and isinstance(child.func.value, ast.Name)
              and child.func.value.id in ("np", "numpy")
              and child.func.attr in NUMPY_PRODUCTS):
            yield child


def _reads(node, names):
    return any(isinstance(child, ast.Name) and child.id in names
               for child in ast.walk(node))


def _written(call):
    """Name of the array a call writes through its `out` keyword, if any."""
    for keyword in call.keywords:
        if keyword.arg == "out":
            target = keyword.value
            while isinstance(target, (ast.Subscript, ast.Attribute)):
                target = target.value
            return getattr(target, "id", None)
    return None


def test_block_products_run_on_scipy_blas():
    tree = ast.parse((PACKAGE / "layers.py").read_text())
    blas = _function(tree, "_blas_product")
    assert "dgemm" in {_called_name(c) for c in ast.walk(blas)
                       if isinstance(c, ast.Call)}
    assert any(isinstance(node, ast.ImportFrom)
               and node.module == "scipy.linalg.blas"
               and "dgemm" in {alias.name for alias in node.names}
               for node in tree.body)
    for name in BLAS_HELPERS:
        helper = _function(tree, name)
        assert [p.lineno for p in _numpy_products(helper)] == [], name
        assert "_blas_product" in {_called_name(c) for c in ast.walk(helper)
                                   if isinstance(c, ast.Call)}, name
    # the shape derivatives' -Z^T R: `shape_batch` hands its adjoint block
    # z only to `_shape_products`, a helper above, which reads its entries
    # once, in one `_blas_product` and no numpy product; its result, and
    # every array computed from it, is an operand of `_blas_product` and of
    # no numpy product
    shape = _function(tree, "shape_batch")
    uses = [n for n in ast.walk(shape) if isinstance(n, ast.Name)
            and n.id == "z"]
    handed = [c for c in ast.walk(shape) if isinstance(c, ast.Call)
              and _called_name(c) == "_shape_products" and _reads(c, {"z"})]
    assert len(uses) == len(handed) == 1
    products = _function(tree, "_shape_products")
    assert len([a for a in ast.walk(products) if isinstance(a, ast.Subscript)
                and isinstance(a.value, ast.Name) and a.value.id == "z"]) == 1
    assert len([c for c in ast.walk(products) if isinstance(c, ast.Call)
                and _called_name(c) == "_blas_product"
                and _reads(c, {"z"})]) == 1
    assert not [p for p in _numpy_products(products) if _reads(p, {"z"})]
    derived = {target.id for node in ast.walk(shape)
               if isinstance(node, ast.Assign)
               and isinstance(node.value, ast.Call)
               and _called_name(node.value) == "_shape_products"
               for target in node.targets if isinstance(target, ast.Name)}
    assert derived, "shape_batch binds no result of _shape_products"
    while True:  # names assigned from, or written by a product of, those
        grown = set(derived)
        for node in ast.walk(shape):
            if isinstance(node, ast.Assign) and _reads(node.value, derived):
                grown |= {t.id for t in node.targets
                          if isinstance(t, ast.Name)}
            elif (isinstance(node, ast.Call) and _written(node)
                  and _reads(node, derived)):
                grown.add(_written(node))
        if grown == derived:
            break
        derived = grown
    assert [p.lineno for p in _numpy_products(shape)
            if _reads(p, derived)] == []
    # the one product with the coefficient moves
    assert [c for c in ast.walk(shape) if isinstance(c, ast.Call)
            and _called_name(c) == "_blas_product" and _reads(c, derived)]


def test_jacobian_assembly_runs_on_scipy_blas():
    # the assembly's (N + 1)^3 products with the cosine synthesis and its
    # inverse wake numpy's pool once N + 1 reaches about 110, as at 128x48,
    # so they run on `_blas_product`, and its one matrix-vector product on
    # scipy's dgemv
    tree = ast.parse((PACKAGE / "system.py").read_text())
    assembly = _function(tree, "_jacobian")
    assert [p.lineno for p in _numpy_products(assembly)] == []
    assert "_blas_product" in {_called_name(c) for c in ast.walk(assembly)
                               if isinstance(c, ast.Call)}


def test_lanczos_steps_run_on_scipy_blas():
    # sigma_min's Lanczos loop runs at every accepted point and at every
    # size, so its products and norms are scipy's dgemv and dnrm2, and no
    # numpy product
    tree = ast.parse((PACKAGE / "continuation.py").read_text())
    lanczos = _function(tree, "_smallest_singular")
    assert [p.lineno for p in _numpy_products(lanczos)] == []
    assert {"dgemv", "dnrm2"} <= {_called_name(c) for c in ast.walk(lanczos)
                                  if isinstance(c, ast.Call)}


def _is_work_view(node):
    """Whether a node is a call self._work.view(...)."""
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "view"
            and isinstance(node.func.value, ast.Attribute)
            and node.func.value.attr == "_work")


def test_flat_adjoint_block_forms_its_panels_in_work_buffers():
    # the (mode, column, tau) block of a panel and its product with the
    # cosine synthesis are written into the operator's work buffers, inside
    # the loop over panels, so no array the size of the whole block but the
    # result is allocated
    tree = ast.parse((PACKAGE / "layers.py").read_text())
    flat = _function(tree, "flat_adjoint_block")
    loops = [node for node in ast.walk(flat) if isinstance(node, ast.For)
             and isinstance(node.iter, ast.Call)
             and _called_name(node.iter) == "_panels"]
    assert len(loops) == 1
    written = [call for call in ast.walk(loops[0])
               if isinstance(call, ast.Call)
               and any(k.arg == "out" for k in call.keywords)]
    names = {_called_name(call) for call in written}
    assert {"multiply", "_blas_product"} <= names
    views = {target.id for node in ast.walk(loops[0])
             if isinstance(node, ast.Assign) and _is_work_view(node.value)
             for target in node.targets if isinstance(target, ast.Name)}
    for call in written:
        out = next(k.value for k in call.keywords if k.arg == "out")
        assert _is_work_view(out) or (
            isinstance(out, ast.Name) and out.id in views), call.lineno


#: elements beyond which OpenBLAS threads a BLAS-1 dot or norm, and so
#: wakes numpy's pool
POOL_ELEMENTS = 10_000


def test_branch_keeps_numpy_blas_1_calls_short(tmp_path, monkeypatch):
    # np.linalg.norm, np.dot and np.vdot run on numpy's OpenBLAS, and past
    # POOL_ELEMENTS elements its threads wake and then spin against
    # scipy's next LAPACK call: a Frobenius norm of the 196x196 Jacobian
    # by np.linalg.norm doubled a branch point's time.  A 2-step default
    # 64x32 continue in this process, with the three recording the sizes of
    # their arguments
    sizes = []

    def recording(function):
        def recorded(*args, **kwargs):
            sizes.append(max(np.size(arg) for arg in args))
            return function(*args, **kwargs)
        return recorded

    for name in ("dot", "vdot"):
        monkeypatch.setattr(np, name, recording(getattr(np, name)))
    monkeypatch.setattr(np.linalg, "norm", recording(np.linalg.norm))
    assert cli.main(["continue", "--out", str(tmp_path),
                     "--max-steps", "2"]) == 0
    assert sizes, "no numpy BLAS-1 call was recorded"
    assert max(sizes) <= POOL_ELEMENTS
