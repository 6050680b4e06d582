"""Shared fixtures."""

import pytest

from vortexwave import layers


class CountingLinalg:
    """Stands in for scipy.linalg inside vortexwave.layers, counting LU calls.

    Counts factorizations, and keeps the factors and the column count of
    every transposed solve.
    """

    def __init__(self, module):
        self._module = module
        self.factorizations = 0
        self.transposed_solves = []
        self.transposed_columns = []

    def __getattr__(self, name):
        return getattr(self._module, name)

    def lu_factor(self, *args, **kwargs):
        self.factorizations += 1
        return self._module.lu_factor(*args, **kwargs)

    def lu_solve(self, lu_and_piv, b, trans=0, **kwargs):
        if trans:
            self.transposed_solves.append(lu_and_piv)
            self.transposed_columns.append(1 if b.ndim == 1 else b.shape[1])
        return self._module.lu_solve(lu_and_piv, b, trans=trans, **kwargs)


@pytest.fixture
def lu_counter(monkeypatch):
    """Counts the layer-operator factorizations made while the test runs."""
    counter = CountingLinalg(layers.sla)
    monkeypatch.setattr(layers, "sla", counter)
    return counter
