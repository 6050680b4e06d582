"""Shared fixtures."""

import pytest

from vortexwave import layers


class CountingLinalg:
    """Stands in for scipy.linalg inside vortexwave.layers, counting LU calls."""

    def __init__(self, module):
        self._module = module
        self.factorizations = 0

    def __getattr__(self, name):
        return getattr(self._module, name)

    def lu_factor(self, *args, **kwargs):
        self.factorizations += 1
        return self._module.lu_factor(*args, **kwargs)


@pytest.fixture
def lu_counter(monkeypatch):
    """Counts the layer-operator factorizations made while the test runs."""
    counter = CountingLinalg(layers.sla)
    monkeypatch.setattr(layers, "sla", counter)
    return counter
