"""The examples in the package docstrings are part of its contract."""

from __future__ import annotations

import doctest
import importlib
import pkgutil

import pytest

import ambiskew

# every module of the package, so a new module's examples always run
MODULES = sorted(m.name for m in pkgutil.iter_modules(ambiskew.__path__))


def test_every_module_is_discovered():
    assert len(MODULES) >= 12


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"ambiskew.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
