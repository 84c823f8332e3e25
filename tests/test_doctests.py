"""The examples in the package docstrings are part of its contract."""

from __future__ import annotations

import doctest
import importlib

import pytest

MODULES = ("scalars", "bounds", "verdict", "linear", "intlattice",
           "multiplicative", "algebras", "rings", "gwa", "simplicity",
           "localization", "dsl")


@pytest.mark.parametrize("name", MODULES)
def test_module_doctests(name):
    module = importlib.import_module(f"ambiskew.{name}")
    result = doctest.testmod(module)
    assert result.failed == 0
