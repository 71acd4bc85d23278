import doctest
import importlib
import pkgutil

import pytest

import oclust

MODULES = ["oclust"] + [f"oclust.{info.name}" for info in pkgutil.iter_modules(oclust.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_docstring_examples(name):
    result = doctest.testmod(importlib.import_module(name), verbose=False)
    assert result.failed == 0
