"""Every name in a pulsestab module's __all__ resolves.

A deleted or renamed export that __all__ still lists breaks
`from pulsestab.<module> import *`; this check finds it.
"""

import importlib
import pkgutil

import pytest

import pulsestab

MODULES = ["pulsestab"] + [
    f"pulsestab.{info.name}" for info in pkgutil.iter_modules(pulsestab.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert [export for export in exported if not hasattr(module, export)] == []
