"""Every name in the `__all__` of the package and of each of its modules
exists, so `from choi_moments.<module> import *` works. A stale export fails
here rather than in a user's import.
"""

import importlib
import pkgutil

import pytest

import choi_moments

# __main__ runs the CLI on import.
MODULES = ["choi_moments"] + [f"choi_moments.{info.name}"
                              for info in pkgutil.iter_modules(choi_moments.__path__)
                              if info.name != "__main__"]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [export for export in module.__all__ if not hasattr(module, export)] == []
    namespace = {}
    exec(f"from {name} import *", namespace)
    assert set(module.__all__) <= set(namespace)
