"""Every name a module lists in ``__all__`` exists in that module."""

import importlib
import pkgutil

import pytest

import particle_paths

MODULES = sorted(info.name for info in pkgutil.iter_modules(particle_paths.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_every_public_name_resolves(name):
    module = importlib.import_module(f"particle_paths.{name}")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert not missing
