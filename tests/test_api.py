import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import squareop
from squareop import diagram, fuzzydiagram

MODULES = ("algebra", "degrees", "diagram", "fuzzydiagram", "ifrel", "iflattice")


def test_every_public_name_imports_from_the_package_and_a_module():
    namespace = {}
    exec("from squareop import *", namespace)
    modules = [importlib.import_module(f"squareop.{name}") for name in MODULES]
    for name in squareop.__all__:
        obj = namespace[name]
        assert any(getattr(m, name, None) is obj for m in modules), name


def test_fuzzy_map_names_alias_the_shared_map_layer():
    assert fuzzydiagram.FuzzyDiagramMap is diagram.DiagramMap
    assert fuzzydiagram.compose_fuzzy_maps is diagram.compose_maps
    assert fuzzydiagram.check_fuzzy_infomorphism is diagram.check_infomorphism
    assert squareop.FuzzyDiagramMap is squareop.DiagramMap
    assert squareop.compose_fuzzy_maps is squareop.compose_maps
    assert squareop.check_fuzzy_infomorphism is squareop.check_infomorphism


def test_import_loads_no_module():
    """``import squareop`` alone loads none of its modules: names load on first use."""
    env = dict(os.environ, PYTHONPATH=str(Path(squareop.__file__).resolve().parents[1]))
    code = 'import squareop, sys; print(*(m for m in sys.modules if m.startswith("squareop.")))'
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.split() == []


def test_no_module_loads_dataclasses():
    """Every record is a plain frozen class, so importing the whole library
    loads neither ``dataclasses`` nor ``inspect``."""
    env = dict(os.environ, PYTHONPATH=str(Path(squareop.__file__).resolve().parents[1]))
    modules = [p.stem for p in Path(squareop.__file__).parent.glob("*.py") if p.stem != "__init__"]
    code = ("import sys, importlib\n"
            f"for m in {modules!r}: importlib.import_module('squareop.' + m)\n"
            "print(*sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert {f"squareop.{m}" for m in modules} <= loaded
    assert loaded.isdisjoint({"dataclasses", "inspect"})


def test_every_public_name_is_its_owning_modules_object():
    for name in squareop.__all__:
        owner = importlib.import_module(f"squareop.{squareop._MODULE_OF[name]}")
        assert name in vars(owner), name
        assert getattr(squareop, name) is getattr(owner, name), name


def test_dir_lists_every_public_name():
    assert set(squareop.__all__) <= set(dir(squareop))


def test_unknown_name_is_a_standard_attribute_error():
    with pytest.raises(AttributeError, match="^module 'squareop' has no attribute 'no_such_name'$"):
        squareop.no_such_name
