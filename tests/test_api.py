import importlib

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
