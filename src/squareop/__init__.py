"""Squares of opposition and Aristotelian diagrams, crisp and fuzzy.

The crisp half builds finite powerset Boolean algebras, classifies the seven
logical relations between fragment elements, and checks Aristotelian
isomorphisms and informativity-preserving maps.  The fuzzy half works with
intuitionistic fuzzy relations (membership/nonmembership matrices), certifies
them as partial orders, lattices and Boolean algebras, and hosts fuzzy
diagrams with tolerance-based bi-implication.

Public names are imported from their modules on first use (PEP 562), so
``import squareop`` alone loads none of the modules.
"""

__version__ = "0.1.0"

#: the module that defines each public name; ``__all__`` is its sorted keys
_MODULE_OF = {
    name: module
    for module, names in {
        "algebra": (
            "AlgebraMismatchError", "AxiomReport", "BooleanAlgebra", "Element", "LawCheck",
            "element_label", "verify_axioms",
        ),
        "degrees": (
            "ContradictionDegrees", "Degree", "DomainMismatchError", "FuzzySet", "IFPair",
            "OperatorChoice", "contradiction_degree", "degree", "format_degree",
            "if_complement", "implies", "negate", "parse_degree", "register_implication",
            "register_negation", "self_contradiction_degree",
        ),
        "diagram": (
            "INFORMATIVITY_COVERS", "Diagram", "DiagramMap", "RelationKind", "canonical_square",
            "check_infomorphism", "check_iso", "classify", "compose_maps", "count_isos",
            "find_isos", "informativity_leq", "informativity_order", "iter_isos",
            "relation_table",
        ),
        "fuzzydiagram": (
            "AnnotatedSquare", "CategoryLawReport", "FuzzyAristotelianDiagram",
            "FuzzyClassification", "FuzzyDiagramMap", "annotate_square",
            "check_fuzzy_infomorphism", "check_if_homomorphism", "classify_fuzzy",
            "compose_fuzzy_maps", "embed_diagram", "fuzzy_bi_implication",
            "fuzzy_relation_table", "verify_category_laws",
        ),
        "ifrel": (
            "IFRelation", "compose", "identity_relation", "is_partial_order",
            "is_perfectly_antisymmetric", "is_reflexive", "is_transitive", "transitive_closure",
        ),
        "iflattice": (
            "IFLattice", "LatticeCertification", "LawViolationError", "PreconditionError",
            "certify", "powerset_lattice", "underlying_order",
        ),
    }.items()
    for name in names
}
__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    """Import the module that defines ``name``; the value is kept, so later lookups skip this."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = globals()[name] = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
