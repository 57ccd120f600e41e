"""The surface of the library's 16 value classes and the ``LawResult`` alias.

They are plain frozen classes (``squareop._record.record``), and keep what
they had as frozen dataclasses: construction by position or keyword with
defaults, ``==`` within one class, ``hash`` of the field tuple, the same
``repr`` text, pickling and copying, and an ``AttributeError`` on
assignment or deletion.  ``_trusted`` builds the same value from its field
values, and the cached hash stays out of pickles.
"""

import copy
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import squareop
from squareop._record import FrozenInstanceError
from squareop.algebra import AxiomReport, BooleanAlgebra, Element, LawCheck
from squareop.degrees import FuzzySet, IFPair, OperatorChoice
from squareop.diagram import Diagram, DiagramMap
from squareop.fuzzydiagram import (
    DEFAULT_TOLERANCE,
    AnnotatedSquare,
    CategoryLawReport,
    FuzzyAristotelianDiagram,
    LawResult,
    annotate_square,
)
from squareop.ifrel import IFRelation
from squareop.iflattice import (
    IFLattice,
    LatticeCertification,
    _OrderStructure,
    certify,
    powerset_lattice,
)
from squareop.jsonio import certification_to_json, diagram_from_json, diagram_to_json

SRC = str(Path(squareop.__file__).resolve().parents[1])  # the squareop under test
A1 = BooleanAlgebra(("a",))
TOP = Element(1, A1)
LAT = powerset_lattice(A1)
S = LAT._structure
DIAGRAM = Diagram(A1, (TOP,), ("A",))
CHECK = LawCheck("idempotence", 1, True, 2, None)
LAW = LawResult("identity", None, True, 3, None)
SQUARE = annotate_square(F(1, 4))

# the repr text of the frozen dataclasses these classes were
ORDER_REPR = (
    "IFRelation(source=('{}', '{a}'), target=('{}', '{a}'), "
    "mu=((Fraction(1, 1), Fraction(1, 1)), (Fraction(0, 1), Fraction(1, 1))), "
    "nu=((Fraction(0, 1), Fraction(0, 1)), (Fraction(1, 1), Fraction(0, 1))))"
)
DIAGRAM_REPR = "Diagram(algebra=BooleanAlgebra(a), fragment=(Element({a}),), labels=('A',))"
CHECK_REPR = "LawCheck(law='idempotence', group=1, holds=True, checked=2, counterexample=None)"
LAW_REPR = "LawCheck(law='identity', group=None, holds=True, checked=3, counterexample=None)"
SQUARE_REPR = (
    "AnnotatedSquare(diagram=Diagram(algebra=BooleanAlgebra(all, some, none), "
    "fragment=(Element({all}), Element({none}), Element({all,some}), Element({some,none})), "
    "labels=('Every S is P', 'No S is P', 'Some S is P', 'Some S is not P')), "
    "annotations=((IFPair(1, 0), IFPair(1, 0), IFPair(1, 0), IFPair(1/2, 1/4)), "
    "(IFPair(1, 0), IFPair(1, 0), IFPair(1/2, 1/4), IFPair(1, 0)), "
    "(IFPair(1, 0), IFPair(1/2, 1/4), IFPair(1, 0), IFPair(1, 0)), "
    "(IFPair(1/2, 1/4), IFPair(1, 0), IFPair(1, 0), IFPair(1, 0))))"
)

# LawResult is LawCheck; its row is a category-law verdict with a map as its witness
LAW_ROW = (
    LawResult,
    {"law": "identity", "group": None, "holds": False, "checked": 3,
     "counterexample": (DiagramMap(DIAGRAM, DIAGRAM, (0,)),)},
    ("law", "group", "holds", "checked", "counterexample"),
    "LawCheck(law='identity', group=None, holds=False, checked=3, counterexample="
    f"(DiagramMap(source={DIAGRAM_REPR}, target={DIAGRAM_REPR}, mapping=(0,)),))",
)

# class, its constructor's arguments by name in signature order, its fields
# in order, and its repr
CASES = [
    (BooleanAlgebra, {"atoms": ("a", "b")}, ("atoms",), "BooleanAlgebra(a, b)"),
    (Element, {"bits": 1, "algebra": A1}, ("bits", "algebra"), "Element({a})"),
    (LawCheck,
     {"law": "idempotence", "group": 1, "holds": True, "checked": 2, "counterexample": None},
     ("law", "group", "holds", "checked", "counterexample"), CHECK_REPR),
    (AxiomReport, {"algebra": A1, "checks": (CHECK,)}, ("algebra", "checks"),
     f"AxiomReport(algebra=BooleanAlgebra(a), checks=({CHECK_REPR},))"),
    (OperatorChoice, {"negation": "standard", "implication": "godel"},
     ("negation", "implication"), "OperatorChoice(negation='standard', implication='godel')"),
    (IFPair, {"mu": F(1, 2), "nu": F(1, 3)}, ("mu", "nu"), "IFPair(1/2, 1/3)"),
    (FuzzySet, {"domain": ("x", "y"), "values": (F(1, 2), F(1))}, ("domain", "values"),
     "FuzzySet(domain=('x', 'y'), values=(Fraction(1, 2), Fraction(1, 1)))"),
    (Diagram, {"algebra": A1, "fragment": (TOP,), "labels": ("A",)},
     ("algebra", "fragment", "labels"), DIAGRAM_REPR),
    (DiagramMap, {"source": DIAGRAM, "target": DIAGRAM, "mapping": (0,)},
     ("source", "target", "mapping"),
     f"DiagramMap(source={DIAGRAM_REPR}, target={DIAGRAM_REPR}, mapping=(0,))"),
    (IFRelation, {"source": ("x",), "target": ("x",), "mu": ((F(1),),), "nu": ((F(0),),)},
     ("source", "target", "den", "m", "n"),
     "IFRelation(source=('x',), target=('x',), mu=((Fraction(1, 1),),), nu=((Fraction(0, 1),),))"),
    (_OrderStructure,
     {"up": S.up, "lub": S.lub, "glb": S.glb, "is_lattice": S.is_lattice, "bottom": S.bottom,
      "top": S.top, "is_distributive": S.is_distributive, "complements": S.complements,
      "atoms": S.atoms, "neg": S.neg},
     ("up", "lub", "glb", "is_lattice", "bottom", "top", "is_distributive", "complements",
      "atoms", "neg"),
     "_OrderStructure(up=(3, 2), lub=((0, 1), (1, 1)), glb=((0, 0), (0, 1)), is_lattice=True, "
     "bottom=0, top=1, is_distributive=True, complements=((1,), (0,)), atoms=(0, 2), neg=(1, 0))"),
    (IFLattice, {"order": LAT.order}, ("order",), f"IFLattice(order={ORDER_REPR})"),
    (LatticeCertification,
     {"reflexive": True, "perfectly_antisymmetric": True, "transitive": True,
      "partial_order": True, "lattice": True, "distributive": True, "complemented": True,
      "de_morgan": "holds", "if_boolean_algebra": True},
     ("reflexive", "perfectly_antisymmetric", "transitive", "partial_order", "lattice",
      "distributive", "complemented", "de_morgan", "if_boolean_algebra"),
     "LatticeCertification(reflexive=True, perfectly_antisymmetric=True, transitive=True, "
     "partial_order=True, lattice=True, distributive=True, complemented=True, "
     "de_morgan='holds', if_boolean_algebra=True)"),
    (FuzzyAristotelianDiagram,
     {"lattice": LAT, "fragment": ("{a}",), "labels": ("A",), "tolerance": F(1, 10)},
     ("lattice", "fragment", "labels", "tolerance"),
     f"FuzzyAristotelianDiagram(lattice=IFLattice(order={ORDER_REPR}), fragment=('{{a}}',), "
     "labels=('A',), tolerance=Fraction(1, 10))"),
    LAW_ROW,
    (CategoryLawReport, {"laws": (LAW,), "excluded": (1,)}, ("laws", "excluded"),
     f"CategoryLawReport(laws=({LAW_REPR},), excluded=(1,))"),
    (AnnotatedSquare, {"diagram": SQUARE.diagram, "annotations": SQUARE.annotations},
     ("diagram", "annotations"), SQUARE_REPR),
]
IDS = ["LawResult" if case is LAW_ROW else case[0].__name__ for case in CASES]


def _build(cls, kwargs):
    return cls(*kwargs.values())


def test_every_record_class_is_covered():
    assert len(set(IDS)) == 17 and len({case[0] for case in CASES}) == 16


@pytest.mark.parametrize("cls, kwargs, fields, text", CASES, ids=IDS)
class TestRecordSurface:
    def test_positional_and_keyword_construction_agree(self, cls, kwargs, fields, text):
        assert cls(*kwargs.values()) == cls(**kwargs)

    def test_equal_values_and_field_tuple_hash(self, cls, kwargs, fields, text):
        x, twin = _build(cls, kwargs), _build(cls, kwargs)
        assert x is not twin and x == twin and not x != twin
        assert hash(x) == hash(twin) == hash(tuple(getattr(x, f) for f in fields))
        assert x.__eq__(object()) is NotImplemented and x != object()

    def test_trusted_construction_agrees(self, cls, kwargs, fields, text):
        # the field values are the constructor's arguments, except for
        # IFRelation, whose fields are its int form: its den must stay
        # canonical, so it is built from them by _build, which reduces den
        # before it calls _trusted
        x = _build(cls, kwargs)
        values = tuple(getattr(x, f) for f in fields)
        if cls is IFRelation:
            trusted = IFRelation._build(*values)
        else:
            assert values == tuple(kwargs.values())
            trusted = cls._trusted(*values)
        assert type(trusted) is cls and trusted == x and hash(trusted) == hash(x)
        assert repr(trusted) == text

    def test_repr_text(self, cls, kwargs, fields, text):
        assert repr(_build(cls, kwargs)) == text

    def test_pickle_and_copies_round_trip(self, cls, kwargs, fields, text):
        x = _build(cls, kwargs)
        for y in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert type(y) is cls and y == x and hash(y) == hash(x) and repr(y) == text

    def test_assignment_and_deletion_raise(self, cls, kwargs, fields, text):
        x = _build(cls, kwargs)
        for name in (*fields, "unknown"):
            with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(x, name, None)
            with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
                delattr(x, name)
        assert repr(x) == text


def test_a_pickled_record_rehashes_under_another_hash_seed():
    # the hash is cached on first use; a str hash carried into a process with
    # another seed would miss its equal key there
    dump = (
        "import pickle, sys; from squareop.diagram import canonical_square; "
        "d = canonical_square(); h = hash(d); assert '_hash' in vars(d.algebra); "
        "sys.stdout.buffer.write(pickle.dumps((d, h)))"
    )
    load = (
        "import pickle, sys; from squareop.diagram import canonical_square; "
        "d, h = pickle.loads(sys.stdin.buffer.read()); twin = canonical_square(); "
        "print({twin: 1}.get(d), {twin.algebra: 1}.get(d.algebra), h != hash(twin))"
    )

    def python(code, seed, data=None):
        path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
        env = dict(os.environ, PYTHONHASHSEED=str(seed), PYTHONPATH=path)
        return subprocess.run([sys.executable, "-c", code], input=data, env=env,
                              capture_output=True, check=True).stdout

    assert python(load, 2, python(dump, 1)).split() == [b"1", b"1", b"True"]


def test_frozen_error_is_an_attribute_error():
    assert issubclass(FrozenInstanceError, AttributeError)


def test_defaults():
    assert OperatorChoice() == OperatorChoice("standard", "kleene-dienes")
    assert LawResult is LawCheck
    assert Diagram(A1, (TOP,)) == Diagram(A1, (TOP,), ("{a}",))
    fuzzy = FuzzyAristotelianDiagram(LAT, ("{a}",))
    assert fuzzy == FuzzyAristotelianDiagram(LAT, ("{a}",), ("{a}",), DEFAULT_TOLERANCE)


def test_generic_constructor_checks_its_arguments():
    with pytest.raises(TypeError, match="takes 5 arguments, got 6"):
        LawResult("identity", None, True, 3, None, "extra")
    with pytest.raises(TypeError, match="missing argument 'checked'"):
        LawResult("identity", None, True)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'holds'"):
        LawResult("identity", None, True, holds=False, checked=3)
    with pytest.raises(TypeError, match="unexpected or repeated argument 'other'"):
        LawResult("identity", None, True, 3, None, other=1)


def test_generic_constructor_runs_post_init():
    with pytest.raises(ValueError, match="annotation matrix must match the fragment"):
        AnnotatedSquare(SQUARE.diagram, SQUARE.annotations[:3])


def test_certification_json_keys_are_in_field_order():
    cert = certify(LAT.order)
    fields = CASES[IDS.index("LatticeCertification")][2]
    doc = certification_to_json(cert)
    assert list(doc) == list(fields)
    assert doc == {name: getattr(cert, name) for name in fields}


class TestLazyDiagramLabels:
    """A diagram without labels computes its default labels on first read."""

    DOC = {"algebra": {"atoms": ["a", "b"]}, "fragment": [["a"], ["b"], ["a", "b"]]}

    def test_parsing_computes_no_labels(self):
        d = diagram_from_json(self.DOC)
        assert "labels" not in d.__dict__
        assert d.kind_table and "labels" not in d.__dict__
        assert d.labels == ("{a}", "{b}", "{a,b}") and "labels" in d.__dict__

    def test_same_value_as_an_eagerly_labelled_twin(self):
        lazy = diagram_from_json(self.DOC)
        eager = Diagram(lazy.algebra, lazy.fragment, ("{a}", "{b}", "{a,b}"))
        assert "labels" not in lazy.__dict__ and "labels" in eager.__dict__
        assert lazy == eager and hash(lazy) == hash(eager) and repr(lazy) == repr(eager)
        assert json.dumps(diagram_to_json(lazy)) == json.dumps(diagram_to_json(eager))

    def test_unread_labels_survive_pickling(self):
        lazy = diagram_from_json(self.DOC)
        copied = pickle.loads(pickle.dumps(lazy))
        assert "labels" not in copied.__dict__
        assert copied == lazy and copied.labels == ("{a}", "{b}", "{a,b}")

    def test_explicit_labels_are_checked_at_construction(self):
        with pytest.raises(ValueError, match="labels must align with the fragment"):
            Diagram(A1, (TOP,), ("A", "B"))
