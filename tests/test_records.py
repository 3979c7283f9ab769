"""The value semantics of every record class in the package.

Each record is an immutable value: its fields are fixed positionally and
by keyword, `==` compares the fields of two instances of the same class,
`hash` is the hash of the tuple of compared fields (so set and dict
orders do not depend on how the class is built), assigning or deleting a
field raises `AttributeError`, and `repr` reads ``Class(field=value, ...)``.
`RbpInstance` is the one mutable record: `verified` and `witness` are
filled in after construction, it is unhashable, and `witness` takes no
part in `==`.
"""

from fractions import Fraction

import pytest

from hopfrb.actions import (
    ActionStructure, CoactionStructure, Dimodule, DoiHopfModule, HopfModule, WeakComoduleAlgebra,
)
from hopfrb.catalog import CatalogEntry, get, get_instance
from hopfrb.cli import RunConfig
from hopfrb.exactlin import RATIONAL, FieldSpec, Scalar, identity, prime_field
from hopfrb.hopfrb import IntegralSpace, PairingForm, RMatrix, find_integrals
from hopfrb.rbcore import GenericVerdict, PairingSystem, RbpInstance, pairing_system
from hopfrb.report import Report, Violation
from hopfrb.structures import (
    Bialgebra, FinAlgebra, FinCoalgebra, Functional, HopfAlgebra, SubAlgebra, WeakBialgebra,
    WeakHopfAlgebra, check_algebra,
)

Q = RATIONAL


def _payload(name):
    return get(name).payload


def _renamed(x, name):
    """x with only its `name` field changed."""
    return type(x)(**{**_fields(x), "name": name})


# every record class: its fields in order, and two instances that differ
RECORDS = {
    FieldSpec: (("kind", "p"), lambda: (Q, prime_field(5))),
    Scalar: (("field", "value"), lambda: (Q.of(Fraction(1, 2)), Q.of(1))),
    Violation: (("axiom", "witness", "delta"),
                lambda: (Violation("assoc", (("i", 0),)), Violation("assoc", (("i", 0),), (Q.one,)))),
    Report: (("check", "instance", "violations", "violation_count", "checked", "skipped", "weight"),
             lambda: (check_algebra(_payload("mat2-rational")), Report("algebra", weight="-1"))),
    FinAlgebra: (("field", "dim", "labels", "mult", "unit", "name"),
                 lambda: (_payload("mat2-rational"), _payload("kx-mod-x2"))),
    FinCoalgebra: (("field", "dim", "labels", "comult", "counit"),
                   lambda: (_payload("group-algebra-c2").coalgebra,
                            _payload("group-algebra-c3").coalgebra)),
    Bialgebra: (("name", "algebra", "coalgebra"),
                lambda: (_payload("group-algebra-c2").bialgebra,
                         _payload("group-algebra-c3").bialgebra)),
    HopfAlgebra: (("name", "bialgebra", "antipode"),
                  lambda: (_payload("group-algebra-c2"), _payload("group-algebra-c3"))),
    WeakBialgebra: (("name", "algebra", "coalgebra"),
                    lambda: (_payload("weak-two-point").weak, _payload("weak-pair-groupoid").weak)),
    WeakHopfAlgebra: (("name", "weak", "antipode"),
                      lambda: (_payload("weak-two-point"), _payload("weak-pair-groupoid"))),
    Functional: (("host", "coords"), lambda: (_payload("c2-epsilon"), _payload("c2-delta-g"))),
    SubAlgebra: (("algebra", "inclusion"),
                 lambda: (SubAlgebra(_payload("mat2-rational"), identity(Q, 4)),
                          SubAlgebra(_payload("kx-mod-x2"), identity(Q, 2)))),
    ActionStructure: (("algebra", "dim", "side", "act", "name"),
                      lambda: (_payload("c2-regular-module"), _payload("c3-regular-module"))),
    CoactionStructure: (("coalgebra", "dim", "co", "name"),
                        lambda: (_payload("c2-regular-comodule"), _payload("c3-regular-comodule"))),
    Dimodule: (("host", "action", "coaction", "name"),
               lambda: (_payload("c2-long-dimodule"), _payload("c2-trivial-dimodule"))),
    HopfModule: (("host", "action", "coaction", "name"),
                 lambda: (_payload("c2-regular-hopf-module"), _payload("c3-regular-hopf-module"))),
    WeakComoduleAlgebra: (("host", "carrier", "coaction", "name"),
                          lambda: (_payload("pair-groupoid-doi-hopf").comodule_algebra,
                                   _renamed(_payload("pair-groupoid-doi-hopf").comodule_algebra,
                                            "other"))),
    DoiHopfModule: (("comodule_algebra", "action", "coaction", "name"),
                    lambda: (_payload("pair-groupoid-doi-hopf"),
                             _renamed(_payload("pair-groupoid-doi-hopf"), "other"))),
    IntegralSpace: (("host", "side", "basis"),
                    lambda: (find_integrals(_payload("group-algebra-c2"), "left"),
                             find_integrals(_payload("group-algebra-c2"), "right"))),
    PairingForm: (("host", "sigma"),
                  lambda: (_payload("c2-bicharacter-sigma"),
                           PairingForm(_payload("group-algebra-c2"), identity(Q, 2)))),
    RMatrix: (("host", "r", "rinv"),
              lambda: (_payload("c2-triangular-R"),
                       RMatrix(_payload("group-algebra-c2"), *[(Q.one,) + (Q.zero,) * 3] * 2))),
    RbpInstance: (("algebra", "module", "p", "t", "weight", "name", "verified", "witness"),
                  lambda: (get_instance("mat2-proj"), get_instance("mat2-right-proj"))),
    GenericVerdict: (("a_linear", "quasi_idempotent", "generic", "trials", "failures", "seed"),
                     lambda: (GenericVerdict(True, True, True, 10, 0, "1"),
                              GenericVerdict(True, True, True, 10, 0, "2"))),
    PairingSystem: (("module", "t", "weight", "comms", "rhs"),
                    lambda: (pairing_system(_payload("c2-regular-module"), identity(Q, 2), -Q.one),
                             pairing_system(_payload("c2-regular-module"), identity(Q, 2), Q.zero))),
    CatalogEntry: (("name", "kind", "payload", "note", "refs"),
                   lambda: (get("mat2-rational"), get("c2-regular-module"))),
    RunConfig: (("command", "target", "names", "op", "weight", "seed", "trials", "report", "kind"),
                lambda: (RunConfig("list"), RunConfig("check", "hopf", {"entry": "group-algebra-c2"}))),
}

# the fields left out of a construction, and the values they then take
DEFAULTS = {
    FieldSpec: {"p": 0},
    Violation: {"delta": None},
    Report: {"instance": "", "violations": (), "violation_count": 0, "checked": (), "skipped": (),
             "weight": None},
    FinAlgebra: {"unit": None, "name": ""},
    ActionStructure: {"name": ""},
    CoactionStructure: {"name": ""},
    Dimodule: {"name": ""},
    HopfModule: {"name": ""},
    WeakComoduleAlgebra: {"name": ""},
    DoiHopfModule: {"name": ""},
    RbpInstance: {"name": "", "verified": "unchecked", "witness": None},
    CatalogEntry: {"note": "", "refs": {}},
    RunConfig: {"target": "", "names": {}, "op": None, "weight": "-1", "seed": None,
                "trials": 100, "report": None, "kind": None},
}

FROZEN = [cls for cls in RECORDS if cls is not RbpInstance]


def _fields(x) -> dict:
    return {f: getattr(x, f) for f in RECORDS[type(x)][0]}


def _pair(cls):
    x, y = RECORDS[cls][1]()
    assert type(x) is cls and type(y) is cls
    return x, y


def test_every_record_class_is_pinned():
    assert len(RECORDS) == 26


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_equality_compares_the_fields_of_one_class(cls):
    x, y = _pair(cls)
    fields = _fields(x)
    by_position, by_name = cls(*fields.values()), cls(**fields)
    for copy in (by_position, by_name):
        assert copy is not x
        assert copy == x and x == copy
        assert not copy != x
    assert x != y and y != x
    assert not x == y
    assert x.__eq__(object()) is NotImplemented
    assert x != "x"


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_hash_is_the_hash_of_the_compared_fields(cls):
    x, _ = _pair(cls)
    key = tuple(_fields(x).values())
    try:
        want = hash(key)
    except TypeError:  # a dict field: unhashable, as the tuple is
        with pytest.raises(TypeError):
            hash(x)
        return
    assert hash(x) == want
    assert hash(cls(*key)) == want


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_fields_cannot_be_assigned_or_deleted(cls):
    x, y = _pair(cls)
    for f in RECORDS[cls][0]:
        with pytest.raises(AttributeError):
            setattr(x, f, getattr(y, f))
        with pytest.raises(AttributeError):
            delattr(x, f)
    assert _fields(x) != _fields(y)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_repr_names_the_class_and_its_fields(cls):
    x, _ = _pair(cls)
    if cls is Scalar:
        assert repr(x) == "<1/2>"
        return
    body = ", ".join(f"{f}={v!r}" for f, v in _fields(x).items())
    assert repr(x) == f"{cls.__qualname__}({body})"


@pytest.mark.parametrize("cls", DEFAULTS, ids=lambda c: c.__name__)
def test_defaults(cls):
    x, _ = _pair(cls)
    required = [v for f, v in _fields(x).items() if f not in DEFAULTS[cls]]
    made = cls(*required)
    assert {f: getattr(made, f) for f in DEFAULTS[cls]} == DEFAULTS[cls]


def test_dict_defaults_are_fresh_per_instance():
    a, b = CatalogEntry("a", "algebra", None), CatalogEntry("b", "algebra", None)
    assert a.refs == {} and a.refs is not b.refs
    c, d = RunConfig("list"), RunConfig("list")
    assert c.names == {} and c.names is not d.names


def test_too_many_missing_or_unknown_arguments_are_refused():
    with pytest.raises(TypeError):
        FinCoalgebra(Q, 0, (), ())
    with pytest.raises(TypeError):
        Violation("assoc", (), None, "extra")
    with pytest.raises(TypeError):
        Violation("assoc", (), colour="red")
    with pytest.raises(TypeError):
        Violation("assoc", (), axiom="twice")


def test_classes_with_the_same_fields_are_not_equal():
    b = _payload("group-algebra-c2").bialgebra
    w = WeakBialgebra(b.name, b.algebra, b.coalgebra)
    assert _fields(w) == _fields(b)
    assert w != b and b != w


def test_post_init_validates():
    with pytest.raises(Exception, match="side must be left or right"):
        ActionStructure(*{**_fields(_payload("c2-regular-module")), "side": "up"}.values())


def test_rbp_instance_is_mutable_and_unhashable_and_ignores_its_witness():
    x, y = _pair(RbpInstance)
    with pytest.raises(TypeError):
        hash(x)
    copy = RbpInstance(**_fields(x))
    copy.witness = Violation("paired", (("a", 0), ("m", 1)))
    assert copy == x and copy.witness != x.witness
    copy.verified = "fail" if x.verified != "fail" else "pass"
    assert copy != x
    copy.verified = x.verified
    copy.name = y.name
    assert copy != x and copy.name == y.name
