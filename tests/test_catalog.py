"""Built-in catalog, named instances, and the JSON structure-file format."""

import hashlib
import itertools
import json
import os
import re
import subprocess
import sys
import tracemalloc

import pytest

import hopfrb
from hopfrb import catalog
from hopfrb.exactlin import FieldError, RATIONAL, mat, prime_field, vec
from hopfrb.structures import (
    HopfAlgebra,
    check_algebra,
    check_hopf,
    check_weak_hopf,
    compute_antipode,
)
from hopfrb.rbcore import check_rbp_module
from hopfrb.catalog import (
    KINDS,
    MAX_DIM,
    CatalogError,
    cyclic_group_algebra,
    dump,
    get,
    get_instance,
    groupoid_algebra,
    list_entries,
    list_instances,
    load_entry,
    load_file,
    matrix_unit_algebra,
    normalized_group_integral,
    sweedler_h4,
    symmetric_group_algebra_s3,
    triangular_rmatrix_c2,
)

Q = RATIONAL


# -- registry -----------------------------------------------------------------


def test_every_entry_resolves_with_its_kind():
    entries = list_entries()
    assert len(entries) == 34
    for name, kind in entries:
        assert kind in KINDS
        assert get(name).kind == kind


def test_get_is_cached():
    assert get("mat2-rational") is get("mat2-rational")


def test_unknown_entry_rejected():
    with pytest.raises(CatalogError):
        get("no-such-entry")


# counts the entries _validate sees and the instances check_rbp_module
# verifies while the statement after the first line runs, in a fresh process;
# catalog imports check_rbp_module from rbcore when it verifies an instance
_COUNT_BUILDS = """
import sys
import hopfrb
from hopfrb import catalog, rbcore
validated, verified = [], []
validate, verify = catalog._validate, rbcore.check_rbp_module
catalog._validate = lambda entry: validated.append(entry.name) or validate(entry)
rbcore.check_rbp_module = lambda inst: verified.append(inst.name) or verify(inst)
exec(sys.argv[1])
print(sorted(validated), sorted(verified))
"""


@pytest.mark.parametrize("statement, validated, verified", [
    ("catalog.list_entries(); catalog.list_instances()", [], []),
    ('catalog.get("c2-regular-module")', ["c2-regular-module", "group-algebra-c2"], []),
    ('catalog.get_instance("mat2-proj")', ["mat2-rational", "mat2-regular-module"],
     ["mat2-proj"]),
])
def test_first_use_builds_only_what_it_touches(statement, validated, verified):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfrb.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _COUNT_BUILDS, statement],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == f"{validated} {verified}"


# counts the axiom walks (one Checker per walk) of each (check, instance)
# while the statement runs, in a fresh process
_COUNT_WALKS = """
import sys
from collections import Counter
from hopfrb import catalog, replay, report
walks, init = Counter(), report.Checker.__init__
def counted(self, check, instance="", weight=None):
    walks[check, instance] += 1
    init(self, check, instance, weight)
report.Checker.__init__ = counted
exec(sys.argv[1])
print(walks["action", "mat2-regular-left"], walks["action", "mat2-regular-left-tri"])
"""


def test_module_reports_are_kept_on_the_action():
    # the catalog validates mat2-regular-module once; double_construction's
    # module precondition, in the doubled-mat2 instance and in each prop-3.6
    # round, reads that report, and each induced action is walked once, by
    # its postcondition, however often replay asks again
    statement = ("catalog.instances()\n"
                 "for _ in range(2): replay.run_replay('prop-3.6', seed=7, trials=1)")
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfrb.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    out = subprocess.run([sys.executable, "-c", _COUNT_WALKS, statement],
                         capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["1", "3"]


def test_failing_builtin_raises_and_is_not_kept(monkeypatch):
    name = "mat3-rational"
    decl = catalog._DECLARED[name]

    def not_associative():
        good = matrix_unit_algebra(2)
        mult = [list(plane) for plane in good.mult.dense()]
        mult[0][1] = good.basis(3)  # E11 E12 = E22 breaks (E11 E11) E12 = E11 (E11 E12)
        return type(good)(good.field, good.dim, good.labels,
                          tuple(tuple(plane) for plane in mult), good.unit, name)

    monkeypatch.delitem(catalog._BUILT, name, raising=False)
    monkeypatch.setitem(catalog._DECLARED, name, decl._replace(build=not_associative))
    for _ in range(2):  # the failure is not kept: the second get builds again
        with pytest.raises(CatalogError, match="fails algebra axioms"):
            get(name)
        assert name not in catalog._BUILT
    monkeypatch.setitem(catalog._DECLARED, name, decl)
    assert check_algebra(get(name).payload).ok


def test_named_instances_verify():
    names = list_instances()
    assert names == ("c2-integral-proj", "c3-integral-proj", "doubled-mat2",
                     "mat2-proj", "mat2-right-proj")
    for name in names:
        assert check_rbp_module(get_instance(name)).ok


# -- builders -----------------------------------------------------------------


def test_matrix_units_compose():
    mat3 = matrix_unit_algebra(3)
    assert mat3.dim == 9
    assert check_algebra(mat3).ok
    # E12 E23 = E13
    e12 = mat3.basis(mat3.labels.index("E12"))
    e23 = mat3.basis(mat3.labels.index("E23"))
    assert mat3.mul(e12, e23) == mat3.basis(mat3.labels.index("E13"))


def test_cyclic_group_algebra_over_prime_field():
    f5 = prime_field(5)
    c3 = cyclic_group_algebra(3, f5)
    assert check_hopf(c3).ok
    e = normalized_group_integral(c3)
    # 3^-1 = 2 in F_5
    assert e == vec(f5, [2, 2, 2])


def test_s3_is_noncommutative():
    s3 = symmetric_group_algebra_s3()
    a = s3.algebra.basis(s3.labels.index("p102"))
    b = s3.algebra.basis(s3.labels.index("p021"))
    assert s3.algebra.mul(a, b) != s3.algebra.mul(b, a)
    assert check_hopf(s3).ok


def _pair_groupoid(objects: int, discrete: bool = False):
    """Arrows, labels, composition and inverse of the pair groupoid on
    `objects` objects, or of its discrete subgroupoid of identities."""
    arrows = [(i, j) for i in range(objects) for j in range(objects)
              if i == j or not discrete]
    return (arrows, [f"a{i}{j}" for i, j in arrows],
            lambda a, b: (a[0], b[1]) if a[1] == b[0] else None, lambda a: (a[1], a[0]))


def _groupoids():
    """(name, arrows, labels, compose, inverse) of every generated groupoid."""
    out = [(f"c{n}", list(range(n)), [f"g{i}" for i in range(n)],
            lambda i, j, n=n: (i + j) % n, lambda i, n=n: -i % n) for n in range(1, 9)]
    perms = sorted(itertools.permutations(range(3)))
    out.append(("s3", perms, [str(p) for p in perms],
                lambda p, q: tuple(p[q[i]] for i in range(3)),
                lambda p: tuple(sorted(range(3), key=lambda i: p[i]))))
    out += [(f"pair{k}", *_pair_groupoid(k)) for k in (1, 2, 3)]
    out += [(f"discrete{k}", *_pair_groupoid(k, discrete=True)) for k in (2, 3)]
    return out


@pytest.mark.parametrize("field", [Q, prime_field(2), prime_field(3), prime_field(5)],
                         ids=["Q", "F2", "F3", "F5"])
def test_groupoid_algebras_are_hopf_or_weak_hopf(field):
    for name, arrows, labels, compose, inverse in _groupoids():
        h = groupoid_algebra(name, arrows, labels, compose, inverse, field)
        identities = [a for a in arrows if compose(a, a) == a]
        assert isinstance(h, HopfAlgebra) == (len(identities) == 1), name
        assert (check_hopf if len(identities) == 1 else check_weak_hopf)(h).ok, name
        # S e_a = e_(a^-1), read off the groupoid rather than the built host
        want = [[0] * len(arrows) for _ in arrows]
        for j, a in enumerate(arrows):
            want[arrows.index(inverse(a))][j] = 1
        carrier = h.bialgebra if len(identities) == 1 else h.weak
        assert compute_antipode(carrier) == mat(field, want), name


def test_characteristic_refusals():
    f2 = prime_field(2)
    with pytest.raises(FieldError):
        sweedler_h4(f2)
    with pytest.raises(FieldError):
        normalized_group_integral(cyclic_group_algebra(3, prime_field(3)))
    with pytest.raises(FieldError):
        triangular_rmatrix_c2(cyclic_group_algebra(2, f2))


# -- serialization ------------------------------------------------------------


def test_dump_load_fixpoint_for_every_entry():
    for name, _kind in list_entries():
        entry = get(name)
        obj = dump(entry)
        again = dump(load_entry(obj))
        assert again == obj, name


# sha256 of every built-in entry's dump, taken before the group(oid)
# builders were folded into groupoid_algebra: the catalog's bytes must not move
CATALOG_DUMP_SHA256 = "bbfc87a5a5a35e353111d322948d753057a522676b647b539dbe52841f2843dc"


def test_catalog_dump_digest_is_pinned():
    text = json.dumps([dump(get(name)) for name, _ in list_entries()], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == CATALOG_DUMP_SHA256


def test_dump_serializes_to_json():
    for name in ("mat2-rational", "sweedler-h4", "pair-groupoid-doi-hopf"):
        text = json.dumps(dump(get(name)))
        assert json.loads(text) == dump(get(name))


def test_composite_dump_uses_references():
    obj = dump(get("c2-long-dimodule"))
    assert obj["kind"] == "dimodule"
    assert set(obj) >= {"host", "module", "comodule"}
    assert isinstance(obj["module"], str)


def test_load_entry_schema_errors():
    with pytest.raises(CatalogError):
        load_entry(["not", "an", "object"])
    with pytest.raises(CatalogError):
        load_entry({"kind": "frobnicator", "name": "x"})
    with pytest.raises(CatalogError):
        load_entry({"kind": "algebra"})  # no name
    with pytest.raises(CatalogError):
        load_entry({"kind": "algebra", "name": "x", "dim": 1, "basis": ["e"],
                    "mult": [{"i": 0, "j": 0, "k": 5, "c": "1"}]})
    with pytest.raises(CatalogError):
        load_entry({"kind": "algebra", "name": "x", "dim": 1, "basis": ["e"],
                    "mult": [{"i": 0, "j": 0}]})
    host = dump(get("group-algebra-c2"))
    weak = dump(get("weak-pair-groupoid"))
    refused = [
        ({k: v for k, v in host.items() if k != "comult"}, "kind 'hopf' needs comult and counit"),
        ({k: v for k, v in host.items() if k != "counit"}, "kind 'hopf' needs comult and counit"),
        ({k: v for k, v in host.items() if k != "antipode"}, "hopf kind needs an antipode"),
        ({k: v for k, v in weak.items() if k != "antipode"}, "weak-hopf kind needs an antipode"),
        ({**host, "basis": ["e"]}, "basis label count differs from dim"),
        ({"kind": "dimodule", "name": "x", "host": "group-algebra-c2",
          "module": "group-algebra-c2", "comodule": "c2-regular-comodule"},
         "module 'group-algebra-c2' has kind 'hopf'"),
        ({"kind": "functional", "name": "x", "host": 2, "coords": [1, 0]},
         "missing or non-string reference 'host'"),
        ({"kind": ["hopf"], "name": "x"}, "unknown or missing kind"),
        ({"kind": {"hopf": 1}, "name": "x"}, "unknown or missing kind"),
    ]
    for obj, text in refused:
        with pytest.raises(CatalogError, match=re.escape(text)):
            load_entry(obj)


@pytest.mark.parametrize("name, kind", [("group-algebra-c2", "bialgebra"),
                                        ("weak-pair-groupoid", "weak-bialgebra")])
def test_a_bialgebra_file_loads_validates_and_dumps_back(name, kind):
    # no built-in entry has either kind: a Hopf dump without its antipode is one
    obj = {k: v for k, v in dump(get(name)).items() if k != "antipode"}
    obj.update(kind=kind, name=f"{name}-as-{kind}")
    entry = load_entry(obj)
    assert entry.kind == kind and not hasattr(entry.payload, "antipode")
    assert dump(entry) == obj


def test_load_entry_rejects_axiom_failure_unless_told_not_to():
    bad = {"kind": "algebra", "name": "bad", "dim": 2, "basis": ["x", "y"],
           "mult": [{"i": 0, "j": 0, "k": 1, "c": "1"},
                    {"i": 0, "j": 1, "k": 0, "c": "1"}]}
    with pytest.raises(CatalogError):
        load_entry(bad)
    entry = load_entry(bad, validate=False)
    assert not check_algebra(entry.payload).ok


def test_load_entry_resolves_references():
    obj = {"kind": "functional", "name": "delta-g-again",
           "host": "group-algebra-c2", "coords": ["0", "1"]}
    entry = load_entry(obj)
    assert entry.payload.coords.dense() == vec(Q, [0, 1])
    with pytest.raises(CatalogError):
        load_entry({**obj, "host": "no-such-host"})


def test_load_file_errors(tmp_path):
    with pytest.raises(CatalogError):
        load_file(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(CatalogError):
        load_file(str(bad))


def test_load_file_roundtrip(tmp_path):
    target = tmp_path / "mat2.json"
    target.write_text(json.dumps(dump(get("mat2-rational"))))
    entry = load_file(str(target))
    assert dump(entry) == dump(get("mat2-rational"))


def test_prime_field_structure_file():
    obj = {"kind": "algebra", "name": "f5-line", "field": {"kind": "prime", "p": 5},
           "dim": 1, "basis": ["e"], "unit": ["1"],
           "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}]}
    entry = load_entry(obj)
    assert entry.payload.field == prime_field(5)
    assert dump(load_entry(dump(entry))) == dump(entry)


@pytest.mark.parametrize("kind", ["algebra", "module", "comodule"])
def test_dim_cap_is_enforced_before_allocation(kind):
    over = MAX_DIM + 1
    if kind == "algebra":
        obj = {"kind": "algebra", "name": "huge", "dim": over,
               "basis": [f"e{i}" for i in range(over)]}
    elif kind == "module":
        obj = {"kind": "module", "name": "huge", "algebra": "mat2-rational", "dim": over}
    else:
        obj = {"kind": "comodule", "name": "huge", "host": "group-algebra-c2", "dim": over}
    # build the referenced entries outside the measurement
    get("mat2-rational")
    get("group-algebra-c2")
    tracemalloc.start()
    try:
        with pytest.raises(CatalogError, match="outside"):
            load_entry(obj, validate=False)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the cap is checked before any tensor is built: a dense tensor at
    # dim 65 would take megabytes
    assert peak < 64 * 1024


def test_dim_cap_admits_the_cap_itself():
    obj = {"kind": "module", "name": "wide-zero", "algebra": "group-algebra-c2",
           "dim": MAX_DIM, "action": []}
    assert load_entry(obj, validate=False).payload.dim == MAX_DIM
    for bad in (-1, "two", None, [2]):
        with pytest.raises(CatalogError):
            load_entry({**obj, "dim": bad}, validate=False)


def _dual_numbers_file(field: dict, extra: list) -> dict:
    """k[x]/(x^2) as a structure file over `field`, with `extra` triples."""
    return {"kind": "algebra", "name": "dual-numbers", "field": field, "dim": 2,
            "basis": ["1", "x"], "unit": ["1", "0"],
            "mult": [{"i": 0, "j": 0, "k": 0, "c": "1"}, {"i": 0, "j": 1, "k": 1, "c": "1"},
                     {"i": 1, "j": 0, "k": 1, "c": "1"}] + extra}


@pytest.mark.parametrize("field, cancelling", [
    ({"kind": "rational"}, ["1", "-1"]),
    ({"kind": "rational"}, ["1/3", 2, "-7/3"]),
    ({"kind": "prime", "p": 5}, ["3", "2"]),
    ({"kind": "prime", "p": 5}, [4, 4, "2 mod 5"]),
])
def test_repeated_triples_that_cancel_leave_no_cell(tmp_path, field, cancelling):
    extra = [{"i": 1, "j": 1, "k": 0, "c": c} for c in cancelling]
    with_repeats, plain = tmp_path / "repeats.json", tmp_path / "plain.json"
    with_repeats.write_text(json.dumps(_dual_numbers_file(field, extra)))
    plain.write_text(json.dumps(_dual_numbers_file(field, [])))
    entry, want = load_file(str(with_repeats)), load_file(str(plain))
    assert (1, 1, 0) not in entry.payload.mult.cells
    assert entry.payload == want.payload
    assert json.dumps(dump(entry), sort_keys=True) == json.dumps(dump(want), sort_keys=True)


@pytest.mark.parametrize("field, parts, total", [
    ({"kind": "rational"}, ["1/3", "2/3"], "1"),
    ({"kind": "rational"}, [1, 1, "-1/2"], "3/2"),
    ({"kind": "prime", "p": 5}, ["3", "4"], "2 mod 5"),
])
def test_repeated_triples_add_up(field, parts, total):
    # x x = total 1: not associative unless total is 0, so load without checking
    obj = _dual_numbers_file(field, [{"i": 1, "j": 1, "k": 0, "c": c} for c in parts])
    summed = _dual_numbers_file(field, [{"i": 1, "j": 1, "k": 0, "c": total}])
    entry = load_entry(obj, validate=False)
    assert entry.payload == load_entry(summed, validate=False).payload
    assert [t["c"] for t in dump(entry)["mult"] if (t["i"], t["j"]) == (1, 1)] == [total]
