"""CLI surface: exit codes, report files, determinism."""

import hashlib
import json
import os
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import hopfrb
from hopfrb import __version__, catalog, structures
from hopfrb.cli import _ENTRY_CHECKS, main
from hopfrb.exactlin import RATIONAL
from hopfrb.catalog import MAX_DIM, dump, get, list_entries
from hopfrb.cli import parse_operator


# -- list ---------------------------------------------------------------------


def test_list_includes_every_entry(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "mat2-rational  algebra" in out
    assert "weak-pair-groupoid  weak-hopf" in out
    assert len(out.strip().splitlines()) == 34


def test_list_kind_filter(capsys):
    assert main(["list", "--kind", "weak-hopf"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["weak-pair-groupoid  weak-hopf", "weak-two-point  weak-hopf"]


def test_list_empty_filter_is_fine(capsys):
    # a known kind that no built-in entry has
    assert main(["list", "--kind", "bialgebra"]) == 0
    assert capsys.readouterr().out == ""


def test_list_unknown_kind_is_bad_input(capsys):
    assert main(["list", "--kind", "frobnicator"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: unknown kind 'frobnicator'")
    assert "weak-hopf" in captured.err


# -- check exit codes ---------------------------------------------------------


def test_check_rb_operator_pass():
    assert main(["check", "rb-operator", "--algebra", "mat2-rational",
                 "--op", "proj:E11", "--weight", "-1"]) == 0


def test_check_rb_operator_fail_with_witness(capsys):
    rc = main(["check", "rb-operator", "--algebra", "mat2-rational",
               "--op", "leftmul:E12", "--weight", "-1"])
    assert rc == 1
    out = capsys.readouterr().out
    assert "fail" in out and "witness" in out


def test_check_rbp_module_instance():
    assert main(["check", "rbp-module", "--instance", "doubled-mat2",
                 "--weight", "-1"]) == 0
    assert main(["check", "rbp-module", "--instance", "doubled-mat2",
                 "--weight", "3"]) == 1


def test_check_usage_errors(capsys):
    cases = [
        ["check", "frobnicate", "--entry", "mat2-rational"],
        ["check", "rb-operator", "--algebra", "mat2-rational"],  # no --op
        ["check", "rb-operator", "--algebra", "no-such", "--op", "id"],
        ["check", "hopf", "--entry", "mat2-rational"],  # kind mismatch
        ["check", "rb-operator", "--algebra", "mat2-rational", "--op", "proj:E12"],
        ["check", "rb-operator", "--algebra", "mat2-rational", "--op", "warp:E11"],
        ["check", "rb-operator", "--algebra", "mat2-rational", "--op", "id",
         "--weight", "1/0"],
        # str never writes a decimal point or a digit underscore
        ["check", "rb-operator", "--algebra", "mat2-rational", "--op", "id",
         "--weight", "0.5"],
        ["check", "rb-operator", "--algebra", "mat2-rational", "--op", "id",
         "--weight", "1_0"],
    ]
    for argv in cases:
        assert main(argv) == 2, argv
        assert capsys.readouterr().err.startswith("error:")


def test_check_structure_entries():
    assert main(["check", "hopf", "--entry", "group-algebra-c2"]) == 0
    assert main(["check", "weak-hopf", "--entry", "weak-pair-groupoid"]) == 0
    assert main(["check", "quantum-commutative", "--entry", "weak-two-point"]) == 0
    assert main(["check", "quantum-commutative", "--entry", "weak-pair-groupoid"]) == 1


def test_check_generic_verdict_drives_exit():
    base = ["check", "generic", "--module", "c2-regular-module", "--seed", "3",
            "--trials", "20"]
    assert main(base + ["--op", "scalar:0"]) == 0
    assert main(base + ["--op", "scalar:2"]) == 1


def test_check_algebra_walks_the_entry_once(monkeypatch):
    walks = []

    class Counting(structures.Checker):
        def __init__(self, check, instance=""):
            walks.append(check)
            super().__init__(check, instance)

    monkeypatch.setattr(structures, "Checker", Counting)
    # a fresh entry, so validating it is part of the command
    monkeypatch.delitem(catalog._BUILT, "mat3-rational", raising=False)
    assert main(["check", "algebra", "--entry", "mat3-rational"]) == 0
    assert walks == ["algebra"]


def test_check_structure_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "kind": "algebra", "name": "bad", "dim": 2, "basis": ["x", "y"],
        "mult": [{"i": 0, "j": 0, "k": 1, "c": "1"},
                 {"i": 0, "j": 1, "k": 0, "c": "1"}],
    }))
    assert main(["check", "algebra", "--entry", f"@{bad}"]) == 1
    capsys.readouterr()
    junk = tmp_path / "junk.json"
    junk.write_text("{oops")
    assert main(["check", "algebra", "--entry", f"@{junk}"]) == 2


@pytest.mark.parametrize("entry,drop", [
    ("c2-regular-module", "dim"),
    ("c2-regular-module", "algebra"),
    ("c2-regular-comodule", "dim"),
    ("c2-regular-comodule", "host"),
])
def test_check_file_missing_key_exits_2(tmp_path, capsys, entry, drop):
    obj = dump(get(entry))
    del obj[drop]
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    kind = obj["kind"]
    assert main(["check", kind, "--entry", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and drop in err


# one malformed value per case, each in a catalog.dump-ed entry
MALFORMED_FILES = {
    "dimodule-without-module": ("c2-long-dimodule", lambda obj: obj.pop("module")),
    "dimodule-module-is-a-hopf-algebra": (
        "c2-long-dimodule", lambda obj: obj.update(module="group-algebra-c2")),
    "module-action-is-a-number": ("c2-regular-module", lambda obj: obj.update(action=5)),
    "pairing-sigma-is-a-number": ("c2-bicharacter-sigma", lambda obj: obj.update(sigma=5)),
    "rmatrix-without-rinv": ("c2-triangular-R", lambda obj: obj.pop("rinv")),
    "hopf-counit-is-a-number": ("group-algebra-c2", lambda obj: obj.update(counit=3)),
    "hopf-module-host-is-a-list": (
        "c2-regular-hopf-module", lambda obj: obj.update(host=["x"])),
    "algebra-coefficient-is-a-float": (
        "mat2-rational", lambda obj: obj.update(
            field={"kind": "prime", "p": 5}, dim=1, basis=["x"],
            mult=[{"i": 0, "j": 0, "k": 0, "c": 1.5}], unit=[1])),
    "algebra-coefficient-is-a-bool": (
        "mat2-rational", lambda obj: obj.update(
            field={"kind": "prime", "p": 5}, dim=1, basis=["x"],
            mult=[{"i": 0, "j": 0, "k": 0, "c": True}], unit=[True])),
    "hopf-coefficient-in-exponent-notation": (
        "group-algebra-c2", lambda obj: obj["mult"][0].update(c="1e5")),
    "hopf-coefficient-with-a-decimal-point": (
        "group-algebra-c2", lambda obj: obj["mult"][0].update(c="1.0")),
    "hopf-coefficient-with-a-digit-underscore": (
        "group-algebra-c2", lambda obj: obj["mult"][0].update(c="1_0")),
    "hopf-coefficient-with-a-non-ascii-digit": (
        "group-algebra-c2", lambda obj: obj["mult"][0].update(c="\u0661")),
    "hopf-antipode-row-is-a-number": ("group-algebra-c2", lambda obj: obj.update(antipode=[1, 2])),
    "algebra-unit-entry-is-a-list": ("kx-mod-x2", lambda obj: obj.update(unit=[[1], 0])),
    "algebra-dim-is-a-float": ("mat2-rational", lambda obj: obj.update(dim=4.7)),
    "algebra-dim-is-a-string": ("mat2-rational", lambda obj: obj.update(dim="4")),
    "algebra-basis-is-a-string": (
        "mat2-rational", lambda obj: obj.update(dim=2, basis="1x", mult=[], unit=[1, 0])),
    "algebra-index-is-a-float": (
        "mat2-rational", lambda obj: obj["mult"].append({"i": 0.9, "j": 0, "k": 0, "c": "0"})),
    "hopf-modulus-is-a-float": (
        "group-algebra-c2", lambda obj: obj.update(field={"kind": "prime", "p": 5.5})),
    "algebra-modulus-above-the-cap": (
        "mat2-rational", lambda obj: obj.update(
            field={"kind": "prime", "p": 1000000000000000003}, dim=1, basis=["x"],
            mult=[{"i": 0, "j": 0, "k": 0, "c": "1"}], unit=["1"])),
}


def _malformed_file(tmp_path, case: str):
    entry, edit = MALFORMED_FILES[case]
    obj = dump(get(entry))
    edit(obj)
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    return ["check", obj["kind"], "--entry", f"@{path}"]


@pytest.mark.parametrize("case", list(MALFORMED_FILES))
def test_malformed_structure_file_exits_2(tmp_path, capsys, case):
    assert main(_malformed_file(tmp_path, case)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("case, named", [
    ("hopf-antipode-row-is-a-number", "antipode row 1 is not a list"),
    ("algebra-unit-entry-is-a-list", "unit entry [1] is not a string or int"),
], ids=["antipode-row", "unit-entry"])
def test_malformed_vector_or_matrix_names_its_key_and_item(tmp_path, capsys, case, named):
    assert main(_malformed_file(tmp_path, case)) == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("entry, key, text", [
    ("group-algebra-c2", "antipode", "group-algebra-c2: antipode is not dim x dim"),
    ("c2-bicharacter-sigma", "sigma", "pairing form is not dim x dim"),
], ids=["antipode", "sigma"])
def test_a_non_square_operator_in_a_structure_file_is_named_as_before(tmp_path, capsys, entry,
                                                                      key, text):
    obj = dump(get(entry))
    obj[key] = [["1", "0"]] * 3
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    assert main(["check", obj["kind"], "--entry", f"@{path}"]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize("obj, text", [
    ({"kind": "functional", "name": "on-mat3", "host": "mat3-rational", "coords": [1] * 9},
     "FinAlgebra 'mat3' has no coalgebra part"),
    ({"kind": "module", "name": "over-a-module", "algebra": "c2-regular-module", "dim": 1},
     "ActionStructure 'c2-regular-left' has no algebra part"),
], ids=["coalgebra", "algebra"])
def test_a_reference_without_the_part_a_kind_reads_is_named_by_class_and_name(tmp_path, capsys,
                                                                              obj, text):
    # the refusal names the structure; it does not print its structure constants
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    # a file is loaded before its kind is matched to the check; no check reads a functional
    assert main(["check", "algebra", "--entry", f"@{path}"]) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


# one bad sparse triple per case: (entry, key, the replacement of its first triple)
BAD_TRIPLES = {
    "mult-entry-is-a-list": ("group-algebra-c2", "mult", [0, 0, 0, "1"]),
    "coefficient-is-a-list": ("group-algebra-c2", "mult", {"i": 0, "j": 0, "k": 0, "c": [1]}),
}


@pytest.mark.parametrize("case", list(BAD_TRIPLES))
def test_bad_triple_is_named(tmp_path, capsys, case):
    entry, key, triple = BAD_TRIPLES[case]
    obj = dump(get(entry))
    obj[key][0] = triple
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    assert main(["check", obj["kind"], "--entry", f"@{path}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"{key} entry {triple!r} is not an object with i, j, k and a string or int c" in err


# files json.load returns no value for
UNREADABLE_FILES = {
    "not-utf-8": b'{"kind": "algebra", "name": "\xff"}',
    "nested-too-deeply": b"[" * 200000 + b"]" * 200000,
    "integer-too-long": b'{"kind": "algebra", "name": "x", "dim": ' + b"1" * 5000 + b"}",
}


@pytest.mark.parametrize("flag", ["--entry", "--op"])
@pytest.mark.parametrize("case", list(UNREADABLE_FILES))
def test_unreadable_structure_file_exits_2(tmp_path, capsys, case, flag):
    path = tmp_path / "entry.json"
    path.write_bytes(UNREADABLE_FILES[case])
    if flag == "--entry":
        argv = ["check", "algebra", "--entry", f"@{path}"]
    else:
        argv = ["check", "rb-operator", "--algebra", "group-algebra-c2",
                "--op", f"matrix:@{path}"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


# -- exit-code mutation fuzz ---------------------------------------------------

_TRIPLE_KEYS = ("mult", "comult", "action", "coaction")
_JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 99), st.floats(-3, 99), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3), st.dictionaries(st.text(max_size=2), st.integers(0, 3)),
)
_BAD_DIMS = st.one_of(
    st.integers(max_value=-1), st.integers(min_value=MAX_DIM + 1), st.floats(),
    st.text(max_size=3), st.booleans(), st.none(), st.lists(st.integers(0, 3), max_size=2),
)
# out of range for every dim the loader admits, or not an integer at all
_BAD_INDICES = st.one_of(st.integers(max_value=-1), st.integers(min_value=MAX_DIM),
                         st.sampled_from([0.5, 1.0, "0", True]))


@st.composite
def _mutated_entry(draw):
    """(kind, mutation, object): one catalog.dump-ed entry with one key
    dropped, one value swapped for another JSON type, one bad triple
    index, or a bad dim."""
    obj = dump(get(draw(st.sampled_from([name for name, _ in list_entries()]))))
    kind = obj["kind"]
    triples = [key for key in _TRIPLE_KEYS if key in obj]
    mutations = ["drop", "retype"] + ["index"] * bool(triples) + ["dim"] * ("dim" in obj)
    mutation = draw(st.sampled_from(mutations))
    if mutation == "drop":
        del obj[draw(st.sampled_from(sorted(obj)))]
    elif mutation == "retype":
        key = draw(st.sampled_from(sorted(obj)))
        obj[key] = draw(_JSON_VALUES.filter(lambda v: type(v) is not type(obj[key])))
    elif mutation == "index":
        triple = {"i": 0, "j": 0, "k": 0, "c": "1"}
        triple[draw(st.sampled_from("ijk"))] = draw(_BAD_INDICES)
        obj[draw(st.sampled_from(triples))].append(triple)
    else:
        dim = obj["dim"]  # near misses too: the right size, but not as an integer
        obj["dim"] = draw(_BAD_DIMS | st.sampled_from([float(dim), dim + 0.5, str(dim), [dim]]))
    return kind, mutation, obj


@settings(deadline=None, max_examples=120,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=_mutated_entry())
def test_mutated_structure_files_keep_the_exit_code_contract(tmp_path, capsys, case):
    kind, mutation, obj = case
    path = tmp_path / "entry.json"
    path.write_text(json.dumps(obj))
    check = kind if kind in _ENTRY_CHECKS else "algebra"  # a functional has no checker
    rc = main(["check", check, "--entry", f"@{path}"])
    capsys.readouterr()
    assert rc in (0, 1, 2)
    if mutation in ("index", "dim"):
        assert rc == 2


def test_malformed_structure_file_exits_2_from_the_entry_point(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfrb.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    argv = _malformed_file(tmp_path, "module-action-is-a-number")
    proc = subprocess.run([sys.executable, "-m", "hopfrb.cli", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


# a cold command imports the layers above structures only where it reads
# them, and no command imports dataclasses or inspect; the child prints
# which of these modules are loaded once main returns
_FOOTPRINT = """
import sys
from hopfrb import cli
code = cli.main(sys.argv[1:])
print(" ".join(sorted(name for name in sys.modules
                      if name.startswith("hopfrb.") or name in ("dataclasses", "inspect"))))
sys.exit(code)
"""
_UPPER = {"hopfrb.actions", "hopfrb.rbcore", "hopfrb.hopfrb", "hopfrb.replay"}
_HEAVY = {"dataclasses", "inspect"}


@pytest.mark.parametrize("argv, never", [
    (["list"], _UPPER),
    (["check", "hopf", "--entry", "group-algebra-c2"], _UPPER),
    (["check", "weak-hopf", "--entry", "@weak-pair-groupoid"], _UPPER),
    (["check", "module", "--entry", "@c2-regular-module"], {"hopfrb.rbcore", "hopfrb.hopfrb"}),
    (["check", "rb-operator", "--algebra", "mat2-rational", "--op", "proj:E11"],
     {"hopfrb.hopfrb", "hopfrb.replay"}),
    (["check", "generic", "--module", "c2-regular-module", "--op", "id", "--trials", "10"],
     {"hopfrb.hopfrb", "hopfrb.replay"}),
    (["replay", "thm-3.5"], set()),
], ids=["list", "check-hopf", "check-weak-hopf-file", "check-module-file", "check-rb-operator",
        "check-generic", "replay-thm-3.5"])
def test_cold_command_imports_only_the_layers_it_reads(tmp_path, argv, never):
    args = []
    for arg in argv:  # @name: the catalog entry name, dumped to a file
        if arg.startswith("@"):
            path = tmp_path / f"{arg[1:]}.json"
            path.write_text(json.dumps(dump(get(arg[1:]))))
            arg = f"@{path}"
        args.append(arg)
    src = os.path.dirname(os.path.dirname(os.path.abspath(hopfrb.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run([sys.executable, "-c", _FOOTPRINT, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert {"hopfrb.catalog", "hopfrb.cli", "hopfrb.structures"} <= loaded
    assert not loaded & (never | _HEAVY), sorted(loaded & (never | _HEAVY))


def test_check_report_file(tmp_path):
    out = tmp_path / "rep.json"
    rc = main(["check", "rb-operator", "--algebra", "mat2-rational",
               "--op", "proj:E11", "--report", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["version"] == __version__
    assert doc["check"] == "rb-operator"
    assert "seed" in doc
    assert doc["result"] == "pass"


# -- operator literals --------------------------------------------------------


def test_matrix_literal(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([["1/2", "1/2"], ["1/2", "1/2"]]))
    c2 = get("group-algebra-c2").payload.algebra
    m = parse_operator(f"matrix:@{mfile}", c2)
    assert m.dense()[0][0] == RATIONAL.parse("1/2")
    rc = main(["check", "generic", "--module", "c2-regular-module",
               "--op", f"matrix:@{mfile}", "--trials", "10", "--seed", "1"])
    assert rc == 0


def test_matrix_literal_shape_checked(tmp_path):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps([[1, 2, 3]]))
    assert main(["check", "rb-operator", "--algebra", "group-algebra-c2",
                 "--op", f"matrix:@{mfile}"]) == 2


@pytest.mark.parametrize("rows, named", [
    ([1, 2], "matrix row 1 is not a list"),
    ([[1, [2]], [0, 1]], "matrix entry [2] is not a string or int"),
    ({"a": 1}, "missing or non-list 'matrix'"),
], ids=["row-is-a-number", "entry-is-a-list", "object"])
def test_malformed_matrix_literal_names_its_row_or_entry(tmp_path, capsys, rows, named):
    mfile = tmp_path / "m.json"
    mfile.write_text(json.dumps(rows))
    assert main(["check", "rb-operator", "--algebra", "kx-mod-x2",
                 "--op", f"matrix:@{mfile}"]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read matrix from {mfile}: ") and named in err
    assert "Traceback" not in err


# -- replay -------------------------------------------------------------------


def test_replay_single_suite(tmp_path, capsys):
    out = tmp_path / "r.json"
    rc = main(["replay", "thm-3.2", "--trials", "50", "--seed", "7",
               "--report", str(out)])
    assert rc == 0
    assert "thm-3.2: pass" in capsys.readouterr().out
    doc = json.loads(out.read_text())
    assert doc["seed"] == "7" and doc["trials"] == 50
    assert doc["version"] == __version__


def test_replay_unknown_id(capsys):
    assert main(["replay", "prop-9.9"]) == 2
    assert "unknown theorem id" in capsys.readouterr().err


def test_replay_reports_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for path in (a, b):
        main(["replay", "prop-3.6", "--seed", "11", "--trials", "10",
              "--report", str(path)])
    assert a.read_bytes() == b.read_bytes()


def test_replay_seed_env_default(tmp_path, monkeypatch, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.setenv("HOPFRB_SEED", "42")
    main(["replay", "thm-3.5", "--trials", "5", "--report", str(a)])
    monkeypatch.delenv("HOPFRB_SEED")
    main(["replay", "thm-3.5", "--seed", "42", "--trials", "5", "--report", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_replay_all_ignores_env_seed_when_flag_given(tmp_path, monkeypatch, capsys):
    # every suite, including the ones that record classification verdicts,
    # must draw its trials from --seed and not from HOPFRB_SEED
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    monkeypatch.delenv("HOPFRB_SEED", raising=False)
    main(["replay", "all", "--seed", "7", "--trials", "3", "--report", str(a)])
    monkeypatch.setenv("HOPFRB_SEED", "other")
    main(["replay", "all", "--seed", "7", "--trials", "3", "--report", str(b)])
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


# sha256 of `hopfrb replay all --trials N --report F` as the pure-check
# implementation of classify_generic wrote it: faster code must keep every
# report byte-identical.  Trials 100 is the count the benchmark replays.
GOLDEN_REPLAY_DIGESTS = {
    ("7", 10): "8a2705e4e5fda5e0e79b2872c63fea31d0daec617067b7a88463bebcbb47defd",
    (None, 10): "9b7d898485c335d111d68c377c10ce6584c2a9a0e74ad3c5bb96e09d831c3de9",
    ("7", 100): "01eae1c47c93ba5b702651a90b99dcee427cafc3c3b9b121ba1d5523272542bf",
    # with no trial thm-3.2 cannot falsify the doubled identity, so the
    # trials-0 report fails that one check and the command exits 1
    ("31", 0): "225df3fcb335fcd02e5c7253b4987bf5770ef910c579c434e4297bebd42e8f6e",
    ("31", 1): "465d82efd14add3f55d8c7bfd23770cbddbb0bc65c7e20460bc8ded2cb6bd96e",
}


@pytest.mark.parametrize("seed,trials", list(GOLDEN_REPLAY_DIGESTS),
                         ids=["seed-7", "default-seed", "seed-7-trials-100",
                              "seed-31-trials-0", "seed-31-trials-1"])
def test_replay_all_report_digest_is_pinned(tmp_path, monkeypatch, capsys, seed, trials):
    monkeypatch.delenv("HOPFRB_SEED", raising=False)
    out = tmp_path / "r.json"
    argv = ["replay", "all", "--trials", str(trials), "--report", str(out)]
    if seed is not None:
        argv += ["--seed", seed]
    assert main(argv) == (0 if trials else 1)
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_REPLAY_DIGESTS[seed, trials]


def test_replay_negative_trials_rejected(capsys):
    assert main(["replay", "thm-3.2", "--trials", "-1"]) == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
