"""Names the benchmark reads from the package must keep resolving.

bench/spans.py counts a layer by rebinding every name listed in its
FUNCTIONS table; a rename in src would silently stop that counter.
"""

import importlib
import importlib.util
from pathlib import Path

from hopfrb import catalog, cli, exactlin, structures

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_functions() -> dict:
    return _spans().FUNCTIONS


def test_every_traced_function_resolves_in_src():
    table = _traced_functions()
    assert table
    for module_name, names in table.items():
        module = importlib.import_module(f"hopfrb.{module_name}")
        for name in names:
            assert callable(getattr(module, name, None)), f"hopfrb.{module_name}.{name}"


def test_selftest_reads_the_solver_structures_imported():
    # bench/selftest.py checks that tracing rebinds structures.solve_linear
    assert structures.solve_linear is exactlin.solve_linear


def _spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracing_keeps_the_kind_and_check_tables_usable_and_restores_them(capsys):
    # the tracer rebuilds a table row that holds a traced checker as a plain
    # tuple; loading, validating and checking must read it through that copy
    importlib.import_module("hopfrb.actions")  # Tracer.install wraps an actions method
    kinds, checks = dict(catalog._KINDS), dict(cli._ENTRY_CHECKS)
    hopf = catalog.dump(catalog.get("group-algebra-c2"))
    tracer = _spans().Tracer()
    tracer.install()
    try:
        assert catalog._KINDS["hopf"] is not kinds["hopf"]
        assert catalog.load_entry({**hopf, "name": "traced-c2"}).kind == "hopf"
        assert tracer.calls["structures.check_hopf"] == 1
        assert cli.main(["check", "module", "--entry", "c2-regular-module"]) == 0
    finally:
        tracer.uninstall()
    assert capsys.readouterr().out == "check module: pass\n"
    assert all(catalog._KINDS[k] is row for k, row in kinds.items())
    assert all(cli._ENTRY_CHECKS[k] is row for k, row in checks.items())
