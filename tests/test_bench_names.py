"""Names the benchmark reads from the package must keep resolving.

bench/spans.py counts a layer by rebinding every name listed in its
FUNCTIONS table; a rename in src would silently stop that counter.
"""

import importlib
import importlib.util
from pathlib import Path

from hopfrb import exactlin, structures

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _traced_functions() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans.FUNCTIONS


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
