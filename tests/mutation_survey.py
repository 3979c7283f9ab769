"""Mutation survey of the contraction specs; pytest does not collect it.

Every formula in the package is one einsum spec literal or one literal
index order of `RawTensor.permuted`, so a swapped index is the likeliest
silent bug.  For each such literal in ``src/hopfrb/*.py`` (in file and
line order, docstring examples included), the survey swaps the first two
letters of the first operand of a spec that has two or more, or the first
two entries of a ``permuted(...)`` order; it copies the tree to a scratch
directory, runs the tier-1 suite on that one mutant with ``pytest -x``,
and reports the mutants that no test kills.  The mutated module's own test
file (``tests/test_<module>.py``), where there is one, runs first with the
same flags, and the whole suite only when that file passes: a mutant it
kills fails the whole suite as well, so every verdict is the whole suite's.
A killed mutant is printed with the node id of the test that killed it,
read off pytest's short failure summary, so a kill by a test that fails
for another reason (timing, load) can be told from a real one.

    python3 tests/mutation_survey.py [--root DIR] [--work DIR]

``--root`` is the tree to survey (default: this checkout); ``--work`` the
scratch directory the copy lives in (default: a fresh temporary one).
The source under ``--root`` is never written.  One mutant of a survivor
costs one full tier-1 run, so the whole survey takes tens of minutes.

A surviving mutant is either a gap in the tests or equivalent to the
original; the known equivalent ones are listed in EQUIVALENT with their
reasons, keyed by file and original literal.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPEC = re.compile(r'"([a-z]+(?:,[a-z]+)*->[a-z]*)"')
PERMUTED = re.compile(r"\.permuted\((\d+(?:, \d+)+)\)")

EQUIVALENT = {
    ("exactlin.py", "ij,kl,ikx,jly->xy"): "the example in contract's docstring is never run",
    ("replay.py", "ki,k->i"): "prop-4.1 reads functional_operator on C_2 only, where every "
                              "Delta(g) = g (x) g makes T diagonal, so T read transposed is T",
    ("hopfrb.py", "ijx,rx->ijr"): "adjoint_rbp's target postcondition pi_L(h_(1) x S(h_(2))) = "
                                  "pi_L(hx) reads (h, x) as (x, h) on either side; the quantum "
                                  "commutative hosts it runs on (group algebras, where pi_L = "
                                  "eps( ) 1, and groupoid algebras, where pi_L(g) is the identity "
                                  "at g's target) have pi_L(hx) = pi_L(xh)",
}


def mutate(spec: str) -> str | None:
    """The spec with the first two letters of its first operand of two or
    more letters swapped; None when every operand has one letter."""
    ins, out = spec.split("->")
    ops = ins.split(",")
    for n, op in enumerate(ops):
        if len(op) >= 2:
            ops[n] = op[1] + op[0] + op[2:]
            return ",".join(ops) + "->" + out
    return None


def swap_order(order: str) -> str:
    """A ``permuted`` order such as "1, 2, 0" with its first two entries swapped."""
    first, second, *rest = order.split(", ")
    return ", ".join([second, first, *rest])


def mutants(src: Path) -> list:
    """(file name, line, original literal, mutant literal, mutated source
    text) per literal, in file and position order."""
    out = []
    for path in sorted(src.glob("*.py")):
        text = path.read_text()
        found = [(m, mutate(m.group(1))) for m in SPEC.finditer(text)]
        found += [(m, swap_order(m.group(1))) for m in PERMUTED.finditer(text)]
        for match, new in sorted(found, key=lambda x: x[0].start()):
            if new is None:
                continue
            line = text.count("\n", 0, match.start()) + 1
            mutated = text[:match.start(1)] + new + text[match.end(1):]
            original = match.group(0)[1:] if match.re is PERMUTED else match.group(1)
            mutant = f"permuted({new})" if match.re is PERMUTED else new
            out.append((path.name, line, original, mutant, mutated))
    return out


def _first_failure(work: Path, target: str) -> str | None:
    """The node id of the test of `target` that failed or errored first, as
    pytest's short summary names it; None when every test passes.  A run
    that fails without naming a test gives its exit status."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "-p", "no:cacheprovider",
         "--hypothesis-seed=0", target],
        cwd=work, env=env, capture_output=True, text=True)
    if run.returncode == 0:
        return None
    for line in run.stdout.splitlines():
        if line.startswith(("FAILED ", "ERROR ")):
            return line.split(" ", 1)[1].split(" - ", 1)[0]
    return f"pytest exit status {run.returncode}"


def killer(work: Path, module: str) -> str | None:
    """The node id of the test that kills the mutant of `module` (a file
    name in src/hopfrb); None when the mutant passes the whole suite.  Its
    own test file, where there is one, runs first."""
    own = Path("tests") / f"test_{Path(module).stem}.py"
    if (work / own).is_file() and (nodeid := _first_failure(work, str(own))) is not None:
        return nodeid
    return _first_failure(work, "tests")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1])
    ap.add_argument("--work", type=Path, default=None)
    args = ap.parse_args(argv)
    work = Path(tempfile.mkdtemp(prefix="mutation-")) if args.work is None else args.work
    tree = work / "tree"
    if tree.exists():
        shutil.rmtree(tree)
    shutil.copytree(args.root, tree, ignore=shutil.ignore_patterns(
        ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
    found = mutants(tree / "src" / "hopfrb")
    survivors = []
    for n, (name, line, spec, mutant, mutated) in enumerate(found):
        path = tree / "src" / "hopfrb" / name
        original = path.read_text()
        path.write_text(mutated)
        try:
            by = killer(tree, name)
        finally:
            path.write_text(original)
        note = EQUIVALENT.get((name, spec), "")
        if by is None:
            survivors.append(n)
            verdict = f"SURVIVED{f' (equivalent: {note})' if note else ''}"
        else:
            verdict = f"killed by {by}"
        print(f"{n:3d} {name}:{line} {spec} -> {mutant}: {verdict}", flush=True)
    print(f"survivors: {len(survivors)} of {len(found)} mutants", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
