"""Uniform pass/fail reports for axiom checkers.

Every ``check_*`` function walks a finite list of axioms over basis
tuples and produces a Report: the first violating witness per axiom, a
total violation count, and the lists of axioms that were checked or
skipped.  Reports serialise to plain JSON with scalars rendered as exact
strings.  The seed of the randomized searches lives here too, because
every report header names it.
"""

from __future__ import annotations

import os
from math import prod

from .exactlin import InternalError, RawTensor, Record, Vec, differing, scalar_vec

DEFAULT_SEED = "hopfrb"
DEFAULT_TRIALS = 100


def fuzz_seed(seed=None) -> str:
    """The seed of randomized searches: `seed`, else HOPFRB_SEED or DEFAULT_SEED."""
    return os.environ.get("HOPFRB_SEED", DEFAULT_SEED) if seed is None else str(seed)


class Violation(Record):
    """First witness for one violated axiom: named basis indices + delta."""

    axiom: str
    witness: tuple  # tuple[(role, index), ...]
    delta: Vec | None = None

    def to_json(self) -> dict:
        out: dict = {"axiom": self.axiom}
        out.update({role: idx for role, idx in self.witness})
        if self.delta is not None:
            out["delta"] = [str(s) for s in self.delta]
        return out


def _postcondition(clause: str, structure: str, got, want=None, witness=None) -> None:
    """Assert that `clause` holds of `structure`; a failure is a package bug.

    `got` is a Report, which must have no violation (an axiom it skipped is
    no failure), or one side of an equality whose other side is `want`:
    raw tensors or plain values.  The passing path makes only that check.
    On failure the InternalError names the structure, the clause and the
    first witness: the Report's first Violation; the text `witness()`
    returns, when the caller names one (a boolean clause builds its
    witness text only then); or else the first differing cell of two raw
    tensors and both of its values, or the two plain values."""
    if isinstance(got, Report):
        if not got.violation_count:
            return
        text = got.violations[0].to_json()
    elif got == want:
        return
    elif witness is not None:
        text = witness()
    else:
        at, x, y = (), got, want
        if isinstance(got, RawTensor) and (cells := differing(got, want, len(got.shape))):
            at = cells[0]
            x, y = scalar_vec(got.field or want.field, [t.cells.get(at, 0) for t in (got, want)])
        text = f"cell {at}: got {x}, want {y}"
    raise InternalError(f"{structure}: {clause} fails; first witness {text}")


class Report(Record):
    check: str
    instance: str = ""
    violations: tuple = ()
    violation_count: int = 0
    checked: tuple = ()
    skipped: tuple = ()
    weight: str | None = None

    @property
    def result(self) -> str:
        if self.violation_count:
            return "fail"
        if self.skipped and not self.checked:
            return "skipped"
        return "pass"

    @property
    def ok(self) -> bool:
        return self.result == "pass"

    def to_json(self) -> dict:
        out: dict = {
            "check": self.check,
            "instance": self.instance,
            "result": self.result,
        }
        if self.weight is not None:
            out["weight"] = self.weight
        if self.violations:
            out["witness"] = self.violations[0].to_json()
            out["violations"] = self.violation_count
        if self.skipped:
            out["skipped"] = list(self.skipped)
        return out


class Checker:
    """Accumulates axiom outcomes; keeps one witness per axiom."""

    def __init__(self, check: str, instance: str = "", weight: str | None = None):
        self._check = check
        self._instance = instance
        self._weight = weight
        self._violations: dict[str, Violation] = {}
        self._count = 0
        self._checked: list[str] = []
        self._skipped: list[str] = []

    def _touch(self, axiom: str) -> None:
        if axiom not in self._checked:
            self._checked.append(axiom)

    def compare(self, roles: tuple, *checks) -> None:
        """Compare raw tensors, cell by cell, on every witness prefix.

        Each check is ``(axiom, got, want)``: raw tensors whose leading
        indices are the witness `roles` (want None reads as zero).  A check
        may add a fourth entry, the number of leading roles it names when it
        names fewer.  The mismatches are listed as nested loops over the
        roles would meet them, with the checks at one prefix in the order
        given; a check naming fewer roles runs at its prefix before the
        deeper checks that follow it in `checks`, or after those before it.
        An axiom counts as checked when its prefix range is not empty, every
        mismatch counts, and only an axiom's first witness builds its dense
        Scalar delta (got - want on the cells under the prefix)."""
        depth = [c[3] if len(c) > 3 else len(roles) for c in checks]
        found = []
        for n, (axiom, got, want, *_) in enumerate(checks):
            d = depth[n]
            if not prod(got.shape[:d]):
                continue
            self._touch(axiom)
            after = any(e > d for e in depth[:n])
            pad = (float("inf") if after else -1,) if d < len(roles) else ()
            found += [((*w, *pad, n), w, n) for w in differing(got, want, d)]
        for _, w, n in sorted(found):
            axiom, got, want = checks[n][:3]
            self._count += 1
            if axiom not in self._violations:
                values = got.flat(w)
                if want is not None:
                    values = [x - y for x, y in zip(values, want.flat(w))]
                self._violations[axiom] = Violation(
                    axiom, tuple(zip(roles, w)), scalar_vec(got.field or want.field, values))

    def merge(self, sub: Report) -> None:
        """Take in a sub-check: the first witness of each axiom it violated
        and its whole violation count."""
        for v in sub.violations:
            self._touch(v.axiom)
            self._violations.setdefault(v.axiom, v)
        self._count += sub.violation_count

    def skip(self, axiom: str) -> None:
        if axiom not in self._skipped:
            self._skipped.append(axiom)

    def report(self) -> Report:
        # positional: every check builds one, and Record binds positional
        # arguments faster than keywords
        return Report(self._check, self._instance, tuple(self._violations.values()),
                      self._count, tuple(self._checked), tuple(self._skipped), self._weight)
