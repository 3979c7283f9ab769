"""Command line front end.

Three subcommands: ``list`` prints the catalog, ``check`` runs one named
checker against catalog entries (or structure files), ``replay`` re-runs
a statement's verification suite.  Exit codes are never conflated:
0 means every checked claim held, 1 means a claim was checked and failed,
2 means the request itself was unusable (unknown name, kind mismatch,
malformed file, bad weight).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import __version__
from .exactlin import ExactError, FieldError, RawTensor, Record, Scalar, raw_identity
from .report import DEFAULT_TRIALS, fuzz_seed
from .structures import (
    PreconditionError,
    StructureError,
    algebra_of,
    check_algebra,
    check_bialgebra,
    check_coalgebra,
    check_counital_maps,
    check_weak_bialgebra,
    coalgebra_of,
    quantum_commutative_witness,
)
from . import catalog
from .catalog import _KINDS, KINDS, CatalogError, _deferred, _matrix, _on_host

# actions, rbcore and hopfrb are imported where a check reads them, so a
# cold command loads only the layers it uses

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
DEFAULT_WEIGHT = "-1"


class UsageError(Exception):
    """Bad request: unknown name, kind mismatch, unparsable input."""


class RunConfig(Record):
    """Parsed invocation; one value per flag the subcommands share."""

    command: str
    target: str = ""
    names: dict | None = None  # a fresh dict per config when left out
    op: str | None = None
    weight: str = DEFAULT_WEIGHT
    seed: int | None = None
    trials: int = DEFAULT_TRIALS
    report: str | None = None
    kind: str | None = None

    def __post_init__(self) -> None:
        if self.names is None:
            object.__setattr__(self, "names", {})
        if self.trials < 0:
            raise UsageError("trials must be nonnegative")


def _resolve(cfg: RunConfig, flag: str, kinds: tuple = ()):
    """Entry named by --<flag>; a leading @ loads a structure file unvalidated."""
    name = cfg.names.get(flag)
    if name is None:
        raise UsageError(f"check {cfg.target!r} needs --{flag}")
    if name.startswith("@"):
        entry = catalog.load_file(name[1:], validate=False)
    else:
        entry = catalog.get(name)
    if kinds and entry.kind not in kinds:
        raise UsageError(
            f"--{flag} {entry.name!r} has kind {entry.kind!r}, expected one of {sorted(kinds)}"
        )
    return entry


def parse_operator(literal: str, alg, module=None) -> RawTensor:
    """Operator literal -> raw matrix.

    proj:<label> and leftmul:<label> act by a basis element, on the algebra
    itself or through the module action when one is given; proj additionally
    requires the element to be idempotent.
    """
    f = alg.field
    n = module.dim if module is not None else alg.dim
    if literal == "zero":
        return RawTensor(f, (n, n), {})
    if literal == "id":
        return raw_identity(f, n)
    if literal.startswith("scalar:"):
        try:
            c = f.of(literal[len("scalar:"):])
        except (FieldError, ValueError) as ex:
            raise UsageError(f"bad scalar literal: {ex}") from None
        return raw_identity(f, n).scaled(c)
    if literal.startswith("matrix:@"):
        path = literal[len("matrix:@"):]
        rows = catalog.read_json(path)
        try:
            m = _matrix(f, {"matrix": rows}, "matrix")
        except (CatalogError, FieldError) as ex:
            raise UsageError(f"cannot read matrix from {path}: {ex}") from None
        if len(m) != n or any(len(r) != n for r in m):
            raise UsageError(f"matrix in {path} is not {n}x{n}")
        return RawTensor.of(f, m, (n, n))
    for prefix in ("proj:", "leftmul:"):
        if literal.startswith(prefix):
            label = literal[len(prefix):]
            try:
                e = alg.basis(alg.index(label))
            except StructureError as ex:
                raise UsageError(str(ex)) from None
            if prefix == "proj:" and alg.mul(e, e) != e:
                raise UsageError(f"basis element {label!r} is not idempotent")
            return module.matrix(e) if module is not None else alg.left_mult(e)
    raise UsageError(f"unknown operator literal {literal!r}")


def _parse_weight(cfg: RunConfig, field) -> Scalar:
    try:
        return field.of(cfg.weight)
    except (FieldError, ValueError) as ex:
        raise UsageError(f"bad weight {cfg.weight!r}: {ex}") from None


# ---------------------------------------------------------------------------
# check dispatch

_HOST_KINDS = ("bialgebra", "hopf", "weak-bialgebra", "weak-hopf")
_WEAK_KINDS = ("weak-bialgebra", "weak-hopf")
_ALGEBRA_KINDS = ("algebra",) + _HOST_KINDS

_ENTRY_CHECKS = {
    "algebra": (_ALGEBRA_KINDS, lambda p: check_algebra(algebra_of(p))),
    "coalgebra": (_HOST_KINDS, lambda p: check_coalgebra(coalgebra_of(p))),
    "bialgebra": (("bialgebra", "hopf"), check_bialgebra),
    "weak-bialgebra": (_WEAK_KINDS, check_weak_bialgebra),
    "counital-maps": (_WEAK_KINDS, check_counital_maps),
    "braided": (("pairing",), _on_host(_deferred("hopfrb", "check_braided"))),
    # the check named after a kind reads that kind alone, with the checker
    # that validates its entries
    **{kind: ((kind,), _KINDS[kind][1])
       for kind in ("hopf", "weak-hopf", "module", "comodule", "dimodule", "hopf-module",
                    "doi-hopf", "pairing", "rmatrix")},
}

CHECK_NAMES = tuple(sorted(_ENTRY_CHECKS)) + (
    "atkinson",
    "generic",
    "quantum-commutative",
    "rb-operator",
    "rbp-module",
)


def _run_check(cfg: RunConfig) -> dict:
    """Report body for one check; 'result' decides the exit code."""
    name = cfg.target
    if name in _ENTRY_CHECKS:
        kinds, fn = _ENTRY_CHECKS[name]
        entry = _resolve(cfg, "entry", kinds)
        rep = fn(entry.payload)
        return {"inputs": {"entry": entry.name}, "result": rep.result, "report": rep.to_json()}

    if name == "quantum-commutative":
        entry = _resolve(cfg, "entry", _WEAK_KINDS)
        witness = quantum_commutative_witness(entry.payload)
        body = {"check": "quantum-commutative", "instance": entry.name,
                "result": "pass" if witness is None else "fail"}
        if witness is not None:
            body["witness"] = witness.to_json()
        return {"inputs": {"entry": entry.name}, "result": body["result"], "report": body}

    if name == "rb-operator":
        entry = _resolve(cfg, "algebra", _ALGEBRA_KINDS)
        alg = algebra_of(entry.payload)
        lam = _parse_weight(cfg, alg.field)
        if cfg.op is None:
            raise UsageError("check 'rb-operator' needs --op")
        op = parse_operator(cfg.op, alg)
        from .rbcore import check_rb_operator

        rep = check_rb_operator(alg, op, lam, instance=entry.name)
        return {"inputs": {"algebra": entry.name, "op": cfg.op},
                "result": rep.result, "report": rep.to_json()}

    if name == "rbp-module":
        from .rbcore import RbpInstance, check_rbp_module

        iname = cfg.names.get("instance")
        if iname is None:
            raise UsageError("check 'rbp-module' needs --instance")
        inst = catalog.get_instance(iname)
        lam = _parse_weight(cfg, inst.algebra.field)
        probe = RbpInstance(inst.algebra, inst.module, inst.p, inst.t, lam, name=iname)
        rep = check_rbp_module(probe)
        return {"inputs": {"instance": iname}, "result": rep.result, "report": rep.to_json()}

    if name == "atkinson":
        from .rbcore import atkinson_solvable

        iname = cfg.names.get("instance")
        if iname is None:
            raise UsageError("check 'atkinson' needs --instance")
        inst = catalog.get_instance(iname)
        lam = _parse_weight(cfg, inst.algebra.field)
        ok = atkinson_solvable(inst.algebra, inst.module, inst.p, inst.t, lam)
        body = {"check": "atkinson", "instance": iname, "weight": str(lam),
                "result": "pass" if ok else "fail"}
        return {"inputs": {"instance": iname}, "result": body["result"], "report": body}

    if name == "generic":
        entry = _resolve(cfg, "module", ("module",))
        module = entry.payload
        alg = module.algebra
        lam = _parse_weight(cfg, alg.field)
        if cfg.op is None:
            raise UsageError("check 'generic' needs --op")
        t = parse_operator(cfg.op, alg, module=module)
        from .rbcore import classify_generic

        verdict = classify_generic(module, t, lam, trials=cfg.trials, seed=fuzz_seed(cfg.seed))
        return {"inputs": {"module": entry.name, "op": cfg.op},
                "result": "pass" if verdict.generic is True else "fail",
                "report": verdict.to_json()}

    raise UsageError(f"unknown check {name!r}; known: {', '.join(CHECK_NAMES)}")


# ---------------------------------------------------------------------------
# subcommands


def _emit(cfg: RunConfig, doc: dict) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2) + "\n"
    if cfg.report:
        try:
            with open(cfg.report, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as ex:
            raise UsageError(f"cannot write report {cfg.report}: {ex}") from None


def cmd_list(cfg: RunConfig) -> int:
    if cfg.kind is not None and cfg.kind not in KINDS:
        raise UsageError(f"unknown kind {cfg.kind!r}; known: {', '.join(KINDS)}")
    for n, k in catalog.list_entries():
        if cfg.kind in (None, k):
            print(f"{n}  {k}")
    return EXIT_PASS


def cmd_check(cfg: RunConfig) -> int:
    body = _run_check(cfg)
    doc = {
        "command": "check",
        "check": cfg.target,
        "version": __version__,
        "seed": fuzz_seed(cfg.seed),
        "weight": cfg.weight,
        "trials": cfg.trials,
    }
    doc.update(body)
    _emit(cfg, doc)
    print(f"check {cfg.target}: {doc['result']}")
    if doc["result"] != "pass":
        witness = doc["report"].get("witness")
        if witness:
            print(f"  witness: {json.dumps(witness, sort_keys=True)}")
        return EXIT_FAIL
    return EXIT_PASS


def cmd_replay(cfg: RunConfig) -> int:
    from .replay import run_all, run_replay, replay_ids

    if cfg.target == "all":
        doc = run_all(seed=cfg.seed, trials=cfg.trials)
        reports = doc["replays"]
    elif cfg.target in replay_ids():
        doc = run_replay(cfg.target, seed=cfg.seed, trials=cfg.trials)
        reports = [doc]
    else:
        raise UsageError(f"unknown theorem id {cfg.target!r}; known: "
                         f"{', '.join(replay_ids())} or 'all'")
    doc = {"command": "replay", **doc}
    _emit(cfg, doc)
    for rep in reports:
        n = len(rep["checks"])
        bad = rep["failed"]
        tail = f"({n} checks)" if bad == 0 else f"({bad} of {n} checks failed)"
        print(f"{rep['replay']}: {rep['result']} {tail}")
    return EXIT_PASS if doc["result"] == "pass" else EXIT_FAIL


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="hopfrb",
        description="Finite-dimensional Hopf-algebraic structures and their "
                    "Rota-Baxter paired modules, checked exactly.",
    )
    ap.add_argument("--version", action="version", version=f"hopfrb {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="catalog entries, one per line")
    p_list.add_argument("--kind", help="only entries of this kind")

    p_check = sub.add_parser("check", help="run one checker")
    p_check.add_argument("check", metavar="CHECK", help=", ".join(CHECK_NAMES))
    p_check.add_argument("--entry", help="catalog entry name, or @file.json")
    p_check.add_argument("--algebra", help="entry carrying the algebra to check")
    p_check.add_argument("--module", help="module entry name")
    p_check.add_argument("--instance", help="verified instance name")
    p_check.add_argument("--op", help="operator literal: proj:<label>, leftmul:<label>, "
                                      "matrix:@file.json, zero, id, scalar:<c>")
    _common_flags(p_check)

    p_replay = sub.add_parser("replay", help="re-run a statement's suite")
    p_replay.add_argument("id", metavar="ID", help="theorem id or 'all'")
    _common_flags(p_replay)
    return ap


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--weight", default=DEFAULT_WEIGHT,
                   help=f"weight scalar (default {DEFAULT_WEIGHT})")
    p.add_argument("--seed", type=int, default=None,
                   help="integer seed (default: HOPFRB_SEED or built-in)")
    p.add_argument("--trials", type=int, default=DEFAULT_TRIALS,
                   help=f"fuzz trials (default {DEFAULT_TRIALS})")
    p.add_argument("--report", metavar="OUT.JSON", help="write the JSON report here")


def _config(args: argparse.Namespace) -> RunConfig:
    """The parsed flags; a flag the subcommand lacks keeps RunConfig's default."""
    given = vars(args)
    names = {k: given[k] for k in ("entry", "algebra", "module", "instance")
             if given.get(k) is not None}
    return RunConfig(target=given.get("check") or given.get("id") or "", names=names,
                     **{k: v for k, v in given.items() if k in RunConfig._fields})


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _config(args)
        if cfg.command == "list":
            return cmd_list(cfg)
        if cfg.command == "check":
            return cmd_check(cfg)
        return cmd_replay(cfg)
    except (UsageError, CatalogError, StructureError, PreconditionError, ExactError) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
