"""Built-in example structures and the JSON ingestion pipeline.

`_KINDS` says what each kind of entry is: the roles it references, its
axiom checker, its loader from a structure file and its writer to one.  A
built-in entry is declared with a builder or, as a composite, with the file
keys its kind's loader reads.  It is built and validated by its kind's full
axiom checker on first use, after the entries it references, and is then
kept and read only, so listing names validates nothing.  An entry that
fails is a package bug and is not kept.  The named paired-module instances
are built and verified the same way, one at a time.

Characteristic-sensitive data (anything needing 1/|G| or 1/2) is offered
through builder functions that refuse prime fields dividing the relevant
order instead of silently producing garbage.
"""

from __future__ import annotations

import itertools
import json
from importlib import import_module
from typing import TYPE_CHECKING, Callable, NamedTuple

from .exactlin import (
    FieldError,
    FieldSpec,
    RATIONAL,
    Mat,
    RawTensor,
    Record,
    Vec,
    mat,
    prime_field,
    raw_identity,
    scalar_vec,
    vec,
)
from .structures import (
    Bialgebra,
    FinAlgebra,
    FinCoalgebra,
    Functional,
    HopfAlgebra,
    WeakBialgebra,
    WeakHopfAlgebra,
    algebra_of,
    antipode_of,
    check_algebra,
    check_bialgebra,
    check_hopf,
    check_weak_bialgebra,
    check_weak_hopf,
    coalgebra_of,
)
from .report import _postcondition

# actions, rbcore and hopfrb are imported on the code paths that read them
# (see _deferred), so listing names or checking a host loads none of them
if TYPE_CHECKING:
    from .actions import ActionStructure, CoactionStructure, DoiHopfModule
    from .hopfrb import PairingForm, RMatrix
    from .rbcore import RbpInstance


class CatalogError(Exception):
    """Unknown name, malformed file, or kind mismatch."""


class CatalogEntry(Record):
    name: str
    kind: str
    payload: object
    note: str = ""
    # names of previously declared entries this one was assembled from,
    # keyed by role; composite kinds serialize through these; a fresh dict
    # per entry when left out
    refs: dict | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise CatalogError(f"unknown catalog kind {self.kind!r}")
        if self.refs is None:
            object.__setattr__(self, "refs", {})


def _deferred(module: str, name: str) -> Callable:
    """The function `name` of hopfrb.<module>, imported when first called."""

    def call(*args, **kwargs):
        return getattr(import_module(f".{module}", __package__), name)(*args, **kwargs)

    return call


def _on_host(check: Callable) -> Callable:
    """A (host, structure) -> (report, detail) checker as structure -> report."""
    return lambda p: check(p.host, p)[0]


# ---------------------------------------------------------------------------
# builders


def groupoid_algebra(name: str, arrows, labels, compose, inverse,
                     field: FieldSpec = RATIONAL) -> HopfAlgebra | WeakHopfAlgebra:
    """Algebra of a finite groupoid on its arrows.

    The product of two arrows is compose(a, b), their composite, or 0 when
    compose returns None.  Every arrow is group-like: Delta(a) = a (x) a,
    eps(a) = 1 and S(a) = inverse(a).  The unit is the sum of the
    identities, the arrows with a a = a.  One identity makes the groupoid a
    group and its algebra a Hopf algebra; with more, Delta(1) != 1 (x) 1
    and the algebra is weak Hopf (Boehm, Nill and Szlachanyi, J. Algebra
    1999)."""
    arrows = tuple(arrows)
    labels = tuple(labels)
    n = len(arrows)
    idx = {a: i for i, a in enumerate(arrows)}
    composites = ((i, j, compose(a, b)) for i, a in enumerate(arrows)
                  for j, b in enumerate(arrows))
    mult = {(i, j, idx[ab]): 1 for i, j, ab in composites if ab is not None}
    identities = [int(compose(a, a) == a) for a in arrows]
    unit = vec(field, identities)
    alg = FinAlgebra(field, n, labels, RawTensor(field, (n,) * 3, mult), unit=unit, name=name)
    comult = RawTensor(field, (n,) * 3, {(i, i, i): 1 for i in range(n)})
    coalg = FinCoalgebra(field, n, labels, comult, counit=vec(field, [1] * n))
    s = RawTensor(field, (n, n), {(idx[inverse(a)], j): 1 for j, a in enumerate(arrows)})
    if sum(identities) == 1:
        return HopfAlgebra(name, Bialgebra(name, alg, coalg), s)
    return WeakHopfAlgebra(name, WeakBialgebra(name, alg, coalg), s)


def _pair_compose(a, b):
    # arrows (i, j) of a pair groupoid, or of a subgroupoid of one
    return (a[0], b[1]) if a[1] == b[0] else None


def _pair_inverse(a):
    return (a[1], a[0])


def matrix_unit_algebra(n: int, field: FieldSpec = RATIONAL) -> FinAlgebra:
    """n x n matrix algebra on the basis E_rs, row-major: the algebra of the
    pair groupoid on n objects."""
    arrows = tuple((r, s) for r in range(1, n + 1) for s in range(1, n + 1))
    labels = tuple(f"E{r}{s}" for r, s in arrows)
    return groupoid_algebra(f"mat{n}", arrows, labels, _pair_compose, _pair_inverse,
                            field).algebra


def cyclic_group_algebra(n: int, field: FieldSpec = RATIONAL) -> HopfAlgebra:
    """Group algebra of Z/n with the group-like coalgebra structure."""
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g{i}") for i in range(n))
    return groupoid_algebra(f"c{n}", range(n), labels, lambda i, j: (i + j) % n,
                            lambda i: -i % n, field)


def symmetric_group_algebra_s3(field: FieldSpec = RATIONAL) -> HopfAlgebra:
    """Group algebra of S_3, multiplication generated from permutation
    composition rather than a hand-entered table."""
    perms = sorted(itertools.permutations(range(3)))
    labels = tuple("p" + "".join(str(v) for v in p) for p in perms)
    return groupoid_algebra(
        "s3", perms, labels, lambda p, q: tuple(p[q[i]] for i in range(3)),
        lambda p: tuple(sorted(range(3), key=lambda i: p[i])), field,
    )


def dual_c2_hopf(field: FieldSpec = RATIONAL) -> HopfAlgebra:
    """Functions on Z/2: orthogonal idempotents de, dg; comultiplication
    dual to the group product."""
    mult = RawTensor(field, (2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1})
    alg = FinAlgebra(field, 2, ("de", "dg"), mult, unit=vec(field, [1, 1]), name="dual-c2")
    com = RawTensor(field, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1})
    coalg = FinCoalgebra(field, 2, ("de", "dg"), com, counit=vec(field, [1, 0]))
    return HopfAlgebra("dual-c2", Bialgebra("dual-c2", alg, coalg), raw_identity(field, 2))


def sweedler_h4(field: FieldSpec = RATIONAL) -> HopfAlgebra:
    """The 4-dimensional algebra on 1, g, x, gx with g^2 = 1, x^2 = 0,
    xg = -gx; the antipode squares to conjugation by g, not the identity."""
    if field.kind == "prime" and field.p == 2:
        raise FieldError("this structure degenerates in characteristic 2")
    one, g, x, gx = range(4)
    # e_i e_j = c e_k as the cell (i, j, k): c; every other product is 0
    mult = {(i, one, i): 1 for i in range(4)}
    mult.update({(one, i, i): 1 for i in range(4)})
    mult.update({(g, g, one): 1, (g, x, gx): 1, (g, gx, x): 1, (x, g, gx): -1, (gx, g, x): -1})
    alg = FinAlgebra(field, 4, ("1", "g", "x", "gx"), RawTensor.read(field, (4,) * 3, mult),
                     unit=vec(field, [1, 0, 0, 0]), name="h4")
    com = {
        (one, one, one): 1,
        (g, g, g): 1,
        (x, x, one): 1,         # x (x) 1
        (x, g, x): 1,           # g (x) x
        (gx, gx, g): 1,         # gx (x) g
        (gx, one, gx): 1,       # 1 (x) gx
    }
    coalg = FinCoalgebra(field, 4, ("1", "g", "x", "gx"), RawTensor.read(field, (4,) * 3, com),
                         counit=vec(field, [1, 1, 0, 0]))
    # S(x) = -gx and S(gx) = x: column j holds S(e_j)
    s = RawTensor.read(field, (4, 4), {(one, one): 1, (g, g): 1, (gx, x): -1, (x, gx): 1})
    return HopfAlgebra("h4", Bialgebra("h4", alg, coalg), s)


def two_point_weak_hopf(field: FieldSpec = RATIONAL) -> WeakHopfAlgebra:
    """k e1 + k e2 with Delta(ei) = ei (x) ei: commutative, genuinely weak
    since Delta(1) is not 1 (x) 1.  The discrete groupoid on two objects."""
    return groupoid_algebra("two-point", ((1, 1), (2, 2)), ("e1", "e2"),
                            _pair_compose, _pair_inverse, field)


def pair_groupoid_weak_hopf(field: FieldSpec = RATIONAL) -> WeakHopfAlgebra:
    """Groupoid algebra of the pair groupoid on two objects: the matrix
    units e_ij with Delta(e_ij) = e_ij (x) e_ij and S(e_ij) = e_ji."""
    arrows = ((1, 1), (1, 2), (2, 1), (2, 2))
    labels = tuple(f"e{i}{j}" for i, j in arrows)
    return groupoid_algebra("pair-groupoid", arrows, labels, _pair_compose,
                            _pair_inverse, field)


def dual_numbers_algebra(field: FieldSpec = RATIONAL) -> FinAlgebra:
    """k[x]/(x^2) on the basis 1, x."""
    mult = RawTensor(field, (2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1})
    return FinAlgebra(field, 2, ("1", "x"), mult, unit=vec(field, [1, 0]), name="kx-mod-x2")


def sign_action_on_dual_numbers(h: HopfAlgebra) -> ActionStructure:
    """g acts on k[x]/(x^2) by x |-> -x; a module-algebra action."""
    from .actions import ActionStructure

    act = RawTensor.read(h.field, (2, 2, 2),
                         {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 0): 1, (1, 1, 1): -1})
    return ActionStructure(algebra_of(h), 2, "left", act, name="kx-mod-x2-with-c2-action")


def triangular_rmatrix_c2(h: HopfAlgebra) -> RMatrix:
    """R = (1 (x) 1 + 1 (x) g + g (x) 1 - g (x) g)/2; needs 2 invertible."""
    from .hopfrb import RMatrix

    f = h.field
    if f.kind == "prime" and f.p == 2:
        raise FieldError("triangular structure needs 2 invertible")
    half = f.of(1) / f.of(2)
    r = RawTensor.read(f, (2, 2), {(0, 0): half, (0, 1): half, (1, 0): half, (1, 1): -half})
    return RMatrix(h, r, r)


def bicharacter_sigma_c2(h: HopfAlgebra) -> PairingForm:
    """sigma(g^a, g^b) = (-1)^(ab), the nontrivial bicharacter of Z/2."""
    from .hopfrb import PairingForm

    return PairingForm(h, RawTensor.read(h.field, (2, 2),
                                         {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): -1}))


def normalized_group_integral(h: HopfAlgebra) -> Vec:
    """(sum of group elements) / |G| for a group-like basis; refuses
    characteristics dividing the group order."""
    alg = algebra_of(h)
    n = alg.dim
    f = alg.field
    if f.kind == "prime" and n % f.p == 0:
        raise FieldError(f"group order {n} is not invertible in this field")
    inv = f.of(1) / f.of(n)
    return tuple(inv for _ in range(n))


# ---------------------------------------------------------------------------
# the built-in catalog


def _validate(entry: CatalogEntry) -> None:
    checker = _KINDS[entry.kind][1]
    if checker is not None and not (rep := checker(entry.payload)).ok:
        raise CatalogError(f"catalog entry {entry.name!r} fails {entry.kind} axioms: "
                           f"{rep.to_json()}")


class _Declared(NamedTuple):
    """A built-in entry before it is built: `build` is a function of the
    payloads of `refs`, in their order, or the entry's file keys beyond its
    references, which its kind's loader reads as it reads a structure file."""

    kind: str
    note: str
    refs: dict
    build: Callable | dict


_DECLARED: dict[str, _Declared] = {}
_BUILT: dict[str, CatalogEntry] = {}


def _declare(name: str, kind: str, note: str, build: Callable | dict, **refs) -> None:
    if name in _DECLARED:
        raise CatalogError(f"duplicate catalog entry {name!r}")
    _DECLARED[name] = _Declared(kind, note, refs, build)


def get(name: str) -> CatalogEntry:
    """The built-in entry `name`, built and validated on first use together
    with the entries it references, then kept; a failing entry is not kept."""
    entry = _BUILT.get(name)
    if entry is not None:
        return entry
    try:
        decl = _DECLARED[name]
    except KeyError:
        raise CatalogError(f"unknown catalog entry {name!r}") from None
    payloads = {role: get(ref).payload for role, ref in decl.refs.items()}
    payload = (_KINDS[decl.kind][2](decl.build, name, payloads) if isinstance(decl.build, dict)
               else decl.build(*payloads.values()))
    entry = CatalogEntry(name, decl.kind, payload, decl.note, dict(decl.refs))
    _validate(entry)
    _BUILT[name] = entry
    return entry


def _catalog() -> dict:
    """Every built-in entry, built and validated."""
    return {name: get(name) for name in _DECLARED}


def list_entries() -> tuple[tuple[str, str], ...]:
    """(name, kind) pairs, sorted by name; nothing is built."""
    return tuple(sorted((name, decl.kind) for name, decl in _DECLARED.items()))


_declare("mat2-rational", "algebra", "2x2 matrix units over the rationals",
         lambda: matrix_unit_algebra(2))
_declare("mat3-rational", "algebra", "3x3 matrix units over the rationals",
         lambda: matrix_unit_algebra(3))
_declare("kx-mod-x2", "algebra", "dual numbers: 1, x with x^2 = 0", dual_numbers_algebra)

_declare("group-algebra-c2", "hopf", "group algebra of Z/2", lambda: cyclic_group_algebra(2))
_declare("group-algebra-c3", "hopf", "group algebra of Z/3", lambda: cyclic_group_algebra(3))
_declare("group-algebra-s3", "hopf",
         "group algebra of S_3, table generated from permutation composition",
         symmetric_group_algebra_s3)
_declare("dual-group-algebra-c2", "hopf", "functions on Z/2 with pointwise product",
         dual_c2_hopf)
_declare("sweedler-h4", "hopf", "4-dimensional host whose antipode is not involutive",
         sweedler_h4)

_declare("weak-two-point", "weak-hopf",
         "commutative weak host: two orthogonal idempotent group-likes", two_point_weak_hopf)
_declare("weak-pair-groupoid", "weak-hopf",
         "groupoid algebra of the pair groupoid on two objects", pair_groupoid_weak_hopf)


def _regular(side: str):
    return lambda algebra: _deferred("actions", "regular_action")(algebra_of(algebra), side)


_declare("mat2-regular-module", "module", "mat2 acting on itself by left multiplication",
         _regular("left"), algebra="mat2-rational")
_declare("mat2-regular-right-module", "module", "mat2 acting on itself by right multiplication",
         _regular("right"), algebra="mat2-rational")
_declare("c2-regular-module", "module", "Z/2 group algebra on itself, left",
         _regular("left"), algebra="group-algebra-c2")
_declare("c3-regular-module", "module", "Z/3 group algebra on itself, left",
         _regular("left"), algebra="group-algebra-c3")
_declare("c2-regular-right-module", "module", "Z/2 group algebra on itself, right",
         _regular("right"), algebra="group-algebra-c2")
_declare("c3-regular-right-module", "module", "Z/3 group algebra on itself, right",
         _regular("right"), algebra="group-algebra-c3")
_declare("pair-groupoid-regular-right-module", "module",
         "pair groupoid algebra on itself, right",
         _regular("right"), algebra="weak-pair-groupoid")
_declare("kx-mod-x2-with-c2-action", "module", "Z/2 flipping the sign of x on the dual numbers",
         sign_action_on_dual_numbers, algebra="group-algebra-c2")
_declare("c2-trivial-module", "module", "Z/2 acting through the counit on a 2-dim space",
         lambda algebra: _deferred("actions", "trivial_action")(algebra, 2, "left"),
         algebra="group-algebra-c2")

_declare("c2-regular-comodule", "comodule", "Z/2 group algebra coacting on itself",
         _deferred("actions", "regular_coaction"), host="group-algebra-c2")
_declare("c3-regular-comodule", "comodule", "Z/3 group algebra coacting on itself",
         _deferred("actions", "regular_coaction"), host="group-algebra-c3")
_declare("pair-groupoid-self-comodule", "comodule", "pair groupoid algebra coacting on itself",
         _deferred("actions", "regular_coaction"), host="weak-pair-groupoid")

_declare("c2-bicharacter-sigma", "pairing", "sign bicharacter on Z/2",
         bicharacter_sigma_c2, host="group-algebra-c2")
_declare("c2-triangular-R", "rmatrix", "the triangular structure on Z/2",
         triangular_rmatrix_c2, host="group-algebra-c2")


_declare("c2-trivial-dimodule", "dimodule", "trivial action with the regular coaction", {},
         host="group-algebra-c2", module="c2-trivial-module", comodule="c2-regular-comodule")


def _long_module(host):
    from .hopfrb import _pairing_dimodule  # shares the induced-action formula

    return _pairing_dimodule(host, get("c2-bicharacter-sigma").payload.sigma, "long").action


_declare("c2-long-module", "module", "action induced by the sign bicharacter",
         _long_module, algebra="group-algebra-c2")
_declare("c2-long-dimodule", "dimodule", "bicharacter-induced action with the regular coaction",
         {}, host="group-algebra-c2", module="c2-long-module", comodule="c2-regular-comodule")
_declare("c2-regular-hopf-module", "hopf-module", "the regular Hopf module over Z/2", {},
         host="group-algebra-c2", module="c2-regular-right-module",
         comodule="c2-regular-comodule")
_declare("c3-regular-hopf-module", "hopf-module", "the regular Hopf module over Z/3", {},
         host="group-algebra-c3", module="c3-regular-right-module",
         comodule="c3-regular-comodule")
_declare("pair-groupoid-doi-hopf", "doi-hopf",
         "the pair groupoid algebra over itself with its own coaction", {},
         host="weak-pair-groupoid", carrier="weak-pair-groupoid",
         comodule="pair-groupoid-self-comodule", module="pair-groupoid-regular-right-module")

_declare("c2-delta-e", "functional", "indicator of the identity on Z/2",
         {"coords": [1, 0]}, host="group-algebra-c2")
_declare("c2-delta-g", "functional", "indicator of the generator on Z/2",
         {"coords": [0, 1]}, host="group-algebra-c2")
_declare("c2-epsilon", "functional", "the counit of the Z/2 group algebra",
         {"coords": [1, 1]}, host="group-algebra-c2")
_declare("c2-two-delta-e", "functional", "a scaled, non-idempotent functional",
         {"coords": [2, 0]}, host="group-algebra-c2")


# ---------------------------------------------------------------------------
# named paired-module instances for the command line and the replay suite


def _mat2_proj(name: str, side: str, module: str) -> RbpInstance:
    from .rbcore import RbpInstance

    mat2 = get("mat2-rational").payload
    e11 = (mat2.left_mult if side == "left" else mat2.right_mult)(mat2.basis(0))
    return RbpInstance(mat2, get(module).payload, e11, e11, -RATIONAL.one, name=name)


def _doubled_mat2() -> RbpInstance:
    from .rbcore import double_construction

    mat2 = get("mat2-rational").payload
    e11 = mat2.left_mult(mat2.basis(0))
    _, _, doubled = double_construction(mat2, e11, get("mat2-regular-module").payload, e11,
                                        -RATIONAL.one)
    doubled.name = "doubled-mat2"
    return doubled


def _integral_proj(name: str, hopf_name: str, module_name: str) -> RbpInstance:
    from .rbcore import RbpInstance

    h = get(hopf_name).payload
    module = get(module_name).payload
    t = module.matrix(normalized_group_integral(h))
    return RbpInstance(h.algebra, module, t, t, -RATIONAL.one, name=name)


_INSTANCES = {
    "mat2-proj": lambda: _mat2_proj("mat2-proj", "left", "mat2-regular-module"),
    "mat2-right-proj": lambda: _mat2_proj("mat2-right-proj", "right",
                                          "mat2-regular-right-module"),
    "doubled-mat2": _doubled_mat2,
    "c2-integral-proj": lambda: _integral_proj("c2-integral-proj", "group-algebra-c2",
                                               "c2-regular-module"),
    "c3-integral-proj": lambda: _integral_proj("c3-integral-proj", "group-algebra-c3",
                                               "c3-regular-module"),
}
_VERIFIED: dict[str, RbpInstance] = {}


def get_instance(name: str) -> RbpInstance:
    """The named instance, built and verified by check_rbp_module on first
    use, then kept."""
    inst = _VERIFIED.get(name)
    if inst is not None:
        return inst
    try:
        build = _INSTANCES[name]
    except KeyError:
        raise CatalogError(f"unknown instance {name!r}") from None
    from .rbcore import check_rbp_module

    inst = build()
    _postcondition("built-in instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    _VERIFIED[name] = inst
    return inst


def instances() -> dict:
    """Every named instance, built and verified."""
    return {name: get_instance(name) for name in _INSTANCES}


def list_instances() -> tuple[str, ...]:
    return tuple(sorted(_INSTANCES))


# ---------------------------------------------------------------------------
# JSON ingestion and export
#
# One JSON object per structure.  Structure constants are sparse triple
# lists {i, j, k, c}; omitted entries are zero; scalars are strings or
# integers.  Composite kinds reference previously declared entries by name.
# A "dim" above MAX_DIM is refused before any triple is read: the checks of
# a loaded structure walk products of its structure constants, whose count
# grows with the cube of its dims and more.

MAX_DIM = 64


def _int(value, what: str) -> int:
    """`value` when it is a JSON integer; a float, string or bool is refused."""
    if type(value) is not int:
        raise CatalogError(f"bad {what} {value!r}: not an integer")
    return value


def _dim(obj: dict) -> int:
    """The entry's "dim", checked to lie in 0..MAX_DIM."""
    if "dim" not in obj:
        raise CatalogError("missing dim")
    dim = _int(obj["dim"], "dim")
    if not 0 <= dim <= MAX_DIM:
        raise CatalogError(f"dim {dim} is outside 0..{MAX_DIM}")
    return dim


def _ref(obj: dict, key: str) -> str:
    """The name under `key` of a previously declared entry."""
    name = obj.get(key)
    if not isinstance(name, str):
        raise CatalogError(f"missing or non-string reference {key!r}")
    return name


def _listed(obj: dict, key: str, default=None) -> list:
    """obj[key], which must be a list; a missing key gives `default` when
    there is one."""
    raw = obj.get(key, default)
    if not isinstance(raw, list):
        raise CatalogError(f"missing or non-list {key!r}")
    return raw


def _coefficients(key: str, items: list) -> list:
    """`items`, each a string or an int; any other item is named."""
    for item in items:
        if type(item) not in (str, int):
            raise CatalogError(f"{key} entry {item!r} is not a string or int")
    return items


def _vector(field: FieldSpec, obj: dict, key: str) -> Vec:
    """The list of coefficients under `key`, as scalars."""
    return vec(field, _coefficients(key, _listed(obj, key)))


def _matrix(field: FieldSpec, obj: dict, key: str) -> Mat:
    """The list of rows under `key`, each a list of coefficients, as a
    matrix, which the record it is passed to reads once."""
    rows = _listed(obj, key)
    for row in rows:
        if not isinstance(row, list):
            raise CatalogError(f"{key} row {row!r} is not a list")
    return mat(field, [_coefficients(key, row) for row in rows])


def _parse_field(obj) -> FieldSpec:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise CatalogError("field must be an object with a 'kind'")
    if obj["kind"] == "rational":
        return RATIONAL
    if obj["kind"] == "prime":
        try:
            return prime_field(obj["p"])
        except (KeyError, FieldError) as ex:
            raise CatalogError(f"bad prime field: {ex}") from None
    raise CatalogError(f"unknown field kind {obj['kind']!r}")


def _parse_tensor3(field: FieldSpec, obj: dict, key: str, a: int, b: int, c: int) -> RawTensor:
    """The a x b x c tensor of the sparse triple list under `key`; an
    absent key is the zero tensor, and repeated triples add up."""
    triples = _listed(obj, key, default=[])
    cells: dict = {}
    for item in triples:
        if not (isinstance(item, dict) and all(x in item for x in "ijk")
                and type(item.get("c")) in (str, int)):
            raise CatalogError(f"{key} entry {item!r} is not an object with i, j, k "
                               "and a string or int c")
        i, j, k = (_int(item[x], f"{key} index") for x in "ijk")
        if not (0 <= i < a and 0 <= j < b and 0 <= k < c):
            raise CatalogError(f"{key} index out of range in {item!r}")
        cells[i, j, k] = cells.get((i, j, k), field.zero) + field.of(item["c"])
    return RawTensor.read(field, (a, b, c), cells)


def _dump_tensor3(t: RawTensor) -> list:
    """Triple list of a structure's stored tensor."""
    return [{"i": i, "j": j, "k": k, "c": str(scalar_vec(t.field, [c])[0])}
            for (i, j, k), c in sorted(t.cells.items())]


# ---------------------------------------------------------------------------
# the kinds
#
# _KINDS maps each kind to (roles of the entries it references, axiom
# checker or None, loader, writer).  The loader builds the payload from a
# structure-file object, the entry's name and the referenced payloads keyed
# by role; the writer gives the object's keys beyond the kind, name, note
# and references.  Rows are plain tuples, so a tracer that rebinds a checker
# in a row keeps the row a tuple.


def _load_algebra(obj: dict, name: str, _payloads: dict) -> FinAlgebra:
    field = _parse_field(obj.get("field", {"kind": "rational"}))
    dim = _dim(obj)
    labels = tuple(str(x) for x in _listed(obj, "basis"))
    if len(labels) != dim:
        raise CatalogError("basis label count differs from dim")
    mult = _parse_tensor3(field, obj, "mult", dim, dim, dim)
    unit = _vector(field, obj, "unit") if "unit" in obj else None
    return FinAlgebra(field, dim, labels, mult, unit=unit, name=name)


def _host_loader(kind: str, carrier: type, hopf: type | None = None) -> Callable:
    """Loader of the host kind `kind`: a `carrier` on the file's algebra and
    coalgebra, or, given `hopf`, that class on the carrier and the file's
    antipode.  A malformed antipode is refused for every host kind."""

    def load(obj: dict, name: str, payloads: dict):
        alg = _load_algebra(obj, name, payloads)
        if "comult" not in obj or "counit" not in obj:
            raise CatalogError(f"kind {kind!r} needs comult and counit")
        f, n = alg.field, alg.dim
        comult = _parse_tensor3(f, obj, "comult", n, n, n)
        coalg = FinCoalgebra(f, n, alg.labels, comult, counit=_vector(f, obj, "counit"))
        antipode = _matrix(f, obj, "antipode") if "antipode" in obj else None
        if hopf is None:
            return carrier(name, alg, coalg)
        if antipode is None:
            raise CatalogError(f"{kind} kind needs an antipode")
        return hopf(name, carrier(name, alg, coalg), antipode)

    return load


def _write_structure(p) -> dict:
    """The keys of an algebra, or of a host: its algebra's, its coalgebra's
    and its antipode, when it has one."""
    alg = algebra_of(p)
    out = {"field": alg.field.to_json(), "dim": alg.dim, "basis": list(alg.labels),
           "mult": _dump_tensor3(alg.mult)}
    if alg.unit is not None:
        out["unit"] = alg.unit.to_json()
    if p is not alg:
        co = coalgebra_of(p)
        out.update(comult=_dump_tensor3(co.comult), counit=co.counit.to_json())
        if (s := antipode_of(p)) is not None:
            out["antipode"] = s.to_json()
    return out


def _load_module(obj: dict, name: str, p: dict) -> ActionStructure:
    dim = _dim(obj)
    alg = algebra_of(p["algebra"])
    act = _parse_tensor3(alg.field, obj, "action", alg.dim, dim, dim)
    return _deferred("actions", "ActionStructure")(alg, dim, obj.get("side", "left"), act,
                                                   name=name)


def _load_comodule(obj: dict, name: str, p: dict) -> CoactionStructure:
    dim = _dim(obj)
    coalg = coalgebra_of(p["host"])
    co = _parse_tensor3(coalg.field, obj, "coaction", dim, dim, coalg.dim)
    return _deferred("actions", "CoactionStructure")(coalg, dim, co, name=name)


def _dimodule_loader(cls: str) -> Callable:
    """Loader of the actions class `cls` on the host, module and comodule."""
    make = _deferred("actions", cls)
    return lambda obj, name, p: make(p["host"], p["module"], p["comodule"], name=name)


def _load_doi_hopf(obj: dict, name: str, p: dict) -> DoiHopfModule:
    carrier = algebra_of(p["carrier"])
    wca = _deferred("actions", "WeakComoduleAlgebra")(p["host"], carrier, p["comodule"],
                                                      name=f"{name}-carrier")
    return _deferred("actions", "DoiHopfModule")(wca, p["module"], p["comodule"], name=name)


def _load_pairing(obj: dict, name: str, p: dict) -> PairingForm:
    sigma = _matrix(algebra_of(p["host"]).field, obj, "sigma")
    return _deferred("hopfrb", "PairingForm")(p["host"], sigma)


def _load_rmatrix(obj: dict, name: str, p: dict) -> RMatrix:
    f = algebra_of(p["host"]).field
    r, rinv = (_vector(f, obj, key) for key in ("r", "rinv"))
    return _deferred("hopfrb", "RMatrix")(p["host"], r, rinv)


def _load_functional(obj: dict, name: str, p: dict) -> Functional:
    return Functional(p["host"], _vector(coalgebra_of(p["host"]).field, obj, "coords"))


_KINDS = {
    "algebra": ((), check_algebra, _load_algebra, _write_structure),
    "bialgebra": ((), check_bialgebra, _host_loader("bialgebra", Bialgebra), _write_structure),
    "hopf": ((), check_hopf, _host_loader("hopf", Bialgebra, HopfAlgebra), _write_structure),
    "weak-bialgebra": ((), check_weak_bialgebra, _host_loader("weak-bialgebra", WeakBialgebra),
                       _write_structure),
    "weak-hopf": ((), check_weak_hopf,
                  _host_loader("weak-hopf", WeakBialgebra, WeakHopfAlgebra), _write_structure),
    "module": (("algebra",), _deferred("actions", "check_action"), _load_module,
               lambda p: {"side": p.side, "dim": p.dim, "action": _dump_tensor3(p.act)}),
    "comodule": (("host",), _deferred("actions", "check_coaction"), _load_comodule,
                 lambda p: {"dim": p.dim, "coaction": _dump_tensor3(p.co)}),
    "dimodule": (("host", "module", "comodule"), _deferred("actions", "check_dimodule"),
                 _dimodule_loader("Dimodule"), lambda p: {}),
    "hopf-module": (("host", "module", "comodule"), _deferred("actions", "check_hopf_module"),
                    _dimodule_loader("HopfModule"), lambda p: {}),
    "doi-hopf": (("host", "carrier", "module", "comodule"), _deferred("actions", "check_doi_hopf"),
                 _load_doi_hopf, lambda p: {}),
    "pairing": (("host",), _on_host(_deferred("hopfrb", "check_long_pairing")), _load_pairing,
                lambda p: {"sigma": p.sigma.to_json()}),
    "rmatrix": (("host",), _on_host(_deferred("hopfrb", "check_quasitriangular")), _load_rmatrix,
                lambda p: {"r": p.r.joined(2).to_json(), "rinv": p.rinv.joined(2).to_json()}),
    # Functional refuses a host without a coalgebra when it is built
    "functional": (("host",), None, _load_functional, lambda p: {"coords": p.coords.to_json()}),
}
# membership is a tuple test: a JSON list or object as a kind is refused
# by `in`, where a dict lookup would raise TypeError
KINDS = tuple(_KINDS)


def load_entry(obj: dict, validate: bool = True) -> CatalogEntry:
    """Build and validate a CatalogEntry from one parsed JSON object.

    Referenced entry names are looked up in the built-in catalog.
    `validate=False` skips the axiom checks so a caller can run a specific
    checker and report the witness instead of refusing here.
    """
    if not isinstance(obj, dict):
        raise CatalogError("structure file must contain a JSON object")
    kind = obj.get("kind")
    if kind not in KINDS:
        raise CatalogError(f"unknown or missing kind {kind!r}")
    name = obj.get("name")
    if not isinstance(name, str) or not name:
        raise CatalogError("missing entry name")
    note = obj.get("note", "loaded from file")
    roles, _check, load, _write = _KINDS[kind]
    refs = {role: _ref(obj, role) for role in roles}
    got = {role: get(ref) for role, ref in refs.items()}
    # the composite constructors read a referenced module or comodule's fields
    for role in ("module", "comodule"):
        if role in got and got[role].kind != role:
            raise CatalogError(f"{role} {refs[role]!r} has kind {got[role].kind!r}")
    payload = load(obj, name, {role: e.payload for role, e in got.items()})
    entry = CatalogEntry(name, kind, payload, note, refs)
    if validate:
        _validate(entry)
    return entry


def read_json(path: str):
    """The JSON value in the file at `path`; a file that cannot be read, is
    not UTF-8 JSON or is too deep or long to parse raises CatalogError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as ex:
        raise CatalogError(f"cannot read {path}: {ex}") from None
    except (ValueError, RecursionError) as ex:  # UnicodeDecodeError is a ValueError
        raise CatalogError(f"{path} is not valid JSON: {ex}") from None


def load_file(path: str, validate: bool = True) -> CatalogEntry:
    return load_entry(read_json(path), validate=validate)


def dump(entry: CatalogEntry) -> dict:
    """JSON object that load_entry reproduces the entry from."""
    out: dict = {"kind": entry.kind, "name": entry.name}
    if entry.note:
        out["note"] = entry.note
    out.update(entry.refs)
    out.update(_KINDS[entry.kind][3](entry.payload))
    return out
