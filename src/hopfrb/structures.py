"""Finite-dimensional algebraic structures given by structure constants.

An algebra stores the cells (i, j, k) of ``mult`` with ``e_i e_j = sum_k
mult[i, j, k] e_k``, a coalgebra those of ``comult`` with ``Delta(e_i) = sum
comult[i, j, k] e_j (x) e_k``, each as a raw sparse tensor (`RawTensor`)
that `contract` reads as it is, and so are units, counits, functionals'
coordinates and antipodes; a dense Scalar tensor or vector passed to a
constructor is read into that form once.  Even a product of two elements
is one `contract` call.  Bialgebras, Hopf
algebras and their weak variants are layered on top of those two tensors.
Axiom checkers return a Report with the first violating basis tuple per
axiom; nothing is ever assumed to hold because a constructor was called.

The weak counital maps are written ``pi_L`` (target) and ``pi_R`` (source):
``pi_L(h) = eps(1_(1) h) 1_(2)`` and ``pi_R(h) = eps(h 1_(2)) 1_(1)``.
"""

from __future__ import annotations

from functools import wraps
from itertools import product
from typing import Union

from .exactlin import (
    DimensionError,
    FieldSpec,
    Mat,
    RawTensor,
    Record,
    Scalar,
    Vec,
    column_space_basis,
    contract,
    differing,
    raw_identity,
    solve_linear,
    stored,
    transposed,
    unit_vec,
)
from .report import Checker, Report, Violation, _postcondition


class StructureError(Exception):
    """Structurally invalid or mismatched input to an operation."""


class PreconditionError(Exception):
    """A documented precondition of an operation does not hold."""


# ---------------------------------------------------------------------------
# carriers


class FinAlgebra(Record):
    """Associative algebra by structure constants; ``unit=None`` means nonunital.

    ``_kept`` keeps this object's `check_algebra` report and, per
    coalgebra, the counital tensors Delta(1), eps(xy), pi_L and pi_R of the
    pair (`_kept_on_host`)."""

    _stored = "mult"

    field: FieldSpec
    dim: int
    labels: tuple
    mult: RawTensor
    unit: RawTensor | None = None
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kept", {})
        if len(self.labels) != self.dim:
            raise DimensionError(f"{self.name}: {len(self.labels)} labels for dim {self.dim}")
        object.__setattr__(self, "mult", stored(self.field, self.mult, (self.dim,) * 3,
                                                f"{self.name}: mult tensor", "is not dim^3"))
        if self.unit is not None:
            object.__setattr__(self, "unit", stored(self.field, self.unit, (self.dim,),
                                                    f"{self.name}: unit", "length != dim"))

    @property
    def unital(self) -> bool:
        return self.unit is not None

    def basis(self, i: int) -> Vec:
        return unit_vec(self.field, self.dim, i)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"{self.name}: no basis label {label!r}") from None

    def mul(self, x: Vec, y: Vec) -> Vec:
        return contract("i,j,ijk->k", x, y, self).dense()

    def left_mult(self, r: Vec) -> RawTensor:
        """Raw matrix of x -> r x."""
        return contract("i,ijk->kj", r, self)

    def right_mult(self, r: Vec) -> RawTensor:
        """Raw matrix of x -> x r."""
        return contract("i,jik->kj", r, self)


class FinCoalgebra(Record):
    _stored = "comult"

    field: FieldSpec
    dim: int
    labels: tuple
    comult: RawTensor
    counit: RawTensor

    def __post_init__(self) -> None:
        if len(self.labels) != self.dim:
            raise DimensionError("coalgebra: label count != dim")
        object.__setattr__(self, "comult", stored(self.field, self.comult, (self.dim,) * 3,
                                                  "coalgebra: comult tensor", "is not dim^3"))
        object.__setattr__(self, "counit", stored(self.field, self.counit, (self.dim,),
                                                  "coalgebra: counit", "length != dim"))

    def basis(self, i: int) -> Vec:
        return unit_vec(self.field, self.dim, i)

    def comult_vec(self, x: Vec) -> Vec:
        """Delta(x) as a dim^2 vector on the lex pair basis."""
        return contract("i,ijk->jk", x, self).joined(2).dense()

    def counit_of(self, x: Vec) -> Scalar:
        return contract("i,i->", x, self.counit).dense()[0]


class _Host(Record):
    """The four host carriers' ``field``, ``dim``, ``labels`` and checks
    made on construction; ``_role`` names the carrier in the unit check.
    An antipode, where the class has one, is stored raw (`exactlin.stored`):
    a dim x dim `RawTensor` over the host's field, or a dense Scalar matrix
    read once.  ``_kept`` keeps the axiom reports of this object
    (`_kept_on_host`)."""

    _role = "bialgebra"

    def __post_init__(self) -> None:
        object.__setattr__(self, "_kept", {})
        alg, co = self.algebra, self.coalgebra
        if alg.field != co.field:
            raise StructureError(f"{self.name}: algebra/coalgebra fields differ")
        if alg.dim != co.dim:
            raise StructureError(f"{self.name}: algebra/coalgebra dims differ")
        if not alg.unital:
            raise StructureError(f"{self.name}: {self._role} carrier must be unital")
        s = getattr(self, "antipode", None)
        if s is not None:
            object.__setattr__(self, "antipode", stored(alg.field, s, (alg.dim,) * 2,
                                                        f"{self.name}: antipode",
                                                        "is not dim x dim"))

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


class Bialgebra(_Host):
    name: str
    algebra: FinAlgebra
    coalgebra: FinCoalgebra


class HopfAlgebra(_Host):
    name: str
    bialgebra: Bialgebra
    antipode: RawTensor

    @property
    def algebra(self) -> FinAlgebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> FinCoalgebra:
        return self.bialgebra.coalgebra


class WeakBialgebra(_Host):
    """Carrier for the weak axiom set; bialgebra unit/counit compatibility
    is deliberately not part of its contract."""

    _role = "weak bialgebra"

    name: str
    algebra: FinAlgebra
    coalgebra: FinCoalgebra


class WeakHopfAlgebra(_Host):
    name: str
    weak: WeakBialgebra
    antipode: RawTensor

    @property
    def algebra(self) -> FinAlgebra:
        return self.weak.algebra

    @property
    def coalgebra(self) -> FinCoalgebra:
        return self.weak.coalgebra


BialgebraLike = Union[Bialgebra, HopfAlgebra]
WeakLike = Union[WeakBialgebra, WeakHopfAlgebra]
CoalgebraLike = Union[FinCoalgebra, Bialgebra, HopfAlgebra, WeakBialgebra, WeakHopfAlgebra]


def algebra_of(x) -> FinAlgebra:
    if isinstance(x, FinAlgebra):
        return x
    if isinstance(x, _Host):
        return x.algebra
    raise StructureError(f"{type(x).__name__} {name_of(x)!r} has no algebra part")


def coalgebra_of(x) -> FinCoalgebra:
    if isinstance(x, FinCoalgebra):
        return x
    if isinstance(x, _Host):
        return x.coalgebra
    raise StructureError(f"{type(x).__name__} {name_of(x)!r} has no coalgebra part")


def antipode_of(x) -> RawTensor | None:
    if isinstance(x, (HopfAlgebra, WeakHopfAlgebra)):
        return x.antipode
    return None


def name_of(x) -> str:
    return getattr(x, "name", "")


def as_weak(x: BialgebraLike) -> WeakLike:
    """View an ordinary bialgebra or Hopf algebra through the weak interface."""
    if isinstance(x, HopfAlgebra):
        wb = WeakBialgebra(x.name + "-as-weak", x.algebra, x.coalgebra)
        return WeakHopfAlgebra(x.name + "-as-weak", wb, x.antipode)
    if isinstance(x, Bialgebra):
        return WeakBialgebra(x.name + "-as-weak", x.algebra, x.coalgebra)
    raise StructureError("as_weak expects a bialgebra or Hopf algebra")


class Functional(Record):
    """Linear functional on a coalgebra-bearing host; its dual coordinates
    are stored raw (`exactlin.stored`)."""

    host: CoalgebraLike
    coords: RawTensor

    def __post_init__(self) -> None:
        co = coalgebra_of(self.host)
        object.__setattr__(self, "coords", stored(co.field, self.coords, (co.dim,),
                                                  "functional coordinate", "length != host dim"))

    def __call__(self, x: Vec) -> Scalar:
        return contract("i,i->", x, self.coords).dense()[0]


# ---------------------------------------------------------------------------
# axiom checkers


def _kept_on_host(make):
    """`make` with its result kept on the object it was asked about: a
    host, an algebra for `check_algebra`, and an action or a coaction for
    `actions.check_action` and `actions.check_coaction`; or, for a `make`
    of an algebra and a coalgebra, on the algebra under the coalgebra's
    identity, so that hosts sharing both carriers (``w`` and ``w.weak``,
    ``h`` and ``as_weak(h)``) share the counital tensors.

    A second call on the same objects returns the first (frozen) result;
    an equal but distinct object is asked again, since the key is the
    object itself, never its value.  The entry holds the further objects,
    so no other object takes their identities while it lives.  A checker
    that merges another one calls its undecorated walk (``__wrapped__``),
    so a fresh host is always walked in full."""
    name = make.__name__

    @wraps(make)
    def kept(host, *more):
        store, key = host._kept, (name, *map(id, more))
        hit = store.get(key)
        if hit is None:
            hit = store[key] = make(host, *more), more
        return hit[0]

    return kept


@_kept_on_host
def check_algebra(a: FinAlgebra) -> Report:
    ck = Checker("algebra", a.name)
    ck.compare(("i", "j", "k"),
               ("assoc", contract("ijm,mkx->ijkx", a, a), contract("jkm,imx->ijkx", a, a)))
    if a.unital:
        one = raw_identity(a.field, a.dim)
        ck.compare(("i",), ("unit-left", contract("j,jix->ix", a.unit, a), one),
                   ("unit-right", contract("j,ijx->ix", a.unit, a), one))
    else:
        ck.skip("unit-left")
        ck.skip("unit-right")
    return ck.report()


def check_coalgebra(c: FinCoalgebra, instance: str = "") -> Report:
    ck = Checker("coalgebra", instance)
    one = raw_identity(c.field, c.dim)
    # (Delta (x) id) Delta = (id (x) Delta) Delta
    ck.compare(("i",),
               ("coassoc", contract("imc,mab->iabc", c, c), contract("iam,mbc->iabc", c, c)),
               ("counit-left", contract("ijk,j->ik", c, c.counit), one),
               ("counit-right", contract("ijk,k->ij", c, c.counit), one))
    return ck.report()


def _comult_mult(alg: FinAlgebra, co: FinCoalgebra) -> tuple:
    """Delta(e_i e_j) and Delta(e_i) Delta(e_j) in A (x) A, indexed (i, j, x, y)."""
    return (contract("ijm,mab->ijab", alg, co),
            contract("ipq,jrs,prx,qsy->ijxy", co, co, alg, alg))


@_kept_on_host
def _unit_comult(alg: FinAlgebra, co: FinCoalgebra) -> RawTensor:
    """Delta(1) in A (x) A."""
    return contract("i,iab->ab", alg.unit, co)


@_kept_on_host
def check_bialgebra(b: BialgebraLike) -> Report:
    alg, co = algebra_of(b), coalgebra_of(b)
    ck = Checker("bialgebra", name_of(b))
    ck.merge(check_algebra.__wrapped__(alg))
    ck.merge(check_coalgebra(co))
    lhs, rhs = _comult_mult(alg, co)
    ck.compare(("i", "j"), ("comult-mult", lhs, rhs),
               ("counit-mult", _counit_of_products(alg, co),
                contract("i,j->ij", co.counit, co.counit)))
    f = alg.field
    ck.compare((), ("comult-unit", _unit_comult(alg, co), contract("a,b->ab", alg.unit, alg.unit)),
               ("counit-unit", contract("i,i->", alg.unit, co.counit),
                RawTensor(f, (), {(): 1})))
    return ck.report()


def _antipode_sums(alg: FinAlgebra, co: FinCoalgebra, s: RawTensor) -> tuple:
    """S(x_(1)) x_(2) and x_(1) S(x_(2)) at x = e_i, indexed (i, c)."""
    return contract("ijk,sj,skc->ic", co, s, alg), contract("ijk,sk,jsc->ic", co, s, alg)


@_kept_on_host
def check_hopf(h: HopfAlgebra) -> Report:
    ck = Checker("hopf", h.name)
    ck.merge(check_bialgebra.__wrapped__(h.bialgebra))
    alg, co = h.algebra, h.coalgebra
    s_id, id_s = _antipode_sums(alg, co, h.antipode)
    want = contract("i,c->ic", co.counit, alg.unit)
    ck.compare(("i",), ("antipode-left", s_id, want), ("antipode-right", id_s, want))
    return ck.report()


@_kept_on_host
def _counit_of_products(alg: FinAlgebra, co: FinCoalgebra) -> RawTensor:
    """eps(e_x e_y), indexed (x, y)."""
    return contract("xyp,p->xy", alg, co.counit)


@_kept_on_host
def check_weak_bialgebra(w: WeakLike) -> Report:
    alg, co = algebra_of(w), coalgebra_of(w)
    ck = Checker("weak-bialgebra", name_of(w))
    ck.merge(check_algebra.__wrapped__(alg))
    ck.merge(check_coalgebra(co))
    lhs, rhs = _comult_mult(alg, co)
    ck.compare(("i", "j"), ("comult-mult", lhs, rhs))
    # eps(xyz) = eps(x y_(1)) eps(y_(2) z) = eps(x y_(2)) eps(y_(1) z)
    eps = _counit_of_products(alg, co)
    lhs = contract("xya,az->xyz", alg, eps)
    ck.compare(("x", "y", "z"),
               ("weak-counit-mult-1", lhs, contract("yab,xa,bz->xyz", co, eps, eps)),
               ("weak-counit-mult-2", lhs, contract("yab,xb,az->xyz", co, eps, eps)))
    # Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)
    d1 = _unit_comult(alg, co)
    lhs = contract("i,imc,mab->abc", alg.unit, co, co)
    ck.compare((), ("weak-comult-unit-1", lhs, contract("aq,rc,qrb->abc", d1, d1, alg)),
               ("weak-comult-unit-2", lhs, contract("aq,rc,rqb->abc", d1, d1, alg)))
    return ck.report()


@_kept_on_host
def check_weak_hopf(w: WeakHopfAlgebra) -> Report:
    ck = Checker("weak-hopf", w.name)
    ck.merge(check_weak_bialgebra.__wrapped__(w.weak))
    alg, co, s = w.algebra, w.coalgebra, w.antipode
    pil, pir = target_source(w)
    s_id, id_s = _antipode_sums(alg, co, s)
    # S(x_(1)) x_(2) S(x_(3)) = S(x), on (Delta (x) id) Delta(x)
    triple = contract("imc,mab,sa,sbt,uc,tur->ir", co, co, s, alg, s, alg)
    ck.compare(("i",), ("antipode-target", id_s, pil.permuted(1, 0)),
               ("antipode-source", s_id, pir.permuted(1, 0)),
               ("antipode-triple", triple, s.permuted(1, 0)))
    return ck.report()


# ---------------------------------------------------------------------------
# convolution and antipodes


def convolution(f: Functional, g: Functional) -> Functional:
    """Convolution product (f * g)(x) = f(x_(1)) g(x_(2))."""
    cf, cg = coalgebra_of(f.host), coalgebra_of(g.host)
    if cf != cg:
        raise StructureError("convolution of functionals on different hosts")
    return Functional(f.host, contract("ijk,j,k->i", cf, f.coords, g.coords))


def counit_functional(host: CoalgebraLike) -> Functional:
    return Functional(host, coalgebra_of(host).counit)


def compute_antipode(b: Union[BialgebraLike, WeakLike]) -> Mat | None:
    """Solve the antipode axioms; None when no antipode exists.

    The unknowns are the n^2 entries of S, and every axiom is linear in
    them.  For ordinary input the axioms are S * id = eta eps = id * S.
    For weak input they are id * S = pi_L, S * id = pi_R and the cubic
    axiom S(x_(1)) x_(2) S(x_(3)) = S(x); given S * id = pi_R, the cubic
    axiom reads pi_R(x_(1)) S(x_(2)) = S(x), which is linear as well.  So
    the system is equivalent to the axioms the checkers test, one exact
    solve decides existence, and solve_linear's substitution check is the
    postcondition.  Each axiom gives one raw sparse row per basis element
    x and coefficient c, over the unknown S[s][j] at column s n + j.  An
    antipode is unique when it exists on a valid (weak) bialgebra (Boehm,
    Nill and Szlachanyi, J. Algebra 1999); the particular solution is
    returned in any case.
    """
    alg, co = algebra_of(b), coalgebra_of(b)
    n, f = alg.dim, alg.field
    # S(x_(1)) x_(2) and x_(1) S(x_(2)) at x = e_i, indexed (i, c, s, j)
    s_id, id_s = contract("ijk,skc->icsj", co, alg), contract("ijk,jsc->icsk", co, alg)
    if isinstance(b, (WeakBialgebra, WeakHopfAlgebra)):
        pil, pir = target_source(b)
        # pi_R(x_(1)) S(x_(2)) - S(x), with the unknown S[c][i] of S(e_i) at e_c
        cubic = contract("ijk,rj,rtc->ictk", co, pir, alg) - RawTensor(
            f, (n,) * 4, {(i, c, c, i): 1 for i, c in product(range(n), repeat=2)})
        system = ((id_s, pil.permuted(1, 0)), (s_id, pir.permuted(1, 0)), (cubic, None))
    else:
        unit = contract("i,c->ic", co.counit, alg.unit)
        system = ((s_id, unit), (id_s, unit))
    rows, rhs = [], []
    for lhs, want in system:
        got, want = lhs.rows(2), {} if want is None else want.cells
        for key in sorted(got.keys() | want.keys()):
            rows.append(got.get(key, {}))
            rhs.append(want.get(key, 0))
    sol = solve_linear(rows, rhs, f, n * n)
    return None if sol is None else sol.dense(n, n)


# ---------------------------------------------------------------------------
# weak counital maps


def target_source(w) -> tuple[RawTensor, RawTensor]:
    """pi_L and pi_R of a host as raw matrices, from Delta(1) and eps(xy).

    They depend on the host's algebra and coalgebra alone (Boehm, Nill and
    Szlachanyi, J. Algebra 1999), so the pair is computed once per pair of
    carrier objects and kept on the algebra (`_kept_on_host`): every host
    built on the same two carriers reads the same two tensors."""
    return _counital_maps(algebra_of(w), coalgebra_of(w))


@_kept_on_host
def _counital_maps(alg: FinAlgebra, co: FinCoalgebra) -> tuple[RawTensor, RawTensor]:
    d1, eps = _unit_comult(alg, co), _counit_of_products(alg, co)
    return contract("jk,jh->kh", d1, eps), contract("jk,hk->jh", d1, eps)


def check_counital_maps(w: WeakLike) -> Report:
    """The pi_L / pi_R identities (W1)-(W4), plus (W5)-(W6) when an antipode
    is present.  These are consequences of the weak axioms; the checker
    flags structures where they fail instead of assuming them."""
    alg, co = algebra_of(w), coalgebra_of(w)
    pil, pir = target_source(w)
    s = antipode_of(w)
    ck = Checker("counital-maps", name_of(w))

    def times(x, y):
        return contract("ab,bc->ac", x, y)

    ck.compare((), ("W1-target", times(pil, pil), pil), ("W1-source", times(pir, pir), pir))
    d1, eps = _unit_comult(alg, co), _counit_of_products(alg, co)
    ck.compare(
        ("x", "y"),
        # W2: pi_L(pi_L(x) y) = pi_L(x) pi_L(y) and pi_R(x pi_R(y)) = pi_R(x) pi_R(y)
        ("W2-target", contract("sx,syk,rk->xyr", pil, alg, pil),
         contract("sx,ty,stk->xyk", pil, pil, alg)),
        ("W2-source", contract("ty,xtk,rk->xyr", pir, alg, pir),
         contract("sx,ty,stk->xyk", pir, pir, alg)),
        # W4: eps(pi_R(x) y) = eps(xy) = eps(x pi_L(y))
        ("W4-source", contract("sx,sy->xy", pir, eps), eps),
        ("W4-target", contract("ty,xt->xy", pil, eps), eps),
        # W3: Delta(pi_L(x)) = 1_(1) pi_L(x) (x) 1_(2), mirrored for pi_R
        ("W3-target", contract("sx,spk->xpk", pil, co), contract("ak,asp,sx->xpk", d1, alg, pil), 1),
        ("W3-source", contract("sx,sjq->xjq", pir, co), contract("jb,sx,sbq->xjq", d1, pir, alg), 1))
    if s is None:
        ck.skip("W5")
        ck.skip("W6")
        return ck.report()
    ck.compare((), ("W5-target", times(pil, pir), times(pil, s)),
               ("W5-target", times(pil, pir), times(s, pir)),
               ("W5-source", times(pir, pil), times(pir, s)),
               ("W5-source", times(pir, pil), times(s, pil)))
    ck.compare(
        ("x",),
        # x_(1) (x) pi_R(x_(2)) = x 1_(1) (x) S(1_(2))
        ("W6-right", contract("xjm,qm->xjq", co, pir), contract("ab,xap,qb->xpq", d1, alg, s)),
        # pi_L(x_(1)) (x) x_(2) = S(1_(1)) (x) 1_(2) x
        ("W6-left", contract("xmk,pm->xpk", co, pil), contract("ab,pa,bxq->xpq", d1, s, alg)))
    return ck.report()


# ---------------------------------------------------------------------------
# subalgebras and quantum commutativity


class SubAlgebra(Record):
    """Image of an operator, closed under multiplication.

    ``inclusion`` holds the chosen basis of the image as columns, so
    coordinates on ``algebra`` map into the ambient space by one matrix
    application.  It is stored raw (`exactlin.stored`): an ambient dim x
    image dim `RawTensor`, or a dense Scalar matrix read once.
    """

    algebra: FinAlgebra
    inclusion: RawTensor

    def __post_init__(self) -> None:
        a, incl = self.algebra, self.inclusion
        rows = incl.shape[0] if isinstance(incl, RawTensor) else len(incl)
        object.__setattr__(self, "inclusion", stored(a.field, incl, (rows, a.dim),
                                                     f"{a.name}: inclusion",
                                                     "is not ambient dim x dim"))


def subalgebra_image(op, a: FinAlgebra) -> SubAlgebra:
    """Restrict a to the image of op, a raw or Scalar matrix; raises
    StructureError when the image is not multiplicatively closed (witness
    pair in the message).

    The basis is in reduced echelon form, so a vector's coordinates in it
    are its entries at the pivots, and the vector lies in the span exactly
    when those coordinates give it back."""
    basis = column_space_basis(op, a.field)
    r = basis.shape[0]
    incl = transposed(basis)
    rows = basis.rows(1)
    pos = {min(rows[(s,)]): s for s in range(r)}
    # b_i b_j in the ambient algebra, and its coordinates at the pivots
    prods = contract("xi,yj,xyk->ijk", incl, incl, a)
    mult = RawTensor(a.field, (r,) * 3, {(i, j, pos[k]): v for (i, j, k), v in prods.cells.items()
                                         if k in pos})
    if bad := differing(contract("ijs,xs->ijx", mult, incl), prods, 2):
        i, j = bad[0]
        raise StructureError(f"image of operator on {a.name} is not closed: basis pair ({i}, {j})")
    labels = tuple(f"b{i}" for i in range(r))
    sub_unit = None
    if r:
        # a two-sided unit, when one exists, satisfies linear equations
        # u b_t = b_t and b_t u = b_t, one row per (t, coefficient c, side)
        eqs: dict = {}
        for (i, j, k), v in mult.cells.items():
            eqs.setdefault((j, k, 0), {})[i] = v
            eqs.setdefault((i, k, 1), {})[j] = v
        keys = list(product(range(r), range(r), (0, 1)))
        sub_unit = solve_linear([eqs.get(key, {}) for key in keys],
                                [int(t == c) for t, c, _ in keys], a.field, r)
    sub = FinAlgebra(a.field, r, labels, mult, sub_unit, name=f"{a.name}-image")
    return SubAlgebra(sub, incl)


def quantum_commutative_witness(w: WeakLike) -> Violation | None:
    """First basis pair violating h_(1) g pi_R(h_(2)) = h g, if any."""
    alg, co = algebra_of(w), coalgebra_of(w)
    _, pir = target_source(w)
    ck = Checker("quantum-commutative")
    ck.compare(("h", "g"), ("quantum-commutative",
                            contract("hab,agt,sb,tsr->hgr", co, alg, pir, alg), alg.mult))
    return next(iter(ck.report().violations), None)


def check_quantum_commutative(w: WeakLike) -> bool:
    """Quantum commutativity, decided two independent ways.

    The element identity h_(1) g pi_R(h_(2)) = h g and the containment of
    the source subalgebra in the centre must agree; disagreement would be
    a package bug, not a property of the input.
    """
    alg = algebra_of(w)
    _, pir = target_source(w)
    violation = quantum_commutative_witness(w)
    source = column_space_basis(pir, alg.field)
    # the pairs (k, i) where source basis vector k and e_i do not commute
    bad = differing(contract("kx,xiy->kiy", source, alg), contract("kx,ixy->kiy", source, alg), 2)

    def witness() -> str:
        if violation is not None:
            return f"{violation.to_json()}, yet the source subalgebra is central"
        k, i = bad[0]
        return (f"source basis vector {k} {source.to_json()[k]} does not commute "
                f"with e_{i}, yet the identity holds")

    _postcondition("identity and centre criteria of quantum commutativity agree", name_of(w),
                   violation is None, not bad, witness=witness)
    return violation is None


def check_algebra_morphism(f, src: FinAlgebra, dst: FinAlgebra) -> Report:
    """f as a raw or Scalar matrix taking src coordinates to dst coordinates."""
    if src.field != dst.field:
        raise StructureError("algebra morphism across different fields")
    ck = Checker("algebra-morphism", f"{src.name}->{dst.name}")
    ck.compare(("i", "j"), ("morphism-mult", contract("ijk,xk->ijx", src, f),
                            contract("ai,bj,abx->ijx", f, f, dst)))
    if src.unital and dst.unital:
        ck.compare((), ("morphism-unit", contract("xk,k->x", f, src.unit), dst.unit))
    else:
        ck.skip("morphism-unit")
    return ck.report()


# ---------------------------------------------------------------------------
# the dual convolution algebra


def dual_algebra(b: CoalgebraLike) -> FinAlgebra:
    """Convolution algebra on the dual basis of a coalgebra-bearing host."""
    co = coalgebra_of(b)
    # e_i^ e_j^ = sum_k comult[k, i, j] e_k^
    labels = tuple(f"{l}^" for l in co.labels)
    return FinAlgebra(co.field, co.dim, labels, co.comult.permuted(1, 2, 0), co.counit,
                      name=f"{name_of(b)}-dual")
