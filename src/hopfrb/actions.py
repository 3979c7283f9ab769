"""Module and comodule structures over the algebras in `structures`.

Actions are stored algebra-index-first regardless of side: the cell
``act[i, j, k]`` is the coefficient of ``f_k`` in ``e_i . f_j`` (left) or
``f_j . e_i`` (right).  With that layout the operator ``matrix(r)`` of an
algebra element is one formula for both sides, so everything downstream
that consumes action operators is side-free; only the associativity axiom
sees the difference (composition order flips).

Coactions are right coactions, the cell ``co[i, j, k]`` the coefficient of
``f_j (x) e_k`` in ``rho(f_i)``, with module-major lex layout on tensor
coordinates.  Both are stored as raw sparse tensors (`RawTensor`), as the
structures' constants are.
"""

from __future__ import annotations

from .exactlin import (
    RawTensor,
    Record,
    Vec,
    contract,
    kernel_basis,
    raw_identity,
    stored,
    unit_vec,
)
from .report import Checker, Report
from .structures import (
    BialgebraLike,
    CoalgebraLike,
    FinAlgebra,
    FinCoalgebra,
    PreconditionError,
    StructureError,
    WeakBialgebra,
    WeakHopfAlgebra,
    _kept_on_host,
    algebra_of,
    coalgebra_of,
    dual_algebra,
    name_of,
    target_source,
)


class ActionStructure(Record):
    """Action of an algebra on a module by structure constants.

    ``_kept`` keeps this object's `check_action` report (`_kept_on_host`)."""

    _stored = "act"

    algebra: FinAlgebra
    dim: int
    side: str  # "left" | "right"
    act: RawTensor
    name: str = ""

    def __post_init__(self) -> None:
        if self.side not in ("left", "right"):
            raise StructureError(f"{self.name}: side must be left or right")
        object.__setattr__(self, "act", stored(self.field, self.act,
                                               (self.algebra.dim, self.dim, self.dim),
                                               f"{self.name}: action tensor",
                                               "is not adim x mdim x mdim"))
        object.__setattr__(self, "_kept", {})

    @property
    def field(self):
        return self.algebra.field

    def basis(self, j: int) -> Vec:
        return unit_vec(self.field, self.dim, j)

    def matrix(self, r: Vec) -> RawTensor:
        """Raw matrix of the element r acting on the module, whichever the side."""
        return contract("i,ijk->kj", r, self)


class CoactionStructure(Record):
    """Right coaction of a coalgebra on a comodule by structure constants.

    ``_kept`` keeps this object's `check_coaction` report (`_kept_on_host`)."""

    _stored = "co"

    coalgebra: FinCoalgebra
    dim: int
    co: RawTensor
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "co", stored(self.field, self.co,
                                              (self.dim, self.dim, self.coalgebra.dim),
                                              f"{self.name}: coaction tensor",
                                              "is not mdim x mdim x cdim"))
        object.__setattr__(self, "_kept", {})

    @property
    def field(self):
        return self.coalgebra.field

    def basis(self, j: int) -> Vec:
        return unit_vec(self.field, self.dim, j)


class Dimodule(Record):
    """Left action and right coaction over one host; the compatibility
    rho(h . m) = h . m_(0) (x) m_(1) is checked by check_dimodule, not
    assumed at construction.  ``_kept`` keeps this object's
    `check_dimodule` report (`_kept_on_host`)."""

    host: BialgebraLike
    action: ActionStructure
    coaction: CoactionStructure
    name: str = ""

    def __post_init__(self) -> None:
        if self.action.side != "left":
            raise StructureError(f"{self.name}: dimodule action must be left")
        if self.action.algebra != algebra_of(self.host):
            raise StructureError(f"{self.name}: action is not over the host algebra")
        if self.coaction.coalgebra != coalgebra_of(self.host):
            raise StructureError(f"{self.name}: coaction is not over the host coalgebra")
        if self.action.dim != self.coaction.dim:
            raise StructureError(f"{self.name}: carrier dims differ")
        object.__setattr__(self, "_kept", {})

    @property
    def dim(self) -> int:
        return self.action.dim


class HopfModule(Record):
    """Right action and right coaction; law rho(m . h) = m_(0) . h_1 (x) m_(1) h_2."""

    host: BialgebraLike
    action: ActionStructure
    coaction: CoactionStructure
    name: str = ""

    def __post_init__(self) -> None:
        if self.action.side != "right":
            raise StructureError(f"{self.name}: hopf-module action must be right")
        if self.action.algebra != algebra_of(self.host):
            raise StructureError(f"{self.name}: action is not over the host algebra")
        if self.coaction.coalgebra != coalgebra_of(self.host):
            raise StructureError(f"{self.name}: coaction is not over the host coalgebra")
        if self.action.dim != self.coaction.dim:
            raise StructureError(f"{self.name}: carrier dims differ")

    @property
    def dim(self) -> int:
        return self.action.dim


class WeakComoduleAlgebra(Record):
    """Algebra with a multiplicative right coaction of a (weak) bialgebra."""

    host: object
    carrier: FinAlgebra
    coaction: CoactionStructure
    name: str = ""

    def __post_init__(self) -> None:
        if self.coaction.coalgebra != coalgebra_of(self.host):
            raise StructureError(f"{self.name}: coaction is not over the host coalgebra")
        if self.coaction.dim != self.carrier.dim:
            raise StructureError(f"{self.name}: carrier dims differ")


class DoiHopfModule(Record):
    """Right module over the comodule algebra's carrier plus a right
    coaction of the host, tied by rho(m . a) = m_(0) . a_(0) (x) m_(1) a_(1)."""

    comodule_algebra: WeakComoduleAlgebra
    action: ActionStructure
    coaction: CoactionStructure
    name: str = ""

    def __post_init__(self) -> None:
        if self.action.side != "right":
            raise StructureError(f"{self.name}: doi-hopf action must be right")
        if self.action.algebra != self.comodule_algebra.carrier:
            raise StructureError(f"{self.name}: action is not over the comodule algebra")
        if self.coaction.coalgebra != self.comodule_algebra.coaction.coalgebra:
            raise StructureError(f"{self.name}: coaction host differs from the comodule algebra's")
        if self.action.dim != self.coaction.dim:
            raise StructureError(f"{self.name}: carrier dims differ")

    @property
    def dim(self) -> int:
        return self.action.dim


# ---------------------------------------------------------------------------
# constructors for the standard (co)actions


def regular_action(a: FinAlgebra, side: str) -> ActionStructure:
    """A acting on itself by multiplication on the given side."""
    # f_j . e_i = e_j e_i
    act = a.mult if side == "left" else a.mult.permuted(1, 0, 2)
    return ActionStructure(a, a.dim, side, act, name=f"{a.name}-regular-{side}")


def regular_coaction(b: CoalgebraLike) -> CoactionStructure:
    co = coalgebra_of(b)
    return CoactionStructure(co, co.dim, co.comult, name=f"{name_of(b)}-regular-coaction")


def trivial_action(b: BialgebraLike, mdim: int, side: str = "left") -> ActionStructure:
    """Action through the counit: every h acts as eps(h) id."""
    alg, co = algebra_of(b), coalgebra_of(b)
    act = RawTensor(alg.field, (alg.dim, mdim, mdim),
                    {(i, j, j): e for (i,), e in co.counit.cells.items() for j in range(mdim)})
    return ActionStructure(alg, mdim, side, act, name=f"{name_of(b)}-trivial")


def coaction_to_dual_action(
    com: CoactionStructure, dual: FinAlgebra | None = None
) -> ActionStructure:
    """Left action of the dual convolution algebra: f . m = m_(0) f(m_(1))."""
    if dual is None:
        dual = dual_algebra(com.coalgebra)
    if dual.dim != com.coalgebra.dim:
        raise StructureError("dual algebra dimension does not match the coalgebra")
    # e_u^ . f_i = sum_j co[i, j, u] f_j
    return ActionStructure(dual, com.dim, "left", com.co.permuted(2, 0, 1),
                           name=f"{com.name}-dual-action")


# ---------------------------------------------------------------------------
# axiom checkers


@_kept_on_host
def check_action(action: ActionStructure) -> Report:
    """The operator of e_i e_j is the composite of those of e_i and e_j, in
    the order of the side; the unit acts as the identity.  A violation's
    delta is the difference of the two operators, on their row-major cells."""
    ck = Checker("action", action.name)
    a = action.algebra
    spec = "izx,jyz->ijxy" if action.side == "left" else "jzx,iyz->ijxy"
    ck.compare(("i", "j"), ("action-assoc", contract("ijk,kyx->ijxy", a, action),
                            contract(spec, action, action)))
    if a.unital:
        ck.compare((), ("action-unit", contract("i,iyx->xy", a.unit, action),
                        raw_identity(a.field, action.dim)))
    else:
        ck.skip("action-unit")
    return ck.report()


@_kept_on_host
def check_coaction(com: CoactionStructure) -> Report:
    ck = Checker("coaction", com.name)
    c = com.coalgebra
    # (rho (x) id) rho = (id (x) Delta) rho
    ck.compare(("i",),
               ("coaction-coassoc", contract("ijk,jla->ilak", com, com),
                contract("ijk,kab->ijab", com, c)),
               ("coaction-counit", contract("ijk,k->ij", com, c.counit),
                raw_identity(com.field, com.dim)))
    return ck.report()


@_kept_on_host
def check_dimodule(d: Dimodule) -> Report:
    """Underlying axioms plus rho(h . m) = h . m_(0) (x) m_(1)."""
    ck = Checker("dimodule", d.name)
    ck.merge(check_action.__wrapped__(d.action))
    ck.merge(check_coaction.__wrapped__(d.coaction))
    action, com = d.action, d.coaction
    ck.compare(("h", "m"), ("dimodule-law", contract("uik,kpl->uipl", action, com),
                            contract("ijl,ujp->uipl", com, action)))
    return ck.report()


def _entwining_walk(ck: Checker, axiom: str, role: str, action: ActionStructure,
                    com: CoactionStructure, coacting, halg: FinAlgebra) -> None:
    """rho(m . a) = m_(0) . a_(0) (x) m_(1) a_(1) on every basis pair (a, m).

    `action` is a right action and `com` a right coaction of the host whose
    algebra is `halg`.  `coacting` gives the (a_(0), a_(1)) cells of e_u,
    the u-th basis element of the acting algebra: the host coalgebra for a
    Hopf module, the comodule-algebra coaction for a Doi-Hopf module.  A
    violation names (role, u) and ("m", i)."""
    ck.compare((role, "m"), (axiom, contract("uik,kpy->uipy", action, com),
                             contract("ijl,bjp,ubq,lqy->uipy", com, action, coacting, halg)))


def check_hopf_module(hm: HopfModule) -> Report:
    """Underlying axioms plus rho(m . h) = m_(0) . h_1 (x) m_(1) h_2."""
    ck = Checker("hopf-module", hm.name)
    ck.merge(check_action.__wrapped__(hm.action))
    ck.merge(check_coaction.__wrapped__(hm.coaction))
    _entwining_walk(ck, "hopf-module-law", "h", hm.action, hm.coaction,
                    coalgebra_of(hm.host), algebra_of(hm.host))
    return ck.report()


def check_weak_comodule_algebra(w: WeakComoduleAlgebra) -> Report:
    """Comodule axioms, multiplicativity rho(ab) = rho(a) rho(b), and the
    unit axiom rho(1)(a (x) 1) = (id (x) pi_L) rho(a).  Over an ordinary
    bialgebra host pi_L collapses to eps( ) 1 and the same code applies."""
    ck = Checker("weak-comodule-algebra", w.name or w.carrier.name)
    ck.merge(check_coaction.__wrapped__(w.coaction))
    carrier, com = w.carrier, w.coaction
    halg = algebra_of(w.host)
    ck.compare(("i", "j"), ("coaction-mult", contract("ijk,kxy->ijxy", carrier, com),
                            contract("iap,jbq,abx,pqy->ijxy", com, com, carrier, halg)))
    if not carrier.unital:
        ck.skip("coaction-unit")
        return ck.report()
    pil, _ = target_source(w.host)
    # rho(1)(e_a (x) 1): the H leg is untouched since H is unital
    rho1 = contract("i,ixy->xy", carrier.unit, com)
    ck.compare(("a",), ("coaction-unit", contract("xy,xaz->azy", rho1, carrier),
                        contract("ajk,yk->ajy", com, pil)))
    return ck.report()


def check_doi_hopf(d: DoiHopfModule) -> Report:
    """Underlying axioms plus rho(m . a) = m_(0) . a_(0) (x) m_(1) a_(1)."""
    ck = Checker("doi-hopf", d.name)
    ck.merge(check_action.__wrapped__(d.action))
    ck.merge(check_coaction.__wrapped__(d.coaction))
    ck.merge(check_weak_comodule_algebra(d.comodule_algebra))
    _entwining_walk(ck, "doi-hopf-law", "a", d.action, d.coaction,
                    d.comodule_algebra.coaction, algebra_of(d.comodule_algebra.host))
    return ck.report()


def check_module_algebra(b: BialgebraLike, carrier: FinAlgebra, action: ActionStructure) -> Report:
    """h . (xy) = (h_(1) . x)(h_(2) . y) and h . 1 = eps(h) 1, on top of
    the plain module axioms."""
    alg, co = algebra_of(b), coalgebra_of(b)
    if action.algebra != alg:
        raise StructureError("module-algebra action is not over the given bialgebra")
    if action.side != "left" or action.dim != carrier.dim:
        raise StructureError("module-algebra law expects a left action on the carrier")
    ck = Checker("module-algebra", action.name or carrier.name)
    ck.merge(check_action.__wrapped__(action))
    mult = ("module-algebra-mult", contract("ijk,ukl->uijl", carrier, action),
            contract("uab,aip,bjq,pqr->uijr", co, action, action, carrier))
    if carrier.unital:
        ck.compare(("h", "x", "y"), mult,
                   ("module-algebra-unit", contract("k,ukl->ul", carrier.unit, action),
                    contract("u,l->ul", co.counit, carrier.unit), 1))
    else:
        ck.compare(("h", "x", "y"), mult)
        if alg.dim:
            ck.skip("module-algebra-unit")
    return ck.report()


# ---------------------------------------------------------------------------
# constructions


def smash_product(a: FinAlgebra, b: BialgebraLike, action: ActionStructure) -> FinAlgebra:
    """Algebra on A (x) H with (a#h)(b#g) = a (h_(1) . b) # h_(2) g."""
    rep = check_module_algebra(b, a, action)
    if not rep.ok:
        raise PreconditionError(f"smash product needs a module algebra: {rep.to_json()}")
    halg, co = algebra_of(b), coalgebra_of(b)
    n = a.dim * halg.dim
    # a#h on the lex pair basis (a, h): merge each index pair
    mult = contract("pab,ajk,ikm,bqy->ipjqmy", co, action, a, halg).joined(2, 2, 2)
    labels = tuple(f"{la}#{lh}" for la in a.labels for lh in halg.labels)
    return FinAlgebra(a.field, n, labels, mult, contract("a,h->ah", a.unit, halg.unit).joined(2),
                      name=f"{a.name}#{name_of(b)}")


def coinvariants(c: CoactionStructure, mode: str, host) -> RawTensor:
    """Basis of the coinvariant subspace, as the rows of a raw tensor.

    strict: { m : rho(m) = m (x) 1 }.  weak: { m : rho(m) = m_(0) (x)
    pi_L(m_(1)) }, which needs a weak host.
    """
    if mode not in ("strict", "weak"):
        raise StructureError(f"unknown coinvariants mode {mode!r}")
    if coalgebra_of(host) != c.coalgebra:
        raise StructureError("coinvariants host does not own the coaction's coalgebra")
    halg = algebra_of(host)
    n, hd, f = c.dim, halg.dim, c.field
    if mode == "strict":
        # m (x) 1: f_j (x) e_k at f_i = f_j
        corr = RawTensor(f, (n, hd, n), {(j, k, j): u for j in range(n)
                                         for (k,), u in halg.unit.cells.items()})
    else:
        if not isinstance(host, (WeakBialgebra, WeakHopfAlgebra)):
            raise StructureError("weak coinvariants need a weak bialgebra host")
        pil, _ = target_source(host)
        corr = contract("ijl,kl->jki", c, pil)
    # one row per f_j (x) e_k, over the coefficient of f_i
    return kernel_basis(list((c.co.permuted(1, 2, 0) - corr).rows(2).values()), f, ncols=n)
