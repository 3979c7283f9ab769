"""Constructions that manufacture paired-module instances from Hopf data.

Every public operation here follows one discipline: hypotheses of the
underlying statement are *preconditions* (PreconditionError when the caller's
data fails them), while the statement's own conclusions are *postconditions*
(InternalError when they fail, since that means the implementation, not the
input, is wrong; `report._postcondition` names the structure, the clause and
its first witness).  Every postcondition is decided exactly; nothing here is
randomized.  Where the statement says an operator T is generic
(pairs with every P), that is asserted through the exact criterion at
weight -1: an idempotent T that commutes with the action pairs with every P.

Weight -1 is hard-coded exactly where the constructions produce it;
everything else keeps the weight as a parameter.
"""

from __future__ import annotations

from .exactlin import (
    RawTensor,
    Record,
    Vec,
    blocks,
    contract,
    differing,
    first_outside,
    kernel_basis,
    raw_identity,
    raw_view,
    stored,
    transposed,
)
from .report import Checker, Report, _postcondition
from .structures import (
    BialgebraLike,
    FinAlgebra,
    Functional,
    HopfAlgebra,
    PreconditionError,
    StructureError,
    WeakHopfAlgebra,
    WeakLike,
    algebra_of,
    antipode_of,
    check_algebra_morphism,
    check_bialgebra,
    check_quantum_commutative,
    check_weak_bialgebra,
    check_weak_hopf,
    coalgebra_of,
    convolution,
    dual_algebra,
    name_of,
    quantum_commutative_witness,
    subalgebra_image,
    target_source,
)
from .actions import (
    ActionStructure,
    CoactionStructure,
    Dimodule,
    DoiHopfModule,
    HopfModule,
    WeakComoduleAlgebra,
    check_action,
    check_dimodule,
    check_doi_hopf,
    check_hopf_module,
    check_weak_comodule_algebra,
    coaction_to_dual_action,
    coinvariants,
    regular_action,
    regular_coaction,
    smash_product,
)
from .rbcore import RbpInstance, check_a_linear, check_rb_operator, check_rbp_module


# ---------------------------------------------------------------------------
# integrals and cointegrals


class IntegralSpace(Record):
    host: BialgebraLike
    side: str
    basis: tuple[Vec, ...]


def find_integrals(h: BialgebraLike, side: str = "left") -> IntegralSpace:
    """Solution space of h x = eps(h) x (left) or x h = eps(h) x (right)."""
    if side not in ("left", "right"):
        raise StructureError("integral side must be left or right")
    alg, co = algebra_of(h), coalgebra_of(h)
    left = side == "left"
    vs = _fixed_space(alg.mult.permuted(0, 2, 1) if left else alg.mult.permuted(1, 2, 0),
                      co.counit)
    _postcondition(
        "every integral solves h x = eps(h) x" if left else "every integral solves x h = eps(h) x",
        name_of(h), contract("ijk,vj->vik" if left else "jik,vj->vik", alg, vs),
        contract("i,vk->vik", co.counit, vs))
    return IntegralSpace(h, side, vs.dense())


def _fixed_space(act: RawTensor, counit: RawTensor) -> RawTensor:
    """Basis of the x with h x = eps(h) x at every h = e_i, as the rows of
    a raw tensor: `act` holds at (i, r, x) the coefficient of the unknown x
    in coordinate r of e_i x.  One raw sparse row per (i, r), as
    `coinvariants` builds its system."""
    f, n = act.field, act.shape[2]
    eps_x = RawTensor(f, act.shape, {(i, r, r): e for (i,), e in counit.cells.items()
                                     for r in range(n)})
    return kernel_basis(list((act - eps_x).rows(2).values()), f, ncols=n)


def _require_normalized_two_sided_integral(h: BialgebraLike, e: Vec) -> None:
    """e h = h e = eps(h) e at every basis element h, and eps(e) = 1; each
    refusal names the first failing basis index or eps(e)."""
    alg, co, e = algebra_of(h), coalgebra_of(h), raw_view(e, 1)
    want = contract("i,k->ik", co.counit, e)
    if bad := differing(contract("ijk,j->ik", alg, e), want, 1):
        raise PreconditionError(f"not a left integral: fails at basis {bad[0][0]}")
    eps = contract("k,k->", e, co.counit)
    if eps.cells != {(): 1}:
        raise PreconditionError(f"integral is not normalized: eps(e) = {eps.dense()[0]}")
    if bad := differing(contract("jik,j->ik", alg, e), want, 1):
        raise PreconditionError(f"integral is not two-sided: fails at basis {bad[0][0]}")


def integral_T(
    h: BialgebraLike,
    m: ActionStructure,
    e: Vec,
) -> RawTensor:
    """T = action of a normalized two-sided integral, as a raw matrix;
    generic at weight -1.

    The integral equations force T to be an idempotent module projection
    onto the subspace fixed up to the counit by every algebra element, so
    idempotency, linearity over the host (together: genericity) and the
    image identification are asserted.
    """
    _require_normalized_two_sided_integral(h, e)
    alg, co = algebra_of(h), coalgebra_of(h)
    if m.algebra != alg or m.side != "left":
        raise PreconditionError("integral_T expects a left module over the host algebra")
    t = m.matrix(e)
    _postcondition("integral operator is idempotent", m.name, t @ t, t)
    _postcondition("integral operator is linear over the host", m.name, check_a_linear(m, t))
    fixed = _fixed_space(m.act.permuted(0, 2, 1), co.counit)
    cols = transposed(t)
    clause = "image of the integral operator is the fixed subspace"
    _require_inside(clause, m.name, "column", cols, "the fixed subspace", fixed, alg.field)
    _require_inside(clause, m.name, "fixed vector", fixed, "the image", cols, alg.field)
    return t


def _require_inside(clause: str, structure: str, what: str, vectors: RawTensor, where: str,
                    basis: RawTensor, field) -> None:
    """Asserts `clause`: every row of `vectors` lies in the span of the rows
    of `basis`.  One `first_outside` pass decides it and names the first
    row outside as the witness."""
    k = first_outside(vectors, basis, field)
    _postcondition(clause, structure, k is None, True,
                   witness=lambda: f"{what} {k} {vectors.to_json()[k]} lies outside {where}")


# ---------------------------------------------------------------------------
# smash products with integrals


def adjoint_action(h) -> ActionStructure:
    """The host acting on itself by x |-> h_(1) x S(h_(2))."""
    alg, co = algebra_of(h), coalgebra_of(h)
    s = antipode_of(h)
    if s is None:
        raise PreconditionError("adjoint action needs an antipode")
    act = contract("iab,ajt,sb,tsr->ijr", co, alg, s, alg)
    return ActionStructure(alg, alg.dim, "left", act, name=f"{name_of(h)}-adjoint")


def smash_integral_T(
    a: FinAlgebra,
    h: BialgebraLike,
    act: ActionStructure,
    e: Vec,
) -> tuple[FinAlgebra, ActionStructure, RawTensor]:
    """The operator a#h |-> e_(1) . a # e_(2) h on the smash product.

    Returns the smash algebra, the smash product as a module through 1#h,
    and the operator as a raw matrix, asserted idempotent and linear over
    1#h: generic at weight -1.
    """
    _require_normalized_two_sided_integral(h, e)
    smash = smash_product(a, h, act)  # precondition-checks the module algebra
    alg, co = algebra_of(h), coalgebra_of(h)
    n = a.dim * alg.dim
    # column (j, q) of T is (e_(1) . a_j) # (e_(2) e_q), on the lex pair basis
    delta_e = blocks(co.comult_vec(e), alg.dim)
    t = contract("ab,ajx,bqy->xyjq", delta_e, act, alg).joined(2, 2)
    # (1#e_i)(a_j#e_q) = (e_i1 . a_j)#(e_i2 e_q), the same shape as T
    hact = contract("iab,ajx,bqy->ijqxy", co, act, alg).joined(1, 2, 2)
    module = ActionStructure(alg, n, "left", hact, name=f"{smash.name}-as-{name_of(h)}-module")
    _postcondition("1#h multiplication is a module action", module.name, check_action(module))
    _postcondition("smash integral operator is idempotent", module.name, t @ t, t)
    _postcondition("smash integral operator is linear over 1#h", module.name,
                   check_a_linear(module, t))
    return smash, module, t


# ---------------------------------------------------------------------------
# functionals acting through comultiplication


def functional_operator(h: BialgebraLike, chi: Functional) -> RawTensor:
    """The matrix of T(x) = chi(x_(1)) x_(2) on the host, as a raw tensor:
    T[k, i] is the coefficient of e_k in T(e_i)."""
    return contract("iak,a->ki", coalgebra_of(h), chi.coords)


def dual_action_T(h: BialgebraLike, chi: Functional) -> tuple[RawTensor, ActionStructure]:
    """T = functional_operator(h, chi) on the host as a module over its dual.

    Returns T, a raw matrix, and the dual-action module.  T is always dual-linear, and T
    idempotent is equivalent to chi being a convolution idempotent (the
    counit recovers chi from T); both facts are asserted.  So at weight -1
    T is generic exactly when chi is a convolution idempotent.
    """
    t = functional_operator(h, chi)
    module = coaction_to_dual_action(regular_coaction(h), dual_algebra(h))
    _postcondition("functional-induced operator is dual-linear", module.name,
                   check_a_linear(module, t))
    _postcondition("T is idempotent iff chi is a convolution idempotent", module.name,
                   t @ t == t, convolution(chi, chi).coords == chi.coords)
    return t, module


# ---------------------------------------------------------------------------
# weak bialgebras: target maps and adjoint actions


def weak_target_rbp(w: WeakLike) -> tuple[RbpInstance, Report]:
    """The host as a module over its target subalgebra, paired through the
    target map.

    Returns the verified instance (target subalgebra acting by left
    multiplication, restricted target map, full target map, weight -1) and
    the operator-identity report for the restriction, asserted to pass.
    The target map is asserted idempotent and linear over the target
    subalgebra, so it pairs with every P at weight -1.
    """
    rep = check_weak_bialgebra(w)
    if not rep.ok:
        raise PreconditionError(f"weak bialgebra axioms fail: {rep.to_json()}")
    alg = algebra_of(w)
    f = alg.field
    pil, _ = target_source(w)
    _postcondition("target map is idempotent", name_of(w), pil @ pil, pil)
    sub = subalgebra_image(pil, alg)
    # b_s . e_j = (sum_x inclusion[x][s] e_x) e_j
    act = contract("xs,xjk->sjk", sub.inclusion, alg)
    module = ActionStructure(sub.algebra, alg.dim, "left", act, name=f"{name_of(w)}-over-target")
    _postcondition("multiplication by the target subalgebra is a module action", module.name,
                   check_action(module))
    _postcondition("target map is linear over the target subalgebra", module.name,
                   check_a_linear(module, pil))
    # an idempotent fixes its image, so the restricted target map is the identity
    _postcondition("target map fixes its own image", name_of(w),
                   pil @ sub.inclusion, sub.inclusion)
    p_sub = raw_identity(f, sub.algebra.dim)
    lam = -f.one
    rb_report = check_rb_operator(sub.algebra, p_sub, lam, instance=f"{name_of(w)}-target")
    _postcondition("restricted target map is a Rota-Baxter operator", rb_report.instance,
                   rb_report)
    inst = RbpInstance(
        sub.algebra, module, p_sub, pil, lam, name=f"{name_of(w)}-target-instance"
    )
    _postcondition("target instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    return inst, rb_report


def adjoint_rbp(w: WeakHopfAlgebra) -> RbpInstance:
    """(host with the adjoint action, target map, target map) at weight -1,
    for quantum commutative hosts; rejected with a witness otherwise."""
    rep = check_weak_hopf(w)
    if not rep.ok:
        raise PreconditionError(f"weak Hopf axioms fail: {rep.to_json()}")
    if not check_quantum_commutative(w):
        witness = quantum_commutative_witness(w)
        raise PreconditionError(
            "host is not quantum commutative; witness "
            f"{witness.to_json() if witness else None}"
        )
    module = adjoint_action(w)
    _postcondition("adjoint action is a module action", module.name, check_action(module))
    alg = algebra_of(w)
    pil, _ = target_source(w)
    lam = -alg.field.one
    inst = RbpInstance(alg, module, pil, pil, lam, name=f"{name_of(w)}-adjoint-instance")
    _postcondition("adjoint instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    _postcondition("target of the adjoint action is the target of the product", module.name,
                   contract("ijx,rx->ijr", module, pil), contract("ijx,rx->ijr", alg, pil))
    return inst


# ---------------------------------------------------------------------------
# Hopf modules and dimodules


def _coaction_projection(action: ActionStructure, com: CoactionStructure,
                         phis: RawTensor) -> RawTensor:
    """Raw matrix of x |-> x_(0) . phis(x_(1)) on a carrier with both an
    action and a coaction: E with phis = S for a Hopf module, phi S for a
    Doi-Hopf one, and E_A on a comodule algebra acting on itself from the
    right."""
    return contract("ijk,sk,sjp->pi", com, phis, action)


def hopf_module_projection(h: HopfAlgebra, m: HopfModule) -> tuple[RawTensor, RbpInstance]:
    """E(m) = m_(0) . S(m_(1)) for a Hopf module, as a raw matrix.

    Asserted: E is idempotent, its image lies in the strict coinvariants,
    and (M over the host, h |-> eps(h) 1, E) verifies at weight -1.  Nothing
    is claimed over the dual algebra: for group algebras E = eps(.) 1 does
    not commute with the dual action, and P = 0 already fails the paired
    identity there.
    """
    rep = check_hopf_module(m)
    if not rep.ok:
        raise PreconditionError(f"hopf-module axioms fail: {rep.to_json()}")
    alg, co = algebra_of(h), coalgebra_of(h)
    e_m = _coaction_projection(m.action, m.coaction, h.antipode)
    _postcondition("hopf-module projection is idempotent", m.name, e_m @ e_m, e_m)
    _require_inside("projection image lies in the coinvariants", m.name, "column",
                    transposed(e_m), "the coinvariants", coinvariants(m.coaction, "strict", h),
                    alg.field)
    p = contract("r,c->rc", alg.unit, co.counit)
    lam = -alg.field.one
    inst = RbpInstance(alg, m.action, p, e_m, lam, name=f"{m.name}-projection-instance")
    _postcondition("projection instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    return e_m, inst


def dimodule_T(h: BialgebraLike, d: Dimodule, f: Functional) -> RawTensor:
    """T(m) = m_(0) f(m_(1)) on a dimodule, as a raw matrix.

    T is linear over the host (the compatibility law moves the action past
    the coaction leg), and a convolution-idempotent f always yields an
    idempotent T; both are asserted.  So at weight -1 T is generic exactly
    when it is idempotent.
    """
    rep = check_dimodule(d)
    if not rep.ok:
        raise PreconditionError(f"dimodule axioms fail: {rep.to_json()}")
    t = contract("ijk,k->ji", d.coaction, f.coords)
    _postcondition("dimodule operator is linear over the host", d.name,
                   check_a_linear(d.action, t))
    if convolution(f, f).coords == f.coords:
        _postcondition("a convolution idempotent induces an idempotent operator", d.name,
                       t @ t, t)
    return t


# ---------------------------------------------------------------------------
# pairings and R-matrices


class PairingForm(Record):
    """A bilinear form on the host: ``sigma[i, j]`` is sigma(e_i, e_j).  It
    is stored raw (`exactlin.stored`): a dim x dim `RawTensor`, or a dense
    Scalar matrix read once."""

    host: BialgebraLike
    sigma: RawTensor

    def __post_init__(self) -> None:
        alg = algebra_of(self.host)
        object.__setattr__(self, "sigma", stored(alg.field, self.sigma, (alg.dim,) * 2,
                                                 "pairing form", "is not dim x dim"))


class RMatrix(Record):
    """R and its inverse in the tensor square, each stored raw
    (`exactlin.stored`) as a dim x dim `RawTensor`: the cell (a, b) is the
    coefficient of e_a (x) e_b.  A dense Scalar vector on the lex pair basis
    is read once."""

    host: BialgebraLike
    r: RawTensor
    rinv: RawTensor

    def __post_init__(self) -> None:
        alg = algebra_of(self.host)
        n = alg.dim
        for key in ("r", "rinv"):
            x = getattr(self, key)
            if not isinstance(x, RawTensor):
                if len(x) != n * n:
                    raise StructureError("tensor-square element has wrong length")
                x = blocks(x, n)
            object.__setattr__(self, key, stored(alg.field, x, (n, n), "tensor-square element",
                                                 "has wrong length"))
        one = contract("a,b->ab", alg.unit, alg.unit)
        r, rinv = self.r, self.rinv
        # R R^-1 = 1 (x) 1 = R^-1 R in A (x) A
        if (contract("ab,cd,acx,bdy->xy", r, rinv, alg, alg) != one
                or contract("ab,cd,acx,bdy->xy", rinv, r, alg, alg) != one):
            raise StructureError("rinv is not a two-sided inverse in the tensor square")


def _pairing_dimodule(h: BialgebraLike, sigma: RawTensor, flavor: str) -> Dimodule:
    alg, co = algebra_of(h), coalgebra_of(h)
    n = alg.dim
    # long: x . h = sigma(h_(2), x) h_(1); braided: x . h = sigma(x, h_(1)) h_(2)
    act = contract("hab,bx->xha" if flavor == "long" else "hab,xa->xhb", co, sigma)
    action = ActionStructure(alg, n, "left", act, name=f"{name_of(h)}-{flavor}-action")
    return Dimodule(h, action, regular_coaction(h), name=f"{name_of(h)}-{flavor}-dimodule")


def check_long_pairing(h: BialgebraLike, form: PairingForm) -> tuple[Report, Dimodule | None]:
    """The five skew-pairing identities; on pass, the induced dimodule
    (x . h = sigma(h_(2), x) h_(1) with the regular coaction) is built and
    its axioms asserted."""
    if algebra_of(form.host) != algebra_of(h):
        raise StructureError("pairing form is not over the given host")
    alg, co = algebra_of(h), coalgebra_of(h)
    sigma = form.sigma
    ck = Checker("long-pairing", name_of(h))
    ck.compare(("x", "y"),
               # sigma(x_(1), y) x_(2) = sigma(x_(2), y) x_(1)
               ("pair-symmetry", contract("xab,ay->xyb", co, sigma),
                contract("xab,by->xya", co, sigma)),
               ("pair-right-unit", contract("xj,j->x", sigma, alg.unit), co.counit, 1),
               ("pair-left-unit", contract("jx,j->x", sigma, alg.unit), co.counit, 1))
    ck.compare(("x", "y", "z"),
               # sigma(x, yz) = sigma(x_(2), y) sigma(x_(1), z)
               ("pair-mult-right", contract("yzk,xk->xyz", alg, sigma),
                contract("xab,by,az->xyz", co, sigma, sigma)),
               # sigma(xy, z) = sigma(x, z_(1)) sigma(y, z_(2))
               ("pair-mult-left", contract("xyk,kz->xyz", alg, sigma),
                contract("zab,xa,yb->xyz", co, sigma, sigma)))
    rep = ck.report()
    if not rep.ok:
        return rep, None
    dim = _pairing_dimodule(h, sigma, "long")
    _postcondition("the dimodule of a long pairing satisfies its axioms", dim.name,
                   check_dimodule(dim))
    return rep, dim


def check_braided(h: BialgebraLike, form: PairingForm) -> tuple[Report, Dimodule | None]:
    """The three braided identities; on pass, the induced dimodule
    (x . h = sigma(x, h_(1)) h_(2) with the regular coaction) is built and
    its axioms asserted."""
    if algebra_of(form.host) != algebra_of(h):
        raise StructureError("pairing form is not over the given host")
    alg, co = algebra_of(h), coalgebra_of(h)
    sigma = form.sigma
    n = alg.dim
    ck = Checker("braided-pairing", name_of(h))
    ck.compare(("x", "y", "z"),
               # sigma(x_(1), y_(1)) y_(2) x_(2) = x_(1) y_(1) sigma(x_(2), y_(2))
               ("braid-commute", contract("xab,ac,yce,ebr->xyr", co, sigma, co, alg),
                contract("xab,be,yce,acr->xyr", co, sigma, co, alg), 2),
               # sigma(x, yz) = sigma(x_(1), y) sigma(x_(2), z)
               ("braid-mult-right", contract("yzk,xk->xyz", alg, sigma),
                contract("xab,ay,bz->xyz", co, sigma, sigma)),
               # sigma(xy, z) = sigma(x, z_(2)) sigma(y, z_(1))
               ("braid-mult-left", contract("xyk,kz->xyz", alg, sigma),
                contract("zab,xb,ya->xyz", co, sigma, sigma)))
    rep = ck.report()
    if not rep.ok:
        return rep, None
    dim = _pairing_dimodule(h, sigma, "braided")
    _postcondition("the dimodule of a braided pairing satisfies its axioms", dim.name,
                   check_dimodule(dim))
    return rep, dim


def check_quasitriangular(h: BialgebraLike, rm: RMatrix) -> tuple[Report, Dimodule | None]:
    """The three R-matrix identities in the tensor square and cube; on pass,
    the induced dimodule (left regular action, x |-> x R_i tensor R_j) is
    built and its axioms asserted."""
    if algebra_of(rm.host) != algebra_of(h):
        raise StructureError("R-matrix is not over the given host")
    rep_b = check_bialgebra(h)
    if not rep_b.ok:
        raise PreconditionError(f"bialgebra axioms fail: {rep_b.to_json()}")
    alg, co = algebra_of(h), coalgebra_of(h)
    n = alg.dim
    r, rinv = rm.r, rm.rinv
    ck = Checker("quasitriangular", name_of(h))
    # R Delta(h) R^-1 = Delta^op(h)
    ck.compare(("h",), ("intertwine-comult",
                        contract("ab,icd,acp,bdq,pex,ef,qfy->ixy", r, co, alg, alg, alg, rinv, alg),
                        contract("icd->idc", co)))
    # (Delta (x) id)(R) = R13 R23 and (id (x) Delta)(R) = R13 R12; the
    # bialgebra precondition makes 1 a two-sided unit, so the legs' 1s drop
    ck.compare((), ("comult-left-leg", contract("ab,axy->xyb", r, co),
                    contract("ij,kl,jlz->ikz", r, r, alg)),
               ("comult-right-leg", contract("ab,bxy->axy", r, co),
                contract("ij,kl,ikx->xlj", r, r, alg)))
    rep = ck.report()
    if not rep.ok:
        return rep, None
    # rho(e_a) = e_a R_i (x) R_j
    coaction = CoactionStructure(
        coalgebra_of(h),
        n,
        contract("aiu,ij->auj", alg, r),
        name=f"{name_of(h)}-rmatrix-coaction",
    )
    dim = Dimodule(
        h, regular_action(alg, "left"), coaction, name=f"{name_of(h)}-rmatrix-dimodule"
    )
    _postcondition("the dimodule of an R-matrix satisfies its axioms", dim.name,
                   check_dimodule(dim))
    return rep, dim


# ---------------------------------------------------------------------------
# weak Doi-Hopf projections


def doi_hopf_projection(
    w: WeakHopfAlgebra, a: WeakComoduleAlgebra, phi, m: DoiHopfModule
) -> tuple[RawTensor, RawTensor, RbpInstance]:
    """E_A(x) = x_(0) phi(S(x_(1))) and E(m) = m_(0) . phi(S(m_(1))), as raw
    matrices.

    phi, a raw or Scalar matrix, must be an algebra map intertwining the
    coactions.  Asserted: E_A
    is idempotent, the image of E lies in the weak coinvariants, the right
    instance (M over the comodule algebra, E_A, E, weight -1) verifies, and
    two recovery laws: the carrier slice reproduces E_A, and phi = id on
    the host itself makes E_A the target map.
    """
    rep = check_weak_hopf(w)
    if not rep.ok:
        raise PreconditionError(f"weak Hopf axioms fail: {rep.to_json()}")
    if a.coaction.coalgebra != coalgebra_of(w):
        raise StructureError("comodule algebra is not over the given host")
    rep_a = check_weak_comodule_algebra(a)
    if not rep_a.ok:
        raise PreconditionError(f"comodule-algebra axioms fail: {rep_a.to_json()}")
    halg, phi = algebra_of(w), raw_view(phi)
    carrier = a.carrier
    rep_m = check_algebra_morphism(phi, halg, carrier)
    if not rep_m.ok:
        raise PreconditionError(f"phi is not an algebra map: {rep_m.to_json()}")
    co = coalgebra_of(w)
    hd = halg.dim
    bad = differing(contract("pi,pqy->iqy", phi, a.coaction), contract("ixy,px->ipy", co, phi), 1)
    if bad:
        raise PreconditionError(f"phi does not intertwine the coactions at basis {bad[0][0]}")
    rep_d = check_doi_hopf(m)
    if not rep_d.ok:
        raise PreconditionError(f"doi-hopf axioms fail: {rep_d.to_json()}")
    phis = phi @ w.antipode
    right_regular = regular_action(carrier, "right")
    e_a = _coaction_projection(right_regular, a.coaction, phis)
    _postcondition("comodule-algebra projection is idempotent", carrier.name, e_a @ e_a, e_a)
    e_m = _coaction_projection(m.action, m.coaction, phis)
    _require_inside("projection image lies in the weak coinvariants", m.name, "column",
                    transposed(e_m), "the weak coinvariants", coinvariants(m.coaction, "weak", w),
                    carrier.field)
    lam = -carrier.field.one
    inst = RbpInstance(carrier, m.action, e_a, e_m, lam, name=f"{m.name}-doi-instance")
    _postcondition("doi-hopf instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    if m.action.act == right_regular.act and m.coaction.co == a.coaction.co:
        _postcondition("carrier slice reproduces the algebra projection", m.name, e_m, e_a)
        _postcondition("carrier projection is a Rota-Baxter operator", carrier.name,
                       check_rb_operator(carrier, e_a, lam))
    if (carrier.mult == halg.mult and carrier.unit == halg.unit
            and phi == raw_identity(halg.field, hd)):
        pil, _ = target_source(w)
        if a.coaction.co == co.comult:
            _postcondition("self-coaction projection is the target map", carrier.name, e_a, pil)
    return e_a, e_m, inst
