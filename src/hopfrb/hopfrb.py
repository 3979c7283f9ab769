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

from dataclasses import dataclass

from .exactlin import (
    Mat,
    Scalar,
    Vec,
    add_outer,
    apply_mat,
    column,
    column_space_basis,
    identity,
    kernel_basis,
    mat_from_cols,
    mat_mul,
    nonzero,
    plane_cells,
    span_eq,
    span_leq,
    vec_add,
    vec_scale,
    zeros_vec,
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
    swap_tensor2,
    target_source,
    tensor2_product,
    tensor3_product,
    tensor_unit,
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


@dataclass(frozen=True)
class IntegralSpace:
    host: BialgebraLike
    side: str
    basis: tuple[Vec, ...]


def find_integrals(h: BialgebraLike, side: str = "left") -> IntegralSpace:
    """Solution space of h x = eps(h) x (left) or x h = eps(h) x (right)."""
    if side not in ("left", "right"):
        raise StructureError("integral side must be left or right")
    alg, co = algebra_of(h), coalgebra_of(h)
    n = alg.dim
    rows = []
    for i in range(n):
        for c in range(n):
            row = []
            for x in range(n):
                val = alg.mult[i][x][c] if side == "left" else alg.mult[x][i][c]
                if x == c:
                    val = val - co.counit[i]
                row.append(val)
            rows.append(tuple(row))
    basis = kernel_basis(tuple(rows), alg.field, ncols=n)
    left = side == "left"
    _postcondition(
        "every integral solves h x = eps(h) x" if left else "every integral solves x h = eps(h) x",
        name_of(h),
        tuple(tuple(alg.mul(alg.basis(i), v) if left else alg.mul(v, alg.basis(i))
                    for i in range(n)) for v in basis),
        tuple(tuple(tuple(co.counit[i] * x for x in v) for i in range(n)) for v in basis),
    )
    return IntegralSpace(h, side, basis)


def _require_normalized_two_sided_integral(h: BialgebraLike, e: Vec) -> None:
    alg, co = algebra_of(h), coalgebra_of(h)
    for i in range(alg.dim):
        want = tuple(co.counit[i] * x for x in e)
        if alg.mul(alg.basis(i), e) != want:
            raise PreconditionError(f"not a left integral: fails at basis {i}")
    if not co.counit_of(e).is_one:
        raise PreconditionError(f"integral is not normalized: eps(e) = {co.counit_of(e)}")
    for i in range(alg.dim):
        want = tuple(co.counit[i] * x for x in e)
        if alg.mul(e, alg.basis(i)) != want:
            raise PreconditionError(f"integral is not two-sided: fails at basis {i}")


def integral_T(
    h: BialgebraLike,
    m: ActionStructure,
    e: Vec,
) -> Mat:
    """T = action of a normalized two-sided integral; generic at weight -1.

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
    _postcondition("integral operator is idempotent", m.name, mat_mul(t, t), t)
    _postcondition("integral operator is linear over the host", m.name, check_a_linear(m, t))
    rows = []
    for i in range(alg.dim):
        op = m.matrix(alg.basis(i))
        for r in range(m.dim):
            rows.append(
                tuple(
                    op[r][c] - (co.counit[i] if r == c else alg.field.zero)
                    for c in range(m.dim)
                )
            )
    fixed = kernel_basis(tuple(rows), alg.field, ncols=m.dim)
    _postcondition("image of the integral operator is the fixed subspace", m.name,
                   span_eq(column_space_basis(t, alg.field), fixed, alg.field), True)
    return t


# ---------------------------------------------------------------------------
# smash products with integrals


def adjoint_action(h) -> ActionStructure:
    """The host acting on itself by x |-> h_(1) x S(h_(2))."""
    alg, co = algebra_of(h), coalgebra_of(h)
    s = antipode_of(h)
    if s is None:
        raise PreconditionError("adjoint action needs an antipode")
    n = alg.dim
    act = []
    for i in range(n):
        plane = []
        for j in range(n):
            out = zeros_vec(alg.field, n)
            for a, b, d in plane_cells(co.comult_nz[i]):
                term = alg.mul(alg.mul(alg.basis(a), alg.basis(j)), column(s, b))
                out = vec_add(out, vec_scale(d, term))
            plane.append(out)
        act.append(tuple(plane))
    return ActionStructure(alg, n, "left", tuple(act), name=f"{name_of(h)}-adjoint")


def smash_integral_T(
    a: FinAlgebra,
    h: BialgebraLike,
    act: ActionStructure,
    e: Vec,
) -> tuple[FinAlgebra, ActionStructure, Mat]:
    """The operator a#h |-> e_(1) . a # e_(2) h on the smash product.

    Returns the smash algebra, the smash product as a module through 1#h,
    and the operator, asserted idempotent and linear over 1#h: generic at
    weight -1.
    """
    _require_normalized_two_sided_integral(h, e)
    smash = smash_product(a, h, act)  # precondition-checks the module algebra
    alg, co = algebra_of(h), coalgebra_of(h)
    ad, hd = a.dim, alg.dim
    n = ad * hd
    f = a.field

    def split(delta: Vec, j: int, q: int) -> Vec:
        """(delta_(1) . a_j) # (delta_(2) e_q) for delta in H (x) H."""
        out = [f.zero] * n
        for p, c in nonzero(delta):
            p1, p2 = divmod(p, hd)
            for x, mx in act.act_nz[p1][j]:
                cm = c * mx
                for y, my in alg.mult_nz[p2][q]:
                    out[x * hd + y] += cm * my
        return tuple(out)

    basis = [(j, q) for j in range(ad) for q in range(hd)]
    de = co.comult_vec(e)
    t = mat_from_cols([split(de, j, q) for j, q in basis])
    # (1#e_i)(a_j#e_q) = (e_i1 . a_j)#(e_i2 e_q), the same shape as T
    deltas = [co.comult_vec(alg.basis(i)) for i in range(hd)]
    hact = tuple(tuple(split(d, j, q) for j, q in basis) for d in deltas)
    module = ActionStructure(alg, n, "left", hact, name=f"{smash.name}-as-{name_of(h)}-module")
    _postcondition("1#h multiplication is a module action", module.name, check_action(module))
    _postcondition("smash integral operator is idempotent", module.name, mat_mul(t, t), t)
    _postcondition("smash integral operator is linear over 1#h", module.name,
                   check_a_linear(module, t))
    return smash, module, t


# ---------------------------------------------------------------------------
# functionals acting through comultiplication


def functional_operator(h: BialgebraLike, chi: Functional) -> Mat:
    """The matrix of T(x) = chi(x_(1)) x_(2) on the host."""
    alg, co = algebra_of(h), coalgebra_of(h)
    n = alg.dim
    cols = []
    for i in range(n):
        out = [alg.field.zero] * n
        for a, k, d in plane_cells(co.comult_nz[i]):
            out[k] += chi.coords[a] * d
        cols.append(tuple(out))
    return mat_from_cols(cols)


def dual_action_T(h: BialgebraLike, chi: Functional) -> tuple[Mat, ActionStructure]:
    """T = functional_operator(h, chi) on the host as a module over its dual.

    Returns T and the dual-action module.  T is always dual-linear, and T
    idempotent is equivalent to chi being a convolution idempotent (the
    counit recovers chi from T); both facts are asserted.  So at weight -1
    T is generic exactly when chi is a convolution idempotent.
    """
    t = functional_operator(h, chi)
    module = coaction_to_dual_action(regular_coaction(h), dual_algebra(h))
    _postcondition("functional-induced operator is dual-linear", module.name,
                   check_a_linear(module, t))
    _postcondition("T is idempotent iff chi is a convolution idempotent", module.name,
                   mat_mul(t, t) == t, convolution(chi, chi).coords == chi.coords)
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
    _postcondition("target map is idempotent", name_of(w), mat_mul(pil, pil), pil)
    sub = subalgebra_image(pil, alg)
    r = sub.algebra.dim
    n = alg.dim
    act = []
    for s in range(r):
        z = apply_mat(sub.inclusion, sub.algebra.basis(s))
        act.append(tuple(alg.mul(z, alg.basis(j)) for j in range(n)))
    module = ActionStructure(
        sub.algebra, n, "left", tuple(act), name=f"{name_of(w)}-over-target"
    )
    _postcondition("multiplication by the target subalgebra is a module action", module.name,
                   check_action(module))
    _postcondition("target map is linear over the target subalgebra", module.name,
                   check_a_linear(module, pil))
    # an idempotent fixes its image, so the restricted target map is the identity
    _postcondition("target map fixes its own image", name_of(w),
                   mat_mul(pil, sub.inclusion), sub.inclusion)
    p_sub = identity(f, r)
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
    n = alg.dim
    _postcondition(
        "target of the adjoint action is the target of the product", module.name,
        tuple(tuple(apply_mat(pil, module.apply(alg.basis(i), alg.basis(j))) for j in range(n))
              for i in range(n)),
        tuple(tuple(apply_mat(pil, alg.mult[i][j]) for j in range(n)) for i in range(n)),
    )
    return inst


# ---------------------------------------------------------------------------
# Hopf modules and dimodules


def _coaction_projection(action: ActionStructure, com: CoactionStructure, phis: Mat) -> Mat:
    """Matrix of x |-> x_(0) . phis(x_(1)) on a carrier with both an action
    and a coaction: E with phis = S for a Hopf module, phi S for a Doi-Hopf
    one, and E_A on a comodule algebra acting on itself from the right."""
    cols = []
    for i in range(com.dim):
        out = zeros_vec(action.algebra.field, com.dim)
        for j, k, d in plane_cells(com.co_nz[i]):
            out = vec_add(out, vec_scale(d, action.apply(column(phis, k), com.basis(j))))
        cols.append(out)
    return mat_from_cols(cols)


def hopf_module_projection(h: HopfAlgebra, m: HopfModule) -> tuple[Mat, RbpInstance]:
    """E(m) = m_(0) . S(m_(1)) for a Hopf module.

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
    _postcondition("hopf-module projection is idempotent", m.name, mat_mul(e_m, e_m), e_m)
    strict = coinvariants(m.coaction, "strict", h)
    _postcondition("projection image lies in the coinvariants", m.name,
                   span_leq(column_space_basis(e_m, alg.field), strict, alg.field), True)
    p = tuple(
        tuple(alg.unit[r] * co.counit[c] for c in range(alg.dim)) for r in range(alg.dim)
    )
    lam = -alg.field.one
    inst = RbpInstance(alg, m.action, p, e_m, lam, name=f"{m.name}-projection-instance")
    _postcondition("projection instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    return e_m, inst


def dimodule_T(h: BialgebraLike, d: Dimodule, f: Functional) -> Mat:
    """T(m) = m_(0) f(m_(1)) on a dimodule.

    T is linear over the host (the compatibility law moves the action past
    the coaction leg), and a convolution-idempotent f always yields an
    idempotent T; both are asserted.  So at weight -1 T is generic exactly
    when it is idempotent.
    """
    rep = check_dimodule(d)
    if not rep.ok:
        raise PreconditionError(f"dimodule axioms fail: {rep.to_json()}")
    alg = algebra_of(h)
    com = d.coaction
    n = d.dim
    cols = []
    for i in range(n):
        out = [alg.field.zero] * n
        for j, k, dd in plane_cells(com.co_nz[i]):
            out[j] += dd * f.coords[k]
        cols.append(tuple(out))
    t = mat_from_cols(cols)
    _postcondition("dimodule operator is linear over the host", d.name,
                   check_a_linear(d.action, t))
    if convolution(f, f).coords == f.coords:
        _postcondition("a convolution idempotent induces an idempotent operator", d.name,
                       mat_mul(t, t), t)
    return t


# ---------------------------------------------------------------------------
# pairings and R-matrices


@dataclass(frozen=True)
class PairingForm:
    host: BialgebraLike
    sigma: Mat

    def __post_init__(self) -> None:
        n = algebra_of(self.host).dim
        if len(self.sigma) != n or any(len(r) != n for r in self.sigma):
            raise StructureError("pairing form is not dim x dim")

    def value(self, i: int, j: int) -> Scalar:
        return self.sigma[i][j]


@dataclass(frozen=True)
class RMatrix:
    host: BialgebraLike
    r: Vec
    rinv: Vec

    def __post_init__(self) -> None:
        alg = algebra_of(self.host)
        n2 = alg.dim * alg.dim
        if len(self.r) != n2 or len(self.rinv) != n2:
            raise StructureError("tensor-square element has wrong length")
        one = tensor_unit(alg)
        if (
            tensor2_product(alg, self.r, self.rinv) != one
            or tensor2_product(alg, self.rinv, self.r) != one
        ):
            raise StructureError("rinv is not a two-sided inverse in the tensor square")


def _pair_eval(sigma: Mat, x: int, v: Vec, side: str, field) -> Scalar:
    """sigma(x, v) for side right, sigma(v, x) for side left."""
    acc = field.zero
    for j, c in nonzero(v):
        acc += c * (sigma[x][j] if side == "right" else sigma[j][x])
    return acc


def _pairing_dimodule(h: BialgebraLike, sigma: Mat, flavor: str) -> Dimodule:
    alg, co = algebra_of(h), coalgebra_of(h)
    n = alg.dim
    act = []
    for x in range(n):
        plane = []
        for hh in range(n):
            out = [alg.field.zero] * n
            for a, b, d in plane_cells(co.comult_nz[hh]):
                if flavor == "long":
                    # x . h = sigma(h_(2), x) h_(1)
                    out[a] += d * sigma[b][x]
                else:
                    # x . h = sigma(x, h_(1)) h_(2)
                    out[b] += d * sigma[x][a]
            plane.append(tuple(out))
        act.append(tuple(plane))
    action = ActionStructure(alg, n, "left", tuple(act), name=f"{name_of(h)}-{flavor}-action")
    return Dimodule(h, action, regular_coaction(h), name=f"{name_of(h)}-{flavor}-dimodule")


def check_long_pairing(h: BialgebraLike, form: PairingForm) -> tuple[Report, Dimodule | None]:
    """The five skew-pairing identities; on pass, the induced dimodule
    (x . h = sigma(h_(2), x) h_(1) with the regular coaction) is built and
    its axioms asserted."""
    if algebra_of(form.host) != algebra_of(h):
        raise StructureError("pairing form is not over the given host")
    alg, co = algebra_of(h), coalgebra_of(h)
    sigma = form.sigma
    n = alg.dim
    ck = Checker("long-pairing", name_of(h))
    for x in range(n):
        for y in range(n):
            # sigma(x_(1), y) x_(2) = sigma(x_(2), y) x_(1)
            lhs = [alg.field.zero] * n
            rhs = [alg.field.zero] * n
            for a, b, d in plane_cells(co.comult_nz[x]):
                lhs[b] += d * sigma[a][y]
                rhs[a] += d * sigma[b][y]
            ck.equal_vec("pair-symmetry", (("x", x), ("y", y)), tuple(lhs), tuple(rhs))
        ck.equal_vec(
            "pair-right-unit",
            (("x", x),),
            (_pair_eval(sigma, x, alg.unit, "right", alg.field),),
            (co.counit[x],),
        )
        ck.equal_vec(
            "pair-left-unit",
            (("x", x),),
            (_pair_eval(sigma, x, alg.unit, "left", alg.field),),
            (co.counit[x],),
        )
    for x in range(n):
        for y in range(n):
            for z in range(n):
                # sigma(x, yz) = sigma(x_(2), y) sigma(x_(1), z)
                lhs = _pair_eval(sigma, x, alg.mult[y][z], "right", alg.field)
                rhs = alg.field.zero
                for a, b, d in plane_cells(co.comult_nz[x]):
                    rhs += d * sigma[b][y] * sigma[a][z]
                ck.equal_vec("pair-mult-right", (("x", x), ("y", y), ("z", z)), (lhs,), (rhs,))
                # sigma(xy, z) = sigma(x, z_(1)) sigma(y, z_(2))
                lhs = _pair_eval(sigma, z, alg.mult[x][y], "left", alg.field)
                rhs = alg.field.zero
                for a, b, d in plane_cells(co.comult_nz[z]):
                    rhs += d * sigma[x][a] * sigma[y][b]
                ck.equal_vec("pair-mult-left", (("x", x), ("y", y), ("z", z)), (lhs,), (rhs,))
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
    for x in range(n):
        for y in range(n):
            # sigma(x_(1), y_(1)) y_(2) x_(2) = x_(1) y_(1) sigma(x_(2), y_(2))
            lhs = zeros_vec(alg.field, n)
            rhs = zeros_vec(alg.field, n)
            for a, b, dx in plane_cells(co.comult_nz[x]):
                for c, e, dy in plane_cells(co.comult_nz[y]):
                    coeff = dx * dy
                    lhs = vec_add(lhs, vec_scale(coeff * sigma[a][c], alg.mult[e][b]))
                    rhs = vec_add(rhs, vec_scale(coeff * sigma[b][e], alg.mult[a][c]))
            ck.equal_vec("braid-commute", (("x", x), ("y", y)), lhs, rhs)
            for z in range(n):
                # sigma(x, yz) = sigma(x_(1), y) sigma(x_(2), z)
                lhs2 = _pair_eval(sigma, x, alg.mult[y][z], "right", alg.field)
                rhs2 = alg.field.zero
                for a, b, d in plane_cells(co.comult_nz[x]):
                    rhs2 += d * sigma[a][y] * sigma[b][z]
                ck.equal_vec("braid-mult-right", (("x", x), ("y", y), ("z", z)), (lhs2,), (rhs2,))
                # sigma(xy, z) = sigma(x, z_(2)) sigma(y, z_(1))
                lhs3 = _pair_eval(sigma, z, alg.mult[x][y], "left", alg.field)
                rhs3 = alg.field.zero
                for a, b, d in plane_cells(co.comult_nz[z]):
                    rhs3 += d * sigma[x][b] * sigma[y][a]
                ck.equal_vec("braid-mult-left", (("x", x), ("y", y), ("z", z)), (lhs3,), (rhs3,))
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
    f = alg.field
    r, rinv = rm.r, rm.rinv
    ck = Checker("quasitriangular", name_of(h))
    for i in range(n):
        dh = co.comult_vec(alg.basis(i))
        lhs = tensor2_product(alg, tensor2_product(alg, r, dh), rinv)
        ck.equal_vec("intertwine-comult", (("h", i),), lhs, swap_tensor2(dh, n))
    r13 = [f.zero] * (n ** 3)
    r23 = [f.zero] * (n ** 3)
    r12 = [f.zero] * (n ** 3)
    r_cells = [(*divmod(p, n), c) for p, c in nonzero(r)]
    for i, j, c in r_cells:
        for u, uu in nonzero(alg.unit):
            r13[(i * n + u) * n + j] += c * uu
            r23[(u * n + i) * n + j] += c * uu
            r12[(i * n + j) * n + u] += c * uu
    r13, r23, r12 = tuple(r13), tuple(r23), tuple(r12)
    # (Delta (x) id)(R) and (id (x) Delta)(R)
    left = [f.zero] * (n ** 3)
    right = [f.zero] * (n ** 3)
    for a, b, c in r_cells:
        for x, y, d in plane_cells(co.comult_nz[a]):
            left[(x * n + y) * n + b] += c * d
        for x, y, d in plane_cells(co.comult_nz[b]):
            right[(a * n + x) * n + y] += c * d
    ck.equal_vec("comult-left-leg", (), tuple(left), tensor3_product(alg, r13, r23))
    ck.equal_vec("comult-right-leg", (), tuple(right), tensor3_product(alg, r13, r12))
    rep = ck.report()
    if not rep.ok:
        return rep, None
    # rho(e_a) = e_a R_i (x) R_j
    coar = [[[f.zero] * n for _ in range(n)] for _ in range(n)]
    for a in range(n):
        for i, j, c in r_cells:
            for u, m in alg.mult_nz[a][i]:
                coar[a][u][j] += c * m
    coaction = CoactionStructure(
        coalgebra_of(h),
        n,
        tuple(tuple(tuple(row) for row in plane) for plane in coar),
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
    w: WeakHopfAlgebra, a: WeakComoduleAlgebra, phi: Mat, m: DoiHopfModule
) -> tuple[Mat, Mat, RbpInstance]:
    """E_A(x) = x_(0) phi(S(x_(1))) and E(m) = m_(0) . phi(S(m_(1))).

    phi must be an algebra map intertwining the coactions.  Asserted: E_A
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
    halg = algebra_of(w)
    carrier = a.carrier
    rep_m = check_algebra_morphism(phi, halg, carrier)
    if not rep_m.ok:
        raise PreconditionError(f"phi is not an algebra map: {rep_m.to_json()}")
    co = coalgebra_of(w)
    hd, ad = halg.dim, carrier.dim
    for i in range(hd):
        lhs = a.coaction.coact_vec(column(phi, i))
        rhs = [carrier.field.zero] * (ad * hd)
        for x, y, d in plane_cells(co.comult_nz[i]):
            add_outer(rhs, d, column(phi, x), halg.basis(y))
        if lhs != tuple(rhs):
            raise PreconditionError(f"phi does not intertwine the coactions at basis {i}")
    rep_d = check_doi_hopf(m)
    if not rep_d.ok:
        raise PreconditionError(f"doi-hopf axioms fail: {rep_d.to_json()}")
    phis = mat_mul(phi, w.antipode)
    right_regular = regular_action(carrier, "right")
    e_a = _coaction_projection(right_regular, a.coaction, phis)
    _postcondition("comodule-algebra projection is idempotent", carrier.name,
                   mat_mul(e_a, e_a), e_a)
    e_m = _coaction_projection(m.action, m.coaction, phis)
    weak_co = coinvariants(m.coaction, "weak", w)
    _postcondition("projection image lies in the weak coinvariants", m.name,
                   span_leq(column_space_basis(e_m, carrier.field), weak_co, carrier.field), True)
    lam = -carrier.field.one
    inst = RbpInstance(carrier, m.action, e_a, e_m, lam, name=f"{m.name}-doi-instance")
    _postcondition("doi-hopf instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    if m.action.act == right_regular.act and m.coaction.co == a.coaction.co:
        _postcondition("carrier slice reproduces the algebra projection", m.name, e_m, e_a)
        _postcondition("carrier projection is a Rota-Baxter operator", carrier.name,
                       check_rb_operator(carrier, e_a, lam))
    if carrier.mult == halg.mult and carrier.unit == halg.unit and phi == identity(halg.field, hd):
        pil, _ = target_source(w)
        if a.coaction.co == co.comult:
            _postcondition("self-coaction projection is the target map", carrier.name, e_a, pil)
    return e_a, e_m, inst
