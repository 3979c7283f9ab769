"""Acceptance gate: thirteen exact-verification criteria.

Each test prints one pass/fail line and asserts the criterion as stated.
Criterion 10's dual-side clause is an exact refutation: the coinvariant
projection E of a group algebra's regular Hopf module does not pair with
every P over the dual algebra, because P = 0 already fails the paired
identity at weight -1 (see the README).  The replay of that statement, run
by criterion 13, records the same refutation with its witnesses.
"""

import shutil
import subprocess
import sys

from hopfrb.exactlin import (
    RATIONAL,
    RawTensor,
    column_space_basis,
    contract,
    first_outside,
    identity,
    mat_mul,
    mat_scale,
    vec,
)
from hopfrb.structures import (
    Functional,
    PreconditionError,
    as_weak,
    convolution,
    dual_algebra,
    target_source,
)
from hopfrb.actions import (
    DoiHopfModule,
    WeakComoduleAlgebra,
    check_action,
    check_dimodule,
    coaction_to_dual_action,
    coinvariants,
    regular_action,
    regular_coaction,
)
from hopfrb.rbcore import (
    RbpInstance,
    atkinson_witness,
    check_rb_operator,
    check_rbp_module,
    classify_generic,
    double_construction,
    is_quasi_idempotent,
    tilde_pair,
    _random_entries,
)
from hopfrb.hopfrb import (
    check_quasitriangular,
    dimodule_T,
    doi_hopf_projection,
    dual_action_T,
    find_integrals,
    hopf_module_projection,
    integral_T,
    weak_target_rbp,
    adjoint_rbp,
)
from hopfrb.catalog import get, get_instance, list_instances, normalized_group_integral
from hopfrb.structures import check_counital_maps, subalgebra_image

Q = RATIONAL
MINUS_ONE = -Q.one


def _apply(module, r, v):
    """The Scalar vector r . v for the action `module`."""
    return contract("i,j,ijk->k", r, v, module).dense()


def vec_scale(c, u):
    return tuple(c * x for x in u)


def apply_mat(a, x):
    """The Scalar vector a x, for a raw or Scalar matrix a."""
    return contract("rc,c->r", a, x).dense()


def _verdict(number: int, slug: str, ok: bool) -> None:
    print(f"criterion {number:02d} [{slug}]: {'pass' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({slug})"


def test_criterion_01_left_multiplication_verdicts():
    mat2 = get("mat2-rational").payload
    ok = check_rb_operator(mat2, mat2.left_mult(mat2.basis(0)), MINUS_ONE).ok
    rep_fail = check_rb_operator(mat2, mat2.left_mult(mat2.basis(1)), MINUS_ONE)
    ok &= not rep_fail.ok and rep_fail.violations[0].witness is not None
    for bits in range(16):
        r = tuple(Q.of((bits >> i) & 1) for i in range(4))
        idem = mat2.mul(r, r) == r
        ok &= check_rb_operator(mat2, mat2.left_mult(r), MINUS_ONE).ok == idem
    _verdict(1, "rb-operator verdicts on matrix units", ok)


def _drawn(seed: str, trial: int) -> RawTensor:
    """Trial `trial`'s random 2 x 2 operator over Q."""
    return RawTensor.read(Q, (2, 2), {divmod(k, 2): x
                                      for k, x in enumerate(_random_entries(2, seed, trial))})


def test_criterion_02_integral_operator_is_generic():
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(c2))
    v = classify_generic(module, t, MINUS_ONE, trials=100, seed="criterion-2")
    ok = v.generic is True
    for trial in range(100):
        p = _drawn("criterion-2-p", trial)
        ok &= check_rbp_module(RbpInstance(c2.algebra, module, p, t, MINUS_ONE)).ok
    t2 = mat_scale(Q.of(2), identity(Q, 2))
    ok &= not is_quasi_idempotent(t2, MINUS_ONE)
    found = False
    for trial in range(100):
        p = _drawn("criterion-2-p", trial)
        if not check_rbp_module(RbpInstance(c2.algebra, module, p, t2, MINUS_ONE)).ok:
            found = True
            break
    ok &= found
    _verdict(2, "generic classification of the averaging operator", ok)


def test_criterion_03_mirrored_pair_preserves_verification():
    ok = True
    for name in list_instances():
        inst = get_instance(name)
        pt, tt = tilde_pair(inst.p, inst.t, inst.weight)
        ok &= check_rbp_module(
            RbpInstance(inst.algebra, inst.module, pt, tt, inst.weight)).ok
        ok &= tilde_pair(pt, tt, inst.weight) == (inst.p, inst.t)
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(c2))
    for trial in range(50):
        p = _drawn("criterion-3", trial)
        inst = RbpInstance(c2.algebra, module, p, t, MINUS_ONE)
        ok &= check_rbp_module(inst).ok
        pt, tt = tilde_pair(p, t, MINUS_ONE)
        ok &= check_rbp_module(RbpInstance(c2.algebra, module, pt, tt, MINUS_ONE)).ok
        ok &= tilde_pair(pt, tt, MINUS_ONE) == (p, t)
    _verdict(3, "tilde pair verification and involution", ok)


def test_criterion_04_factorization_witnesses():
    inst = get_instance("mat2-proj")
    a, m = inst.algebra, inst.module
    pt, tt = tilde_pair(inst.p, inst.t, inst.weight)
    ok = True
    for i in range(4):
        for j in range(4):
            av, mv = a.basis(i), m.basis(j)
            n = atkinson_witness(inst, av, mv)
            ok &= _apply(m, apply_mat(inst.p, av), apply_mat(inst.t, mv)) == \
                apply_mat(inst.t, n)
            ok &= _apply(m, apply_mat(pt, av), apply_mat(tt, mv)) == \
                vec_scale(MINUS_ONE, apply_mat(tt, n))
    corrupted = RbpInstance(a, m, inst.p, a.left_mult(a.basis(1)), inst.weight)
    ok &= not check_rbp_module(corrupted).ok
    _verdict(4, "factorization witness on all basis pairs", ok)


def test_criterion_05_double_construction():
    mat2 = get("mat2-rational").payload
    module = get("mat2-regular-module").payload
    p = mat2.left_mult(mat2.basis(0))
    star, tri, doubled = double_construction(mat2, p, module, p, MINUS_ONE)
    ok = True
    for i in range(4):
        for j in range(4):
            for k in range(4):
                lhs = star.mul(star.mul(star.basis(i), star.basis(j)), star.basis(k))
                rhs = star.mul(star.basis(i), star.mul(star.basis(j), star.basis(k)))
                ok &= lhs == rhs
    ok &= check_action(tri).ok
    for i in range(4):
        for j in range(4):
            lhs = apply_mat(doubled.t, _apply(tri, mat2.basis(i), module.basis(j)))
            rhs = _apply(tri, apply_mat(p, mat2.basis(i)),
                            apply_mat(doubled.t, module.basis(j)))
            ok &= lhs == rhs
    ok &= check_rbp_module(doubled).ok
    _verdict(5, "doubling: star product, induced action, intertwining", ok)


def test_criterion_06_integrals_and_their_operators():
    ok = True
    for hname, mname, ones in (("group-algebra-c2", "c2-regular-module", 2),
                               ("group-algebra-c3", "c3-regular-module", 3)):
        h = get(hname).payload
        module = get(mname).payload
        left = find_integrals(h, "left")
        right = find_integrals(h, "right")
        ok &= len(left.basis) == 1 and len(right.basis) == 1
        e = normalized_group_integral(h)
        ok &= h.coalgebra.counit_of(e) == Q.one
        ok &= first_outside((e,), left.basis, Q) is None
        ok &= first_outside((e,), right.basis, Q) is None
        t = integral_T(h, module, e).dense()
        ok &= mat_mul(t, t) == t
        for i in range(h.dim):
            act = module.matrix(h.algebra.basis(i)).dense()
            ok &= mat_mul(act, t) == mat_mul(t, act)
        ok &= classify_generic(module, t, MINUS_ONE, trials=40).generic is True
        # the invariant subspace of the regular module is spanned by the
        # all-ones vector
        invariant = (vec(Q, [1] * ones),)
        image = column_space_basis(t, Q)
        ok &= first_outside(image, invariant, Q) is None
        ok &= first_outside(invariant, image, Q) is None
    h4 = get("sweedler-h4").payload
    space = find_integrals(h4, "left")
    ok &= len(space.basis) == 1
    ok &= h4.coalgebra.counit_of(space.basis[0]).is_zero
    try:
        integral_T(h4, regular_action(h4.algebra, "left"), space.basis[0])
        ok = False
    except PreconditionError:
        pass
    _verdict(6, "group integrals and the averaging operator", ok)


def test_criterion_07_functional_idempotents():
    c2 = get("group-algebra-c2").payload
    dimods = [get("c2-trivial-dimodule").payload, get("c2-long-dimodule").payload]
    ok = True
    idempotents = []
    for a in (0, 1):
        for b in (0, 1):
            f = Functional(c2, vec(Q, [a, b]))
            scaled = Functional(c2, vec(Q, [2 * a, 2 * b]))
            if convolution(f, f).coords == f.coords:
                idempotents.append((a, b))
            for chi in (f, scaled):
                pred = convolution(chi, chi).coords == chi.coords
                t, module = dual_action_T(c2, chi)
                ok &= classify_generic(module, t, MINUS_ONE, trials=10).generic == pred
                for d in dimods:
                    t = dimodule_T(c2, d, chi)
                    ok &= classify_generic(d.action, t, MINUS_ONE, trials=10).generic == pred
    # exactly 0, delta_e, delta_g, eps; the scaled nonzero ones drop out
    ok &= idempotents == [(0, 0), (0, 1), (1, 0), (1, 1)]
    for a, b in idempotents[1:]:
        g = Functional(c2, vec(Q, [2 * a, 2 * b]))
        ok &= convolution(g, g).coords != g.coords
    _verdict(7, "operator verdicts track convolution idempotency", ok)


def test_criterion_08_target_map_is_rota_baxter():
    ok = True
    for name in ("weak-two-point", "weak-pair-groupoid"):
        w = get(name).payload
        ok &= check_counital_maps(w).ok
        pil, _ = target_source(w)
        ok &= check_rb_operator(w.algebra, pil, MINUS_ONE).ok
        sub = subalgebra_image(pil, w.algebra)
        ok &= check_rb_operator(sub.algebra, identity(Q, sub.algebra.dim),
                                MINUS_ONE).ok
        inst, rb_report = weak_target_rbp(w)
        ok &= rb_report.ok and inst.verified == "pass"
        # phi = id recovers the target map as the carrier projector
        com = regular_coaction(w)
        wca = WeakComoduleAlgebra(w, w.algebra, com)
        doi = DoiHopfModule(wca, regular_action(w.algebra, "right"), com)
        e_a, _, _ = doi_hopf_projection(w, wca, identity(Q, w.dim), doi)
        ok &= e_a == pil
        ok &= check_rb_operator(w.algebra, e_a, MINUS_ONE).ok
    _verdict(8, "counital target map as Rota-Baxter operator", ok)


def test_criterion_09_adjoint_instance_needs_quantum_commutativity():
    ok = adjoint_rbp(get("weak-two-point").payload).verified == "pass"
    ok &= adjoint_rbp(as_weak(get("group-algebra-c2").payload)).verified == "pass"
    try:
        adjoint_rbp(get("weak-pair-groupoid").payload)
        ok = False
    except PreconditionError as ex:
        ok &= "quantum" in str(ex) and "witness" in str(ex)
    _verdict(9, "adjoint action instance and its precondition", ok)


def test_criterion_10_hopf_module_projection():
    ok = True
    for hname, mname in (("group-algebra-c2", "c2-regular-hopf-module"),
                         ("group-algebra-c3", "c3-regular-hopf-module")):
        h = get(hname).payload
        m = get(mname).payload
        e_m, inst = hopf_module_projection(h, m)
        e_m = e_m.dense()
        alg, co = h.algebra, h.coalgebra
        unit, counit = alg.unit.dense(), co.counit.dense()
        eps_one = tuple(tuple(unit[r] * counit[c] for c in range(alg.dim))
                        for r in range(alg.dim))
        ok &= e_m == eps_one
        ok &= mat_mul(e_m, e_m) == e_m
        strict = coinvariants(m.coaction, "strict", h)
        ok &= first_outside(column_space_basis(e_m, Q), strict, Q) is None
        ok &= check_rbp_module(inst).ok
        # the dual side is refuted exactly: E is not linear over the dual
        # algebra, so the verdict is documented inconclusive, and P = 0
        # fails the paired identity on (dual, M, E) at weight -1
        dual = coaction_to_dual_action(m.coaction, dual_algebra(h))
        verdict = classify_generic(dual, e_m, MINUS_ONE, trials=40)
        ok &= verdict.a_linear is False and verdict.generic is None
        zero_p = RawTensor(Q, (dual.algebra.dim,) * 2, {})
        ok &= not check_rbp_module(
            RbpInstance(dual.algebra, dual, zero_p, e_m, MINUS_ONE)).ok
    _verdict(10, "projection onto coinvariants", ok)


def test_criterion_11_triangular_structure():
    rm = get("c2-triangular-R").payload
    rep, induced = check_quasitriangular(rm.host, rm)
    ok = rep.ok and induced is not None
    ok &= check_dimodule(induced).ok
    chi = get("c2-delta-e").payload
    t = dimodule_T(rm.host, induced, chi)
    ok &= classify_generic(induced.action, t, MINUS_ONE, trials=40).generic is True
    _verdict(11, "triangular structure and its induced operator", ok)


def test_criterion_12_comodule_algebra_projection():
    w = get("weak-pair-groupoid").payload
    doi = get("pair-groupoid-doi-hopf").payload
    a = doi.comodule_algebra
    phi = identity(Q, 4)
    e_a, e_m, inst = doi_hopf_projection(w, a, phi, doi)
    e_a, e_m = e_a.dense(), e_m.dense()
    ok = mat_mul(e_a, e_a) == e_a
    carrier = a.carrier
    phis = mat_mul(phi, w.antipode)
    for i in range(4):
        for mi in range(4):
            lhs = apply_mat(e_m, _apply(doi.action, carrier.basis(i),
                                                  doi.coaction.basis(mi)))
            rhs = (Q.zero,) * 4
            ea_of_a = apply_mat(e_a, carrier.basis(i))
            for j in range(4):
                for k, d in enumerate(doi.coaction.co.dense()[mi][j]):
                    if d.is_zero:
                        continue
                    inner = carrier.mul(ea_of_a, tuple(row[k] for row in phis))
                    rhs = tuple(x + y for x, y in zip(rhs, vec_scale(
                        d, _apply(doi.action, inner, doi.coaction.basis(j)))))
            ok &= lhs == rhs
    ok &= check_rbp_module(inst).ok
    _verdict(12, "projection identity for comodule-algebra modules", ok)


def test_criterion_13_replay_all_deterministic():
    exe = shutil.which("hopfrb")
    base = [exe] if exe else [sys.executable, "-m", "hopfrb.cli"]
    outputs = []
    codes = []
    for _ in range(2):
        proc = subprocess.run(
            base + ["replay", "all", "--seed", "7", "--trials", "100"],
            capture_output=True,
        )
        codes.append(proc.returncode)
        outputs.append(proc.stdout)
    ok = outputs[0] == outputs[1]
    # exit 0 requires every suite green
    ok &= codes == [0, 0]
    _verdict(13, "full replay determinism and exit status", ok)
