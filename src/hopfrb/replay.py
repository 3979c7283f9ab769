"""Seeded re-verification suites, one per statement the library implements.

Each suite re-runs a statement's claims over the applicable catalog entries
plus seeded random trials and returns a JSON-ready report.  Suites never
stop at the first failure; every claim lands in the report so a red run
shows exactly which clause broke.  Reports are deterministic for a fixed
(seed, trials) pair, down to the byte once serialized with sorted keys.
"""

from __future__ import annotations

from . import __version__
from .exactlin import (
    RawTensor,
    contract,
    differing,
    raw_identity,
    vec,
)
from .structures import (
    Functional,
    PreconditionError,
    as_weak,
    check_counital_maps,
    convolution,
    counit_functional,
    dual_algebra,
    target_source,
)
from .actions import coaction_to_dual_action, regular_action, regular_coaction
from .rbcore import (
    GenericVerdict,
    RbpInstance,
    atkinson_witness,
    check_a_linear,
    check_rb_operator,
    check_rbp_module,
    classify_generic,
    double_construction,
    fuzz_seed,
    is_quasi_idempotent,
    tilde_pair,
)
from .hopfrb import (
    check_braided,
    check_long_pairing,
    check_quasitriangular,
    dimodule_T,
    doi_hopf_projection,
    dual_action_T,
    find_integrals,
    functional_operator,
    hopf_module_projection,
    integral_T,
    smash_integral_T,
    weak_target_rbp,
    adjoint_rbp,
)
from .report import DEFAULT_TRIALS
from . import catalog
from .catalog import get, get_instance, normalized_group_integral


class ReplayError(Exception):
    """Unknown suite id."""


def _check(checks: list, name: str, ok: bool, **detail) -> bool:
    rec = {"name": name, "result": "pass" if ok else "fail"}
    rec.update(detail)
    checks.append(rec)
    return ok


def _classify(module, t, seed: str, trials: int) -> GenericVerdict:
    """The weight -1 verdict that every suite records or reads."""
    return classify_generic(module, t, -module.algebra.field.one, trials=trials, seed=seed)


def _replay_thm_3_2(seed: str, trials: int) -> list:
    checks: list = []
    h = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    f = h.field
    t = module.matrix(normalized_group_integral(h))
    lam = -f.one
    verdict = _classify(module, t, seed, trials)
    _check(checks, "integral-operator-generic", verdict.generic is True,
           verdict=verdict.to_json())
    _check(checks, "random-p-all-pass", verdict.failures == 0, trials=trials,
           failures=verdict.failures)

    t2 = raw_identity(f, h.dim).scaled(f.of(2))
    _check(checks, "doubled-identity-not-quasi-idempotent",
           not is_quasi_idempotent(t2, lam))
    # an A-linear T2 fails at every trial or at none, so trial 0 is the first
    verdict2 = _classify(module, t2, seed, trials)
    found = 0 if verdict2.a_linear and verdict2.failures else None
    _check(checks, "doubled-identity-falsified", found is not None,
           falsifying_trial=found)
    _check(checks, "doubled-identity-not-generic", verdict2.generic is False,
           verdict=verdict2.to_json())
    return checks


def _replay_prop_3_1(seed: str, trials: int) -> list:
    checks: list = []
    for name in catalog.list_instances():
        inst = get_instance(name)
        pt, tt = tilde_pair(inst.p, inst.t, inst.weight)
        mirrored = RbpInstance(inst.algebra, inst.module, pt, tt, inst.weight,
                               name=f"{name}-tilde")
        _check(checks, f"tilde-verifies:{name}", check_rbp_module(mirrored).ok)
        back = tilde_pair(pt, tt, inst.weight)
        _check(checks, f"tilde-involution:{name}", back == (inst.p, inst.t))
    # T and its tilde T~ pair with every P exactly when both are generic, so
    # every fuzzed P gives a verified instance and its tilde, or none does
    h = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(h))
    lam = -h.field.one
    _, tt = tilde_pair((), t, lam)
    ok = tilde_pair((), tt, lam)[1] == t and all(
        _classify(module, x, seed, trials).generic is True for x in (t, tt))
    bad = 0 if ok else trials
    _check(checks, "tilde-on-fuzzed-instances", bad == 0, trials=trials, failures=bad)
    return checks


def _replay_thm_3_5(seed: str, trials: int) -> list:
    checks: list = []
    inst = get_instance("mat2-proj")
    alg, module = inst.algebra, inst.module
    f, bad = alg.field, 0
    for i in range(alg.dim):
        a_vec = RawTensor(f, (alg.dim,), {(i,): 1})
        for j in range(module.dim):
            try:
                atkinson_witness(inst, a_vec, RawTensor(f, (module.dim,), {(j,): 1}))
            except Exception:
                bad += 1
    _check(checks, "witness-on-all-basis-pairs", bad == 0,
           pairs=alg.dim * module.dim, failures=bad)

    corrupted = RbpInstance(alg, module, inst.p,
                            alg.left_mult(alg.basis(1)), inst.weight)
    _check(checks, "corrupted-instance-fails", not check_rbp_module(corrupted).ok)
    return checks


def _replay_prop_3_6(seed: str, trials: int) -> list:
    checks: list = []
    mat2 = get("mat2-rational").payload
    module = get("mat2-regular-module").payload
    f = mat2.field
    p = mat2.left_mult(mat2.basis(0))
    lam = -f.one
    star, tri, doubled = double_construction(mat2, p, module, p, lam)
    # (e_i e_j) e_k against e_i (e_j e_k), one count per basis triple
    bad = len(differing(contract("ijm,mkx->ijkx", star, star),
                        contract("jkm,imx->ijkx", star, star), 3))
    _check(checks, "star-associative", bad == 0, triples=star.dim ** 3, failures=bad)

    from .actions import check_action

    _check(checks, "induced-action-module-law", check_action(tri).ok)
    # T intertwines the induced action: T(e_i |> m_j) = P(e_i) |> T(m_j),
    # one count per basis pair
    bad = len(differing(contract("ijk,xk->ijx", tri, doubled.t),
                        contract("ai,bj,abx->ijx", doubled.p, doubled.t, tri), 2))
    _check(checks, "projection-intertwines", bad == 0,
           pairs=mat2.dim * module.dim, failures=bad)
    _check(checks, "doubled-instance-verifies", doubled.verified == "pass")
    return checks


def _replay_cor_int(seed: str, trials: int) -> list:
    checks: list = []
    for hname, mname in (("group-algebra-c2", "c2-regular-module"),
                         ("group-algebra-c3", "c3-regular-module")):
        h = get(hname).payload
        module = get(mname).payload
        space = find_integrals(h, "left")
        _check(checks, f"integral-space-1dim:{hname}", len(space.basis) == 1)
        e = normalized_group_integral(h)
        t = integral_T(h, module, e)
        verdict = _classify(module, t, seed, trials)
        _check(checks, f"integral-operator-generic:{hname}", verdict.generic is True,
               verdict=verdict.to_json())
        _check(checks, f"integral-operator-idempotent:{hname}", t @ t == t)
    h4 = get("sweedler-h4").payload
    space = find_integrals(h4, "left")
    _check(checks, "h4-integral-space-1dim", len(space.basis) == 1)
    eps_vanishes = all(h4.coalgebra.counit_of(v).is_zero for v in space.basis)
    _check(checks, "h4-counit-vanishes-on-integrals", eps_vanishes)
    try:
        integral_T(h4, regular_action(h4.algebra, "left"), space.basis[0])
        rejected = False
    except PreconditionError:
        rejected = True
    _check(checks, "h4-normalization-rejected", rejected)

    c2 = get("group-algebra-c2").payload
    kx = get("kx-mod-x2").payload
    act = get("kx-mod-x2-with-c2-action").payload
    smash, module, t = smash_integral_T(kx, c2, act, normalized_group_integral(c2))
    verdict = _classify(module, t, seed, trials)
    _check(checks, "smash-operator-generic", verdict.generic is True,
           smash_dim=smash.dim, verdict=verdict.to_json())
    return checks


def _replay_prop_4_1(seed: str, trials: int) -> list:
    checks: list = []
    h = get("group-algebra-c2").payload
    f = h.field
    for fname in ("c2-delta-e", "c2-delta-g", "c2-epsilon", "c2-two-delta-e"):
        chi = get(fname).payload
        t, module = dual_action_T(h, chi)
        idem = convolution(chi, chi).coords == chi.coords
        verdict = _classify(module, t, seed, trials)
        record = {"h_star_linear": verdict.a_linear, "t_idempotent": t @ t == t,
                  "chi_idempotent": idem, "verdict": verdict.to_json()}
        _check(checks, f"verdict-matches-idempotency:{fname}",
               verdict.generic == idem, record=record)
    # the counit recovers the functional, so chi -> T is injective.  Both
    # sides are linear in chi, so the n basis functionals decide it exactly
    eps, n = counit_functional(h).coords, h.dim

    def recovers(i: int) -> bool:
        chi = Functional(h, RawTensor.read(f, (n,), {(i,): 1}))
        return contract("ki,k->i", functional_operator(h, chi), eps) == chi.coords

    bad = sum(not recovers(i) for i in range(n))
    _check(checks, "counit-recovers-functional", bad == 0, trials=trials, failures=bad)
    return checks


def _replay_prop_4_3(seed: str, trials: int) -> list:
    checks: list = []
    for name in ("weak-two-point", "weak-pair-groupoid"):
        w = get(name).payload
        _check(checks, f"counital-maps:{name}", check_counital_maps(w).ok)
        inst, rb_report = weak_target_rbp(w)
        _check(checks, f"target-instance:{name}", inst.verified == "pass")
        _check(checks, f"target-rb-operator:{name}", rb_report.ok,
               report=rb_report.to_json())
    return checks


def _replay_prop_4_4(seed: str, trials: int) -> list:
    checks: list = []
    for name, host in (("weak-two-point", get("weak-two-point").payload),
                       ("c2-as-weak", as_weak(get("group-algebra-c2").payload))):
        inst = adjoint_rbp(host)
        _check(checks, f"adjoint-instance:{name}", inst.verified == "pass")
    try:
        adjoint_rbp(get("weak-pair-groupoid").payload)
        rejected, message = False, ""
    except PreconditionError as ex:
        rejected, message = True, str(ex)
    _check(checks, "pair-groupoid-rejected", rejected and "witness" in message,
           message=message[:200])
    return checks


def _replay_prop_4_5(seed: str, trials: int) -> list:
    checks: list = []
    for hname, mname in (("group-algebra-c2", "c2-regular-hopf-module"),
                         ("group-algebra-c3", "c3-regular-hopf-module")):
        h = get(hname).payload
        m = get(mname).payload
        e_m, inst = hopf_module_projection(h, m)
        alg, co = h.algebra, h.coalgebra
        counit_times_unit = contract("r,c->rc", alg.unit, co.counit)
        _check(checks, f"projection-is-counit-times-unit:{hname}",
               e_m == counit_times_unit)
        _check(checks, f"projection-idempotent:{hname}", e_m @ e_m == e_m)
        _check(checks, f"instance-verifies:{hname}", inst.verified == "pass")
        # E does not pair with every P over the dual: it fails to commute
        # with the dual action (so the verdict is documented inconclusive),
        # and P = 0 already breaks the paired identity at weight -1
        dual_module = coaction_to_dual_action(m.coaction, dual_algebra(h))
        verdict = _classify(dual_module, e_m, seed, trials)
        linear = check_a_linear(dual_module, e_m)
        zero_p = RawTensor(alg.field, (alg.dim,) * 2, {})
        paired = check_rbp_module(RbpInstance(dual_module.algebra, dual_module, zero_p,
                                              e_m, -alg.field.one))
        _check(checks, f"dual-side-refuted:{hname}",
               not verdict.a_linear and verdict.generic is None
               and not linear.ok and not paired.ok,
               verdict=verdict.to_json(),
               commutator=linear.violations[0].to_json() if linear.violations else None,
               witness=paired.violations[0].to_json() if paired.violations else None)
    return checks


def _dimodule_record(t, f_idempotent: bool, verdict: GenericVerdict) -> dict:
    """Linearity and idempotency bits recorded with a dimodule operator's
    verdict; `f_idempotent` says whether the functional is a convolution
    idempotent."""
    return {"h_linear": verdict.a_linear, "t_idempotent": t @ t == t,
            "f_idempotent": f_idempotent, "verdict": verdict.to_json()}


def _replay_prop_4_6(seed: str, trials: int) -> list:
    checks: list = []
    h = get("group-algebra-c2").payload
    f = h.field
    trivial = get("c2-trivial-dimodule").payload
    long_dim = get("c2-long-dimodule").payload
    grid = [vec(f, [a, b]) for a in (0, 1) for b in (0, 1)]
    idem_count = 0
    for coords in grid:
        chi = Functional(h, coords)
        idem = convolution(chi, chi).coords == chi.coords
        idem_count += idem
        scaled = Functional(h, chi.coords.scaled(f.of(2)))
        scaled_idem = convolution(scaled, scaled).coords == scaled.coords
        for dname, d in (("trivial", trivial), ("long", long_dim)):
            t = dimodule_T(h, d, chi)
            verdict = _classify(d.action, t, seed, trials)
            _check(checks,
                   f"verdict-matches-idempotency:{dname}:{''.join(str(c) for c in coords)}",
                   verdict.generic == idem, record=_dimodule_record(t, idem, verdict))
            verdict2 = _classify(d.action, dimodule_T(h, d, scaled), seed, trials)
            _check(checks,
                   f"scaled-verdict-matches:{dname}:{''.join(str(c) for c in coords)}",
                   verdict2.generic == scaled_idem)
    _check(checks, "exactly-four-idempotents", idem_count == 4, count=idem_count)
    return checks


def _replay_ex_4_7(seed: str, trials: int) -> list:
    checks: list = []
    h = get("group-algebra-c2").payload
    sigma = get("c2-bicharacter-sigma").payload
    rep, long_dim = check_long_pairing(h, sigma)
    _check(checks, "long-pairing-axioms", rep.ok and long_dim is not None)
    rep_b, braided_dim = check_braided(h, sigma)
    _check(checks, "braided-axioms", rep_b.ok and braided_dim is not None)
    rm = get("c2-triangular-R").payload
    rep_q, rmatrix_dim = check_quasitriangular(h, rm)
    _check(checks, "rmatrix-axioms", rep_q.ok and rmatrix_dim is not None,
           report=rep_q.to_json())
    chi = get("c2-delta-e").payload
    t = dimodule_T(h, rmatrix_dim, chi)
    verdict = _classify(rmatrix_dim.action, t, seed, trials)
    _check(checks, "induced-operator-generic", verdict.generic is True,
           record=_dimodule_record(t, convolution(chi, chi).coords == chi.coords, verdict))
    # the operator is right multiplication by R_i chi(R_j)
    elt = contract("pq,q->p", rm.r, chi.coords)
    direct = h.algebra.right_mult(elt)
    _check(checks, "operator-matches-direct-formula", t == direct)
    return checks


def _replay_thm_4_8(seed: str, trials: int) -> list:
    checks: list = []
    w = get("weak-pair-groupoid").payload
    doi = get("pair-groupoid-doi-hopf").payload
    a = doi.comodule_algebra
    phi = raw_identity(w.field, w.dim)
    e_a, e_m, inst = doi_hopf_projection(w, a, phi, doi)
    _check(checks, "algebra-projection-idempotent", e_a @ e_a == e_a)
    _check(checks, "instance-verifies", inst.verified == "pass")
    carrier = a.carrier
    phis = phi @ w.antipode
    # E(m . a) = m_(0) . E_A(a) phi(S(m_(1))) on every basis pair (a, m)
    lhs = contract("imp,qp->imq", doi.action, e_m)
    rhs = contract("mjk,si,tk,stu,ujq->imq", doi.coaction, e_a, phis, carrier, doi.action)
    bad = len(differing(lhs, rhs, 2))
    _check(checks, "projection-respects-action", bad == 0,
           pairs=carrier.dim * doi.dim, failures=bad)
    return checks


def _replay_rmk_4_10(seed: str, trials: int) -> list:
    checks: list = []
    from .actions import DoiHopfModule, WeakComoduleAlgebra

    for name in ("weak-two-point", "weak-pair-groupoid"):
        w = get(name).payload
        com = regular_coaction(w)
        wca = WeakComoduleAlgebra(w, w.algebra, com, name=f"{name}-self")
        doi = DoiHopfModule(wca, regular_action(w.algebra, "right"), com,
                            name=f"{name}-self-module")
        phi = raw_identity(w.field, w.dim)
        e_a, e_m, inst = doi_hopf_projection(w, wca, phi, doi)
        pil, _ = target_source(w)
        _check(checks, f"projection-equals-target-map:{name}", e_a == pil)
        _check(checks, f"carrier-rb-operator:{name}",
               check_rb_operator(w.algebra, e_a, -w.field.one).ok)
        _check(checks, f"carrier-slice-instance:{name}", inst.verified == "pass")
    return checks


REPLAYS = {
    "cor-int": _replay_cor_int,
    "ex-4.7": _replay_ex_4_7,
    "prop-3.1": _replay_prop_3_1,
    "prop-3.6": _replay_prop_3_6,
    "prop-4.1": _replay_prop_4_1,
    "prop-4.3": _replay_prop_4_3,
    "prop-4.4": _replay_prop_4_4,
    "prop-4.5": _replay_prop_4_5,
    "prop-4.6": _replay_prop_4_6,
    "rmk-4.10": _replay_rmk_4_10,
    "thm-3.2": _replay_thm_3_2,
    "thm-3.5": _replay_thm_3_5,
    "thm-4.8": _replay_thm_4_8,
}


def replay_ids() -> tuple[str, ...]:
    return tuple(sorted(REPLAYS))


def run_replay(rid: str, seed=None, trials: int = DEFAULT_TRIALS) -> dict:
    if rid not in REPLAYS:
        raise ReplayError(f"unknown replay id {rid!r}")
    if trials < 0:
        raise ReplayError("trials must be nonnegative")
    seed_str = fuzz_seed(seed)
    checks = REPLAYS[rid](seed_str, trials)
    failed = sum(1 for c in checks if c["result"] != "pass")
    return {
        "replay": rid,
        "version": __version__,
        "seed": seed_str,
        "trials": trials,
        "result": "pass" if failed == 0 else "fail",
        "checks": checks,
        "failed": failed,
    }


def run_all(seed=None, trials: int = DEFAULT_TRIALS) -> dict:
    reports = [run_replay(rid, seed=seed, trials=trials) for rid in replay_ids()]
    failed = sum(1 for r in reports if r["result"] != "pass")
    return {
        "version": __version__,
        "seed": fuzz_seed(seed),
        "trials": trials,
        "result": "pass" if failed == 0 else "fail",
        "replays": reports,
        "failed": failed,
    }
