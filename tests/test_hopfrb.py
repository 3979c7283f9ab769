"""Operators built from Hopf-algebraic data: integrals, duals, pairings,
projections onto coinvariants."""

import pytest

from hopfrb.exactlin import (
    RATIONAL, InternalError, RawTensor, column_space_basis, contract, first_outside, identity, mat,
    mat_mul, prime_field, raw_identity, vec,
)
from hopfrb.structures import (
    Bialgebra,
    FinAlgebra,
    FinCoalgebra,
    Functional,
    PreconditionError,
    as_weak,
    check_hopf,
    compute_antipode,
    convolution,
    dual_algebra,
    target_source,
)
from hopfrb.actions import (
    DoiHopfModule,
    WeakComoduleAlgebra,
    coaction_to_dual_action,
    regular_action,
    regular_coaction,
    trivial_action,
)
from hopfrb.rbcore import (
    _random_entries, check_a_linear, check_rb_operator, classify_generic,
)
from hopfrb.hopfrb import (
    PairingForm,
    RMatrix,
    adjoint_action,
    adjoint_rbp,
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
)
from hopfrb import hopfrb, structures
from hopfrb.report import _postcondition
from hopfrb.catalog import (
    cyclic_group_algebra,
    get,
    normalized_group_integral,
    pair_groupoid_weak_hopf,
    sweedler_h4,
    symmetric_group_algebra_s3,
    two_point_weak_hopf,
)

from test_structures import _counting_rref

Q = RATIONAL
MINUS_ONE = -Q.one


def _c2():
    return get("group-algebra-c2").payload


# -- integrals ----------------------------------------------------------------


def test_group_integrals_are_two_sided():
    for name in ("group-algebra-c2", "group-algebra-c3", "group-algebra-s3"):
        h = get(name).payload
        left = find_integrals(h, "left")
        right = find_integrals(h, "right")
        assert len(left.basis) == 1
        # the sum of group elements spans both sides
        assert left.basis[0] == right.basis[0]
        assert all(not c.is_zero for c in left.basis[0])


@pytest.mark.parametrize("n,p", [(5, 5), (6, 3), (6, 5), (5, 7)])
def test_cyclic_integral_is_normalizable_unless_p_divides_n(n, p):
    # Maschke via Larson-Sweedler: k[C_n] is semisimple iff eps(Lambda) != 0
    # iff p does not divide n; the integrals are the multiples of sum g^i
    h = cyclic_group_algebra(n, prime_field(p))
    space = find_integrals(h, "left")
    assert len(space.basis) == 1
    (lam,) = space.basis
    assert len(set(lam)) == 1 and not lam[0].is_zero
    assert h.coalgebra.counit_of(lam).is_zero == (n % p == 0)


def test_sweedler_integral_not_normalizable():
    h4 = get("sweedler-h4").payload
    space = find_integrals(h4, "left")
    assert len(space.basis) == 1
    assert h4.coalgebra.counit_of(space.basis[0]).is_zero
    module = regular_action(h4.algebra, "left")
    with pytest.raises(PreconditionError):
        integral_T(h4, module, space.basis[0])


_LARSON_RADFORD_HOSTS = {
    **{f"c{n}": (lambda n=n: cyclic_group_algebra(n), True) for n in range(2, 7)},
    "s3": (symmetric_group_algebra_s3, True),
    "h4": (sweedler_h4, False),
}


@pytest.mark.parametrize("name", list(_LARSON_RADFORD_HOSTS))
def test_larson_radford_involutive_antipode_iff_normalizable_integral(name):
    # Larson and Radford (J. Algebra 1988): over Q a finite-dimensional Hopf
    # algebra is semisimple iff S^2 = id; by Larson-Sweedler it is
    # semisimple iff eps(Lambda) != 0 for its (unique up to scale) left
    # integral.  The group algebras are semisimple, Sweedler's H4 is not.
    build, semisimple = _LARSON_RADFORD_HOSTS[name]
    h = build()
    assert check_hopf(h).ok  # so h.antipode is the antipode, which is unique
    s = h.antipode
    assert (mat_mul(s, s) == identity(Q, h.algebra.dim)) is semisimple
    space = find_integrals(h, "left")
    assert len(space.basis) == 1
    assert h.coalgebra.counit_of(space.basis[0]).is_zero is not semisimple


_INTEGER_TABLE_HOSTS = {
    **{f"c{n}": lambda f, n=n: cyclic_group_algebra(n, f) for n in range(2, 8)},
    "s3": symmetric_group_algebra_s3,
    "h4": sweedler_h4,
    "pair-groupoid": pair_groupoid_weak_hopf,
}


def _mod_101(t: RawTensor) -> dict:
    """The raw cells of a Q result reduced mod 101, zeros dropped; the
    hosts have integer tables and these answers are integral, so every raw
    value is an int."""
    assert all(type(v) is int for v in t.cells.values())
    return {idx: r for idx, v in t.cells.items() if (r := v % 101)}


@pytest.mark.parametrize("name", list(_INTEGER_TABLE_HOSTS))
def test_integer_table_hosts_reduce_mod_101_to_their_f101_answers(name):
    # a second field as oracle: on an integer table, every step of the
    # antipode, the integrals and a product contraction commutes with
    # reduction mod 101, so Q's raw answers reduced must equal F_101's
    build, f101 = _INTEGER_TABLE_HOSTS[name], prime_field(101)
    hq, hp = build(Q), build(f101)
    n = hq.dim

    def views(h):
        f = h.field
        out = [contract("ijx,xkl->ijkl", h.algebra, h.algebra),
               RawTensor.of(f, compute_antipode(h), (n, n))]
        for side in ("left", "right"):
            basis = find_integrals(h, side).basis
            out.append(RawTensor.of(f, basis, (len(basis), n)))
        return out

    q_views, p_views = views(hq), views(hp)
    assert [t.shape for t in q_views] == [t.shape for t in p_views]
    assert [_mod_101(t) for t in q_views] == [t.cells for t in p_views]


def test_integral_operator_oracle():
    c2 = _c2()
    module = get("c2-regular-module").payload
    t = integral_T(c2, module, normalized_group_integral(c2)).dense()
    half = Q.parse("1/2")
    assert t == ((half, half), (half, half))
    assert mat_mul(t, t) == t
    assert classify_generic(module, t, MINUS_ONE, trials=20).generic is True


@pytest.mark.parametrize("host, module, invariant", [
    # g acts on k[x]/(x^2) by x |-> -x: a module dimension equal to the host's
    ("group-algebra-c2", lambda h: get("kx-mod-x2-with-c2-action").payload, [[1, 0]]),
    # the module dimension differs from the host's
    ("group-algebra-c3", lambda h: trivial_action(h, 2), [[1, 0], [0, 1]]),
    # a noncommutative host acting on itself
    ("group-algebra-s3", lambda h: regular_action(h.algebra, "left"), [[1] * 6]),
], ids=["c2-sign", "c3-trivial", "s3-regular"])
def test_integral_operator_projects_onto_the_invariants(host, module, invariant):
    h = get(host).payload
    t = integral_T(h, module(h), normalized_group_integral(h)).dense()
    assert mat_mul(t, t) == t
    image, invariant = column_space_basis(t, Q), tuple(vec(Q, v) for v in invariant)
    assert first_outside(image, invariant, Q) is None
    assert first_outside(invariant, image, Q) is None


def test_integral_T_rejects_non_integral():
    c2 = _c2()
    module = get("c2-regular-module").payload
    with pytest.raises(PreconditionError):
        integral_T(c2, module, vec(Q, [1, 0]))


def _upper_triangular_host():
    """The upper triangular 2 x 2 matrices (basis e11, e12, e22) with the
    counit e11^ and a zero comultiplication: e11 is a normalized left
    integral for that counit but not a right one.  No Hopf algebra has
    such an integral (a normalized left integral is two-sided), so the
    host is hand-built and its axioms are never checked."""
    mult = RawTensor(Q, (3, 3, 3), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 2, 1): 1, (2, 2, 2): 1})
    labels = ("e11", "e12", "e22")
    alg = FinAlgebra(Q, 3, labels, mult, vec(Q, [1, 0, 1]), name="upper")
    co = FinCoalgebra(Q, 3, labels, RawTensor(Q, (3, 3, 3), {}), vec(Q, [1, 0, 0]))
    return Bialgebra("upper", alg, co)


def test_normalization_refusals_name_their_text_and_basis():
    h4 = get("sweedler-h4").payload
    module = regular_action(h4.algebra, "left")
    left, right = (find_integrals(h4, side).basis[0] for side in ("left", "right"))
    assert left == vec(Q, [0, 0, 1, 1]) and right == vec(Q, [0, 0, -1, 1])
    # a right integral that is not a left one: g (gx - x) = x - gx != eps(g) (gx - x)
    with pytest.raises(PreconditionError, match=r"^not a left integral: fails at basis 1$"):
        integral_T(h4, module, right)
    with pytest.raises(PreconditionError,
                       match=r"^integral is not normalized: eps\(e\) = 0$"):
        integral_T(h4, module, left)
    upper = _upper_triangular_host()
    # e11 e12 = e12, but eps(e12) e11 = 0
    with pytest.raises(PreconditionError,
                       match=r"^integral is not two-sided: fails at basis 1$"):
        integral_T(upper, regular_action(upper.algebra, "left"), vec(Q, [1, 0, 0]))


def test_counit_recovers_the_functional_on_a_noncocommutative_host():
    h4 = get("sweedler-h4").payload
    co, n = h4.coalgebra, h4.dim
    asymmetric = 0
    for trial in range(20):
        chi = Functional(h4, vec(Q, _random_entries(n, "h4-functional", trial)[:n]))
        t = functional_operator(h4, chi)
        assert isinstance(t, RawTensor)
        # column i of T is chi(e_i(1)) e_i(2), read off Delta(e_i)
        coords = chi.coords.dense()
        for i in range(n):
            delta = co.comult_vec(h4.algebra.basis(i))
            column = tuple(sum((coords[a] * delta[a * n + k] for a in range(n)), Q.zero)
                           for k in range(n))
            assert tuple(row[i] for row in t.dense()) == column
        assert contract("ki,k->i", t, co.counit) == chi.coords
        asymmetric += t != t.permuted(1, 0)
    assert asymmetric  # the counit reads T's orientation here, unlike on C_2


def test_adjoint_action_of_commutative_host_is_trivial_on_itself():
    c2 = _c2()
    act = adjoint_action(c2)
    for i in range(2):
        assert act.matrix(c2.algebra.basis(i)).dense() == identity(Q, 2)


def test_smash_integral_operator():
    c2 = _c2()
    kx = get("kx-mod-x2").payload
    act = get("kx-mod-x2-with-c2-action").payload
    smash, module, t = smash_integral_T(kx, c2, act, normalized_group_integral(c2))
    t = t.dense()
    assert smash.dim == 4
    assert mat_mul(t, t) == t
    assert classify_generic(module, t, MINUS_ONE, trials=20).generic is True


# -- dual-side operators ------------------------------------------------------


def test_dual_action_operator_oracle():
    c2 = _c2()
    chi = get("c2-delta-e").payload
    t, module = dual_action_T(c2, chi)
    t = t.dense()
    assert t == mat(Q, [[1, 0], [0, 0]])
    verdict = classify_generic(module, t, MINUS_ONE, trials=10)
    assert verdict.a_linear and mat_mul(t, t) == t
    assert convolution(chi, chi).coords == chi.coords
    assert verdict.generic is True


def test_dual_action_non_idempotent_functional():
    c2 = _c2()
    chi = get("c2-two-delta-e").payload
    t, module = dual_action_T(c2, chi)
    assert convolution(chi, chi).coords != chi.coords
    assert classify_generic(module, t, MINUS_ONE, trials=10).generic is False


def test_dual_action_composition_is_reversed_convolution():
    c2 = _c2()
    for trial in range(30):
        f = Functional(c2, vec(Q, _random_entries(2, "conv-f", trial)[:2]))
        g = Functional(c2, vec(Q, _random_entries(2, "conv-g", trial)[:2]))
        tf, _ = dual_action_T(c2, f)
        tg, _ = dual_action_T(c2, g)
        tfg, _ = dual_action_T(c2, convolution(g, f))
        assert mat_mul(tf, tg) == tfg.dense()


def test_dimodule_operator_records():
    c2 = _c2()
    for name in ("c2-trivial-dimodule", "c2-long-dimodule"):
        d = get(name).payload
        t = dimodule_T(c2, d, get("c2-delta-e").payload).dense()
        verdict = classify_generic(d.action, t, MINUS_ONE, trials=10)
        assert verdict.a_linear
        assert mat_mul(t, t) == t
        assert verdict.generic is True
        f2 = get("c2-two-delta-e").payload
        t2 = dimodule_T(c2, d, f2).dense()
        assert convolution(f2, f2).coords != f2.coords
        verdict2 = classify_generic(d.action, t2, MINUS_ONE, trials=10)
        assert verdict2.generic == (mat_mul(t2, t2) == t2)


# -- weak-host operators ------------------------------------------------------


def test_target_map_rbp_for_both_weak_hosts():
    for name in ("weak-two-point", "weak-pair-groupoid"):
        w = get(name).payload
        inst, rb_report = weak_target_rbp(w)
        assert rb_report.ok
        assert inst.verified == "pass"


def test_weak_axiom_report_is_kept_on_the_host(monkeypatch):
    walks = []

    class Counting(structures.Checker):
        def __init__(self, check, instance=""):
            if check == "weak-bialgebra":
                walks.append(instance)
            super().__init__(check, instance)

    monkeypatch.setattr(structures, "Checker", Counting)
    w = two_point_weak_hopf()
    weak_target_rbp(w)
    weak_target_rbp(w)
    assert walks == ["two-point"]
    # equal but not the same object: walked again, never looked up by value
    twin = two_point_weak_hopf()
    assert twin == w and twin is not w
    weak_target_rbp(twin)
    assert walks == ["two-point", "two-point"]


def test_adjoint_rbp_needs_quantum_commutativity():
    assert adjoint_rbp(get("weak-two-point").payload).verified == "pass"
    assert adjoint_rbp(as_weak(_c2())).verified == "pass"
    with pytest.raises(PreconditionError) as exc:
        adjoint_rbp(get("weak-pair-groupoid").payload)
    assert "quantum" in str(exc.value)


# -- Hopf-module projection ---------------------------------------------------


def test_hopf_module_projection_oracle():
    c2 = _c2()
    m = get("c2-regular-hopf-module").payload
    e_m, inst = hopf_module_projection(c2, m)
    assert e_m.dense() == mat(Q, [[1, 1], [0, 0]])
    assert inst.verified == "pass"


def test_hopf_module_dual_classification_is_returned_raw():
    # the dual-side operator is not H*-linear for the regular Hopf module,
    # so the projection claims nothing over the dual; classified here
    c2 = _c2()
    m = get("c2-regular-hopf-module").payload
    e_m, _ = hopf_module_projection(c2, m)
    dual_module = coaction_to_dual_action(m.coaction, dual_algebra(c2))
    verdict = classify_generic(dual_module, e_m, MINUS_ONE, trials=10)
    assert verdict.a_linear is False
    assert verdict.generic is None
    assert verdict.failures > 0


def test_failed_report_postcondition_names_clause_structure_and_violation(monkeypatch):
    module = get("c2-regular-module").payload
    not_linear = mat(Q, [[1, 0], [0, 0]])
    # integral_T's T is linear; report the A-linearity of a T that is not
    monkeypatch.setattr(hopfrb, "check_a_linear", lambda m, t: check_a_linear(m, not_linear))
    with pytest.raises(InternalError) as err:
        integral_T(_c2(), module, normalized_group_integral(_c2()))
    assert str(err.value) == (
        "c2-regular-left: integral operator is linear over the host fails; first witness "
        "{'axiom': 'commutes-with-action', 'b': 1, 'm': 0, 'delta': ['0', '1']}")


def test_failed_equality_postcondition_names_clause_structure_and_cell(monkeypatch):
    m = get("c2-regular-hopf-module").payload
    real = hopfrb._coaction_projection
    # twice the projection E = [[1, 1], [0, 0]] squares to 4 E, not 2 E
    monkeypatch.setattr(hopfrb, "_coaction_projection",
                        lambda *args: real(*args).scaled(Q.of(2)))
    with pytest.raises(InternalError) as err:
        hopf_module_projection(_c2(), m)
    assert str(err.value) == (
        f"{m.name}: hopf-module projection is idempotent fails; "
        "first witness cell (0, 0): got 4, want 2")


def test_failed_equality_postcondition_on_equal_cells_of_two_shapes_names_both_tensors():
    got, want = RawTensor(Q, (1, 1), {(0, 0): 1}), RawTensor(Q, (1, 2), {(0, 0): 1})
    with pytest.raises(InternalError) as err:
        _postcondition("the shapes agree", "x", got, want)
    assert str(err.value) == f"x: the shapes agree fails; first witness cell (): got {got}, want {want}"


def test_failed_image_postcondition_names_a_column_outside_the_fixed_subspace(monkeypatch):
    # an empty fixed subspace: the first column of T lies outside it
    monkeypatch.setattr(hopfrb, "kernel_basis", lambda *args, **kwargs: RawTensor(Q, (0, 2), {}))
    with pytest.raises(InternalError) as err:
        integral_T(_c2(), get("c2-regular-module").payload, normalized_group_integral(_c2()))
    assert str(err.value) == (
        "c2-regular-left: image of the integral operator is the fixed subspace fails; "
        "first witness column 0 ['1/2', '1/2'] lies outside the fixed subspace")


def test_failed_image_postcondition_names_a_fixed_vector_outside_the_image(monkeypatch):
    # the whole space as the fixed subspace: e_0 lies outside the image of T
    monkeypatch.setattr(hopfrb, "kernel_basis", lambda *args, **kwargs: raw_identity(Q, 2))
    with pytest.raises(InternalError) as err:
        integral_T(_c2(), get("c2-regular-module").payload, normalized_group_integral(_c2()))
    assert str(err.value) == (
        "c2-regular-left: image of the integral operator is the fixed subspace fails; "
        "first witness fixed vector 0 ['1', '0'] lies outside the image")


def test_failed_coinvariant_postcondition_names_a_column_of_the_projection(monkeypatch):
    monkeypatch.setattr(hopfrb, "coinvariants", lambda *args: RawTensor(Q, (0, 2), {}))
    m = get("c2-regular-hopf-module").payload
    with pytest.raises(InternalError) as err:
        hopf_module_projection(_c2(), m)
    assert str(err.value) == (
        f"{m.name}: projection image lies in the coinvariants fails; "
        "first witness column 0 ['1', '0'] lies outside the coinvariants")


def test_failed_weak_coinvariant_postcondition_names_a_column_of_the_projection(monkeypatch):
    monkeypatch.setattr(hopfrb, "coinvariants", lambda *args: RawTensor(Q, (0, 4), {}))
    doi = get("pair-groupoid-doi-hopf").payload
    with pytest.raises(InternalError) as err:
        doi_hopf_projection(get("weak-pair-groupoid").payload, doi.comodule_algebra,
                            identity(Q, 4), doi)
    assert str(err.value) == (
        f"{doi.name}: projection image lies in the weak coinvariants fails; "
        "first witness column 0 ['1', '0', '0', '0'] lies outside the weak coinvariants")


@pytest.mark.parametrize("construct, eliminations", [
    # the fixed space's kernel, then one reduction of each side of the image equality
    (lambda: integral_T(_c2(), get("c2-regular-module").payload,
                        normalized_group_integral(_c2())), 3),
    # the coinvariants' kernel, then one reduction of the coinvariants
    (lambda: hopf_module_projection(_c2(), get("c2-regular-hopf-module").payload), 2),
    (lambda: doi_hopf_projection(get("weak-pair-groupoid").payload,
                                 get("pair-groupoid-doi-hopf").payload.comodule_algebra,
                                 identity(Q, 4), get("pair-groupoid-doi-hopf").payload), 2),
], ids=["integral-T-c2", "hopf-module-projection-c2", "doi-hopf-projection-pair-groupoid"])
def test_span_clauses_decide_and_name_witnesses_in_one_elimination(construct, eliminations,
                                                                    monkeypatch):
    construct()  # a cold call fills what the carriers keep
    calls = _counting_rref(monkeypatch)
    construct()
    assert len(calls) == eliminations


# -- pairings and R-matrices --------------------------------------------------


def test_bicharacter_pairing_passes_both_flavors():
    c2 = _c2()
    form = get("c2-bicharacter-sigma").payload
    rep, dim_long = check_long_pairing(c2, form)
    assert rep.ok and dim_long is not None
    rep_b, dim_braided = check_braided(c2, form)
    assert rep_b.ok and dim_braided is not None


def test_corrupted_pairing_fails_multiplicativity():
    c2 = _c2()
    form = PairingForm(c2, mat(Q, [[1, 1], [1, 2]]))  # sigma(g, g) = 2
    rep, dim = check_long_pairing(c2, form)
    assert not rep.ok and dim is None
    bad = {v.axiom for v in rep.violations}
    assert "pair-mult-right" in bad or "pair-mult-left" in bad


def test_triangular_rmatrix_passes():
    rm = get("c2-triangular-R").payload
    rep, induced = check_quasitriangular(rm.host, rm)
    assert rep.ok and induced is not None


def test_grouplike_tensor_is_not_quasitriangular():
    c2 = _c2()
    # R = 1 (x) g is invertible but fails the comultiplication legs
    r = vec(Q, [0, 1, 0, 0])
    rm = RMatrix(c2, r, r)
    rep, induced = check_quasitriangular(c2, rm)
    assert not rep.ok and induced is None
    assert any(v.axiom.startswith("comult-") for v in rep.violations)


def test_rmatrix_requires_invertibility():
    c2 = _c2()
    # 1 (x) (1 + g) is a zero divisor, so no claimed inverse can work
    r = vec(Q, [1, 1, 0, 0])
    with pytest.raises(Exception):
        RMatrix(c2, r, r)


# -- Doi-Hopf projection ------------------------------------------------------


def test_doi_projection_recovers_target_map():
    w = get("weak-pair-groupoid").payload
    doi = get("pair-groupoid-doi-hopf").payload
    phi = identity(Q, 4)
    e_a, e_m, inst = doi_hopf_projection(w, doi.comodule_algebra, phi, doi)
    pil, _ = target_source(w)
    assert e_a == pil
    assert e_m == e_a
    assert check_rb_operator(w.algebra, e_a, -Q.one).ok
    assert inst.verified == "pass"


def test_doi_projection_on_ordinary_host():
    w = as_weak(_c2())
    com = regular_coaction(w)
    wca = WeakComoduleAlgebra(w, w.algebra, com)
    doi = DoiHopfModule(wca, regular_action(w.algebra, "right"), com)
    e_a, e_m, inst = doi_hopf_projection(w, wca, identity(Q, 2), doi)
    # for an ordinary Hopf algebra the projection is eps(.) 1
    assert e_a.dense() == mat(Q, [[1, 1], [0, 0]])
    assert inst.verified == "pass"


def test_doi_projection_rejects_noncolinear_phi():
    w = get("weak-pair-groupoid").payload
    doi = get("pair-groupoid-doi-hopf").payload
    swap = mat(Q, [[0, 0, 0, 1], [0, 1, 0, 0], [0, 0, 1, 0], [1, 0, 0, 0]])
    with pytest.raises(PreconditionError):
        doi_hopf_projection(w, doi.comodule_algebra, swap, doi)
