"""Structure-constant carriers and their axiom checkers."""

import pytest

from hopfrb import exactlin, structures
from hopfrb.exactlin import (
    RATIONAL,
    DimensionError,
    FieldError,
    InternalError,
    column_space_basis,
    contract,
    identity,
    mat,
    mat_mul,
    prime_field,
    solve_linear,
    vec,
)
from hopfrb.structures import (
    Bialgebra,
    FinAlgebra,
    FinCoalgebra,
    Functional,
    HopfAlgebra,
    StructureError,
    WeakHopfAlgebra,
    as_weak,
    check_algebra,
    check_algebra_morphism,
    check_bialgebra,
    check_coalgebra,
    check_counital_maps,
    check_hopf,
    check_quantum_commutative,
    check_weak_hopf,
    compute_antipode,
    convolution,
    counit_functional,
    dual_algebra,
    quantum_commutative_witness,
    subalgebra_image,
    target_source,
)
from hopfrb.catalog import cyclic_group_algebra, get, list_entries, sweedler_h4
from hopfrb.hopfrb import find_integrals
from hopfrb.report import Violation

Q = RATIONAL


def apply_mat(a, x):
    """The Scalar vector a x, for a raw or Scalar matrix a."""
    return contract("rc,c->r", a, x).dense()


def mat_from_cols(cols):
    """The Scalar matrix with the given Scalar columns."""
    return tuple(zip(*cols))


def _sparse3(field, dim, triples):
    cells = [[[field.zero] * dim for _ in range(dim)] for _ in range(dim)]
    for i, j, k, c in triples:
        cells[i][j][k] = field.of(c)
    return tuple(tuple(tuple(r) for r in p) for p in cells)


# -- algebras -----------------------------------------------------------------


def test_nonassociative_rejected():
    # x*x = y, x*y = x: (xx)x = yx = 0 but x(xx) = xy = x
    mult = _sparse3(Q, 2, [(0, 0, 1, 1), (0, 1, 0, 1)])
    a = FinAlgebra(Q, 2, ("x", "y"), mult)
    rep = check_algebra(a)
    assert not rep.ok
    assert rep.violations[0].axiom == "assoc"


def test_unit_axiom_detected():
    mult = _sparse3(Q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)])
    ok = FinAlgebra(Q, 2, ("1", "t"), mult, unit=vec(Q, [1, 0]))
    assert check_algebra(ok).ok
    wrong_unit = FinAlgebra(Q, 2, ("1", "t"), mult, unit=vec(Q, [0, 1]))
    rep = check_algebra(wrong_unit)
    assert not rep.ok
    assert any(v.axiom.startswith("unit") for v in rep.violations)


def test_nonunital_algebra_checkable():
    # strictly upper triangular 2x2 matrices: x^2 = 0, no unit
    a = FinAlgebra(Q, 1, ("x",), _sparse3(Q, 1, []))
    assert check_algebra(a).ok


def test_mat2_oracle():
    mat2 = get("mat2-rational").payload
    # E12 E21 = E11, E21 E12 = E22, E12^2 = 0
    e12, e21 = mat2.basis(1), mat2.basis(2)
    assert mat2.mul(e12, e21) == mat2.basis(0)
    assert mat2.mul(e21, e12) == mat2.basis(3)
    assert mat2.mul(e12, e12) == vec(Q, [0, 0, 0, 0])


def test_left_right_mult_agree_on_center():
    c3 = get("group-algebra-c3").payload.algebra
    x = vec(Q, [1, 2, 3])
    assert c3.left_mult(x) == c3.right_mult(x)  # commutative


def test_products_refuse_a_vector_of_another_field_or_length():
    h = get("group-algebra-c3").payload
    c3, x = h.algebra, h.algebra.basis(1)
    for product in (lambda v: c3.mul(v, x), lambda v: c3.mul(x, v), c3.left_mult,
                    c3.right_mult, h.coalgebra.comult_vec):
        with pytest.raises(FieldError, match="mixed fields"):
            product(vec(prime_field(5), [1, 0, 0]))
        with pytest.raises(DimensionError):
            product(vec(Q, [1, 0]))


def test_products_refuse_a_vector_whose_later_entries_are_over_another_field():
    h = get("group-algebra-c3").payload
    c3, x = h.algebra, h.algebra.basis(1)
    mixed = vec(Q, [1]) + vec(prime_field(5), [0, 3])
    for product in (lambda v: c3.mul(v, x), lambda v: c3.mul(x, v), c3.left_mult,
                    c3.right_mult, h.coalgebra.comult_vec):
        with pytest.raises(FieldError, match="a dense entry is not in Q"):
            product(mixed)


# -- coalgebras ---------------------------------------------------------------


def test_coassociativity_violation_witnessed():
    # Delta(x) = x (x) y is not coassociative against its own counit
    co = _sparse3(Q, 2, [(0, 0, 1, 1), (1, 1, 1, 1)])
    c = FinCoalgebra(Q, 2, ("x", "y"), co, counit=vec(Q, [1, 1]))
    rep = check_coalgebra(c)
    assert not rep.ok


def test_grouplike_coalgebra_passes():
    c2 = get("group-algebra-c2").payload.coalgebra
    assert check_coalgebra(c2).ok
    assert c2.comult_vec(vec(Q, [0, 1])) == vec(Q, [0, 0, 0, 1])


# -- bialgebras and antipodes -------------------------------------------------


def _idempotent_monoid_bialgebra():
    """Monoid algebra of {1, t} with t^2 = t: a bialgebra with no antipode."""
    mult = _sparse3(Q, 2, [(0, 0, 0, 1), (0, 1, 1, 1), (1, 0, 1, 1), (1, 1, 1, 1)])
    alg = FinAlgebra(Q, 2, ("1", "t"), mult, unit=vec(Q, [1, 0]), name="kM")
    co = _sparse3(Q, 2, [(0, 0, 0, 1), (1, 1, 1, 1)])
    coalg = FinCoalgebra(Q, 2, ("1", "t"), co, counit=vec(Q, [1, 1]))
    return Bialgebra("kM", alg, coalg)


def test_bialgebra_without_antipode():
    b = _idempotent_monoid_bialgebra()
    assert check_bialgebra(b).ok
    # S(t)t = eps(t)1 = 1 is unsolvable: t is a noninvertible idempotent
    assert compute_antipode(b) is None


def test_computed_antipode_matches_stored():
    for name in ("group-algebra-c2", "group-algebra-c3", "sweedler-h4"):
        h = get(name).payload
        assert compute_antipode(h.bialgebra) == h.antipode.dense()


@pytest.mark.parametrize("field", [Q, prime_field(13)], ids=str)
def test_c12_antipode_inverts_every_group_element(field):
    # 288 x 144 system; the closed form is g^i -> g^-i
    n = 12
    s = [[0] * n for _ in range(n)]
    for i in range(n):
        s[-i % n][i] = 1
    h = cyclic_group_algebra(n, field)
    assert compute_antipode(h.bialgebra) == mat(field, s)


def test_c2_antipode_is_identity():
    h = get("group-algebra-c2").payload
    assert h.antipode.dense() == identity(Q, 2)
    assert check_hopf(h).ok


def test_sweedler_antipode_order_four():
    h4 = get("sweedler-h4").payload
    s = h4.antipode.dense()
    s2 = mat(Q, [[0] * 4] * 4)
    s2 = tuple(tuple(sum((s[i][k] * s[k][j] for k in range(4)), Q.zero)
                     for j in range(4)) for i in range(4))
    assert s2 != identity(Q, 4)
    s4 = tuple(tuple(sum((s2[i][k] * s2[k][j] for k in range(4)), Q.zero)
                     for j in range(4)) for i in range(4))
    assert s4 == identity(Q, 4)


def test_s3_antipode_inverts_permutations():
    h = get("group-algebra-s3").payload
    s = h.antipode
    # composing with the inverse lands on the identity permutation's label
    alg = h.algebra
    e = alg.labels.index("p012")
    for i in range(6):
        inv = apply_mat(s, alg.basis(i))
        assert alg.mul(alg.basis(i), inv) == alg.basis(e)


def _taft(n: int, q: int, p: int) -> Bialgebra:
    """T_n(q) over F_p on the basis g^a x^b (slot a n + b), from its closed
    form: g^n = 1, x^n = 0, x g = q g x, Delta(g) = g (x) g and
    Delta(x) = x (x) 1 + g (x) x, so Delta(g^a x^b) is the sum over k of
    [b choose k]_q g^(a+k) x^(b-k) (x) g^a x^k."""
    f, d = prime_field(p), n * n
    binom = [[1]]
    for b in range(1, n):
        prev = binom[-1]
        binom.append([1, *((prev[k - 1] + q ** k * prev[k]) % p for k in range(1, b)), 1])
    slot = lambda a, b: (a % n) * n + b  # noqa: E731
    mult, comult = [], []
    for a in range(n):
        for b in range(n):
            mult += [(slot(a, b), slot(c, e), slot(a + c, b + e), q ** (b * c))
                     for c in range(n) for e in range(n - b)]
            comult += [(slot(a, b), slot(a + k, b - k), slot(a, k), binom[b][k])
                       for k in range(b + 1)]
    labels = tuple(f"g{a}x{b}" for a in range(n) for b in range(n))
    counit = vec(f, [int(b == 0) for a in range(n) for b in range(n)])
    alg = FinAlgebra(f, d, labels, _sparse3(f, d, mult), vec(f, [int(i == 0) for i in range(d)]),
                     name=f"T{n}({q})")
    return Bialgebra(alg.name, alg, FinCoalgebra(f, d, labels, _sparse3(f, d, comult), counit))


@pytest.mark.parametrize("n, q, p", [(2, 4, 5), (3, 2, 7), (4, 2, 5)])
def test_taft_antipode_has_order_twice_n(n, q, p):
    # the antipode of T_n(q) has order exactly 2n (Taft, PNAS 1971): S^2 is
    # conjugation by g, which moves x by a primitive n-th root of unity
    b = _taft(n, q, p)
    s = compute_antipode(b)
    assert s is not None
    assert check_hopf(HopfAlgebra(b.name, b, s)).ok
    one, power, order = identity(b.field, b.dim), s, 1
    while power != one:
        power, order = tuple(tuple(sum((r[k] * s[k][j] for k in range(b.dim)), b.field.zero)
                                   for j in range(b.dim)) for r in power), order + 1
        assert order <= 2 * n
    assert order == 2 * n


def _dual(b) -> Bialgebra:
    """H* on the dual basis e^i: e^j e^k = sum_i Delta(e_i)[j][k] e^i,
    Delta(e^i) = sum_jk (e_j e_k)[i] e^j (x) e^k, unit eps, counit at 1."""
    a, c, d = b.algebra, b.coalgebra, b.dim
    a_mult, c_comult = a.mult.dense(), c.comult.dense()
    mult = tuple(tuple(tuple(c_comult[i][j][k] for i in range(d)) for k in range(d))
                 for j in range(d))
    comult = tuple(tuple(tuple(a_mult[j][k][i] for k in range(d)) for j in range(d))
                   for i in range(d))
    labels = tuple(f"d{x}" for x in b.labels)
    alg = FinAlgebra(b.field, d, labels, mult, c.counit, name=f"{b.name}*")
    return Bialgebra(alg.name, alg, FinCoalgebra(b.field, d, labels, comult, a.unit))


def _modular_character(b, side: str) -> tuple:
    """chi with Lambda h = chi(h) Lambda for the left integral Lambda of b
    (side "left"), or h Lambda = chi(h) Lambda for its right integral; on a
    finite-dimensional Hopf algebra each integral space is a line."""
    (lam,) = find_integrals(b, side).basis
    a, r = b.algebra, next(i for i, x in enumerate(lam) if not x.is_zero)
    chi = []
    for i in range(b.dim):
        y = a.mul(lam, a.basis(i)) if side == "left" else a.mul(a.basis(i), lam)
        chi.append(y[r] / lam[r])
        assert y == tuple(chi[-1] * x for x in lam)
    return tuple(chi)


_RADFORD_HOSTS = {
    "h4": lambda: sweedler_h4(Q),
    "T2(4)": lambda: _taft(2, 4, 5),
    "T3(2)": lambda: _taft(3, 2, 7),
}


@pytest.mark.parametrize("name", list(_RADFORD_HOSTS))
def test_radford_s4_formula(name):
    # Radford (Amer. J. Math. 1976): S^4(h) = g (alpha -> h <- alpha^-1) g^-1,
    # where alpha -> h <- beta = beta(h_(1)) h_(2) alpha(h_(3)).  alpha is
    # the distinguished grouplike of H*: Lambda h = alpha(h) Lambda for a left
    # integral Lambda of H, h Lambda' = alpha^-1(h) Lambda' for a right one.
    # g is the distinguished grouplike of H: p lam = p(g) lam for a right
    # integral lam of H*, lam' p = p(g^-1) lam' for a left one.
    b = _RADFORD_HOSTS[name]()
    h = b if isinstance(b, HopfAlgebra) else HopfAlgebra(b.name, b, compute_antipode(b))
    f, d, a, co = h.field, h.dim, h.algebra, h.coalgebra.comult.dense()
    alpha, alpha_inv = _modular_character(h, "left"), _modular_character(h, "right")
    dual = _dual(h)
    g, g_inv = _modular_character(dual, "right"), _modular_character(dual, "left")
    assert a.mul(g, g_inv) == a.unit.dense()
    assert convolution(Functional(h, alpha), Functional(h, alpha_inv)).coords == h.coalgebra.counit

    def hit(i):
        return tuple(sum((co[i][j][k] * alpha_inv[j] * co[k][x][y] * alpha[y]
                          for j in range(d) for k in range(d) for y in range(d)
                          if not co[i][j][k].is_zero), f.zero) for x in range(d))

    s2 = mat_mul(h.antipode, h.antipode)
    assert mat_mul(s2, s2) == mat_from_cols([a.mul(a.mul(g, hit(i)), g_inv) for i in range(d)])


def test_hopf_check_rejects_wrong_antipode():
    h = get("group-algebra-c3").payload
    wrong = HopfAlgebra(h.name, h.bialgebra, identity(Q, 3))
    rep = check_hopf(wrong)
    assert not rep.ok
    assert any(v.axiom.startswith("antipode") for v in rep.violations)


def test_report_is_kept_only_on_the_host_checked(monkeypatch):
    walks = []

    class Counting(structures.Checker):
        def __init__(self, check, instance=""):
            if check in ("algebra", "bialgebra", "hopf"):
                walks.append(check)
            super().__init__(check, instance)

    monkeypatch.setattr(structures, "Checker", Counting)
    c3 = cyclic_group_algebra(3)
    b = c3.bialgebra
    assert check_bialgebra(b) is check_bialgebra(b)
    assert walks == ["bialgebra", "algebra"]
    # a fresh host over the same bialgebra is walked in full, its
    # bialgebra and algebra axioms included
    for _ in range(2):
        assert check_hopf(HopfAlgebra(c3.name, b, c3.antipode)).ok
    assert walks == ["bialgebra", "algebra"] + ["hopf", "bialgebra", "algebra"] * 2
    walks.clear()
    # the nested walks kept nothing on the algebra; a direct check keeps its report
    assert check_algebra(b.algebra) is check_algebra(b.algebra)
    assert walks == ["algebra"]


# -- weak structures ----------------------------------------------------------


def test_pair_groupoid_is_weak_but_not_ordinary():
    w = get("weak-pair-groupoid").payload
    assert check_weak_hopf(w).ok
    # Delta(1) = e11 (x) e11 + e22 (x) e22 is not 1 (x) 1
    b = Bialgebra(w.name, w.algebra, w.coalgebra)
    assert not check_bialgebra(b).ok


def test_ordinary_hopf_embeds_as_weak():
    w = as_weak(get("group-algebra-c2").payload)
    assert check_weak_hopf(w).ok
    assert check_counital_maps(w).ok


@pytest.mark.parametrize("name", ["weak-two-point", "weak-pair-groupoid"])
def test_weak_antipode_is_solved_exactly(name):
    w = get(name).payload
    assert compute_antipode(w.weak) == w.antipode.dense()


def test_weak_antipode_of_an_ordinary_hopf_algebra():
    w = as_weak(get("group-algebra-c2").payload)
    assert compute_antipode(w.weak) == w.antipode.dense()


def test_weak_view_of_bialgebra_without_antipode():
    # the weak axioms over an ordinary bialgebra are the ordinary ones
    assert compute_antipode(as_weak(_idempotent_monoid_bialgebra())) is None


def test_target_source_idempotent_and_split():
    for name in ("weak-two-point", "weak-pair-groupoid"):
        w = get(name).payload
        pil, pir = target_source(w)
        for m in (pil.dense(), pir.dense()):
            sq = tuple(tuple(sum((m[i][k] * m[k][j] for k in range(w.dim)), w.field.zero)
                             for j in range(w.dim)) for i in range(w.dim))
            assert sq == m
        assert check_counital_maps(w).ok


def test_pair_groupoid_target_map_oracle():
    w = get("weak-pair-groupoid").payload
    pil, _ = target_source(w)
    assert pil.dense() == mat(Q, [[1, 1, 0, 0], [0, 0, 0, 0], [0, 0, 0, 0], [0, 0, 1, 1]])


def test_quantum_commutativity_split():
    assert check_quantum_commutative(get("weak-two-point").payload)
    assert not check_quantum_commutative(get("weak-pair-groupoid").payload)
    wit = quantum_commutative_witness(get("weak-pair-groupoid").payload)
    assert wit is not None and wit.axiom == "quantum-commutative"
    assert quantum_commutative_witness(get("weak-two-point").payload) is None


def test_criteria_disagreement_names_the_identity_violation(monkeypatch):
    fake = Violation("quantum-commutative", (("h", 0), ("g", 1)), (Q.one, Q.zero))
    monkeypatch.setattr(structures, "quantum_commutative_witness", lambda w: fake)
    with pytest.raises(InternalError) as err:
        check_quantum_commutative(get("weak-two-point").payload)
    assert str(err.value) == (
        "two-point: identity and centre criteria of quantum commutativity agree fails; "
        "first witness {'axiom': 'quantum-commutative', 'h': 0, 'g': 1, 'delta': ['1', '0']}, "
        "yet the source subalgebra is central")


def test_criteria_disagreement_names_the_first_noncentral_pair(monkeypatch):
    monkeypatch.setattr(structures, "quantum_commutative_witness", lambda w: None)
    with pytest.raises(InternalError) as err:
        check_quantum_commutative(get("weak-pair-groupoid").payload)
    assert str(err.value) == (
        "pair-groupoid: identity and centre criteria of quantum commutativity agree fails; "
        "first witness source basis vector 0 ['1', '0', '0', '0'] does not commute with e_1, "
        "yet the identity holds")


def test_target_subalgebra_closed():
    w = get("weak-pair-groupoid").payload
    pil, _ = target_source(w)
    sub = subalgebra_image(pil, w.algebra)
    assert sub.algebra.dim == 2
    assert check_algebra(sub.algebra).ok


def _image_by_solves(op, a):
    """Reference: one solve per basis pair and one for the unit."""
    basis = column_space_basis(op, a.field).dense()
    r, incl = len(basis), mat_from_cols(basis)
    incl_rows = [{s: x.value for s, x in enumerate(row) if x.value} for row in incl]
    mult = tuple(
        tuple(solve_linear(incl_rows, [x.value for x in a.mul(basis[i], basis[j])], a.field,
                           r).dense()
              for j in range(r))
        for i in range(r)
    )
    rows, rhs = [], []
    for t in range(r):
        for c in range(r):
            rows.append({s: mult[s][t][c].value for s in range(r)})
            rhs.append(int(t == c))
            rows.append({s: mult[t][s][c].value for s in range(r)})
            rhs.append(int(t == c))
    sol = solve_linear(rows, rhs, a.field, r) if r else None
    return incl, mult, None if sol is None else sol.dense()


def _counting_rref(monkeypatch):
    calls = []
    real = exactlin.rref
    monkeypatch.setattr(exactlin, "rref", lambda *args: calls.append(1) or real(*args))
    return calls


@pytest.mark.parametrize("name", ["weak-two-point", "weak-pair-groupoid"])
def test_target_subalgebra_matches_per_pair_solves(name, monkeypatch):
    w = get(name).payload
    pil, _ = target_source(w)
    calls = _counting_rref(monkeypatch)
    sub = subalgebra_image(pil, w.algebra)
    assert len(calls) == 2  # the basis and the unit, not r^2 + 2 = 6
    assert (sub.inclusion.dense(), sub.algebra.mult.dense(),
            sub.algebra.unit.dense()) == _image_by_solves(
        pil, w.algebra)


@pytest.mark.parametrize("n", [2, 3, 5, 7])
def test_image_costs_two_eliminations_at_every_rank(n, monkeypatch):
    # the identity's image is the whole of C_n, of rank n
    a = cyclic_group_algebra(n).algebra
    calls = _counting_rref(monkeypatch)
    sub = subalgebra_image(identity(Q, n), a)
    assert len(calls) == 2
    assert (sub.inclusion.dense(), sub.algebra.mult.dense(),
            sub.algebra.unit.dense()) == _image_by_solves(
        identity(Q, n), a)


def test_image_not_closed_names_first_pair():
    mat2 = get("mat2-rational").payload
    # span{E12, E21}: E12 E12 = 0 stays, E12 E21 = E11 leaves
    op = mat(Q, [[0, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 0]])
    with pytest.raises(StructureError, match=r"basis pair \(0, 1\)"):
        subalgebra_image(op, mat2)


# -- duals and convolution ----------------------------------------------------


def test_dual_of_group_algebra_is_pointwise():
    c2 = get("group-algebra-c2").payload
    d = dual_algebra(c2)
    # delta functions multiply pointwise for a grouplike basis
    assert d.mul(d.basis(0), d.basis(0)) == d.basis(0)
    assert d.mul(d.basis(0), d.basis(1)) == vec(Q, [0, 0])
    assert check_algebra(d).ok


def test_convolution_unit_is_counit():
    c2 = get("group-algebra-c2").payload
    eps = counit_functional(c2)
    for coords in ([1, 0], [0, 1], [2, -3]):
        f = Functional(c2, vec(Q, coords))
        assert convolution(eps, f).coords == f.coords
        assert convolution(f, eps).coords == f.coords


def test_convolution_idempotents_of_c2_dual():
    c2 = get("group-algebra-c2").payload
    idem = []
    for a in (0, 1):
        for b in (0, 1):
            f = Functional(c2, vec(Q, [a, b]))
            if convolution(f, f).coords == f.coords:
                idem.append((a, b))
    assert idem == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_morphism_checker():
    c2 = get("group-algebra-c2").payload.algebra
    assert check_algebra_morphism(identity(Q, 2), c2, c2).ok
    # swapping 1 and g does respect multiplication but not the unit
    swap = mat(Q, [[0, 1], [1, 0]])
    assert not check_algebra_morphism(swap, c2, c2).ok


def test_mismatched_fields_rejected():
    f5 = prime_field(5)
    a = get("mat2-rational").payload
    b = FinAlgebra(f5, 1, ("1",), _sparse3(f5, 1, [(0, 0, 0, 1)]),
                   unit=vec(f5, [1]))
    with pytest.raises(StructureError):
        check_algebra_morphism(identity(Q, 1), a, b)


# -- counital tensors kept on the carriers -------------------------------------


def _counital(w):
    alg, co = w.algebra, w.coalgebra
    return (structures._unit_comult(alg, co), structures._counit_of_products(alg, co),
            *target_source(w))


def test_counital_tensors_are_kept_and_shared_by_hosts_on_the_same_carriers():
    w = get("weak-pair-groupoid").payload
    first = _counital(w)
    assert all(x is y for x, y in zip(first, _counital(w)))
    # w and w.weak share both carriers, and so do h and its weak view
    assert all(x is y for x, y in zip(first, _counital(w.weak)))
    h = get("group-algebra-c3").payload
    assert all(x is y for x, y in zip(_counital(h), _counital(as_weak(h))))


def test_equal_but_distinct_carriers_compute_the_counital_tensors_again():
    w = get("weak-two-point").payload
    alg, co = w.algebra, w.coalgebra
    twin_alg = FinAlgebra(alg.field, alg.dim, alg.labels, alg.mult, alg.unit, name=alg.name)
    twin_co = FinCoalgebra(co.field, co.dim, co.labels, co.comult, co.counit)
    assert (twin_alg, twin_co) == (alg, co)
    first = _counital(w)
    for a, c in ((twin_alg, co), (alg, twin_co), (twin_alg, twin_co)):
        twin = Bialgebra(w.name, a, c)
        again = _counital(twin)
        assert all(x is not y for x, y in zip(first, again))
        assert again == first


@pytest.mark.parametrize("name", [n for n, kind in list_entries()
                                  if kind in ("hopf", "weak-hopf")])
def test_kept_counital_tensors_equal_a_fresh_contraction_on_every_catalog_host(name):
    w = get(name).payload
    alg, co = w.algebra, w.coalgebra
    # Delta(1), eps(xy), pi_L(h) = eps(1_(1) h) 1_(2), pi_R(h) = eps(h 1_(2)) 1_(1)
    d1 = contract("i,iab->ab", alg.unit, co)
    eps = contract("xyp,p->xy", alg, co.counit)
    fresh = d1, eps, contract("jk,jh->kh", d1, eps), contract("jk,hk->jh", d1, eps)
    for host in (w, w.weak if isinstance(w, WeakHopfAlgebra) else as_weak(w)):
        assert _counital(host) == fresh
