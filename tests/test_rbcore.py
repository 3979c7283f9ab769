"""Rota-Baxter operators, paired modules, and their constructions."""

import random
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrb.exactlin import (
    FieldError,
    RATIONAL,
    RawTensor,
    contract,
    identity,
    kernel_basis,
    mat,
    mat_scale,
    prime_field,
    raw_identity,
    raw_view,
    solve_linear,
    vec,
)
from hopfrb.structures import FinAlgebra, PreconditionError, check_algebra
from hopfrb.actions import ActionStructure, check_action, regular_action
from hopfrb import rbcore, replay
from hopfrb.rbcore import (
    PairingSystem,
    RbpInstance,
    atkinson_solvable,
    atkinson_witness,
    check_a_linear,
    check_rb_operator,
    check_rbp_module,
    classify_generic,
    direct_sum,
    double_construction,
    idempotent_identities,
    image_closed_under_p_action,
    is_quasi_idempotent,
    pairing_system,
    scale_weight,
    tilde_pair,
)
from hopfrb.catalog import (
    cyclic_group_algebra,
    get,
    get_instance,
    list_entries,
    list_instances,
    normalized_group_integral,
)

Q = RATIONAL
MINUS_ONE = -Q.one


def operator_of(field, n: int, entries):
    """The n x n raw operator with the row-major raw `entries`."""
    return RawTensor.read(field, (n, n), {divmod(k, n): x for k, x in enumerate(entries)})


def _apply(module, r, v):
    """The Scalar vector r . v for the action `module`."""
    return contract("i,j,ijk->k", r, v, module).dense()


def vec_scale(c, u):
    return tuple(c * x for x in u)


def apply_mat(a, x):
    """The Scalar vector a x, for a raw or Scalar matrix a."""
    return contract("rc,c->r", a, x).dense()


def zeros_mat(field, rows: int, cols: int):
    return ((field.zero,) * cols,) * rows


def _mat2():
    return get("mat2-rational").payload


# -- the operator identity ----------------------------------------------------


def test_projection_multiplication_is_rb():
    mat2 = _mat2()
    p = mat2.left_mult(mat2.basis(0))  # E11 . -
    assert check_rb_operator(mat2, p, MINUS_ONE).ok


def test_nilpotent_multiplication_is_not_rb():
    mat2 = _mat2()
    p = mat2.left_mult(mat2.basis(1))  # E12 . -
    rep = check_rb_operator(mat2, p, MINUS_ONE)
    assert not rep.ok
    assert rep.violations[0].axiom == "rb-identity"
    assert rep.violations[0].delta is not None


def test_left_mult_verdict_matches_idempotency():
    # r . - is Rota-Baxter at weight -1 exactly when r^2 = r
    mat2 = _mat2()
    for bits in range(16):
        r = tuple(Q.of((bits >> i) & 1) for i in range(4))
        expected = mat2.mul(r, r) == r
        assert check_rb_operator(mat2, mat2.left_mult(r), MINUS_ONE).ok == expected


def test_identity_and_zero_operators():
    mat2 = _mat2()
    assert check_rb_operator(mat2, identity(Q, 4), MINUS_ONE).ok
    assert check_rb_operator(mat2, zeros_mat(Q, 4, 4), Q.of(3)).ok
    assert not check_rb_operator(mat2, identity(Q, 4), Q.one).ok


# -- paired modules -----------------------------------------------------------


def test_all_catalog_instances_verify():
    for name in list_instances():
        inst = get_instance(name)
        assert check_rbp_module(inst).ok, name
        assert inst.verified == "pass"


def test_failed_instance_keeps_witness():
    mat2 = _mat2()
    left = regular_action(mat2, "left")
    bad = RbpInstance(mat2, left, mat2.left_mult(mat2.basis(0)),
                      mat2.left_mult(mat2.basis(1)), MINUS_ONE)
    rep = check_rbp_module(bad)
    assert not rep.ok
    assert bad.verified == "fail"
    assert bad.witness is not None


def test_p_need_not_be_rb_for_pairing():
    # generic T accepts any P, including ones failing the operator identity
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(c2))
    p = mat(Q, [[1, 2], [3, 4]])
    assert not check_rb_operator(c2.algebra, p, MINUS_ONE).ok
    inst = RbpInstance(c2.algebra, module, p, t, MINUS_ONE)
    assert check_rbp_module(inst).ok


# -- both identities against plain loops over the paper's formulas -----------
#
# The checkers and the pairing system state their sums through one kernel,
# `exactlin.contract`; these loops share nothing with it.  The algebras are
# random, mostly zero and need not be associative or unital.

ORACLE_FIELDS = [Q, prime_field(2), prime_field(5)]
SPARSE = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, 3])


def _draw_tensor(data, field, *shape):
    if not shape:
        return field.of(data.draw(SPARSE))
    return tuple(_draw_tensor(data, field, *shape[1:]) for _ in range(shape[0]))


def _plain_act(act, x, v, field):
    """x . v for an algebra vector x and a carrier vector v, by the triple sum."""
    out = [field.zero] * len(v)
    for i, xi in enumerate(x):
        for j, vj in enumerate(v):
            for k in range(len(v)):
                out[k] = out[k] + xi * vj * act[i][j][k]
    return out


def _plain_apply(op, v, field):
    return [sum((op[r][c] * v[c] for c in range(len(v))), field.zero) for r in range(len(op))]


def _expected_report(deltas):
    """(violation count, first witness, its delta) of (witness, delta) pairs."""
    failing = [(w, d) for w, d in deltas if any(not x.is_zero for x in d)]
    return len(failing), *(failing[0] if failing else (None, None))


def _got_report(rep):
    if not rep.violations:
        return rep.violation_count, None, None
    return rep.violation_count, rep.violations[0].witness, rep.violations[0].delta


@pytest.mark.parametrize("field", ORACLE_FIELDS, ids=str)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_both_identities_match_plain_loops(field, data):
    n, d = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    mult, act = _draw_tensor(data, field, n, n, n), _draw_tensor(data, field, n, d, d)
    p, t = _draw_tensor(data, field, n, n), _draw_tensor(data, field, d, d)
    if data.draw(st.booleans()):
        t = zeros_mat(field, d, d)  # pairs with every P, so passing reports occur
    lam = _draw_tensor(data, field)
    side = data.draw(st.sampled_from(["left", "right"]))
    alg = FinAlgebra(field, n, tuple(range(n)), mult, None, name="A")
    module = ActionStructure(alg, d, side, act, name="M")
    e = [[field.one if i == j else field.zero for j in range(n)] for i in range(n)]
    f = [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]

    # P(a).T(m) = T(P(a).m) + T(a.T(m)) + lam T(a.m), a = e_i, m = f_c;
    # the delta lists lhs - rhs at (r, c), row-major
    deltas = []
    for i in range(n):
        pa = _plain_apply(p, e[i], field)
        cols = []
        for c in range(d):
            lhs = _plain_act(act, pa, _plain_apply(t, f[c], field), field)
            rhs = [x + y + lam * z for x, y, z in zip(
                _plain_apply(t, _plain_act(act, pa, f[c], field), field),
                _plain_apply(t, _plain_act(act, e[i], _plain_apply(t, f[c], field), field), field),
                _plain_apply(t, _plain_act(act, e[i], f[c], field), field))]
            cols.append([x - y for x, y in zip(lhs, rhs)])
        deltas.append(((("a", i),), tuple(cols[c][r] for r in range(d) for c in range(d))))
    rep = check_rbp_module(RbpInstance(alg, module, p, t, lam, name="oracle"))
    assert _got_report(rep) == _expected_report(deltas)

    # P(x)P(y) = P(P(x)y + xP(y) + lam xy), x = e_i, y = e_j
    deltas = []
    for i, j in product(range(n), repeat=2):
        px, py = _plain_apply(p, e[i], field), _plain_apply(p, e[j], field)
        star = [x + y + lam * z for x, y, z in zip(
            _plain_act(mult, px, e[j], field), _plain_act(mult, e[i], py, field),
            _plain_act(mult, e[i], e[j], field))]
        lhs, rhs = _plain_act(mult, px, py, field), _plain_apply(p, star, field)
        deltas.append(((("x", i), ("y", j)), tuple(x - y for x, y in zip(lhs, rhs))))
    assert _got_report(check_rb_operator(alg, p, lam)) == _expected_report(deltas)


# -- classification -----------------------------------------------------------


def test_integral_operator_is_generic():
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(c2))
    v = classify_generic(module, t, MINUS_ONE, trials=30, seed="t")
    assert v.a_linear and v.quasi_idempotent and v.generic is True
    assert v.failures == 0 and v.trials == 30


def test_doubled_identity_is_not_generic():
    module = get("c2-regular-module").payload
    t = mat_scale(Q.of(2), identity(Q, 2))
    v = classify_generic(module, t, MINUS_ONE, trials=30, seed="t")
    assert v.a_linear and not v.quasi_idempotent and v.generic is False
    assert v.failures == 30


@pytest.mark.parametrize("scale", [1, 2, None])
def test_negative_trials_are_refused_before_any_draw(scale, monkeypatch):
    # T = id and T = 2 id are A-linear (the first generic, the second not),
    # and the third is not A-linear; each is refused with the CLI's text
    module = get("c2-regular-module").payload
    t = (mat(Q, [[1, 0], [0, 0]]) if scale is None
         else mat_scale(Q.of(scale), identity(Q, 2)))
    monkeypatch.setattr(rbcore, "_random_entries", None)
    with pytest.raises(PreconditionError, match="^trials must be nonnegative$"):
        classify_generic(module, t, MINUS_ONE, trials=-3, seed="t")


def test_non_linear_operator_is_unclassified():
    module = get("c2-regular-module").payload
    t = mat(Q, [[1, 0], [0, 0]])  # not kC2-linear
    v = classify_generic(module, t, MINUS_ONE, trials=10, seed="t")
    assert not v.a_linear
    assert v.generic is None
    assert 0 < v.failures <= 10


# -- the affine trials against the full check ---------------------------------

FIELDS = [Q, prime_field(2), prime_field(3), prime_field(5)]
CATALOG_MODULES = sorted(name for name, kind in list_entries() if kind == "module")


def _over(module, field):
    """The catalog module with its integer structure constants read in `field`."""
    conv = lambda t3: tuple(  # noqa: E731
        tuple(tuple(field.of(x.value) for x in row) for row in plane) for plane in t3
    )
    a = module.algebra
    unit = None if a.unit is None else tuple(field.of(x.value) for x in a.unit.dense())
    alg = FinAlgebra(field, a.dim, a.labels, conv(a.mult.dense()), unit, name=a.name)
    return ActionStructure(alg, module.dim, module.side, conv(module.act.dense()),
                           name=module.name)


def _a_linear_basis(module):
    """Basis of the T with [act(e_b), T] = 0 for all b, as flat row-major vectors."""
    d, f = module.dim, module.field
    rows = []
    for b in range(module.algebra.dim):
        op = module.matrix(module.algebra.basis(b)).dense()
        for r in range(d):
            for c in range(d):
                row = {}
                for k in range(d):
                    row[k * d + c] = row.get(k * d + c, 0) + op[r][k].value  # (act T)[r][c]
                    row[r * d + k] = row.get(r * d + k, 0) - op[k][c].value  # (T act)[r][c]
                rows.append(row)
    return kernel_basis(rows, f, ncols=d * d).dense()


def _brute_force_failures(module, t, lam, trials, seed):
    a = module.algebra
    return sum(
        not check_rbp_module(RbpInstance(
            a, module, operator_of(a.field, a.dim, rbcore._random_entries(a.dim, seed, k)), t, lam
        )).ok
        for k in range(trials)
    )


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("linear", [True, False], ids=["a-linear", "random"])
@settings(deadline=None, max_examples=15)
@given(data=st.data())
def test_affine_trials_count_what_check_rbp_module_counts(field, linear, data):
    module = _over(get(data.draw(st.sampled_from(CATALOG_MODULES))).payload, field)
    d = module.dim
    coef = st.integers(min_value=-2, max_value=2)
    if linear:
        basis = _a_linear_basis(module)
        cs = data.draw(st.lists(coef, min_size=len(basis), max_size=len(basis)))
        flat = [field.zero] * (d * d)
        for c, v in zip(cs, basis):
            flat = [x + field.of(c) * y for x, y in zip(flat, v)]
        t = tuple(tuple(flat[r * d:(r + 1) * d]) for r in range(d))
    else:
        t = mat(field, data.draw(
            st.lists(st.lists(coef, min_size=d, max_size=d), min_size=d, max_size=d)))
    lam = field.of(data.draw(coef))
    seed = str(data.draw(st.integers(min_value=0, max_value=10**6)))
    trials = 6
    v = classify_generic(module, t, lam, trials=trials, seed=seed)
    if linear:
        assert v.a_linear
    assert v.failures == _brute_force_failures(module, t, lam, trials, seed)


@st.composite
def raw_entries(draw, field, count):
    """`count` raw values of arbitrary elements of `field`: any int over
    F_p, any int or Fraction over Q."""
    entry = st.integers(min_value=-10**6, max_value=10**6)
    if field is Q:
        entry = entry | st.fractions(max_denominator=50)
    return draw(st.lists(entry, min_size=count, max_size=count))


def _solution_p(module, t, lam, p, moved):
    """P with each column i in `moved` whose system is solvable moved onto
    Pair(M, T): particular solution plus the draw's own nullspace mix.
    The other columns stay, so P can fail at some e_i and pass at others."""
    n, f = module.algebra.dim, module.field
    system = pairing_system(module, t, lam)
    p = list(p)
    # one raw row per cell of M's operators, over the unknowns P[b][i]
    rows = [{} for _ in range(module.dim ** 2)]
    for b, comm in enumerate(system.comms):
        for cell, v in comm:
            rows[cell][b] = v
    nullspace = kernel_basis(rows, f, n).dense()
    for i in moved:
        sol = solve_linear(rows, system.rhs[i], f, n)
        if sol is None:
            continue
        col = sol.dense()
        for k, v in enumerate(nullspace):
            col = tuple(x + f.of(p[k % len(p)]) * y for x, y in zip(col, v))
        for b in range(n):
            p[b * n + i] = col[b].value
    return p


@pytest.mark.parametrize("field", FIELDS, ids=str)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_pairing_system_decides_what_check_rbp_module_decides(field, data):
    module = _over(get(data.draw(st.sampled_from(CATALOG_MODULES))).payload, field)
    a, n, d = module.algebra, module.algebra.dim, module.dim
    lam = field.of(data.draw(raw_entries(field, 1))[0])
    kind = data.draw(st.sampled_from(["random", "a-linear", "zero", "minus-lam"]))
    if kind == "random":
        t = operator_of(field, d, data.draw(raw_entries(field, d * d)))
    elif kind == "a-linear":
        basis = _a_linear_basis(module)
        flat = [field.zero] * (d * d)
        for c, v in zip(data.draw(raw_entries(field, len(basis))), basis):
            flat = [x + field.of(c) * y for x, y in zip(flat, v)]
        t = operator_of(field, d, flat)
    else:
        c = field.zero if kind == "zero" else -lam
        t = mat_scale(c, identity(field, d))
    p = data.draw(raw_entries(field, n * n))
    moved = data.draw(st.sets(st.integers(min_value=0, max_value=n - 1)))
    p = _solution_p(module, t, lam, p, moved)
    minus = -lam.value
    pt = [(minus if r == c else 0) - p[r * n + c] for r in range(n) for c in range(n)]
    _, tt = tilde_pair((), t, lam)
    verdicts = []
    for raw, op in ((p, t), (pt, tt)):
        system = pairing_system(module, op, lam)
        rep = check_rbp_module(RbpInstance(a, module, operator_of(field, n, raw), op, lam))
        assert system.fails(raw) == (not rep.ok)
        # the first e_i the system rejects is the oracle's witness
        first = next((i for i in range(n) if PairingSystem(
            module, system.t, lam, system.comms, system.rhs[:i + 1]).fails(raw)), None)
        assert first == (dict(rep.violations[0].witness)["a"] if rep.violations else None)
        verdicts.append(system.fails(raw))
    # the tilde pair changes neither side of the identity's defect
    assert verdicts[0] == verdicts[1]


def _c2_operators() -> dict:
    """T on the regular kC2-module, each with its failures out of 7 trials
    when it is A-linear (None when it is not)."""
    integral = get("c2-regular-module").payload.matrix(
        normalized_group_integral(get("group-algebra-c2").payload))
    return {
        "a-linear-generic": (integral, 0),
        "a-linear-not-generic": (mat_scale(Q.of(2), identity(Q, 2)), 7),
        "not-a-linear": (mat(Q, [[1, 0], [0, 0]]), None),
    }


@pytest.mark.parametrize("case", list(_c2_operators()))
def test_an_a_linear_t_decides_trial_0_for_every_trial(monkeypatch, case):
    # an A-linear T is decided exactly, with no draw; every other T draws
    # and decides each of its trials
    module = get("c2-regular-module").payload
    t, failures = _c2_operators()[case]
    calls = {"_random_entries": 0, "fails": 0}
    for owner, name in ((rbcore, "_random_entries"), (PairingSystem, "fails")):
        def counted(*args, real=getattr(owner, name), name=name):
            calls[name] += 1
            return real(*args)
        monkeypatch.setattr(owner, name, counted)
    v = classify_generic(module, t, MINUS_ONE, trials=7, seed="t")
    assert v.trials == 7 and v.a_linear == (failures is not None)
    if v.a_linear:
        assert v.failures == failures
        assert calls == {"_random_entries": 0, "fails": 0}
    else:
        assert calls == {"_random_entries": 7, "fails": 7}
    assert classify_generic(module, t, MINUS_ONE, trials=0, seed="t").failures == 0


GOLDEN_SEEDS = ["7", rbcore.DEFAULT_SEED, "31"]


def _agrees_with_check_rbp_module(module, t, lam, p) -> None:
    """The pairing system decides the raw row-major P with T, and its tilde
    pair P~ with T~, as `check_rbp_module` does."""
    a, f = module.algebra, module.field
    p = operator_of(f, a.dim, p)
    for x, y in ((p, t), tilde_pair(p, t, lam)):
        rep = check_rbp_module(RbpInstance(a, module, x, y, lam))
        assert pairing_system(module, y, lam).fails(x.flat()) == (not rep.ok), module.name


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
@pytest.mark.parametrize("name", CATALOG_MODULES)
def test_trial_0_decides_as_check_rbp_module_on_every_catalog_module(name, seed):
    # P is the seed's trial-0 draw; T is the identity or its double (A-linear,
    # generic and not at unital carriers) or trial 1's draw (in general not
    # A-linear)
    module = get(name).payload
    f, n, d = module.field, module.algebra.dim, module.dim
    p = rbcore._random_entries(n, seed, 0)
    for t in (raw_identity(f, d), raw_identity(f, d).scaled(f.of(2)),
              operator_of(f, d, rbcore._random_entries(d, seed, 1))):
        _agrees_with_check_rbp_module(module, t, -f.one, p)


@pytest.mark.parametrize("seed", GOLDEN_SEEDS)
def test_trial_0_decides_as_check_rbp_module_on_every_replay_system(seed, monkeypatch):
    # every (M, T, lam) that `replay all` builds a pairing system for, at
    # the seed's trial-0 draw of P
    systems, real = [], rbcore.pairing_system

    def recorded(m, t, lam):
        systems.append(real(m, t, lam))
        return systems[-1]

    monkeypatch.setattr(rbcore, "pairing_system", recorded)
    replay.run_all(seed=seed, trials=1)
    assert len(systems) > 20
    for system in systems:
        m = system.module
        _agrees_with_check_rbp_module(m, system.t, system.weight,
                                      rbcore._random_entries(m.algebra.dim, seed, 0))


def test_a_linearity_names_first_commutator_witness():
    module = get("c2-regular-module").payload
    t = mat(Q, [[1, 0], [0, 0]])
    rep = check_a_linear(module, t)
    assert not rep.ok and rep.violation_count == 2
    # [act(g), T] 1 = g . T(1) - T(g . 1) = g - 0 = g
    assert rep.violations[0].to_json() == {
        "axiom": "commutes-with-action", "b": 1, "m": 0, "delta": ["0", "1"]}
    integral = module.matrix(normalized_group_integral(get("group-algebra-c2").payload))
    assert check_a_linear(module, integral).ok


def test_quasi_idempotent_variants():
    assert is_quasi_idempotent(identity(Q, 2), MINUS_ONE)
    assert is_quasi_idempotent(zeros_mat(Q, 2, 2), Q.of(5))
    assert not is_quasi_idempotent(mat_scale(Q.of(2), identity(Q, 2)), MINUS_ONE)
    # T^2 = -2T at weight 2
    assert is_quasi_idempotent(mat_scale(Q.of(-2), identity(Q, 2)), Q.of(2))


# -- the mirrored pair --------------------------------------------------------


small = st.integers(min_value=-4, max_value=4)


@given(st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2),
       st.lists(st.lists(small, min_size=2, max_size=2), min_size=2, max_size=2))
def test_tilde_is_an_involution(prows, trows):
    p, t = mat(Q, prows), mat(Q, trows)
    pt, tt = tilde_pair(p, t, MINUS_ONE)
    assert _dense(tilde_pair(pt, tt, MINUS_ONE)) == (p, t)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_tilde_preserves_verification(trial):
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(c2))
    p = operator_of(Q, 2, rbcore._random_entries(2, "tilde-fuzz", trial))
    inst = RbpInstance(c2.algebra, module, p, t, MINUS_ONE)
    assert check_rbp_module(inst).ok
    pt, tt = tilde_pair(p, t, MINUS_ONE)
    assert check_rbp_module(RbpInstance(c2.algebra, module, pt, tt, MINUS_ONE)).ok


def test_tilde_on_all_catalog_instances():
    for name in list_instances():
        inst = get_instance(name)
        pt, tt = tilde_pair(inst.p, inst.t, inst.weight)
        mirrored = RbpInstance(inst.algebra, inst.module, pt, tt, inst.weight)
        assert check_rbp_module(mirrored).ok, name


# -- the raw shift, tilde pair and factorization against Scalar formulas ------


def _scalar_shifted(x, lam):
    """X + lam id, one Scalar sum per diagonal entry."""
    return tuple(tuple(v + lam if r == c else v for c, v in enumerate(row))
                 for r, row in enumerate(x))


def _scalar_tilde(x, lam):
    return mat_scale(-lam.field.one, _scalar_shifted(x, lam))


def _dense(pair):
    return tuple(x.dense() for x in pair)


F5 = prime_field(5)
SHIFTS = {
    "q-fractions": (Q, [[Fraction(1, 2), -3, 0], [Fraction(2, 3), 0, 1], [0, 5, Fraction(-7, 4)]],
                    Fraction(-5, 7)),
    "q-zero-weight": (Q, [[Fraction(1, 3), 2], [0, -1]], 0),
    "q-cancelling": (Q, [[Fraction(1, 2), 1], [0, 3]], Fraction(-1, 2)),
    "f5": (F5, [[4, 1, 0], [2, 3, 1], [0, 0, 4]], 3),
    "f5-zero-weight": (F5, [[1, 0], [3, 4]], 0),
    "f2": (prime_field(2), [[1, 1], [0, 1]], 1),
    "empty": (Q, [], Fraction(3, 2)),
}


@pytest.mark.parametrize("case", list(SHIFTS))
def test_raw_shift_and_tilde_pair_match_the_scalar_formulas(case):
    field, rows, lam = SHIFTS[case]
    x, lam = mat(field, rows), field.of(lam)
    y = tuple(tuple(v * field.of(2) + field.one for v in row) for row in x)
    assert rbcore._shifted(raw_view(x), lam).dense() == _scalar_shifted(x, lam)
    assert _dense(tilde_pair(x, y, lam)) == (_scalar_tilde(x, lam), _scalar_tilde(y, lam))
    assert _dense(tilde_pair(*tilde_pair(x, y, lam), lam)) == (x, y)


def test_tilde_of_the_empty_p_is_empty():
    # prop-3.1 mirrors T alone by passing P = ()
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(get("group-algebra-c2").payload))
    assert _dense(tilde_pair((), t, MINUS_ONE)) == ((), _scalar_tilde(t.dense(), MINUS_ONE))
    assert _dense(tilde_pair((), (), MINUS_ONE)) == ((), ())


@pytest.mark.parametrize("lam", [F5.of(4), F5.zero])
def test_a_weight_from_another_field_is_refused(lam):
    module = get("c2-regular-module").payload
    t = module.matrix(normalized_group_integral(get("group-algebra-c2").payload))
    for call in (lambda: classify_generic(module, t, lam, trials=3, seed="s"),
                 lambda: is_quasi_idempotent(t, lam),
                 lambda: pairing_system(module, t, lam),
                 lambda: tilde_pair(t, t, lam),
                 lambda: tilde_pair((), t, lam)):
        with pytest.raises(FieldError, match="mixed fields"):
            call()


def test_each_operator_is_read_into_the_raw_layer_once(monkeypatch):
    """An instance reads a dense P and T once each, on construction, and
    check_rbp_module reads nothing more.  One classify_generic call reads a
    dense T once, for the pairing system, the quasi-idempotency test and
    the generic test; its trial-0 oracle, a check_rbp_module call of its
    own, reads nothing: the drawn P is built raw and T is stored raw.  A
    raw T is never read."""
    read, phase, of = [], ["outer"], RawTensor.of.__func__

    def counted(cls, field, t, shape, ragged=None):
        read.append((phase[0], t))  # kept alive, so no two reads share an id by reuse
        return of(cls, field, t, shape, ragged)

    def oracle(inst):
        phase[0] = "oracle"
        try:
            return check_rbp_module(inst)
        finally:
            phase[0] = "outer"

    def reads():
        counts = Counter((where, id(t)) for where, t in read)
        assert set(counts.values()) == {1}, counts
        return counts

    monkeypatch.setattr(RawTensor, "of", classmethod(counted))
    mat2, module, e = _left_mult_by_e11_plus_e12()
    p, t = (mat(Q, [[x.value for x in row] for row in e.dense()]) for _ in range(2))
    check_rbp_module(RbpInstance(mat2, module, e, e, MINUS_ONE))  # builds the carrier views
    read.clear()
    inst = RbpInstance(mat2, module, p, t, MINUS_ONE)
    assert reads()[("outer", id(p))] == reads()[("outer", id(t))] == 1
    read.clear()
    check_rbp_module(inst)
    assert not read
    monkeypatch.setattr(rbcore, "check_rbp_module", oracle)
    c2_module = get("c2-regular-module").payload
    raw_t = c2_module.matrix(normalized_group_integral(get("group-algebra-c2").payload))
    for t in (mat(Q, [[1, 0], [0, 0]]),  # not A-linear: every trial is drawn
              raw_t.dense()):
        read.clear()
        classify_generic(c2_module, t, MINUS_ONE, trials=5, seed="once")
        assert reads() == {("outer", id(t)): 1}
    read.clear()
    classify_generic(c2_module, raw_t, MINUS_ONE, trials=5, seed="once")
    assert not read


def test_atkinson_witness_identities():
    inst = get_instance("mat2-proj")
    a, m = inst.algebra, inst.module
    pt, tt = tilde_pair(inst.p, inst.t, inst.weight)
    for i in range(a.dim):
        for j in range(m.dim):
            av, mv = a.basis(i), m.basis(j)
            n = atkinson_witness(inst, av, mv)
            lhs = _apply(m, apply_mat(inst.p, av), apply_mat(inst.t, mv))
            assert lhs == apply_mat(inst.t, n)
            lhs2 = _apply(m, apply_mat(pt, av), apply_mat(tt, mv))
            assert lhs2 == vec_scale(MINUS_ONE, apply_mat(tt, n))


def _scalar_witness(inst, av, mv):
    """n = P(a) . m + a . (T + lam)(m), on Scalars."""
    m, tl = inst.module, _scalar_shifted(inst.t.dense(), inst.weight)
    return tuple(x + y for x, y in zip(_apply(m, apply_mat(inst.p, av), mv),
                                       _apply(m, av, apply_mat(tl, mv))))


def _seeded_instance(field, scale, seed):
    """A random P with the generic integral operator of C_2 at weight -1,
    which pairs with every P."""
    c2 = cyclic_group_algebra(2, field)
    module = regular_action(c2.algebra, "left")
    p = mat_scale(field.of(scale),
                  operator_of(field, 2, rbcore._random_entries(2, seed, 0)).dense())
    inst = RbpInstance(c2.algebra, module, p, module.matrix(normalized_group_integral(c2)),
                       -field.one, name=f"seeded-{field}")
    assert check_rbp_module(inst).ok
    return inst


def _witness_instances():
    mat2, module, e = _left_mult_by_e11_plus_e12()
    return [get_instance("mat2-proj"), RbpInstance(mat2, module, e, e, MINUS_ONE, name="e11+e12"),
            _nilpotent_instance(2), _seeded_instance(Q, Fraction(1, 3), "atkinson"),
            _seeded_instance(F5, 2, "atkinson")]


def test_atkinson_witness_matches_the_scalar_formula():
    rng = random.Random("atkinson-vectors")
    for inst in _witness_instances():
        a, m, f = inst.algebra, inst.module, inst.field
        pairs = [(a.basis(i), m.basis(j)) for i in range(a.dim) for j in range(m.dim)]
        pairs += [(vec(f, [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(a.dim)]),
                   vec(f, [rng.randint(-3, 3) for _ in range(m.dim)])) for _ in range(5)]
        for av, mv in pairs:
            n = atkinson_witness(inst, av, mv)
            assert n == _scalar_witness(inst, av, mv), inst.name
            assert _apply(m, apply_mat(inst.p, av), apply_mat(inst.t, mv)) == apply_mat(inst.t, n)


def test_atkinson_needs_nonzero_weight():
    inst = get_instance("mat2-proj")
    zero_weight = RbpInstance(inst.algebra, inst.module,
                              zeros_mat(Q, 4, 4), zeros_mat(Q, 4, 4), Q.zero)
    assert check_rbp_module(zero_weight).ok
    with pytest.raises(PreconditionError):
        atkinson_witness(zero_weight, inst.algebra.basis(0), inst.module.basis(0))


def test_atkinson_solvability_tracks_verification():
    inst = get_instance("mat2-proj")
    assert atkinson_solvable(inst.algebra, inst.module, inst.p, inst.t, inst.weight)
    bad_t = inst.algebra.left_mult(inst.algebra.basis(1))
    assert not atkinson_solvable(inst.algebra, inst.module, inst.p, bad_t, inst.weight)


# -- constructions ------------------------------------------------------------


def test_direct_sum_blocks():
    inst = get_instance("mat2-proj")
    doubled = direct_sum([inst, inst])
    assert doubled.module.dim == 8
    assert check_rbp_module(doubled).ok


def test_direct_sum_rejects_mixed_weights():
    inst = get_instance("mat2-proj")
    other = scale_weight(inst, Q.of(2))
    with pytest.raises(Exception):
        direct_sum([inst, other])


def test_scale_weight():
    inst = get_instance("c2-integral-proj")
    scaled = scale_weight(inst, Q.of(3))
    assert scaled.weight == Q.of(-3)
    assert scaled.verified == "pass"


def test_double_construction_star_is_nonunital():
    mat2 = _mat2()
    module = get("mat2-regular-module").payload
    p = mat2.left_mult(mat2.basis(0))
    star, tri, inst = double_construction(mat2, p, module, p, MINUS_ONE)
    assert star.unit is None
    assert inst.verified == "pass"
    # star product of E22 with itself: E22 * E22 = 2 E22 P(E22) + lam E22^2
    e22 = star.basis(3)
    assert star.mul(e22, e22) == vec_scale(MINUS_ONE, mat2.basis(3))


def test_double_construction_on_the_zero_algebra():
    # the star algebra of a zero-dimensional algebra checks nothing and skips
    # both unit axioms; a postcondition rejects only a violation
    zero = FinAlgebra(Q, 0, (), (), None, name="zero")
    module = ActionStructure(zero, 1, "left", (), name="zero-module")
    star, tri, inst = double_construction(zero, (), module, identity(Q, 1), MINUS_ONE)
    assert star.dim == 0 and star.unit is None
    assert check_rbp_module(inst).result == "pass"


def test_double_construction_needs_rb_hypothesis():
    mat2 = _mat2()
    module = get("mat2-regular-module").payload
    bad_p = mat2.left_mult(mat2.basis(1))
    with pytest.raises(PreconditionError):
        double_construction(mat2, bad_p, module, bad_p, MINUS_ONE)


def _random_tensor(rng, field, a, b, c):
    return tuple(tuple(tuple(field.of(rng.randint(-2, 2)) for _ in range(c))
                       for _ in range(b)) for _ in range(a))


# P = 0 and T = 0 satisfy the operator and the paired identity on any A and
# M, so only the algebra and module preconditions can refuse these inputs;
# without them the postconditions on the star algebra fail instead
@pytest.mark.parametrize("seed", range(4))
def test_double_construction_refuses_a_non_associative_algebra(seed):
    rng = random.Random(f"double-algebra:{seed}")
    f5 = prime_field(5)
    a = FinAlgebra(f5, 2, ("x", "y"), _random_tensor(rng, f5, 2, 2, 2), None, name="random")
    assert check_algebra(a).violation_count
    zero = zeros_mat(f5, 2, 2)
    with pytest.raises(PreconditionError,
                       match=r"needs A to be an algebra; first witness \{'axiom': 'assoc'"):
        double_construction(a, zero, regular_action(a, "left"), zero, -f5.one)


@pytest.mark.parametrize("seed", range(4))
def test_double_construction_refuses_a_non_module(seed):
    rng = random.Random(f"double-module:{seed}")
    c2 = get("group-algebra-c2").payload.algebra
    m = ActionStructure(c2, 2, "left", _random_tensor(rng, Q, 2, 2, 2), name="random")
    assert check_action(m).violation_count
    with pytest.raises(PreconditionError,
                       match=r"needs M to be an A-module; first witness \{'axiom': 'action-"):
        double_construction(c2, zeros_mat(Q, 2, 2), m, zeros_mat(Q, 2, 2), MINUS_ONE)


def test_idempotent_identities_on_projection():
    rep = idempotent_identities(get_instance("mat2-proj"))
    assert rep.ok
    assert "T-after-T-vanishes" in rep.checked


def _nilpotent_instance(lam):
    """A verified instance at weight lam whose idempotent identities carry
    the factor 1 + lam, with P and T idempotent and neither symmetric.

    A is the zero algebra on x, y; x and y act on k^3 by E23 and E21, so
    every product of two actions vanishes and M is an A-module.  T projects
    onto f1 + f2 along f2, f3 and P sends x and y to x; then T kills the
    image of both actions, so the paired identity holds at any weight, while
    act(y) T and T^t act(x) do not vanish."""
    a = FinAlgebra(Q, 2, ("x", "y"), ((mat(Q, [[0, 0]] * 2),) * 2), None, name="zero2")
    e23, e21 = mat(Q, [[0, 0, 0], [0, 0, 1], [0, 0, 0]]), mat(Q, [[0, 0, 0], [1, 0, 0], [0, 0, 0]])
    act = tuple(tuple(tuple(x[k][j] for k in range(3)) for j in range(3)) for x in (e23, e21))
    module = ActionStructure(a, 3, "left", act, name="k3")
    t = mat(Q, [[1, 0, 0], [1, 0, 0], [0, 0, 0]])
    return RbpInstance(a, module, mat(Q, [[1, 1], [0, 0]]), t, Q.of(lam), name="nilpotent")


@pytest.mark.parametrize("lam", [1, 2, -3])
def test_idempotent_identities_away_from_weight_minus_one(lam):
    inst = _nilpotent_instance(lam)
    assert check_action(inst.module).ok and check_rbp_module(inst).ok
    rep = idempotent_identities(inst)
    assert rep.ok and not rep.skipped
    assert rep.checked == ("T-after-T-vanishes", "T-after-P-vanishes", "P-T-cross-term")


def _left_mult_by_e11_plus_e12():
    """P = T = left multiplication by the idempotent E11 + E12 of M_2, which
    no basis matrix unit diagonalizes; conjugate to the mat2-proj instance."""
    mat2 = _mat2()
    e = mat2.left_mult(tuple(x + y for x, y in zip(mat2.basis(0), mat2.basis(1))))
    return mat2, get("mat2-regular-module").payload, e


def test_atkinson_solvability_with_non_diagonal_operators():
    mat2, module, e = _left_mult_by_e11_plus_e12()
    assert e.dense() != tuple(zip(*e.dense()))  # neither diagonal nor symmetric
    assert check_rbp_module(RbpInstance(mat2, module, e, e, MINUS_ONE)).ok
    assert atkinson_solvable(mat2, module, e, e, MINUS_ONE)
    f = mat2.left_mult(mat2.basis(1))
    assert not check_rbp_module(RbpInstance(mat2, module, e, f, MINUS_ONE)).ok
    assert not atkinson_solvable(mat2, module, e, f, MINUS_ONE)


def test_image_closure_with_non_diagonal_operators():
    # P(e_i) is column i of P; P's row i, read instead, moves T(M) off itself here
    mat2, module, e = _left_mult_by_e11_plus_e12()
    inst = RbpInstance(mat2, module, e, e, MINUS_ONE)
    assert check_rbp_module(inst).ok
    assert image_closed_under_p_action(inst)


def test_double_construction_with_non_diagonal_operators():
    mat2, module, e = _left_mult_by_e11_plus_e12()
    assert check_rbp_module(RbpInstance(mat2, module, e, e, MINUS_ONE)).ok
    star, tri, inst = double_construction(mat2, e, module, e, MINUS_ONE)
    assert inst.verified == "pass" and check_algebra(star).ok and check_action(tri).ok
    # x * y = P(x) y + x P(y) - xy, with P(x) = (E11 + E12) x
    for i, j in product(range(4), repeat=2):
        x, y = mat2.basis(i), mat2.basis(j)
        px, py = apply_mat(e, x), apply_mat(e, y)
        want = tuple(u + v - w for u, v, w in zip(mat2.mul(px, y), mat2.mul(x, py),
                                                   mat2.mul(x, y)))
        assert star.mul(x, y) == want


def test_idempotent_identities_skip_without_idempotency():
    c2 = get("group-algebra-c2").payload
    module = get("c2-regular-module").payload
    t = mat_scale(Q.of(2), module.matrix(normalized_group_integral(c2)).dense())
    p = mat_scale(Q.of(2), identity(Q, 2))
    inst = RbpInstance(c2.algebra, module, p, t, Q.of(-2))
    assert check_rbp_module(inst).ok
    rep = idempotent_identities(inst)
    assert "T-after-T-vanishes" in rep.skipped


def test_image_closure():
    for name in list_instances():
        assert image_closed_under_p_action(get_instance(name)), name


def test_unverified_instances_are_rejected_by_constructions():
    mat2 = _mat2()
    left = regular_action(mat2, "left")
    bad = RbpInstance(mat2, left, identity(Q, 4), mat2.left_mult(mat2.basis(1)),
                      MINUS_ONE)
    with pytest.raises(PreconditionError):
        atkinson_witness(bad, mat2.basis(0), mat2.basis(0))


def test_random_entries_are_prefixes_of_one_stream():
    fresh = random.Random("prefix:3")
    stream = [fresh.choice((-2, -1, 0, 1, 2)) for _ in range(25)]
    small = rbcore._random_entries(2, "prefix", 3)
    large = rbcore._random_entries(5, "prefix", 3)  # longer than the kept draws
    again = rbcore._random_entries(3, "prefix", 3)  # a prefix of the kept draws
    assert list(large) == stream
    assert small == large[:4] and again == large[:9]
    assert isinstance(large, tuple)


def test_random_operator_is_seed_deterministic():
    a = operator_of(Q, 3, rbcore._random_entries(3, "s", 7))
    b = operator_of(Q, 3, rbcore._random_entries(3, "s", 7))
    c = operator_of(Q, 3, rbcore._random_entries(3, "s", 8))
    assert a == b
    assert a != c
