"""Module and comodule structures, their compatibility checkers, coinvariants."""

import pytest

from hopfrb import actions
from hopfrb.exactlin import RATIONAL, DimensionError, FieldError, contract, prime_field, vec
from hopfrb.structures import StructureError, dual_algebra
from hopfrb.actions import (
    ActionStructure,
    CoactionStructure,
    Dimodule,
    WeakComoduleAlgebra,
    check_action,
    check_coaction,
    check_dimodule,
    check_doi_hopf,
    check_hopf_module,
    check_module_algebra,
    check_weak_comodule_algebra,
    coaction_to_dual_action,
    coinvariants,
    regular_action,
    regular_coaction,
    smash_product,
    trivial_action,
)
from hopfrb.catalog import get

Q = RATIONAL


def _apply(module, r, v):
    """The Scalar vector r . v for the action `module`."""
    return contract("i,j,ijk->k", r, v, module).dense()


# -- actions ------------------------------------------------------------------


def test_regular_actions_pass_both_sides():
    mat2 = get("mat2-rational").payload
    for side in ("left", "right"):
        assert check_action(regular_action(mat2, side)).ok


def test_action_side_changes_matrix():
    mat2 = get("mat2-rational").payload
    e12 = mat2.basis(1)
    left = regular_action(mat2, "left")
    right = regular_action(mat2, "right")
    assert left.matrix(e12) == mat2.left_mult(e12)
    assert right.matrix(e12) == mat2.right_mult(e12)
    assert left.matrix(e12) != right.matrix(e12)


def test_broken_action_witnessed():
    c2 = get("group-algebra-c2").payload.algebra
    # g acts by a non-involution, violating g . (g . m) = m
    act = (
        ((Q.of(1), Q.zero), (Q.zero, Q.of(1))),
        ((Q.zero, Q.of(1)), (Q.zero, Q.zero)),
    )
    rep = check_action(ActionStructure(c2, 2, "left", act))
    assert not rep.ok
    assert rep.violations[0].axiom == "action-assoc"


def test_trivial_action_is_counit_scaling():
    c2 = get("group-algebra-c2").payload
    act = trivial_action(c2, 3)
    assert check_action(act).ok
    g = vec(Q, [0, 1])
    m = vec(Q, [1, 2, 3])
    assert _apply(act, g, m) == m  # eps(g) = 1


def test_operators_refuse_a_vector_of_another_field_or_length():
    act = trivial_action(get("group-algebra-c2").payload, 3)
    g = vec(Q, [0, 1])
    with pytest.raises(FieldError, match="mixed fields"):
        act.matrix(vec(prime_field(5), [x.value for x in g]))
    with pytest.raises(DimensionError):
        act.matrix(g[:-1])


# -- coactions ----------------------------------------------------------------


def test_regular_coaction_passes():
    for name in ("group-algebra-c2", "sweedler-h4", "weak-pair-groupoid"):
        com = regular_coaction(get(name).payload)
        assert check_coaction(com).ok


def test_broken_coaction_witnessed():
    c2 = get("group-algebra-c2").payload
    co = regular_coaction(c2).co.dense()
    # drop one structure constant: counit law breaks
    broken = tuple(
        tuple(
            tuple(Q.zero if (i, j, k) == (1, 1, 1) else co[i][j][k] for k in range(2))
            for j in range(2)
        )
        for i in range(2)
    )
    rep = check_coaction(CoactionStructure(c2.coalgebra, 2, broken))
    assert not rep.ok


def test_dual_action_from_coaction():
    c2 = get("group-algebra-c2").payload
    act = coaction_to_dual_action(regular_coaction(c2), dual_algebra(c2))
    assert check_action(act).ok
    # delta_g . g = g, delta_g . 1 = 0
    g = vec(Q, [0, 1])
    assert _apply(act, vec(Q, [0, 1]), g) == g
    assert _apply(act, vec(Q, [0, 1]), vec(Q, [1, 0])) == vec(Q, [0, 0])


# -- coinvariants -------------------------------------------------------------


def test_strict_coinvariants_of_regular():
    c2 = get("group-algebra-c2").payload
    basis = coinvariants(regular_coaction(c2), "strict", c2).dense()
    assert len(basis) == 1
    # only multiples of 1 satisfy Delta(m) = m (x) 1 for a grouplike basis
    assert basis[0][1].is_zero and not basis[0][0].is_zero


def test_weak_coinvariants_need_weak_host():
    c2 = get("group-algebra-c2").payload
    with pytest.raises(StructureError):
        coinvariants(regular_coaction(c2), "weak", c2)


def test_weak_coinvariants_of_pair_groupoid():
    w = get("weak-pair-groupoid").payload
    weak = coinvariants(regular_coaction(w), "weak", w)
    strict = coinvariants(regular_coaction(w), "strict", w)
    # weak coinvariants contain the strict ones and here are strictly larger
    assert weak.shape[0] > strict.shape[0]


# -- composite structures -----------------------------------------------------


def test_catalog_dimodules_verify():
    for name in ("c2-trivial-dimodule", "c2-long-dimodule"):
        assert check_dimodule(get(name).payload).ok


def test_dimodule_report_is_kept_on_the_dimodule(monkeypatch):
    walks = []

    class Counting(actions.Checker):
        def __init__(self, check, instance=""):
            if check == "dimodule":
                walks.append(instance)
            super().__init__(check, instance)

    monkeypatch.setattr(actions, "Checker", Counting)
    c2 = get("group-algebra-c2").payload
    d = Dimodule(c2, regular_action(c2.algebra, "left"), regular_coaction(c2), name="d")
    rep = check_dimodule(d)
    assert check_dimodule(d) is rep
    assert walks == ["d"]
    # equal but not the same object: walked again, never looked up by value
    twin = Dimodule(c2, d.action, d.coaction, name="d")
    assert twin == d and twin is not d
    again = check_dimodule(twin)
    assert again == rep and again is not rep
    assert walks == ["d", "d"]


def test_dimodule_compatibility_violation():
    c2 = get("group-algebra-c2").payload
    # regular action with regular coaction: rho(g . 1) = g (x) g but the
    # dimodule law wants g . 1 (x) 1
    d = Dimodule(c2, regular_action(c2.algebra, "left"), regular_coaction(c2))
    rep = check_dimodule(d)
    assert not rep.ok
    assert rep.violations[0].axiom == "dimodule-law"


def test_dimodule_counts_every_violation_of_its_action():
    c3 = get("group-algebra-c3").payload
    # e acts as id and g, g^2 as 2 id, so the law fails on the four products
    # g^a g^b with a, b > 0
    scale = (Q.one, Q.of(2), Q.of(2))
    bad = ActionStructure(c3.algebra, 1, "left", tuple(((c,),) for c in scale))
    assert check_action(bad).violation_count == 4
    trivial = CoactionStructure(c3.coalgebra, 1, ((c3.algebra.unit.dense(),),))  # rho(m) = m (x) 1
    rep = check_dimodule(Dimodule(c3, bad, trivial))
    assert rep.violations[0].axiom == "action-assoc"
    assert rep.violation_count == 4


def test_catalog_hopf_modules_verify():
    for name in ("c2-regular-hopf-module", "c3-regular-hopf-module"):
        assert check_hopf_module(get(name).payload).ok


def test_doi_hopf_verifies_and_rejects():
    doi = get("pair-groupoid-doi-hopf").payload
    assert check_doi_hopf(doi).ok
    assert check_weak_comodule_algebra(doi.comodule_algebra).ok
    w = get("weak-pair-groupoid").payload
    # a coaction on a carrier of another dimension is refused
    trivial = CoactionStructure(w.coalgebra, 3, tuple(
        tuple(w.algebra.unit.dense() if i == j else (Q.zero,) * w.dim for j in range(3))
        for i in range(3)))
    with pytest.raises(StructureError):
        WeakComoduleAlgebra(w, w.algebra, trivial)


# -- module algebras and smash products ---------------------------------------


def test_sign_action_is_module_algebra():
    c2 = get("group-algebra-c2").payload
    kx = get("kx-mod-x2").payload
    act = get("kx-mod-x2-with-c2-action").payload
    assert check_module_algebra(c2, kx, act).ok


def test_regular_action_not_module_algebra():
    # left regular action of kC2 on itself: g . (xy) != (g . x)(g . y) fails
    # nothing, but g . 1 = g breaks unit preservation
    c2 = get("group-algebra-c2").payload
    rep = check_module_algebra(c2, c2.algebra, regular_action(c2.algebra, "left"))
    assert not rep.ok


def test_smash_product_of_sign_action():
    c2 = get("group-algebra-c2").payload
    kx = get("kx-mod-x2").payload
    act = get("kx-mod-x2-with-c2-action").payload
    smash = smash_product(kx, c2, act)
    assert smash.dim == 4
    from hopfrb.structures import check_algebra

    assert check_algebra(smash).ok
    # (x # 1)(1 # g) = x # g but (1 # g)(x # 1) = (g . x) # g = -x # g
    x_one = smash.mul(smash.basis(2), smash.basis(1))
    one_g = smash.mul(smash.basis(1), smash.basis(2))
    assert x_one != one_g
    assert x_one == vec(Q, [0, 0, 0, -1]) or one_g == vec(Q, [0, 0, 0, -1])
