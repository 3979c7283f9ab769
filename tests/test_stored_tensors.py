"""The records' stored form: structure constants and vectors as raw sparse cells.

`FinAlgebra.mult`, `FinCoalgebra.comult`, `ActionStructure.act` and
`CoactionStructure.co` hold a `RawTensor`, and so do `FinAlgebra.unit`,
`FinCoalgebra.counit` and `Functional.coords`, of shape (dim,).  A
constructor takes either that tensor, checked for its shape and field, or
a dense Scalar tensor or vector, read once; both give equal records, with
equal hashes and reprs.
"""

import pytest

from hopfrb.actions import (
    ActionStructure, CoactionStructure, coaction_to_dual_action, regular_action,
    regular_coaction, trivial_action,
)
from hopfrb.catalog import get
from hopfrb.catalog import sweedler_h4
from hopfrb.exactlin import (
    RATIONAL, DimensionError, FieldError, RawTensor, contract, prime_field, vec,
)
from hopfrb.structures import (
    FinAlgebra, FinCoalgebra, Functional, check_algebra, convolution, dual_algebra,
)

Q, F5 = RATIONAL, prime_field(5)


def _h4():
    return get("sweedler-h4").payload


def _rebuilt(carrier, tensor):
    """The carrier built again with `tensor` as its structure constants."""
    if isinstance(carrier, FinAlgebra):
        return FinAlgebra(carrier.field, carrier.dim, carrier.labels, tensor, carrier.unit,
                          name=carrier.name)
    if isinstance(carrier, FinCoalgebra):
        return FinCoalgebra(carrier.field, carrier.dim, carrier.labels, tensor, carrier.counit)
    if isinstance(carrier, ActionStructure):
        return ActionStructure(carrier.algebra, carrier.dim, carrier.side, tensor,
                               name=carrier.name)
    return CoactionStructure(carrier.coalgebra, carrier.dim, tensor, name=carrier.name)


def _stored(carrier) -> RawTensor:
    return getattr(carrier, carrier._stored)


# (carrier, the text a ragged dense tensor raises)
CARRIERS = {
    "algebra": (lambda: _h4().algebra, "h4: mult tensor is not dim^3"),
    "coalgebra": (lambda: _h4().coalgebra, "coalgebra: comult tensor is not dim^3"),
    "action": (lambda: get("kx-mod-x2-with-c2-action").payload,
               "kx-mod-x2-with-c2-action: action tensor is not adim x mdim x mdim"),
    "coaction": (lambda: get("pair-groupoid-self-comodule").payload,
                 "pair-groupoid-regular-coaction: coaction tensor is not mdim x mdim x cdim"),
}


@pytest.fixture(params=sorted(CARRIERS))
def carrier(request):
    make, ragged = CARRIERS[request.param]
    return make(), ragged


def test_the_stored_tensor_is_raw_and_carries_the_field(carrier):
    x, _ = carrier
    t = _stored(x)
    assert isinstance(t, RawTensor)
    assert t.field == x.field
    assert all(v for v in t.cells.values())


@pytest.mark.parametrize("where", ["outer", "middle", "inner"])
def test_a_ragged_dense_tensor_raises_the_old_text(carrier, where):
    x, text = carrier
    dense = [[list(row) for row in plane] for plane in _stored(x).dense()]
    if where == "outer":
        dense.pop()
    elif where == "middle":
        dense[-1].pop()
    else:
        dense[-1][-1].append(x.field.zero)
    with pytest.raises(DimensionError) as info:
        _rebuilt(x, tuple(tuple(tuple(r) for r in p) for p in dense))
    assert str(info.value) == text


def test_a_raw_tensor_of_another_shape_is_refused(carrier):
    x, text = carrier
    t = _stored(x)
    wrong = RawTensor(x.field, (t.shape[0] + 1, *t.shape[1:]), dict(t.cells))
    with pytest.raises(DimensionError, match="tensor is not"):
        _rebuilt(x, wrong)
    flat = RawTensor(x.field, t.shape[:2], {})
    with pytest.raises(DimensionError, match="tensor is not"):
        _rebuilt(x, flat)


def test_a_raw_tensor_over_another_field_is_refused(carrier):
    x, _ = carrier
    t = _stored(x)
    other = F5 if x.field == Q else Q
    with pytest.raises(FieldError, match="tensor is over"):
        _rebuilt(x, RawTensor(other, t.shape, dict(t.cells)))


def test_a_dense_tensor_over_another_field_is_refused(carrier):
    x, _ = carrier
    other = F5 if x.field == Q else Q
    dense = RawTensor(other, _stored(x).shape, dict(_stored(x).cells)).dense()
    with pytest.raises(FieldError, match=f"a dense entry is not in {x.field}"):
        _rebuilt(x, dense)


def test_dense_and_raw_input_give_one_carrier(carrier):
    x, _ = carrier
    t = _stored(x)
    from_dense, from_raw = _rebuilt(x, t.dense()), _rebuilt(x, t)
    assert from_dense == from_raw == x
    assert hash(from_dense) == hash(from_raw) == hash(x)
    assert repr(from_dense) == repr(from_raw) == repr(x)
    assert _stored(from_raw) is t  # a raw tensor over the carrier's field is kept as given
    assert _stored(from_dense) is not t


def test_a_tensor_of_empty_operands_takes_the_carrier_field():
    # contract over dim-0 operands has no field to read; the carrier's is stored
    empty = contract("ij,jk->ik", (), ())
    assert empty.field is None
    t = RawTensor(None, (0, 0, 0), {})
    alg = FinAlgebra(F5, 0, (), t, None)
    assert alg.mult.field == F5
    assert alg == FinAlgebra(F5, 0, (), (), None)


def test_the_repr_lists_sorted_cells_and_no_address():
    a = RawTensor(Q, (2, 2), {(1, 0): 3, (0, 1): 2})
    b = RawTensor(Q, (2, 2), {(0, 1): 2, (1, 0): 3})
    assert repr(a) == repr(b) == (
        "RawTensor(field=FieldSpec(kind='rational', p=0), shape=(2, 2), "
        "cells={(0, 1): 2, (1, 0): 3})")
    assert a == b and hash(a) == hash(b)
    assert a != RawTensor(Q, (2, 3), dict(a.cells))
    for name in CARRIERS:
        assert " at 0x" not in repr(CARRIERS[name][0]())


def test_the_regular_carriers_share_the_stored_tensor():
    h4 = _h4()
    assert regular_coaction(h4).co is h4.coalgebra.comult
    assert regular_action(h4.algebra, "left").act is h4.algebra.mult


def test_the_transposed_carriers_read_the_right_cells():
    h4 = _h4()
    alg, co, n = h4.algebra, h4.coalgebra, h4.dim
    mult, comult = alg.mult.dense(), co.comult.dense()
    right = regular_action(alg, "right").act.dense()
    assert all(right[i][j][k] == mult[j][i][k]
               for i in range(n) for j in range(n) for k in range(n))
    dual = dual_algebra(h4).mult.dense()
    assert all(dual[i][j][k] == comult[k][i][j]
               for i in range(n) for j in range(n) for k in range(n))
    com = regular_coaction(h4)
    act = coaction_to_dual_action(com).act.dense()
    assert all(act[u][i][j] == comult[i][j][u]
               for u in range(n) for i in range(n) for j in range(n))
    trivial = trivial_action(h4, 3).act.dense()
    assert all(trivial[i][j][k] == (co.counit.dense()[i] if j == k else Q.zero)
               for i in range(n) for j in range(3) for k in range(3))


def test_the_dual_product_is_convolution_on_a_noncocommutative_host():
    h4 = _h4()
    dual = dual_algebra(h4)
    for i in range(h4.dim):
        for j in range(h4.dim):
            f, g = dual.basis(i), dual.basis(j)
            assert dual.mul(f, g) == convolution(Functional(h4, f), Functional(h4, g)).coords.dense()


# -- units, counits and functionals' coordinates --------------------------------


def _vector_records(h):
    """name -> (the stored vector, the record built again from a vector, the
    text a vector of another length raises)."""
    alg, co = h.algebra, h.coalgebra
    chi = Functional(h, vec(h.field, [1, 2, 0, -1]))
    return {
        "unit": (alg.unit, lambda v: FinAlgebra(alg.field, alg.dim, alg.labels, alg.mult, v,
                                                name=alg.name), "h4: unit length != dim"),
        "counit": (co.counit, lambda v: FinCoalgebra(co.field, co.dim, co.labels, co.comult, v),
                   "coalgebra: counit length != dim"),
        "coords": (chi.coords, lambda v: Functional(h, v),
                   "functional coordinate length != host dim"),
    }


@pytest.fixture(params=["unit", "counit", "coords"])
def vector(request):
    return _vector_records(_h4())[request.param]


def test_dense_and_raw_vectors_give_one_record(vector):
    raw, rebuild, _ = vector
    assert isinstance(raw, RawTensor) and raw.shape == (4,) and raw.field == Q
    from_dense, from_raw = rebuild(raw.dense()), rebuild(raw)
    assert from_dense == from_raw
    assert hash(from_dense) == hash(from_raw)
    assert repr(from_dense) == repr(from_raw)
    assert " at 0x" not in repr(from_raw)


@pytest.mark.parametrize("length", [3, 5])
def test_a_vector_of_another_length_raises_the_old_text(vector, length):
    raw, rebuild, text = vector
    dense = (raw.dense() + (Q.one,) * 4)[:length]
    with pytest.raises(DimensionError) as info:
        rebuild(dense)
    assert str(info.value) == text
    with pytest.raises(DimensionError) as info:
        rebuild(RawTensor(Q, (length,), {}))
    assert str(info.value) == f"{text}: raw shape ({length},)"


def test_a_vector_over_another_field_is_refused(vector):
    raw, rebuild, _ = vector
    over_f5 = RawTensor(F5, raw.shape, dict(raw.cells))
    with pytest.raises(FieldError, match="is over F_5, not Q"):
        rebuild(over_f5)
    with pytest.raises(FieldError, match="a dense entry is not in Q"):
        rebuild(over_f5.dense())


def test_no_unit_stays_nonunital():
    alg = _h4().algebra
    bare = FinAlgebra(alg.field, alg.dim, alg.labels, alg.mult, None, name="bare")
    assert bare.unit is None and not bare.unital
    assert check_algebra(bare).skipped == ("unit-left", "unit-right")


@pytest.mark.parametrize("field", [Q, F5])
def test_functionals_and_the_counit_give_the_scalar_sums(field):
    h = sweedler_h4(field)
    chi = Functional(h, vec(field, [3, -1, 2, 0]))
    coords, counit = chi.coords.dense(), h.coalgebra.counit.dense()
    for x in ([0, 0, 0, 0], [1, 0, 0, 0], [0, 1, 2, 0], [2, 3, -1, 4], [0, 0, 5, 7]):
        x = vec(field, x)
        want_chi, want_eps = field.zero, field.zero
        for xi, c, e in zip(x, coords, counit):
            want_chi, want_eps = want_chi + xi * c, want_eps + xi * e
        assert chi(x) == want_chi and type(chi(x)) is type(want_chi)
        assert h.coalgebra.counit_of(x) == want_eps
