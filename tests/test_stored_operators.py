"""The records' stored form of operators: P, T, antipodes, pairings, R-matrices.

`RbpInstance.p` and `.t`, `PairingSystem.t`, the antipode of a Hopf or weak
Hopf algebra, `PairingForm.sigma`, `RMatrix.r` and `.rinv` and
`SubAlgebra.inclusion` hold a `RawTensor`.  A constructor takes that tensor,
checked for its shape and field, or a dense Scalar matrix (an R-matrix's
legs a dense vector on the lex pair basis), read once; both give equal
records.  A wrong shape raises the old text, and an entry over another
field `FieldError`.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrb.actions import ActionStructure
from hopfrb.catalog import get, get_instance, list_entries, list_instances
from hopfrb.exactlin import (
    RATIONAL, DimensionError, FieldError, RawTensor, prime_field,
)
from hopfrb.hopfrb import PairingForm, RMatrix
from hopfrb.rbcore import (
    PairingSystem, RbpInstance, check_rbp_module, classify_generic, pairing_system,
)
from hopfrb.structures import (
    FinAlgebra, HopfAlgebra, StructureError, SubAlgebra, WeakHopfAlgebra, subalgebra_image,
    target_source,
)

Q, F5 = RATIONAL, prime_field(5)


def _names(*kinds):
    return [name for name, kind in list_entries() if kind in kinds]


def _instance(name, p=None, t=None):
    inst = get_instance(name)
    return RbpInstance(inst.algebra, inst.module, inst.p if p is None else p,
                       inst.t if t is None else t, inst.weight, name=inst.name)


def _host(name, s):
    h = get(name).payload
    if isinstance(h, HopfAlgebra):
        return HopfAlgebra(h.name, h.bialgebra, s)
    return WeakHopfAlgebra(h.name, h.weak, s)


def _system(t):
    m = get("c2-regular-module").payload
    s = pairing_system(m, get_instance("c2-integral-proj").t, -Q.one)
    return PairingSystem(m, t, s.weight, s.comms, s.rhs)


def _image():
    w = get("weak-pair-groupoid").payload
    return subalgebra_image(target_source(w)[0], w.algebra)


# (the catalog record, its builder from one operator, the field holding the
# operator, the text of a ragged dense operator, with {} for the record's
# name), one per stored operator
OPERATORS = {
    **{f"{name}:p": (lambda n=name: get_instance(n), lambda x, n=name: _instance(n, p=x), "p",
                     f"{name}: P is not dim(A)-square") for name in list_instances()},
    **{f"{name}:t": (lambda n=name: get_instance(n), lambda x, n=name: _instance(n, t=x), "t",
                     f"{name}: T is not dim(M)-square") for name in list_instances()},
    **{f"{name}:antipode": (lambda n=name: get(n).payload, lambda x, n=name: _host(n, x),
                            "antipode", "{}: antipode is not dim x dim")
       for name in _names("hopf", "weak-hopf")},
    **{f"{name}:sigma": (lambda n=name: get(n).payload,
                         lambda x, n=name: PairingForm(get(n).payload.host, x), "sigma",
                         "pairing form is not dim x dim") for name in _names("pairing")},
    "pairing-system:t": (lambda: _system(get_instance("c2-integral-proj").t), _system, "t",
                         "c2-regular-left: T is not dim(M)-square"),
    "target-image:inclusion": (_image, lambda x: SubAlgebra(_image().algebra, x), "inclusion",
                               "pair-groupoid-image: inclusion is not ambient dim x dim"),
}


@pytest.fixture(params=sorted(OPERATORS))
def operator(request):
    record, build, key, text = OPERATORS[request.param]
    rec = record()
    return (getattr(rec, key), lambda x: getattr(build(x), key), build,
            text.format(getattr(rec, "name", "")))


def test_the_stored_operator_is_raw_and_reads_back_its_dense_input(operator):
    op, read, build, _ = operator
    assert isinstance(op, RawTensor) and all(op.cells.values())
    assert read(op.dense()) == read(op) == op
    assert read(op.dense()).dense() == op.dense() and read(op.dense()).field == op.field
    assert build(op.dense()) == build(op)


def test_a_ragged_dense_operator_keeps_the_old_text(operator):
    op, _, build, text = operator
    dense = [list(row) for row in op.dense()]
    dense[-1].pop()
    with pytest.raises(DimensionError) as info:
        build(tuple(tuple(row) for row in dense))
    assert str(info.value) == text


def test_an_operator_over_another_field_is_refused(operator):
    op, _, build, _ = operator
    other = F5 if op.field == Q else Q
    with pytest.raises(FieldError):
        build(RawTensor(other, op.shape, dict(op.cells)))
    with pytest.raises(FieldError, match="a dense entry is not in"):
        build(RawTensor(other, op.shape, dict(op.cells)).dense())


def test_a_raw_operator_of_another_shape_is_refused(operator):
    op, _, build, _ = operator
    with pytest.raises(DimensionError):
        build(RawTensor(op.field, (op.shape[0], op.shape[1] + 1), dict(op.cells)))


def test_an_instance_over_q_refuses_an_operator_over_f5_when_built():
    inst = get_instance("mat2-proj")
    p_f5 = RawTensor(F5, inst.p.shape, dict(inst.p.cells)).dense()
    with pytest.raises(FieldError, match="a dense entry is not in Q"):
        RbpInstance(inst.algebra, inst.module, p_f5, inst.t, inst.weight)


@pytest.mark.parametrize("name", _names("rmatrix"))
def test_an_r_matrix_reads_its_legs_dense_or_raw(name):
    rm = get(name).payload
    n = rm.host.dim
    assert rm.r.shape == rm.rinv.shape == (n, n)
    flat = [rm.r.joined(2).dense(), rm.rinv.joined(2).dense()]
    assert RMatrix(rm.host, *flat) == RMatrix(rm.host, rm.r, rm.rinv) == rm
    with pytest.raises(StructureError, match="tensor-square element has wrong length"):
        RMatrix(rm.host, flat[0][:-1], flat[1])
    with pytest.raises(FieldError):
        RMatrix(rm.host, RawTensor(F5, (n, n), dict(rm.r.cells)), rm.rinv)
    with pytest.raises(DimensionError):
        RMatrix(rm.host, RawTensor(rm.r.field, (n * n,), {}), rm.rinv)


# -- dense and raw T give one answer ------------------------------------------


VALUES = st.sampled_from([0, 0, 0, 1, -1, 2])


@st.composite
def _problems(draw, field):
    """A random algebra of dim <= 3 acting on a module of dim <= 3, with
    random P and T; neither the algebra nor the action need satisfy their
    axioms, since both checkers read only the identity."""
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))

    def tensor(*shape):
        cells = {}
        for idx in _indices(shape):
            cells[idx] = draw(VALUES)
        return RawTensor.read(field, shape, cells)

    a = FinAlgebra(field, n, tuple(f"e{i}" for i in range(n)), tensor(n, n, n))
    module = ActionStructure(a, m, draw(st.sampled_from(["left", "right"])), tensor(n, m, m))
    return module, tensor(n, n), tensor(m, m), field.of(draw(VALUES))


def _indices(shape):
    if not shape:
        return [()]
    return [(i, *rest) for i in range(shape[0]) for rest in _indices(shape[1:])]


@pytest.mark.parametrize("field", [prime_field(2), prime_field(3), Q], ids=str)
@settings(deadline=None, max_examples=40)
@given(data=st.data())
def test_dense_and_raw_t_give_equal_reports_and_verdicts(field, data):
    module, p, t, lam = data.draw(_problems(field))
    a = module.algebra
    reports = [check_rbp_module(RbpInstance(a, module, p, x, lam, name="x"))
               for x in (t.dense(), t)]
    assert reports[0] == reports[1]
    verdicts = [classify_generic(module, x, lam, trials=4, seed="stored") for x in (t.dense(), t)]
    assert verdicts[0] == verdicts[1]
