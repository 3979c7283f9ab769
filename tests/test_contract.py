"""`exactlin.contract` against plain dense loops, for every spec in src.

The specs are read from the package source, so a contraction is covered as
soon as it is written.  Each operand is random and mostly zero over Q, F_2,
F_5 or F_101, with an independent extent per index letter; a three-letter
operand is a stand-in carrier that offers only its raw view, so no
carrier's shape rule ties its letters together.  The reference walks every
assignment of every letter, zeros included; `contract` must return exactly
its nonzero cells, raw (reduced mod p, integral rationals as ints), with the
output letters' extents as the shape.
"""

import ast
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrb.exactlin import (
    _PLANS, RATIONAL, DimensionError, FieldError, RawTensor, contract, identity, prime_field,
)
from hopfrb.catalog import get
from hopfrb.structures import FinAlgebra

SRC = Path(__file__).resolve().parents[1] / "src" / "hopfrb"
F101 = prime_field(101)
FIELDS = (RATIONAL, prime_field(2), prime_field(5), F101)
# zero six times as likely as each other value; Q adds non-integral values,
# whose denominators need an lcm and whose products can cancel to ints, and
# F_101 values near p - 1, whose products `contract` leaves unreduced until a
# step sums or the last step
VALUES = [0, 0, 0, 0, 0, 0, 1, -1, 2, 3]
EXTRA_VALUES = {RATIONAL: [Fraction(1, 2), Fraction(-2, 3), Fraction(1, 3), Fraction(3, 4),
                           Fraction(-5, 6), Fraction(1, 7)],
                F101: [100, 99, 98]}


def _specs() -> list:
    """Every spec literal in the first argument of a `contract` call."""
    found = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "contract":
                found.update(c.value for c in ast.walk(node.args[0])
                             if isinstance(c, ast.Constant) and "->" in str(c.value))
    return sorted(found)


SPECS = _specs()
# shapes src does not write yet: one-operand sums and permutations, a first
# operand summed before the second is read, and three steps that sum nothing
EXTRA_SPECS = ["ij->i", "ijk->kj", "ij,k->k", "i,j,k->ijk"]


def _operand(field, letters: str, cells: dict, shape: tuple):
    if len(letters) == 3:
        a, b, c = shape
        t = tuple(tuple(tuple(cells[i, j, k] for k in range(c)) for j in range(b))
                  for i in range(a))
        return RawTensor.of(field, t, shape)
    if len(letters) == 2:
        return tuple(tuple(cells[i, j] for j in range(shape[1])) for i in range(shape[0]))
    return tuple(cells[i,] for i in range(shape[0]))


def test_the_package_states_its_sums_through_contract():
    assert len(SPECS) >= 40


@pytest.mark.parametrize("spec", SPECS + EXTRA_SPECS)
@settings(deadline=None, max_examples=8)
@given(data=st.data())
def test_contract_matches_dense_loops(spec, data):
    ins, out = spec.split("->")
    ins = ins.split(",")
    letters = sorted(set("".join(ins)))
    top = 3 if len(letters) <= 6 else 2
    dims = {c: data.draw(st.integers(1, top)) for c in letters}
    field = data.draw(st.sampled_from(FIELDS))
    values = st.sampled_from(VALUES + EXTRA_VALUES.get(field, []))
    dense = []
    for x in ins:
        shape = tuple(dims[c] for c in x)
        dense.append({idx: field.of(data.draw(values)) for idx in product(*map(range, shape))})
    operands = [_operand(field, x, cells, tuple(dims[c] for c in x))
                for x, cells in zip(ins, dense)]
    summed = [c for c in letters if c not in out]
    want = {}
    for o in product(*(range(dims[c]) for c in out)):
        acc = field.zero
        for s in product(*(range(dims[c]) for c in summed)):
            at = {**dict(zip(out, o)), **dict(zip(summed, s))}
            term = field.one
            for x, cells in zip(ins, dense):
                term = term * cells[tuple(at[c] for c in x)]
            acc = acc + term
        if not acc.is_zero:
            want[o] = acc.value
    got = contract(spec, *operands)
    assert got.shape == tuple(dims[c] for c in out)
    assert got.cells == want
    # raw values: ints reduced mod p, or over Q an int whenever integral
    for v in got.cells.values():
        if field.p:
            assert type(v) is int and 0 < v < field.p
        else:
            assert type(v) is (int if v.denominator == 1 else Fraction)


@pytest.mark.parametrize("spec", SPECS + EXTRA_SPECS)
@settings(deadline=None, max_examples=6)
@given(data=st.data())
def test_rational_contractions_reduce_mod_101_to_their_f101_answers(spec, data):
    """A second field as the oracle: the denominators of these values are
    units mod 101, so reducing is a ring map, and it commutes with every sum
    of products."""
    ins = spec.split("->")[0].split(",")
    letters = sorted(set("".join(ins)))
    top = 3 if len(letters) <= 6 else 2
    dims = {c: data.draw(st.integers(1, top)) for c in letters}
    value = st.sampled_from([0, 0, 0, 1, -2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(3, 4),
                             Fraction(-5, 6), Fraction(1, 7), Fraction(7, 12), Fraction(11, 10)])
    q_ops, p_ops = [], []
    for x in ins:
        shape = tuple(dims[c] for c in x)
        entries = {idx: data.draw(value) for idx in product(*map(range, shape))}
        q_ops.append(RawTensor.read(RATIONAL, shape, entries))
        p_ops.append(RawTensor.read(F101, shape, entries))
    got = contract(spec, *q_ops)
    assert {idx: r for idx, v in got.cells.items() if (r := F101.of(v).value)} == \
        contract(spec, *p_ops).cells


def test_a_rational_tensor_files_its_integer_form_once():
    t = RawTensor.read(RATIONAL, (2, 2), {(0, 0): Fraction(1, 3), (0, 1): Fraction(3, 4),
                                          (1, 1): 2})
    first = contract("ij,jk->ik", t, t)
    assert first.cells == {(0, 0): Fraction(1, 9), (0, 1): Fraction(7, 4), (1, 1): 4}
    assert type(first.cells[1, 1]) is int
    form, groups = t._ints, dict(t._groups)
    assert form == (12, {(0, 0): 4, (0, 1): 9, (1, 1): 24})
    assert contract("ij,jk->ik", t, t) == first
    assert t._ints is form and t._groups.keys() == groups.keys()
    assert all(t._groups[layout] is g for layout, g in groups.items())
    # a result with integral cells files them as its own integer form, so a
    # chained contraction reads them without a scan
    whole = contract("ij,jk->ik", identity(RATIONAL, 2), identity(RATIONAL, 2))
    assert whole._ints[0] == 1 and whole._ints[1] is whole.cells
    assert contract("ij,jk->ik", whole, t) == t and whole._ints[1] is whole.cells


def test_a_rational_tensor_has_one_numerator_filing_per_layout():
    """`grouped` files the numerators of `integral` (here over d = 6), the
    one filing `contract` multiplies, whether `grouped` or `contract` reads
    the tensor first."""
    cells = {(0, 0, 1): Fraction(1, 2), (1, 1, 0): Fraction(2, 3), (1, 0, 0): 1}
    e = RawTensor.read(RATIONAL, (2,), {(0,): 1, (1,): 1})
    want = {(0, 1): Fraction(1, 2), (1, 0): Fraction(2, 3), (0, 0): 1}
    filed = {0: [((0, 1), 3)], 1: [((1, 0), 4), ((0, 0), 6)]}
    grouped_first, contract_first = (RawTensor.read(RATIONAL, (2, 2, 2), cells) for _ in "ab")
    assert grouped_first.grouped((0,), (1, 2)) == filed
    assert contract("i,ijk->jk", e, grouped_first).cells == want
    assert contract("i,ijk->jk", e, contract_first).cells == want
    assert contract_first.grouped((0,), (1, 2)) == filed
    for t in (grouped_first, contract_first):
        assert list(t._groups) == [((0,), (1, 2))]


def test_a_carrier_files_its_cells_once_per_layout():
    c3 = get("group-algebra-c3").payload.algebra
    alg = FinAlgebra(c3.field, c3.dim, c3.labels, c3.mult.dense(), c3.unit, c3.name)  # fresh cells
    first = contract("ijm,mkx->ijkx", alg, alg)
    groups = dict(alg.mult._groups)
    assert contract("ijm,mkx->ijkx", alg, alg) == first
    assert len(groups) == 1  # the first operand is read unfiled
    assert all(alg.mult._groups[layout] is g for layout, g in groups.items())


@pytest.mark.parametrize("spec", ["ij->ij", "ij->ji", "ij->i"])
def test_a_one_operand_result_does_not_alias_its_operand(spec):
    a = contract("ij,jk->ik", identity(RATIONAL, 2), identity(RATIONAL, 2))
    cells = dict(a.cells)
    contract(spec, a).cells.clear()
    assert a.cells == cells


def test_disagreeing_extents_mixed_fields_and_bad_specs_are_refused():
    alg = get("group-algebra-c3").payload.algebra
    with pytest.raises(DimensionError):
        contract("ij,jkl->ikl", identity(RATIONAL, 2), alg)
    with pytest.raises(FieldError):
        contract("i,i->", identity(RATIONAL, 1)[0], identity(prime_field(3), 1)[0])
    with pytest.raises(DimensionError):
        contract("ii->i", identity(RATIONAL, 2))
    with pytest.raises(DimensionError):
        contract("ij->x", identity(RATIONAL, 2))
    with pytest.raises(DimensionError):
        contract("ij,jk->ik", identity(RATIONAL, 2))


def test_a_spec_without_an_arrow_is_refused():
    """In einsum notation ``ij,jk`` is the matrix product (an implicit
    output), not the total of every product, so no reading is guessed."""
    a = ((RATIONAL.one, RATIONAL.zero), (RATIONAL.zero, RATIONAL.of(2)))
    for spec in ("ij,jk", "i,i", "ij"):
        with pytest.raises(DimensionError, match="has no '->'"):
            contract(spec, *[a] * len(spec.split(",")))


def test_shapes_a_spec_has_validated_do_not_excuse_new_ones():
    """The plan keeps the output shape of each tuple of operand shapes it
    has validated, and nothing else: shapes it has not seen are walked
    again, a refused tuple is not kept, and the field is read on every call."""
    spec = "qr,rs->qs"
    a = RawTensor.read(RATIONAL, (2, 3), {(0, 1): 1, (1, 2): Fraction(1, 2)})
    b = RawTensor.read(RATIONAL, (3, 2), {(1, 0): 3, (2, 1): 2})
    want = RawTensor(RATIONAL, (2, 2), {(0, 0): 3, (1, 1): 1})
    assert contract(spec, a, b) == want
    for _ in range(2):  # a refusal is not remembered as a pass
        with pytest.raises(DimensionError, match="index 'r' has extents 3 and 2"):
            contract(spec, a, a)
        with pytest.raises(DimensionError, match="operand for 'rs' has shape \\(3,\\)"):
            contract(spec, a, RawTensor.read(RATIONAL, (3,), {(0,): 1}))
        with pytest.raises(DimensionError, match="operand for 'qr' has shape \\(2, 3, 1\\)"):
            contract(spec, RawTensor.read(RATIONAL, (2, 3, 1), {}), b)
        with pytest.raises(FieldError, match=r"mixed fields \['F_5', 'Q'\]"):
            contract(spec, a, RawTensor.read(prime_field(5), (3, 2), {(1, 0): 3}))
    assert contract(spec, a, b) == want
    assert _PLANS[spec][3] == {((2, 3), (3, 2)): (2, 2)}  # shapes only, no cells or fields
