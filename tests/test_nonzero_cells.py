"""The raw sparse view of structure constants against dense reference sums.

Each structure's tensor is read through its raw view (``RawTensor``) by
`contract`, in its own methods and in the checkers' specs; the raw results
are read back here on the lex basis of their indices (``RawTensor.dense``).  The references below are plain loops over
every cell, zeros included, so a view that drops, repeats or misplaces a
cell shows up as a wrong coordinate.  The tensors are random, mostly zero
and asymmetric, with independent dims per index, so swapped indices do not
cancel out.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from hopfrb.actions import ActionStructure, CoactionStructure
from hopfrb.exactlin import RATIONAL, RawTensor, blocks, contract, prime_field
from hopfrb.structures import FinAlgebra, FinCoalgebra

FIELDS = (RATIONAL, prime_field(2), prime_field(5))
# zero six times as likely as each other value
VALUES = st.sampled_from([0, 0, 0, 0, 0, 0, 1, -1, 2, 3])


def _tensor(data, field, a: int, b: int, c: int):
    return tuple(
        tuple(tuple(field.of(data.draw(VALUES)) for _ in range(c)) for _ in range(b))
        for _ in range(a)
    )


def _vec(data, field, n: int):
    return tuple(field.of(data.draw(VALUES)) for _ in range(n))


def _sum(field, terms):
    return sum(terms, field.zero)


def _draw(data):
    field = data.draw(st.sampled_from(FIELDS))
    dims = data.draw(st.tuples(*(st.integers(1, 3) for _ in range(3))))
    return field, dims


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_view_lists_exactly_the_nonzero_cells_in_order(data):
    field, (a, b, c) = _draw(data)
    t = _tensor(data, field, a, b, c)
    view = RawTensor.of(field, t, (a, b, c))
    assert view.shape == (a, b, c)
    assert list(view.cells.items()) == [
        ((i, j, k), t[i][j][k].value)
        for i in range(a) for j in range(b) for k in range(c) if t[i][j][k] != field.zero
    ]


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_algebra_products_match_dense_sums(data):
    field, (n, _, _) = _draw(data)
    mult = _tensor(data, field, n, n, n)
    alg = FinAlgebra(field, n, tuple(f"e{i}" for i in range(n)), mult)
    x, y = _vec(data, field, n), _vec(data, field, n)
    r = range(n)
    assert alg.mul(x, y) == tuple(
        _sum(field, (x[i] * y[j] * mult[i][j][k] for i in r for j in r)) for k in r
    )
    u, v = _vec(data, field, n * n), _vec(data, field, n * n)
    # the product in A (x) A, as check_bialgebra and RMatrix state it
    got = contract("ab,cd,acx,bdy->xy", blocks(u, n), blocks(v, n), alg, alg)
    assert got.dense(n * n) == tuple(
        _sum(field, (u[i * n + j] * v[k * n + l] * mult[i][k][p] * mult[j][l][q]
                     for i in r for j in r for k in r for l in r))
        for p in r for q in r
    )


def _unital_algebra(data, field, n: int) -> FinAlgebra:
    """A random algebra with e_0 as a two-sided unit, associative or not."""
    mult = [[list(row) for row in plane] for plane in _tensor(data, field, n, n, n)]
    for j in range(n):
        mult[0][j] = mult[j][0] = [field.one if k == j else field.zero for k in range(n)]
    unit = tuple(field.one if k == 0 else field.zero for k in range(n))
    return FinAlgebra(field, n, tuple(f"e{i}" for i in range(n)),
                      tuple(tuple(tuple(row) for row in plane) for plane in mult), unit)


@settings(deadline=None, max_examples=30)
@given(data=st.data())
def test_tensor_cube_product_matches_dense_sums(data):
    # R13 R23 and R13 R12 in A (x) A (x) A as check_quasitriangular states
    # them, against the dense cube product of the legs with their 1s in place
    field = data.draw(st.sampled_from(FIELDS))
    n = data.draw(st.integers(1, 2))
    alg = _unital_algebra(data, field, n)
    mult, one, r = alg.mult.dense(), alg.unit.dense(), range(n)
    rm, sm = (tuple(_vec(data, field, n) for _ in r) for _ in range(2))

    def cube(u, v):
        return tuple(
            _sum(field, (u[a][b][c] * v[d][e][g] * mult[a][d][p] * mult[b][e][q] * mult[c][g][w]
                         for a in r for b in r for c in r for d in r for e in r for g in r))
            for p in r for q in r for w in r)

    r13 = [[[rm[i][j] * one[u] for j in r] for u in r] for i in r]
    r23 = [[[sm[i][j] * one[u] for j in r] for i in r] for u in r]
    r12 = [[[sm[i][j] * one[u] for u in r] for j in r] for i in r]
    assert contract("ij,kl,jlz->ikz", rm, sm, alg).dense(n ** 3) == cube(r13, r23)
    assert contract("ij,kl,ikx->xlj", rm, sm, alg).dense(n ** 3) == cube(r13, r12)


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_coalgebra_comultiplication_matches_dense_sums(data):
    field, (n, _, _) = _draw(data)
    comult = _tensor(data, field, n, n, n)
    co = FinCoalgebra(field, n, tuple(f"e{i}" for i in range(n)), comult, _vec(data, field, n))
    x = _vec(data, field, n)
    r = range(n)
    assert co.comult_vec(x) == tuple(
        _sum(field, (x[i] * comult[i][j][k] for i in r)) for j in r for k in r
    )
    # (Delta (x) id) Delta(x), as check_weak_bialgebra states it
    assert contract("i,imc,mab->abc", x, co, co).dense(n ** 3) == tuple(
        _sum(field, (x[i] * comult[i][m][c] * comult[m][a][b] for i in r for m in r))
        for a in r for b in r for c in r
    )


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_action_operators_match_dense_sums(data):
    field, (n, m, _) = _draw(data)
    alg = FinAlgebra(field, n, tuple(f"e{i}" for i in range(n)), _tensor(data, field, n, n, n))
    side = data.draw(st.sampled_from(["left", "right"]))
    act = _tensor(data, field, n, m, m)
    module = ActionStructure(alg, m, side, act)
    x = _vec(data, field, n)
    assert module.matrix(x).dense() == tuple(
        tuple(_sum(field, (x[i] * act[i][j][k] for i in range(n))) for j in range(m))
        for k in range(m)
    )


@settings(deadline=None, max_examples=60)
@given(data=st.data())
def test_coaction_matches_dense_sums(data):
    field, (h, m, _) = _draw(data)
    co = FinCoalgebra(field, h, tuple(f"e{i}" for i in range(h)),
                      _tensor(data, field, h, h, h), _vec(data, field, h))
    rho = _tensor(data, field, m, m, h)
    comodule = CoactionStructure(co, m, rho)
    v = _vec(data, field, m)
    assert contract("i,ijk->jk", v, comodule).joined(2).dense() == tuple(
        _sum(field, (v[i] * rho[i][j][k] for i in range(m))) for j in range(m) for k in range(h)
    )
