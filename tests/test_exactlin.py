"""Exact linear algebra: field arithmetic, elimination, spans."""

import copy
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hopfrb import exactlin
from hopfrb.exactlin import (
    MAX_MODULUS,
    DimensionError,
    FieldError,
    RATIONAL,
    RawTensor,
    Scalar,
    column_space_basis,
    contract,
    first_outside,
    kernel_basis,
    mat,
    mat_mul,
    prime_field,
    raw_identity,
    rref,
    scalar_vec,
    solve_linear,
    vec,
)

F5 = prime_field(5)
F2 = prime_field(2)


def q(entries):
    return mat(RATIONAL, entries)


def qv(entries):
    return vec(RATIONAL, entries)


def apply_mat(a, x):
    """The Scalar vector a x; an a with no rows gives ()."""
    return contract("rc,c->r", a, x).dense() if a else ()


def sparse_rows(rows):
    """The raw sparse dict rows of dense rows of raw values."""
    return [{j: x for j, x in enumerate(row) if x} for row in rows]


def raw_rows(m):
    """The raw sparse dict rows of the Scalar matrix m."""
    return sparse_rows([s.value for s in row] for row in m)


# -- scalars ----------------------------------------------------------------


def test_rational_parse_and_str():
    assert str(RATIONAL.parse("-7/3")) == "-7/3"
    assert RATIONAL.parse("1/2") + RATIONAL.parse("1/2") == RATIONAL.one
    assert RATIONAL.of(Fraction(2, 4)) == RATIONAL.parse("1/2")


def test_prime_parse_and_str():
    assert str(F5.parse("9")) == "4 mod 5"
    assert F5.parse("4 mod 5") == F5.of(-1)
    assert F5.parse("1/2") == F5.of(3)  # 2 * 3 = 6 = 1


def test_parse_refuses_exponent_notation():
    # str(scalar) never writes an exponent, and "1e10000000" would build a
    # 33-million-bit integer before anything could refuse it
    for text in ("1e5", "2E3", "-1e-5", "3/1e2"):
        with pytest.raises(FieldError, match="exponent"):
            RATIONAL.parse(text)
        with pytest.raises(FieldError):
            F5.parse(text)
    assert RATIONAL.parse("-15/4") == RATIONAL.of(Fraction(-15, 4))


def test_parse_refuses_decimal_points_and_digit_underscores():
    # str(scalar) writes neither, so a file holding them is not what dump wrote
    for text in ("1.5", "1.", ".5", "1_000", "1_0/3"):
        with pytest.raises(FieldError, match="decimal points and digit underscores"):
            RATIONAL.parse(text)
    for text in ("1_0", "1_0 mod 5", "1.0", "3/1_0"):
        with pytest.raises(FieldError, match="decimal points and digit underscores"):
            F5.parse(text)


def test_parse_reads_one_grammar_in_both_fields():
    # a sign goes on the numerator only, as str writes it
    for field in (RATIONAL, F5):
        assert field.parse("+3/2") == field.of(Fraction(3, 2))
        for text in ("1/-2", "1/+2", "3 / 2", "-"):
            with pytest.raises(FieldError, match="ASCII digits"):
                field.parse(text)
    assert F5.parse("-4 mod 5") == F5.of(1)
    with pytest.raises(FieldError, match="ASCII digits"):
        F5.parse("4 mod +5")


def test_parse_refuses_non_ascii_digits():
    # "\u0663" is ARABIC-INDIC DIGIT THREE, which int() and Fraction() read as 3
    for text in ("\u0663", "1/\u0663", "\uff11", "-\u0663/2"):
        for field in (RATIONAL, F5):
            with pytest.raises(FieldError, match="ASCII digits"):
                field.parse(text)
    with pytest.raises(FieldError, match="ASCII digits"):
        F5.parse("\u0663 mod 5")
    with pytest.raises(FieldError, match="ASCII digits"):
        F5.parse("3 mod \u0665")


def test_parse_names_a_zero_denominator():
    for field in (RATIONAL, F5):
        with pytest.raises(FieldError, match="zero denominator"):
            field.parse("3/0")
        with pytest.raises(FieldError, match="zero denominator"):
            field.parse("-1/000")


def test_prime_parse_rejects_wrong_modulus():
    with pytest.raises(FieldError):
        F5.parse("1 mod 7")


def test_prime_field_requires_prime():
    with pytest.raises(FieldError):
        prime_field(6)


def test_modulus_is_an_int_up_to_the_cap():
    assert prime_field(MAX_MODULUS).p == MAX_MODULUS
    # checked before the trial division, which would run for minutes here
    for bad in (5.0, "5", 1000000000000000003, MAX_MODULUS + 2):
        with pytest.raises(FieldError):
            prime_field(bad)


def test_mixed_field_arithmetic_rejected():
    with pytest.raises(FieldError):
        RATIONAL.one + F5.one


@pytest.mark.parametrize("op", ["add", "sub"])
def test_raw_tensors_of_two_fields_do_not_add(op):
    q3, f4 = RawTensor(RATIONAL, (1,), {(0,): 3}), RawTensor(F5, (1,), {(0,): 4})
    for x, y in ((q3, f4), (f4, q3)):
        with pytest.raises(FieldError, match=r"mixed fields \['F_5', 'Q'\]"):
            x + y if op == "add" else x - y
    # a tensor of empty operands has no field and takes the other's
    empty = RawTensor(None, (1,), {})
    assert (empty + f4).field == F5 and (f4 - empty).cells == {(0,): 4}


def test_raw_tensors_of_two_fields_are_not_equal():
    q1, f1 = RawTensor(RATIONAL, (1,), {(0,): 1}), RawTensor(F5, (1,), {(0,): 1})
    assert q1 != f1 and f1 != q1 and not q1 == f1
    assert q1 == RawTensor(RATIONAL, (1,), {(0,): 1}) and hash(q1) == hash(f1)
    # a tensor of empty operands has no field and compares by shape and cells
    none = contract("i,i->", (), ())
    assert none.field is None
    assert none == RawTensor(RATIONAL, (), {}) == none and none == RawTensor(F5, (), {})
    assert none != RawTensor(RATIONAL, (1,), {})


def test_rational_tensors_add_on_a_common_denominator(monkeypatch):
    """Over Q, + and - add the operands' integer numerators over the lcm of
    their denominators and divide each output cell once: no Fraction
    arithmetic at all."""
    a = RawTensor(RATIONAL, (2, 2), {(0, 0): Fraction(1, 2), (0, 1): Fraction(-2, 3), (1, 1): 3})
    b = RawTensor(RATIONAL, (2, 2), {(0, 0): Fraction(1, 2), (0, 1): Fraction(1, 3),
                                     (1, 0): Fraction(3, 4)})

    def refused(*args):
        raise AssertionError("Fraction arithmetic in a raw tensor sum")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refused)
    total, difference = a + b, a - b
    monkeypatch.undo()
    assert total.cells == {(0, 0): 1, (0, 1): Fraction(-1, 3), (1, 0): Fraction(3, 4), (1, 1): 3}
    assert difference.cells == {(0, 1): -1, (1, 0): Fraction(-3, 4), (1, 1): 3}
    assert type(total.cells[(0, 0)]) is int and type(difference.cells[(0, 1)]) is int


_SUMMANDS = st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)),
                            st.fractions(min_value=-3, max_value=3, max_denominator=6)
                            | st.integers(-3, 3), max_size=6)


@pytest.mark.parametrize("field", [RATIONAL, F5, F2], ids=str)
@given(x=_SUMMANDS, y=_SUMMANDS)
def test_raw_tensor_sums_match_scalar_sums(field, x, y):
    # F_p tensors read integer cells only
    a, b = (RawTensor.read(field, (3, 3), {k: v for k, v in c.items()
                                           if not field.p or type(v) is int}) for c in (x, y))
    for got, op in ((a + b, lambda u, v: u + v), (a - b, lambda u, v: u - v)):
        want = tuple(tuple(op(u, v) for u, v in zip(r, s)) for r, s in zip(a.dense(), b.dense()))
        assert got.dense() == want
        assert all(v for v in got.cells.values())
        assert all(type(v) is int for v in got.cells.values() if field.p or v == int(v))


def test_division():
    assert RATIONAL.of(3) / RATIONAL.of(4) == RATIONAL.parse("3/4")
    assert F5.of(3) / F5.of(4) == F5.of(2)  # 4 * 2 = 8 = 3
    with pytest.raises(FieldError):
        F5.one / F5.zero


def test_nonzero_denominator_mod_p():
    # 1/5 has no meaning in F_5
    with pytest.raises(FieldError):
        F5.of(Fraction(1, 5))


@pytest.mark.parametrize("field", [RATIONAL, F5])
def test_read_gives_the_cells_field_of_gives(field):
    entries = {(0,): 3, (1,): -7, (2,): 10, (3,): 0, (4,): Fraction(3, 4), (5,): Fraction(4, 2),
               (6,): "5/2", (7,): "-1", (8,): "0", (9,): 2**70}
    got = RawTensor.read(field, (10,), entries)
    want = {idx: v for idx, x in entries.items() if (v := field.of(x).value)}
    assert got.cells == want
    assert all(type(got.cells[idx]) is type(v) for idx, v in want.items())


@pytest.mark.parametrize("field,x", [(RATIONAL, True), (F5, False), (RATIONAL, 0.5),
                                     (F5, 1.0), (RATIONAL, "1/x"), (F5, "2 mod 7"),
                                     (F5, Fraction(1, 5)), (F5, "3/10")])
def test_read_refuses_what_field_of_refuses_with_its_text(field, x):
    with pytest.raises(FieldError) as want:
        field.of(x)
    with pytest.raises(FieldError) as got:
        RawTensor.read(field, (1,), {(0,): x})
    assert str(got.value) == str(want.value)


def test_floats_are_refused():
    # a float is a binary fraction, not the exact value it was written as
    with pytest.raises(FieldError):
        RATIONAL.of(0.1)
    with pytest.raises(FieldError):
        prime_field(5).of(1.5)


def test_bools_are_refused():
    # bool is an int subclass, so True would otherwise pass as 1
    with pytest.raises(FieldError):
        RATIONAL.of(True)
    with pytest.raises(FieldError):
        prime_field(5).of(False)
    with pytest.raises(FieldError):
        vec(F5, [1, True])


scalars_q = st.fractions(min_value=-50, max_value=50, max_denominator=20).map(RATIONAL.of)
scalars_f5 = st.integers(min_value=0, max_value=4).map(F5.of)


@pytest.mark.parametrize("field,strat", [(RATIONAL, scalars_q), (F5, scalars_f5)])
def test_field_axioms(field, strat):
    @given(strat, strat, strat)
    def inner(a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)
        assert a + field.zero == a
        assert a * field.one == a
        assert a - a == field.zero
        if not a.is_zero:
            assert a * a.inverse() == field.one

    inner()


# -- elimination ------------------------------------------------------------


def test_rref_identity_block():
    r, pivots = rref(raw_rows(q([[2, 0], [0, 3]])), RATIONAL)
    assert r == ({0: 1}, {1: 1})
    assert pivots == (0, 1)


def test_rank_of_singular():
    assert len(rref(raw_rows(q([[1, 2], [2, 4]])), RATIONAL)[1]) == 1
    assert len(rref(raw_rows(q([[1, 2], [3, 4]])), RATIONAL)[1]) == 2


def test_solve_consistent_with_nullspace():
    a = q([[1, 1], [2, 2]])
    x = solve_linear(raw_rows(a), [3, 6], RATIONAL, 2)
    assert x is not None and x.shape == (2,)
    assert apply_mat(a, x) == qv([3, 6])
    ker = kernel_basis(raw_rows(a), RATIONAL, 2)
    assert ker.shape == (1, 2)
    (n0,) = ker.dense()
    # nullspace is spanned by (1, -1)
    assert n0[0] == -n0[1] and not n0[0].is_zero


def test_solve_inconsistent():
    a = q([[1, 1], [2, 2]])
    assert solve_linear(raw_rows(a), [3, 7], RATIONAL, 2) is None


def test_solve_over_f2():
    a = mat(F2, [[1, 1], [1, 0]])
    x = solve_linear(raw_rows(a), [0, 1], F2, 2)
    assert x is not None and x.dense() == vec(F2, [1, 1])
    assert kernel_basis(raw_rows(a), F2, 2).shape == (0, 2)


def test_kernel_of_rank_one():
    ker = kernel_basis(raw_rows(q([[1, 2], [2, 4]])), RATIONAL, 2)
    assert ker.shape == (1, 2)
    (k0,) = ker.dense()
    # kernel is spanned by (2, -1)
    assert k0[0] == RATIONAL.of(-2) * k0[1] and not k0[1].is_zero
    assert apply_mat(q([[1, 2], [2, 4]]), k0) == qv([0, 0])


def test_kernel_of_empty_matrix():
    assert kernel_basis((), RATIONAL, ncols=3) == raw_identity(RATIONAL, 3)


def test_column_space_and_span():
    cs = column_space_basis(q([[1, 2], [2, 4]]), RATIONAL)
    assert cs.shape == (1, 2)
    assert first_outside((qv([3, 6]),), cs, RATIONAL) is None
    assert first_outside((qv([3, 6]), qv([1, 0])), cs, RATIONAL) == 1
    assert first_outside(cs, (qv([5, 10]),), RATIONAL) is None
    assert first_outside((qv([5, 10]),), cs, RATIONAL) is None


def test_elimination_refuses_scalars_of_any_field():
    """An F_5 system holding the Q Scalar 1/2 raises instead of reading the
    Scalar's value as an F_5 one: Scalar rows are not read at all, and a
    Scalar inside a raw row is refused over either field."""
    half = RATIONAL.of(Fraction(1, 2))
    with pytest.raises(TypeError, match="a row is a {column: raw value} dict, not tuple"):
        rref(((F5.of(2), half),), F5)
    with pytest.raises(TypeError):
        solve_linear(((F5.of(1),),), (half,), F5, 1)
    with pytest.raises(FieldError, match="not a raw value of F_5"):
        rref(({0: F5.of(2), 1: half},), F5)
    with pytest.raises(FieldError, match="not a raw value of F_5"):
        solve_linear(({0: 1},), (half,), F5, 1)
    with pytest.raises(FieldError, match="not a raw value of F_5"):
        kernel_basis(({0: Fraction(1, 2)},), F5, 1)
    with pytest.raises(FieldError, match="not a raw value of Q"):
        rref(({0: F5.of(2)},), RATIONAL)


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
        min_size=2,
        max_size=4,
    ),
    st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
)
def test_solve_substitution_roundtrip(rows, x):
    a = q(rows)
    b = apply_mat(a, qv(x))
    sol = solve_linear(raw_rows(a), [s.value for s in b], RATIONAL, 3)
    assert sol is not None  # b is in the image by construction
    assert apply_mat(a, sol) == b


@given(
    st.lists(
        st.lists(st.integers(min_value=-9, max_value=9), min_size=2, max_size=2),
        min_size=2,
        max_size=2,
    )
)
def test_rank_kernel_dimension(rows):
    a = raw_rows(q(rows))
    assert len(rref(a, RATIONAL)[1]) + kernel_basis(a, RATIONAL, 2).shape[0] == 2


def _dense_rref(rows, nc, p):
    """Textbook dense Gauss-Jordan on Fractions (p = 0) or ints mod p."""
    rows = [list(r) for r in rows]
    piv = []
    for c in range(nc):
        r = len(piv)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        inv = pow(rows[r][c], -1, p) if p else Fraction(1) / rows[r][c]
        rows[r] = [x * inv % p if p else x * inv for x in rows[r]]
        for i in range(len(rows)):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(x - f * y) % p if p else x - f * y
                           for x, y in zip(rows[i], rows[r])]
        piv.append(c)
    return rows, tuple(piv)


ORACLE_FIELDS = (RATIONAL, F2, prime_field(3), F5)


@st.composite
def linear_systems(draw):
    """(field, ncols, a, b): up to 8 rows drawn from a pool that holds a
    zero row and a sum of two rows, so duplicate rows, zero rows, rank
    deficiency, wide and tall shapes and no rows at all all occur."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    nc = draw(st.integers(min_value=1, max_value=7))
    entry = st.integers(min_value=-3, max_value=3) | st.just(0)
    if field is RATIONAL:
        entry = entry | st.fractions(min_value=-3, max_value=3, max_denominator=4)
    row = st.lists(entry, min_size=nc, max_size=nc)
    pool = draw(st.lists(row, min_size=2, max_size=4))
    pool += [[0] * nc, [x + y for x, y in zip(pool[0], pool[1])]]
    a = mat(field, draw(st.lists(st.sampled_from(pool), max_size=8)))
    if draw(st.booleans()):
        b = apply_mat(a, vec(field, draw(row)))
    else:
        b = vec(field, draw(st.lists(entry, min_size=len(a), max_size=len(a))))
    return field, nc, a, b


@given(linear_systems())
def test_sparse_kernel_matches_dense_gauss_jordan(system):
    field, nc, a, b = system
    p = field.p
    dense, dpiv = _dense_rref([[s.value for s in r] for r in a], nc, p)
    r, piv = rref(raw_rows(a), field)
    assert piv == dpiv
    assert list(r) == sparse_rows(dense[:len(dpiv)])
    ker = kernel_basis(raw_rows(a), field, ncols=nc)
    assert ker.shape == (nc - len(dpiv), nc)
    assert all(apply_mat(a, v) == (field.zero,) * len(a) for v in ker.dense())
    sol = solve_linear(raw_rows(a), [s.value for s in b], field, nc)
    if not a:
        return
    aug = [[s.value for s in row] + [bi.value] for row, bi in zip(a, b)]
    if nc in _dense_rref(aug, nc + 1, p)[1]:
        assert sol is None
    else:
        assert sol is not None and apply_mat(a, sol) == b


LARGER_FIELDS = (RATIONAL, F2, F5, prime_field(101))


@st.composite
def larger_systems(draw):
    """(field, ncols, a): up to 14 rows over up to 12 columns.  Each row is
    dense, sparse (one to three nonzeros), or an earlier row plus a multiple
    of another, so that eliminations both fill rows in and cancel entries."""
    field = draw(st.sampled_from(LARGER_FIELDS))
    nc = draw(st.integers(min_value=1, max_value=12))
    entry = st.integers(min_value=-5, max_value=5)
    if field is RATIONAL:
        entry = entry | st.fractions(min_value=-3, max_value=3, max_denominator=5)
    rows: list = []
    for _ in range(draw(st.integers(min_value=0, max_value=14))):
        kind = draw(st.sampled_from(("dense", "sparse", "combination")))
        if kind == "combination" and rows:
            x, y = (draw(st.sampled_from(rows)) for _ in range(2))
            c = draw(entry)
            rows.append([u + c * v for u, v in zip(x, y)])
        elif kind == "sparse":
            row = [0] * nc
            for j in draw(st.lists(st.integers(min_value=0, max_value=nc - 1),
                                   min_size=1, max_size=3)):
                row[j] = draw(entry)
            rows.append(row)
        else:
            rows.append(draw(st.lists(entry, min_size=nc, max_size=nc)))
    return field, nc, mat(field, rows)


@given(larger_systems())
def test_sparse_rref_matches_dense_gauss_jordan_on_larger_systems(system):
    field, nc, a = system
    dense, dpiv = _dense_rref([[s.value for s in r] for r in a], nc, field.p)
    raw, raw_piv = rref(raw_rows(a), field)
    assert raw_piv == dpiv
    assert list(raw) == sparse_rows(dense[:len(dpiv)])
    ker = kernel_basis(raw_rows(a), field, ncols=nc)
    assert ker.shape == (nc - len(dpiv), nc)
    assert all(apply_mat(a, v) == (field.zero,) * len(a) for v in ker.dense())


@st.composite
def span_cases(draw):
    """(field, b1, b2): raw tensors of at most 4 vectors each, all of one
    length up to 4, over F_2, F_3 or Q.  A vector of b1 is drawn fresh or
    as a combination a u + b v of vectors of b2, so it lies in the span as
    often as not."""
    field = draw(st.sampled_from((F2, prime_field(3), RATIONAL)))
    n = draw(st.integers(min_value=0, max_value=4))
    entry = st.integers(min_value=-2, max_value=2)
    if field is RATIONAL:
        entry = entry | st.fractions(min_value=-2, max_value=2, max_denominator=3)
    row = st.lists(entry, min_size=n, max_size=n)
    b2 = draw(st.lists(row, max_size=4))
    if b2:
        pick = st.sampled_from(b2)
        row = row | st.tuples(entry, pick, entry, pick).map(
            lambda c: [c[0] * x + c[2] * y for x, y in zip(c[1], c[3])])
    b1 = draw(st.lists(row, max_size=4))
    return field, *(RawTensor.read(field, (len(b), n), {
        (k, j): x for k, r in enumerate(b) for j, x in enumerate(r)}) for b in (b1, b2))


@given(span_cases())
def test_first_outside_names_the_first_vector_that_raises_the_rank(case):
    field, b1, b2 = case
    n = b2.shape[1]

    def rank(rows):
        return len(_dense_rref(rows, n, field.p)[1])

    span = [b2.flat((k,)) for k in range(b2.shape[0])]
    want = next((k for k in range(b1.shape[0]) if rank([*span, b1.flat((k,))]) > rank(span)),
                None)
    assert first_outside(b1, b2, field) == want


def test_rref_pivots_on_the_shortest_row(monkeypatch):
    """An arrowhead system: a dense first row, then x_i + 2 x_n for each
    i < n.  Pivoting on the short row x_i + 2 x_n clears column i from the
    dense row with one update, so no row fills in; a pivot on the dense row
    would fill every short row.  The reduced form is the same either way,
    so only the count of `_lean` calls (one per entry read, scaled or
    updated over Q) shows the rule."""
    n = 8
    rows = [{j: 1 for j in range(n + 1)}] + [{i: 1, n: 2} for i in range(n)]
    calls = []
    lean = exactlin._lean
    monkeypatch.setattr(exactlin, "_lean", lambda x: calls.append(x) or lean(x))
    done, piv = rref(rows, RATIONAL)
    assert piv == tuple(range(n + 1)) and done == tuple({j: 1} for j in range(n + 1))
    # 3n + 1 entries read, 2n + 1 scaled, and one update per column below n
    assert len(calls) == 6 * n + 2


def test_elimination_leaves_the_callers_raw_rows_unchanged():
    for field in (RATIONAL, F5):
        # row 0 pivots column 0 and cancels row 1 there and at column 2
        half = Fraction(1, 2) if field is RATIONAL else 3
        rows = [{0: 2, 2: 1}, {0: 4, 1: 3, 2: 2}, {1: 1, 3: half}, {}]
        before = copy.deepcopy(rows)
        done, _ = rref(rows, field)
        assert rows == before and not any(r is row for r in done for row in rows)
        kernel_basis(rows, field, ncols=4)
        assert rows == before
        solve_linear(rows, [1, 2, 0, 0], field, ncols=4)
        assert rows == before


def _dense_product(a, b, field):
    """Textbook dense product in Scalar arithmetic, one sum per cell."""
    inner = len(b)
    cols = len(b[0]) if b else 0
    return tuple(
        tuple(sum((a[r][k] * b[k][c] for k in range(inner)), field.zero) for c in range(cols))
        for r in range(len(a))
    )


@st.composite
def products(draw):
    """(field, a, b) with a r x k and b k x c, each side from 0 to 4, and
    entries that are zero about half the time."""
    field = draw(st.sampled_from(ORACLE_FIELDS))
    r, k, c = (draw(st.integers(min_value=0, max_value=4)) for _ in range(3))
    entry = st.just(0) | st.integers(min_value=-9, max_value=9)
    if field is RATIONAL:
        entry = entry | st.fractions(max_denominator=7)
    a = mat(field, draw(st.lists(st.lists(entry, min_size=k, max_size=k),
                                 min_size=r, max_size=r)))
    b = mat(field, draw(st.lists(st.lists(entry, min_size=c, max_size=c),
                                 min_size=k, max_size=k)))
    return field, a, b


@given(products())
def test_sparse_product_matches_dense_scalar_product(case):
    field, a, b = case
    # empty shapes included: a r x 0 times a 0 x c product is r empty rows
    got = mat_mul(a, b)
    assert got == _dense_product(a, b, field)
    assert all(s.field == field for row in got for s in row)


def test_a_dense_operand_with_entries_over_two_fields_is_refused():
    # the field is not read off the first entry alone
    with pytest.raises(FieldError, match="a dense entry is not in Q"):
        mat_mul(((RATIONAL.one, F5.of(2)),), ((RATIONAL.one,), (RATIONAL.one,)))
    with pytest.raises(FieldError, match="a dense entry is not in Q"):
        contract("i,i->", vec(RATIONAL, [1]) + vec(F5, [0, 3]), qv([1, 1, 1]))
    with pytest.raises(DimensionError, match="ragged"):
        mat_mul(((RATIONAL.one, RATIONAL.one), (RATIONAL.one,)), q([[1], [1]]))


def test_product_shape_and_field_errors():
    with pytest.raises(DimensionError):
        mat_mul(q([[1, 2]]), q([[1, 2]]))
    with pytest.raises(FieldError):
        mat_mul(q([[1]]), mat(F5, [[1]]))
    assert mat_mul((), q([[1]])) == ()
    assert mat_mul(q([[1], [2]]), q([[]])) == ((), ())


# -- tensor products --------------------------------------------------------


def test_joined_indices_follow_the_lex_pair_basis():
    u = qv([1, 0])
    v = qv([0, 1])
    # lex pair order: e0 (x) e0, e0 (x) e1, e1 (x) e0, e1 (x) e1
    assert contract("a,b->ab", u, v).joined(2).dense() == qv([0, 1, 0, 0])
    assert contract("a,b->ab", v, u).joined(2).dense() == qv([0, 0, 1, 0])
    t = RawTensor(RATIONAL, (2, 3, 2), {(1, 2, 0): 5, (0, 1, 1): 7})
    assert t.joined(1, 2) == RawTensor(RATIONAL, (2, 6), {(1, 4): 5, (0, 3): 7})
    assert t.joined(1, 2).dense() == t.dense(2, 6)
    assert t.joined(3).cells == {(10,): 5, (3,): 7}
    assert t.joined(2, 1).shape == (6, 2) and t.joined(1, 1, 1) == t
    with pytest.raises(DimensionError):
        t.joined(2)


# -- lean raw values over Q -----------------------------------------------------


def _lean(values) -> bool:
    """Whether raw Q values are lean: ints, and Fractions only off the integers."""
    return all(type(v) is int or (type(v) is Fraction and v.denominator != 1) for v in values)


def _fractions(scalars) -> bool:
    """Whether every Q Scalar holds a lean value, as the raw cells do."""
    return _lean(s.value for s in scalars)


@st.composite
def q_matrices(draw):
    """Q matrices a (r x k), b (k x c) and d (r x c) whose entries mix ints
    with halves, thirds and quarters, so that products, sums and pivots land
    on the integers as well as off them."""
    entry = st.integers(min_value=-4, max_value=4) | st.fractions(-3, 3, max_denominator=4)
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    return tuple(q(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)))
                 for rows, cols in ((r, k), (k, c), (r, c)))


@given(q_matrices())
def test_raw_values_over_q_stay_lean(case):
    a, b, d = case
    raw_a, raw_d = (RawTensor.of(RATIONAL, m, (len(m), len(m[0]))) for m in (a, d))
    product = contract("ik,kj->ij", a, b)
    results = (raw_a, raw_d, product, product + raw_d, product - raw_d, raw_d - raw_d)
    assert all(_lean(t.cells.values()) for t in results)
    reduced, _ = rref([row for t in results for row in t.rows(1).values()], RATIONAL)
    assert all(_lean(row.values()) for row in reduced)
    assert all(_fractions(s for row in t.dense() for s in row) for t in results if t.cells)
    assert all(_lean(row.values()) for row in rref(raw_rows(a), RATIONAL)[0])
    assert all(_fractions(row) for row in mat_mul(a, b))
    for m in (a, d):
        ker = kernel_basis(raw_rows(m), RATIONAL, len(m[0]))
        assert _lean(ker.cells.values()) and all(_fractions(v) for v in ker.dense())
    sol = solve_linear(raw_rows(d), [row[0].value for row in d], RATIONAL, len(d[0]))
    assert sol is not None and _lean(sol.cells.values()) and _fractions(sol.dense())


# -- one lean value over Q ------------------------------------------------------


q_values = (st.integers(min_value=-6, max_value=6)
            | st.fractions(min_value=-3, max_value=3, max_denominator=6))


def _same_as_fraction_valued(s) -> bool:
    """Whether s compares, hashes and prints as the Scalar holding its value
    as a Fraction."""
    twin = Scalar(RATIONAL, Fraction(s.value))
    return s == twin and hash(s) == hash(twin) and str(s) == str(twin)


def test_q_inverse_and_division_are_exact_fractions():
    for s in (RATIONAL.of(3).inverse(), RATIONAL.of(1) / RATIONAL.of(3)):
        assert type(s.value) is Fraction and s.value == Fraction(1, 3)
    assert type(RATIONAL.of(Fraction(1, 3)).inverse().value) is int


@given(q_values, q_values)
def test_q_scalar_arithmetic_holds_lean_values(x, y):
    a, b = RATIONAL.of(x), RATIONAL.parse(str(Fraction(y)))
    fa, fb = Fraction(a.value), Fraction(b.value)
    results = [(a, Fraction(x)), (b, Fraction(y)), (a + b, fa + fb), (a - b, fa - fb),
               (a * b, fa * fb), (-a, -fa)]
    if fb:
        results += [(a / b, fa / fb), (b.inverse(), 1 / fb)]
    for s, want in results:
        assert _lean([s.value]) and s.value == want
        assert _same_as_fraction_valued(s)
    # raw values as accumulators leave them: 2 * (1/2) is Fraction(1)
    raw = [fa * fb, 2 * Fraction(1, 2), fa, Fraction(y) * 0, fb + 1]
    got = scalar_vec(RATIONAL, raw)
    assert _fractions(got) and [s.value for s in got] == raw
    cells = {(i,): v for i, v in enumerate(raw) if v}
    dense = RawTensor(RATIONAL, (len(raw),), cells).dense()
    assert _fractions(dense) and dense == got
    assert all(_same_as_fraction_valued(s) for s in got)


@st.composite
def q_pairs(draw):
    """Q matrices a (r x k) and b (k x c) of mixed ints and fractions."""
    r, k, c = (draw(st.integers(min_value=1, max_value=4)) for _ in range(3))
    return tuple(q(draw(st.lists(st.lists(q_values, min_size=cols, max_size=cols),
                                 min_size=rows, max_size=rows)))
                 for rows, cols in ((r, k), (k, c)))


def _fraction_rows(m) -> list:
    return [[Fraction(s.value) for s in row] for row in m]


def _fraction_apply(rows, x) -> list:
    return [sum((u * Fraction(v.value) for u, v in zip(row, x)), Fraction(0)) for row in rows]


@given(q_pairs())
def test_q_linear_algebra_holds_lean_values(case):
    a, b = case
    fa, fb = _fraction_rows(a), _fraction_rows(b)
    product = mat_mul(a, b)
    assert all(_fractions(row) for row in product)
    assert _fraction_rows(product) == [[sum((x * y for x, y in zip(row, col)), Fraction(0))
                                        for col in zip(*fb)] for row in fa]
    reduced, piv = rref(raw_rows(a), RATIONAL)
    assert all(_lean(row.values()) for row in reduced)
    dense, dpiv = _dense_rref(fa, len(fa[0]), 0)
    assert (list(reduced), piv) == (sparse_rows(dense[:len(dpiv)]), dpiv)
    ker = kernel_basis(raw_rows(a), RATIONAL, len(fa[0])).dense()
    assert all(_fractions(v) and not any(_fraction_apply(fa, v)) for v in ker)
    rhs = tuple(row[0] for row in a)
    sol = solve_linear(raw_rows(a), [s.value for s in rhs], RATIONAL, len(fa[0]))
    assert sol is not None and _fractions(sol.dense())
    assert _fraction_apply(fa, sol.dense()) == [Fraction(s.value) for s in rhs]
