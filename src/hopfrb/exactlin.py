"""Exact scalars and dense linear algebra over Q and F_p.

Every higher layer manipulates structure constants through this module.
Vectors, matrices and 3-index tensors are immutable nested tuples of
Scalar values, all operations are pure, and every comparison is exact;
there are no floats and no tolerances anywhere.  Row reduction runs a
fraction-free (Bareiss style) forward pass, so intermediate entries stay
integral for rational input, and pivots are normalised only at the end.

Conventions used throughout the package:

* a matrix ``A`` acts on column vectors, ``apply(A, x)[r] = sum A[r][c] x[c]``;
* the tensor basis of ``V (x) W`` is ordered lexicographically with the
  left factor major, i.e. pair ``(i, j)`` sits at slot ``i * dim(W) + j``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence, Union


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class FieldError(ExactError):
    """Bad field parameters, mixed fields, or impossible coercion."""


class DimensionError(ExactError):
    """Shape mismatch between vectors, matrices or tensors."""


class InternalError(Exception):
    """A postcondition that is a theorem failed; indicates a package bug."""


def _is_prime(p: int) -> bool:
    # trial division; field moduli in this package are tiny
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


RawScalar = Union[int, Fraction, str, "Scalar"]


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: ``kind`` is ``"rational"`` or ``"prime"``.

    Prime fields carry their modulus ``p``; it is validated on creation.
    ``zero`` and ``one`` are the field's Scalars, built once on creation.
    """

    kind: str
    p: int = 0

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.p != 0:
                raise FieldError("rational field takes no modulus")
        elif self.kind == "prime":
            if not _is_prime(self.p):
                raise FieldError(f"{self.p!r} is not a prime modulus")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")
        # set in the same order on every instance; a cached_property would
        # write to __dict__, which slows every later attribute read on the
        # field (measured on CPython 3.11)
        object.__setattr__(self, "zero", self.of(0))
        object.__setattr__(self, "one", self.of(1))

    def of(self, value: RawScalar) -> "Scalar":
        """Coerce an int, Fraction, string or Scalar into this field.

        A float is refused: it is not an exact value."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldError(f"scalar {value} is not in {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, float):
            raise FieldError(f"float {value!r} is not an exact element of {self}")
        if self.kind == "rational":
            return Scalar(self, Fraction(value))
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            num = value.numerator % self.p
            return Scalar(self, num * pow(den, -1, self.p) % self.p)
        return Scalar(self, value % self.p)

    def parse(self, text: str) -> "Scalar":
        """Inverse of ``str(scalar)``; prime scalars also accept bare ints."""
        text = text.strip()
        try:
            if " mod " in text:
                if self.kind != "prime":
                    raise FieldError(f"{text!r} names a residue but field is {self}")
                res, mod = text.split(" mod ")
                if int(mod) != self.p:
                    raise FieldError(f"{text!r} does not live in F_{self.p}")
                return self.of(int(res))
            if self.kind == "prime":
                if "/" in text:
                    num, den = text.split("/")
                    return self.of(Fraction(int(num), int(den)))
                return self.of(int(text))
            return Scalar(self, Fraction(text))
        except (ValueError, ZeroDivisionError) as ex:
            raise FieldError(f"cannot parse {text!r} as an element of {self}: {ex}") from None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    def __str__(self) -> str:
        return "Q" if self.kind == "rational" else f"F_{self.p}"


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


@dataclass(frozen=True)
class Scalar:
    """Exact field element.

    Rational values are stored as ``Fraction`` (lowest terms, positive
    denominator by construction); prime-field values as ints in ``[0, p)``.
    """

    field: FieldSpec
    value: Union[Fraction, int]

    def _coerce(self, other: RawScalar) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldError(f"mixed fields {self.field} and {other.field}")
            return other
        return self.field.of(other)

    def __add__(self, other: RawScalar) -> "Scalar":
        o = self._coerce(other)
        if self.field.kind == "rational":
            return Scalar(self.field, self.value + o.value)
        return Scalar(self.field, (self.value + o.value) % self.field.p)

    __radd__ = __add__

    def __neg__(self) -> "Scalar":
        if self.field.kind == "rational":
            return Scalar(self.field, -self.value)
        return Scalar(self.field, (-self.value) % self.field.p)

    def __sub__(self, other: RawScalar) -> "Scalar":
        return self + (-self._coerce(other))

    def __rsub__(self, other: RawScalar) -> "Scalar":
        return self._coerce(other) + (-self)

    def __mul__(self, other: RawScalar) -> "Scalar":
        o = self._coerce(other)
        if self.field.kind == "rational":
            return Scalar(self.field, self.value * o.value)
        return Scalar(self.field, (self.value * o.value) % self.field.p)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise FieldError("inverse of zero")
        if self.field.kind == "rational":
            return Scalar(self.field, 1 / self.value)
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other: RawScalar) -> "Scalar":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: RawScalar) -> "Scalar":
        return self._coerce(other) * self.inverse()

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    @property
    def is_one(self) -> bool:
        return self.value == 1

    def __str__(self) -> str:
        if self.field.kind == "rational":
            return str(self.value)
        return f"{self.value} mod {self.field.p}"

    def __repr__(self) -> str:
        return f"<{self}>"


RATIONAL = FieldSpec("rational")

Vec = tuple  # tuple[Scalar, ...]
Mat = tuple  # tuple[Vec, ...], row major
Tensor3 = tuple  # tuple[Mat, ...]
Cells3 = tuple  # tuple[tuple[tuple[tuple[int, Scalar], ...], ...], ...]


def nonzero(v: Vec) -> tuple[tuple[int, Scalar], ...]:
    """The (index, value) pairs of the nonzero entries of v, in index order."""
    return tuple((i, c) for i, c in enumerate(v) if not c.is_zero)


def nonzero_cells(t: Tensor3) -> Cells3:
    """Sparse view of a dense 3-index tensor: per (i, j), the (k, c) pairs
    of t[i][j] with c != 0, in index order.

    Every structure caches this view of its own tensor, so a sum over
    structure constants reads only the nonzero cells and never tests a
    zero itself.
    """
    return tuple(tuple(nonzero(row) for row in plane) for plane in t)


def plane_cells(plane) -> Iterable[tuple[int, int, Scalar]]:
    """The (j, k, c) cells of one plane ``cells[i]`` of a nonzero_cells
    view, row by row."""
    return ((j, k, c) for j, row in enumerate(plane) for k, c in row)


# ---------------------------------------------------------------------------
# constructors


def vec(field: FieldSpec, items: Iterable[RawScalar]) -> Vec:
    return tuple(field.of(x) for x in items)


def mat(field: FieldSpec, rows: Iterable[Iterable[RawScalar]]) -> Mat:
    out = tuple(vec(field, r) for r in rows)
    if len({len(r) for r in out}) > 1:
        raise DimensionError("ragged matrix rows")
    return out


def zeros_vec(field: FieldSpec, n: int) -> Vec:
    z = field.zero
    return (z,) * n


def zeros_mat(field: FieldSpec, rows: int, cols: int) -> Mat:
    z = field.zero
    return ((z,) * cols,) * rows


def identity(field: FieldSpec, n: int) -> Mat:
    z, o = field.zero, field.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def unit_vec(field: FieldSpec, n: int, i: int) -> Vec:
    z = field.zero
    return tuple(field.one if j == i else z for j in range(n))


# ---------------------------------------------------------------------------
# vector and matrix arithmetic


def vec_add(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError("vector length mismatch")
    return tuple(a + b for a, b in zip(u, v))


def vec_sub(u: Vec, v: Vec) -> Vec:
    if len(u) != len(v):
        raise DimensionError("vector length mismatch")
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(c: Scalar, u: Vec) -> Vec:
    return tuple(c * a for a in u)


def is_zero_vec(u: Vec) -> bool:
    return all(a.is_zero for a in u)


def apply_mat(a: Mat, x: Vec) -> Vec:
    if a and len(a[0]) != len(x):
        raise DimensionError("matrix/vector shape mismatch")
    return tuple(
        _sum_products(row, x) for row in a
    )


def _sum_products(row: Vec, x: Vec):
    acc = None
    for r, v in zip(row, x):
        if r.is_zero or v.is_zero:
            continue
        term = r * v
        acc = term if acc is None else acc + term
    if acc is None:
        # need a zero of the right field; rows are never empty in practice
        return row[0].field.zero if row else x[0].field.zero
    return acc


def mat_mul(a: Mat, b: Mat) -> Mat:
    if a and b and len(a[0]) != len(b):
        raise DimensionError("matrix product shape mismatch")
    bt = transpose(b)
    return tuple(tuple(_sum_products(row, col) for col in bt) for row in a)


def mat_add(a: Mat, b: Mat) -> Mat:
    if len(a) != len(b):
        raise DimensionError("matrix sum shape mismatch")
    return tuple(vec_add(r, s) for r, s in zip(a, b))


def mat_sub(a: Mat, b: Mat) -> Mat:
    if len(a) != len(b):
        raise DimensionError("matrix sum shape mismatch")
    return tuple(vec_sub(r, s) for r, s in zip(a, b))


def mat_scale(c: Scalar, a: Mat) -> Mat:
    return tuple(vec_scale(c, r) for r in a)


def is_zero_mat(a: Mat) -> bool:
    return all(is_zero_vec(r) for r in a)


def transpose(a: Mat) -> Mat:
    if not a:
        return ()
    return tuple(tuple(a[r][c] for r in range(len(a))) for c in range(len(a[0])))


def mat_from_cols(cols: Sequence[Vec]) -> Mat:
    return transpose(tuple(cols))


def column(a: Mat, j: int) -> Vec:
    return tuple(row[j] for row in a)


def stack_rows(mats: Iterable[Mat]) -> Mat:
    rows: list = []
    for m in mats:
        rows.extend(m)
    return tuple(rows)


def tensor_vec(u: Vec, v: Vec) -> Vec:
    """Kronecker product of coordinate vectors, left factor major."""
    return tuple(a * b for a in u for b in v)


def add_outer(acc: list, c: Scalar, u: Vec, v: Vec) -> None:
    """acc += c (u (x) v) in place, on the lex pair basis; only the nonzero
    entries of u and v are visited."""
    w = len(v)
    vs = nonzero(v)
    for i, ui in nonzero(u):
        cu = c * ui
        for j, vj in vs:
            acc[i * w + j] += cu * vj


def tensor_mat(a: Mat, b: Mat) -> Mat:
    """Kronecker product; represents ``f (x) g`` on the lex tensor basis."""
    if not a or not b:
        return ()
    br, bc = len(b), len(b[0])
    ar, ac = len(a), len(a[0])
    return tuple(
        tuple(a[i][j] * b[k][l] for j in range(ac) for l in range(bc))
        for i in range(ar)
        for k in range(br)
    )


# ---------------------------------------------------------------------------
# row reduction, kernels, solving


def _clear_denominators(row: list) -> list:
    dens = [s.value.denominator for s in row]
    m = math.lcm(*dens) if dens else 1
    if m == 1:
        return row
    f = row[0].field
    c = f.of(m)
    return [c * s for s in row]


def rref(a: Mat, field: FieldSpec) -> tuple[Mat, tuple[int, ...]]:
    """Reduced row echelon form and pivot columns.

    Forward elimination is fraction-free: every update is the Bareiss
    cross-multiplication divided by the previous pivot, which is an exact
    division and keeps entries integral when the input rows are integral
    (rational rows are rescaled to integers first).  The reduced form is
    produced at the very end by ordinary field normalisation.
    """
    rows = [list(r) for r in a]
    nr = len(rows)
    nc = len(rows[0]) if nr else 0
    if field.kind == "rational":
        rows = [_clear_denominators(r) for r in rows]
    prev = field.one
    piv_cols: list[int] = []
    r = 0
    for c in range(nc):
        if r >= nr:
            break
        pr = next((i for i in range(r, nr) if not rows[i][c].is_zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        piv = rows[r][c]
        for i in range(r + 1, nr):
            fic = rows[i][c]
            for j in range(c, nc):
                rows[i][j] = (piv * rows[i][j] - fic * rows[r][j]) / prev
        prev = piv
        piv_cols.append(c)
        r += 1
    # normalisation pass: unit pivots, zeros above
    for k in reversed(range(len(piv_cols))):
        c = piv_cols[k]
        inv = rows[k][c].inverse()
        rows[k] = [inv * x for x in rows[k]]
        for i in range(k):
            f = rows[i][c]
            if not f.is_zero:
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[k])]
    return tuple(tuple(r) for r in rows), tuple(piv_cols)


def rank(a: Mat, field: FieldSpec) -> int:
    return len(rref(a, field)[1])


def kernel_basis(a: Mat, field: FieldSpec, ncols: int | None = None) -> tuple[Vec, ...]:
    """Basis of the right kernel; one vector per free column, in order.

    The basis vector for free column ``f`` has a 1 in slot ``f``, so the
    count always equals ``ncols - rank``.
    """
    if ncols is None:
        if not a:
            raise DimensionError("kernel of empty matrix needs explicit ncols")
        ncols = len(a[0])
    if not a:
        return tuple(unit_vec(field, ncols, i) for i in range(ncols))
    r, piv = rref(a, field)
    free = [c for c in range(ncols) if c not in piv]
    out = []
    for f in free:
        x = [field.zero] * ncols
        x[f] = field.one
        for row_idx, p in enumerate(piv):
            x[p] = -r[row_idx][f]
        out.append(tuple(x))
    return tuple(out)


@dataclass(frozen=True)
class LinearSolution:
    """One particular solution together with a kernel basis."""

    particular: Vec
    nullspace: tuple


def solve_linear(a: Mat, b: Vec, field: FieldSpec) -> LinearSolution | None:
    """Solve ``a x = b``; None when inconsistent.

    The particular solution sets all free variables to zero.  Both the
    particular solution and every nullspace vector are verified by
    substitution before being returned.
    """
    if len(a) != len(b):
        raise DimensionError("rows of a must match length of b")
    if not a:
        return LinearSolution((), ())
    nc = len(a[0])
    aug = tuple(row + (bi,) for row, bi in zip(a, b))
    r, piv = rref(aug, field)
    if nc in piv:
        return None
    x = [field.zero] * nc
    for row_idx, p in enumerate(piv):
        x[p] = r[row_idx][nc]
    particular = tuple(x)
    null = kernel_basis(a, field, nc)
    if apply_mat(a, particular) != tuple(b):
        raise InternalError("solver produced a non-solution")
    for v in null:
        if not is_zero_vec(apply_mat(a, v)):
            raise InternalError("solver produced a bad kernel vector")
    return LinearSolution(particular, null)


def column_space_basis(a: Mat, field: FieldSpec) -> tuple[Vec, ...]:
    """Canonical (RREF of the transpose) basis of the column space."""
    r, piv = rref(transpose(a), field)
    return tuple(r[i] for i in range(len(piv)))


def in_span(v: Vec, basis: Sequence[Vec], field: FieldSpec) -> bool:
    if is_zero_vec(v):
        return True
    if not basis:
        return False
    m = mat_from_cols(tuple(basis))
    return solve_linear(m, v, field) is not None


def span_leq(b1: Sequence[Vec], b2: Sequence[Vec], field: FieldSpec) -> bool:
    return all(in_span(v, b2, field) for v in b1)


def span_eq(b1: Sequence[Vec], b2: Sequence[Vec], field: FieldSpec) -> bool:
    return span_leq(b1, b2, field) and span_leq(b2, b1, field)
