"""Finite-dimensional algebraic structures given by structure constants.

An algebra stores ``mult[i][j][k]`` with ``e_i e_j = sum_k mult[i][j][k] e_k``,
a coalgebra stores ``comult[i][j][k]`` with ``Delta(e_i) = sum comult[i][j][k]
e_j (x) e_k``; bialgebras, Hopf algebras and their weak variants are layered
on top of those two tensors.  Axiom checkers return a Report with the first
violating basis tuple per axiom; nothing is ever assumed to hold because a
constructor was called.

The weak counital maps are written ``pi_L`` (target) and ``pi_R`` (source):
``pi_L(h) = eps(1_(1) h) 1_(2)`` and ``pi_R(h) = eps(h 1_(2)) 1_(1)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .exactlin import (
    DimensionError,
    FieldSpec,
    InternalError,
    Mat,
    Scalar,
    Tensor3,
    Vec,
    apply_mat,
    column,
    column_space_basis,
    mat_from_cols,
    mat_mul,
    solve_linear,
    unit_vec,
    vec_add,
    vec_scale,
    zeros_vec,
)
from .report import Checker, Report, Violation


class StructureError(Exception):
    """Structurally invalid or mismatched input to an operation."""


class PreconditionError(Exception):
    """A documented precondition of an operation does not hold."""


# ---------------------------------------------------------------------------
# carriers


@dataclass(frozen=True)
class FinAlgebra:
    """Associative algebra by structure constants; ``unit=None`` means nonunital."""

    field: FieldSpec
    dim: int
    labels: tuple
    mult: Tensor3
    unit: Vec | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if len(self.labels) != self.dim:
            raise DimensionError(f"{self.name}: {len(self.labels)} labels for dim {self.dim}")
        if len(self.mult) != self.dim or any(
            len(p) != self.dim or any(len(r) != self.dim for r in p) for p in self.mult
        ):
            raise DimensionError(f"{self.name}: mult tensor is not dim^3")
        if self.unit is not None and len(self.unit) != self.dim:
            raise DimensionError(f"{self.name}: unit length != dim")

    @property
    def unital(self) -> bool:
        return self.unit is not None

    def basis(self, i: int) -> Vec:
        return unit_vec(self.field, self.dim, i)

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise StructureError(f"{self.name}: no basis label {label!r}") from None

    def mul(self, x: Vec, y: Vec) -> Vec:
        out = [self.field.zero] * self.dim
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            for j, yj in enumerate(y):
                if yj.is_zero:
                    continue
                c = xi * yj
                for k, m in enumerate(self.mult[i][j]):
                    if not m.is_zero:
                        out[k] = out[k] + c * m
        return tuple(out)

    def left_mult(self, r: Vec) -> Mat:
        """Matrix of x -> r x."""
        cols = [self.mul(r, self.basis(j)) for j in range(self.dim)]
        return mat_from_cols(cols)

    def right_mult(self, r: Vec) -> Mat:
        """Matrix of x -> x r."""
        cols = [self.mul(self.basis(j), r) for j in range(self.dim)]
        return mat_from_cols(cols)


@dataclass(frozen=True)
class FinCoalgebra:
    field: FieldSpec
    dim: int
    labels: tuple
    comult: Tensor3
    counit: Vec

    def __post_init__(self) -> None:
        if len(self.labels) != self.dim:
            raise DimensionError("coalgebra: label count != dim")
        if len(self.comult) != self.dim or any(
            len(p) != self.dim or any(len(r) != self.dim for r in p) for p in self.comult
        ):
            raise DimensionError("coalgebra: comult tensor is not dim^3")
        if len(self.counit) != self.dim:
            raise DimensionError("coalgebra: counit length != dim")

    def basis(self, i: int) -> Vec:
        return unit_vec(self.field, self.dim, i)

    def comult_vec(self, x: Vec) -> Vec:
        """Delta(x) as a dim^2 vector on the lex pair basis."""
        n = self.dim
        out = [self.field.zero] * (n * n)
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            for j in range(n):
                for k, d in enumerate(self.comult[i][j]):
                    if not d.is_zero:
                        out[j * n + k] = out[j * n + k] + xi * d
        return tuple(out)

    def comult2_vec(self, x: Vec) -> Vec:
        """(Delta (x) id) Delta(x) as a dim^3 vector; coassociativity is not assumed."""
        n = self.dim
        out = [self.field.zero] * (n * n * n)
        for i, xi in enumerate(x):
            if xi.is_zero:
                continue
            for m in range(n):
                for c in range(n):
                    d = self.comult[i][m][c]
                    if d.is_zero:
                        continue
                    coeff = xi * d
                    for a in range(n):
                        for b, d2 in enumerate(self.comult[m][a]):
                            if not d2.is_zero:
                                idx = (a * n + b) * n + c
                                out[idx] = out[idx] + coeff * d2
        return tuple(out)

    def counit_of(self, x: Vec) -> Scalar:
        acc = self.field.zero
        for xi, ei in zip(x, self.counit):
            if not (xi.is_zero or ei.is_zero):
                acc = acc + xi * ei
        return acc


@dataclass(frozen=True)
class Bialgebra:
    name: str
    algebra: FinAlgebra
    coalgebra: FinCoalgebra

    def __post_init__(self) -> None:
        if self.algebra.field != self.coalgebra.field:
            raise StructureError(f"{self.name}: algebra/coalgebra fields differ")
        if self.algebra.dim != self.coalgebra.dim:
            raise StructureError(f"{self.name}: algebra/coalgebra dims differ")
        if not self.algebra.unital:
            raise StructureError(f"{self.name}: bialgebra carrier must be unital")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


@dataclass(frozen=True)
class HopfAlgebra:
    name: str
    bialgebra: Bialgebra
    antipode: Mat

    def __post_init__(self) -> None:
        n = self.bialgebra.dim
        if len(self.antipode) != n or any(len(r) != n for r in self.antipode):
            raise DimensionError(f"{self.name}: antipode is not dim x dim")

    @property
    def field(self) -> FieldSpec:
        return self.bialgebra.field

    @property
    def dim(self) -> int:
        return self.bialgebra.dim

    @property
    def labels(self) -> tuple:
        return self.bialgebra.labels

    @property
    def algebra(self) -> FinAlgebra:
        return self.bialgebra.algebra

    @property
    def coalgebra(self) -> FinCoalgebra:
        return self.bialgebra.coalgebra


@dataclass(frozen=True)
class WeakBialgebra:
    """Carrier for the weak axiom set; bialgebra unit/counit compatibility
    is deliberately not part of its contract."""

    name: str
    algebra: FinAlgebra
    coalgebra: FinCoalgebra

    def __post_init__(self) -> None:
        if self.algebra.field != self.coalgebra.field:
            raise StructureError(f"{self.name}: algebra/coalgebra fields differ")
        if self.algebra.dim != self.coalgebra.dim:
            raise StructureError(f"{self.name}: algebra/coalgebra dims differ")
        if not self.algebra.unital:
            raise StructureError(f"{self.name}: weak bialgebra carrier must be unital")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple:
        return self.algebra.labels


@dataclass(frozen=True)
class WeakHopfAlgebra:
    name: str
    weak: WeakBialgebra
    antipode: Mat

    def __post_init__(self) -> None:
        n = self.weak.dim
        if len(self.antipode) != n or any(len(r) != n for r in self.antipode):
            raise DimensionError(f"{self.name}: antipode is not dim x dim")

    @property
    def field(self) -> FieldSpec:
        return self.weak.field

    @property
    def dim(self) -> int:
        return self.weak.dim

    @property
    def labels(self) -> tuple:
        return self.weak.labels

    @property
    def algebra(self) -> FinAlgebra:
        return self.weak.algebra

    @property
    def coalgebra(self) -> FinCoalgebra:
        return self.weak.coalgebra


StructureLike = Union[FinAlgebra, FinCoalgebra, Bialgebra, HopfAlgebra, WeakBialgebra, WeakHopfAlgebra]
BialgebraLike = Union[Bialgebra, HopfAlgebra]
WeakLike = Union[WeakBialgebra, WeakHopfAlgebra]
CoalgebraLike = Union[FinCoalgebra, Bialgebra, HopfAlgebra, WeakBialgebra, WeakHopfAlgebra]


def algebra_of(x) -> FinAlgebra:
    if isinstance(x, FinAlgebra):
        return x
    if isinstance(x, (Bialgebra, WeakBialgebra, HopfAlgebra, WeakHopfAlgebra)):
        return x.algebra
    raise StructureError(f"{x!r} has no algebra part")


def coalgebra_of(x) -> FinCoalgebra:
    if isinstance(x, FinCoalgebra):
        return x
    if isinstance(x, (Bialgebra, WeakBialgebra, HopfAlgebra, WeakHopfAlgebra)):
        return x.coalgebra
    raise StructureError(f"{x!r} has no coalgebra part")


def antipode_of(x) -> Mat | None:
    if isinstance(x, (HopfAlgebra, WeakHopfAlgebra)):
        return x.antipode
    return None


def name_of(x) -> str:
    return getattr(x, "name", "")


def as_weak(x: BialgebraLike) -> WeakLike:
    """View an ordinary bialgebra or Hopf algebra through the weak interface."""
    if isinstance(x, HopfAlgebra):
        wb = WeakBialgebra(x.name + "-as-weak", x.algebra, x.coalgebra)
        return WeakHopfAlgebra(x.name + "-as-weak", wb, x.antipode)
    if isinstance(x, Bialgebra):
        return WeakBialgebra(x.name + "-as-weak", x.algebra, x.coalgebra)
    raise StructureError("as_weak expects a bialgebra or Hopf algebra")


@dataclass(frozen=True)
class Functional:
    """Linear functional on a coalgebra-bearing host, in dual coordinates."""

    host: CoalgebraLike
    coords: Vec

    def __post_init__(self) -> None:
        if len(self.coords) != coalgebra_of(self.host).dim:
            raise DimensionError("functional coordinate length != host dim")

    def __call__(self, x: Vec) -> Scalar:
        c = coalgebra_of(self.host)
        acc = c.field.zero
        for xi, fi in zip(x, self.coords):
            if not (xi.is_zero or fi.is_zero):
                acc = acc + xi * fi
        return acc


# ---------------------------------------------------------------------------
# products on tensor powers (computed directly, never materialised)


def tensor2_product(a: FinAlgebra, u: Vec, v: Vec) -> Vec:
    """Product of u, v in A (x) A, both given as dim^2 coordinate vectors."""
    n = a.dim
    out = [a.field.zero] * (n * n)
    for p, up in enumerate(u):
        if up.is_zero:
            continue
        i, j = divmod(p, n)
        for q, vq in enumerate(v):
            if vq.is_zero:
                continue
            k, l = divmod(q, n)
            c = up * vq
            for x, mx in enumerate(a.mult[i][k]):
                if mx.is_zero:
                    continue
                cm = c * mx
                for y, my in enumerate(a.mult[j][l]):
                    if not my.is_zero:
                        out[x * n + y] = out[x * n + y] + cm * my
    return tuple(out)


def tensor3_product(a: FinAlgebra, u: Vec, v: Vec) -> Vec:
    """Product of u, v in A (x) A (x) A, both dim^3 coordinate vectors."""
    n = a.dim
    out = [a.field.zero] * (n ** 3)
    for p, up in enumerate(u):
        if up.is_zero:
            continue
        ij, k = divmod(p, n)
        i, j = divmod(ij, n)
        for q, vq in enumerate(v):
            if vq.is_zero:
                continue
            lm, r = divmod(q, n)
            l, m = divmod(lm, n)
            c = up * vq
            for x, mx in enumerate(a.mult[i][l]):
                if mx.is_zero:
                    continue
                cx = c * mx
                for y, my in enumerate(a.mult[j][m]):
                    if my.is_zero:
                        continue
                    cy = cx * my
                    for z, mz in enumerate(a.mult[k][r]):
                        if not mz.is_zero:
                            idx = (x * n + y) * n + z
                            out[idx] = out[idx] + cy * mz
    return tuple(out)


def swap_tensor2(v: Vec, n: int) -> Vec:
    """The flip map on A (x) A coordinates."""
    out = [None] * (n * n)
    for p, c in enumerate(v):
        i, j = divmod(p, n)
        out[j * n + i] = c
    return tuple(out)


def comult_of_unit(b) -> Mat:
    """Delta(1) as an n x n coefficient grid D[j][k]."""
    alg, co = algebra_of(b), coalgebra_of(b)
    n = co.dim
    flat = co.comult_vec(alg.unit)
    return tuple(tuple(flat[j * n + k] for k in range(n)) for j in range(n))


# ---------------------------------------------------------------------------
# axiom checkers


def check_algebra(a: FinAlgebra) -> Report:
    ck = Checker("algebra", a.name)
    n = a.dim
    for i in range(n):
        for j in range(n):
            ij = a.mult[i][j]
            for k in range(n):
                lhs = a.mul(ij, a.basis(k))
                rhs = a.mul(a.basis(i), a.mult[j][k])
                ck.equal_vec("assoc", (("i", i), ("j", j), ("k", k)), lhs, rhs)
    if a.unital:
        for i in range(n):
            ck.equal_vec("unit-left", (("i", i),), a.mul(a.unit, a.basis(i)), a.basis(i))
            ck.equal_vec("unit-right", (("i", i),), a.mul(a.basis(i), a.unit), a.basis(i))
    else:
        ck.skip("unit-left")
        ck.skip("unit-right")
    return ck.report()


def check_coalgebra(c: FinCoalgebra, instance: str = "") -> Report:
    ck = Checker("coalgebra", instance)
    n = c.dim
    for i in range(n):
        # (Delta (x) id) Delta = (id (x) Delta) Delta
        lhs = c.comult2_vec(c.basis(i))
        rhs = [c.field.zero] * (n ** 3)
        for a in range(n):
            for m in range(n):
                d = c.comult[i][a][m]
                if d.is_zero:
                    continue
                for b in range(n):
                    for cc, d2 in enumerate(c.comult[m][b]):
                        if not d2.is_zero:
                            idx = (a * n + b) * n + cc
                            rhs[idx] = rhs[idx] + d * d2
        ck.equal_vec("coassoc", (("i", i),), lhs, tuple(rhs))
        left = [c.field.zero] * n
        right = [c.field.zero] * n
        for j in range(n):
            for k in range(n):
                d = c.comult[i][j][k]
                if d.is_zero:
                    continue
                left[k] = left[k] + d * c.counit[j]
                right[j] = right[j] + d * c.counit[k]
        ck.equal_vec("counit-left", (("i", i),), tuple(left), c.basis(i))
        ck.equal_vec("counit-right", (("i", i),), tuple(right), c.basis(i))
    return ck.report()


def _merge(ck: Checker, sub: Report, prefix: str = "") -> None:
    for v in sub.violations:
        ck.fail(prefix + v.axiom, v.witness, v.delta)
    # keep counts faithful: one fail() above per distinct axiom; add the rest
    extra = sub.violation_count - len(sub.violations)
    for _ in range(extra):
        if sub.violations:
            v = sub.violations[0]
            ck.fail(prefix + v.axiom, v.witness, v.delta)


def check_bialgebra(b: BialgebraLike) -> Report:
    alg, co = algebra_of(b), coalgebra_of(b)
    ck = Checker("bialgebra", name_of(b))
    _merge(ck, check_algebra(alg))
    _merge(ck, check_coalgebra(co))
    n = alg.dim
    for i in range(n):
        for j in range(n):
            lhs = co.comult_vec(alg.mult[i][j])
            rhs = tensor2_product(alg, co.comult_vec(alg.basis(i)), co.comult_vec(alg.basis(j)))
            ck.equal_vec("comult-mult", (("i", i), ("j", j)), lhs, rhs)
            got = co.counit_of(alg.mult[i][j])
            want = co.counit[i] * co.counit[j]
            ck.equal_vec("counit-mult", (("i", i), ("j", j)), (got,), (want,))
    ck.equal_vec("comult-unit", (), co.comult_vec(alg.unit), tensor_unit(alg))
    ck.equal_vec("counit-unit", (), (co.counit_of(alg.unit),), (alg.field.one,))
    return ck.report()


def tensor_unit(a: FinAlgebra) -> Vec:
    """1 (x) 1 as a dim^2 coordinate vector."""
    n = a.dim
    out = [a.field.zero] * (n * n)
    for i, ui in enumerate(a.unit):
        if ui.is_zero:
            continue
        for j, uj in enumerate(a.unit):
            if not uj.is_zero:
                out[i * n + j] = ui * uj
    return tuple(out)


def check_hopf(h: HopfAlgebra) -> Report:
    ck = Checker("hopf", h.name)
    _merge(ck, check_bialgebra(h.bialgebra))
    alg, co, s = h.algebra, h.coalgebra, h.antipode
    n = alg.dim
    for i in range(n):
        left = zeros_vec(alg.field, n)
        right = zeros_vec(alg.field, n)
        for j in range(n):
            for k in range(n):
                d = co.comult[i][j][k]
                if d.is_zero:
                    continue
                left = vec_add(left, vec_scale(d, alg.mul(column(s, j), alg.basis(k))))
                right = vec_add(right, vec_scale(d, alg.mul(alg.basis(j), column(s, k))))
        want = vec_scale(co.counit[i], alg.unit)
        ck.equal_vec("antipode-left", (("i", i),), left, want)
        ck.equal_vec("antipode-right", (("i", i),), right, want)
    return ck.report()


def check_weak_bialgebra(w: WeakLike) -> Report:
    alg, co = algebra_of(w), coalgebra_of(w)
    ck = Checker("weak-bialgebra", name_of(w))
    _merge(ck, check_algebra(alg))
    _merge(ck, check_coalgebra(co))
    n = alg.dim
    for i in range(n):
        for j in range(n):
            lhs = co.comult_vec(alg.mult[i][j])
            rhs = tensor2_product(alg, co.comult_vec(alg.basis(i)), co.comult_vec(alg.basis(j)))
            ck.equal_vec("comult-mult", (("i", i), ("j", j)), lhs, rhs)
    # eps(xyz) = eps(x y_(1)) eps(y_(2) z) = eps(x y_(2)) eps(y_(1) z)
    for x in range(n):
        for y in range(n):
            xy = alg.mult[x][y]
            for z in range(n):
                lhs = co.counit_of(alg.mul(xy, alg.basis(z)))
                r1 = alg.field.zero
                r2 = alg.field.zero
                for a in range(n):
                    for b, d in enumerate(co.comult[y][a]):
                        if d.is_zero:
                            continue
                        exa = co.counit_of(alg.mult[x][a])
                        ebz = co.counit_of(alg.mult[b][z])
                        exb = co.counit_of(alg.mult[x][b])
                        eaz = co.counit_of(alg.mult[a][z])
                        r1 = r1 + d * exa * ebz
                        r2 = r2 + d * exb * eaz
                ck.equal_vec("weak-counit-mult-1", (("x", x), ("y", y), ("z", z)), (lhs,), (r1,))
                ck.equal_vec("weak-counit-mult-2", (("x", x), ("y", y), ("z", z)), (lhs,), (r2,))
    # Delta^2(1) = (Delta(1) (x) 1)(1 (x) Delta(1)) = (1 (x) Delta(1))(Delta(1) (x) 1)
    d1 = comult_of_unit(w)
    lhs = co.comult2_vec(alg.unit)
    r1 = [alg.field.zero] * (n ** 3)
    r2 = [alg.field.zero] * (n ** 3)
    for a in range(n):
        for q in range(n):
            dq = d1[a][q]
            if dq.is_zero:
                continue
            for r in range(n):
                for c in range(n):
                    dr = d1[r][c]
                    if dr.is_zero:
                        continue
                    coeff = dq * dr
                    for b, m in enumerate(alg.mult[q][r]):
                        if not m.is_zero:
                            r1[(a * n + b) * n + c] = r1[(a * n + b) * n + c] + coeff * m
                    for b, m in enumerate(alg.mult[r][q]):
                        if not m.is_zero:
                            r2[(a * n + b) * n + c] = r2[(a * n + b) * n + c] + coeff * m
    ck.equal_vec("weak-comult-unit-1", (), lhs, tuple(r1))
    ck.equal_vec("weak-comult-unit-2", (), lhs, tuple(r2))
    return ck.report()


def check_weak_hopf(w: WeakHopfAlgebra) -> Report:
    ck = Checker("weak-hopf", w.name)
    _merge(ck, check_weak_bialgebra(w.weak))
    alg, co, s = w.algebra, w.coalgebra, w.antipode
    pil, pir = target_source(w)
    n = alg.dim
    for i in range(n):
        left = zeros_vec(alg.field, n)
        right = zeros_vec(alg.field, n)
        for j in range(n):
            for k in range(n):
                d = co.comult[i][j][k]
                if d.is_zero:
                    continue
                left = vec_add(left, vec_scale(d, alg.mul(alg.basis(j), column(s, k))))
                right = vec_add(right, vec_scale(d, alg.mul(column(s, j), alg.basis(k))))
        ck.equal_vec("antipode-target", (("i", i),), left, column(pil, i))
        ck.equal_vec("antipode-source", (("i", i),), right, column(pir, i))
        # S(x_(1)) x_(2) S(x_(3)) = S(x)
        d2 = co.comult2_vec(co.basis(i))
        acc = zeros_vec(alg.field, n)
        for p, cval in enumerate(d2):
            if cval.is_zero:
                continue
            ab, c3 = divmod(p, n)
            a3, b3 = divmod(ab, n)
            term = alg.mul(alg.mul(column(s, a3), alg.basis(b3)), column(s, c3))
            acc = vec_add(acc, vec_scale(cval, term))
        ck.equal_vec("antipode-triple", (("i", i),), acc, column(s, i))
    return ck.report()


# ---------------------------------------------------------------------------
# convolution and antipodes


def convolution(f: Functional, g: Functional) -> Functional:
    """Convolution product (f * g)(x) = f(x_(1)) g(x_(2))."""
    cf, cg = coalgebra_of(f.host), coalgebra_of(g.host)
    if cf != cg:
        raise StructureError("convolution of functionals on different hosts")
    n = cf.dim
    coords = []
    for i in range(n):
        acc = cf.field.zero
        for j in range(n):
            fj = f.coords[j]
            if fj.is_zero:
                continue
            for k, d in enumerate(cf.comult[i][j]):
                if not (d.is_zero or g.coords[k].is_zero):
                    acc = acc + d * fj * g.coords[k]
        coords.append(acc)
    return Functional(f.host, tuple(coords))


def counit_functional(host: CoalgebraLike) -> Functional:
    return Functional(host, coalgebra_of(host).counit)


def _antipode_system_ordinary(b: BialgebraLike):
    alg, co = algebra_of(b), coalgebra_of(b)
    n = alg.dim
    f = alg.field
    rows, rhs = [], []
    for i in range(n):
        for c in range(n):
            row1 = [f.zero] * (n * n)
            row2 = [f.zero] * (n * n)
            for j in range(n):
                for k in range(n):
                    d = co.comult[i][j][k]
                    if d.is_zero:
                        continue
                    for s in range(n):
                        m = alg.mult[s][k][c]
                        if not m.is_zero:
                            row1[s * n + j] = row1[s * n + j] + d * m
                        m2 = alg.mult[j][s][c]
                        if not m2.is_zero:
                            row2[s * n + k] = row2[s * n + k] + d * m2
            want = co.counit[i] * alg.unit[c]
            rows.append(tuple(row1))
            rhs.append(want)
            rows.append(tuple(row2))
            rhs.append(want)
    return tuple(rows), tuple(rhs)


def _antipode_system_weak(w: WeakLike):
    alg, co = algebra_of(w), coalgebra_of(w)
    pil, pir = target_source(w)
    n = alg.dim
    f = alg.field
    rows, rhs = [], []
    for i in range(n):
        for c in range(n):
            # x_(1) S(x_(2)) = pi_L(x) and S(x_(1)) x_(2) = pi_R(x)
            row1 = [f.zero] * (n * n)
            row2 = [f.zero] * (n * n)
            for j in range(n):
                for k in range(n):
                    d = co.comult[i][j][k]
                    if d.is_zero:
                        continue
                    for s in range(n):
                        m = alg.mult[j][s][c]
                        if not m.is_zero:
                            row1[s * n + k] = row1[s * n + k] + d * m
                        m2 = alg.mult[s][k][c]
                        if not m2.is_zero:
                            row2[s * n + j] = row2[s * n + j] + d * m2
            rows.append(tuple(row1))
            rhs.append(pil[c][i])
            rows.append(tuple(row2))
            rhs.append(pir[c][i])
    # linear consequences that every weak antipode satisfies; they cut the
    # affine solution set down before the cubic axiom is tested
    pil_pir = mat_mul(pil, pir)
    pir_pil = mat_mul(pir, pil)
    for r in range(n):
        for c in range(n):
            row = [f.zero] * (n * n)
            for s in range(n):
                if not pir[s][c].is_zero:
                    row[r * n + s] = row[r * n + s] + pir[s][c]
            rows.append(tuple(row))
            rhs.append(pil_pir[r][c])
            row = [f.zero] * (n * n)
            for s in range(n):
                if not pil[s][c].is_zero:
                    row[r * n + s] = row[r * n + s] + pil[s][c]
            rows.append(tuple(row))
            rhs.append(pir_pil[r][c])
            row = [f.zero] * (n * n)
            for s in range(n):
                if not pil[r][s].is_zero:
                    row[s * n + c] = row[s * n + c] + pil[r][s]
            rows.append(tuple(row))
            rhs.append(pil_pir[r][c])
            row = [f.zero] * (n * n)
            for s in range(n):
                if not pir[r][s].is_zero:
                    row[s * n + c] = row[s * n + c] + pir[r][s]
            rows.append(tuple(row))
            rhs.append(pir_pil[r][c])
    return tuple(rows), tuple(rhs)


def _unflatten(xs: Vec, n: int) -> Mat:
    return tuple(tuple(xs[r * n + c] for c in range(n)) for r in range(n))


def _antipode_ok(b, s: Mat) -> bool:
    if isinstance(b, (Bialgebra, HopfAlgebra)):
        cand = HopfAlgebra(name_of(b), b if isinstance(b, Bialgebra) else b.bialgebra, s)
        rep = check_hopf(cand)
        return not any(v.axiom.startswith("antipode") for v in rep.violations)
    wb = b if isinstance(b, WeakBialgebra) else b.weak
    cand = WeakHopfAlgebra(name_of(b), wb, s)
    rep = check_weak_hopf(cand)
    return not any(v.axiom.startswith("antipode") for v in rep.violations)


def compute_antipode(b: Union[BialgebraLike, WeakLike]) -> Mat | None:
    """Solve the antipode equations; None when no antipode exists.

    The convolution conditions are linear in S.  For weak input the cubic
    axiom S(x_(1)) x_(2) S(x_(3)) = S(x) cannot be added to the system, so
    candidates from the affine solution set are tested against it; a small
    combination search over the nullspace covers non-unique solutions.
    """
    n = algebra_of(b).dim
    f = algebra_of(b).field
    weak = isinstance(b, (WeakBialgebra, WeakHopfAlgebra))
    rows, rhs = _antipode_system_weak(b) if weak else _antipode_system_ordinary(b)
    sol = solve_linear(rows, rhs, f)
    if sol is None:
        return None
    candidates = [sol.particular]
    if sol.nullspace:
        span = sol.nullspace[:3]
        coeffs = [f.zero, f.one, -f.one]
        combos: list[Vec] = [sol.particular]
        for v in span:
            combos = [
                vec_add(base, vec_scale(c, v)) for base in combos for c in coeffs
            ]
        candidates = combos
    for xs in candidates:
        s = _unflatten(xs, n)
        if _antipode_ok(b, s):
            return s
    return None


# ---------------------------------------------------------------------------
# weak counital maps


def target_source(w: WeakLike) -> tuple[Mat, Mat]:
    """Matrices of pi_L and pi_R."""
    alg, co = algebra_of(w), coalgebra_of(w)
    n = alg.dim
    d1 = comult_of_unit(w)
    pil_cols, pir_cols = [], []
    for h in range(n):
        pl = [alg.field.zero] * n
        pr = [alg.field.zero] * n
        for j in range(n):
            for k in range(n):
                d = d1[j][k]
                if d.is_zero:
                    continue
                pl[k] = pl[k] + d * co.counit_of(alg.mult[j][h])
                pr[j] = pr[j] + d * co.counit_of(alg.mult[h][k])
        pil_cols.append(tuple(pl))
        pir_cols.append(tuple(pr))
    return mat_from_cols(pil_cols), mat_from_cols(pir_cols)


def check_counital_maps(w: WeakLike) -> Report:
    """The pi_L / pi_R identities (W1)-(W4), plus (W5)-(W6) when an antipode
    is present.  These are consequences of the weak axioms; the checker
    flags structures where they fail instead of assuming them."""
    alg, co = algebra_of(w), coalgebra_of(w)
    pil, pir = target_source(w)
    s = antipode_of(w)
    n = alg.dim
    ck = Checker("counital-maps", name_of(w))
    ck.equal_vec("W1-target", (), tuple(r for m in mat_mul(pil, pil) for r in m), tuple(r for m in pil for r in m))
    ck.equal_vec("W1-source", (), tuple(r for m in mat_mul(pir, pir) for r in m), tuple(r for m in pir for r in m))
    d1 = comult_of_unit(w)
    for x in range(n):
        plx = column(pil, x)
        prx = column(pir, x)
        for y in range(n):
            got = apply_mat(pil, alg.mul(plx, alg.basis(y)))
            want = alg.mul(plx, column(pil, y))
            ck.equal_vec("W2-target", (("x", x), ("y", y)), got, want)
            got = apply_mat(pir, alg.mul(alg.basis(x), column(pir, y)))
            want = alg.mul(prx, column(pir, y))
            ck.equal_vec("W2-source", (("x", x), ("y", y)), got, want)
            # W4: eps(pi_R(x) y) = eps(xy) = eps(x pi_L(y))
            exy = co.counit_of(alg.mul(alg.basis(x), alg.basis(y)))
            got1 = co.counit_of(alg.mul(prx, alg.basis(y)))
            got2 = co.counit_of(alg.mul(alg.basis(x), column(pil, y)))
            ck.equal_vec("W4-source", (("x", x), ("y", y)), (got1,), (exy,))
            ck.equal_vec("W4-target", (("x", x), ("y", y)), (got2,), (exy,))
        # W3: Delta(pi_L(x)) = 1_(1) pi_L(x) (x) 1_(2), mirrored for pi_R
        got = co.comult_vec(plx)
        want = [alg.field.zero] * (n * n)
        for a in range(n):
            for k in range(n):
                d = d1[a][k]
                if d.is_zero:
                    continue
                prod = alg.mul(alg.basis(a), plx)
                for j, pv in enumerate(prod):
                    if not pv.is_zero:
                        want[j * n + k] = want[j * n + k] + d * pv
        ck.equal_vec("W3-target", (("x", x),), got, tuple(want))
        got = co.comult_vec(prx)
        want = [alg.field.zero] * (n * n)
        for j in range(n):
            for b in range(n):
                d = d1[j][b]
                if d.is_zero:
                    continue
                prod = alg.mul(prx, alg.basis(b))
                for k, pv in enumerate(prod):
                    if not pv.is_zero:
                        want[j * n + k] = want[j * n + k] + d * pv
        ck.equal_vec("W3-source", (("x", x),), got, tuple(want))
    if s is None:
        ck.skip("W5")
        ck.skip("W6")
        return ck.report()
    flat = lambda m: tuple(x for row in m for x in row)  # noqa: E731
    ck.equal_vec("W5-target", (), flat(mat_mul(pil, pir)), flat(mat_mul(pil, s)))
    ck.equal_vec("W5-target", (), flat(mat_mul(pil, pir)), flat(mat_mul(s, pir)))
    ck.equal_vec("W5-source", (), flat(mat_mul(pir, pil)), flat(mat_mul(pir, s)))
    ck.equal_vec("W5-source", (), flat(mat_mul(pir, pil)), flat(mat_mul(s, pil)))
    for x in range(n):
        # x_(1) (x) pi_R(x_(2)) = x 1_(1) (x) S(1_(2))
        lhs = [alg.field.zero] * (n * n)
        for j in range(n):
            for m in range(n):
                d = co.comult[x][j][m]
                if d.is_zero:
                    continue
                for k, pv in enumerate(column(pir, m)):
                    if not pv.is_zero:
                        lhs[j * n + k] = lhs[j * n + k] + d * pv
        rhs = [alg.field.zero] * (n * n)
        for a in range(n):
            for bcol in range(n):
                d = d1[a][bcol]
                if d.is_zero:
                    continue
                xa = alg.mult[x][a]
                for j, xv in enumerate(xa):
                    if xv.is_zero:
                        continue
                    for k, sv in enumerate(column(s, bcol)):
                        if not sv.is_zero:
                            rhs[j * n + k] = rhs[j * n + k] + d * xv * sv
        ck.equal_vec("W6-right", (("x", x),), tuple(lhs), tuple(rhs))
        # pi_L(x_(1)) (x) x_(2) = S(1_(1)) (x) 1_(2) x
        lhs = [alg.field.zero] * (n * n)
        for m in range(n):
            for k in range(n):
                d = co.comult[x][m][k]
                if d.is_zero:
                    continue
                for j, pv in enumerate(column(pil, m)):
                    if not pv.is_zero:
                        lhs[j * n + k] = lhs[j * n + k] + d * pv
        rhs = [alg.field.zero] * (n * n)
        for a in range(n):
            for bcol in range(n):
                d = d1[a][bcol]
                if d.is_zero:
                    continue
                bx = alg.mult[bcol][x]
                for j, sv in enumerate(column(s, a)):
                    if sv.is_zero:
                        continue
                    for k, xv in enumerate(bx):
                        if not xv.is_zero:
                            rhs[j * n + k] = rhs[j * n + k] + d * sv * xv
        ck.equal_vec("W6-left", (("x", x),), tuple(lhs), tuple(rhs))
    return ck.report()


# ---------------------------------------------------------------------------
# subalgebras and quantum commutativity


@dataclass(frozen=True)
class SubAlgebra:
    """Image of an operator, closed under multiplication.

    ``inclusion`` holds the chosen basis of the image as columns, so
    coordinates on ``algebra`` map into the ambient space by one matrix
    application.
    """

    algebra: FinAlgebra
    inclusion: Mat


def subalgebra_image(op: Mat, a: FinAlgebra) -> SubAlgebra:
    """Restrict a to the image of op; raises StructureError when the image
    is not multiplicatively closed (witness pair in the message)."""
    basis = column_space_basis(op, a.field)
    r = len(basis)
    incl = mat_from_cols(basis)
    coords: dict[tuple[int, int], Vec] = {}
    for i in range(r):
        for j in range(r):
            prod = a.mul(basis[i], basis[j])
            sol = solve_linear(incl, prod, a.field) if r else None
            if sol is None:
                raise StructureError(
                    f"image of operator on {a.name} is not closed: basis pair ({i}, {j})"
                )
            coords[(i, j)] = sol.particular
    mult = tuple(tuple(coords[(i, j)] for j in range(r)) for i in range(r))
    labels = tuple(f"b{i}" for i in range(r))
    sub_unit = None
    if r:
        # a two-sided unit, when one exists, satisfies linear equations
        rows, rhs = [], []
        for t in range(r):
            for c in range(r):
                rows.append(tuple(mult[s][t][c] for s in range(r)))
                rhs.append(a.field.one if t == c else a.field.zero)
                rows.append(tuple(mult[t][s][c] for s in range(r)))
                rhs.append(a.field.one if t == c else a.field.zero)
        sol = solve_linear(tuple(rows), tuple(rhs), a.field)
        if sol is not None:
            sub_unit = sol.particular
    sub = FinAlgebra(a.field, r, labels, mult, sub_unit, name=f"{a.name}-image")
    return SubAlgebra(sub, incl)


def quantum_commutative_witness(w: WeakLike) -> Violation | None:
    """First basis pair violating h_(1) g pi_R(h_(2)) = h g, if any."""
    alg, co = algebra_of(w), coalgebra_of(w)
    _, pir = target_source(w)
    n = alg.dim
    for h in range(n):
        for g in range(n):
            want = alg.mult[h][g]
            got = zeros_vec(alg.field, n)
            for a in range(n):
                for b, d in enumerate(co.comult[h][a]):
                    if d.is_zero:
                        continue
                    term = alg.mul(alg.mul(alg.basis(a), alg.basis(g)), column(pir, b))
                    got = vec_add(got, vec_scale(d, term))
            if got != tuple(want):
                delta = tuple(x - y for x, y in zip(got, want))
                return Violation("quantum-commutative", (("h", h), ("g", g)), delta)
    return None


def check_quantum_commutative(w: WeakLike) -> bool:
    """Quantum commutativity, decided two independent ways.

    The element identity h_(1) g pi_R(h_(2)) = h g and the containment of
    the source subalgebra in the centre must agree; disagreement would be
    a package bug, not a property of the input.
    """
    alg = algebra_of(w)
    _, pir = target_source(w)
    by_identity = quantum_commutative_witness(w) is None
    central = True
    for z in column_space_basis(pir, alg.field):
        for i in range(alg.dim):
            if alg.mul(z, alg.basis(i)) != alg.mul(alg.basis(i), z):
                central = False
                break
        if not central:
            break
    if by_identity != central:
        raise InternalError(
            f"{name_of(w)}: quantum-commutativity criteria disagree "
            f"(identity={by_identity}, centre={central})"
        )
    return by_identity


def check_algebra_morphism(f: Mat, src: FinAlgebra, dst: FinAlgebra) -> Report:
    """f as a matrix taking src coordinates to dst coordinates."""
    if src.field != dst.field:
        raise StructureError("algebra morphism across different fields")
    ck = Checker("algebra-morphism", f"{src.name}->{dst.name}")
    for i in range(src.dim):
        for j in range(src.dim):
            got = apply_mat(f, src.mult[i][j])
            want = dst.mul(column(f, i), column(f, j))
            ck.equal_vec("morphism-mult", (("i", i), ("j", j)), got, want)
    if src.unital and dst.unital:
        ck.equal_vec("morphism-unit", (), apply_mat(f, src.unit), dst.unit)
    else:
        ck.skip("morphism-unit")
    return ck.report()


# ---------------------------------------------------------------------------
# the dual convolution algebra


def dual_algebra(b: CoalgebraLike) -> FinAlgebra:
    """Convolution algebra on the dual basis of a coalgebra-bearing host."""
    co = coalgebra_of(b)
    n = co.dim
    mult = tuple(
        tuple(tuple(co.comult[k][i][j] for k in range(n)) for j in range(n))
        for i in range(n)
    )
    labels = tuple(f"{l}^" for l in co.labels)
    return FinAlgebra(co.field, n, labels, mult, co.counit, name=f"{name_of(b)}-dual")
