"""Exact scalars and linear algebra over Q and F_p.

Every higher layer manipulates structure constants through this module.
At the boundary, vectors and matrices are immutable nested tuples of
Scalar values; all operations are pure, and every comparison is exact;
there are no floats and no tolerances anywhere.  Under them sit raw
values in sparse form: ints mod p, or over Q ints when integral and
Fractions otherwise, so integer structure constants multiply at
machine-int speed.  Structure constants and operators are stored only in
that form, as the nonzero cells of a `RawTensor`.  Every sum of products
is one `contract` call, in einsum notation, down to a carrier's product
of two vectors and the matrix product ``@``; it reads raw sparse tensors
(a stored tensor, an earlier result, or a Scalar matrix or vector read
once) and returns one, so checkers compare and chain results without
building Scalars.  Row reduction is one sparse Gauss-Jordan on raw rows,
which visits only nonzero entries; kernels and solutions come back as raw
tensors.  A Scalar holds its raw value, so
``s.value`` reads it into the raw layer, and `scalar_vec` is the one way
back.

Every value type of the package (fields, scalars, structures, reports,
catalog entries) is a `Record`: a plain base class that reads a subclass's
fields off its annotations and generates no code, so defining the
package's classes costs a cold start almost nothing.

Conventions used throughout the package:

* a matrix ``A`` acts on column vectors, ``apply(A, x)[r] = sum A[r][c] x[c]``;
* the tensor basis of ``V (x) W`` is ordered lexicographically with the
  left factor major, i.e. pair ``(i, j)`` sits at slot ``i * dim(W) + j``.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from operator import attrgetter, itemgetter
from typing import Iterable, Sequence, Union


class ExactError(Exception):
    """Base class for errors raised by the exact-arithmetic layer."""


class FieldError(ExactError):
    """Bad field parameters, mixed fields, or impossible coercion."""


class DimensionError(ExactError):
    """Shape mismatch between vectors, matrices or tensors."""


class InternalError(Exception):
    """A postcondition that is a theorem failed; indicates a package bug."""


class Record:
    """An immutable value with named fields.

    A subclass's fields are its annotated names along the MRO, in order; a
    field's default is the class attribute of the same name.  Instances
    take the fields positionally or by keyword, and `__post_init__` runs
    last.  Assigning or deleting an attribute raises AttributeError (a
    `__post_init__` that keeps derived state writes it with
    ``object.__setattr__``).  ``==`` compares the fields of two instances of
    one class, ``hash`` is the hash of the tuple of fields, and ``repr``
    reads ``Class(field=value, ...)``.
    """

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        names: list = []
        for klass in reversed(cls.__mro__):
            names += [n for n in vars(klass).get("__annotations__", ()) if n not in names]
        cls._fields = tuple(names)
        # attrgetter of one name returns the value, not a 1-tuple
        cls._key = (attrgetter(*names) if len(names) > 1
                    else lambda self: tuple(getattr(self, n) for n in names))

    def __init__(self, *args, **kwargs) -> None:
        names = self._fields
        if kwargs or len(args) != len(names):
            args = self._filled(args, kwargs)
        # one object.__setattr__ per field: writing through self.__dict__
        # would give the instance a real dict, which slows every later
        # attribute read (measured on CPython 3.11)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _filled(cls, args: tuple, kwargs: dict) -> list:
        """Every field's value in order: `args`, then keywords or defaults."""
        values = list(args)
        for name in cls._fields[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif hasattr(cls, name):
                values.append(getattr(cls, name))
            else:
                raise TypeError(f"{cls.__name__}() needs a value for {name!r}")
        if kwargs or len(values) > len(cls._fields):
            raise TypeError(f"{cls.__name__}() takes the fields {cls._fields}, "
                            f"not {len(args)} values and {sorted(kwargs)}")
        return values

    def __post_init__(self) -> None:
        pass

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self is other or self._key(self) == self._key(other)

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        body = ", ".join(f"{n}={getattr(self, n)!r}" for n in self._fields)
        return f"{type(self).__qualname__}({body})"


# The largest modulus a prime field accepts: primality is decided by trial
# division, about sqrt(p) steps, so a modulus near 10^18 would stall a load.
MAX_MODULUS = 2**31 - 1


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


def _lean(x):
    """A raw value in lean form: a Fraction with denominator 1 as its int."""
    return x.numerator if type(x) is Fraction and x.denominator == 1 else x


class FieldSpec(Record):
    """Coefficient field: ``kind`` is ``"rational"`` or ``"prime"``.

    Prime fields carry their modulus ``p``, an int prime up to
    ``MAX_MODULUS``; it is validated on creation.
    ``zero`` and ``one`` are the field's Scalars, built once on creation.
    A field is compared on every Scalar operation, so ``__init__``, ``==``
    and ``hash`` are written out rather than left to `Record`.
    """

    kind: str
    p: int = 0

    def __init__(self, kind: str, p: int = 0) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "p", p)
        if self.kind == "rational":
            if self.p != 0:
                raise FieldError("rational field takes no modulus")
        elif self.kind == "prime":
            if not isinstance(self.p, int) or self.p > MAX_MODULUS:
                raise FieldError(f"modulus {self.p!r} is not an integer up to {MAX_MODULUS}")
            if not _is_prime(self.p):
                raise FieldError(f"{self.p!r} is not a prime modulus")
        else:
            raise FieldError(f"unknown field kind {self.kind!r}")
        # set in the same order on every instance; a cached_property would
        # write to __dict__, which slows every later attribute read on the
        # field (measured on CPython 3.11)
        object.__setattr__(self, "zero", self.of(0))
        object.__setattr__(self, "one", self.of(1))

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.kind, self.p) == (other.kind, other.p)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.kind, self.p))

    def of(self, value: RawScalar) -> "Scalar":
        """Coerce an int, Fraction, string or Scalar into this field.

        A float is refused: it is not an exact value; nor is a bool, which
        Python would otherwise take for the int 0 or 1."""
        if isinstance(value, Scalar):
            if value.field != self:
                raise FieldError(f"scalar {value} is not in {self}")
            return value
        if isinstance(value, str):
            return self.parse(value)
        if isinstance(value, (bool, float)):
            raise FieldError(f"{value!r} is not an exact element of {self}")
        if self.kind == "rational":
            return Scalar(self, value if type(value) is int else _lean(Fraction(value)))
        if isinstance(value, Fraction):
            den = value.denominator % self.p
            if den == 0:
                raise FieldError(f"denominator of {value} vanishes mod {self.p}")
            num = value.numerator % self.p
            return Scalar(self, num * pow(den, -1, self.p) % self.p)
        return Scalar(self, value % self.p)

    def parse(self, text: str) -> "Scalar":
        """Inverse of ``str(scalar)``; prime scalars also accept bare ints.

        Both fields read one grammar, in ASCII digits: an integer with an
        optional sign, then optionally ``/`` and an unsigned nonzero
        denominator; over F_p also ``"<integer> mod p"``.  Exponent notation,
        decimal points and digit underscores are refused: ``str`` never
        writes them, and a few bytes of exponent ("1e10000000") would build
        a huge integer."""
        text = text.strip()
        try:
            if "e" in text.lower():
                raise ValueError("exponent notation is not accepted")
            if "." in text or "_" in text:
                raise ValueError("decimal points and digit underscores are not accepted")
            if not re.fullmatch(r"[-+]?[0-9]+(/[0-9]+| mod [0-9]+)?", text):
                raise ValueError("not a signed integer, fraction or residue in ASCII digits")
            if " mod " in text:
                if self.kind != "prime":
                    raise FieldError(f"{text!r} names a residue but field is {self}")
                res, mod = text.split(" mod ")
                if int(mod) != self.p:
                    raise FieldError(f"{text!r} does not live in F_{self.p}")
                return self.of(int(res))
            num, _, den = text.partition("/")
            if den and not int(den):
                raise ValueError("zero denominator")
            return self.of(Fraction(int(num), int(den or 1)))
        except ValueError as ex:
            raise FieldError(f"cannot parse {text!r} as an element of {self}: {ex}") from None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}

    def __str__(self) -> str:
        return "Q" if self.kind == "rational" else f"F_{self.p}"


def prime_field(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


class Scalar(Record):
    """Exact field element.

    The value is the raw value the sparse layer computes with: over Q an
    int when integral and otherwise a ``Fraction`` (lowest terms, positive
    denominator), over F_p an int in ``[0, p)``.  ``==``, ``hash`` and ``str``
    treat an int as the Fraction of the same value.
    Scalars are built on every arithmetic step, so ``__init__``, ``==`` and
    ``hash`` are written out, as for `FieldSpec`.
    """

    field: FieldSpec
    value: Union[Fraction, int]

    def __init__(self, field: FieldSpec, value: Union[Fraction, int]) -> None:
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return (self.field, self.value) == (other.field, other.value)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.value))

    def _coerce(self, other: RawScalar) -> "Scalar":
        if isinstance(other, Scalar):
            if other.field != self.field:
                raise FieldError(f"mixed fields {self.field} and {other.field}")
            return other
        return self.field.of(other)

    def __add__(self, other: RawScalar) -> "Scalar":
        o = self._coerce(other)
        if self.field.kind == "rational":
            return Scalar(self.field, _lean(self.value + o.value))
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
            return Scalar(self.field, _lean(self.value * o.value))
        return Scalar(self.field, (self.value * o.value) % self.field.p)

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise FieldError("inverse of zero")
        if self.field.kind == "rational":
            # Fraction(1), since 1 / an int is a float
            return Scalar(self.field, _lean(Fraction(1) / self.value))
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other: RawScalar) -> "Scalar":
        return self * self._coerce(other).inverse()

    def __rtruediv__(self, other: RawScalar) -> "Scalar":
        return self._coerce(other) * self.inverse()

    @property
    def is_zero(self) -> bool:
        return self.value == 0

    def __str__(self) -> str:
        if self.field.kind == "rational":
            return str(self.value)
        return f"{self.value} mod {self.field.p}"

    def __repr__(self) -> str:
        return f"<{self}>"


RATIONAL = FieldSpec("rational")

Vec = tuple  # tuple[Scalar, ...]
Mat = tuple  # tuple[Vec, ...], row major


def scalar_vec(field: FieldSpec, raw: Sequence) -> Vec:
    """Scalars of raw values: ints (reduced mod p here) or, over Q, ints and
    Fractions, leaned here, since a raw sum such as 2 * (1/2) can end on an
    integral Fraction."""
    p, zero = field.p, field.zero
    if p:
        return tuple(Scalar(field, r) if (r := v % p) else zero for v in raw)
    return tuple(Scalar(field, _lean(v)) if v else zero for v in raw)


def blocks(v: Sequence, count: int, *counts: int) -> tuple:
    """v cut into `count` consecutive blocks of equal length, each cut again
    by `counts`: ``blocks(v, n)`` gives the rows of an n-row matrix stored
    row major, ``blocks(v, a, b)`` the a x b x c tensor on a lex basis."""
    size = len(v) // count if count else 0
    out = tuple(tuple(v[b * size:(b + 1) * size]) for b in range(count))
    return tuple(blocks(x, *counts) for x in out) if counts else out


# ---------------------------------------------------------------------------
# raw sparse tensors and the contraction helper


class RawTensor:
    """Raw sparse tensor: the nonzero cells of a tensor of any rank.

    ``cells`` maps each index tuple of a nonzero cell to its raw value: an
    int reduced mod p, or over Q an int when integral and a Fraction
    otherwise, the value a Scalar holds; ``shape`` is the extent of each
    index.  One type is the form in which every record stores its
    structure constants and operators (`stored`) and what `contract`
    returns, and `contract` reads either.  `integral` files once the integer
    form over Q, (d, numerators) with d the lcm of the cells' denominators,
    that `contract` multiplies, and `grouped` files those numerators by one
    layout once, for every `contract` that reads the tensor that way; over
    F_p and on integer tables they are the cells themselves; `+` and `-` add
    cellwise (over Q on those numerators, with one division per cell) and
    refuse mixed fields; `@` is the matrix product and `scaled` multiplies
    by a Scalar; `permuted` reorders the indices and `joined` merges
    adjacent ones on their lex basis; `rows` files the cells as sparse
    rows; `flat`, `dense` and `to_json` give the values back on a lex basis,
    the latter two as Scalars and as exact strings, at the boundary.
    ``==`` reads the field, the shape and the cells (a tensor over no
    field, a `contract` of empty operands, matches any field), ``hash`` the
    shape and the cells, and ``repr`` lists the cells in index order.
    """

    __slots__ = ("field", "shape", "cells", "_groups", "_ints")

    def __init__(self, field: FieldSpec | None, shape: tuple, cells: dict) -> None:
        self.field, self.shape, self.cells, self._groups, self._ints = field, shape, cells, {}, None

    @classmethod
    def of(cls, field: FieldSpec, t, shape: tuple, ragged: str | None = None) -> "RawTensor":
        """The raw form of the dense Scalar tensor t (nested tuples) of
        `shape`; with `ragged` given, a t of another shape raises
        DimensionError(ragged), and an entry over another field FieldError."""
        level = [((), t)]
        for d in shape:
            if ragged is not None and any(len(xs) != d for _, xs in level):
                raise DimensionError(ragged)
            level = [((*idx, i), x) for idx, xs in level for i, x in enumerate(xs)]
        if ragged is not None and any(s.field != field for _, s in level):
            raise FieldError(f"a dense entry is not in {field}")
        return cls(field, shape, {idx: v for idx, s in level if (v := s.value)})

    @classmethod
    def read(cls, field: FieldSpec, shape: tuple, entries: dict) -> "RawTensor":
        """The tensor whose cell at each index tuple of `entries` holds the
        value `field.of` reads from it (an int is reduced without a Scalar);
        zeros are dropped."""
        p = field.p
        return cls(field, shape, {idx: v for idx, x in entries.items() if (
            v := (x % p if p else x) if type(x) is int else field.of(x).value)})

    def integral(self) -> tuple:
        """The integer form (d, numerators) of rational cells: d is the lcm
        of their denominators, and each numerator the cell times d."""
        if self._ints is None:
            d = lcm(*(v.denominator for v in self.cells.values() if type(v) is Fraction))
            self._ints = d, (self.cells if d == 1 else {
                idx: v.numerator * (d // v.denominator) if type(v) is Fraction else v * d
                for idx, v in self.cells.items()})
        return self._ints

    def grouped(self, key: tuple, rest: tuple) -> dict:
        """The numerators of `integral` (over F_p and on integer tables, the
        cells themselves) filed by `_group`, once per layout."""
        layout = key, rest
        if layout not in self._groups:
            self._groups[layout] = _group(self.integral()[1].items(), key, rest)
        return self._groups[layout]

    def __eq__(self, other) -> bool:
        return (isinstance(other, RawTensor) and self.shape == other.shape
                and (self.field == other.field or None in (self.field, other.field))
                and self.cells == other.cells)

    def __hash__(self) -> int:
        return hash((self.shape, frozenset(self.cells.items())))

    def __repr__(self) -> str:
        return (f"RawTensor(field={self.field!r}, shape={self.shape!r}, "
                f"cells={dict(sorted(self.cells.items()))!r})")

    def _merged(self, other: "RawTensor", sign: int) -> "RawTensor":
        if self.shape != other.shape:
            raise DimensionError(f"shapes {self.shape} and {other.shape} differ")
        field = self.field or other.field
        if other.field not in (None, field):
            raise FieldError(f"mixed fields {sorted({str(field), str(other.field)})}")
        p = field.p if field else 0
        (d, mine), (e, theirs) = ((1, self.cells), (1, other.cells)) if p else (
            self.integral(), other.integral())
        if d == e == 1:  # F_p, or integral cells: add the cells themselves
            cells = dict(mine)
            for idx, v in theirs.items():
                x = cells.get(idx, 0) + sign * v
                x = x % p if p else x
                if x:
                    cells[idx] = x
                else:
                    cells.pop(idx, None)
            return RawTensor(field, self.shape, cells)
        # rational cells: add the numerators over the lcm, one division per cell
        den = lcm(d, e)
        cells = {idx: v * (den // d) for idx, v in mine.items()}
        f = sign * (den // e)
        for idx, v in theirs.items():
            cells[idx] = cells.get(idx, 0) + f * v
        return RawTensor(field, self.shape,
                         {idx: _lean(Fraction(x, den)) for idx, x in cells.items() if x})

    def __add__(self, other: "RawTensor") -> "RawTensor":
        return self._merged(other, 1)

    def __sub__(self, other: "RawTensor") -> "RawTensor":
        return self._merged(other, -1)

    def __matmul__(self, other: "RawTensor") -> "RawTensor":
        """The matrix product, one `contract`."""
        return contract("ik,kj->ij", self, other)

    def scaled(self, c: "Scalar") -> "RawTensor":
        """The tensor times the Scalar c, cellwise; another field raises FieldError."""
        if self.field not in (None, c.field):
            raise FieldError(f"mixed fields {sorted({str(self.field), str(c.field)})}")
        p, x = c.field.p, c.value
        return RawTensor(c.field, self.shape, {idx: r for idx, v in self.cells.items()
                                               if (r := v * x % p if p else _lean(v * x))})

    def permuted(self, *order: int) -> "RawTensor":
        """The tensor whose k-th index is index order[k] of this one: a
        matrix's transpose is ``permuted(1, 0)``."""
        pick = _picker(order)
        return RawTensor(self.field, pick(self.shape),
                         {pick(idx): v for idx, v in self.cells.items()})

    def joined(self, *counts: int) -> "RawTensor":
        """The tensor whose k-th index merges the next counts[k] indices of
        this one on their lex basis: ``joined(2)`` of an a x h tensor is its
        vector on the lex pair basis, ``joined(1, 2)`` merges the last two."""
        cuts = [sum(counts[:k]) for k in range(len(counts) + 1)]
        if cuts[-1] != len(self.shape):
            raise DimensionError(f"index counts {counts} do not cover shape {self.shape}")
        spans = list(zip(cuts, cuts[1:]))
        slots = [_lex(self.shape[a:b], a) for a, b in spans]
        return RawTensor(self.field, tuple(prod(self.shape[a:b]) for a, b in spans),
                         {tuple(s(idx) for s in slots): v for idx, v in self.cells.items()})

    def rows(self, k: int) -> dict:
        """The cells as raw sparse rows: the first k indices name the row,
        the rest its column on their lex basis."""
        slot, out = _lex(self.shape[k:], k), {}
        for idx, v in self.cells.items():
            out.setdefault(idx[:k], {})[slot(idx)] = v
        return out

    def flat(self, prefix: tuple = ()) -> list:
        """The raw values of the cells under the index `prefix`, zeros
        included, on the lex basis of the remaining indices."""
        d = len(prefix)
        slot, out = _lex(self.shape[d:], d), [0] * prod(self.shape[d:])
        for idx, v in self.cells.items():
            if idx[:d] == prefix:
                out[slot(idx)] = v
        return out

    def dense(self, *shape: int) -> tuple:
        """The Scalar tensor: nested tuples of `shape`, by default the
        tensor's own, filled in lex order."""
        flat, shape = self.flat(), shape or self.shape
        if flat and self.field is None:
            raise FieldError("a tensor of empty operands has no field")
        values = scalar_vec(self.field, flat) if flat else ()
        return blocks(values, *shape[:-1]) if len(shape) > 1 else values

    def to_json(self) -> list:
        """The dense tensor as nested lists of exact strings, as the CLI and
        the catalog write operators."""
        def listed(x):
            return [listed(y) for y in x] if isinstance(x, tuple) else str(x)

        return listed(self.dense())


def stored(field: FieldSpec, t, shape: tuple, what: str, extent: str) -> RawTensor:
    """Structure constants, a unit, a counit, a functional's coordinates or
    an operator t over `field`, in the form records store them: t itself
    when it is a RawTensor of `shape` over `field` (one over no field, a
    `contract` of empty operands, takes `field`), or else the dense Scalar
    tensor t read once.  Another shape raises DimensionError, a ragged
    dense t with the text "<what> <extent>", and another field (a dense
    entry's) FieldError."""
    if not isinstance(t, RawTensor):
        return RawTensor.of(field, t, shape, f"{what} {extent}")
    if t.shape != shape:
        raise DimensionError(f"{what} {extent}: raw shape {t.shape}")
    if t.field is None:
        return RawTensor(field, shape, t.cells)
    if t.field != field:
        raise FieldError(f"{what} is over {t.field}, not {field}")
    return t


def differing(got: RawTensor, want: RawTensor | None, depth: int) -> list:
    """The sorted index prefixes of length `depth` under which the cells of
    got and want differ; a missing want is zero."""
    a, b = got.cells, {} if want is None else want.cells
    if a == b:  # cells hold no zeros, so equal cells differ nowhere
        return []
    return sorted({idx[:depth] for idx in a.keys() | b.keys() if a.get(idx, 0) != b.get(idx, 0)})


def _lex(shape: tuple, k: int = 0):
    """The lex slot of the len(shape) entries of an index tuple from position k on."""
    strides, step = [], 1
    for d in reversed(shape):
        strides.append(step)
        step *= d
    strides.reverse()
    return lambda idx: sum(i * s for i, s in zip(idx[k:], strides))


def raw_identity(field: FieldSpec, n: int) -> RawTensor:
    """The n x n identity as a raw tensor."""
    return RawTensor(field, (n, n), {(i, i): 1 for i in range(n)})


def _picker(positions: tuple, bare: bool = False):
    """The entries of an index tuple at `positions`, as a tuple; one entry
    comes bare when `bare` is set."""
    if len(positions) == 1 and not bare:
        p = positions[0]
        return lambda t: (t[p],)
    return itemgetter(*positions) if positions else lambda t: ()


def _group(cells, key: tuple, rest: tuple) -> dict:
    """(index tuple, value) cells filed by their entries at `key`, each
    kept as (its entries at `rest`, value)."""
    pick_key, pick_rest, out = _picker(key, bare=True), _picker(rest), {}
    for idx, v in cells:
        out.setdefault(pick_key(idx), []).append((pick_rest(idx), v))
    return out


_PLANS: dict = {}


def _plan(spec: str) -> tuple:
    """Operand letters, output letters, one step per operand and the output
    shape of each tuple of operand shapes validated so far (empty here).  A
    step holds its operand's positions that meet the partial sum's letters,
    its new positions, the picker of the meeting letters from a partial
    index, and the picker of the letters still needed afterwards (None: all
    of them).  A letter is summed out after the last operand that carries
    it, and the last step puts the output letters in order.  A spec without
    ``->`` is refused: in einsum notation it would name an implicit output."""
    ins, arrow, out = spec.partition("->")
    if not arrow:
        raise DimensionError(f"contraction spec {spec!r} has no '->' before its output letters")
    ins = ins.split(",")
    if any(len(set(x)) != len(x) for x in (*ins, out)) or not set(out) <= set("".join(ins)):
        raise DimensionError(f"contraction spec {spec!r} repeats a letter in one operand "
                             "or outputs a letter no operand has")
    steps, live = [], ""
    for n, letters in enumerate(ins):
        merged = live + "".join(c for c in letters if c not in live)
        needed = set("".join(ins[n + 1:]) + out)
        keep = (tuple(merged.index(c) for c in out) if n == len(ins) - 1
                else tuple(i for i, c in enumerate(merged) if c in needed))
        steps.append((tuple(i for i, c in enumerate(letters) if c in live),
                      tuple(i for i, c in enumerate(letters) if c not in live),
                      _picker(tuple(live.index(c) for c in letters if c in live), bare=True),
                      None if keep == tuple(range(len(merged))) else _picker(keep)))
        live = "".join(merged[i] for i in keep)
    _PLANS[spec] = ins, out, steps, {}
    return _PLANS[spec]


def raw_view(op, rank: int = 2) -> RawTensor:
    """`op` as a raw tensor: itself, a carrier's stored tensor (the field
    its class names in ``_stored``), or a Scalar tensor of `rank` (a matrix
    by default) read off, once per call, through the checked path of
    `RawTensor.of`: a ragged one raises DimensionError, and one with an
    entry over another field than its first FieldError."""
    if isinstance(op, RawTensor):
        return op
    name = getattr(op, "_stored", None)
    if name is not None:
        return getattr(op, name)
    shape, first = [], op
    for _ in range(rank):
        shape.append(len(first))
        first = first[0] if first else ()
    return RawTensor.of(getattr(first, "field", None), op, tuple(shape),
                        f"a dense operand of shape {tuple(shape)} is ragged")


def contract(spec: str, *operands) -> RawTensor:
    """Sum of products of `operands` over their shared index letters, in
    numpy.einsum notation: ``contract("ij,kl,ikx,jly->xy", u, v, a, a)`` is
    the product of u and v in A (x) A, given as n x n matrices, for an
    algebra a.

    An operand is a raw tensor (what `contract` returns), a carrier
    (FinAlgebra, FinCoalgebra, ActionStructure, CoactionStructure), read
    as the raw tensor it stores, or a Scalar matrix or vector; a raw tensor
    is taken as it is.  No letter repeats within an operand, and the spec
    names its output after ``->``.  The plan is built once per spec, and it
    also keeps the output shape of each tuple of operand shapes whose ranks
    and shared extents it has validated, so a call on shapes seen before
    checks only the field; nothing that depends on the operands' values is
    kept.  The arithmetic runs on raw values, a letter is summed out as soon as
    no later operand carries it, and the result stays raw: a RawTensor
    whose indices are the output letters, holding only its nonzero cells.
    No Scalar is built.

    The partial sum starts as the first operand's cells.  Values are
    reduced (mod p, and integral Fractions to ints) only on a step that sums
    a letter out and on the last step: a step that sums nothing puts each
    product of two nonzero values in a cell of its own, so no cell cancels.
    Over Q, when some operand has a non-integral cell, the arithmetic runs
    on ints: each operand's numerators over its own d (`integral`), with
    only zeros dropped between steps, and one division of each output cell
    by D, the product of the d's.  With every d 1 (integer tables) the cells
    are their own numerators, ints since raw cells are lean, and the result
    files them as its integer form.
    """
    ins, out, steps, shapes = _PLANS.get(spec) or _plan(spec)
    if len(ins) != len(operands):
        raise DimensionError(f"{spec!r} names {len(ins)} operands, not {len(operands)}")
    views = [op if type(op) is RawTensor else raw_view(op, len(letters))
             for op, letters in zip(operands, ins)]
    field = None
    for view in views:
        if view.field is not field and view.field is not None:
            if field is not None and view.field != field:
                raise FieldError(f"mixed fields {sorted({str(field), str(view.field)})}")
            field = view.field
    operand_shapes = tuple(view.shape for view in views)
    if (shape := shapes.get(operand_shapes)) is None:  # shapes not seen with this spec yet
        dims: dict = {}
        for letters, view in zip(ins, views):
            if len(view.shape) != len(letters):
                raise DimensionError(f"operand for {letters!r} has shape {view.shape}")
            for c, d in zip(letters, view.shape):
                if dims.setdefault(c, d) != d:
                    raise DimensionError(f"index {c!r} has extents {dims[c]} and {d}")
        shape = shapes[operand_shapes] = tuple(dims[c] for c in out)
    p, scale = (field.p if field else 0), 1
    if not p:
        for view in views:
            scale *= view.integral()[0]
    partial, last = views[0].integral()[1] if scale > 1 else views[0].cells, len(steps) - 1
    for n, (key, rest, probe, keep) in enumerate(steps):
        if n:
            new: dict = {}
            groups = views[n].grouped(key, rest)
            if keep is None:
                for idx, v in partial.items():
                    for ext, w in groups.get(probe(idx), ()):
                        new[idx + ext] = v * w
            else:
                get = new.get
                for idx, v in partial.items():
                    for ext, w in groups.get(probe(idx), ()):
                        at = keep(idx + ext)
                        new[at] = get(at, 0) + v * w
            partial = new
        elif keep is not None:  # the first operand has a letter no later one reads
            new = {}
            for idx, v in partial.items():
                at = keep(idx)
                new[at] = new.get(at, 0) + v
            partial = new
        if keep is None and n < last:
            continue
        if p:
            partial = {at: r for at, x in partial.items() if (r := x % p)}
        elif scale == 1 or n < last:  # ints (every cell lean and d 1, or numerators): only zeros go
            partial = {at: x for at, x in partial.items() if x}
        else:  # one division per output cell
            partial = {at: _lean(Fraction(x, scale)) for at, x in partial.items() if x}
    result = RawTensor(field, shape, partial)
    if scale == 1 and not p:  # integral cells: its own integer form
        result._ints = 1, partial
    return result


# ---------------------------------------------------------------------------
# constructors


def vec(field: FieldSpec, items: Iterable[RawScalar]) -> Vec:
    return tuple(field.of(x) for x in items)


def mat(field: FieldSpec, rows: Iterable[Iterable[RawScalar]]) -> Mat:
    out = tuple(vec(field, r) for r in rows)
    if len({len(r) for r in out}) > 1:
        raise DimensionError("ragged matrix rows")
    return out


def identity(field: FieldSpec, n: int) -> Mat:
    z, o = field.zero, field.one
    return tuple(tuple(o if i == j else z for j in range(n)) for i in range(n))


def unit_vec(field: FieldSpec, n: int, i: int) -> Vec:
    z = field.zero
    return tuple(field.one if j == i else z for j in range(n))


# ---------------------------------------------------------------------------
# vector and matrix arithmetic


def mat_mul(a: Mat, b: Mat) -> Mat:
    """The product a b of Scalar matrices, ``@`` with Scalars on return; an
    a with no rows gives (), and a b with no columns one empty row per row."""
    return (raw_view(a) @ raw_view(b)).dense() if a else ()


def mat_scale(c: Scalar, a: Mat) -> Mat:
    return tuple(tuple(c * x for x in row) for row in a)


# ---------------------------------------------------------------------------
# row reduction, kernels, solving


# the types a raw value has over F_p and over Q
_PRIME_RAW, _RATIONAL_RAW = frozenset({int}), frozenset({int, Fraction})


def _raw_row(row: dict, field: FieldSpec) -> dict:
    """A fresh raw sparse row: the {column: raw value} dict `row`, reduced
    mod p or lean and without zeros.  A row that is not a dict raises
    TypeError, and a value that is not raw (an int, or over Q a Fraction)
    FieldError: a Scalar's field would go unread."""
    if not isinstance(row, dict):
        raise TypeError(f"a row is a {{column: raw value}} dict, not {type(row).__name__}")
    p = field.p
    if not {*map(type, row.values())} <= (_PRIME_RAW if p else _RATIONAL_RAW):
        raise FieldError(f"a row entry is not a raw value of {field}")
    return {j: r for j, v in row.items() if (r := v % p if p else _lean(v))}


def rref(a: Sequence[dict], field: FieldSpec) -> tuple:
    """Reduced row echelon form and pivot columns.

    The one elimination every solve, kernel and span test goes through:
    sparse Gauss-Jordan on raw values (ints mod p, or over Q ints when
    integral and Fractions otherwise, kept so through every scaling and
    elimination), one ``{column: value}`` dict per row.  The columns are
    swept in order; a pivot is scaled to 1 and cleared from exactly the
    rows, above and below, that have a nonzero in its column.  The shortest
    unreduced such row, the first in order among equals, is the pivot row,
    which keeps fill-in low; the reduced form is unique, so the choice never
    shows.  A column index maps each column to the rows, reduced or not,
    with a nonzero there, and follows every fill-in and cancellation, so a
    column's pivot search and its clearing read only the rows that have
    that column, not every row.

    The rows of `a` are raw sparse dict rows, as the system builders make
    them; the elimination works on copies, so a caller's rows are never
    changed.  The reduced form is the nonzero raw rows alone, in pivot
    order.  A raw row's length is its nonzero count, so a per-layer trace
    that counts an elimination's cells as rows times the length of the
    first row undercounts a raw system.
    """
    p = field.p
    rows = [_raw_row(row, field) for row in a]
    where: dict = {}
    for k, row in enumerate(rows):
        for j in row:
            where.setdefault(j, set()).add(k)
    open_rows = set(range(len(rows)))
    done: list[dict] = []
    piv_cols: list[int] = []
    for c in sorted(where):
        hits = [k for k in where[c] if k in open_rows]
        if not hits:
            continue
        pk = min(hits, key=lambda k: (len(rows[k]), k))
        open_rows.remove(pk)
        inv = pow(rows[pk][c], -1, p) if p else Fraction(1) / rows[pk][c]
        rows[pk] = prow = {j: v * inv % p if p else _lean(v * inv) for j, v in rows[pk].items()}
        tail = [(j, v) for j, v in prow.items() if j != c]
        for k in where[c]:
            if k == pk:
                continue
            row = rows[k]
            f = row.pop(c)
            for j, v in tail:
                x = row.get(j, 0) - f * v
                x = x % p if p else _lean(x)
                if x:
                    row[j] = x
                    where[j].add(k)
                else:
                    del row[j]
                    where[j].discard(k)
        done.append(prow)
        piv_cols.append(c)
    return tuple(done), tuple(piv_cols)


def _maps_to(rows: Sequence[dict], x: list, b: Sequence, p: int) -> bool:
    """Whether the raw sparse rows send the raw x to the raw b, exactly."""
    for row, bi in zip(rows, b):
        acc = sum(v * x[j] for j, v in row.items()) - bi
        if acc % p if p else acc:
            return False
    return True


def kernel_basis(rows: Sequence[dict], field: FieldSpec, ncols: int) -> RawTensor:
    """Basis of the right kernel of the raw sparse `rows` over `ncols`
    unknowns, as the rows of a raw (ncols - rank, ncols) tensor.

    Row k belongs to the k-th free column f: 1 at f and -row[f] at each
    pivot of the reduced rows.  Every vector is checked against `rows` by
    substitution."""
    p, (done, piv) = field.p, rref(rows, field)
    basis = []
    for f in sorted(set(range(ncols)) - set(piv)):
        v = [0] * ncols
        v[f] = 1
        for row, c in zip(done, piv):
            v[c] = -row.get(f, 0) % p if p else -row.get(f, 0)
        basis.append(v)
    if not all(_maps_to(rows, v, [0] * len(rows), p) for v in basis):
        raise InternalError("solver produced a bad kernel vector")
    return RawTensor(field, (len(basis), ncols),
                     {(k, j): x for k, v in enumerate(basis) for j, x in enumerate(v) if x})


def solve_linear(rows: Sequence[dict], rhs: Sequence, field: FieldSpec,
                 ncols: int) -> RawTensor | None:
    """A particular solution x of ``rows x = rhs`` as a raw (ncols,) tensor;
    None when there is none.

    `rows` are raw sparse dict rows over `ncols` unknowns, and `rhs` holds
    one raw value per row.  One elimination of the augmented rows decides
    consistency: when the last column is not a pivot, the reduced rows give
    the solution with every free variable zero, verified by substitution.
    The directions of the solution space are `kernel_basis`'s answer."""
    if len(rows) != len(rhs):
        raise DimensionError("rows and rhs differ in length")
    done, piv = rref([{**row, ncols: b} if b else row for row, b in zip(rows, rhs)], field)
    if ncols in piv:
        return None
    x = [0] * ncols
    for row, c in zip(done, piv):
        x[c] = row.get(ncols, 0)
    if not _maps_to(rows, x, rhs, field.p):
        raise InternalError("solver produced a non-solution")
    return RawTensor(field, (ncols,), {(c,): v for c, v in enumerate(x) if v})


def transposed(a) -> RawTensor:
    """The transpose of a raw or Scalar matrix, raw: its columns as rows."""
    return raw_view(a).permuted(1, 0)


def column_space_basis(a, field: FieldSpec) -> RawTensor:
    """Canonical (RREF of the transpose) basis of the column space of the
    raw or Scalar matrix a, as the rows of a raw (rank, rows of a) tensor."""
    cols = transposed(a)
    done, _ = rref(list(cols.rows(1).values()), field)
    return RawTensor(field, (len(done), cols.shape[1]),
                     {(k, j): v for k, row in enumerate(done) for j, v in row.items()})


def first_outside(b1, b2, field: FieldSpec) -> int | None:
    """Index of the first vector of b1 outside the span of b2; None if none.

    The one span test: it decides a containment (None) and names its first
    witness in the same pass.  Each of b1 and b2 holds its vectors as the
    rows of a raw tensor or of a Scalar matrix.  Each vector is reduced
    against one RREF of b2: it lies in the span exactly when it equals the
    combination of the reduced rows weighted by its own entries at their
    pivots."""
    b1, b2 = raw_view(b1), raw_view(b2)
    if b1.shape[0] and b2.shape[0] and b1.shape[1] != b2.shape[1]:
        raise DimensionError("vector length mismatch")
    p, vectors = field.p, b1.rows(1)
    rows, piv = rref(list(b2.rows(1).values()), field)
    for k in range(b1.shape[0]):
        acc = vectors.get((k,), {})
        for c, row in zip(piv, rows):
            if f := acc.get(c):
                for j, x in row.items():
                    acc[j] = acc.get(j, 0) - f * x
        if any(x % p if p else x for x in acc.values()):
            return k
    return None
