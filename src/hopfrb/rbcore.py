"""Rota-Baxter operators, paired modules, and their general constructions.

The paired-module identity of weight lam reads, for a left action,

    P(a) . T(m) = T(P(a) . m) + T(a . T(m)) + lam T(a . m)

and with all four products mirrored for a right action.  Because actions
store the algebra index first (see `actions`), both orientations collapse
to one operator identity per algebra basis element a:

    act(P a) T = T act(P a) + T act(a) T + lam T act(a)

so every checker and construction below is written once, side-free.  The
side still matters to callers; it is carried on the ActionStructure and
stored, never inferred.

Randomized falsification draws operator entries uniformly from
{-2, -1, 0, 1, 2} with a per-trial seed string "<seed>:<trial>", so runs
are reproducible and trials are independent.

The identity is affine in P.  Writing C_b = [act(e_b), T] and
K_i = T act(e_i) T + lam T act(e_i), it reads on the basis element e_i

    sum_b P[b][i] C_b = K_i

so `pairing_system` computes every C_b and K_i once per (M, T, lam).
Taking P = 0 and then each matrix unit shows that T pairs with every P
exactly when every C_b and every K_i vanish.  For A-linear T every C_b is
zero, so `classify_generic` decides that claim from the K_i alone and
draws nothing; replay reads its "every P" claims from those verdicts and
has no draw loop of its own (tests/test_replay.py::
test_replay_all_draws_only_for_the_two_t_that_are_not_a_linear).  Only
the trials of a T that is not A-linear are drawn, and each is decided by
`PairingSystem.fails` with one linear combination per e_i, in raw field
values (ints mod p, reduced at the comparison, or over Q ints when
integral and Fractions otherwise).

Every identity here is written once, as `exactlin.contract` calls on raw
operands.  P and T are stored raw: an `RbpInstance` and a `PairingSystem`
read a dense Scalar one once (`exactlin.stored`), the constructions return
`RawTensor`s, and an entry point reads a dense one once (`raw_view`).
`check_rbp_module` states the identity itself, not its affine form: it
builds no commutator and no pairing system and forms T + lam itself, so
the two share only the stored T and the contraction kernel.  The tests
check that they agree (tests/test_rbcore.py), and the kernel's
independence rests on the tests too: every spec in src is checked against
dense loops (tests/test_contract.py), and `check_rbp_module` and
`check_rb_operator` against plain loops over the paper's formulas.
"""

from __future__ import annotations

import random
from collections.abc import Sequence
from operator import attrgetter

from .exactlin import (
    FieldSpec,
    RawTensor,
    Record,
    Scalar,
    Vec,
    column_space_basis,
    contract,
    first_outside,
    raw_view,
    stored,
    transposed,
)
from .report import DEFAULT_TRIALS, Checker, Report, Violation, _postcondition
from .report import DEFAULT_SEED as DEFAULT_SEED, fuzz_seed as fuzz_seed  # re-exported
from .structures import FinAlgebra, PreconditionError, StructureError, check_algebra
from .actions import ActionStructure, check_action


# (seed, trial) -> the longest prefix of its stream drawn so far; emptied
# before the draws stored since it was last emptied exceed _STREAM_CELLS
_STREAMS: dict = {}
_STREAM_CELLS = 1 << 16
_stream_cells = 0


def _random_entries(n: int, seed: str, trial: int) -> tuple[int, ...]:
    """The n x n entries of trial `trial`'s random operator, row-major.

    They are the first n^2 draws of the stream seeded by "<seed>:<trial>",
    so every n reads a prefix of one stream.  A stream is seeded once per
    process (again only when a longer prefix is asked for), and callers
    share the tuple."""
    global _stream_cells
    key, cells = (seed, trial), n * n
    draws = _STREAMS.get(key, ())
    if len(draws) < cells:
        if _stream_cells + cells > _STREAM_CELLS:
            _STREAMS.clear()
            _stream_cells = 0
        _stream_cells += cells
        rng = random.Random(f"{seed}:{trial}")
        draws = _STREAMS[key] = tuple(rng.choice((-2, -1, 0, 1, 2)) for _ in range(cells))
    return draws[:cells]


class RbpInstance(Record):
    """A paired-module candidate; `verified` is filled by check_rbp_module.

    P and T are stored raw (`exactlin.stored`): a `RawTensor` over the
    algebra's field, or a dense Scalar matrix read once."""

    algebra: FinAlgebra
    module: ActionStructure
    p: RawTensor
    t: RawTensor
    weight: Scalar
    name: str = ""
    verified: str = "unchecked"  # "unchecked" | "pass" | "fail"
    witness: Violation | None = None

    # the one mutable record: check_rbp_module fills in verified and witness
    # after construction, so it is unhashable, and witness takes no part in ==
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__
    __hash__ = None
    _compared = attrgetter("algebra", "module", "p", "t", "weight", "name", "verified")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __post_init__(self) -> None:
        if self.module.algebra != self.algebra:
            raise StructureError(f"{self.name}: module is not over the instance algebra")
        f, n, m = self.algebra.field, self.algebra.dim, self.module.dim
        self.p = stored(f, self.p, (n, n), f"{self.name}: P", "is not dim(A)-square")
        self.t = stored(f, self.t, (m, m), f"{self.name}: T", "is not dim(M)-square")
        if self.weight.field != self.algebra.field:
            raise StructureError(f"{self.name}: weight field differs from the algebra's")

    @property
    def field(self) -> FieldSpec:
        return self.algebra.field


def _shifted(x: RawTensor, lam: Scalar) -> RawTensor:
    """X + lam id, on raw cells; a lam over another field raises FieldError."""
    return x + RawTensor(lam.field, x.shape, {(i, i): lam.value for i in range(min(x.shape))})


def _induced(p: RawTensor, c, u: RawTensor) -> RawTensor:
    """P(e_i) . f_j + e_i . U(f_j) on the carrier c, indexed (i, j, k): the
    star product x * y = P(x) y + x (P + lam)(y) of Prop. 3.6 for c = A and
    U = P + lam, its action on M for c = M and U = T + lam."""
    return contract("bi,bjk->ijk", p, c) + contract("ilk,lj->ijk", c, u)


def check_rb_operator(a: FinAlgebra, p, lam: Scalar, instance: str = "") -> Report:
    """P(x)P(y) = P(x * y) on all basis pairs, where x * y = P(x)y + xP(y)
    + lam xy is the induced product."""
    p = raw_view(p)
    ck = Checker("rb-operator", instance or a.name, weight=str(lam))
    ck.compare(("x", "y"), ("rb-identity", contract("ai,bj,abk->ijk", p, p, a),
                            contract("ijk,xk->ijx", _induced(p, a, _shifted(p, lam)), p)))
    return ck.report()


def check_rbp_module(inst: RbpInstance) -> Report:
    """act(P e_i) T = T act(P e_i) + T act(e_i) (T + lam) for every algebra
    basis element e_i, compared on the row-major cells; fills
    inst.verified."""
    m, p, t = inst.module, inst.p, inst.t
    ck = Checker("rbp-module", inst.name, weight=str(inst.weight))
    ck.compare(("a",), ("pairing-identity", contract("bi,bkr,kc->irc", p, m, t),
                        contract("rk,bi,bck->irc", t, p, m)
                        + contract("rk,ilk,lc->irc", t, m, _shifted(t, inst.weight))))
    rep = ck.report()
    inst.verified = "pass" if rep.ok else "fail"
    inst.witness = rep.violations[0] if rep.violations else None
    return rep


def _require_verified(inst: RbpInstance, op: str) -> None:
    if inst.verified == "unchecked":
        check_rbp_module(inst)
    if inst.verified != "pass":
        raise PreconditionError(f"{op} needs a verified instance; {inst.name} is {inst.verified}")


def is_quasi_idempotent(t, lam: Scalar) -> bool:
    """T (T + lam) = 0, exactly."""
    t = raw_view(t)
    return _annihilates(t, _shifted(t, lam))


def _annihilates(t: RawTensor, tl: RawTensor) -> bool:
    """T (T + lam) = 0, given T + lam as `tl`."""
    return not contract("rk,kc->rc", t, tl).cells


def _commutators(m: ActionStructure, t) -> RawTensor:
    """[act(e_b), T] = act(e_b) T - T act(e_b) for every algebra basis
    element b, indexed (b, r, c): row r, column c."""
    t = raw_view(t)
    return contract("bkr,kc->brc", m, t) - contract("rk,bck->brc", t, m)


def check_a_linear(m: ActionStructure, t, instance: str = "") -> Report:
    """[act(e_b), T] = 0 for every algebra basis element b.

    A violation names the pair (b, m) of algebra and module basis indices,
    with delta the commutator applied to the module basis vector m."""
    ck = Checker("a-linearity", instance or m.name)
    ck.compare(("b", "m"), ("commutes-with-action", _commutators(m, t).permuted(0, 2, 1), None))
    return ck.report()


class GenericVerdict(Record):
    """Outcome of classify_generic.

    `generic` is the classification verdict: with an A-linear T it equals
    the quasi-idempotency test (sharpened to a . (T^2 + lam T) m = 0 so
    nonunital carriers are decided exactly); without A-linearity the
    classification does not apply and `generic` is None.  `failures` counts
    the P trials falsifying the identity: with an A-linear T every trial
    reads alike, so it is 0 or `trials` as `generic` says, and nothing is
    drawn.
    """

    a_linear: bool
    quasi_idempotent: bool
    generic: bool | None
    trials: int
    failures: int
    seed: str

    def to_json(self) -> dict:
        return {
            "a_linear": self.a_linear,
            "quasi_idempotent": self.quasi_idempotent,
            "generic": self.generic,
            "trials": self.trials,
            "failures": self.failures,
            "seed": self.seed,
        }


class PairingSystem(Record):
    """The paired identity of a fixed (M, T, lam) in its affine form.

    On the algebra basis element e_i it reads sum_b P[b][i] C_b = K_i with
    C_b = [act(e_b), T] and K_i = T act(e_i) (T + lam); `comms[b]` holds
    the nonzero (cell, value) entries of C_b and `rhs[i]` every cell of
    K_i, row-major, in raw field values.  The set of P that pair with T is
    the solution set, an affine space.  T is stored raw, as in `RbpInstance`;
    `shifted` (not a field) holds T + lam, for `classify_generic`.
    """

    module: ActionStructure
    t: RawTensor
    weight: Scalar
    comms: tuple
    rhs: tuple

    def __post_init__(self) -> None:
        m = self.module
        object.__setattr__(self, "t", stored(m.field, self.t, (m.dim,) * 2,
                                             f"{m.name}: T", "is not dim(M)-square"))

    def fails(self, p: Sequence) -> bool:
        """Whether the raw row-major P breaks the identity at some e_i; its
        entries are ints over F_p, ints or Fractions over Q, and the cells
        are compared mod p over F_p and exactly over Q."""
        n, modulus = self.module.algebra.dim, self.weight.field.p
        for i, k_i in enumerate(self.rhs):
            acc = [0] * len(k_i)
            for b, comm in enumerate(self.comms):
                coef = p[b * n + i]
                if coef:
                    for cell, x in comm:
                        acc[cell] += coef * x
            if modulus:
                if any((x - y) % modulus for x, y in zip(acc, k_i)):
                    return True
            elif acc != k_i:
                return True
        return False


def pairing_system(m: ActionStructure, t, lam: Scalar) -> PairingSystem:
    """The commutators C_b and right-hand sides K_i of (M, T, lam), once;
    a dense Scalar T is read once, as `PairingSystem` stores it."""
    n, cells = m.algebra.dim, m.dim * m.dim
    t = stored(m.field, t, (m.dim,) * 2, f"{m.name}: T", "is not dim(M)-square")
    comms = _commutators(m, t).rows(1)
    tl = _shifted(t, lam)
    rhs = contract("rk,ilk,lc->irc", t, m, tl).rows(1)
    system = PairingSystem(m, t, lam, tuple(tuple(comms.get((b,), {}).items()) for b in range(n)),
                           tuple([rhs.get((i,), {}).get(c, 0) for c in range(cells)]
                                 for i in range(n)))
    object.__setattr__(system, "shifted", tl)
    return system


def classify_generic(
    m: ActionStructure,
    t,
    lam: Scalar,
    trials: int = DEFAULT_TRIALS,
    seed: str | None = None,
) -> GenericVerdict:
    """Decide whether (M, T) pairs with every P.

    For A-linear T every C_b of the `pairing_system` is zero, so every P
    reads 0 = K_i: the identity collapses to a . (T^2 + lam T) m = 0, which
    no longer mentions P.  That exact condition is the verdict, and
    `failures` is 0 when it holds and `trials` when it does not; nothing is
    drawn.  A T that is not A-linear is not classified (`generic` is None):
    each of `trials` P is drawn as `_random_entries` gives it and decided by
    `PairingSystem.fails`, stopping at the first e_i that fails.  A negative
    `trials` is refused with PreconditionError.
    """
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    n = m.algebra.dim
    seed = fuzz_seed(seed)
    system = pairing_system(m, t, lam)
    a_linear = not any(system.comms)
    qi = _annihilates(system.t, system.shifted)
    generic: bool | None = None
    if a_linear:
        generic = not any(any(k) for k in system.rhs)
        failures = 0 if generic else trials
    else:
        failures = sum(system.fails(_random_entries(n, seed, trial)) for trial in range(trials))
    return GenericVerdict(a_linear, qi, generic, trials, failures, seed)


def tilde_pair(p, t, lam: Scalar) -> tuple[RawTensor, RawTensor]:
    """(-lam id - P, -lam id - T) as raw matrices; applying it twice gives
    back (P, T)."""
    return tuple(RawTensor(lam.field, x.shape, {}) - _shifted(x, lam)
                 for x in (raw_view(p), raw_view(t)))


def atkinson_witness(inst: RbpInstance, a_vec: Vec, m_vec: Vec) -> Vec:
    """n with P(a) . T(m) = T(n), by the factorization formula
    n = P(a) . m + a . T(m) + lam (a . m).

    Also asserts the tilde identity P~(a) . T~(m) = -T~(n).  Both are
    postconditions for a verified instance of nonzero weight, so a failure
    is a package bug (InternalError).
    """
    _require_verified(inst, "atkinson_witness")
    lam = inst.weight
    if lam.is_zero:
        raise PreconditionError("atkinson_witness needs nonzero weight")
    m, p, t = inst.module, inst.p, inst.t
    a_vec, m_vec, tl = raw_view(a_vec, 1), raw_view(m_vec, 1), _shifted(t, lam)
    n = contract("bi,i,bjk,j->k", p, a_vec, m, m_vec) + contract("i,ilk,lc,c->k", a_vec, m, tl, m_vec)
    # with P~ = -(P + lam) and T~ = -(T + lam), the tilde identity is the
    # first one with P + lam and T + lam in place of P and T
    for clause, x, y in (("factorization P(a) . T(m) = T(n)", p, t),
                         ("tilde factorization P~(a) . T~(m) = -T~(n)", _shifted(p, lam), tl)):
        _postcondition(clause, inst.name, contract("bi,i,bjk,jc,c->k", x, a_vec, m, y, m_vec),
                       contract("kc,c->k", y, n))
    return n.dense()


def _beside(x: RawTensor, y: RawTensor) -> RawTensor:
    """The matrix x with the columns of the matrix y after its own."""
    w = x.shape[1]
    return RawTensor(x.field, (x.shape[0], w + y.shape[1]),
                     {**x.cells, **{(r, c + w): v for (r, c), v in y.cells.items()}})


def atkinson_solvable(a: FinAlgebra, m: ActionStructure, p, t, lam: Scalar) -> bool:
    """Whether one n per basis pair solves both factorization equations.

    This is the hypothesis side of the factorization equivalence: for
    nonzero weight it holds exactly when (M, P, T) is a paired module.
    The tilde equation P~(a) . T~(m) = -T~(n) is stated as
    (P + lam)(a) . (T + lam)(m) = (T + lam)(n), its negation.
    """
    if lam.is_zero:
        raise PreconditionError("factorization solvability needs nonzero weight")
    rp, rt = raw_view(p), raw_view(t)
    pl, tl = _shifted(rp, lam), _shifted(rt, lam)
    # each stacked right-hand side (P(e_i) . T(m_j), (P + lam)(e_i) . (T + lam)(m_j))
    # must lie in the column space of [T; T + lam]
    rhs = _beside(contract("bi,lj,blk->ijk", rp, rt, m).joined(2, 1),
                  contract("bi,lj,blk->ijk", pl, tl, m).joined(2, 1))
    return first_outside(rhs, _beside(transposed(rt), transposed(tl)), a.field) is None


def direct_sum(instances: list[RbpInstance]) -> RbpInstance:
    """Block-diagonal T on the direct sum of the carriers; shares A, P, lam."""
    if not instances:
        raise PreconditionError("direct_sum needs at least one summand")
    first = instances[0]
    for inst in instances:
        _require_verified(inst, "direct_sum")
        if inst.algebra != first.algebra or inst.p != first.p:
            raise StructureError("direct_sum summands must share the algebra and P")
        if inst.weight != first.weight:
            raise StructureError("direct_sum summands must share the weight")
        if inst.module.side != first.module.side:
            raise StructureError("direct_sum summands must share the action side")
    a, f, act, t, total = first.algebra, first.field, {}, {}, 0
    for inst in instances:  # each summand's cells, shifted by the dims before it
        act.update({(i, total + j, total + k): v
                    for (i, j, k), v in inst.module.act.cells.items()})
        t.update({(total + r, total + c): v for (r, c), v in inst.t.cells.items()})
        total += inst.module.dim
    module = ActionStructure(a, total, first.module.side, RawTensor(f, (a.dim, total, total), act),
                             name="(+)".join(inst.module.name or "?" for inst in instances))
    out = RbpInstance(a, module, first.p, RawTensor(f, (total, total), t), first.weight,
                      name="(+)".join(inst.name or "?" for inst in instances))
    _postcondition("direct sum satisfies the paired identity", out.name, check_rbp_module(out))
    return out


def scale_weight(inst: RbpInstance, mu: Scalar) -> RbpInstance:
    """(M, mu P, mu T) has weight lam mu; rechecked, not assumed."""
    _require_verified(inst, "scale_weight")
    out = RbpInstance(inst.algebra, inst.module, inst.p.scaled(mu), inst.t.scaled(mu),
                      inst.weight * mu, name=f"{inst.name}*{mu}")
    _postcondition("scaled instance satisfies the paired identity", out.name,
                   check_rbp_module(out))
    return out


def double_construction(
    a: FinAlgebra, p, m: ActionStructure, t, lam: Scalar
) -> tuple[FinAlgebra, ActionStructure, RbpInstance]:
    """The induced product a * b = a P(b) + P(a) b + lam ab with the
    matching action a |> m = P(a) . m + a . T(m) + lam (a . m).

    The preconditions are that A is an algebra, M an A-module, P a
    Rota-Baxter operator on A and (M, P, T) a paired module; the first two
    failing name their first violation.  The star algebra is nonunital;
    associativity, module associativity of |>, the intertwining
    T(a |> m) = P(a) . T(m), and the paired identity for the new triple are
    all asserted.
    """
    for needs, check, carrier in (("A to be an algebra", check_algebra, a),
                                  ("M to be an A-module", check_action, m)):
        rep = check(carrier)
        if rep.violation_count:
            raise PreconditionError(f"double_construction needs {needs}; first witness "
                                    f"{rep.violations[0].to_json()}")
    rp, rt = raw_view(p), raw_view(t)
    rep_op = check_rb_operator(a, rp, lam)
    if not rep_op.ok:
        raise PreconditionError("double_construction needs the operator identity on A")
    base = RbpInstance(a, m, rp, rt, lam, name=f"{m.name}-base")
    if not check_rbp_module(base).ok:
        raise PreconditionError("double_construction needs a verified paired module")
    n, d = a.dim, m.dim
    star = FinAlgebra(a.field, n, a.labels, _induced(rp, a, _shifted(rp, lam)), None,
                      name=f"{a.name}-star")
    _postcondition("star product is an algebra", star.name, check_algebra(star))
    tri = ActionStructure(star, d, m.side, _induced(rp, m, _shifted(rt, lam)),
                          name=f"{m.name}-tri")
    _postcondition("induced action is a module action", tri.name, check_action(tri))
    _postcondition("intertwining T(a |> m) = P(a) . T(m)", tri.name,
                   contract("rk,ick->irc", rt, tri), contract("bi,bkr,kc->irc", rp, m, rt))
    inst = RbpInstance(star, tri, rp, rt, lam, name=f"{m.name}-double")
    _postcondition("doubled instance satisfies the paired identity", inst.name,
                   check_rbp_module(inst))
    return star, tri, inst


def idempotent_identities(inst: RbpInstance) -> Report:
    """Consequences of idempotent operators on a verified instance.

    With T^2 = T: (1 + lam) T(a . T(m)) = 0.  With P^2 = P as well:
    (1 + lam) T(P(a) . m) = 0 and (1 + lam)(P(a) . T(m) - lam T(a . m)) = 0.
    Inapplicable identities are reported skipped.
    """
    _require_verified(inst, "idempotent_identities")
    m, p, t, lam = inst.module, inst.p, inst.t, inst.weight
    ck = Checker("idempotent-identities", inst.name, weight=str(lam))
    if t @ t != t:
        ck.skip("T-after-T-vanishes")
        ck.skip("T-after-P-vanishes")
        ck.skip("P-T-cross-term")
        return ck.report()
    # every identity carries the factor 1 + lam; it rides on T
    t_scaled = t.scaled(lam.field.one + lam)
    ck.compare(("a",), ("T-after-T-vanishes", contract("rk,ilk,lc->irc", t_scaled, m, t), None))
    if p @ p != p:
        ck.skip("T-after-P-vanishes")
        ck.skip("P-T-cross-term")
        return ck.report()
    ck.compare(("a",),
               ("T-after-P-vanishes", contract("rk,bi,bck->irc", t_scaled, p, m), None),
               ("P-T-cross-term", contract("bi,bkr,kc->irc", p, m, t_scaled)
                - contract("rk,ick->irc", t_scaled.scaled(lam), m), None))
    return ck.report()


def image_closed_under_p_action(inst: RbpInstance) -> bool:
    """T(M) is closed under the action of P(A) on every verified instance."""
    _require_verified(inst, "image_closed_under_p_action")
    img = column_space_basis(inst.t, inst.field)
    # P(e_i) . v for every basis element e_i and image basis vector v
    moved = contract("bi,bjk,sj->isk", inst.p, inst.module, img).joined(2, 1)
    return first_outside(moved, img, inst.field) is None
