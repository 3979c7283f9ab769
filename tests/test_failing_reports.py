"""Failing reports, pinned to their bytes.

A seeded `random.Random` (not hypothesis, so the inputs never change)
builds small, mostly invalid structures over Q, F_2 and F_5: random
tensors, and catalog hosts with one cell perturbed.  They go through every
public checker, including pairings and R-matrices on catalog hosts, and
through the precondition paths of the constructions.  One sha256 pins,
call by call, the report's JSON, its violation count, every violation in
order, the checked and skipped axioms, the values the constructions
return, and the class and text of every exception raised.

A change to how the checkers walk their axioms must leave these bytes
alone: the first witness of each axiom, the order in which axioms first
fail, and the counts are all part of the observable behaviour.
"""

import hashlib
import json
import random

from hopfrb import catalog
from hopfrb.actions import (
    ActionStructure, CoactionStructure, Dimodule, DoiHopfModule, HopfModule,
    WeakComoduleAlgebra, check_action, check_coaction, check_dimodule, check_doi_hopf,
    check_hopf_module, check_module_algebra, check_weak_comodule_algebra, coinvariants,
    regular_action, regular_coaction, smash_product,
)
from hopfrb.exactlin import RATIONAL, RawTensor, prime_field
from hopfrb.hopfrb import (
    PairingForm, RMatrix, adjoint_rbp, check_braided, check_long_pairing,
    check_quasitriangular, dimodule_T, doi_hopf_projection, dual_action_T, find_integrals,
    hopf_module_projection, integral_T, smash_integral_T, weak_target_rbp,
)
from hopfrb.rbcore import (
    RbpInstance, atkinson_solvable, check_a_linear, check_rb_operator, check_rbp_module,
    classify_generic, direct_sum, double_construction, idempotent_identities,
    image_closed_under_p_action, is_quasi_idempotent, scale_weight,
)
from hopfrb.report import Report
from hopfrb.structures import (
    Bialgebra, FinAlgebra, FinCoalgebra, Functional, HopfAlgebra, WeakBialgebra,
    WeakHopfAlgebra, check_algebra, check_algebra_morphism, check_bialgebra, check_coalgebra,
    check_counital_maps, check_hopf, check_quantum_commutative, check_weak_bialgebra,
    check_weak_hopf, compute_antipode, quantum_commutative_witness, subalgebra_image,
    target_source,
)

FIELDS = (RATIONAL, prime_field(2), prime_field(5))
VALUES = (0, 0, 0, 0, 1, -1, 2)
ROUNDS = 4

DIGEST = "4917edb34b8dbf53433feb374c013e64009e181990567d42c9eaf2b5517d2bc2"


def _render(x):
    """A JSON-ready rendering of a checker's or construction's result."""
    if isinstance(x, Report):
        return {"json": x.to_json(), "count": x.violation_count,
                "violations": [v.to_json() for v in x.violations],
                "checked": list(x.checked), "skipped": list(x.skipped)}
    if isinstance(x, (tuple, list)):
        return [_render(y) for y in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if hasattr(x, "to_json"):
        return _render(x.to_json())
    if isinstance(x, dict):
        return {k: _render(v) for k, v in x.items()}
    if hasattr(x, "field") and hasattr(x, "value"):  # a Scalar
        return str(x)
    if isinstance(x, RbpInstance):
        return {"name": x.name, "p": _render(x.p), "t": _render(x.t), "verified": x.verified}
    if isinstance(x, FinAlgebra):
        unit = None if x.unit is None else x.unit.dense()
        return {"name": x.name, "mult": _render(x.mult.dense()), "unit": _render(unit)}
    if isinstance(x, ActionStructure):
        return {"name": x.name, "act": _render(x.act.dense())}
    if hasattr(x, "basis") and hasattr(x, "side"):  # an IntegralSpace
        return _render(x.basis)
    return type(x).__name__


class _Cases:
    def __init__(self, seed: str) -> None:
        self.rng = random.Random(seed)
        self.records: list = []

    def run(self, label: str, fn, *args, **kwargs):
        try:
            out = fn(*args, **kwargs)
        except Exception as ex:  # every exception is part of the pinned bytes
            self.records.append(f"{label} raises {type(ex).__name__}: {ex}")
            return None
        self.records.append(f"{label} -> {json.dumps(_render(out), sort_keys=True)}")
        return out

    # -- random pieces -------------------------------------------------------

    def value(self, f):
        return f.of(self.rng.choice(VALUES))

    def vec(self, f, n):
        return tuple(self.value(f) for _ in range(n))

    def mat(self, f, r, c):
        return tuple(self.vec(f, c) for _ in range(r))

    def tensor(self, f, a, b, c):
        return tuple(self.mat(f, b, c) for _ in range(a))

    def unital_algebra(self, f, n, name="A"):
        """A random algebra with e_0 as its unit, mostly not associative."""
        mult = [[list(row) for row in plane] for plane in self.tensor(f, n, n, n)]
        for j in range(n):
            mult[0][j] = mult[j][0] = [f.one if k == j else f.zero for k in range(n)]
        unit = tuple(f.one if k == 0 else f.zero for k in range(n))
        return FinAlgebra(f, n, tuple(f"e{i}" for i in range(n)),
                          tuple(tuple(tuple(r) for r in p) for p in mult), unit, name=name)

    def algebra(self, f, n, name="A"):
        if self.rng.random() < 0.5:
            return self.unital_algebra(f, n, name)
        unit = self.vec(f, n) if self.rng.random() < 0.5 else None
        return FinAlgebra(f, n, tuple(f"e{i}" for i in range(n)), self.tensor(f, n, n, n),
                          unit, name=name)

    def coalgebra(self, f, n):
        return FinCoalgebra(f, n, tuple(f"e{i}" for i in range(n)), self.tensor(f, n, n, n),
                            self.vec(f, n))

    def perturb(self, t, f):
        """t with one random cell moved by a nonzero amount."""
        if isinstance(t, RawTensor):  # a carrier's stored tensor
            t = t.dense()
        shape = []
        x = t
        while isinstance(x, tuple) and x:
            shape.append(len(x))
            x = x[0]
        at = [self.rng.randrange(d) for d in shape]
        step = f.of(self.rng.choice((1, -1, 2)))

        def bump(y, path):
            if not path:
                return y + step
            return tuple(bump(z, path[1:]) if k == path[0] else z for k, z in enumerate(y))

        return bump(t, at)


def _host_cases(c: _Cases, f, tag: str) -> None:
    """The host checkers on random and perturbed bialgebras and weak hosts."""
    rng = c.rng
    hosts = []
    for maker in (lambda: catalog.cyclic_group_algebra(2, f),
                  lambda: catalog.cyclic_group_algebra(3, f),
                  lambda: catalog.sweedler_h4(f),
                  lambda: catalog.symmetric_group_algebra_s3(f)):
        h = c.run(f"{tag}:host", maker)
        if h is not None:
            hosts.append(h)
    for h in hosts:
        alg, co = h.algebra, h.coalgebra
        part = rng.choice(("mult", "comult", "antipode", "counit", "none"))
        if part == "mult":
            alg = FinAlgebra(f, alg.dim, alg.labels, c.perturb(alg.mult, f), alg.unit,
                             name=alg.name)
        elif part == "comult":
            co = FinCoalgebra(f, co.dim, co.labels, c.perturb(co.comult, f), co.counit)
        elif part == "counit":
            co = FinCoalgebra(f, co.dim, co.labels, co.comult, c.perturb(co.counit, f))
        s = c.perturb(h.antipode, f) if part == "antipode" else h.antipode
        b = Bialgebra(f"{h.name}~{part}", alg, co)
        hh = HopfAlgebra(b.name, b, s)
        label = f"{tag}:{hh.name}"
        c.run(f"{label}:algebra", check_algebra, alg)
        c.run(f"{label}:coalgebra", check_coalgebra, co)
        c.run(f"{label}:bialgebra", check_bialgebra, b)
        c.run(f"{label}:hopf", check_hopf, hh)
        c.run(f"{label}:antipode", compute_antipode, b)
        c.run(f"{label}:integrals-left", find_integrals, hh, "left")
        c.run(f"{label}:integrals-right", find_integrals, hh, "right")
        weak = WeakHopfAlgebra(hh.name, WeakBialgebra(hh.name, alg, co), s)
        c.run(f"{label}:weak-bialgebra", check_weak_bialgebra, weak.weak)
        c.run(f"{label}:weak-hopf", check_weak_hopf, weak)
        c.run(f"{label}:weak-antipode", compute_antipode, weak.weak)
        c.run(f"{label}:counital", check_counital_maps, weak)
        c.run(f"{label}:morphism", check_algebra_morphism,
              c.mat(f, alg.dim, alg.dim), alg, h.algebra)
        _pairing_cases(c, f, label, hh)
    for maker in (catalog.two_point_weak_hopf, catalog.pair_groupoid_weak_hopf):
        w = maker(f)
        alg, co = w.algebra, w.coalgebra
        part = rng.choice(("mult", "comult", "antipode", "none"))
        if part == "mult":
            alg = FinAlgebra(f, alg.dim, alg.labels, c.perturb(alg.mult, f), alg.unit,
                             name=alg.name)
        elif part == "comult":
            co = FinCoalgebra(f, co.dim, co.labels, c.perturb(co.comult, f), co.counit)
        s = c.perturb(w.antipode, f) if part == "antipode" else w.antipode
        ww = WeakHopfAlgebra(f"{w.name}~{part}", WeakBialgebra(w.name, alg, co), s)
        label = f"{tag}:{ww.name}"
        c.run(f"{label}:weak-bialgebra", check_weak_bialgebra, ww.weak)
        c.run(f"{label}:weak-hopf", check_weak_hopf, ww)
        c.run(f"{label}:counital", check_counital_maps, ww)
        c.run(f"{label}:target-source", target_source, ww)
        c.run(f"{label}:weak-antipode", compute_antipode, ww.weak)
        c.run(f"{label}:qc-witness", quantum_commutative_witness, ww)
        c.run(f"{label}:qc", check_quantum_commutative, ww)
        c.run(f"{label}:weak-target-rbp", weak_target_rbp, ww)
        c.run(f"{label}:adjoint-rbp", adjoint_rbp, ww)
        _doi_cases(c, f, label, ww)
    for n in (1, 2, 3):
        a, co = c.algebra(f, n), c.coalgebra(f, n)
        label = f"{tag}:random{n}"
        c.run(f"{label}:algebra", check_algebra, a)
        c.run(f"{label}:coalgebra", check_coalgebra, co)
        c.run(f"{label}:subalgebra", lambda: subalgebra_image(c.mat(f, n, n), a).algebra)
        if a.unit is None:
            c.run(f"{label}:bialgebra", Bialgebra, "r", a, co)
            continue
        b = Bialgebra(f"r{n}", a, co)
        hh = HopfAlgebra(f"r{n}", b, c.mat(f, n, n))
        w = WeakHopfAlgebra(f"r{n}", WeakBialgebra(f"r{n}", a, co), hh.antipode)
        c.run(f"{label}:bialgebra", check_bialgebra, b)
        c.run(f"{label}:hopf", check_hopf, hh)
        c.run(f"{label}:antipode", compute_antipode, b)
        c.run(f"{label}:weak-bialgebra", check_weak_bialgebra, w.weak)
        c.run(f"{label}:weak-hopf", check_weak_hopf, w)
        c.run(f"{label}:weak-antipode", compute_antipode, w.weak)
        c.run(f"{label}:counital", check_counital_maps, w)
        c.run(f"{label}:qc-witness", quantum_commutative_witness, w)
        c.run(f"{label}:integrals", find_integrals, hh, "left")


def _pairing_cases(c: _Cases, f, label: str, h) -> None:
    """Pairings and R-matrices on a (perturbed) catalog host."""
    n = h.dim
    sigmas = [c.mat(f, n, n)]
    if n == 2:
        sigmas.append(((f.one, f.one), (f.one, -f.one)))
    for k, sigma in enumerate(sigmas):
        form = PairingForm(h, sigma)
        c.run(f"{label}:long-pairing{k}", check_long_pairing, h, form)
        c.run(f"{label}:braided{k}", check_braided, h, form)
    one = tuple(f.one if i == 0 else f.zero for i in range(n))
    g = tuple(f.one if i == 1 else f.zero for i in range(n))
    gg = tuple(x * y for x in g for y in g)
    candidates = [(gg, gg), (tuple(x * y for x in one for y in g),) * 2]
    if n == 2 and f.p != 2:
        half = f.one / f.of(2)
        r = (half, half, half, -half)
        candidates.append((r, r))
        candidates.append((c.perturb(r, f), r))
    for k, (r, rinv) in enumerate(candidates):
        rm = c.run(f"{label}:rmatrix{k}", RMatrix, h, r, rinv)
        if rm is not None:
            c.run(f"{label}:quasitriangular{k}", check_quasitriangular, h, rm)


def _module_cases(c: _Cases, f, tag: str) -> None:
    """Module, comodule and composite checkers on random and perturbed data."""
    rng = c.rng
    for hname in ("c2", "c3", "h4"):
        h = c.run(f"{tag}:{hname}", {"c2": lambda: catalog.cyclic_group_algebra(2, f),
                                     "c3": lambda: catalog.cyclic_group_algebra(3, f),
                                     "h4": lambda: catalog.sweedler_h4(f)}[hname])
        if h is None:
            continue
        n, m = h.dim, rng.choice((1, 2, 3))
        label = f"{tag}:{hname}"
        left = ActionStructure(h.algebra, m, "left", c.tensor(f, n, m, m), name="L")
        right = ActionStructure(h.algebra, m, "right", c.tensor(f, n, m, m), name="R")
        reg = regular_action(h.algebra, rng.choice(("left", "right")))
        reg = ActionStructure(h.algebra, n, reg.side, c.perturb(reg.act, f), name="reg~")
        coact = CoactionStructure(h.coalgebra, m, c.tensor(f, m, m, n), name="C")
        regco = regular_coaction(h)
        regco = CoactionStructure(h.coalgebra, n, c.perturb(regco.co, f), name="regco~")
        for a in (left, right, reg):
            c.run(f"{label}:action:{a.name}", check_action, a)
        for com in (coact, regco):
            c.run(f"{label}:coaction:{com.name}", check_coaction, com)
            c.run(f"{label}:coinvariants:{com.name}", coinvariants, com, "strict", h)
        carrier = c.algebra(f, m, name="carrier")
        c.run(f"{label}:module-algebra", check_module_algebra, h, carrier, left)
        c.run(f"{label}:smash", smash_product, carrier, h, left)
        d = Dimodule(h, left, coact, name="D")
        c.run(f"{label}:dimodule", check_dimodule, d)
        c.run(f"{label}:dimodule-T", dimodule_T, h, d, Functional(h, c.vec(f, n)))
        hm = HopfModule(h, right, coact, name="HM")
        c.run(f"{label}:hopf-module", check_hopf_module, hm)
        c.run(f"{label}:hopf-module-projection", hopf_module_projection, h, hm)
        if reg.side == "right":
            hm2 = HopfModule(h, reg, regular_coaction(h), name="HM~")
            c.run(f"{label}:hopf-module~", check_hopf_module, hm2)
            c.run(f"{label}:hopf-module-projection~", hopf_module_projection, h, hm2)
        wca = WeakComoduleAlgebra(h, carrier, CoactionStructure(h.coalgebra, m,
                                                                 c.tensor(f, m, m, n)), name="W")
        c.run(f"{label}:comodule-algebra", check_weak_comodule_algebra, wca)
        e = c.vec(f, n)
        c.run(f"{label}:integral-T", integral_T, h, left, e)
        c.run(f"{label}:dual-action-T", dual_action_T, h, Functional(h, c.vec(f, n)))
    # the catalog's smash and integral constructions, with one input perturbed
    c2 = catalog.cyclic_group_algebra(2, f)
    kx = catalog.dual_numbers_algebra(f)
    act = catalog.sign_action_on_dual_numbers(c2)
    bad = ActionStructure(act.algebra, 2, "left", c.perturb(act.act, f), name="sign~")
    e = c.run(f"{tag}:integral", catalog.normalized_group_integral, c2)
    for a in (act, bad):
        c.run(f"{tag}:smash-integral:{a.name}", smash_integral_T, kx, c2, a,
              e if e is not None else c.vec(f, 2))
    c.run(f"{tag}:integral-T", integral_T, c2, regular_action(c2.algebra, "left"),
          e if e is not None else c.vec(f, 2))


def _doi_cases(c: _Cases, f, label: str, w) -> None:
    com = regular_coaction(w)
    com = CoactionStructure(com.coalgebra, com.dim,
                            c.perturb(com.co, f) if c.rng.random() < 0.5 else com.co,
                            name="self~")
    wca = WeakComoduleAlgebra(w, w.algebra, com, name="self")
    doi = DoiHopfModule(wca, regular_action(w.algebra, "right"), com, name="doi")
    c.run(f"{label}:doi", check_doi_hopf, doi)
    n = w.dim
    phi = tuple(tuple(f.one if r == s else f.zero for s in range(n)) for r in range(n))
    c.run(f"{label}:doi-projection", doi_hopf_projection, w, wca, phi, doi)


def _rbcore_cases(c: _Cases, f, tag: str) -> None:
    rng = c.rng
    for n, m in ((1, 1), (2, 2), (2, 3), (3, 2)):
        a = c.algebra(f, n)
        module = ActionStructure(a, m, rng.choice(("left", "right")), c.tensor(f, n, m, m),
                                 name="M")
        p, t, lam = c.mat(f, n, n), c.mat(f, m, m), c.value(f)
        label = f"{tag}:rb{n}x{m}"
        inst = RbpInstance(a, module, p, t, lam, name="I")
        c.run(f"{label}:rbp", check_rbp_module, inst)
        c.run(f"{label}:rb", check_rb_operator, a, p, lam)
        c.run(f"{label}:a-linear", check_a_linear, module, t)
        c.run(f"{label}:qi", is_quasi_idempotent, t, lam)
        c.run(f"{label}:classify", classify_generic, module, t, lam, trials=3, seed="pin")
        c.run(f"{label}:atkinson", atkinson_solvable, a, module, p, t, lam)
        c.run(f"{label}:double", double_construction, a, p, module, t, lam)
        c.run(f"{label}:idempotent", idempotent_identities, inst)
    # valid instances, and valid ones with one operator perturbed
    for name in catalog.list_instances():
        inst = catalog.get_instance(name)
        if f != inst.field:
            continue
        label = f"{tag}:{name}"
        c.run(f"{label}:idempotent", idempotent_identities, inst)
        c.run(f"{label}:closed", image_closed_under_p_action, inst)
        c.run(f"{label}:atkinson", atkinson_solvable, inst.algebra, inst.module, inst.p,
              inst.t, inst.weight)
        c.run(f"{label}:scale", scale_weight, inst, f.of(3))
        c.run(f"{label}:direct-sum", direct_sum, [inst, inst])
        bent = RbpInstance(inst.algebra, inst.module, c.perturb(inst.p, f), inst.t,
                           inst.weight, name=f"{name}~p")
        c.run(f"{label}:bent-rbp", check_rbp_module, bent)
        c.run(f"{label}:bent-double", double_construction, inst.algebra, bent.p, inst.module,
              inst.t, inst.weight)
        c.run(f"{label}:bent-t", classify_generic, inst.module, c.perturb(inst.t, f),
              inst.weight, trials=3, seed="pin")


def _zero_dimensional_cases(c: _Cases, f, tag: str) -> None:
    """Hosts on the zero space, whose contractions have only empty operands."""
    a = FinAlgebra(f, 0, (), (), (), name="z")
    co = FinCoalgebra(f, 0, (), (), ())
    b = Bialgebra("z", a, co)
    w = WeakHopfAlgebra("z", WeakBialgebra("z", a, co), ())
    for name, fn, x in (("bialgebra", check_bialgebra, b), ("hopf", check_hopf, HopfAlgebra("z", b, ())),
                        ("weak-hopf", check_weak_hopf, w), ("counital", check_counital_maps, w),
                        ("antipode", compute_antipode, b), ("weak-antipode", compute_antipode, w.weak),
                        ("target-source", target_source, w)):
        c.run(f"{tag}:zero:{name}", fn, x)


def _records() -> list:
    c = _Cases("failing-reports")
    for f in FIELDS:
        _zero_dimensional_cases(c, f, str(f))
    for r in range(ROUNDS):
        for f in FIELDS:
            tag = f"{r}:{f}"
            _host_cases(c, f, tag)
            _module_cases(c, f, tag)
            _rbcore_cases(c, f, tag)
    return c.records


def test_failing_reports_keep_their_bytes():
    records = _records()
    digest = hashlib.sha256("\n".join(records).encode()).hexdigest()
    assert digest == DIGEST, (len(records), digest)
