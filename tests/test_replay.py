"""Replay suites: shape, ordering, determinism."""

import json
import sys

import pytest

from hopfrb import __version__, catalog, rbcore, replay
from hopfrb.actions import ActionStructure
from hopfrb.catalog import get
from hopfrb.exactlin import RATIONAL, RawTensor, identity
from hopfrb.hopfrb import functional_operator
from hopfrb.replay import ReplayError, replay_ids, run_all, run_replay
from hopfrb.structures import FinAlgebra

ALL_IDS = ("cor-int", "ex-4.7", "prop-3.1", "prop-3.6", "prop-4.1", "prop-4.3",
           "prop-4.4", "prop-4.5", "prop-4.6", "rmk-4.10", "thm-3.2", "thm-3.5",
           "thm-4.8")


def test_known_ids_sorted():
    assert replay_ids() == ALL_IDS


def test_unknown_id_rejected():
    with pytest.raises(ReplayError):
        run_replay("thm-9.1")
    with pytest.raises(ReplayError):
        run_replay("thm-3.2", trials=-1)


def test_report_shape():
    rep = run_replay("thm-3.5", seed=1, trials=5)
    assert rep["replay"] == "thm-3.5"
    assert rep["version"] == __version__
    assert rep["seed"] == "1"
    assert rep["trials"] == 5
    assert rep["result"] in ("pass", "fail")
    for check in rep["checks"]:
        assert check["result"] in ("pass", "fail")
        assert check["name"]


def test_run_all_is_ordered_and_deterministic():
    a = run_all(seed=3, trials=5)
    b = run_all(seed=3, trials=5)
    assert [r["replay"] for r in a["replays"]] == list(ALL_IDS)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_seed_changes_fuzzed_operators():
    a = run_replay("thm-3.2", seed=1, trials=5)
    b = run_replay("thm-3.2", seed=2, trials=5)
    assert a["seed"] != b["seed"]
    assert a["result"] == b["result"] == "pass"


def test_projection_suite_reports_dual_side_honestly():
    # the dual-side claim is refuted on both hosts: E fails to commute with
    # the dual action, and P = 0 breaks the paired identity over the dual
    rep = run_replay("prop-4.5", seed=1, trials=5)
    by_name = {c["name"]: c for c in rep["checks"]}
    for host, n in (("group-algebra-c2", 2), ("group-algebra-c3", 3)):
        check = by_name[f"dual-side-refuted:{host}"]
        assert check["result"] == "pass"
        assert check["verdict"]["a_linear"] is False
        assert check["verdict"]["generic"] is None
        assert check["verdict"]["seed"] == "1"
        # 1^ . E(g) = 1^ . 1 = 1, while E(1^ . g) = E(0) = 0
        assert check["commutator"] == {
            "axiom": "commutes-with-action", "b": 0, "m": 1,
            "delta": ["1"] + ["0"] * (n - 1)}
        # with P = 0 the identity at a = 1^ reads 0 = E(1^ . E(m)) - E(1^ . m);
        # the right side is 1 at every m = g^k with k != 0, so delta is -1
        assert check["witness"] == {
            "axiom": "pairing-identity", "a": 0,
            "delta": ["0"] + ["-1"] * (n - 1) + ["0"] * (n * n - n)}
    assert rep["result"] == "pass"


def test_prop_3_6_counts_the_basis_tuples_where_its_identities_fail(monkeypatch):
    """prop-3.6 counts the basis triples where (e_i e_j) e_k != e_i (e_j e_k)
    in the star algebra, and the pairs where T(e_i |> m_j) != P(e_i) |> T(m_j),
    as loops over the basis do.  The double construction asserts both, so
    the test hands the suite other inputs: M_2 with one product changed,
    acting on M_2 by left multiplication, T = id and a P that is not its
    own transpose, P(E11) = E11 + E12 + E22."""
    q, r = RATIONAL, range(4)
    m2 = get("mat2-rational").payload.mult.dense()
    mult = [[list(row) for row in plane] for plane in m2]
    mult[1][1][1] = q.one  # E12 E12 = E12
    star = FinAlgebra(q, 4, ("a", "b", "c", "d"),
                      tuple(tuple(tuple(row) for row in plane) for plane in mult))
    tri = ActionStructure(star, 4, "left", m2)
    p = tuple(tuple(q.one if i == j or (j == 0 and i in (1, 3)) else q.zero for j in r)
              for i in r)
    t = identity(q, 4)
    monkeypatch.setattr(replay, "double_construction", lambda *args: (
        star, tri, rbcore.RbpInstance(star, tri, p, t, -q.one)))

    def sums(terms):
        return tuple(sum(terms(x), q.zero) for x in r)

    triples = sum(sums(lambda x: (mult[i][j][m] * mult[m][k][x] for m in r))
                  != sums(lambda x: (mult[j][k][m] * mult[i][m][x] for m in r))
                  for i in r for j in r for k in r)
    pairs = sum(sums(lambda x: (t[x][k] * m2[i][j][k] for k in r))
                != sums(lambda x: (p[a][i] * t[b][j] * m2[a][b][x] for a in r for b in r))
                for i in r for j in r)
    assert triples and pairs
    by_name = {c["name"]: c for c in run_replay("prop-3.6", seed=1, trials=1)["checks"]}
    assert by_name["star-associative"]["failures"] == triples
    assert by_name["projection-intertwines"]["failures"] == pairs


def _count_full_checks(monkeypatch, trials):
    """check_rbp_module calls in one `replay all`, wherever a hopfrb module
    names it, with every catalog instance already built and verified."""
    catalog.instances()
    real, calls = rbcore.check_rbp_module, []

    def counted(inst):
        calls.append(inst)
        return real(inst)

    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfrb") and getattr(mod, "check_rbp_module", None) is real:
            monkeypatch.setattr(mod, "check_rbp_module", counted)
    run_all(seed=3, trials=trials)
    monkeypatch.undo()
    return len(calls)


def test_replay_all_walks_check_rbp_module_19_times_at_any_trials(monkeypatch):
    # no fuzzed P goes through check_rbp_module: an A-linear T is decided
    # exactly and every other draw by a pairing system
    assert [_count_full_checks(monkeypatch, trials) for trials in (0, 10, 100)] == [19, 19, 19]


@pytest.mark.parametrize("trials", [0, 1, 10])
def test_prop_4_1_decides_the_counit_identity_on_the_basis_functionals(trials, monkeypatch):
    def check():
        rep = run_replay("prop-4.1", seed=7, trials=trials)
        return {c["name"]: c for c in rep["checks"]}["counit-recovers-functional"]

    assert check() == {"name": "counit-recovers-functional", "result": "pass",
                       "trials": trials, "failures": 0}
    # eps(2 T_chi) = 2 chi: every basis functional fails, whatever trials reads
    monkeypatch.setattr(replay, "functional_operator",
                        lambda h, chi: functional_operator(h, chi).scaled(h.field.of(2)))
    assert check() == {"name": "counit-recovers-functional", "result": "fail",
                       "trials": trials, "failures": get("group-algebra-c2").payload.dim}


@pytest.mark.parametrize("rid,target,check", [
    ("prop-3.6", "double_construction", "doubled-instance-verifies"),
    ("prop-4.3", "weak_target_rbp", "target-instance:weak-two-point"),
    ("prop-4.4", "adjoint_rbp", "adjoint-instance:weak-two-point"),
    ("prop-4.5", "hopf_module_projection", "instance-verifies:group-algebra-c2"),
    ("thm-4.8", "doi_hopf_projection", "instance-verifies"),
    ("rmk-4.10", "doi_hopf_projection", "carrier-slice-instance:weak-two-point"),
])
def test_a_construction_that_returns_an_unverified_instance_fails_its_check(
        rid, target, check, monkeypatch):
    # the suites read the verdict the construction recorded on the instance
    real = getattr(replay, target)

    def unverified(*args):
        out = real(*args)
        inst = next(x for x in (out if isinstance(out, tuple) else (out,))
                    if isinstance(x, rbcore.RbpInstance))
        inst.verified = "unchecked"
        return out

    assert run_replay(rid, seed=1, trials=1)["result"] == "pass"
    monkeypatch.setattr(replay, target, unverified)
    rep = run_replay(rid, seed=1, trials=1)
    failed = [c["name"] for c in rep["checks"] if c["result"] == "fail"]
    assert check in failed and rep["result"] == "fail"


@pytest.mark.parametrize("trials", [0, 10, 100])
def test_replay_all_draws_only_for_the_two_t_that_are_not_a_linear(trials, monkeypatch):
    # every A-linear T is decided exactly, with no draw; the only T that is
    # not A-linear are prop-4.5's two dual-side projections, which draw and
    # decide `trials` operators each
    calls = {"draws": 0, "fails": 0}

    def counting(key, real):
        def counted(*args):
            calls[key] += 1
            return real(*args)
        return counted

    real_draws = rbcore._random_entries
    for name, mod in list(sys.modules.items()):
        if name.startswith("hopfrb") and getattr(mod, "_random_entries", None) is real_draws:
            monkeypatch.setattr(mod, "_random_entries", counting("draws", real_draws))
    monkeypatch.setattr(rbcore.PairingSystem, "fails",
                        counting("fails", rbcore.PairingSystem.fails))
    run_all(seed=3, trials=trials)
    assert calls == {"draws": 2 * trials, "fails": 2 * trials}


def _check_named(rid: str, name: str, trials: int) -> dict:
    rep = run_replay(rid, seed=7, trials=trials)
    return {c["name"]: c for c in rep["checks"]}[name]


@pytest.mark.parametrize("trials", [0, 1, 10])
def test_tilde_on_fuzzed_instances_fails_every_trial_when_t_is_not_generic(
        trials, monkeypatch):
    assert _check_named("prop-3.1", "tilde-on-fuzzed-instances", trials) == {
        "name": "tilde-on-fuzzed-instances", "result": "pass",
        "trials": trials, "failures": 0}
    # twice the integral operator is A-linear but not quasi-idempotent: no P
    # pairs with it, so every trial fails, and with no trial none does
    monkeypatch.setattr(replay, "normalized_group_integral",
                        lambda h: tuple(x + x for x in catalog.normalized_group_integral(h)))
    assert _check_named("prop-3.1", "tilde-on-fuzzed-instances", trials) == {
        "name": "tilde-on-fuzzed-instances", "result": "pass" if trials == 0 else "fail",
        "trials": trials, "failures": trials}


@pytest.mark.parametrize("trials", [0, 1, 10])
def test_doubled_identity_is_falsified_at_trial_0_or_not_at_all(trials, monkeypatch):
    # 2 id is A-linear and not quasi-idempotent, so every trial falsifies it
    # and the first is trial 0; with no trial nothing does
    assert _check_named("thm-3.2", "doubled-identity-falsified", trials) == {
        "name": "doubled-identity-falsified", "result": "pass" if trials else "fail",
        "falsifying_trial": 0 if trials else None}
    # with the zero matrix for the identity, T2 = 0 pairs with every P
    monkeypatch.setattr(replay, "raw_identity",
                        lambda f, n: RawTensor(f, (n, n), {}))
    assert _check_named("thm-3.2", "doubled-identity-falsified", trials) == {
        "name": "doubled-identity-falsified", "result": "fail", "falsifying_trial": None}
