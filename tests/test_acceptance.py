"""Acceptance suite: one test per exit criterion.

Every test prints a ``criterion N (...): PASS/FAIL`` line (run with
``pytest -s`` to see them as they happen). All checks are exact: the
algebra is finite, the state spaces are exhaustively explored, and the
golden negotiation is matched event for event.
"""

from __future__ import annotations

import contextlib
import json
from dataclasses import replace

import pytest

from promisekit.corpus import corpus_path, corpus_text
from promisekit.dsl import parse_scenario, parse_trace, render
from promisekit.explorer import (
    Accepted,
    Outcome,
    Rejected,
    build_lts,
    find_deadlocks,
    maximal_traces,
    verify_trace,
)
from promisekit.process_algebra import (
    Act,
    Alt,
    Configuration,
    DEADLOCK,
    Guard,
    HasPromise,
    IntroduceEvent,
    Par,
    Seq,
    WithdrawEvent,
)
from promisekit.promise_state import EMPTY_STATE, PromiseModel
from promisekit.task_algebra import (
    GAMMA,
    NegationConflict,
    ReflexiveDeclaration,
    TypeMismatch,
    all_bodies,
    build_incompatibility,
    incompatible,
    is_positive,
    is_service,
    negate,
    type_of,
    usage,
)

from helpers import run_cli
from scenario_gen import random_scenario_text
from sos_oracle import explorer_trace_set, oracle_traces

CORPUS = ("jub.promise", "isp.promise", "laws.promise")
JUB = str(corpus_path("jub.promise"))
TRACE = str(corpus_path("jub_trace.txt"))


@contextlib.contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({title}): FAIL")
        raise
    print(f"criterion {number} ({title}): PASS")


def corpus_models():
    return [(name, parse_scenario(corpus_text(name)).model) for name in CORPUS]


def test_criterion_1_algebra_laws():
    with criterion(1, "algebra law suite"):
        for _, model in corpus_models():
            bodies = all_bodies(model.atoms)
            assert len(bodies) == 4 * len(model.atoms)
            for x in bodies:
                assert usage(usage(x)) == x
                assert negate(negate(x)) == x
                assert usage(negate(x)) == negate(usage(x))
                assert is_service(negate(x)) == is_service(x)
                assert is_service(usage(x)) == (not is_service(x))
                assert is_positive(usage(x)) == is_positive(x)
                assert is_positive(negate(x)) == (not is_positive(x))
                assert type_of(usage(x)) == type_of(x) == type_of(negate(x))
            assert is_service(GAMMA) and is_positive(GAMMA)


def test_criterion_2_incompatibility_laws():
    with criterion(2, "incompatibility law suite"):
        for _, model in corpus_models():
            rel = model.incompatibility
            bodies = all_bodies(model.atoms)
            for x in bodies:
                assert incompatible(rel, x, negate(x))
                assert not incompatible(rel, x, x)
                for y in bodies:
                    assert incompatible(rel, x, y) == incompatible(rel, y, x)
                    if incompatible(rel, x, y):
                        assert type_of(x) == type_of(y)
                        assert not incompatible(rel, x, negate(y))

        scratch = PromiseModel.create(
            agents=("a",), types=("t", "u"), atoms={"x": "t", "y": "t", "z": "u"}
        )
        atoms, b = scratch.atoms, scratch.body
        with pytest.raises(TypeMismatch):
            build_incompatibility(atoms, [(b("x"), b("z"))])
        with pytest.raises(ReflexiveDeclaration):
            build_incompatibility(atoms, [(b("x"), b("x"))])
        with pytest.raises(NegationConflict):
            build_incompatibility(atoms, [(b("x"), b("y")), (b("x"), b("!y"))])


def test_criterion_3_golden_negotiation_reproduction():
    with criterion(3, "golden negotiation reproduction"):
        scenario = parse_scenario(corpus_text("jub.promise"))
        events = tuple(parse_trace(corpus_text("jub_trace.txt"), scenario.model))
        initial = Configuration(scenario.entry, scenario.initial_state)

        verdict = verify_trace(scenario.model, initial, events)
        assert isinstance(verdict, Accepted)
        assert verdict.maximal
        assert verdict.outcome is Outcome.SUCCESSFUL
        assert render(verdict.final_state) == "{ja:tbc2JUB->ma, ma:~tbc2JUB->ja}"

        code, out, _ = run_cli(["verify-trace", JUB, "--trace", TRACE])
        assert code == 0
        assert out.splitlines() == [
            "accepted",
            "maximal: yes",
            "outcome: successful",
            "final state: {ja:tbc2JUB->ma, ma:~tbc2JUB->ja}",
        ]

        traces = maximal_traces(build_lts(scenario.model, initial))
        assert any(t.events == events for t in traces)

        code, out, _ = run_cli(["explore", JUB])
        assert code == 0
        assert "\n".join(f"  {e}" for e in events) in out


def test_criterion_4_exclusiveness_safety():
    with criterion(4, "exclusiveness safety"):
        scenario = parse_scenario(corpus_text("jub.promise"))
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        ma = scenario.model.agent("ma")
        use = scenario.model.body("~tbc2JUB")
        for node in lts.nodes:
            promisees = {p.promisee for p in node.state if p.promiser == ma and p.body == use}
            assert len(promisees) <= 1
        assert find_deadlocks(lts) == []


def _sweep_terms(model):
    """Every process term of depth <= 3 over a fixed event alphabet: four
    speech acts (including a self-promise of the exclusive body and a
    conflicting pair within one dyad), deadlock, the three compositions,
    and a state-dependent guard."""
    a, b = model.agent("a"), model.agent("b")
    x, refusal = model.body("x"), model.body("!x")
    leaves = [
        Act(IntroduceEvent(a, x, b)),
        Act(IntroduceEvent(a, x, a)),
        Act(IntroduceEvent(a, refusal, b)),
        Act(WithdrawEvent(a, x, b)),
        DEADLOCK,
    ]
    guard_condition = HasPromise(a, x, b)
    layers = {1: list(leaves)}
    for depth in (2, 3):
        previous = layers[depth - 1]
        shallower = [t for d in range(1, depth - 1) for t in layers[d]]
        layer = []
        for op in (Seq, Alt, Par):
            layer += [op(l, r) for l in previous for r in previous + shallower]
            layer += [op(l, r) for l in shallower for r in previous]
        layer += [Guard(guard_condition, t) for t in previous]
        layers[depth] = layer
    return [t for d in layers for t in layers[d]]


def test_criterion_5_oracle_equivalence():
    with criterion(5, "oracle equivalence on all terms of depth <= 3"):
        model = PromiseModel.create(
            agents=("a", "b"), types=("t",), atoms={"x": "t"}, exclusive=("x",)
        )
        terms = _sweep_terms(model)
        assert len(terms) == 21765
        for term in terms:
            lts = build_lts(model, Configuration(term, EMPTY_STATE))
            via_lts = explorer_trace_set(maximal_traces(lts))
            via_oracle = oracle_traces(model, term, EMPTY_STATE)
            assert via_lts == via_oracle


def test_criterion_6_strict_mode_divergence():
    with criterion(6, "strict-conflict divergence"):
        scenario = parse_scenario(corpus_text("jub.promise"))
        strict = replace(scenario.model, strict_conflicts=True)
        events = tuple(parse_trace(corpus_text("jub_trace.txt"), scenario.model))
        verdict = verify_trace(
            strict, Configuration(scenario.entry, scenario.initial_state), events
        )
        assert isinstance(verdict, Rejected)
        assert verdict.index == 3  # the fourth event: pi(ma, !~tbc2JUB, ju)

        code, out, _ = run_cli(
            ["verify-trace", JUB, "--trace", TRACE, "--strict-conflicts", "--format", "json"]
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["verdict"] == "rejected"
        assert payload["index"] == 3
        assert payload["event"] == "pi(ma, !~tbc2JUB, ju)"


def test_criterion_7_dsl_round_trip():
    with criterion(7, "scenario round-trip"):
        for name in ("jub.promise", "isp.promise"):
            scenario = parse_scenario(corpus_text(name))
            assert parse_scenario(render(scenario)) == scenario
        for seed in range(100, 120):
            scenario = parse_scenario(random_scenario_text(seed))
            assert parse_scenario(render(scenario)) == scenario


def test_criterion_8_determinism():
    with criterion(8, "deterministic reports"):
        first = run_cli(["run", JUB, "--seed", "42"])
        second = run_cli(["run", JUB, "--seed", "42"])
        assert first[0] == 0
        assert first == second

        first = run_cli(["explore", JUB])
        second = run_cli(["explore", JUB])
        assert first[0] == 0
        assert first == second

        first = run_cli(["explore", JUB, "--format", "json"])
        second = run_cli(["explore", JUB, "--format", "json"])
        assert first == second
