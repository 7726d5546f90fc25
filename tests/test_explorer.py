"""State-space exploration, trace enumeration and verification.

The golden counts for the bundled ride scenario were fixed after the
first verified run and are cross-checked against the independent
recursive enumerator in sos_oracle.
"""

from __future__ import annotations

import importlib.util
import itertools
import random
import re
import tracemalloc
import weakref
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from promisekit import cli, explorer, process_algebra, promise_state
from promisekit.corpus import corpus_text
from promisekit.dsl import parse_scenario, parse_term, parse_trace
from promisekit.explorer import (
    Accepted,
    LimitExceeded,
    Lts,
    Outcome,
    Rejected,
    Trace,
    build_lts,
    check_invariants,
    final_outcome,
    find_deadlocks,
    maximal_traces,
    transitions,
    verify_trace,
)
from promisekit.process_algebra import (
    Act,
    Alt,
    Configuration,
    DEADLOCK,
    DONE,
    FALSE,
    Guard,
    IntroduceEvent,
    Par,
    Seq,
    WithdrawEvent,
    _Cell,
    _Point,
    step,
)
from promisekit.promise_state import EMPTY_STATE, Agent, Promise, State
from promisekit.task_algebra import GAMMA, GAMMA_ATOM, IncompatibilityRelation, TaskAtom, TaskBody, UnknownAtom

from helpers import long_negotiation, offers, run_cli
from scenario_gen import random_scenario_text
from sos_oracle import clash_masks, explorer_trace_set, oracle_traces

ROOT = Path(__file__).resolve().parent.parent
RIDE_NODES = 48
RIDE_EDGES = 96
RIDE_TRACES = 340
RIDE_DIAMETER = 8

# (scenario text, strict conflicts): the corpus in both modes, a scenario
# whose traces fold nondeterminism, and the generated scenarios
NONDETERMINISTIC = Path(__file__).parent / "golden" / "nondeterministic.promise"
TRACE_ORDER_CASES = [
    pytest.param(text, mode == "strict", id=f"{name}-{mode}")
    for name, text in [
        *((name, corpus_text(name)) for name in ("jub.promise", "isp.promise", "laws.promise")),
        ("nondeterministic.promise", NONDETERMINISTIC.read_text(encoding="utf-8")),
    ]
    for mode in ("dyadic", "strict")
]
TRACE_ORDER_CASES += [
    pytest.param(random_scenario_text(seed), False, id=f"generated-{seed}") for seed in range(12)
]


# the corpus, every golden scenario and two larger offer families
CANONICAL_CASES = [
    *(pytest.param(corpus_text(name), id=name) for name in ("jub.promise", "isp.promise", "laws.promise")),
    *(
        pytest.param(path.read_text(encoding="utf-8"), id=path.name)
        for path in sorted((Path(__file__).parent / "golden").glob("*.promise"))
    ),
    *(pytest.param(offers(n), id=f"offers-{n}") for n in (2, 3)),
]

# both choices reach ok . pi(s, g3, m) . pi(s, g4, m) after the same three
# events, the second through a parenthesized sequence
TWO_WAYS_TO_ONE_TERM = (
    "agent s m\ntype t\n"
    + "".join(f"task g{i} : t\n" for i in range(5))
    + "run pi(s, g0, m) . pi(s, g1, m) . pi(s, g2, m) . pi(s, g3, m) . pi(s, g4, m)"
    + " + pi(s, g0, m) . pi(s, g1, m) . (pi(s, g2, m) . pi(s, g3, m)) . pi(s, g4, m)\n"
)


@pytest.fixture(scope="module")
def ride_lts(ride):
    return build_lts(ride.model, Configuration(ride.entry, ride.initial_state))


@pytest.fixture(scope="module")
def ride_traces(ride_lts):
    return maximal_traces(ride_lts)


class TestBuildLts:
    def test_deadlock_term(self, ride_model):
        lts = build_lts(ride_model, Configuration(DEADLOCK, EMPTY_STATE))
        assert len(lts.nodes) == 1 and len(lts.edges) == 0

    def test_single_action(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        lts = build_lts(ride_model, Configuration(Act(event), EMPTY_STATE))
        assert len(lts.nodes) == 2 and len(lts.edges) == 1

    def test_ride_scenario_goldens(self, ride_lts):
        assert len(ride_lts.nodes) == RIDE_NODES
        assert len(ride_lts.edges) == RIDE_EDGES

    def test_rebuild_is_identical(self, ride, ride_lts):
        again = build_lts(ride.model, Configuration(ride.entry, ride.initial_state))
        assert again.nodes == ride_lts.nodes
        assert again.edges == ride_lts.edges

    def test_edges_agree_with_step(self, ride, ride_lts):
        outgoing = {node: set() for node in ride_lts.nodes}
        for source, event, target in ride_lts.edges:
            outgoing[source].add((event, target))
        for node in ride_lts.nodes:
            assert outgoing[node] == set(transitions(ride.model, node))

    def test_every_node_is_expanded_through_step(self, ride, ride_events, monkeypatch):
        # a profiler or tracer that wraps ``step`` by name sees the
        # explorer's per-node work: one call per node a build expands,
        # one per node a replay reaches
        calls = []

        def counting(model, node):
            calls.append(node)
            return step(model, node)

        monkeypatch.setattr(explorer, "step", counting)
        initial = Configuration(ride.entry, ride.initial_state)
        lts = build_lts(ride.model, initial)
        assert len(calls) == len(lts.nodes) == RIDE_NODES
        calls.clear()
        assert isinstance(verify_trace(ride.model, initial, ride_events), Accepted)
        assert len(calls) == len(ride_events) + 1

    def test_guards_are_compiled_once(self, monkeypatch):
        # the accept guards number their p(...) leaves when they are
        # compiled: the 2,160 steps of offers(4) look no promise up by name
        calls = []
        number_of = promise_state._Table.number_of

        def counting(table, *args):
            calls.append(args)
            return number_of(table, *args)

        monkeypatch.setattr(promise_state._Table, "number_of", counting)
        scenario = parse_scenario(offers(4))
        initial = Configuration(scenario.entry, scenario.initial_state)
        calls.clear()
        lts = build_lts(scenario.model, initial)
        assert len(lts.nodes) == 2_160
        # 13 promises: one call per promise each of the 20 actions names,
        # and one per p(...) leaf of the 4 accept guards, each expanded
        # over 4 agents
        assert len(scenario.model._table.promises) == 13
        assert len(calls) <= 5 * 4 + 4 * 4
        calls.clear()
        build_lts(scenario.model, initial)
        assert calls == []

    def test_node_limit(self, ride):
        with pytest.raises(LimitExceeded) as exc:
            build_lts(ride.model, Configuration(ride.entry, ride.initial_state), node_limit=5)
        partial = exc.value.partial
        assert partial is not None
        assert len(partial.nodes) == 5
        # an edge end past the nodes is one object per configuration: the
        # build numbers each configuration once, when it first reaches it
        nodes = {id(node) for node in partial.nodes}
        outside = {id(end): end for source, _, target in partial.edges for end in (source, target) if id(end) not in nodes}
        assert len(outside) > 1
        assert len({(end.term, end.state) for end in outside.values()}) == len(outside)

    def test_a_truncated_build_is_walked_and_checked(self, ride):
        # every walk of the partial system stops at an end the build did not
        # expand, and replays as a prefix of a longer run
        initial = Configuration(ride.entry, ride.initial_state)
        with pytest.raises(LimitExceeded) as exc:
            build_lts(ride.model, initial, node_limit=5)
        partial = exc.value.partial
        traces = maximal_traces(partial)
        assert len(traces) == 14
        assert check_invariants(ride.model, partial) == []
        assert find_deadlocks(partial) == []
        for trace in traces:
            verdict = verify_trace(ride.model, initial, trace.events)
            assert isinstance(verdict, Accepted)
            assert not verdict.maximal

    @pytest.mark.parametrize(
        "text",
        [*CANONICAL_CASES, *(pytest.param(random_scenario_text(seed), id=f"random-{seed}") for seed in range(12))],
    )
    def test_events_are_numbered_once_in_rendered_order(self, text):
        # the build numbers events by their rank in the model's engine,
        # closed up over the events that label a transition: ids must sort
        # as reports do, one id per event
        scenario = parse_scenario(text)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state), node_limit=5000)
        assert [str(event) for event in lts._events] == sorted({str(event) for _, event, _ in lts.edges})

    @pytest.mark.parametrize("replay", ["step", "verify_trace"])
    @pytest.mark.parametrize("strict", [False, True], ids=["dyadic", "strict"])
    def test_a_later_compile_ranks_the_events_again(self, strict, replay, monkeypatch):
        # a hand-made configuration stepped or replayed after a build adds
        # events to the model's engine, here ones whose texts sort among the
        # entry's; the next build must rank again, in place: the moves
        # already derived hold the new ranks, and none is derived again. It
        # must equal a build on a fresh model, the entry's tied events
        # (pi(a, x, b) into several successors) included
        text = NONDETERMINISTIC.read_text(encoding="utf-8")
        used, fresh = (parse_scenario(text, strict_conflicts=strict) for _ in range(2))
        build_lts(used.model, Configuration(used.entry, used.initial_state))
        term = parse_term("pi(a, y, b) . pi(b, x, a) + pi(c, !y, a)", used.model)
        other = Configuration(term, used.initial_state)
        if replay == "step":
            assert len(set(transitions(used.model, other))) == 2
        else:
            events = parse_trace("pi(a, y, b)\npi(b, x, a)\n", used.model)
            assert isinstance(verify_trace(used.model, other, events), Accepted)

        lts, expected = (
            build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
            for scenario in (used, fresh)
        )
        assert lts.nodes == expected.nodes
        assert [str(event) for event in lts._events] == [str(event) for event in expected._events]
        assert lts._successors == expected._successors

        def moves(scenario, nodes):
            return [[(str(event), after) for event, after in transitions(scenario.model, node)] for node in nodes]

        assert moves(used, lts.nodes) == moves(fresh, expected.nodes)
        # the hand-made term's moves were derived before the ranks changed
        alike = Configuration(parse_term(str(term), fresh.model), fresh.initial_state)
        assert moves(used, [other]) == moves(fresh, [alike])
        # and the whole report, through a call that reuses the model
        path = str(NONDETERMINISTIC)
        mode = ["--strict-conflicts"] if strict else []
        report = run_cli(["explore", path, *mode])
        monkeypatch.setattr(cli, "parse_scenario", lambda text, strict_conflicts: used)
        transitions(used.model, Configuration(parse_term("pw(b, x, a)", used.model), used.initial_state))
        assert run_cli(["explore", path, *mode]) == report

    @pytest.mark.parametrize("strict", [False, True], ids=["dyadic", "strict"])
    def test_ranking_again_derives_no_move_again(self, strict, monkeypatch):
        # ranking writes each action's rank into the one list its moves
        # share: once a compile adds events, ranking again derives no move
        # anew, and the next build numbers its transitions as before
        scenario = parse_scenario(NONDETERMINISTIC.read_text(encoding="utf-8"), strict_conflicts=strict)
        initial = Configuration(scenario.entry, scenario.initial_state)
        first = build_lts(scenario.model, initial)
        term = parse_term("pi(a, y, b) . pi(b, x, a) + pi(c, !y, a)", scenario.model)
        transitions(scenario.model, Configuration(term, scenario.initial_state))
        derived = []
        moves = process_algebra._Engine._moves
        monkeypatch.setattr(process_algebra._Engine, "_moves", lambda *args: derived.append(args) or moves(*args))
        again = build_lts(scenario.model, initial)
        assert derived == []
        assert again._successors == first._successors

    @pytest.mark.parametrize(
        "text",
        [
            *CANONICAL_CASES,
            *(pytest.param(random_scenario_text(seed), id=f"random-{seed}") for seed in range(12)),
            pytest.param(TWO_WAYS_TO_ONE_TERM, id="two-ways"),
        ],
    )
    def test_nodes_are_distinct_configurations(self, text):
        # one node per (term, state): the terms built from the nodes'
        # control points differ wherever their states agree
        scenario = parse_scenario(text)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state), node_limit=5000)
        assert len({(node.term, node.state) for node in lts.nodes}) == len(lts.nodes)

    @pytest.mark.parametrize("strict", [False, True], ids=["dyadic", "strict"])
    @pytest.mark.parametrize("text", CANONICAL_CASES)
    def test_every_edge_leads_to_the_node_itself(self, text, strict):
        # each configuration is one object: an edge's ends are the very
        # instances in ``nodes``
        scenario = parse_scenario(text, strict_conflicts=strict)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        canonical = {node: node for node in lts.nodes}
        assert len(canonical) == len(lts.nodes)
        for source, _, target in lts.edges:
            assert canonical[source] is source
            assert canonical[target] is target

    def test_a_hand_made_configuration_is_left_as_it_was_made(self, ride, ride_events):
        # the engine reads a configuration made by hand and keeps nothing of
        # it; a build makes its first node from the node it reads, as every
        # other, equal to the one passed in
        initial = Configuration(ride.entry, ride.initial_state)
        lts = build_lts(ride.model, initial)
        first_moves = [(lts._events[event], lts.nodes[target]) for event, target in lts._successors[0]]
        assert transitions(ride.model, initial) == first_moves and len(first_moves) == 2
        assert isinstance(verify_trace(ride.model, initial, ride_events), Accepted)
        assert check_invariants(ride.model, Lts([initial], [[]], [], 1)) == []
        with pytest.raises(LimitExceeded) as exc:
            build_lts(ride.model, initial, node_limit=2)
        for first in (lts.nodes[0], exc.value.partial.nodes[0]):
            assert first == initial and hash(first) == hash(initial) and first is not initial
        assert initial.term is ride.entry and initial.state is ride.initial_state


def _count_configurations(monkeypatch) -> list:
    """The nodes made configurations from now on: the engine makes one
    through ``_configuration`` only."""
    made = []

    def counting(point, bits):
        made.append((point, bits))
        return configuration(point, bits)

    configuration = process_algebra._configuration
    monkeypatch.setattr(process_algebra, "_configuration", counting)
    monkeypatch.setattr(explorer, "_configuration", counting)
    return made


def _benchmark_offers(seed: int, n: int) -> str:
    """The ``offers`` scenario text that the benchmark explores."""
    spec = importlib.util.spec_from_file_location("bench_scenarios", ROOT / "bench" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.offers(seed, n)


class TestConfigurationsMadeWhenRead:
    def test_the_benchmark_explore_makes_no_configuration(self, monkeypatch):
        # what the benchmark's explore reads, on its offers(1, 4): counts,
        # the capped trace walk, invariants and deadlocks, none of them a
        # configuration
        scenario = parse_scenario(_benchmark_offers(1, 4))
        initial = Configuration(scenario.entry, scenario.initial_state)
        made = _count_configurations(monkeypatch)
        lts = build_lts(scenario.model, initial)
        assert (len(lts.nodes), len(lts.edges)) == (2_160, 8_640)
        with pytest.raises(LimitExceeded):
            maximal_traces(lts, max_traces=10_000)
        assert check_invariants(scenario.model, lts) == []
        assert find_deadlocks(lts) == []
        assert made == [] and lts._made == {}

    @pytest.mark.parametrize("strict", [False, True], ids=["dyadic", "strict"])
    @pytest.mark.parametrize(
        "path",
        [
            *(f"src/promisekit/corpus/{name}" for name in ("jub.promise", "isp.promise", "laws.promise")),
            *(str(path.relative_to(ROOT)) for path in sorted((ROOT / "tests" / "golden").glob("*.promise"))),
        ],
    )
    def test_explore_makes_one_configuration_per_reported_node(self, path, strict, monkeypatch):
        # a node that is both a deadlock and a violation is made once; a
        # scenario past the trace cap reports, and makes, none
        scenario = parse_scenario((ROOT / path).read_text(encoding="utf-8"), strict_conflicts=strict)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        try:
            maximal_traces(lts)
        except LimitExceeded:
            reported = set()
        else:
            reported = {id(node) for node in find_deadlocks(lts)}
            reported |= {id(violation.config) for violation in check_invariants(scenario.model, lts)}
        made = _count_configurations(monkeypatch)
        run_cli(["explore", str(ROOT / path), *(["--strict-conflicts"] if strict else [])])
        assert len(made) == len(reported)
        assert len(set(made)) == len(made)

    @pytest.mark.parametrize("term", ["ride", "withdrawal"])
    def test_only_the_nodes_that_clash_are_made(self, ride, term, monkeypatch):
        # an initial state that breaches exclusiveness: the ride keeps both
        # promises in every node, a withdrawal of one leaves a clean node
        model = ride.model
        clash = {model.promise("ma", "~tbc2JUB", "ja"), model.promise("ma", "~tbc2JUB", "ju")}
        withdrawal = Act(WithdrawEvent(model.agent("ma"), model.body("~tbc2JUB"), model.agent("ju")))
        lts = build_lts(model, Configuration(ride.entry if term == "ride" else withdrawal, State(frozenset(clash))))
        made = _count_configurations(monkeypatch)
        violations = check_invariants(model, lts)
        assert violations and all(violation.kind == "exclusiveness" for violation in violations)
        clashing = {id(violation.config) for violation in violations}
        assert len(made) == len(clashing) == (len(lts.nodes) if term == "ride" else 1)
        assert len(lts.nodes) > 1

    def test_views_index_iterate_and_compare_as_tuples(self, ride, ride_lts):
        again = build_lts(ride.model, Configuration(ride.entry, ride.initial_state))
        nodes, edges = again.nodes, again.edges
        assert again._made == {}  # nothing made by the build or by its lengths
        assert nodes[-1] is nodes[len(nodes) - 1] and nodes[-len(nodes)] is nodes[0]
        assert edges[-1] == edges[len(edges) - 1] and edges[-1][2] is edges[len(edges) - 1][2]
        for index in (len(nodes), -len(nodes) - 1):
            with pytest.raises(IndexError):
                nodes[index]
        assert nodes[1:4] == (nodes[1], nodes[2], nodes[3]) and nodes[::-1][0] is nodes[-1]
        # iteration is breadth-first id order, and edges go source by source
        assert list(nodes) == [nodes[node] for node in range(len(nodes))]
        assert list(edges) == [
            (nodes[source], again._events[event], nodes[target])
            for source, moves in enumerate(again._successors)
            for event, target in moves
        ]
        assert nodes == ride_lts.nodes and edges == ride_lts.edges
        assert nodes == tuple(ride_lts.nodes) and tuple(edges) == ride_lts.edges
        assert nodes != edges and nodes != ride_lts.nodes[1:] and nodes != list(nodes)
        assert len(again._made) == len(nodes)

    def test_a_partial_system_reaches_its_ends(self, ride):
        with pytest.raises(LimitExceeded) as exc:
            build_lts(ride.model, Configuration(ride.entry, ride.initial_state), node_limit=5)
        partial = exc.value.partial
        assert len(partial.nodes) == 5 < len(partial._keys)
        assert list(partial.nodes) == [partial._config(node) for node in range(5)]
        ends = {id(partial._config(node)) for node in range(5, len(partial._keys))}
        # every end is an edge's target, and has no edge of its own
        assert {id(target) for _, _, target in partial.edges} >= ends
        assert not ends & {id(source) for source, _, _ in partial.edges}
        assert len(partial.edges) == sum(map(len, partial._successors[:5]))


class TestStateVectors:
    """A node of a search is its state vector, (shape, leaves, bits): a
    build or a walk keeps no control point for it."""

    def test_a_build_interns_no_point_per_node(self):
        # on a fresh model, the build adds no interleaving point beyond those
        # that compiling the entry and deriving every point's moves make
        scenario = parse_scenario(_benchmark_offers(1, 4))
        model, initial = scenario.model, Configuration(scenario.entry, scenario.initial_state)
        process_algebra._locate(model, initial)
        engine, count = model._engine, 0
        while count != len(engine.points):  # deriving may make points with moves to derive
            count = len(engine.points)
            for point in [point for point in engine.points.values() if point.op is not Par]:
                engine.derive(model, point)
        interleavings = [point for point in engine.points.values() if point.op is Par]
        lts = build_lts(model, initial)
        assert (len(lts.nodes), len(lts.edges)) == (2_160, 8_640)
        assert [point for point in engine.points.values() if point.op is Par] == interleavings

    def test_a_walk_through_ties_keeps_nothing(self):
        # 30 copies of one action tie at every step: each tied successor is
        # rendered from its vector to order the moves, and none is kept
        text = "agent a b\ntype t\ntask g : t\nrun " + " || ".join(["pi(a, g, b)"] * 30) + "\n"
        scenario = parse_scenario(text)
        model, initial = scenario.model, Configuration(scenario.entry, scenario.initial_state)
        process_algebra._locate(model, initial)
        count = len(model._engine.points)
        events, _ = explorer.random_walk(model, initial, random.Random(0))
        assert len(events) == 30
        assert len(model._engine.points) == count


class TestModelBodies:
    def test_a_model_takes_its_relations_forms_and_makes_only_the_missing(self, ride_model):
        # ``create``'s relation holds every form of every atom; a model made
        # by hand or replaced still names every form of each of its atoms,
        # and no atom that it does not hold
        partners = {id(body) for body in ride_model.incompatibility.partners}
        assert all(id(ride_model.body(text)) in partners for text in ("tbc2JUB", "~tbc2JUB", "!tbc2JUB", "!~tbc2JUB"))
        lift = ride_model.body("tbc2JUB").atom
        extra = TaskAtom("extra", lift.type)
        grown = replace(ride_model, atoms=ride_model.atoms + (extra,))
        assert all(body.atom != extra for body in grown.incompatibility.partners)
        assert [grown.body(text) for text in ("extra", "~extra", "!extra", "!~extra")] == [
            TaskBody(extra, False, False), TaskBody(extra, True, False), TaskBody(extra, False, True), TaskBody(extra, True, True)
        ]
        assert grown.body("~tbc2JUB") is ride_model.body("~tbc2JUB")
        empty = IncompatibilityRelation(frozenset(), frozenset())
        made = replace(ride_model, incompatibility=empty, atoms=(lift, GAMMA_ATOM))
        assert made.body("!~tbc2JUB") == TaskBody(lift, True, True) and made.body("~gamma") == TaskBody(GAMMA_ATOM, True)
        with pytest.raises(UnknownAtom):
            replace(ride_model, atoms=(GAMMA_ATOM,)).body("tbc2JUB")


def _sequence(shape: str, length: int) -> str:
    """A scenario that runs one sequence of about ``2 * length`` events:
    ``flat`` as parsed, ``pairs`` of parenthesized sequences, ``shared``
    uses of one definition, or nested to the ``right``."""
    goods = range(1 if shape == "shared" else length)
    pairs = [f"pi(s, g{i}, m) . pw(s, g{i}, m)" for i in range(length)]
    run = {
        "flat": " . ".join(pairs),
        "pairs": " . ".join(f"({pair})" for pair in pairs),
        "shared": " . ".join(["q"] * length),
        "right": " . (".join(pairs) + ")" * (length - 1),
    }[shape]
    head = "agent s m\ntype t\n" + "".join(f"task g{i} : t\n" for i in goods)
    return head + "def q = pi(s, g0, m) . pw(s, g0, m)\nrun " + run + "\n"


class TestLinearSequences:
    """A step along a sequence moves one place down its operand list, so
    the engine's work grows with the sequence's length: counted here by
    the control points, list cells and terms a build makes, not by a
    clock."""

    @pytest.mark.parametrize("shape", ["flat", "pairs", "shared", "right"])
    def test_what_a_build_makes_grows_linearly(self, shape, monkeypatch):
        made = []
        for cls in (_Point, _Cell, Seq, Par):
            def counting(self, *args, _init=cls.__init__):
                made.append(self)
                _init(self, *args)

            monkeypatch.setattr(cls, "__init__", counting)
        counts = []
        for length in (50, 100):
            scenario = parse_scenario(_sequence(shape, length))
            made.clear()
            lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
            assert (len(lts.nodes), len(lts.edges)) == (2 * length + 1, 2 * length)
            counts.append(len(made))
        # a step that rebuilt the rest of the sequence would make four times as many
        assert counts[1] <= 2 * counts[0] + 10

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("refusals", [False, True])
    def test_numbering_in_an_explore_grows_linearly(self, strict, refusals, tmp_path, monkeypatch):
        # enabledness and the invariant AND bit masks, and a promise's mask
        # is filled once, at its first sight, from the bits of its holders,
        # with no ``clash`` call: the numbers asked for, the promises
        # numbered and the mask bits set grow with the length, where a scan
        # of the held promises would grow quadratically. With ``refusals``
        # each use is followed by a refusal that its use blocks, so that
        # every good numbers a clashing pair.
        calls, tables = [], {}

        def counting(table, *args, _number_of=promise_state._Table.number_of):
            calls.append(args)
            tables[id(table)] = table
            return _number_of(table, *args)

        monkeypatch.setattr(promise_state._Table, "number_of", counting)
        monkeypatch.setattr(promise_state, "clash", None)
        counts = []
        for goods in (25, 50, 100):
            text, events = long_negotiation(goods)
            if refusals:
                text = re.sub(r"pi\(m, ~(\w+), s\)", r"pi(m, ~\1, s) . (pi(m, !~\1, s) + ok)", text)
            path = tmp_path / f"negotiation{goods}.promise"
            path.write_text(text, encoding="utf-8")
            calls.clear()
            tables.clear()
            code, out, _ = run_cli(["explore", str(path), *(["--strict-conflicts"] * strict)])
            assert code == 0 and out.splitlines()[:3] == [f"nodes: {len(events) + 1}", f"edges: {len(events)}", "traces: 1"]
            [table] = tables.values()
            bits = sum(bin(mask).count("1") for mask in table.masks)
            assert len(table.promises) == goods * (2 + refusals)
            assert (table.risky != 0) is refusals and bits == 2 * goods * refusals
            counts.append(len(calls) + len(table.promises) + bits)
        assert counts[1] <= 2 * counts[0] + 10 and counts[2] <= 2 * counts[1] + 10

    @pytest.mark.parametrize("strict", [False, True])
    def test_a_walk_of_32_offers_asks_no_clash(self, strict, tmp_path, monkeypatch):
        # the customer's 32 exclusive acceptances clash pairwise: ``run`` and
        # ``verify-trace`` of its walk read every clash from masks filled from
        # the holders' bits, each equal to the oracle's pairwise mask
        clashes, tables = [], {}

        def counting(table, model, *args, _number_of=promise_state._Table.number_of):
            tables[id(table)] = table, model
            return _number_of(table, model, *args)

        monkeypatch.setattr(promise_state._Table, "number_of", counting)
        monkeypatch.setattr(promise_state, "clash", lambda *args: clashes.append(args))
        path, walk = tmp_path / "offers32.promise", tmp_path / "walk.txt"
        path.write_text(offers(32), encoding="utf-8")
        mode = ["--strict-conflicts"] * strict
        code, out, _ = run_cli(["run", str(path), "--seed", "7", *mode])
        assert code == 0 and out.splitlines()[-2].startswith("outcome: ")
        walk.write_text("".join(out.splitlines(keepends=True)[:-2]), encoding="utf-8")
        code, out, _ = run_cli(["verify-trace", str(path), "--trace", str(walk), *mode])
        assert code == 0 and out.splitlines()[0] == "accepted" and "maximal: yes" in out.splitlines()
        assert clashes == [] and len(tables) == 2
        for table, model in tables.values():
            assert max(bin(mask).count("1") for mask in table.masks) > 31
            assert table.masks == clash_masks(model, table.promises)

    def test_a_long_build_and_invariant_check_hash_no_promise(self, monkeypatch):
        # states are ints of bits and promises are found by their agents'
        # names: nothing on the way hashes a Promise, an Agent or a State
        text, _ = long_negotiation(500)
        scenario = parse_scenario(text)
        hashed = []
        for cls in (Promise, Agent, State):
            def counting(self, _hash=cls.__hash__):
                hashed.append(self)
                return _hash(self)

            monkeypatch.setattr(cls, "__hash__", counting)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        assert check_invariants(scenario.model, lts) == []
        assert (len(lts.nodes), len(lts.edges)) == (2_001, 2_000)
        assert hashed == []


def _count_successor_reads(lts: Lts) -> list[int]:
    """The nodes whose moves a walk of ``lts`` reads, in order, from now on."""
    calls = []

    class Counting(list):  # the walk reads a node's moves through this
        def __getitem__(self, node):
            calls.append(node)
            return list.__getitem__(self, node)

    lts._successors = Counting(lts._successors)
    return calls


def _first_traces_expanding_every_prefix(lts: Lts, count: int) -> list[Trace]:
    """The first ``count`` traces in report order, found by expanding every
    event prefix with the nodes it reaches from scratch."""
    traces: list[Trace] = []
    stack = [((), {0})]
    while stack and len(traces) < count:
        prefix, nodes = stack.pop()
        targets, ends = explorer._after(nodes, lts._successors.__getitem__, lambda node: final_outcome(lts._config(node)))
        traces += [Trace(prefix, end) for end in sorted(ends, key=str)]
        stack += [(prefix + (lts._events[event],), targets[event]) for event in sorted(targets, reverse=True)]
    return traces[:count]


def _reached(lts: Lts, events: tuple) -> set[int]:
    """The nodes that the event sequence leads to from the initial node."""
    nodes = {0}
    for event in events:
        number = lts._events.index(event)
        nodes = {target for node in nodes for moved, target in lts._successors[node] if moved == number}
    return nodes


def _chain(nodes: list[Configuration], events: list) -> Lts:
    """The system of one path through ``nodes``, whose edges ``events``
    label in order; ``Lts`` numbers events in rendered order."""
    ordered = sorted(events, key=str)
    ids = {event: number for number, event in enumerate(ordered)}
    successors = [[(ids[event], place + 1)] for place, event in enumerate(events)] + [[]]
    return Lts(nodes, successors, ordered, len(nodes))


class TestMaximalTraces:
    def test_golden_count_and_outcomes(self, ride_traces):
        assert len(ride_traces) == RIDE_TRACES
        assert all(t.outcome is Outcome.SUCCESSFUL for t in ride_traces)
        assert max(len(t.events) for t in ride_traces) == RIDE_DIAMETER

    def test_bundled_negotiation_is_among_traces(self, ride_traces, ride_events):
        assert any(t.events == ride_events for t in ride_traces)

    def test_agrees_with_recursive_enumerator(self, ride, ride_traces):
        assert explorer_trace_set(ride_traces) == oracle_traces(
            ride.model, ride.entry, ride.initial_state
        )

    def test_generated_scenarios_agree_with_enumerator(self):
        # random scenarios reach delegated events, quantified guards and
        # non-empty initial states that the fixed sweep alphabet does not
        for seed in range(12):
            scenario = parse_scenario(random_scenario_text(seed))
            initial = Configuration(scenario.entry, scenario.initial_state)
            lts = build_lts(scenario.model, initial, node_limit=5000)
            traces = maximal_traces(lts, max_traces=50000)
            assert explorer_trace_set(traces) == oracle_traces(
                scenario.model, scenario.entry, scenario.initial_state
            )

    def test_sorted_deterministically(self, ride_traces):
        keys = [tuple(str(e) for e in t.events) for t in ride_traces]
        assert keys == sorted(keys)

    def test_trace_limit(self, ride_lts):
        with pytest.raises(LimitExceeded):
            maximal_traces(ride_lts, max_traces=10)

    @pytest.mark.parametrize("text, strict", TRACE_ORDER_CASES)
    def test_report_order_and_the_first_traces_past_a_cap(self, text, strict):
        scenario = parse_scenario(text, strict_conflicts=strict)
        initial = Configuration(scenario.entry, scenario.initial_state)
        lts = build_lts(scenario.model, initial, node_limit=5000)
        full = maximal_traces(lts, max_traces=50000)
        keys = [(tuple(str(e) for e in t.events), str(t.outcome)) for t in full]
        assert keys == sorted(set(keys))
        for cap in (1, 10, 100):
            if len(full) > cap:
                with pytest.raises(LimitExceeded) as exc:
                    maximal_traces(lts, max_traces=cap)
                assert exc.value.partial == full[: cap + 1]

    def test_paths_with_equal_events_are_walked_once(self):
        # 16 choices between two branches that start with the same event:
        # 65,536 paths, one trace
        block = "(pi(a, x, b) . ok + pi(a, x, b))"
        scenario = parse_scenario("agent a b\ntype t\ntask x : t\nrun " + " . ".join([block] * 16))
        initial = Configuration(scenario.entry, scenario.initial_state)
        lts = build_lts(scenario.model, initial)
        assert (len(lts.nodes), len(lts.edges)) == (33, 62)
        calls = _count_successor_reads(lts)
        [trace] = maximal_traces(lts)
        assert len(calls) <= 33  # at most one per node; walking every path takes 131,071
        verdict = verify_trace(scenario.model, initial, trace.events)
        assert isinstance(verdict, Accepted)
        assert (verdict.maximal, verdict.outcome) == (True, Outcome.SUCCESSFUL)

    def test_capped_walk_expands_each_set_of_nodes_once(self):
        # 315,000 traces over 324 nodes: the prefixes before the cap reach
        # each node alone, and the walk expands each such set once
        scenario = parse_scenario(offers(3))
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        expected = _first_traces_expanding_every_prefix(lts, 10_001)
        calls = _count_successor_reads(lts)
        with pytest.raises(LimitExceeded) as exc:
            maximal_traces(lts, max_traces=10_000)
        assert len(calls) <= len(lts.nodes) == 324  # 27,073 when every prefix is expanded
        assert exc.value.partial == expected

    def test_a_set_reached_at_two_depths_is_replayed_under_each(self, monkeypatch):
        # the set after pi(a, y, b) is listed under the three events
        # pi(a, x, b), pw(a, x, b), pi(a, y, b), then replayed under that
        # one event alone
        scenario = parse_scenario(
            "agent a b\ntype t\ntask x : t\ntask y : t\n"
            "run (pi(a, x, b) . pw(a, x, b) + ok) . (pi(a, y, b) . pw(a, y, b) + pi(a, x, b))\n"
        )
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        model = scenario.model
        x, y = model.body("x"), model.body("y")
        a, b = model.agent("a"), model.agent("b")
        shallow = (IntroduceEvent(a, y, b),)
        deep = (IntroduceEvent(a, x, b), WithdrawEvent(a, x, b), IntroduceEvent(a, y, b))
        assert _reached(lts, shallow) == _reached(lts, deep)
        expanded = []
        after = explorer._after
        monkeypatch.setattr(
            explorer, "_after", lambda nodes, *rest: expanded.append(nodes) or after(nodes, *rest)
        )
        traces = maximal_traces(lts)
        assert len(expanded) == len(set(expanded))
        assert traces == _first_traces_expanding_every_prefix(lts, len(traces) + 1)
        assert explorer_trace_set(traces) == oracle_traces(model, scenario.entry, scenario.initial_state)
        # listed under the deep prefix first
        starts = [t.events[: len(deep)] for t in traces], [t.events[:1] for t in traces]
        assert starts[0].index(deep) < starts[1].index(shallow)

    @pytest.mark.parametrize(
        "text, strict",
        [
            pytest.param(offers(2), False, id="offers-2"),
            pytest.param(NONDETERMINISTIC.read_text(encoding="utf-8"), False, id="nondeterministic-dyadic"),
            pytest.param(NONDETERMINISTIC.read_text(encoding="utf-8"), True, id="nondeterministic-strict"),
        ],
    )
    def test_every_cap_stops_at_the_first_trace_past_it(self, text, strict):
        # most caps fall inside a replayed listing
        scenario = parse_scenario(text, strict_conflicts=strict)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        full = maximal_traces(lts)
        for cap in range(1, len(full)):
            with pytest.raises(LimitExceeded) as exc:
                maximal_traces(lts, max_traces=cap)
            assert exc.value.partial == full[: cap + 1]

    @settings(max_examples=40, deadline=None)
    @given(start=st.integers(0, 100_000), strict=st.booleans(), parts=st.integers(1, 3), data=st.data())
    def test_any_cap_lists_the_first_traces_of_the_full_walk(self, start, strict, parts, data):
        # most generated scenarios have one trace: take the first seed from
        # ``start`` on whose scenario has two or more within these limits. A
        # run of two or three interleaved parts branches, and reaches sets of
        # nodes that the walk replays: take one with more traces than parts,
        # where a replayed listing of two or more traces is common
        for seed in itertools.count(start):
            scenario = parse_scenario(random_scenario_text(seed, parts), strict_conflicts=strict)
            try:
                lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state), node_limit=5000)
                full = maximal_traces(lts, max_traces=50000)
            except LimitExceeded:
                continue
            if len(full) > parts:
                break
        cap = data.draw(st.integers(1, len(full) - 1), label="cap")
        with pytest.raises(LimitExceeded) as exc:
            maximal_traces(lts, max_traces=cap)
        assert str(exc.value) == f"trace limit of {cap} exceeded"
        assert exc.value.partial == full[: cap + 1]

    def test_a_capped_walk_makes_no_trace_until_partial_is_read(self, monkeypatch):
        # 315,000 traces: the walk only counts the first 10,001, and neither
        # the walk nor the exception keeps the Lts
        scenario = parse_scenario(offers(3))
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        alive = weakref.ref(lts)
        made = []  # every trace made: ``_listing`` makes them all, as tuples, with no call to Trace
        listing = explorer._listing

        def counted(pieces):
            traces = listing(pieces)
            made.extend(traces)
            return traces

        monkeypatch.setattr(explorer, "_listing", counted)
        try:
            maximal_traces(lts, max_traces=10_000)
        except LimitExceeded as exc:
            error = exc.with_traceback(None)  # a traceback holds the walk's frame, and so the Lts
        else:
            pytest.fail("no trace limit")
        del lts
        assert alive() is None  # freed by reference counting alone
        assert made == []
        partial = error.partial
        assert len(partial) == len(made) == 10_001
        assert error.partial is partial and len(made) == 10_001  # made once

    def test_enumeration_does_not_keep_the_lts_alive(self, ride):
        # freed by reference counting alone, without a garbage collection
        lts = build_lts(ride.model, Configuration(ride.entry, ride.initial_state))
        maximal_traces(lts)
        alive = weakref.ref(lts)
        del lts
        assert alive() is None

    def test_long_chain_is_walked_without_recursion(self):
        # one path of 5,000 edges, far beyond the interpreter's recursion limit
        length = 5_000
        promisee = Agent("m")
        events = [IntroduceEvent(Agent(f"n{i}"), GAMMA, promisee) for i in range(length)]
        nodes = [EMPTY_STATE] + [
            State(frozenset({Promise(event.promiser, GAMMA, promisee)})) for event in events
        ]
        nodes = [Configuration(DONE, state) for state in nodes]
        traces = maximal_traces(_chain(nodes, events))
        assert traces == [Trace(tuple(events), Outcome.SUCCESSFUL)]

    def test_longer_chain_is_walked_without_copying_prefixes(self):
        # 20,000 edges: a walk that copied the event prefix at every node
        # would make 200 million copies of events
        length = 20_000
        promisee = Agent("m")
        events = [IntroduceEvent(Agent(f"n{i}"), GAMMA, promisee) for i in range(length)]
        states = [EMPTY_STATE] + [
            State(frozenset({Promise(event.promiser, GAMMA, promisee)})) for event in events
        ]
        nodes = [Configuration(DONE, state) for state in states]
        tracemalloc.start()
        try:
            traces = maximal_traces(_chain(nodes, events))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traces == [Trace(tuple(events), Outcome.SUCCESSFUL)]
        assert peak < 100_000_000  # the copies would hold 1.6 GB of references

    def test_every_trace_replays(self, ride, ride_lts, ride_traces):
        initial = Configuration(ride.entry, ride.initial_state)
        for trace in ride_traces:
            verdict = verify_trace(ride.model, initial, trace.events)
            assert isinstance(verdict, Accepted)
            assert verdict.maximal
            assert verdict.outcome is trace.outcome


def _listed(lts: Lts, cap: int, labels=None) -> tuple[list[Trace], str | None]:
    """``maximal_traces`` under ``cap``: every trace and no message, or the
    first ``cap + 1`` and the limit's message."""
    try:
        return maximal_traces(lts, max_traces=cap, labels=labels), None
    except LimitExceeded as exc:
        return exc.partial, str(exc)


class TestLabels:
    @pytest.mark.parametrize("strict", [False, True], ids=["dyadic", "strict"])
    @pytest.mark.parametrize(
        "text",
        [
            *CANONICAL_CASES,
            *(pytest.param(f"agent a b\ntype t\ntask x : t\nrun {term}\n", id=term) for term in ("delta", "ok")),
            *(pytest.param(random_scenario_text(seed, 1 + seed % 3), id=f"generated-{seed}") for seed in range(200)),
        ],
    )
    def test_a_labelled_listing_is_the_listing_of_the_events(self, text, strict):
        # each event id's label in place of its event: the same traces in
        # the same order with the same outcomes, and at a cap that binds the
        # same message and partial
        scenario = parse_scenario(text, strict_conflicts=strict)
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state), node_limit=5000)
        labels = [f"{rank}: {event}" for rank, event in enumerate(lts._events)]  # distinct, and no event
        label = dict(zip(lts._events, labels))
        traces, _ = _listed(lts, 20_000)
        for cap in {20_000, max(1, len(traces) // 2)}:
            plain, message = _listed(lts, cap)
            expected = [Trace(tuple(map(label.__getitem__, trace.events)), trace.outcome) for trace in plain]
            assert _listed(lts, cap, labels) == (expected, message)


class TestAlgebraicTraceEquivalences:
    def events(self, model):
        ja, ju, ma = model.agent("ja"), model.agent("ju"), model.agent("ma")
        x = model.body("tbc2JUB")
        return (
            Act(IntroduceEvent(ja, x, ma)),
            Act(IntroduceEvent(ju, x, ma)),
            Act(IntroduceEvent(ma, model.body("~tbc2JUB"), ja)),
        )

    def trace_set(self, model, term):
        lts = build_lts(model, Configuration(term, EMPTY_STATE))
        return explorer_trace_set(maximal_traces(lts))

    def test_alt_commutes(self, ride_model):
        p, q, _ = self.events(ride_model)
        assert self.trace_set(ride_model, Alt(p, q)) == self.trace_set(ride_model, Alt(q, p))

    def test_alt_associates(self, ride_model):
        p, q, r = self.events(ride_model)
        assert self.trace_set(ride_model, Alt(Alt(p, q), r)) == self.trace_set(
            ride_model, Alt(p, Alt(q, r))
        )

    def test_par_commutes(self, ride_model):
        p, q, _ = self.events(ride_model)
        assert self.trace_set(ride_model, Par(p, q)) == self.trace_set(ride_model, Par(q, p))

    def test_seq_associates(self, ride_model):
        p, q, r = self.events(ride_model)
        assert self.trace_set(ride_model, Seq(Seq(p, q), r)) == self.trace_set(
            ride_model, Seq(p, Seq(q, r))
        )

    def test_guarded_branch_selection(self, ride_model):
        # a dead guard leaves only the live alternative
        p, q, _ = self.events(ride_model)
        assert self.trace_set(ride_model, Alt(Guard(FALSE, p), q)) == self.trace_set(
            ride_model, q
        )


class TestVerifyTrace:
    def test_bundled_negotiation(self, ride, ride_events):
        verdict = verify_trace(
            ride.model, Configuration(ride.entry, ride.initial_state), ride_events
        )
        assert isinstance(verdict, Accepted)
        assert verdict.maximal
        assert verdict.outcome is Outcome.SUCCESSFUL
        assert str(verdict.final_state) == "{ja:tbc2JUB->ma, ma:~tbc2JUB->ja}"

    def test_empty_trace_is_a_prefix(self, ride):
        verdict = verify_trace(ride.model, Configuration(ride.entry, ride.initial_state), ())
        assert isinstance(verdict, Accepted)
        assert not verdict.maximal
        assert verdict.outcome is None

    def test_parallel_withdrawals_commute(self, ride, ride_events):
        swapped = ride_events[:4] + (ride_events[5], ride_events[4])
        verdict = verify_trace(ride.model, Configuration(ride.entry, ride.initial_state), swapped)
        assert isinstance(verdict, Accepted)
        assert verdict.maximal

    def test_rejects_withdrawal_on_empty_state(self, ride, ride_events):
        ja, ma = ride.model.agent("ja"), ride.model.agent("ma")
        broken = (WithdrawEvent(ja, ride.model.body("tbc2JUB"), ma),) + ride_events[1:]
        verdict = verify_trace(ride.model, Configuration(ride.entry, ride.initial_state), broken)
        assert isinstance(verdict, Rejected)
        assert verdict.index == 0
        assert {str(e) for e in verdict.available} == {
            "pi(ja, tbc2JUB, ma)",
            "pi(ju, tbc2JUB, ma)",
        }

    def test_strict_mode_rejects_the_decline(self, ride, ride_events):
        strict = replace(ride.model, strict_conflicts=True)
        verdict = verify_trace(strict, Configuration(ride.entry, ride.initial_state), ride_events)
        assert isinstance(verdict, Rejected)
        assert verdict.index == 3

    def test_delegated_negotiation_verifies(self):
        scenario = parse_scenario(corpus_text("laws.promise"))
        events = parse_trace(
            "pi(intern, gamma, boss)\npi(boss[intern], train, client[client])\n",
            scenario.model,
        )
        verdict = verify_trace(
            scenario.model,
            Configuration(scenario.entry, scenario.initial_state),
            tuple(events),
        )
        assert isinstance(verdict, Accepted)
        assert verdict.maximal
        assert verdict.outcome is Outcome.SUCCESSFUL
        assert str(verdict.final_state) == "{intern:gamma->boss, intern:train->client}"


class TestInvariantsAndDeadlocks:
    def test_ride_scenario_is_clean(self, ride, ride_lts):
        assert check_invariants(ride.model, ride_lts) == []
        assert find_deadlocks(ride_lts) == []

    def test_handmade_exclusiveness_breach_is_reported(self, ride_model):
        bad = Configuration(
            DONE,
            State(
                frozenset(
                    {
                        ride_model.promise("ma", "~tbc2JUB", "ja"),
                        ride_model.promise("ma", "~tbc2JUB", "ju"),
                    }
                )
            ),
        )
        lts = build_lts(ride_model, bad)  # one node: ``ok`` has no transitions
        violations = check_invariants(ride_model, lts)
        assert len(violations) == 1
        assert violations[0].kind == "exclusiveness"

    def test_handmade_conflict_is_reported(self, ride_model):
        bad = Configuration(
            DONE,
            State(
                frozenset(
                    {
                        ride_model.promise("ma", "~tbc2JUB", "ja"),
                        ride_model.promise("ma", "!~tbc2JUB", "ja"),
                    }
                )
            ),
        )
        lts = build_lts(ride_model, bad)  # one node: ``ok`` has no transitions
        violations = check_invariants(ride_model, lts)
        assert len(violations) == 1
        assert violations[0].kind == "conflict"

    def test_strict_mode_flags_a_cross_promisee_conflict(self, ride_model):
        bad = Configuration(
            DONE,
            State(
                frozenset(
                    {
                        ride_model.promise("ma", "~tbc2JUB", "ja"),
                        ride_model.promise("ma", "!~tbc2JUB", "ju"),
                    }
                )
            ),
        )
        lts = build_lts(ride_model, bad)  # one node: ``ok`` has no transitions
        assert check_invariants(ride_model, lts) == []
        violations = check_invariants(replace(ride_model, strict_conflicts=True), lts)
        assert [v.kind for v in violations] == ["conflict"]

    def test_failed_guard_deadlocks(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        initial = Configuration(Guard(FALSE, Act(event)), EMPTY_STATE)
        lts = build_lts(ride_model, initial)
        assert find_deadlocks(lts) == [initial]

    def test_unwithdrawable_promise_deadlocks(self, ride_model):
        event = WithdrawEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        initial = Configuration(Act(event), EMPTY_STATE)
        lts = build_lts(ride_model, initial)
        assert find_deadlocks(lts) == [initial]

    def test_strict_mode_introduces_deadlocks(self, ride):
        strict = replace(ride.model, strict_conflicts=True)
        lts = build_lts(strict, Configuration(ride.entry, ride.initial_state))
        assert check_invariants(strict, lts) == []
        assert len(find_deadlocks(lts)) > 0

    def test_exclusive_usage_never_promised_twice(self, ride, ride_lts):
        # no reachable state has ma promising the exclusive lift to two agents
        ma = ride.model.agent("ma")
        use = ride.model.body("~tbc2JUB")
        for node in ride_lts.nodes:
            promisees = {p.promisee for p in node.state if p.promiser == ma and p.body == use}
            assert len(promisees) <= 1
