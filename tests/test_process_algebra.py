"""Guards, the step semantics, termination, and the negotiation protocol."""

from __future__ import annotations

import pickle
import random
from dataclasses import replace
from functools import partial, reduce

import pytest
from hypothesis import given, settings, strategies as st

from promisekit import process_algebra
from promisekit.dsl import parse_scenario, parse_term
from promisekit.process_algebra import (
    Act,
    AgentVar,
    Alt,
    And,
    Configuration,
    DEADLOCK,
    DONE,
    FALSE,
    ForAllAgents,
    GeneralizedIntroduceEvent,
    Guard,
    HasPromise,
    Implies,
    IntroduceEvent,
    InvalidBody,
    IsExclusive,
    Not,
    Or,
    Par,
    Seq,
    TRUE,
    UnboundVariable,
    WithdrawEvent,
    _join,
    can_terminate,
    eval_condition,
    event_promise,
    make_protocol,
)
from promisekit.explorer import build_lts, maximal_traces, transitions
from promisekit.promise_state import EMPTY_STATE, Promise, PromiseModel, State, introduce
from promisekit.task_algebra import GAMMA, all_bodies

from scenario_gen import _random_condition, _random_term
from sos_oracle import _eval, _finished, _moves, explorer_trace_set, oracle_traces


def accept_guard(model, initiator):
    """E(~x) => forall c != initiator : not p(ma, ~x, c), over the ride model."""
    use = model.body("~tbc2JUB")
    return Implies(
        IsExclusive(use),
        ForAllAgents("c", model.agent(initiator), Not(HasPromise(model.agent("ma"), use, AgentVar("c")))),
    )


class TestConditions:
    def test_guard_fails_once_usage_promised_elsewhere(self, ride_model):
        state = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        assert eval_condition(ride_model, accept_guard(ride_model, "ju"), state) is False

    def test_guard_holds_on_empty_state(self, ride_model):
        assert eval_condition(ride_model, accept_guard(ride_model, "ju"), EMPTY_STATE) is True

    def test_constants(self, ride_model):
        assert eval_condition(ride_model, TRUE, EMPTY_STATE)
        assert not eval_condition(ride_model, FALSE, EMPTY_STATE)

    def test_exclusion_respects_own_promisee(self, ride_model):
        # the accepted party's own promise does not fail its guard
        state = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        assert eval_condition(ride_model, accept_guard(ride_model, "ja"), state) is True

    def test_unbound_variable(self, ride_model):
        loose = HasPromise(AgentVar("nobody"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        with pytest.raises(UnboundVariable):
            eval_condition(ride_model, loose, EMPTY_STATE)

    def test_unbound_variable_where_the_value_is_never_needed(self, ride_model):
        # a condition is compiled whole before it is evaluated, so a free
        # variable raises even behind an operand that decides the value
        loose = HasPromise(AgentVar("v"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        act = Act(IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma")))
        for cond in (And(FALSE, loose), Or(TRUE, loose), Implies(FALSE, loose)):
            with pytest.raises(UnboundVariable):
                eval_condition(ride_model, cond, EMPTY_STATE)
            with pytest.raises(UnboundVariable):
                transitions(replace(ride_model), Configuration(Guard(cond, act), EMPTY_STATE))

    def test_quantifier_scoping_shadows(self, ride_model):
        # the bound variable ranges over all agents but the excluded one
        cond = ForAllAgents(
            "c",
            ride_model.agent("ja"),
            Not(HasPromise(AgentVar("c"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))),
        )
        state = introduce(ride_model, EMPTY_STATE, ride_model.promise("ja", "tbc2JUB", "ma"))
        assert eval_condition(ride_model, cond, state) is True
        state = introduce(ride_model, state, ride_model.promise("ju", "tbc2JUB", "ma"))
        assert eval_condition(ride_model, cond, state) is False


class TestStep:
    def test_single_introduction(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        found = set(transitions(ride_model, Configuration(Act(event), EMPTY_STATE)))
        assert found == {
            (event, Configuration(DONE, State(frozenset({event_promise(event)}))))
        }

    def test_failed_guard_contributes_nothing(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        assert set(transitions(ride_model, Configuration(Guard(FALSE, Act(event)), EMPTY_STATE))) == set()

    def test_true_guard_is_transparent(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        inner = Act(event)
        assert set(transitions(ride_model, Configuration(Guard(TRUE, inner), EMPTY_STATE))) == set(
            transitions(ride_model, Configuration(inner, EMPTY_STATE))
        )

    def test_false_guard_equals_deadlock(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        assert set(transitions(ride_model, Configuration(Guard(FALSE, Act(event)), EMPTY_STATE))) == set(
            transitions(ride_model, Configuration(DEADLOCK, EMPTY_STATE))
        )

    def test_parallel_offers_give_two_initial_transitions(self, ride):
        found = set(transitions(ride.model, Configuration(ride.entry, EMPTY_STATE)))
        assert len(found) == 2
        assert {str(event) for event, _ in found} == {
            "pi(ja, tbc2JUB, ma)",
            "pi(ju, tbc2JUB, ma)",
        }

    def test_withdrawal_of_absent_promise_is_disabled(self, ride_model):
        event = WithdrawEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        assert set(transitions(ride_model, Configuration(Act(event), EMPTY_STATE))) == set()

    def test_delegated_introduction_needs_compliance(self, ride_model):
        m = ride_model
        event = GeneralizedIntroduceEvent(
            m.agent("ja"), m.agent("ju"), m.body("tbc2JUB"), m.agent("ma"), m.agent("ma")
        )
        assert set(transitions(m, Configuration(Act(event), EMPTY_STATE))) == set()
        with_compliance = introduce(m, EMPTY_STATE, Promise(m.agent("ju"), GAMMA, m.agent("ja")))
        found = set(transitions(m, Configuration(Act(event), with_compliance)))
        assert len(found) == 1
        ((_, successor),) = found
        assert Promise(m.agent("ju"), m.body("tbc2JUB"), m.agent("ma")) in successor.state

    def test_guard_is_evaluated_at_fire_time(self, ride_model):
        # an interleaved state change must retract a previously true guard
        m = ride_model
        offer = IntroduceEvent(m.agent("ja"), m.body("tbc2JUB"), m.agent("ma"))
        guarded = Guard(
            Not(HasPromise(m.agent("ja"), m.body("tbc2JUB"), m.agent("ma"))),
            Act(IntroduceEvent(m.agent("ma"), m.body("~tbc2JUB"), m.agent("ja"))),
        )
        config = Configuration(Par(guarded, Act(offer)), EMPTY_STATE)
        first = set(transitions(m, config))
        assert len(first) == 2  # both branches live initially
        after_offer = next(succ for event, succ in first if event == offer)
        assert set(transitions(m, after_offer)) == set()  # guard now false: branch dead


class TestTermination:
    @pytest.mark.parametrize(
        "term,expected",
        [
            (DONE, True),
            (DEADLOCK, False),
            (Par(DONE, DONE), True),
            (Seq(DONE, DONE), True),
            (Alt(DONE, DEADLOCK), True),
            (Alt(DEADLOCK, DEADLOCK), False),
            (Seq(DONE, DEADLOCK), False),
            (Guard(TRUE, DONE), False),
        ],
    )
    def test_cases(self, term, expected):
        assert can_terminate(term) is expected
        assert Configuration(term, EMPTY_STATE).terminates is expected

    def test_action_cannot_terminate(self, ride_model):
        event = IntroduceEvent(ride_model.agent("ja"), ride_model.body("tbc2JUB"), ride_model.agent("ma"))
        assert not can_terminate(Act(event))


class TestProtocol:
    def test_head_is_the_offer(self, ride_model):
        m = ride_model
        term = make_protocol(m, m.agent("ja"), m.agent("ma"), m.body("tbc2JUB"))
        assert isinstance(term, Seq)
        assert term.left == Act(IntroduceEvent(m.agent("ja"), m.body("tbc2JUB"), m.agent("ma")))

    def test_accept_branch_guard(self, ride_model):
        m = ride_model
        term = make_protocol(m, m.agent("ja"), m.agent("ma"), m.body("tbc2JUB"))
        accept = term.right.left
        assert isinstance(accept, Guard)
        assert accept.condition == accept_guard(m, "ja")
        assert accept.body == Act(
            IntroduceEvent(m.agent("ma"), m.body("~tbc2JUB"), m.agent("ja"))
        )

    def test_decline_branch_withdraws_in_parallel(self, ride_model):
        m = ride_model
        term = make_protocol(m, m.agent("ja"), m.agent("ma"), m.body("tbc2JUB"))
        decline = term.right.right
        assert decline == Seq(
            Act(IntroduceEvent(m.agent("ma"), m.body("!~tbc2JUB"), m.agent("ja"))),
            Par(
                Act(WithdrawEvent(m.agent("ja"), m.body("tbc2JUB"), m.agent("ma"))),
                Act(WithdrawEvent(m.agent("ma"), m.body("!~tbc2JUB"), m.agent("ja"))),
            ),
        )

    @pytest.mark.parametrize("body", ["~tbc2JUB", "!tbc2JUB", "!~tbc2JUB"])
    def test_only_positive_services_allowed(self, ride_model, body):
        m = ride_model
        with pytest.raises(InvalidBody):
            make_protocol(m, m.agent("ja"), m.agent("ma"), m.body(body))


ORACLE_MODEL = PromiseModel.create(
    agents=("a", "b", "c"),
    types=("t",),
    atoms={"x": "t", "y": "t"},
    incompatible_pairs=[("x", "y")],
    exclusive=("~x", "y"),
)
AGENTS = st.sampled_from(ORACLE_MODEL.agents)
BODIES = st.sampled_from(all_bodies(ORACLE_MODEL.atoms))
EVENTS = st.one_of(
    st.builds(IntroduceEvent, AGENTS, BODIES, AGENTS),
    st.builds(WithdrawEvent, AGENTS, BODIES, AGENTS),
    st.builds(GeneralizedIntroduceEvent, AGENTS, AGENTS, BODIES, AGENTS, AGENTS),
)
CONDITIONS = st.one_of(
    st.just(TRUE),
    st.just(FALSE),
    st.builds(HasPromise, AGENTS, BODIES, AGENTS),
    st.builds(Not, st.builds(HasPromise, AGENTS, BODIES, AGENTS)),
)


def _composites(terms):
    return st.one_of(
        st.builds(Seq, terms, terms),
        st.builds(Alt, terms, terms),
        st.builds(Par, terms, terms),
        st.builds(Guard, CONDITIONS, terms),
    )


LEAVES = st.one_of(st.just(DONE), st.just(DEADLOCK), st.builds(Act, EVENTS))
SMALL_TERMS = st.recursive(LEAVES, _composites, max_leaves=3)
CHAINS = st.lists(st.one_of(LEAVES, SMALL_TERMS), min_size=2, max_size=40)
# long sequences nested to the left (as parsed) and to the right, with
# the other operators below and above them
DEEP_TERMS = st.recursive(
    st.one_of(
        CHAINS.map(lambda terms: reduce(Seq, terms)),
        CHAINS.map(lambda terms: reduce(lambda right, left: Seq(left, right), reversed(terms))),
    ),
    _composites,
    max_leaves=3,
)
# long chains of each binary operator nested to the left, as parsed
OPERATOR_CHAINS = st.recursive(
    st.tuples(st.sampled_from([Seq, Alt, Par]), CHAINS).map(lambda chain: reduce(*chain)),
    _composites,
    max_leaves=3,
)
PROMISES = st.builds(Promise, AGENTS, BODIES, AGENTS)
# terms that mostly can move: introductions are rarely blocked, so walks
# from them go several steps deep
INTRODUCTIONS = st.builds(Act, st.builds(IntroduceEvent, AGENTS, BODIES, AGENTS))
WALK_LEAVES = st.one_of(INTRODUCTIONS, INTRODUCTIONS, INTRODUCTIONS, LEAVES)


def _left(terms):
    """``terms`` interleaved, nested to the left, as parsed."""
    return reduce(Par, terms)


def _right(terms):
    """``terms`` interleaved, nested to the right."""
    return reduce(lambda right, left: Par(left, right), reversed(terms))


def _interleavings(terms, most=6):
    """Interleavings of 3 to ``most`` of ``terms``, nested either way."""
    chains = st.lists(terms, min_size=3, max_size=most)
    return st.one_of(chains.map(_left), chains.map(_right))


WALK_TERMS = st.recursive(
    st.one_of(
        WALK_LEAVES,
        st.lists(WALK_LEAVES, min_size=2, max_size=12).map(lambda terms: reduce(Seq, terms)),
        _interleavings(WALK_LEAVES),
    ),
    lambda terms: st.one_of(
        st.builds(Seq, terms, terms),
        st.builds(Alt, terms, terms),
        st.builds(Par, terms, terms),
        _interleavings(terms, most=4),
        st.builds(Guard, st.one_of(st.just(TRUE), st.builds(Not, st.builds(HasPromise, AGENTS, BODIES, AGENTS))), terms),
        st.builds(Guard, CONDITIONS, terms),
    ),
    max_leaves=6,
)
AGENTS_ALL = ORACLE_MODEL.agents
BODIES_ALL = all_bodies(ORACLE_MODEL.atoms)


class TestOracleAgreement:
    @settings(max_examples=150, deadline=None)
    @given(DEEP_TERMS, st.frozensets(PROMISES, max_size=6), st.booleans())
    def test_step_and_termination_match_the_oracle(self, term, held, strict):
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        moves = set(transitions(model, Configuration(term, State(held))))
        assert moves == {
            (event, Configuration(succ, State(after)))
            for event, succ, after in _moves(model, term, held)
        }
        assert can_terminate(term) is _finished(term)
        for _, succ in moves:
            assert can_terminate(succ.term) is _finished(succ.term)

    @settings(max_examples=60, deadline=None)
    @given(OPERATOR_CHAINS, st.frozensets(PROMISES, max_size=6), st.booleans())
    def test_step_matches_the_oracle_on_operator_chains(self, term, held, strict):
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        assert set(transitions(model, Configuration(term, State(held)))) == {
            (event, Configuration(succ, State(after)))
            for event, succ, after in _moves(model, term, held)
        }
        assert can_terminate(term) is _finished(term)

    @settings(max_examples=80, deadline=None)
    # a term in parallel with itself has every event twice, into
    # different successors, so the order must fall back on them
    @given(
        st.one_of(DEEP_TERMS, DEEP_TERMS.map(lambda term: Par(term, term))),
        st.frozensets(PROMISES, max_size=6),
        st.booleans(),
    )
    def test_transitions_follow_the_rendered_order(self, term, held, strict):
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        config = Configuration(term, State(held))

        def key(move):
            event, successor = move
            return str(event), str(successor.term), str(successor.state)

        moves = _oracle_step(model, config)
        found = transitions(model, config)
        assert set(found) == moves and len(found) == len(moves)
        assert [key(move) for move in found] == sorted(key(move) for move in moves)
        # again, with the events ranked and the moves derived
        assert transitions(model, config) == found


    @settings(max_examples=100, deadline=None)
    # shared subterms are one control point: in a choice their moves are
    # listed once, in an interleaving each side still moves on its own
    @given(
        st.one_of(
            WALK_TERMS,
            WALK_TERMS.map(lambda term: Par(term, term)),
            WALK_TERMS.map(lambda term: Alt(term, term)),
            WALK_TERMS.map(lambda term: Seq(Alt(term, term), Par(term, Seq(term, term)))),
        ),
        st.frozensets(PROMISES, max_size=3),
        st.booleans(),
    )
    def test_steps_match_the_oracle_along_every_walk(self, term, held, strict):
        # the engine keeps its compiled terms and their moves between
        # steps: compare every configuration up to four steps deep, in the
        # mode it was reached in and, through a second engine, in the other
        models = [replace(ORACLE_MODEL, strict_conflicts=mode) for mode in (strict, not strict)]
        level = [Configuration(term, State(held))]
        for _ in range(4):
            reached = []
            for config in level[:40]:
                for model in models:
                    moves = set(transitions(model, config))
                    assert moves == {
                        (event, Configuration(succ, State(after)))
                        for event, succ, after in _moves(model, config.term, config.state.promises)
                    }
                    assert config.terminates is _finished(config.term) is can_terminate(config.term)
                reached += [successor for _, successor in transitions(models[0], config)]
            level = reached


# the leaves of an interleaving, among them sequences that step into an
# interleaving, whose leaves then take their slot
SPLITTING = st.builds(lambda first, left, right: Seq(first, Par(left, right)), INTRODUCTIONS, WALK_LEAVES, WALK_LEAVES)
VECTOR_LEAVES = st.one_of(INTRODUCTIONS, INTRODUCTIONS, LEAVES, SPLITTING)
VECTORS = _interleavings(VECTOR_LEAVES)
# an interleaving at the top and under each other operator, small enough
# for the oracle to list every path
NESTED_VECTORS = st.one_of(
    VECTORS,
    st.builds(Seq, WALK_LEAVES, VECTORS),
    st.builds(Seq, VECTORS, WALK_LEAVES),
    st.builds(Alt, WALK_LEAVES, VECTORS),
    st.builds(Alt, VECTORS, WALK_LEAVES),
    st.builds(Guard, CONDITIONS, VECTORS),
).filter(lambda term: sum(map(str(term).count, ("pi(", "pw("))) <= 7)

VECTOR_MODEL = PromiseModel.create(
    agents=("a", "b", "c"),
    types=("t",),
    atoms={"x": "t", "y": "t", "z": "t"},
    incompatible_pairs=[("x", "y")],
    exclusive=("~x",),
)
# interleavings that a step reaches under each operator, and that reach
# further interleavings: chains of 3 to 6 leaves nested to the left, as
# parsed, or the right, and leaves that step into an interleaving
VECTOR_TEXTS = [
    "pi(a, x, b) . (pi(a, y, b) || pi(b, x, a) || pi(a, z, b))",
    "(pi(a, x, b) || pi(a, y, b) || pi(a, z, b)) . pi(b, x, a)",
    "pi(a, x, b) + (pi(a, y, b) || pi(b, y, a) || pi(a, z, b))",
    "[not p(a, x, b)] -> (pi(a, y, b) || pi(b, y, a) || pi(a, z, b)) . pw(a, y, b)",
    "pi(a, x, b) || pi(a, y, b) . (pw(a, y, b) || pi(b, z, a)) || pi(a, z, b)",
    "(pi(a, x, b) || pi(a, y, b)) || (pi(a, z, b) || pi(b, x, a) . (pi(c, x, a) || pi(c, y, a) || ok))",
    "pi(c, z, a) . (pi(a, x, b) . (pi(b, x, a) || pi(c, x, b)) || pi(a, z, b) + pi(b, z, a) || delta)",
    *(
        nest([f"pi({a}, {x}, {b})" for a, b, x in ("abx", "bay", "caz", "acy", "bcz", "cbx")[:count]])
        for count in (3, 4, 5, 6)
        for nest in (" || ".join, lambda texts: " || (".join(texts) + ")" * (len(texts) - 1))
    ),
]


def _oracle_step(model, config):
    """The oracle's transitions of a configuration, as a set of
    ``transitions`` gives them: its successor terms are built by the rules, so that a successor
    of another shape compares unequal."""
    return {
        (event, Configuration(successor, State(after)))
        for event, successor, after in _moves(model, config.term, config.state.promises)
    }


class TestInterleavings:
    """An interleaving is one control point for its whole ``||`` tree:
    stepping one leaf replaces its slot, and a leaf that steps into an
    interleaving is spliced in. The point is the same however the term
    was made, and the traces are the oracle's."""

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("text", VECTOR_TEXTS)
    def test_a_reached_configuration_equals_its_term_compiled(self, text, strict):
        model = replace(VECTOR_MODEL, strict_conflicts=strict)
        lts = build_lts(model, Configuration(parse_term(text, model), EMPTY_STATE))
        assert len(lts.nodes) > 3
        for reached in lts.nodes[1:]:
            for term in (reached.term, parse_term(str(reached.term), model)):
                made = Configuration(term, reached.state)
                found = set(transitions(model, made))
                assert found == set(transitions(model, reached)) == _oracle_step(model, reached)
                assert made == reached and hash(made) == hash(reached)

    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("text", VECTOR_TEXTS)
    def test_traces_match_the_oracle(self, text, strict):
        model = replace(VECTOR_MODEL, strict_conflicts=strict)
        term = parse_term(text, model)
        traces = maximal_traces(build_lts(model, Configuration(term, EMPTY_STATE)))
        assert explorer_trace_set(traces) == oracle_traces(model, term, EMPTY_STATE)

    @settings(max_examples=100, deadline=None)
    @given(NESTED_VECTORS, st.frozensets(PROMISES, max_size=3), st.booleans())
    def test_generated_interleavings_match_the_oracle(self, term, held, strict):
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        lts = build_lts(model, Configuration(term, State(held)))
        assert explorer_trace_set(maximal_traces(lts)) == oracle_traces(model, term, State(held))
        for reached in lts.nodes[1:]:
            made = Configuration(reached.term, reached.state)
            assert set(transitions(model, made)) == set(transitions(model, reached)) == _oracle_step(model, reached)
            assert made == reached and hash(made) == hash(reached)
            assert made.terminates is reached.terminates is _finished(reached.term)


NESTING = (Act, Seq, Alt, Par, Guard, Not, And, Or, Implies, ForAllAgents)


def _structure(node):
    """A term or condition as nested tuples of class names and field
    values: equality by structure, without the nodes' own ``__eq__``."""
    if isinstance(node, NESTING):
        return (type(node).__name__, *(_structure(getattr(node, name)) for name in type(node).__match_args__))
    return node


def _rebuild(node):
    """An equal copy that shares no composite part with ``node``."""
    if isinstance(node, NESTING):
        return type(node)(*(_rebuild(getattr(node, name)) for name in type(node).__match_args__))
    return node


def _random_terms(seeds):
    # few seeds and shallow terms, so that equal pairs are common
    return st.builds(lambda seed: _random_term(random.Random(seed), ORACLE_MODEL, 1 + seed % 4), seeds)


class TestTermEquality:
    @settings(max_examples=50, deadline=None)
    @given(DEEP_TERMS, DEEP_TERMS)
    def test_equality_is_structural(self, term, other):
        copy = _rebuild(term)
        assert copy is not term or not isinstance(term, (Act, Seq, Alt, Par, Guard))
        assert copy == term and hash(copy) == hash(term)
        assert (term == other) is (_structure(term) == _structure(other))
        assert (term != other) is (_structure(term) != _structure(other))

    def test_a_shared_hash_does_not_make_terms_equal(self):
        # forged collisions: every field is still compared
        acts = [Act(IntroduceEvent(AGENTS_ALL[0], body, AGENTS_ALL[1])) for body in BODIES_ALL[:3]]
        for term, other in [
            (Seq(acts[0], acts[1]), Seq(acts[0], acts[2])),
            (Seq(Seq(acts[0], acts[1]), acts[1]), Seq(Seq(acts[0], acts[2]), acts[1])),
            (Seq(Seq(acts[0], acts[1]), acts[1]), Seq(Seq(acts[2], acts[1]), acts[1])),
        ]:
            object.__setattr__(other, "_hash", hash(term))
            object.__setattr__(other.left, "_hash", hash(term.left))
            assert term != other and other != term

    def test_deep_sequences_compare_without_recursion(self):
        # 5,000 operands, far beyond the interpreter's recursion limit
        events = [IntroduceEvent(a, x, b) for a in AGENTS_ALL for b in AGENTS_ALL for x in BODIES_ALL]
        events = [events[i % len(events)] for i in range(5_000)]

        def chain(first=None):
            acts = [Act(event) for event in events]
            return reduce(Seq, [first or acts[0], *acts[1:]])

        term = chain()
        assert chain() == term
        assert Configuration(chain(), EMPTY_STATE) == Configuration(term, EMPTY_STATE)
        # differing only in the innermost operand
        assert chain(DONE) != term
        assert Alt(term.left, term.right) != term

    @settings(max_examples=100, deadline=None)
    @given(_random_terms(st.integers(0, 40)), _random_terms(st.integers(0, 40)))
    def test_equality_with_guards_is_structural(self, term, other):
        # random guards carry random conditions, which compare the same way
        copy = _rebuild(term)
        assert copy == term and hash(copy) == hash(term)
        assert (term == other) is (_structure(term) == _structure(other))
        assert (term != other) is (_structure(term) != _structure(other))

    def test_a_shared_hash_does_not_make_conditions_equal(self):
        a, b = AGENTS_ALL[:2]
        held = [HasPromise(a, body, b) for body in BODIES_ALL[:3]]
        act = Act(IntroduceEvent(a, BODIES_ALL[0], b))
        for cond, other in [
            (And(held[0], held[1]), And(held[0], held[2])),
            (Implies(held[0], Not(held[1])), Implies(held[0], Not(held[2]))),
            (ForAllAgents("v", a, held[0]), ForAllAgents("w", a, held[0])),
            (ForAllAgents("v", a, held[0]), ForAllAgents("v", b, held[0])),
            (Or(held[0], held[1]), Or(held[0], Not(held[1]))),
        ]:
            for node, forged in [(cond, other), (Guard(cond, act), Guard(other, act))]:
                object.__setattr__(forged, "_hash", hash(node))
                if isinstance(forged, Guard):
                    object.__setattr__(forged.condition, "_hash", hash(node.condition))
                assert node != forged and forged != node

    def test_deep_conditions_compare_without_recursion(self):
        wraps = (Not, partial(And, TRUE), partial(ForAllAgents, "v", AGENTS_ALL[0]))

        def chain(leaf):
            cond = leaf
            for i in range(5_000):
                cond = wraps[i % 3](cond)
            return Guard(cond, DONE)

        assert chain(TRUE) == chain(TRUE) and hash(chain(TRUE)) == hash(chain(TRUE))
        assert chain(TRUE) != chain(FALSE)


class TestConditionOracle:
    @settings(max_examples=200, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7), st.frozensets(PROMISES, max_size=6))
    def test_eval_condition_matches_the_oracle(self, rng, depth, held):
        cond = _random_condition(rng, ORACLE_MODEL, depth)
        assert eval_condition(ORACLE_MODEL, cond, State(held)) is _eval(ORACLE_MODEL, cond, held, {})

    @settings(max_examples=300, deadline=None)
    @given(
        st.randoms(use_true_random=False),
        st.integers(1, 5),
        st.integers(0, 3),
        st.lists(PROMISES, max_size=8, unique=True),
        st.frozensets(PROMISES, max_size=6),
        st.booleans(),
        EVENTS,
    )
    def test_compiled_guards_match_the_oracle(self, rng, depth, quantifiers, seen, held, strict, event):
        # a fresh model per example, whose table numbers ``seen`` before the
        # guards' leaves and the state's promises: a first-sight order that
        # differs from example to example
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        for promise in seen:
            model._table.number(model, promise)
        # ``depth`` operators under up to three nested quantifiers, each
        # excluding an agent or an enclosing quantifier's variable
        names = tuple(f"q{i}" for i in range(quantifiers))
        cond = _random_condition(rng, model, depth, names)
        for i in reversed(range(quantifiers)):
            cond = ForAllAgents(names[i], rng.choice([*model.agents, *map(AgentVar, names[:i])]), cond)
        assert eval_condition(model, cond, State(held)) is _eval(model, cond, held, {})
        # the engine compiles a guard, and conjoins it with the guards inside
        term = Guard(cond, Guard(_random_condition(rng, model, depth), Act(event)))
        assert set(transitions(model, Configuration(term, State(held)))) == {
            (event, Configuration(succ, State(after))) for event, succ, after in _moves(model, term, held)
        }

    def test_deeply_nested_guards_compile_and_step_without_recursion(self):
        # 3,000 nested guards, each a disjunction: their tests nest as deep
        a, b = AGENTS_ALL[:2]
        x, y = (ORACLE_MODEL.body(name) for name in ("x", "y"))
        event = IntroduceEvent(a, y, b)
        term = Act(event)
        for _ in range(3_000):
            term = Guard(Or(HasPromise(a, x, b), HasPromise(b, x, a)), term)
        held = State(frozenset({Promise(b, x, a)}))
        assert set(transitions(replace(ORACLE_MODEL), Configuration(term, EMPTY_STATE))) == set()
        [(found, after)] = set(transitions(replace(ORACLE_MODEL), Configuration(term, held)))
        assert found == event and after.term == DONE

    def test_a_body_that_ignores_its_variable_is_compiled_once(self, monkeypatch):
        # 16 nested quantifiers over two agents each: expanding every body
        # over both agents makes 196,605 joins
        text = "true"
        for i in reversed(range(16)):
            text = f"forall v{i} != c : (p(s, g, c) or {text})"
        scenario = parse_scenario(f"agent s c m\ntype t\ntask g : t\nrun pi(s, g, c) . [{text}] -> pi(s, g, m)")
        joins = []
        monkeypatch.setattr(process_algebra, "_join", lambda *args: joins.append(1) or _join(*args))
        lts = build_lts(scenario.model, Configuration(scenario.entry, scenario.initial_state))
        assert (len(lts.nodes), len(lts.edges)) == (3, 2)
        assert len(joins) <= 64

    def test_nested_quantifiers_compile_in_linear_time(self, monkeypatch):
        # each read of a quantifier's body is one operation: looking for a
        # variable through the whole body of every quantifier would read
        # quadratically many. The innermost leaf names the outermost
        # variable, so only the outermost quantifier is expanded.
        model = parse_scenario("agent s c m\ntype t\ntask g : t\nrun ok").model
        s, c, g = model.agent("s"), model.agent("c"), model.body("g")
        conditions = []
        for depth in (1_000, 2_000):
            cond = HasPromise(AgentVar("v0"), g, c)
            for i in reversed(range(depth)):
                cond = ForAllAgents(f"v{i}", c, Or(HasPromise(s, g, c), cond))
            conditions.append(cond)
        reads = []
        body = ForAllAgents.body
        monkeypatch.setattr(ForAllAgents, "body", property(lambda cond: reads.append(1) or body.__get__(cond)))
        counts = []
        for cond in conditions:
            reads.clear()
            assert eval_condition(model, cond, EMPTY_STATE) is False
            counts.append(len(reads))
        assert counts[1] <= 2 * counts[0] + 10

    def test_a_rebound_variable_is_hidden_from_its_quantifier(self):
        # ``v`` inside the inner quantifier is the inner one's, except in
        # the agent it excludes
        a, b = AGENTS_ALL[:2]
        x = ORACLE_MODEL.body("x")
        inner = ForAllAgents("v", b, HasPromise(AgentVar("v"), x, a))
        conditions = (
            ForAllAgents("v", a, inner),
            ForAllAgents("v", a, Or(inner, HasPromise(AgentVar("v"), x, b))),
            ForAllAgents("v", a, ForAllAgents("w", AgentVar("v"), HasPromise(AgentVar("w"), x, a))),
        )
        promises = [Promise(promiser, x, promisee) for promiser in AGENTS_ALL for promisee in (a, b)]
        for held in (frozenset(), *(frozenset({p}) for p in promises), frozenset(promises)):
            for cond in conditions:
                assert eval_condition(ORACLE_MODEL, cond, State(held)) is _eval(ORACLE_MODEL, cond, held, {})

    def test_deep_conditions_evaluate_without_recursion(self):
        wraps = (Not, partial(Or, FALSE), partial(Implies, TRUE))
        cond = TRUE
        for i in range(5_000):
            cond = wraps[i % 3](cond)
        # 1,667 negations of true
        assert eval_condition(ORACLE_MODEL, cond, EMPTY_STATE) is False


class TestPickling:
    """Classes that store their hash rebuild it when unpickled, and a
    state an engine made pickles as its promises, without the promise
    table."""

    def _round_trip(self, value):
        copy = pickle.loads(pickle.dumps(value))
        assert copy == value and hash(copy) == hash(value) and str(copy) == str(value)
        return copy

    def test_terms_conditions_bodies_and_events(self, ride_model):
        a, b = ride_model.agent("ja"), ride_model.agent("ma")
        body = ride_model.body("~tbc2JUB")
        events = [
            IntroduceEvent(a, body, b),
            WithdrawEvent(a, body, b),
            GeneralizedIntroduceEvent(a, b, body, b, a),
        ]
        act = Act(events[0])
        condition = ForAllAgents(
            "v", a, Implies(IsExclusive(body), Or(And(TRUE, Not(HasPromise(a, body, AgentVar("v")))), FALSE))
        )
        terms = [DONE, DEADLOCK, act, Seq(act, DONE), Alt(act, DEADLOCK), Par(act, act), Guard(condition, act)]
        for value in [GAMMA, body, *events, condition, *terms]:
            self._round_trip(value)
        assert can_terminate(self._round_trip(Seq(DONE, DONE))) is True

    def test_states_and_a_stepped_configuration(self, ride_model):
        offer = ride_model.promise("ja", "tbc2JUB", "ma")
        made = introduce(ride_model, EMPTY_STATE, offer)
        assert b"_Table" not in pickle.dumps(made)
        assert self._round_trip(made).promises == frozenset({offer})
        self._round_trip(State(frozenset({offer})))
        act = Act(IntroduceEvent(offer.promiser, offer.body, offer.promisee))
        [(event, config)] = set(transitions(ride_model, Configuration(act, EMPTY_STATE)))
        copy = pickle.loads(pickle.dumps(config))
        assert copy == config and copy.state == made and copy.term == DONE
        # an engine-made configuration is a plain value: equal to, and
        # hashed as, one made by hand of the same term and state
        by_hand = Configuration(DONE, State(frozenset({offer})))
        assert config == by_hand and hash(config) == hash(by_hand)
        assert repr(config) == f"Configuration(term={DONE!r}, state={made!r})"
        for field in ("term", "state"):
            with pytest.raises(AttributeError):
                setattr(config, field, None)
