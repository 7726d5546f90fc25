"""Promise states and the introduce/withdraw/delegation rules."""

from __future__ import annotations

from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from promisekit.promise_state import (
    Agent,
    EMPTY_STATE,
    GeneralizedPromise,
    ModelError,
    NoCompliance,
    NotEnabled,
    NotPresent,
    Promise,
    PromiseModel,
    State,
    SubordinationCycle,
    SubordinationOrder,
    clash,
    introduce,
    introduce_generalized,
    is_conflict_free,
    obligation_warnings,
    pi_enabled,
    pw_enabled,
    state_clashes,
    withdraw,
)
from promisekit.task_algebra import GAMMA, UnknownAtom, all_bodies

from sos_oracle import _intro_allowed


@pytest.fixture(scope="module")
def delegation_model():
    return PromiseModel.create(
        agents=("boss", "worker", "client"),
        types=("work",),
        atoms={"report": "work"},
        subordination=(("worker", "boss"),),
    )


class TestIntroduction:
    def test_everything_enabled_on_empty_state(self, ride_model):
        for body in ("tbc2JUB", "~tbc2JUB", "!tbc2JUB", "!~tbc2JUB", "gamma"):
            assert pi_enabled(ride_model, EMPTY_STATE, ride_model.promise("ja", body, "ma"))

    def test_first_offer(self, ride_model):
        offer = ride_model.promise("ja", "tbc2JUB", "ma")
        assert introduce(ride_model, EMPTY_STATE, offer) == State(frozenset({offer}))

    def test_exclusive_body_blocks_second_promisee(self, ride_model):
        accepted = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        second = ride_model.promise("ma", "~tbc2JUB", "ju")
        assert not pi_enabled(ride_model, accepted, second)
        with pytest.raises(NotEnabled) as exc:
            introduce(ride_model, accepted, second)
        assert exc.value.reason == "exclusiveness"

    def test_refusal_to_other_agent_is_allowed(self, ride_model):
        # holding ~x toward one agent does not block !~x toward another
        accepted = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        refusal = ride_model.promise("ma", "!~tbc2JUB", "ju")
        assert pi_enabled(ride_model, accepted, refusal)

    def test_strict_mode_blocks_refusal_to_other_agent(self, ride_model):
        strict = replace(ride_model, strict_conflicts=True)
        accepted = introduce(strict, EMPTY_STATE, strict.promise("ma", "~tbc2JUB", "ja"))
        refusal = strict.promise("ma", "!~tbc2JUB", "ju")
        assert not pi_enabled(strict, accepted, refusal)
        with pytest.raises(NotEnabled) as exc:
            introduce(strict, accepted, refusal)
        assert exc.value.reason == "conflict"

    def test_conflict_within_dyad(self, ride_model):
        accepted = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        contradiction = ride_model.promise("ma", "!~tbc2JUB", "ja")
        assert not pi_enabled(ride_model, accepted, contradiction)
        with pytest.raises(NotEnabled) as exc:
            introduce(ride_model, accepted, contradiction)
        assert exc.value.reason == "conflict"

    def test_reintroduction_is_identity(self, ride_model):
        offer = ride_model.promise("ja", "tbc2JUB", "ma")
        state = introduce(ride_model, EMPTY_STATE, offer)
        assert introduce(ride_model, state, offer) == state

    def test_exclusiveness_does_not_constrain_other_promisers(self, ride_model):
        # a different promiser may promise the same exclusive body
        state = introduce(ride_model, EMPTY_STATE, ride_model.promise("ma", "~tbc2JUB", "ja"))
        other = ride_model.promise("ju", "~tbc2JUB", "ja")
        assert pi_enabled(ride_model, state, other)


class TestWithdrawal:
    def test_enabled_iff_present(self, ride_model):
        offer = ride_model.promise("ju", "tbc2JUB", "ma")
        state = introduce(ride_model, EMPTY_STATE, offer)
        assert pw_enabled(state, offer)
        assert not pw_enabled(EMPTY_STATE, offer)
        assert not pw_enabled(state, ride_model.promise("ju", "tbc2JUB", "ja"))

    def test_withdraw_removes(self, ride_model):
        offer = ride_model.promise("ju", "tbc2JUB", "ma")
        refusal = ride_model.promise("ma", "!~tbc2JUB", "ju")
        state = introduce(ride_model, introduce(ride_model, EMPTY_STATE, offer), refusal)
        assert withdraw(state, offer) == State(frozenset({refusal}))

    def test_introduce_then_withdraw_is_identity(self, ride_model):
        offer = ride_model.promise("ja", "tbc2JUB", "ma")
        assert withdraw(introduce(ride_model, EMPTY_STATE, offer), offer) == EMPTY_STATE

    def test_withdrawing_absent_promise_fails(self, ride_model):
        with pytest.raises(NotPresent):
            withdraw(EMPTY_STATE, ride_model.promise("ja", "tbc2JUB", "ma"))


class TestNegotiationReplay:
    def test_six_event_negotiation(self, ride_model):
        """Replay the bundled negotiation through the raw speech acts."""
        m = ride_model
        state = EMPTY_STATE
        state = introduce(m, state, m.promise("ja", "tbc2JUB", "ma"))
        state = introduce(m, state, m.promise("ma", "~tbc2JUB", "ja"))
        state = introduce(m, state, m.promise("ju", "tbc2JUB", "ma"))
        state = introduce(m, state, m.promise("ma", "!~tbc2JUB", "ju"))
        state = withdraw(state, m.promise("ju", "tbc2JUB", "ma"))
        state = withdraw(state, m.promise("ma", "!~tbc2JUB", "ju"))

        ja, ju, ma = m.agent("ja"), m.agent("ju"), m.agent("ma")
        assert Promise(ja, m.body("tbc2JUB"), ma) in state
        assert Promise(ma, m.body("~tbc2JUB"), ja) in state
        assert Promise(ju, m.body("tbc2JUB"), ma) not in state
        assert len(state) == 2
        assert str(state) == "{ja:tbc2JUB->ma, ma:~tbc2JUB->ja}"


class TestDelegation:
    def test_compliance_induces_basic_promise(self, delegation_model):
        m = delegation_model
        boss, worker, client = (m.agent(n) for n in ("boss", "worker", "client"))
        compliance = Promise(worker, GAMMA, boss)
        state = introduce(m, EMPTY_STATE, compliance)
        gp = GeneralizedPromise(boss, worker, m.body("report"), client, client)
        after = introduce_generalized(m, state, gp)
        assert compliance in after
        assert Promise(worker, m.body("report"), client) in after
        assert len(after) == 2

    def test_missing_compliance(self, delegation_model):
        m = delegation_model
        gp = GeneralizedPromise(
            m.agent("boss"), m.agent("worker"), m.body("report"), m.agent("client"), m.agent("client")
        )
        with pytest.raises(NoCompliance):
            introduce_generalized(m, EMPTY_STATE, gp)

    def test_basic_delegation_agrees_with_introduce(self, delegation_model):
        m = delegation_model
        boss, client = m.agent("boss"), m.agent("client")
        state = introduce(m, EMPTY_STATE, Promise(boss, GAMMA, boss))
        gp = GeneralizedPromise(boss, boss, m.body("report"), client, client)
        # the diagonal case: the induced promise is the promise itself
        assert gp.induced() == Promise(gp.promiser, gp.body, gp.promisee)
        via_rule = introduce_generalized(m, state, gp)
        direct = introduce(m, state, Promise(boss, m.body("report"), client))
        assert via_rule == direct

    def test_induced_introduction_can_be_blocked(self, delegation_model):
        m = delegation_model
        boss, worker, client = (m.agent(n) for n in ("boss", "worker", "client"))
        state = introduce(m, EMPTY_STATE, Promise(worker, GAMMA, boss))
        state = introduce(m, state, Promise(worker, m.body("!report"), client))
        gp = GeneralizedPromise(boss, worker, m.body("report"), client, client)
        with pytest.raises(NotEnabled):
            introduce_generalized(m, state, gp)


class TestObligations:
    def test_subordinate_performer_warns(self, delegation_model):
        m = delegation_model
        gp = GeneralizedPromise(
            m.agent("boss"), m.agent("worker"), m.body("report"), m.agent("client"), m.agent("client")
        )
        warnings = obligation_warnings(m, gp)
        assert len(warnings) == 1
        assert warnings[0].performer == m.agent("worker")
        assert warnings[0].promiser == m.agent("boss")

    def test_basic_promise_is_voluntary(self, delegation_model):
        m = delegation_model
        gp = GeneralizedPromise(
            m.agent("boss"), m.agent("boss"), m.body("report"), m.agent("client"), m.agent("client")
        )
        assert obligation_warnings(m, gp) == []

    def test_unrelated_agents_do_not_warn(self, delegation_model):
        m = delegation_model
        gp = GeneralizedPromise(
            m.agent("worker"), m.agent("boss"), m.body("report"), m.agent("client"), m.agent("client")
        )
        # boss is not subordinate to worker
        assert obligation_warnings(m, gp) == []


class TestSubordinationOrder:
    def test_transitive(self):
        a, b, c = Agent("a"), Agent("b"), Agent("c")
        order = SubordinationOrder.from_pairs([(a, b), (b, c)])
        assert order.subordinate(a, c)
        assert not order.subordinate(c, a)

    def test_reflexive(self):
        a = Agent("a")
        order = SubordinationOrder.from_pairs([])
        assert order.subordinate(a, a)

    def test_cycle_is_rejected(self):
        a, b, c = Agent("a"), Agent("b"), Agent("c")
        with pytest.raises(SubordinationCycle, match="^agents a and b "):
            SubordinationOrder.from_pairs([(a, b), (b, c), (c, a)])

    def test_cycle_names_the_first_declared_pair(self):
        a, b, c = Agent("a"), Agent("b"), Agent("c")
        with pytest.raises(SubordinationCycle, match="^agents c and a "):
            SubordinationOrder.from_pairs([(c, a), (a, b), (b, c)])

    @given(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=10))
    def test_closure_is_reachability(self, edges):
        agents = [Agent(f"a{i}") for i in range(6)]
        pairs = [(agents[low], agents[high]) for low, high in edges]
        reach = {(low, high) for low, high in pairs if low != high}
        for middle in agents:  # Warshall's algorithm
            reach |= {(a, d) for a, b in reach if b == middle for c, d in reach if c == middle and a != d}
        if any((b, a) in reach for a, b in reach):
            with pytest.raises(SubordinationCycle):
                SubordinationOrder.from_pairs(pairs)
        else:
            assert SubordinationOrder.from_pairs(pairs).closure == reach

    def test_a_long_chain_closes_in_one_search_per_agent(self):
        agents = [Agent(f"a{i}") for i in range(150)]
        order = SubordinationOrder.from_pairs(list(zip(agents, agents[1:])))
        assert len(order.closure) == 150 * 149 // 2
        assert order.subordinate(agents[0], agents[-1]) and not order.subordinate(agents[-1], agents[0])


class TestModelValidation:
    def test_duplicate_agent(self):
        with pytest.raises(ModelError):
            PromiseModel.create(agents=("a", "a"))

    def test_unknown_atom_type(self):
        with pytest.raises(ModelError):
            PromiseModel.create(agents=("a",), atoms={"x": "nosuch"})

    def test_reserved_names(self):
        with pytest.raises(ModelError):
            PromiseModel.create(agents=("a",), types=("compliance",))
        with pytest.raises(ModelError):
            PromiseModel.create(agents=("a",), types=("t",), atoms={"gamma": "t"})

    def test_unknown_subordination_agent(self):
        with pytest.raises(ModelError):
            PromiseModel.create(agents=("a",), subordination=(("a", "ghost"),))


class TestInvariantPreservation:
    @given(st.lists(st.tuples(st.sampled_from("ab"), st.integers(0, 7), st.sampled_from("ab")), max_size=12), st.data())
    def test_random_walks_stay_conflict_free(self, moves, data):
        model = PromiseModel.create(
            agents=("a", "b"),
            types=("t",),
            atoms={"x": "t", "y": "t"},
            incompatible_pairs=[("x", "y")],
            exclusive=("~x",),
        )
        bodies = all_bodies(model.user_atoms())
        state = EMPTY_STATE
        for promiser, body_index, promisee in moves:
            candidate = Promise(model.agent(promiser), bodies[body_index], model.agent(promisee))
            if data.draw(st.booleans()) and pw_enabled(state, candidate):
                state = withdraw(state, candidate)
            elif pi_enabled(model, state, candidate):
                state = introduce(model, state, candidate)
            assert is_conflict_free(model, state)


ORACLE_MODEL = PromiseModel.create(
    agents=("a", "b", "c"),
    types=("t", "u"),
    atoms={"x": "t", "y": "t", "z": "u"},
    incompatible_pairs=[("x", "y")],
    exclusive=("~x", "!y", "z"),
)
ORACLE_PROMISES = st.builds(
    Promise,
    st.sampled_from(ORACLE_MODEL.agents),
    st.sampled_from(all_bodies(ORACLE_MODEL.atoms)),
    st.sampled_from(ORACLE_MODEL.agents),
)


class TestOracleAgreement:
    @given(st.frozensets(ORACLE_PROMISES, max_size=10), ORACLE_PROMISES, st.booleans())
    def test_enabledness_matches_the_oracle(self, held, candidate, strict):
        # held states are arbitrary sets, conflict-free or not
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        state = State(held)
        enabled = _intro_allowed(model, held, candidate)
        assert pi_enabled(model, state, candidate) == enabled
        if enabled:
            assert introduce(model, state, candidate) == State(held | {candidate})
        else:
            with pytest.raises(NotEnabled):
                introduce(model, state, candidate)

    @given(st.frozensets(ORACLE_PROMISES, max_size=16), st.booleans())
    def test_state_clashes_match_all_pairs(self, held, strict):
        # the indexed lookup against every pair tested with the clash rule
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        every_pair = [
            (reason, *sorted((p, q), key=str))
            for p, q in combinations(held, 2)
            if (reason := clash(model, p, q))
        ]
        expected = sorted(every_pair, key=lambda c: (c[0], str(c[1]), str(c[2])))
        assert state_clashes(model, State(held)) == expected


class TestInternedBodies:
    def test_one_object_per_body(self, ride_model):
        for text in ("tbc2JUB", "~tbc2JUB", "!tbc2JUB", "!~tbc2JUB", "~!tbc2JUB", "gamma"):
            assert ride_model.body(text) is ride_model.body(text)
        assert ride_model.body("~!tbc2JUB") is ride_model.body("!~tbc2JUB")
        assert ride_model.body("!!tbc2JUB") is ride_model.body("tbc2JUB")

    def test_the_dsl_returns_the_model_bodies(self, ride):
        # every occurrence in the corpus scenario, protocol bodies included,
        # is the model's one object for its body
        from promisekit.process_algebra import Act

        model = ride.model
        pending, seen = [ride.entry], 0
        while pending:
            term = pending.pop()
            if isinstance(term, Act):
                assert term.event.body is model.body(str(term.event.body))
                seen += 1
            pending += [getattr(term, name) for name in ("left", "right", "body") if hasattr(term, name)]
        assert seen > 0

    def test_unknown_atom(self, ride_model):
        with pytest.raises(UnknownAtom, match="unknown task atom 'nosuch'"):
            ride_model.body("~nosuch")


def _pairwise_clashes(model, held):
    """The invariant by testing every pair with the clash rule."""
    pairs = [(reason, *sorted((p, q), key=str)) for p, q in combinations(held, 2) if (reason := clash(model, p, q))]
    return sorted(pairs, key=lambda c: (c[0], str(c[1]), str(c[2])))


class TestBitmaskDifferential:
    """The bitmask rules on states reached through the speech acts, in
    both conflict modes; ``TestOracleAgreement`` takes hand-made sets
    that may clash."""

    @given(st.lists(st.tuples(ORACLE_PROMISES, st.booleans()), max_size=16), ORACLE_PROMISES, st.booleans())
    def test_reached_states(self, acts, candidate, strict):
        model = replace(ORACLE_MODEL, strict_conflicts=strict)
        state, held = EMPTY_STATE, frozenset()
        for promise, withdrawing in acts:
            if withdrawing and promise in state:
                state, held = withdraw(state, promise), held - {promise}
            elif pi_enabled(model, state, promise):
                state, held = introduce(model, state, promise), held | {promise}
            assert state == State(held) and hash(state) == hash(State(held))
            assert set(state) == held and len(state) == len(held) and str(state) == str(State(held))
            assert all(p in state for p in held) and (candidate in state) is (candidate in held)
        # against the pairwise clash reference and the oracle
        enabled = not any(clash(model, candidate, p) for p in held)
        assert _intro_allowed(model, held, candidate) is enabled
        assert pi_enabled(model, state, candidate) is enabled
        if enabled:
            after = introduce(model, state, candidate)
            assert after == State(held | {candidate}) and after.promises == held | {candidate}
        assert state_clashes(model, state) == _pairwise_clashes(model, held)

    @given(st.lists(ORACLE_PROMISES, min_size=2, max_size=12, unique=True), st.booleans())
    def test_first_sight_order_does_not_matter(self, promises, strict):
        # one model numbers the promises in list order, another in reverse;
        # every answer and its rendering are the same
        answers, tables = [], []
        for order in (promises, promises[::-1]):
            model = replace(ORACLE_MODEL, strict_conflicts=strict)
            for promise in order:
                pi_enabled(model, EMPTY_STATE, promise)
            tables.append(list(model._table.promises))
            held = State(frozenset(promises))
            answers.append((
                [pi_enabled(model, State(frozenset(promises[:i])), p) for i, p in enumerate(promises)],
                state_clashes(model, held),
                str(introduce(model, EMPTY_STATE, promises[0])),
            ))
        assert tables == [promises, promises[::-1]]
        assert answers[0] == answers[1]
        assert answers[0][1] == _pairwise_clashes(model, frozenset(promises))

    def test_a_state_is_numbered_under_each_model(self):
        # a state made under one model's table is read under another's
        first, second = (replace(ORACLE_MODEL, strict_conflicts=strict) for strict in (False, True))
        a, b = first.agent("a"), first.agent("b")
        up, down = Promise(a, first.body("~x"), b), Promise(a, first.body("!~x"), first.agent("c"))
        state = introduce(first, introduce(first, EMPTY_STATE, up), down)
        assert state == State(frozenset({up, down}))
        assert state_clashes(second, state) == [("conflict", down, up)]
        assert not pi_enabled(second, withdraw(state, down), down)
        assert state == State(frozenset({up, down})) and withdraw(state, up) == State(frozenset({down}))
