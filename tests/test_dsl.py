"""Scenario/term/trace syntax: parsing, rendering, and round-trips."""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from promisekit import dsl
from promisekit.corpus import corpus_text
from promisekit.dsl import (
    ParseError,
    ValidationError,
    parse_scenario,
    parse_term,
    parse_trace,
    render,
)
from promisekit.explorer import Outcome, Trace
from promisekit.process_algebra import (
    Act,
    AgentVar,
    Alt,
    And,
    DEADLOCK,
    DONE,
    ForAllAgents,
    GeneralizedIntroduceEvent,
    Guard,
    HasPromise,
    Implies,
    IntroduceEvent,
    Par,
    Seq,
    TRUE,
    FALSE,
    WithdrawEvent,
    make_protocol,
)
from promisekit.promise_state import EMPTY_STATE, PromiseModel, State

from reference_render import render_condition, render_term
from scenario_gen import _random_condition, _random_term, random_scenario_text


@pytest.fixture(scope="module")
def plain_model():
    return PromiseModel.create(
        agents=("a", "b", "c"), types=("t",), atoms={"x": "t", "y": "t"}
    )


class TestScenarioParsing:
    def test_ride_scenario(self, ride):
        model = ride.model
        assert [a.name for a in model.agents] == ["ja", "ju", "ma"]
        assert [a.name for a in model.user_atoms()] == ["tbc2JUB"]
        assert model.user_atoms()[0].type.name == "transport"
        assert model.body("~tbc2JUB") in model.exclusiveness.exclusive
        assert ride.initial_state == EMPTY_STATE
        expected = Par(
            make_protocol(model, model.agent("ja"), model.agent("ma"), model.body("tbc2JUB")),
            make_protocol(model, model.agent("ju"), model.agent("ma"), model.body("tbc2JUB")),
        )
        assert ride.entry == expected

    def test_supplier_scenario(self):
        scenario = parse_scenario(corpus_text("isp.promise"))
        model = scenario.model
        assert [a.name for a in model.agents] == ["user", "ISPA", "ISPB"]
        assert model.body("~transport_packets") in model.exclusiveness.exclusive
        assert isinstance(scenario.entry, Par)

    def test_laws_scenario(self):
        scenario = parse_scenario(corpus_text("laws.promise"))
        model = scenario.model
        assert model.order.subordinate(model.agent("intern"), model.agent("boss"))
        assert frozenset({model.body("train"), model.body("car")}) in model.incompatibility.declared
        assert dict(scenario.definitions).keys() == {"offer"}
        assert isinstance(scenario.entry, Alt)

    def test_definitions_expand_in_run(self, plain_model):
        text = (
            "agent a b\n"
            "type t\n"
            "task x : t\n"
            "def offer = pi(a, x, b)\n"
            "run offer . offer\n"
        )
        scenario = parse_scenario(text)
        offer = dict(scenario.definitions)["offer"]
        assert scenario.entry == Seq(offer, offer)

    def test_init_builds_state(self):
        text = (
            "agent a b\n"
            "type t\n"
            "task x : t\n"
            "init pi(a, x, b), pi(b, x, a)\n"
            "run delta\n"
        )
        scenario = parse_scenario(text)
        assert len(scenario.initial_state) == 2

    def test_init_must_be_conflict_free(self):
        text = (
            "agent a b\n"
            "type t\n"
            "task x : t\n"
            "init pi(a, x, b), pi(a, !x, b)\n"
            "run delta\n"
        )
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_comments_everywhere(self):
        text = (
            "# leading comment\n"
            "agent a b   # trailing comment\n"
            "type t\n"
            "task x : t\n"
            "task y : t\n"
            "incompatible x # y # a real comment\n"
            "\n"
            "run delta # done\n"
        )
        scenario = parse_scenario(text)
        assert frozenset({scenario.model.body("x"), scenario.model.body("y")}) in (
            scenario.model.incompatibility.declared
        )


class TestScenarioErrors:
    def test_syntax_error_carries_position(self):
        text = "agent a b\ntype t\ntask x t\nrun delta\n"
        with pytest.raises(ParseError) as exc:
            parse_scenario(text)
        assert exc.value.line == 3
        assert 1 <= exc.value.column <= len("task x t") + 1

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as exc:
            parse_scenario("nonsense here\nrun delta\n")
        assert exc.value.line == 1

    def test_reflexive_incompatibility(self):
        text = "agent a\ntype t\ntask x : t\nincompatible x # x\nrun delta\n"
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_cross_type_incompatibility(self):
        text = (
            "agent a\ntype t\ntype u\ntask x : t\ntask y : u\n"
            "incompatible x # y\nrun delta\n"
        )
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_unknown_agent_in_term(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent a\ntype t\ntask x : t\nrun pi(a, x, ghost)\n")

    def test_unknown_process_reference(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent a\nrun nosuch\n")

    def test_duplicate_definition(self):
        text = "agent a\ntype t\ntask x : t\ndef d = delta\ndef d = delta\nrun d\n"
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_missing_run(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent a\n")

    def test_duplicate_run(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent a\nrun delta\nrun delta\n")

    def test_reserved_agent_name(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent pi\nrun delta\n")

    def test_subordination_cycle(self):
        text = "agent a b\nsubord a <= b\nsubord b <= a\nrun delta\n"
        with pytest.raises(ValidationError):
            parse_scenario(text)

    def test_delegated_withdrawal_is_rejected(self):
        with pytest.raises(ValidationError):
            parse_scenario("agent a b\ntype t\ntask x : t\nrun pw(a[b], x, a)\n")


# Each text breaks a model law, and its diagnostic names the first
# offending declaration as written.
MODEL_DIAGNOSTICS = {
    "two_cycle": (
        "agent a b\nsubord a <= b\nsubord b <= a\nrun delta\n",
        "agents a and b are subordinated to each other",
    ),
    "three_cycle": (
        "agent a b c\nsubord b <= c\nsubord c <= a\nsubord a <= b\nrun delta\n",
        "agents b and c are subordinated to each other",
    ),
    "negation_conflict": (
        "agent a\ntype t\ntask x : t\ntask y : t\nincompatible x # y\nincompatible x # !y\nrun delta\n",
        "(x, y) and (x, !y) cannot both be incompatible",
    ),
    "negated_first": (
        "agent a\ntype t\ntask x : t\ntask y : t\nincompatible x # !y\nincompatible y # x\nrun delta\n",
        "(x, !y) and (x, y) cannot both be incompatible",
    ),
}

_DIAGNOSE = """
import json, sys
from promisekit.dsl import ValidationError, parse_scenario
messages = {}
for name, text in json.loads(sys.stdin.read()).items():
    try:
        parse_scenario(text)
    except ValidationError as err:
        messages[name] = str(err)
print(json.dumps(messages))
"""


@pytest.fixture(scope="module")
def diagnostics_by_seed():
    """Each text's diagnostic under hash seeds 0-5, one process each: body
    hashes also hold the class object's hash, which is its address, so
    one seed in one process would not show an order that depends on them."""
    src = str(Path(dsl.__file__).resolve().parents[1])
    texts = json.dumps({name: text for name, (text, _) in MODEL_DIAGNOSTICS.items()})
    found = {}
    for seed in range(6):
        env = {**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": src}
        run = subprocess.run(
            [sys.executable, "-c", _DIAGNOSE], input=texts, capture_output=True, text=True, env=env, check=True
        )
        found[seed] = json.loads(run.stdout)
    return found


class TestModelDiagnostics:
    @pytest.mark.parametrize("name", list(MODEL_DIAGNOSTICS))
    def test_first_offending_declaration_under_every_hash_seed(self, diagnostics_by_seed, name):
        expected = MODEL_DIAGNOSTICS[name][1]
        assert {seed: found.get(name) for seed, found in diagnostics_by_seed.items()} == dict.fromkeys(
            range(6), expected
        )


class TestTermSyntax:
    def test_precedence(self, plain_model):
        term = parse_term("pi(a, x, b) . pw(a, x, b) + delta || ok", plain_model)
        a, b = plain_model.agent("a"), plain_model.agent("b")
        x = plain_model.body("x")
        seq = Seq(Act(IntroduceEvent(a, x, b)), Act(WithdrawEvent(a, x, b)))
        assert isinstance(term, Par)
        assert term.left == Alt(seq, DEADLOCK)

    def test_parentheses_override(self, plain_model):
        term = parse_term("pi(a, x, b) . (pw(a, x, b) + delta)", plain_model)
        assert isinstance(term, Seq)
        assert isinstance(term.right, Alt)

    def test_guard_binds_one_operand(self, plain_model):
        term = parse_term("[true] -> pi(a, x, b) . delta", plain_model)
        assert isinstance(term, Seq)
        assert isinstance(term.left, Guard)

    def test_guard_over_sequence_needs_parens(self, plain_model):
        term = parse_term("[true] -> (pi(a, x, b) . delta)", plain_model)
        assert isinstance(term, Guard)
        assert isinstance(term.body, Seq)

    def test_operators_associate_left(self, plain_model):
        term = parse_term("delta + delta + ok", plain_model)
        assert term == Alt(Alt(DEADLOCK, DEADLOCK), DONE)

    def test_implication_associates_right(self, plain_model):
        term = parse_term("[true => false => true] -> delta", plain_model)
        cond = term.condition
        assert cond == Implies(TRUE, Implies(FALSE, TRUE))

    def test_forall_shadows_agent_name(self, plain_model):
        # the bound variable wins over the like-named agent inside the body
        term = parse_term("[forall c != a : p(b, x, c)] -> delta", plain_model)
        cond = term.condition
        assert cond == ForAllAgents(
            "c",
            plain_model.agent("a"),
            HasPromise(plain_model.agent("b"), plain_model.body("x"), AgentVar("c")),
        )

    def test_forall_binds_only_its_body(self, plain_model):
        # outside the parentheses that close the body, c names the agent again
        term = parse_term("[(forall c != a : p(b, x, c)) and p(b, x, c)] -> delta", plain_model)
        assert term.condition.right == HasPromise(
            plain_model.agent("b"), plain_model.body("x"), plain_model.agent("c")
        )
        with pytest.raises(ValidationError, match="unknown agent 'v'"):
            parse_term("[(forall v != a : p(b, x, v)) or p(b, x, v)] -> delta", plain_model)

    def test_an_inner_forall_may_reuse_a_variable(self, plain_model):
        # inside the inner body v is the inner variable; once that body
        # closes, v is the outer one again, and past the outer body unbound
        a, b = plain_model.agent("a"), plain_model.agent("b")
        x, y = plain_model.body("x"), plain_model.body("y")
        term = parse_term("[forall v != a : (forall v != b : p(v, x, a)) and p(v, y, b)] -> delta", plain_model)
        assert term.condition == ForAllAgents(
            "v",
            a,
            And(ForAllAgents("v", b, HasPromise(AgentVar("v"), x, a)), HasPromise(AgentVar("v"), y, b)),
        )
        with pytest.raises(ValidationError, match="unknown agent 'v'"):
            parse_term(
                "[(forall v != a : (forall v != b : p(v, x, a)) and p(v, y, b)) or p(v, x, b)] -> delta",
                plain_model,
            )

    def test_delegated_event_round_trip(self, plain_model):
        term = parse_term("pi(a[b], x, c[a])", plain_model)
        event = term.event
        assert isinstance(event, GeneralizedIntroduceEvent)
        assert parse_term(str(term), plain_model) == term

    def test_one_sided_brackets_default_to_the_announcer(self, plain_model):
        term = parse_term("pi(a[b], x, c)", plain_model)
        event = term.event
        assert event.performer == plain_model.agent("b")
        assert event.beneficiary == plain_model.agent("c")

    def test_protocol_sugar(self, ride_model):
        term = parse_term("protocol(ja, ma, tbc2JUB)", ride_model)
        assert term == make_protocol(
            ride_model, ride_model.agent("ja"), ride_model.agent("ma"), ride_model.body("tbc2JUB")
        )

    def test_protocol_rejects_usage_bodies(self, ride_model):
        with pytest.raises(ValidationError):
            parse_term("protocol(ja, ma, ~tbc2JUB)", ride_model)

    def test_term_error_position(self, plain_model):
        with pytest.raises(ParseError) as exc:
            parse_term("pi(a, x, b) . ", plain_model)
        assert exc.value.line == 1
        assert exc.value.column >= len("pi(a, x, b) . ")


class TestRendering:
    def test_body(self, ride_model):
        assert render(ride_model.body("!~tbc2JUB")) == "!~tbc2JUB"

    def test_state_is_sorted(self, ride_model):
        state = State(
            frozenset(
                {
                    ride_model.promise("ma", "~tbc2JUB", "ja"),
                    ride_model.promise("ja", "tbc2JUB", "ma"),
                }
            )
        )
        assert render(state) == "{ja:tbc2JUB->ma, ma:~tbc2JUB->ja}"

    def test_trace_renders_one_event_per_line(self, ride_events):
        trace = Trace(ride_events, Outcome.SUCCESSFUL)
        assert render(trace) == (
            "pi(ja, tbc2JUB, ma)\n"
            "pi(ma, ~tbc2JUB, ja)\n"
            "pi(ju, tbc2JUB, ma)\n"
            "pi(ma, !~tbc2JUB, ju)\n"
            "pw(ju, tbc2JUB, ma)\n"
            "pw(ma, !~tbc2JUB, ju)"
        )

    @pytest.mark.parametrize("name", ["jub.promise", "isp.promise", "laws.promise"])
    def test_corpus_round_trip(self, name):
        first = parse_scenario(corpus_text(name))
        assert parse_scenario(render(first)) == first

    @pytest.mark.parametrize("seed", range(6))
    def test_generated_round_trip(self, seed):
        first = parse_scenario(random_scenario_text(seed))
        assert parse_scenario(render(first)) == first

    def test_term_round_trip_covers_precedence(self, plain_model):
        texts = [
            "pi(a, x, b) . pw(a, x, b) + delta || ok",
            "(pi(a, x, b) + delta) . pw(a, x, b)",
            "[E(~x) => forall v != a : not p(a, x, v)] -> pi(b, y, a)",
            "[not (true and false) or p(a, !~y, b)] -> (delta . ok)",
            "pi(a[b], x, c[a]) || pw(c, !y, a)",
        ]
        for text in texts:
            term = parse_term(text, plain_model)
            assert parse_term(str(term), plain_model) == term


GEN_MODEL = PromiseModel.create(
    agents=("a", "b", "c"), types=("t",), atoms={"x": "t", "y": "t"}
)


class TestOneOperatorTable:
    """The table-driven parser and renderer against the recursive renderer
    they replaced (``tests/reference_render.py``), on random terms and
    conditions."""

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 6))
    def test_terms_render_and_parse_back(self, rng, depth):
        term = _random_term(rng, GEN_MODEL, depth)
        text = str(term)
        assert text == render_term(term)
        assert parse_term(text, GEN_MODEL) == term
        assert parse_term(render_term(term, random.Random(rng.random())), GEN_MODEL) == term

    @settings(max_examples=150, deadline=None)
    @given(st.randoms(use_true_random=False), st.integers(1, 7))
    def test_conditions_render_and_parse_back(self, rng, depth):
        cond = _random_condition(rng, GEN_MODEL, depth)
        text = str(cond)
        assert text == render_condition(cond)
        guarded = Guard(cond, DEADLOCK)
        assert parse_term(f"[{text}] -> delta", GEN_MODEL) == guarded
        redundant = render_condition(cond, random.Random(rng.random()))
        assert parse_term(f"[{redundant}] -> delta", GEN_MODEL) == guarded

    @pytest.mark.parametrize(
        "text",
        [
            "(" * 10_000 + "pi(a, x, b)" + ")" * 10_000,
            "[true] -> " * 10_000 + "pi(a, x, b)",
            "[" + "not (true and " * 5_000 + "p(a, x, b)" + ")" * 5_000 + "] -> delta",
            "pi(a, x, b) . (delta + (pi(b, y, a) || " * 2_000 + "ok" + "))" * 2_000,
            "[" + "forall v != a : " * 5_000 + "p(v, x, b) => false] -> delta",
        ],
        ids=["parentheses", "guards", "condition", "operators", "quantifiers"],
    )
    def test_deep_input_parses_and_renders(self, text):
        term = parse_term(text, GEN_MODEL)
        rendered = str(term)
        again = parse_term(rendered, GEN_MODEL)
        assert again == term and hash(again) == hash(term) and str(again) == rendered
        # every text but the parenthesized one is canonical
        assert rendered == ("pi(a, x, b)" if text.startswith("(") else text)


class TestTraceFiles:
    def test_bundled_trace(self, ride, ride_events):
        assert len(ride_events) == 6
        assert str(ride_events[0]) == "pi(ja, tbc2JUB, ma)"
        assert str(ride_events[3]) == "pi(ma, !~tbc2JUB, ju)"

    def test_comments_and_blanks_ignored(self, ride_model):
        events = parse_trace("# intro\n\npi(ja, tbc2JUB, ma)  # offer\n", ride_model)
        assert len(events) == 1

    def test_bad_event_position(self, ride_model):
        with pytest.raises(ParseError) as exc:
            parse_trace("pi(ja, tbc2JUB, ma)\npx(ja, tbc2JUB, ma)\n", ride_model)
        assert exc.value.line == 2


SPACES = st.sampled_from(["", " ", "  ", "\t", "\u00a0"])  # the last a no-break space
AGENT_NAMES = st.sampled_from(["a", "b", "c", "zz", "pi", "delta", "a1_"])
ATOM_NAMES = st.sampled_from(["x", "y", "q", "ok", "x2"])


@st.composite
def event_texts(draw):
    """Event-like texts: plain events, delegated ones, unknown agents and
    atoms, reserved words, wrong heads, missing or extra tokens."""
    head = draw(st.sampled_from(["pi", "pw", "pi", "pw", "p", "px", "pii"]))
    prefixes = draw(st.lists(st.sampled_from(["!", "~"]), max_size=3))
    body = [*prefixes, draw(ATOM_NAMES)]
    if draw(st.booleans()):  # prefixes written apart
        body = [" ".join(body[:-1]) + draw(SPACES) + body[-1]] if prefixes else body
    else:
        body = ["".join(body)]
    parts = [head, "(", draw(AGENT_NAMES)]
    if draw(st.integers(0, 3)) == 0:
        parts += ["[", draw(AGENT_NAMES), "]"]
    parts += [",", *body, ",", draw(AGENT_NAMES)]
    if draw(st.integers(0, 3)) == 0:
        parts += ["[", draw(AGENT_NAMES), "]"]
    parts.append(")")
    if draw(st.integers(0, 4)) == 0:  # a token dropped or doubled
        at = draw(st.integers(0, len(parts) - 1))
        parts[at:at + 1] = draw(st.sampled_from([[], [parts[at]] * 2]))
    text = "".join(part + draw(SPACES) for part in parts)
    return text + draw(st.sampled_from(["", " junk", ")", " $", ", pi(a, x, b)", " . pi(b, y, a)"]))


def _answer(parse):
    """What a parse gives: its value, or its error's class, message, line
    and column."""
    try:
        value = parse()
    except (ParseError, ValidationError) as err:
        return type(err), str(err), getattr(err, "line", None), getattr(err, "column", None)
    return type(value), value


def _token_by_token(monkeypatch):
    """Make the parser read every event through its general path: no event
    tokens and no plain-event reads."""
    monkeypatch.setattr(dsl, "_SCAN_RE", dsl._TOKEN_RE)
    monkeypatch.setattr(dsl, "_plain_event", lambda match, model: None)


class TestEventFastPath:
    """Plain events are read in one match; every other shape, and every
    diagnostic, comes from the general path. Both give the same answer."""

    HEADER = "agent a b c\ntype t\ntask x : t\ntask y : t\ntask x2 : t\n"

    def _texts(self, event: str) -> dict:
        h = self.HEADER
        return {
            "term": lambda: parse_term(event, GEN_MODEL),
            "sequence": lambda: parse_term(f"pi(a, x, b) . {event} + delta", GEN_MODEL),
            "trace": lambda: parse_trace(f"pi(a, x, b)\n{event}\n  {event}  # note\n", GEN_MODEL),
            "run": lambda: parse_scenario(f"{h}run {event} || {event}\n"),
            "def": lambda: parse_scenario(f"{h}def d = [true] -> {event}\nrun d . d\n"),
            "init": lambda: parse_scenario(f"{h}init {event}\nrun delta\n"),
            # an event where the syntax wants something else
            "agent": lambda: parse_scenario(f"agent a {event}\nrun delta\n"),
            "directive": lambda: parse_scenario(f"{h}{event}\nrun delta\n"),
            "body": lambda: parse_scenario(f"{h}run pi(a, {event}, b)\n"),
            "condition": lambda: parse_scenario(f"{h}run [p(a, x, b) and {event}] -> delta\n"),
            "promiser": lambda: parse_scenario(f"{h}run [p({event}, x, b)] -> delta\n"),
            "protocol": lambda: parse_scenario(f"{h}run protocol({event}, b, x)\n"),
            "quantifier": lambda: parse_scenario(f"{h}run [forall {event} != a : true] -> delta\n"),
        }

    @settings(max_examples=300, deadline=None)
    @given(event_texts())
    def test_fast_and_general_paths_agree(self, event):
        fast = {name: _answer(parse) for name, parse in self._texts(event).items()}
        with pytest.MonkeyPatch.context() as monkeypatch:
            _token_by_token(monkeypatch)
            general = {name: _answer(parse) for name, parse in self._texts(event).items()}
        assert fast == general

    def test_plain_events_take_the_fast_path(self, monkeypatch):
        read, plain = [], dsl._plain_event
        monkeypatch.setattr(dsl, "_plain_event", lambda match, model: read.append(match[0]) or plain(match, model))
        monkeypatch.setattr(dsl, "_agent", None)  # the general path's agent reader
        a, b = GEN_MODEL.agent("a"), GEN_MODEL.agent("b")
        term = parse_term("pi(a, ~x, b) . pw( b ,!~y, a)", GEN_MODEL)
        assert term == Seq(
            Act(IntroduceEvent(a, GEN_MODEL.body("~x"), b)), Act(WithdrawEvent(b, GEN_MODEL.body("!~y"), a))
        )
        assert parse_trace("pi(a, ~x, b)\n", GEN_MODEL) == [term.left.event]
        assert read == ["pi(a, ~x, b)", "pw( b ,!~y, a)", "pi(a, ~x, b)"]


GOLDEN = Path(__file__).parent / "golden"


def _term_events(term) -> list:
    """The events of a term's actions, in the order written."""
    found, pending = [], [term]
    while pending:
        node = pending.pop()
        if isinstance(node, Act):
            found.append(node.event)
        else:
            pending += reversed([getattr(node, name) for name in ("left", "right", "body") if hasattr(node, name)])
    return found


class TestEventTable:
    """A plain event is resolved once per model: a second read of the same
    text under the model gives the same object."""

    def test_a_trace_replays_the_scenarios_own_events(self):
        # 200 plain events, each written once in the run line and once in the trace
        scenario = parse_scenario((GOLDEN / "deep_sequential.promise").read_text())
        events = parse_trace((GOLDEN / "deep_sequential_trace.txt").read_text(), scenario.model)
        assert len(events) == 200
        assert [id(event) for event in events] == [id(event) for event in _term_events(scenario.entry)]

    def test_a_trace_read_twice_gives_the_same_objects(self):
        # jub.promise's events are made by protocol(...), not read as text:
        # the first read of the trace resolves each line, the second finds it
        scenario = parse_scenario(corpus_text("jub.promise"))
        first = parse_trace(corpus_text("jub_trace.txt"), scenario.model)
        again = parse_trace(corpus_text("jub_trace.txt"), scenario.model)
        assert list(map(id, again)) == list(map(id, first))
        assert set(first) <= set(_term_events(scenario.entry))

    def test_another_model_has_equal_events_of_its_own(self):
        text = corpus_text("jub_trace.txt")
        first = parse_trace(text, parse_scenario(corpus_text("jub.promise")).model)
        second = parse_trace(text, parse_scenario(corpus_text("jub.promise")).model)
        assert first == second
        assert not {id(event) for event in first} & {id(event) for event in second}

    def test_cancelling_prefixes_give_equal_events(self):
        model = PromiseModel.create(agents=("a", "b"), types=("t",), atoms={"x": "t"})
        plain, doubled = parse_trace("pi(a, ~x, b)\npi(a, !!~x, b)\n", model)
        assert plain == doubled and plain.body is doubled.body

    @pytest.mark.parametrize(
        "line, message",
        [
            ("pi(zz, x, b)", "line 2, column 4: unknown agent 'zz'"),
            ("pi(a, x, zz)", "line 2, column 10: unknown agent 'zz'"),
            ("pw(a, !q, b)", "line 2, column 7: unknown task atom 'q'"),
        ],
    )
    def test_unknown_names_keep_their_diagnostics(self, line, message):
        model = PromiseModel.create(agents=("a", "b"), types=("t",), atoms={"x": "t"})
        text = f"pi(a, x, b)\n{line}\n"
        for filled in (False, True):
            with pytest.raises(ValidationError) as exc:
                parse_trace(text, model)
            assert str(exc.value) == message, filled
            assert not any({"zz", "q"} & set(parts) for parts in model._events)  # a miss is not kept
            parse_term("pi(a, x, b) . pw(a, x, b) . pi(b, ~x, a)", model)
