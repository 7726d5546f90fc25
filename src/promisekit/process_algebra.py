"""Process terms with choice, sequence, interleaving and guards, plus the
small-step semantics over (term, state) configurations.

Actions are the promise speech acts. A disabled action contributes no
transition at all (local deadlock), so alternative composition naturally
selects live branches. Guards are evaluated against the state at the
instant the guarded action fires; guard and action form one atomic step,
which keeps exclusiveness sound under interleaving. Parallel composition
is free interleaving only; there is no communication.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

from .promise_state import (
    Agent,
    GeneralizedPromise,
    Promise,
    PromiseModel,
    State,
    pw_enabled,
    try_introduce,
    withdraw,
)
from .task_algebra import (
    StoredHash,
    TaskBody,
    is_exclusive,
    is_positive,
    is_service,
    negate,
    usage,
)

__all__ = [
    "AgentVar",
    "AgentRef",
    "IntroduceEvent",
    "WithdrawEvent",
    "GeneralizedIntroduceEvent",
    "Event",
    "TrueConst",
    "FalseConst",
    "HasPromise",
    "IsExclusive",
    "Not",
    "And",
    "Or",
    "Implies",
    "ForAllAgents",
    "Condition",
    "Done",
    "Deadlock",
    "Act",
    "Seq",
    "Alt",
    "Par",
    "Guard",
    "ProcessTerm",
    "DONE",
    "DEADLOCK",
    "TRUE",
    "FALSE",
    "Configuration",
    "eval_condition",
    "step",
    "can_terminate",
    "make_protocol",
    "event_promise",
    "UnboundVariable",
    "InvalidBody",
]


# ---------------------------------------------------------------------------
# events

@dataclass(frozen=True, slots=True)
class IntroduceEvent(StoredHash):
    promiser: Agent
    body: TaskBody
    promisee: Agent

    def __str__(self) -> str:
        return f"pi({self.promiser}, {self.body}, {self.promisee})"


@dataclass(frozen=True, slots=True)
class WithdrawEvent(StoredHash):
    promiser: Agent
    body: TaskBody
    promisee: Agent

    def __str__(self) -> str:
        return f"pw({self.promiser}, {self.body}, {self.promisee})"


@dataclass(frozen=True, slots=True)
class GeneralizedIntroduceEvent(StoredHash):
    promiser: Agent
    performer: Agent
    body: TaskBody
    promisee: Agent
    beneficiary: Agent

    def __str__(self) -> str:
        return (
            f"pi({self.promiser}[{self.performer}], {self.body}, "
            f"{self.promisee}[{self.beneficiary}])"
        )


Event = Union[IntroduceEvent, WithdrawEvent, GeneralizedIntroduceEvent]


def event_promise(event: Event) -> Promise | GeneralizedPromise:
    """The promise an event speaks about."""
    if isinstance(event, GeneralizedIntroduceEvent):
        return GeneralizedPromise(
            event.promiser, event.performer, event.body, event.promisee, event.beneficiary
        )
    return Promise(event.promiser, event.body, event.promisee)


# ---------------------------------------------------------------------------
# conditions

@dataclass(frozen=True, slots=True)
class AgentVar:
    """An agent slot bound by an enclosing quantifier."""

    name: str

    def __str__(self) -> str:
        return self.name


AgentRef = Union[Agent, AgentVar]


@dataclass(frozen=True, slots=True)
class TrueConst:
    def __str__(self) -> str:
        return "true"


@dataclass(frozen=True, slots=True)
class FalseConst:
    def __str__(self) -> str:
        return "false"


@dataclass(frozen=True, slots=True)
class HasPromise:
    promiser: AgentRef
    body: TaskBody
    promisee: AgentRef

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class IsExclusive:
    body: TaskBody

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class Not:
    operand: "Condition"

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class And:
    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class Or:
    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class Implies:
    left: "Condition"
    right: "Condition"

    def __str__(self) -> str:
        return _render_condition(self)[0]


@dataclass(frozen=True, slots=True)
class ForAllAgents:
    """Conjunction of the body over every model agent except ``excluding``,
    with the agent bound to ``var``."""

    var: str
    excluding: AgentRef
    body: "Condition"

    def __str__(self) -> str:
        return _render_condition(self)[0]


Condition = Union[
    TrueConst, FalseConst, HasPromise, IsExclusive, Not, And, Or, Implies, ForAllAgents
]

TRUE = TrueConst()
FALSE = FalseConst()


def _render_condition(cond: Condition) -> tuple[str, int]:
    # minimal parentheses: implication is right-associative and binds
    # loosest; quantifiers are parenthesized whenever they appear as an
    # operand so their (maximal) body stays unambiguous
    if isinstance(cond, (TrueConst, FalseConst)):
        return str(cond), 5
    if isinstance(cond, HasPromise):
        return f"p({cond.promiser}, {cond.body}, {cond.promisee})", 5
    if isinstance(cond, IsExclusive):
        return f"E({cond.body})", 5
    if isinstance(cond, Not):
        return f"not {_cond_child(cond.operand, 4)}", 4
    if isinstance(cond, And):
        return f"{_cond_child(cond.left, 3)} and {_cond_child(cond.right, 4)}", 3
    if isinstance(cond, Or):
        return f"{_cond_child(cond.left, 2)} or {_cond_child(cond.right, 3)}", 2
    if isinstance(cond, Implies):
        return f"{_cond_child(cond.left, 2)} => {_cond_child(cond.right, 1)}", 1
    if isinstance(cond, ForAllAgents):
        body = _cond_child(cond.body, 0)
        return f"forall {cond.var} != {cond.excluding} : {body}", 0
    raise TypeError(f"not a condition: {cond!r}")


def _cond_child(cond: Condition, min_prec: int) -> str:
    text, prec = _render_condition(cond)
    return f"({text})" if prec < min_prec else text


class UnboundVariable(ValueError):
    """A condition was evaluated with a quantifier variable unbound."""


def _resolve(ref: AgentRef, env: dict[str, Agent]) -> Agent:
    if isinstance(ref, Agent):
        return ref
    if ref.name in env:
        return env[ref.name]
    raise UnboundVariable(f"unbound agent variable {ref.name!r}")


def eval_condition(
    model: PromiseModel,
    cond: Condition,
    state: State,
    env: dict[str, Agent] | None = None,
) -> bool:
    """Evaluate a closed condition against a state."""
    env = env or {}
    if isinstance(cond, TrueConst):
        return True
    if isinstance(cond, FalseConst):
        return False
    if isinstance(cond, HasPromise):
        promise = Promise(_resolve(cond.promiser, env), cond.body, _resolve(cond.promisee, env))
        return promise in state
    if isinstance(cond, IsExclusive):
        return is_exclusive(model.exclusiveness, cond.body)
    if isinstance(cond, Not):
        return not eval_condition(model, cond.operand, state, env)
    if isinstance(cond, And):
        return eval_condition(model, cond.left, state, env) and eval_condition(
            model, cond.right, state, env
        )
    if isinstance(cond, Or):
        return eval_condition(model, cond.left, state, env) or eval_condition(
            model, cond.right, state, env
        )
    if isinstance(cond, Implies):
        return (not eval_condition(model, cond.left, state, env)) or eval_condition(
            model, cond.right, state, env
        )
    if isinstance(cond, ForAllAgents):
        excluded = _resolve(cond.excluding, env)
        return all(
            eval_condition(model, cond.body, state, {**env, cond.var: agent})
            for agent in model.agents
            if agent != excluded
        )
    raise TypeError(f"not a condition: {cond!r}")


# ---------------------------------------------------------------------------
# terms

@dataclass(frozen=True, slots=True)
class Done:
    """The successfully terminated process."""

    terminates = True

    def __str__(self) -> str:
        return "ok"


@dataclass(frozen=True, slots=True)
class Deadlock:
    """The process with no behaviour at all."""

    terminates = False

    def __str__(self) -> str:
        return "delta"


class _Term(StoredHash):
    """Terms with parts store their hash: exploration keeps configurations
    in sets, and recomputing a deep hash at every lookup would dominate."""

    __slots__ = ()
    terminates = False

    def __str__(self) -> str:
        return _render_term(self)[0]


class _Binary(_Term):
    """Seq, Alt and Par also store ``terminates``, derived from their
    children's stored values, so that no termination test walks a term."""

    __slots__ = ("terminates",)
    chains = True
    either = False  # one terminating side suffices (choice)
    symbol, binding = "", 0  # the operator, and how strongly it binds

    def __post_init__(self):
        StoredHash.__post_init__(self)
        left, right = self.left.terminates, self.right.terminates
        object.__setattr__(self, "terminates", (left or right) if self.either else (left and right))


@dataclass(frozen=True, slots=True)
class Act(_Term):
    event: Event


@dataclass(frozen=True, slots=True)
class Seq(_Binary):
    left: "ProcessTerm"
    right: "ProcessTerm"

    symbol, binding = ".", 2


@dataclass(frozen=True, slots=True)
class Alt(_Binary):
    left: "ProcessTerm"
    right: "ProcessTerm"

    either = True
    symbol, binding = "+", 1


@dataclass(frozen=True, slots=True)
class Par(_Binary):
    left: "ProcessTerm"
    right: "ProcessTerm"

    symbol, binding = "||", 0


@dataclass(frozen=True, slots=True)
class Guard(_Term):
    condition: Condition
    body: "ProcessTerm"


ProcessTerm = Union[Done, Deadlock, Act, Seq, Alt, Par, Guard]

DONE = Done()
DEADLOCK = Deadlock()


def _render_term(term: ProcessTerm) -> tuple[str, int]:
    # binding strength: `.` over `+` over `||`; guards prefix one operand;
    # a chain of one operator down the left operands is a loop, so that
    # any length renders
    if isinstance(term, Done):
        return "ok", 4
    if isinstance(term, Deadlock):
        return "delta", 4
    if isinstance(term, Act):
        return str(term.event), 4
    if isinstance(term, _Binary):
        kind, binding, joint = type(term), term.binding, f" {term.symbol} "
        text = _term_child(term.right, binding + 1)
        while isinstance(term.left, kind):
            term = term.left
            text = _term_child(term.right, binding + 1) + joint + text
        return _term_child(term.left, binding) + joint + text, binding
    if isinstance(term, Guard):
        return f"[{term.condition}] -> {_term_child(term.body, 3)}", 3
    raise TypeError(f"not a process term: {term!r}")


def _term_child(term: ProcessTerm, min_prec: int) -> str:
    text, prec = _render_term(term)
    return f"({text})" if prec < min_prec else text


@dataclass(frozen=True, slots=True)
class Configuration(StoredHash):
    """A process term paired with the promise state it runs against."""

    term: ProcessTerm
    state: State


def can_terminate(term: ProcessTerm) -> bool:
    """Whether the term may finish successfully without further steps.

    Sequence and parallel require both sides, choice either side; guards
    never terminate by themselves, they must fire through their body.
    """
    return term.terminates


def step(model: PromiseModel, config: Configuration) -> set[tuple[Event, Configuration]]:
    """All one-step transitions of a configuration."""
    return {
        (event, Configuration(term, state))
        for event, term, state in _moves(model, config.term, config.state)
    }


def _moves(model: PromiseModel, term: ProcessTerm, state: State) -> list[tuple[Event, ProcessTerm, State]]:
    """The transitions of ``step`` as (event, term, state), possibly
    repeated. A chain of binary operators down the left operands (a
    sequence's spine, a choice or interleaving of many operands) is walked
    with a loop, from the innermost level out: each level combines the
    moves so far with its right operand's."""
    spine = []
    while isinstance(term, _Binary):
        spine.append(term)
        term = term.left
    if isinstance(term, Act):
        moves = _act_moves(model, term.event, state)
    elif isinstance(term, Guard):
        moves = _moves(model, term.body, state) if eval_condition(model, term.condition, state) else []
    elif isinstance(term, (Done, Deadlock)):
        moves = []
    else:
        raise TypeError(f"not a process term: {term!r}")
    for level in reversed(spine):
        right = level.right
        if isinstance(level, Seq):
            moves = [(event, Seq(succ, right), after) for event, succ, after in moves]
            if level.left.terminates:
                moves += _moves(model, right, state)
        elif isinstance(level, Alt):
            moves += _moves(model, right, state)
        else:
            left = level.left
            moves = [(event, Par(succ, right), after) for event, succ, after in moves]
            moves += [(event, Par(left, succ), after) for event, succ, after in _moves(model, right, state)]
    return moves


def _act_moves(model: PromiseModel, event: Event, state: State) -> list[tuple[Event, ProcessTerm, State]]:
    if isinstance(event, IntroduceEvent):
        after = try_introduce(model, state, event_promise(event))
    elif isinstance(event, WithdrawEvent):
        promise = event_promise(event)
        after = withdraw(state, promise) if pw_enabled(state, promise) else None
    elif isinstance(event, GeneralizedIntroduceEvent):
        gp = event_promise(event)
        after = try_introduce(model, state, gp.induced()) if gp.compliance() in state else None
    else:
        raise TypeError(f"not an event: {event!r}")
    return [] if after is None else [(event, DONE, after)]


class InvalidBody(ValueError):
    """The negotiation protocol is only defined for positive services."""


def make_protocol(model: PromiseModel, initiator: Agent, responder: Agent, body: TaskBody) -> ProcessTerm:
    """The offer/answer protocol for introducing ``initiator:body->responder``.

    The initiator offers the body. The responder either accepts by promising
    to use it -- guarded so that an exclusive usage is never accepted from
    two sides -- or declines by promising *not* to use it, after which both
    parties withdraw in parallel.
    """
    if not (is_service(body) and is_positive(body)):
        raise InvalidBody(f"protocol bodies must be positive services, got {body}")
    use = usage(body)
    refusal = negate(use)
    var = "c" if initiator.name != "c" else "c_"
    accept_guard = Implies(
        IsExclusive(use),
        ForAllAgents(var, initiator, Not(HasPromise(responder, use, AgentVar(var)))),
    )
    accept = Guard(accept_guard, Act(IntroduceEvent(responder, use, initiator)))
    decline = Seq(
        Act(IntroduceEvent(responder, refusal, initiator)),
        Par(
            Act(WithdrawEvent(initiator, body, responder)),
            Act(WithdrawEvent(responder, refusal, initiator)),
        ),
    )
    return Seq(Act(IntroduceEvent(initiator, body, responder)), Alt(accept, decline))
