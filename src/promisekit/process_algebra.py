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


class _Node(StoredHash):
    """Terms, and the conditions made of other conditions: they nest to
    any depth, so they store their hash, compare with an explicit stack
    and render with ``_render``. Each compound class carries its row of
    the operator table: a binary operator's ``symbol``, ``binding`` and
    associativity, or a prefix's ``binding``, which is also the least
    binding its operand needs to go without parentheses. Prefixes
    override ``_pieces``."""

    __slots__ = ()
    nests = True
    right_assoc = False

    def __str__(self) -> str:
        return _render(self)

    def _pieces(self) -> tuple:
        """A binary operator's text, in order: strings, and (operand,
        least binding it needs to go without parentheses) pairs."""
        shift = self.right_assoc
        return (self.left, self.binding + shift), f" {self.symbol} ", (self.right, self.binding + 1 - shift)


@dataclass(frozen=True, slots=True)
class HasPromise:
    promiser: AgentRef
    body: TaskBody
    promisee: AgentRef

    def __str__(self) -> str:
        return f"p({self.promiser}, {self.body}, {self.promisee})"


@dataclass(frozen=True, slots=True)
class IsExclusive:
    body: TaskBody

    def __str__(self) -> str:
        return f"E({self.body})"


@dataclass(frozen=True, slots=True)
class Not(_Node):
    operand: "Condition"

    binding = 4

    def _pieces(self) -> tuple:
        return "not ", (self.operand, self.binding)


@dataclass(frozen=True, slots=True)
class And(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding = "and", 3


@dataclass(frozen=True, slots=True)
class Or(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding = "or", 2


@dataclass(frozen=True, slots=True)
class Implies(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding, right_assoc = "=>", 1, True


@dataclass(frozen=True, slots=True)
class ForAllAgents(_Node):
    """Conjunction of the body over every model agent except ``excluding``,
    with the agent bound to ``var``. The body extends as far as it can."""

    var: str
    excluding: AgentRef
    body: "Condition"

    binding = 0

    def _pieces(self) -> tuple:
        return f"forall {self.var} != {self.excluding} : ", (self.body, self.binding)


Condition = Union[
    TrueConst, FalseConst, HasPromise, IsExclusive, Not, And, Or, Implies, ForAllAgents
]

TRUE = TrueConst()
FALSE = FalseConst()


def _render(node: "ProcessTerm | Condition") -> str:
    """The text of a term or condition with the fewest parentheses: an
    operand is parenthesized only when it binds less tightly than its
    place needs. Pending strings and (node, least binding) items wait on
    a stack, so that no recursion limit bounds the depth rendered."""
    out: list[str] = []
    pending: list = [(node, 0)]
    while pending:
        item = pending.pop()
        if item.__class__ is str:
            out.append(item)
            continue
        node, least = item
        binding = getattr(node, "binding", None)
        if binding is None:  # a leaf
            out.append(str(node))
            continue
        if binding < least:
            out.append("(")
            pending.append(")")
        pending += reversed(node._pieces())
    return "".join(out)


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
    """Evaluate a closed condition against a state. ``and``, ``or``,
    ``=>`` and ``forall`` stop at the operand that decides them; the
    operators that wait for an operand's value are on a stack."""
    env = env or {}
    waiting: list = []  # (operator, its env, the agents a forall has yet to try)
    while True:
        cls = cond.__class__
        if cls is Not or cls is And or cls is Or or cls is Implies:
            waiting.append((cond, env, None))
            cond = cond.operand if cls is Not else cond.left
            continue
        if cls is HasPromise:
            value = Promise(_resolve(cond.promiser, env), cond.body, _resolve(cond.promisee, env)) in state
        elif cls is IsExclusive:
            value = is_exclusive(model.exclusiveness, cond.body)
        elif cls is TrueConst or cls is FalseConst:
            value = cls is TrueConst
        elif cls is ForAllAgents:
            excluded = _resolve(cond.excluding, env)
            waiting.append((cond, env, iter([agent for agent in model.agents if agent != excluded])))
            value = True  # the conjunction over no agent tried so far
        else:
            raise TypeError(f"not a condition: {cond!r}")
        # hand the value up until an operator needs its next operand
        while waiting:
            node, outer, agents = waiting[-1]
            cls = node.__class__
            if cls is ForAllAgents:
                agent = next(agents, None) if value else None
                if agent is not None:
                    cond, env = node.body, {**outer, node.var: agent}
                    break
                waiting.pop()
                continue
            waiting.pop()
            if cls is Not:
                value = not value
            elif value == (cls is not Or):  # the right operand decides
                cond, env = node.right, outer
                break
            else:
                value = cls is not And
        else:
            return value


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


class _Term(_Node):
    """Terms with parts store their hash (see ``_Node``): exploration keeps
    configurations in sets, and recomputing a deep hash at every lookup
    would dominate."""

    __slots__ = ()
    terminates = False


class _Binary(_Term):
    """Seq, Alt and Par also store ``terminates``, derived from their
    children's stored values, so that no termination test walks a term."""

    __slots__ = ("terminates",)
    either = False  # one terminating side suffices (choice)

    def __post_init__(self):
        StoredHash.__post_init__(self)
        left, right = self.left.terminates, self.right.terminates
        object.__setattr__(self, "terminates", (left or right) if self.either else (left and right))


@dataclass(frozen=True, slots=True)
class Act(_Term):
    event: Event

    def __str__(self) -> str:
        return str(self.event)


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
    """The guard prefixes the smallest term to its right."""

    condition: Condition
    body: "ProcessTerm"

    binding = 3

    def _pieces(self) -> tuple:
        return "[", (self.condition, 0), "] -> ", (self.body, self.binding)


ProcessTerm = Union[Done, Deadlock, Act, Seq, Alt, Par, Guard]

DONE = Done()
DEADLOCK = Deadlock()


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
    repeated, in no particular order. Each pending subterm carries the
    operands that enclose it, as a chain of (class, sibling, whether the
    subterm is the left operand, enclosing chain); an enabled action's
    successor is rebuilt from that chain. A choice, a guard and a sequence
    whose left side has terminated leave no trace in the successor."""
    moves = []
    pending: list = [(term, None)]
    while pending:
        term, context = pending.pop()
        cls = term.__class__
        if cls is Seq:
            pending.append((term.left, (Seq, term.right, True, context)))
            if term.left.terminates:
                pending.append((term.right, context))
        elif cls is Par:
            pending.append((term.left, (Par, term.right, True, context)))
            pending.append((term.right, (Par, term.left, False, context)))
        elif cls is Alt:
            pending.append((term.left, context))
            pending.append((term.right, context))
        elif cls is Act:
            for event, succ, after in _act_moves(model, term.event, state):
                enclosing = context
                while enclosing is not None:
                    kind, sibling, on_left, enclosing = enclosing
                    succ = kind(succ, sibling) if on_left else kind(sibling, succ)
                moves.append((event, succ, after))
        elif cls is Guard:
            if eval_condition(model, term.condition, state):
                pending.append((term.body, context))
        elif cls is not Done and cls is not Deadlock:
            raise TypeError(f"not a process term: {term!r}")
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
