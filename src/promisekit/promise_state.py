"""Promises, states, and the speech acts that move between states.

A state is a set of basic promises ``a:x->b`` no two of which clash (see
``clash``): an agent never holds incompatible bodies toward the same
counterparty, nor an exclusive body toward two. Introduction adds a
promise when it clashes with nothing in the state, withdrawal removes a
present one. Delegated promises (``a[c]:x->b[d]``) are never stored; when
the performer has promised compliance to the promiser they immediately
induce the basic promise ``c:x->d``.

Two conflict-checking modes exist. The default checks conflicts per
(promiser, promisee) dyad. The strict mode checks an introduction against
*all* of the promiser's outstanding promises regardless of promisee, which
is noticeably more restrictive (it rules out simultaneously promising a
body to one agent and its negation to another). The mode is carried on the
model so that every rule, the interpreter, and the explorer agree on it.

Each model numbers the promises it meets, one bit each, and keeps for
every bit the mask of numbered promises that clash with it (see
``_Table``). A promise is enabled when the held bits ANDed with its mask
are zero, and the invariant is a mask test per held promise. Bits stay
inside the engine: a ``State`` is a set of promises, and the table
converts between the two.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Mapping, Union

from .task_algebra import (
    COMPLIANCE_TYPE,
    GAMMA,
    GAMMA_ATOM,
    ExclusivenessRegistry,
    IncompatibilityRelation,
    TaskAtom,
    TaskBody,
    TypeTag,
    UnknownAtom,
    body_form,
    build_incompatibility,
    _put,
    parse_body,
    value,
)

__all__ = [
    "Agent",
    "SubordinationOrder",
    "PromiseModel",
    "Promise",
    "GeneralizedPromise",
    "State",
    "EMPTY_STATE",
    "ObligationWarning",
    "clash",
    "pi_enabled",
    "introduce",
    "pw_enabled",
    "withdraw",
    "introduce_generalized",
    "obligation_warnings",
    "state_clashes",
    "is_conflict_free",
    "ModelError",
    "SubordinationCycle",
    "TransitionError",
    "NotEnabled",
    "NotPresent",
    "NoCompliance",
]


@value
class Agent:
    name: str

    def __str__(self) -> str:
        return self.name


class ModelError(ValueError):
    """The model declarations are inconsistent (duplicate, unknown or
    reserved names, or an invalid subordination order)."""


class SubordinationCycle(ModelError):
    """Two distinct agents are subordinated to each other."""


@value
class SubordinationOrder:
    """Partial order on agents; ``(low, high)`` means low answers to high.

    The reflexive part is implicit; the stored closure is the transitive
    closure of the declared pairs, validated to be antisymmetric.
    """

    declared: frozenset[tuple[Agent, Agent]]
    closure: frozenset[tuple[Agent, Agent]]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[Agent, Agent]]) -> "SubordinationOrder":
        """The order the pairs declare. Every cycle holds a declared pair,
        so a cycle is reported at the first pair, in the order given, whose
        reverse the closure holds."""
        given = [(low, high) for low, high in pairs if low != high]
        above: dict[Agent, list[Agent]] = {}
        for low, high in given:
            above.setdefault(low, []).append(high)
        closure = set()
        for low, highs in above.items():  # each agent's search up the declared pairs
            pending = list(highs)
            while pending:
                high = pending.pop()
                if high != low and (low, high) not in closure:
                    closure.add((low, high))
                    pending.extend(above.get(high, ()))
        for a, b in given:
            if (b, a) in closure:
                raise SubordinationCycle(f"agents {a} and {b} are subordinated to each other")
        return cls(declared=frozenset(given), closure=frozenset(closure))

    def subordinate(self, low: Agent, high: Agent) -> bool:
        return low == high or (low, high) in self.closure


BodySpec = Union[str, TaskBody]


@dataclass(frozen=True)
class PromiseModel:
    """The static world a negotiation runs in: agents and their subordination
    order, typed task atoms, the incompatibility closure, the exclusiveness
    registry of the model's own bodies, and the conflict-checking mode."""

    agents: tuple[Agent, ...]
    order: SubordinationOrder
    types: tuple[TypeTag, ...]
    atoms: tuple[TaskAtom, ...]
    incompatibility: IncompatibilityRelation
    exclusiveness: ExclusivenessRegistry
    strict_conflicts: bool = False
    # agents by name; every body of every atom, made once, by (atom name,
    # usage, negated); the numbered promises, made with the model; and the
    # plain events the parser found, by their texts' parts (see ``dsl._plain_event``)
    _agents_by_name: Mapping[str, Agent] = field(init=False, repr=False, compare=False)
    _bodies: Mapping[tuple[str, bool, bool], TaskBody] = field(init=False, repr=False, compare=False)
    _table: _Table = field(init=False, repr=False, compare=False)
    _events: dict[tuple[str, ...], object] = field(init=False, repr=False, compare=False)
    # the compiled terms of the process engine (``process_algebra._Engine``),
    # made at the first step under this model
    _engine: object = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def create(
        cls,
        agents: Iterable[str],
        types: Iterable[str] = (),
        atoms: Mapping[str, str] | None = None,
        subordination: Iterable[tuple[str, str]] = (),
        incompatible_pairs: Iterable[tuple[BodySpec, BodySpec]] = (),
        exclusive: Iterable[BodySpec] = (),
        strict_conflicts: bool = False,
    ) -> "PromiseModel":
        """Build and validate a model. The compliance type and atom are
        injected automatically and may not be redeclared."""
        by_name: dict[str, Agent] = {}
        for name in agents:
            if not name:
                raise ModelError("agent names must be nonempty")
            if name in by_name:
                raise ModelError(f"duplicate agent {name!r}")
            by_name[name] = Agent(name)

        type_map: dict[str, TypeTag] = {}
        for name in types:
            if name == COMPLIANCE_TYPE.name:
                raise ModelError(f"type {name!r} is reserved")
            if not name:
                raise ModelError("type names must be nonempty")
            if name in type_map:
                raise ModelError(f"duplicate type {name!r}")
            type_map[name] = TypeTag(name)
        all_types = (*type_map.values(), COMPLIANCE_TYPE)

        atom_map: dict[str, TaskAtom] = {}
        for name, type_name in (atoms or {}).items():
            if name == GAMMA_ATOM.name:
                raise ModelError(f"atom {name!r} is reserved")
            if type_name == COMPLIANCE_TYPE.name:
                raise ModelError(f"type {COMPLIANCE_TYPE.name!r} is reserved for the compliance atom")
            if type_name not in type_map:
                raise ModelError(f"atom {name!r} has unknown type {type_name!r}")
            atom_map[name] = TaskAtom(name, type_map[type_name])
        all_atoms = (*atom_map.values(), GAMMA_ATOM)
        atom_map[GAMMA_ATOM.name] = GAMMA_ATOM

        order_pairs = []
        for low, high in subordination:
            if low not in by_name or high not in by_name:
                raise ModelError(f"subordination over unknown agent: {low} <= {high}")
            order_pairs.append((by_name[low], by_name[high]))
        order = SubordinationOrder.from_pairs(order_pairs)

        def body(spec: BodySpec) -> TaskBody:
            return parse_body(spec, atom_map) if isinstance(spec, str) else spec

        relation = build_incompatibility(
            all_atoms, [(body(x), body(y)) for x, y in incompatible_pairs]
        )
        return cls(
            agents=tuple(by_name.values()),
            order=order,
            types=all_types,
            atoms=all_atoms,
            incompatibility=relation,
            exclusiveness=ExclusivenessRegistry(frozenset(body(b) for b in exclusive)),
            strict_conflicts=strict_conflicts,
        )

    def __post_init__(self):
        _put(self, "_agents_by_name", {a.name: a for a in self.agents})
        # ``create``'s relation holds every form; one made by hand may lack some: make those
        atoms = set(self.atoms)
        bodies = {(b.atom.name, b.usage, b.negated): b for b in self.incompatibility.partners if b.atom in atoms}
        for atom in self.atoms if len(bodies) < 4 * len(atoms) else ():
            for form in ((atom.name, usage, negated) for negated in (False, True) for usage in (False, True)):
                if form not in bodies:
                    bodies[form] = TaskBody(atom, *form[1:])
        _put(self, "_bodies", bodies)
        _put(self, "exclusiveness", ExclusivenessRegistry(frozenset(map(self.interned, self.exclusiveness.exclusive))))
        _put(self, "_table", _Table())
        _put(self, "_events", {})

    def agent(self, name: str) -> Agent:
        if name not in self._agents_by_name:
            raise ModelError(f"unknown agent {name!r}")
        return self._agents_by_name[name]

    def body(self, text: str) -> TaskBody:
        """The model's own object for the body the text names."""
        form = body_form(text)
        body = self._bodies.get(form)
        if body is None:
            raise UnknownAtom(f"unknown task atom {form[0]!r}")
        return body

    def interned(self, body: TaskBody) -> TaskBody:
        """The model's own object for a body equal to ``body``, or ``body``
        when the model has none."""
        own = self._bodies.get((body.atom.name, body.usage, body.negated))
        return own if own == body else body

    def promise(self, promiser: str, body: str, promisee: str) -> "Promise":
        return Promise(self.agent(promiser), self.body(body), self.agent(promisee))

    def user_atoms(self) -> tuple[TaskAtom, ...]:
        return tuple(a for a in self.atoms if a != GAMMA_ATOM)

    def user_types(self) -> tuple[TypeTag, ...]:
        return tuple(t for t in self.types if t != COMPLIANCE_TYPE)


@value
class Promise:
    """A basic promise: promiser commits the body toward the promisee."""

    promiser: Agent
    body: TaskBody
    promisee: Agent

    def __str__(self) -> str:
        return f"{self.promiser}:{self.body}->{self.promisee}"


@value
class GeneralizedPromise:
    """Promiser tells the promisee that the performer will do the body for
    the beneficiary. Basic promises are the diagonal case."""

    promiser: Agent
    performer: Agent
    body: TaskBody
    promisee: Agent
    beneficiary: Agent

    def induced(self) -> Promise:
        """The basic promise the compliance rule produces."""
        return Promise(self.performer, self.body, self.beneficiary)

    def compliance(self) -> Promise:
        """The promise that makes the delegation binding on the performer."""
        return Promise(self.performer, GAMMA, self.promiser)

    def __str__(self) -> str:
        return (
            f"{self.promiser}[{self.performer}]:{self.body}"
            f"->{self.promisee}[{self.beneficiary}]"
        )


def _ones(bits: int) -> Iterator[int]:
    """The numbers of the set bits, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


class _Table:
    """The promises met under one model, each numbered by a bit in the
    order first met, and for each bit the mask of the numbered promises
    that clash with it under the model's mode (see ``number_of``, which
    ``clash`` reads); ``risky`` has the bits whose mask is not empty. A
    promise is found by its agents' names and its body, so that no
    ``Promise`` or ``Agent`` is hashed. The table refers to no model, which
    frees a model by reference counting; the methods that number promises
    take it."""

    __slots__ = ("promises", "masks", "risky", "_numbers", "_holders")

    def __init__(self):
        self.promises: list[Promise] = []
        self.masks: list[int] = []
        self.risky = 0
        self._numbers: dict[tuple[str, TaskBody, str], int] = {}
        self._holders: dict[tuple[str, TaskBody], int] = {}  # the bits of each promiser's body

    def number(self, model: PromiseModel, promise: Promise) -> int:
        """The promise's number, given at its first sight."""
        return self.number_of(model, promise.promiser, promise.body, promise.promisee)

    def number_of(self, model: PromiseModel, promiser: Agent, body: TaskBody, promisee: Agent) -> int:
        """The number of ``promiser:body->promisee``. At its first sight its
        mask takes the bits of its promiser's holders of its body, if that is
        exclusive, and of each incompatible body toward its promisee (toward
        any, in strict mode): the clash rule, with no pair tested."""
        key = (promiser.name, body, promisee.name)
        number = self._numbers.get(key)
        if number is None:
            number = self._numbers[key] = len(self.promises)
            mine = self._holders.get((key[0], body), 0)  # none goes to the promisee: the promise is new
            mask = mine if body in model.exclusiveness.exclusive else 0
            for partner in model.incompatibility.partners.get(body, ()):
                if model.strict_conflicts:
                    mask |= self._holders.get((key[0], partner), 0)
                elif (other := self._numbers.get((key[0], partner, key[2]))) is not None:
                    mask |= 1 << other
            bit = 1 << number
            for other in _ones(mask):
                self.masks[other] |= bit
            if mask:
                self.risky |= mask | bit
            self.promises.append(Promise(promiser, body, promisee))
            self.masks.append(mask)
            self._holders[key[0], body] = mine | bit
        return number

    def state(self, bits: int) -> "State":
        """The state that holds these bits."""
        return State(self.promises[number] for number in _ones(bits))

    def bits(self, model: PromiseModel, state: "State") -> int:
        """The state's bits, numbering its promises at their first sight."""
        bits = 0
        for promise in state.promises:
            bits |= 1 << self.number(model, promise)
        return bits


@value
class State:
    """An immutable set of non-conflicting basic promises, made from any
    iterable of them. The engine holds a state as bits of a model's
    promise table instead (see ``_Table.state`` and ``_Table.bits``)."""

    promises: frozenset[Promise] = frozenset()

    def __post_init__(self):
        _put(self, "promises", frozenset(self.promises))

    def __contains__(self, promise: Promise) -> bool:
        return promise in self.promises

    def __iter__(self) -> Iterator[Promise]:
        return iter(self.promises)

    def __len__(self) -> int:
        return len(self.promises)

    def __str__(self) -> str:
        return "{" + ", ".join(sorted(str(p) for p in self.promises)) + "}"


EMPTY_STATE = State()


class TransitionError(ValueError):
    """A speech act was attempted whose premise does not hold."""


class NotEnabled(TransitionError):
    """Introduction blocked; ``reason`` is 'conflict' or 'exclusiveness'."""

    def __init__(self, promise: Promise, reason: str, blocking: Promise):
        super().__init__(f"cannot introduce {promise}: {reason} with {blocking}")
        self.promise = promise
        self.reason = reason
        self.blocking = blocking


class NotPresent(TransitionError):
    """Withdrawal of a promise that is not in the state."""


class NoCompliance(TransitionError):
    """Delegated introduction without the performer's compliance promise."""


def clash(model: PromiseModel, p: Promise, q: Promise) -> str | None:
    """Why one agent cannot hold both promises at once, or None, read from
    the masks of the model's table, which numbers both (see ``_Table.number_of``).

    ``'conflict'``: the bodies are incompatible and the promisees share the
    conflict mode's scope (the same promisee, or any promisee in strict
    mode). ``'exclusiveness'``: an exclusive body goes to two different
    promisees; no body is incompatible with itself. Symmetric in ``p`` and ``q``.
    """
    table = model._table
    if 1 << table.number(model, q) & table.masks[table.number(model, p)]:
        return "exclusiveness" if p.body == q.body else "conflict"
    return None


def pi_enabled(model: PromiseModel, state: State, promise: Promise) -> bool:
    """True iff the promise clashes with nothing in the state: iff the
    state's bits miss the promise's clash mask."""
    table = model._table
    number = table.number(model, promise)
    return not table.bits(model, state) & table.masks[number]


def introduce(model: PromiseModel, state: State, promise: Promise) -> State:
    """Add the promise to the state. Idempotent when already present;
    raises NotEnabled otherwise when the introduction premise fails, naming
    the first clash: conflicts before exclusiveness, then by rendered
    blocking promise."""
    if not pi_enabled(model, state, promise):
        reason, blocking = min(
            ((reason, held) for held in state if (reason := clash(model, promise, held))),
            key=lambda found: (found[0], str(found[1])),
        )
        raise NotEnabled(promise, reason, blocking)
    return State(state.promises | {promise})


def pw_enabled(state: State, promise: Promise) -> bool:
    """True iff the promise can be withdrawn, i.e. is present."""
    return promise in state


def withdraw(state: State, promise: Promise) -> State:
    """Remove the promise from the state; raises NotPresent if absent."""
    if promise not in state:
        raise NotPresent(f"cannot withdraw absent promise {promise}")
    return State(state.promises - {promise})


def introduce_generalized(model: PromiseModel, state: State, gp: GeneralizedPromise) -> State:
    """Apply the compliance rule: with ``performer:gamma->promiser`` in the
    state, the delegated promise induces ``performer:body->beneficiary``.

    The compliance promise stays in the state; the induced introduction is
    subject to the ordinary enabledness checks.
    """
    if gp.compliance() not in state:
        raise NoCompliance(f"{gp.performer} has not promised compliance to {gp.promiser}")
    return introduce(model, state, gp.induced())


@value
class ObligationWarning:
    """A delegated promise whose performer answers to the promiser: the
    promise imposes an obligation on an agent meant to be autonomous."""

    performer: Agent
    promiser: Agent

    def __str__(self) -> str:
        return (
            f"obligation: {self.performer} is subordinate to {self.promiser}, "
            f"so the promise binds {self.performer} involuntarily"
        )


def obligation_warnings(model: PromiseModel, gp: GeneralizedPromise) -> list[ObligationWarning]:
    """Warnings (never errors) for delegated promises over subordinates."""
    if gp.performer != gp.promiser and model.order.subordinate(gp.performer, gp.promiser):
        return [ObligationWarning(gp.performer, gp.promiser)]
    return []


def state_clashes(model: PromiseModel, state: State) -> list[tuple[str, Promise, Promise]]:
    """Every pair of promises in the state that clash, as (reason, first,
    second) with each pair and the list in rendered order. Empty for any
    state reached through enabled introductions."""
    return _clashes(model, model._table.bits(model, state))


def _clashes(model: PromiseModel, bits: int) -> list[tuple[str, Promise, Promise]]:
    """``state_clashes`` of the state with these bits in the model's table:
    each held promise whose mask is not empty is ANDed with the state, and
    only the pairs found are told apart by ``clash``."""
    table = model._table
    promises, masks = table.promises, table.masks
    found = []
    for number in _ones(bits & table.risky):
        for other in _ones(bits & masks[number]):
            if other > number:
                p, q = sorted((promises[number], promises[other]), key=str)
                found.append((clash(model, p, q), p, q))
    return sorted(found, key=lambda c: (c[0], str(c[1]), str(c[2])))


def is_conflict_free(model: PromiseModel, state: State) -> bool:
    """The state invariant: no two promises clash."""
    return not state_clashes(model, state)
