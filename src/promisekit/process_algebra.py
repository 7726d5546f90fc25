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

from typing import NamedTuple, Union

from .promise_state import (
    Agent,
    GeneralizedPromise,
    Promise,
    PromiseModel,
    State,
    _Table,
)
from .task_algebra import (
    StoredHash,
    TaskBody,
    _put,
    is_exclusive,
    is_positive,
    is_service,
    negate,
    usage,
    value,
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

@value
class IntroduceEvent(StoredHash):
    promiser: Agent
    body: TaskBody
    promisee: Agent

    def __str__(self) -> str:
        return f"pi({self.promiser}, {self.body}, {self.promisee})"


@value
class WithdrawEvent(StoredHash):
    promiser: Agent
    body: TaskBody
    promisee: Agent

    def __str__(self) -> str:
        return f"pw({self.promiser}, {self.body}, {self.promisee})"


@value
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

@value
class AgentVar:
    """An agent slot bound by an enclosing quantifier."""

    name: str

    def __str__(self) -> str:
        return self.name


AgentRef = Union[Agent, AgentVar]


@value
class TrueConst:
    def __str__(self) -> str:
        return "true"


@value
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


@value
class HasPromise:
    promiser: AgentRef
    body: TaskBody
    promisee: AgentRef

    def __str__(self) -> str:
        return f"p({self.promiser}, {self.body}, {self.promisee})"


@value
class IsExclusive:
    body: TaskBody

    def __str__(self) -> str:
        return f"E({self.body})"


@value
class Not(_Node):
    operand: "Condition"

    binding = 4

    def _pieces(self) -> tuple:
        return "not ", (self.operand, self.binding)


@value
class And(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding = "and", 3


@value
class Or(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding = "or", 2


@value
class Implies(_Node):
    left: "Condition"
    right: "Condition"

    symbol, binding, right_assoc = "=>", 1, True


@value
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
    """A condition was compiled with a quantifier variable unbound."""


def _resolve(ref: AgentRef, env: dict[str, Agent]) -> Agent:
    if isinstance(ref, Agent):
        return ref
    if ref.name in env:
        return env[ref.name]
    raise UnboundVariable(f"unbound agent variable {ref.name!r}")


def eval_condition(model: PromiseModel, cond: Condition, state: State) -> bool:
    """Evaluate a closed condition against a state: compile it (see
    ``_compile``), then test the state's bits."""
    table = model._table
    return _passes(_compile(model, table, cond, {}), table.bits(model, state))


# A compiled condition, a *test*, is (conj, mask, value, parts) over the
# bits of a state in the model's promise table. A conjunction (conj True)
# holds when ``bits & mask == value`` and every part holds; a disjunction
# when ``bits & mask != value`` or some part holds. So the cube (mask,
# value) tests at once a conjunction of ``p(...)`` leaves and negated
# leaves, or a disjunction of them through its negation. The parts are
# tests of the other kind. A test with no mask and no parts is a
# constant: its kind is its value.
_TRUE_TEST = (True, 0, 0, ())
_FALSE_TEST = (False, 0, 0, ())


def _join(conj: bool, tests) -> tuple:
    """The conjunction (``conj``) or disjunction of tests. An operand of
    the same kind merges its cube and parts into the result; so does a
    single leaf, which is a test of either kind. A constant that decides
    the result, or a leaf met with its negation, decides it at once."""
    mask = value = 0
    parts = []
    for test in tests:
        kind, bits, wanted, inner = test
        if kind != conj and not inner:
            if not bits:  # the constant that decides
                return test
            if bits & (bits - 1) == 0:  # one leaf, read as the other kind
                kind, wanted = conj, wanted ^ bits
        if kind != conj:
            parts.append(test)
        elif (value ^ wanted) & mask & bits:
            return _FALSE_TEST if conj else _TRUE_TEST
        else:
            mask |= bits
            value |= wanted
            parts += inner
    if not mask and len(parts) == 1:
        return parts[0]
    return conj, mask, value, tuple(parts)


def _compile(model: PromiseModel, table: _Table, cond: Condition, env: dict[str, Agent]) -> tuple:
    """The test of a condition under ``env``: each ``forall`` expanded
    over the model's agents, ``E(...)``, ``true`` and ``false`` folded to
    constants, each ``p(...)`` leaf numbered in the table, and negations
    moved onto the leaves. A body that does not mention its quantifier's
    variable is compiled once, however many agents it ranges over. Every
    agent variable is resolved, also in an operand whose value would never
    be needed (but not in the body of a ``forall`` over no agent, which is
    not expanded). Operators that wait for their operands' tests are on a
    stack, as (conj, operand count)."""
    tests: list[tuple] = []
    free: dict[int, set[str]] = {}  # see ``_free_variables``
    pending: list[tuple] = [(cond, env, False)]
    while pending:
        item = pending.pop()
        if len(item) == 2:
            conj, count = item
            start = len(tests) - count
            joined = _join(conj, tests[start:])
            del tests[start:]
            tests.append(joined)
            continue
        cond, env, negated = item
        cls = cond.__class__
        if cls is Not:
            pending.append((cond.operand, env, not negated))
        elif cls is And or cls is Or or cls is Implies:
            # ``a => b`` is ``not a or b``; a negation swaps ``and`` and ``or``
            pending += [
                ((cls is And) != negated, 2),
                (cond.right, env, negated),
                (cond.left, env, negated != (cls is Implies)),
            ]
        elif cls is ForAllAgents:
            excluded = _resolve(cond.excluding, env).name
            agents = [agent for agent in model.agents if agent.name != excluded]
            if len(agents) > 1 and cond.var not in _free_variables(cond.body, free):
                del agents[1:]  # every copy would be the same test
            pending.append((not negated, len(agents)))
            pending += [(cond.body, {**env, cond.var: agent}, negated) for agent in reversed(agents)]
        elif cls is HasPromise:
            promiser, promisee = _resolve(cond.promiser, env), _resolve(cond.promisee, env)
            bit = 1 << table.number_of(model, promiser, cond.body, promisee)
            tests.append((True, bit, 0 if negated else bit, ()))
        elif cls is IsExclusive:
            tests.append(_TRUE_TEST if is_exclusive(model.exclusiveness, cond.body) != negated else _FALSE_TEST)
        elif cls is TrueConst or cls is FalseConst:
            tests.append(_TRUE_TEST if (cls is TrueConst) != negated else _FALSE_TEST)
        else:
            raise TypeError(f"not a condition: {cond!r}")
    return tests[0]


def _free_variables(cond: Condition, free: dict[int, set[str]]) -> set[str]:
    """The agent variables free in the condition, gathered into ``free``, by id, for each
    subcondition not already there, operands first: a ``forall`` hides its variable in its
    body, but not in the agent it excludes."""
    order, pending = [], [cond]  # each subcondition before its operands
    while pending:
        node = pending.pop()
        if id(node) not in free:
            order.append(node)
            cls = node.__class__
            if cls is Not or cls is ForAllAgents:
                pending.append(node.operand if cls is Not else node.body)
            elif cls is And or cls is Or or cls is Implies:
                pending += (node.left, node.right)
    for node in reversed(order):
        cls = node.__class__
        if cls is Not:
            names = free[id(node.operand)]
        elif cls is And or cls is Or or cls is Implies:
            names = free[id(node.left)] | free[id(node.right)]
        elif cls is ForAllAgents:
            names = free[id(node.body)] - {node.var}
            names |= {node.excluding.name} if node.excluding.__class__ is AgentVar else set()
        else:
            refs = (node.promiser, node.promisee) if cls is HasPromise else ()
            names = {ref.name for ref in refs if ref.__class__ is AgentVar}
        free[id(node)] = names
    return free[id(cond)]


def _conjoin(test: tuple, inner: tuple | None) -> tuple:
    """A guard's test and then ``inner``, the test of the guards inside it
    (None when there is none). A conjunction's parts stay one part, so
    that nested guards share them rather than copy them."""
    if inner is None:
        return test
    conj, mask, value, parts = inner
    if conj and parts:
        inner = (True, mask, value, ((False, 0, 0, ((True, 0, 0, parts),)),))
    return _join(True, (test, inner))


def _passes(test: tuple, bits: int) -> bool:
    """Whether the bits pass a test. A part's value is handed up until
    an enclosing test needs its next part; the tests waiting for one are
    on a stack."""
    waiting: list = []  # (conj, the parts it has yet to try)
    while True:
        conj, mask, value, parts = test
        if bits & mask != value:
            result = not conj
        elif parts:
            parts = iter(parts)
            waiting.append((conj, parts))
            test = next(parts)
            continue
        else:
            result = conj
        while waiting:
            conj, parts = waiting[-1]
            if result == conj:  # undecided: the next part
                test = next(parts, None)
                if test is not None:
                    break
            waiting.pop()
        else:
            return result


# ---------------------------------------------------------------------------
# terms

@value
class Done:
    """The successfully terminated process."""

    def __str__(self) -> str:
        return "ok"


@value
class Deadlock:
    """The process with no behaviour at all."""

    def __str__(self) -> str:
        return "delta"


@value
class Act(_Node):
    event: Event

    def __str__(self) -> str:
        return str(self.event)


@value
class Seq(_Node):
    left: "ProcessTerm"
    right: "ProcessTerm"

    symbol, binding = ".", 2


@value
class Alt(_Node):
    left: "ProcessTerm"
    right: "ProcessTerm"

    symbol, binding = "+", 1


@value
class Par(_Node):
    left: "ProcessTerm"
    right: "ProcessTerm"

    symbol, binding = "||", 0


@value
class Guard(_Node):
    """The guard prefixes the smallest term to its right."""

    condition: Condition
    body: "ProcessTerm"

    binding = 3

    def _pieces(self) -> tuple:
        return "[", (self.condition, 0), "] -> ", (self.body, self.binding)


ProcessTerm = Union[Done, Deadlock, Act, Seq, Alt, Par, Guard]

DONE = Done()
DEADLOCK = Deadlock()


class Configuration(NamedTuple):
    """A process term paired with the promise state it runs against."""

    term: ProcessTerm
    state: State

    @property
    def terminates(self) -> bool:
        """Whether the term can terminate (see ``can_terminate``)."""
        return can_terminate(self.term)


def can_terminate(term: ProcessTerm) -> bool:
    """Whether the term may finish successfully without further steps.

    Sequence and parallel require both sides, choice either side; guards
    never terminate by themselves, they must fire through their body.
    The rule is the control points': the term is compiled under no model
    into an engine of its own, and its point's ``terminates`` read.
    """
    return _Engine(_Table()).compile(None, term).terminates


def step(model: PromiseModel, node: tuple) -> "list[tuple[int, Event, int, _Point, int]]":
    """The moves of a node, a state vector (shape, leaves, bits) of the
    model's engine (see ``_locate``): each leaf's symbolic moves whose
    guards' compiled test the bits pass and whose action is enabled there
    (an introduction when the bits miss its promise's clash mask, a
    withdrawal when they hold its promise), as (event rank, event, slot,
    successor point, successor bits) (see ``_Engine.rank``). No node is
    made: the successor node puts the successor point in the leaf's slot
    (see ``_Engine.successor``). ``explorer.transitions`` is the view of
    configurations, where two moves may make one transition."""
    _, leaves, bits = node
    masks = leaves[0].table.masks
    found = []
    for slot, leaf in enumerate(leaves):
        moves = leaf.moves if leaf.moves is not None else model._engine.derive(model, leaf)
        for test, (event, flag, number, needed, withdraws, rank), successor in moves:
            if test is not None and not _passes(test, bits):
                continue
            if withdraws:
                if not bits & flag:
                    continue
                found.append((rank, event, slot, successor, bits ^ flag))
            elif bits & needed == needed and not bits & masks[number]:
                found.append((rank, event, slot, successor, bits | flag))
    return found


# ---------------------------------------------------------------------------
# the compiled engine
#
# A configuration's term is compiled into control points of its model's
# engine, hash-consed so that equal terms are one point (Groote, Ponse & Usenko, *Linearization
# in parallel pCRL*, 2001, do the same for mCRL2's linear processes).
# A point's symbolic moves are (test, action, successor point), derived
# once at its first step from its operands' moves; a step only evaluates
# the test and the action against the bits of the state (see
# ``promise_state._Table``). An action is one list, made with its point, which numbers
# the promise and any compliance premise; every move derived from it holds it, and
# ``_Engine.rank`` writes the event's rank into it. A guard's condition is compiled into
# a test when its moves are derived (see ``_compile``), conjoined with the tests of the
# guards inside it; the test is None when it always holds, and a move whose test never
# holds is dropped. A left chain of ``.`` operands is its innermost operand and a
# hash-consed list of the rest, so stepping along a sequence moves one place down that list.
# An interleaving is one point for its whole ``||`` tree, as mCRL2 keeps a
# vector of component states: the tuple of its leaves, the points of its
# operands that are not interleavings, and the tree's shape, the number
# of joins that close after each leaf in postfix order (see ``_flatten``).
# It keeps no moves: its leaves' moves, each derived once per leaf point,
# are its own. A node of a search is a state vector, (shape, leaves, bits), as SPIN
# and mCRL2 store one, ((0,), (point,), bits) for any other point: a move of a leaf
# leads to one splice of the leaf tuple (``_Engine.splice``), which splices in a
# successor interleaving's leaves and shape, and interns no point. An interleaving
# stepped to under ``.``, ``+`` or a guard is interned (``_Engine.replace``).


class _Point:
    """A control point: one distinct term. ``op`` is the term's class and
    ``parts`` its operands: an action's event; a choice's two sides and a
    guard's condition and body, as points; a sequence's innermost operand,
    which is never a sequence, and the ``_Cell`` list of the operands
    after it; an interleaving's shape and the tuple of its leaves, the
    points of its operands that are not interleavings, in order.
    ``moves`` is None until derived, and always for an interleaving.
    ``table`` is the promise table of the model whose engine made the
    point, which numbers the bits of the states the point is paired with;
    it stands for the engine without referring to it: the engine's tables
    refer to every point, and a cycle would keep a model's tables alive
    until a garbage collection."""

    __slots__ = ("op", "parts", "terminates", "table", "moves", "_term")

    def __init__(self, op, parts: tuple, terminates: bool, table: _Table, moves=None, term=None):
        self.op = op
        self.parts = parts
        self.terminates = terminates
        self.table = table
        self.moves = moves
        self._term = term

    def __str__(self) -> str:
        if self.op is Par:
            return _joined(self.parts[0]).format(*map(str, self.parts[1]))
        return str(_term_of(self))

    def sources(self) -> list["_Point"]:
        """The points whose moves this point's moves are made of: an
        interleaving among them stands for its leaves."""
        op = self.op
        if op is Seq:
            first, cell = self.parts
            found = [first]
            while cell is not None and found[-1].terminates:
                found.append(cell.first)
                cell = cell.rest
        elif op is Guard:
            found = [self.parts[1]]
        elif op is Alt:
            found = list(self.parts)
        else:
            return []
        return [leaf for point in found for leaf in (point.parts[1] if point.op is Par else (point,))]


class _Cell:
    """One place of a sequence's operand list: the operand, the cell after
    it (None at the end), and whether all operands from here terminate."""

    __slots__ = ("first", "rest", "terminates")

    def __init__(self, first: _Point, rest: "_Cell | None"):
        self.first = first
        self.rest = rest
        self.terminates = first.terminates and (rest is None or rest.terminates)


class _Renderings(dict):
    """Each key's ``str``, rendered at its first lookup. An int key is the
    bits of a state, and a tuple the shape of an interleaving, whose text
    is a format (see ``_joined``) that joins its leaves' texts."""

    def __init__(self, table: _Table):
        self.table = table

    def __missing__(self, item) -> str:
        if item.__class__ is tuple:
            text = _joined(item)
        else:
            text = str(self.table.state(item) if item.__class__ is int else item)
        self[item] = text
        return text

    def vector(self, shape: tuple, leaves: tuple) -> str:
        """The text of a vector's term, from its shape's and leaves' texts: not kept."""
        return self[shape].format(*map(self.__getitem__, leaves))


class _Engine:
    """The terms stepped under one model, as control points. ``points``
    hash-conses them by class and operands, and an interleaving by its
    shape and leaves; ``cells`` hash-conses the operand lists, and
    ``shapes`` the shapes. ``table`` is the model's promise table. The
    tables live on the model (see ``_locate``). ``texts`` renders events,
    points and states; ``ranked`` is false while an event is unranked."""

    def __init__(self, table: _Table):
        self.points: dict[tuple, _Point] = {}
        self.cells: dict[tuple, _Cell] = {}
        self.shapes: dict[tuple, tuple] = {}
        self.table = table
        self.done = _Point(Done, (), True, self.table, [], DONE)
        self.deadlock = _Point(Deadlock, (), False, self.table, [], DEADLOCK)
        self.texts = _Renderings(table)
        self.ranked = True

    def compile(self, model: PromiseModel | None, term: ProcessTerm) -> _Point:
        """The point of a term: each distinct subterm object is visited
        once, and each point is found or made from its operands' points.
        Under no model an action's point gets no move, and is never
        stepped."""
        points: dict[int, _Point] = {}  # by id: the term keeps its subterms alive
        pending: list = [(term, None)]
        while pending:
            node, parts = pending.pop()
            if id(node) in points:
                continue
            if parts is None:
                parts = _operands(node)
                missing = [(operand, None) for operand in parts[0] if id(operand) not in points]
                if missing:
                    pending.append((node, parts))
                    pending += missing
                    continue
            operands, shape = parts
            points[id(node)] = self._point(model, node, [points[id(operand)] for operand in operands], shape)
        return points[id(term)]

    def _point(self, model: PromiseModel | None, term: ProcessTerm, operands: list[_Point], shape) -> _Point:
        cls = term.__class__
        if cls is Seq:
            rest = None
            for operand in reversed(operands[1:]):
                rest = self._cell(operand, rest)
            point = self._seq(operands[0], rest)
        elif cls is Par:
            point = self._vector(self.shapes.setdefault(shape, shape), tuple(operands))
        elif cls is Done:
            point = self.done
        elif cls is Deadlock:
            point = self.deadlock
        elif cls is Act:
            key = (Act, term.event)
            point = self.points.get(key)
            if point is None:
                moves = None if model is None else [(None, self._firing(model, term.event), self.done)]
                point = self.points[key] = _Point(Act, (term.event,), False, self.table, moves)
                self.ranked = False
        else:
            point = self._intern(cls, term.condition if cls is Guard else operands[0], operands[-1])
        if point._term is None:
            point._term = term
        return point

    def _intern(self, op, left, right) -> _Point:
        """The point of a choice or guard. A guard never terminates by
        itself, a choice when either side does."""
        key = (op, left, right)
        point = self.points.get(key)
        if point is None:
            terminates = op is Alt and (left.terminates or right.terminates)
            point = self.points[key] = _Point(op, (left, right), terminates, self.table)
        return point

    def _vector(self, shape: tuple, leaves: tuple) -> _Point:
        """The point of the interleaving of ``leaves`` nested as ``shape``,
        which terminates when every leaf does."""
        key = (shape, leaves)
        point = self.points.get(key)
        if point is None:
            terminates = all(leaf.terminates for leaf in leaves)
            point = self.points[key] = _Point(Par, key, terminates, self.table)
        return point

    def splice(self, shape: tuple, leaves: tuple, slot: int, successor: _Point) -> tuple[tuple, tuple]:
        """The vector (shape, leaves) with the leaf at ``slot`` replaced by
        ``successor``. An interleaving's leaves and shape take the slot's
        place, and the joins that closed after the slot close after its
        last leaf; the shape is looked up, and nothing else."""
        if successor.op is Par:
            inner, spliced = successor.parts
            shape = shape[:slot] + inner[:-1] + (inner[-1] + shape[slot],) + shape[slot + 1 :]
            return self.shapes.setdefault(shape, shape), leaves[:slot] + spliced + leaves[slot + 1 :]
        row = list(leaves)  # a copy: faster than slices and a join
        row[slot] = successor
        return shape, tuple(row)

    def replace(self, point: _Point, slot: int, successor: _Point) -> _Point:
        """The interleaving ``point`` with the leaf at ``slot`` replaced by
        ``successor`` (see ``splice``), as a point."""
        return self._vector(*self.splice(*point.parts, slot, successor))

    def successor(self, node: tuple, move: tuple) -> tuple:
        """The node that a move of ``node`` (see ``step``) leads to: the move's
        successor point spliced into its slot (see ``splice``), and its bits."""
        shape, leaves = self.splice(node[0], node[1], move[2], move[3])
        return shape, leaves, move[4]

    def _cell(self, first: _Point, rest: _Cell | None) -> _Cell:
        key = (first, rest)
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = _Cell(first, rest)
        return cell

    def _seq(self, first: _Point, rest: _Cell | None) -> _Point:
        """The point of ``first . rest``: ``first`` when nothing follows; a
        sequence's operands continue into ``rest``, so that each chain has
        one form."""
        if rest is None:
            return first
        key = (Seq, first, rest)
        point = self.points.get(key)
        if point is None:
            if first.op is Seq:
                first, chain = first.parts
                operands = []
                while chain is not None:
                    operands.append(chain.first)
                    chain = chain.rest
                for operand in reversed(operands):
                    rest = self._cell(operand, rest)
                point = self.points.get((Seq, first, rest))
            if point is None:
                point = self.points[Seq, first, rest] = _Point(
                    Seq, (first, rest), first.terminates and rest.terminates, self.table
                )
            self.points[key] = point
        return point

    def _firing(self, model: PromiseModel, event: Event) -> list:
        """What an action needs to fire, fixed once but for its rank: [event, the flag
        of the bit of the promise it introduces or withdraws, that bit's number, the flag
        the state must hold first or 0, whether it withdraws, its rank, None until
        ``rank``], one list that every move derived from the action holds. A basic
        action's promise is numbered from the event's fields, with no ``Promise`` made;
        a parsed plain event is one object per model (see ``dsl._plain_event``)."""
        table = self.table
        if isinstance(event, GeneralizedIntroduceEvent):
            gp = event_promise(event)
            needed = 1 << table.number(model, gp.compliance())
            number = table.number(model, gp.induced())
        elif isinstance(event, (IntroduceEvent, WithdrawEvent)):
            needed, number = 0, table.number_of(model, event.promiser, event.body, event.promisee)
        else:
            raise TypeError(f"not an event: {event!r}")
        return [event, 1 << number, number, needed, event.__class__ is WithdrawEvent, None]

    def rank(self) -> None:
        """Rank the events of all action points in one sort of their texts, equal texts
        alike and ranks dense, written into each one's action, the list every move derived
        from it holds (see ``_firing``): when the explorer first orders moves, so that a
        replay renders none, and again once a compile (``_locate``) adds an action point."""
        texts = self.texts
        actions = [point.moves[0][1] for point in self.points.values() if point.op is Act]
        ranks = {text: rank for rank, text in enumerate(sorted({texts[action[0]] for action in actions}))}
        for action in actions:
            action[-1] = ranks[texts[action[0]]]
        self.ranked = True

    def derive(self, model: PromiseModel, point: _Point) -> list:
        """The moves of a point that is not an interleaving, deriving those
        of the points they are made of first; waiting points are on a
        stack."""
        pending = [point]
        while pending:
            node = pending[-1]
            if node.moves is not None:
                pending.pop()
                continue
            missing = [source for source in node.sources() if source.moves is None]
            if missing:
                pending += missing
                continue
            pending.pop()
            node.moves = self._moves(model, node)
        return point.moves

    def _moves_of(self, point: _Point) -> list:
        """A derived point's moves; an interleaving's are made from its
        leaves' at each call."""
        if point.op is not Par:
            return point.moves
        replace = self.replace
        return [
            (test, action, replace(point, slot, successor))
            for slot, leaf in enumerate(point.parts[1])
            for test, action, successor in leaf.moves
        ]

    def _moves(self, model: PromiseModel, point: _Point) -> list:
        op = point.op
        moves_of = self._moves_of
        if op is Alt:
            left, right = point.parts
            return moves_of(left) if left is right else moves_of(left) + moves_of(right)
        if op is Guard:
            condition, body = point.parts
            test = _compile(model, self.table, condition, {})
            if not (test[1] or test[3]):  # a constant
                return moves_of(body) if test[0] else []
            moves = []
            for inner, action, successor in moves_of(body):
                both = _conjoin(test, inner)
                if both[1] or both[3]:  # else a leaf met its negation
                    moves.append((both, action, successor))
            return moves
        # a sequence: the innermost operand moves in place; once it can
        # terminate, the next operand moves and the chain drops a place
        first, rest = point.parts
        seq = self._seq
        moves = [(test, action, seq(successor, rest)) for test, action, successor in moves_of(first)]
        while first.terminates and rest is not None:
            first, rest = rest.first, rest.rest
            moves += [(test, action, seq(successor, rest)) for test, action, successor in moves_of(first)]
        return moves


def _operands(term: ProcessTerm) -> tuple[list, tuple[int, ...] | None]:
    """The subterms a term's point is made of, and the shape of an
    interleaving (see ``_flatten``), None for any other term: a sequence's
    whole left chain, innermost first, for a sequence; the operands of an
    interleaving's ``||`` tree that are not interleavings, in order, for
    an interleaving."""
    cls = term.__class__
    if cls is Seq:
        chain = []
        while term.__class__ is Seq:
            chain.append(term.right)
            term = term.left
        chain.append(term)
        chain.reverse()
        return chain, None
    if cls is Par:
        return _flatten(term)
    if cls is Alt:
        return [term.left, term.right], None
    if cls is Guard:
        return [term.body], None
    if cls is Act or cls is Done or cls is Deadlock:
        return [], None
    raise TypeError(f"not a process term: {term!r}")


def _locate(model: PromiseModel, config: Configuration) -> tuple:
    """The node of a configuration (see ``step``): its term compiled into
    the model's engine, made at the model's first step, as a vector, and
    its state's bits in the model's table. Compiling is hash-consed, so a
    configuration that the engine made finds the vector it was made from."""
    engine = model._engine
    if engine is None:
        engine = _Engine(model._table)
        _put(model, "_engine", engine)
    point = engine.compile(model, config.term)
    shape, leaves = point.parts if point.op is Par else ((0,), (point,))
    return shape, leaves, engine.table.bits(model, config.state)


def _configuration(vector: tuple, bits: int) -> Configuration:
    """The configuration of a node's (shape, leaves) and bits."""
    shape, leaves = vector
    return Configuration(_nested(Par, shape, list(map(_term_of, leaves))), leaves[0].table.state(bits))


def _term_of(point: _Point) -> ProcessTerm:
    """The term of a point, built from its operands' terms at the first
    request. Only interleavings and sequences that steps made lack one;
    waiting points are on a stack."""
    pending = [point]
    while pending:
        node = pending[-1]
        if node._term is not None:
            pending.pop()
            continue
        if node.op is Par:
            parts = node.parts[1]
        else:
            first, cell = node.parts
            parts = [first]
            while cell is not None:
                parts.append(cell.first)
                cell = cell.rest
        missing = [part for part in parts if part._term is None]
        if missing:
            pending += missing
            continue
        pending.pop()
        shape = node.parts[0] if node.op is Par else (0,) + (1,) * (len(parts) - 1)  # a left chain
        node._term = _nested(node.op, shape, [part._term for part in parts])
    return point._term


def _joined(shape: tuple[int, ...]) -> str:
    """The text of an interleaving of this shape as a format, a ``{}`` for
    each leaf, as ``_render`` gives it: a leaf binds tighter than ``||``
    and goes bare, and a join is parenthesized where it is a right
    operand. The operands waiting for their join are on a stack, as their
    first leaf's place, complemented (``~``) once the operand is a join."""
    opens, closes, operands = [0] * len(shape), [0] * len(shape), []
    for place, joins in enumerate(shape):
        operands.append(place)
        for _ in range(joins):
            right = operands.pop()
            if right < 0:
                opens[~right] += 1
                closes[place] += 1
            if operands[-1] >= 0:
                operands[-1] = ~operands[-1]
    return " || ".join("(" * o + "{}" + ")" * c for o, c in zip(opens, closes))


def _flatten(term: Par) -> tuple[list, tuple[int, ...]]:
    """The operands of an interleaving's ``||`` tree that are not
    interleavings, in order, and its shape: the number of joins that close
    after each of them, as in postfix notation. Each join waits on a stack
    (as None) for its two sides."""
    leaves, shape, pending = [], [], [term]
    while pending:
        node = pending.pop()
        if node is None:
            shape[-1] += 1
        elif node.__class__ is Par:
            pending += (None, node.right, node.left)
        else:
            leaves.append(node)
            shape.append(0)
    return leaves, tuple(shape)


def _nested(op, shape: tuple[int, ...], terms: list) -> ProcessTerm:
    """``terms`` joined by the binary operator ``op`` as ``shape`` nests
    them: after each term, the number of joins that close (see
    ``_flatten``)."""
    built: list = []
    for term, joins in zip(terms, shape):
        built.append(term)
        for _ in range(joins):
            right = built.pop()
            built[-1] = op(built[-1], right)
    return built[0]


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
    use = model.interned(usage(body))
    refusal = model.interned(negate(use))
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
