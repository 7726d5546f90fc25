"""Concrete syntax for scenarios, process terms, and trace files.

Scenario files are line-oriented; ``#`` starts a comment (on
``incompatible`` lines the first ``#`` is the operator). Directives:

    agent NAME ...
    subord NAME <= NAME
    type NAME
    task NAME : TYPE
    exclusive BODY
    incompatible BODY # BODY
    def NAME = TERM
    init pi(NAME, BODY, NAME), ...
    run TERM

Task bodies are written ``[!][~]atom`` with repeated prefixes cancelling.
Terms use ``pi(a, x, b)``, ``pw(a, x, b)``, ``pi(a[c], x, b[d])``,
``delta``, sequencing ``.``, choice ``+``, interleaving ``||``, guards
``[COND] -> TERM``, and the built-in ``protocol(a, b, x)``. Conditions
use ``p(a, x, b)``, ``E(x)``, ``not``, ``and``, ``or``, ``=>``, and
``forall c != a : COND``. ``.`` binds tighter than ``+``, ``||`` binds
loosest; a guard prefixes the smallest term to its right.

Rendering is the inverse: ``parse(render(s))`` is structurally ``s`` for
scenarios and terms.
"""

from __future__ import annotations

import re
from functools import partial
from typing import NoReturn

from .process_algebra import (
    Act,
    AgentVar,
    Alt,
    And,
    Condition,
    DEADLOCK,
    DONE,
    Event,
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
    ProcessTerm,
    Seq,
    TRUE,
    WithdrawEvent,
    make_protocol,
)
from .promise_state import (
    Agent,
    EMPTY_STATE,
    ModelError,
    Promise,
    PromiseModel,
    State,
    TransitionError,
    introduce,
)
from .task_algebra import (
    IncompatibilityError,
    TaskBody,
    UnknownAtom,
    body_form,
    value,
)

__all__ = [
    "Scenario",
    "parse_scenario",
    "parse_term",
    "parse_trace",
    "render",
    "ParseError",
    "ValidationError",
    "RESERVED_WORDS",
]

RESERVED_WORDS = frozenset(
    {
        "agent", "subord", "type", "task", "exclusive", "incompatible",
        "def", "init", "run",
        "pi", "pw", "delta", "ok", "protocol",
        "p", "E", "not", "and", "or", "forall", "true", "false",
        "gamma", "compliance",
    }
)


class ParseError(Exception):
    """Malformed input; carries the 1-based line and column."""

    def __init__(self, line: int, column: int, expected: str, found: str | None = None):
        self.line = line
        self.column = column
        self.expected = expected
        detail = f", found {found}" if found else ""
        super().__init__(f"line {line}, column {column}: expected {expected}{detail}")


class ValidationError(Exception):
    """Well-formed input that names unknown things or breaks a model law."""


# ---------------------------------------------------------------------------
# tokens

# One scan per line: a token is a (kind, value, column) tuple, kind 'name',
# 'sym' or 'event'. Whitespace matches no group and is skipped; the
# catch-all 'bad' group is a character the syntax does not know. An 'event'
# token is a whole plain event pi/pw(NAME, PREFIXES NAME, NAME), valued as
# its head: _parse_event reads it in one step, and any other reader takes
# it apart into its name and symbol tokens (see _Stream.advance).
_NAME = "[A-Za-z][A-Za-z0-9_]*"
_TOKEN_RE = re.compile(rf"(?P<name>{_NAME})|(?P<sym>=>|<=|!=|->|\|\||[()\[\],:.#+=!~])|(?P<bad>\S)")
_SCAN_RE = re.compile(rf"(?P<event>p[iw])\s*\(\s*{_NAME}\s*,\s*[!~]*{_NAME}\s*,\s*{_NAME}\s*\)|{_TOKEN_RE.pattern}")
# the same shape, its parts captured
_EVENT_RE = re.compile(rf"(p[iw])\s*\(\s*({_NAME})\s*,\s*([!~]*)({_NAME})\s*,\s*({_NAME})\s*\)")
_EVENT_LINE_RE = re.compile(rf"\s*{_EVENT_RE.pattern}\s*")
_INCOMPATIBLE_RE = re.compile(r"\s*incompatible\b")
_NAMES = ("name", "event")


def _tokens(scan: re.Pattern, text: str, start: int, end: int) -> list[tuple[str, str, int]]:
    # a match's last group is the token, or an event's head
    return [(m.lastgroup, m[m.lastindex], m.start() + 1) for m in scan.finditer(text, start, end)]


def _tokenize(text: str, line: int) -> list[tuple[str, str, int]]:
    tokens = _tokens(_SCAN_RE, text, 0, len(text))
    for kind, value, column in tokens:
        if kind == "bad":
            raise ParseError(line, column, "a name or operator", repr(value))
    return tokens


class _Stream:
    """Cursor over one line's tokens with positioned errors. The tokens
    end with an end marker, of kind None, at the column past the line."""

    def __init__(self, tokens: list[tuple[str, str, int]], line: int, text: str, end_column: int):
        self.tokens = tokens
        tokens.append((None, None, end_column))
        self.pos = 0
        self.line = line
        self.text = text

    def peek(self) -> tuple[str | None, str | None, int]:
        return self.tokens[self.pos]

    def at_sym(self, *values: str) -> bool:
        return self.tokens[self.pos][1] in values  # no name is spelt like a symbol

    def at_name(self) -> bool:
        return self.tokens[self.pos][0] in _NAMES

    def advance(self) -> tuple[str, str, int]:
        kind, _, column = self.tokens[self.pos]
        if kind == "event":  # a reader other than _parse_event: split it into its tokens
            end = _EVENT_RE.match(self.text, column - 1).end()
            self.tokens[self.pos : self.pos + 1] = _tokens(_TOKEN_RE, self.text, column - 1, end)
        self.pos += 1
        return self.tokens[self.pos - 1]

    def expect_sym(self, value: str) -> None:
        if self.tokens[self.pos][1] != value:
            self.fail(repr(value))
        self.pos += 1

    def expect_name(self, what: str = "a name") -> tuple[str, str, int]:
        if self.tokens[self.pos][0] not in _NAMES:
            self.fail(what)
        return self.advance()

    def expect_end(self) -> None:
        if self.tokens[self.pos][0] is not None:
            self.fail("end of line")

    def fail(self, expected: str) -> NoReturn:
        kind, value, column = self.tokens[self.pos]
        raise ParseError(self.line, column, expected, repr(value) if kind else None)


def _decomment(raw: str) -> str:
    """Truncate a line at its comment. ``#`` starts a comment everywhere
    except that on ``incompatible`` lines the first hash is the operator."""
    cut = raw.find("#")
    if cut >= 0 and _INCOMPATIBLE_RE.match(raw):
        cut = raw.find("#", cut + 1)
    return raw if cut < 0 else raw[:cut]


# ---------------------------------------------------------------------------
# scenarios

@value
class Scenario:
    """A model, its named process definitions, the composition to run, and
    the initial promise state (empty unless ``init`` is given)."""

    model: PromiseModel
    definitions: tuple[tuple[str, ProcessTerm], ...]
    entry: ProcessTerm
    initial_state: State


def _check_declarable(name: str, what: str, line: int) -> None:
    if name in RESERVED_WORDS:
        raise ValidationError(f"line {line}: {what} name {name!r} is reserved")


def parse_scenario(text: str, strict_conflicts: bool = False) -> Scenario:
    """Parse and validate a scenario file. The conflict mode is fixed here
    so that ``init`` is validated under the mode the scenario runs in."""
    agents: list[str] = []
    types: list[str] = []
    atoms: dict[str, str] = {}
    subordination: list[tuple[str, str]] = []
    exclusive: list[str] = []
    incompat: list[tuple[str, str]] = []
    defs: list[tuple[int, str, _Stream]] = []
    init_streams: list[tuple[int, _Stream]] = []
    run_stream: tuple[int, _Stream] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _decomment(raw)
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        stream = _Stream(tokens, lineno, line, len(raw) + 1)
        _, directive, column = stream.expect_name("a directive")
        if directive == "agent":
            if not stream.at_name():
                stream.fail("an agent name")
            while stream.at_name():
                name = stream.advance()[1]
                _check_declarable(name, "agent", lineno)
                agents.append(name)
            stream.expect_end()
        elif directive == "subord":
            low = stream.expect_name("an agent name")[1]
            stream.expect_sym("<=")
            high = stream.expect_name("an agent name")[1]
            stream.expect_end()
            subordination.append((low, high))
        elif directive == "type":
            name = stream.expect_name("a type name")[1]
            _check_declarable(name, "type", lineno)
            stream.expect_end()
            types.append(name)
        elif directive == "task":
            name = stream.expect_name("an atom name")[1]
            _check_declarable(name, "atom", lineno)
            stream.expect_sym(":")
            type_name = stream.expect_name("a type name")[1]
            stream.expect_end()
            if name in atoms:
                raise ValidationError(f"line {lineno}: duplicate atom {name!r}")
            atoms[name] = type_name
        elif directive == "exclusive":
            body = _body_text(stream)
            stream.expect_end()
            exclusive.append(body)
        elif directive == "incompatible":
            first = _body_text(stream)
            stream.expect_sym("#")
            second = _body_text(stream)
            stream.expect_end()
            incompat.append((first, second))
        elif directive == "def":
            name = stream.expect_name("a definition name")[1]
            _check_declarable(name, "definition", lineno)
            stream.expect_sym("=")
            defs.append((lineno, name, stream))
        elif directive == "init":
            if init_streams:
                raise ValidationError(f"line {lineno}: duplicate init directive")
            init_streams.append((lineno, stream))
        elif directive == "run":
            if run_stream is not None:
                raise ValidationError(f"line {lineno}: duplicate run directive")
            run_stream = (lineno, stream)
        else:
            raise ParseError(lineno, column, "a directive", repr(directive))

    try:
        model = PromiseModel.create(
            agents=agents,
            types=types,
            atoms=atoms,
            subordination=subordination,
            incompatible_pairs=incompat,
            exclusive=exclusive,
            strict_conflicts=strict_conflicts,
        )
    except (ModelError, IncompatibilityError, UnknownAtom) as err:
        raise ValidationError(str(err)) from err

    definitions: dict[str, ProcessTerm] = {}
    for lineno, name, stream in defs:
        if name in definitions:
            raise ValidationError(f"line {lineno}: duplicate definition {name!r}")
        term = _parse_term_stream(stream, model, definitions)
        stream.expect_end()
        definitions[name] = term

    initial_state = EMPTY_STATE
    if init_streams:
        lineno, stream = init_streams[0]
        for promise in _parse_promise_list(stream, model):
            try:
                initial_state = introduce(model, initial_state, promise)
            except TransitionError as err:
                raise ValidationError(f"line {lineno}: invalid initial state: {err}") from err
        stream.expect_end()

    if run_stream is None:
        raise ValidationError("missing run directive")
    lineno, stream = run_stream
    entry = _parse_term_stream(stream, model, definitions)
    stream.expect_end()

    return Scenario(
        model=model,
        definitions=tuple(definitions.items()),
        entry=entry,
        initial_state=initial_state,
    )


# ---------------------------------------------------------------------------
# bodies, agents, events

def _body_text(stream: _Stream) -> str:
    """Concrete body syntax: ``!``/``~`` prefixes then an atom name."""
    parts: list[str] = []
    while stream.at_sym("!", "~"):
        parts.append(stream.advance()[1])
    parts.append(stream.expect_name("an atom name")[1])
    return "".join(parts)


def _parse_body(stream: _Stream, model: PromiseModel) -> TaskBody:
    column = stream.peek()[2]
    text = _body_text(stream)
    try:
        return model.body(text)
    except UnknownAtom as err:
        raise ValidationError(f"line {stream.line}, column {column}: {err}") from err


def _agent(stream: _Stream, model: PromiseModel) -> Agent:
    _, name, column = stream.expect_name("an agent name")
    agent = model._agents_by_name.get(name)
    if agent is None:
        raise ValidationError(f"line {stream.line}, column {column}: unknown agent {name!r}")
    return agent


def _plain_event(match: re.Match, model: PromiseModel) -> Event | None:
    """The event of a match of ``_EVENT_RE``, or None when the model lacks
    one of its names. A plain event is resolved once per model: the model
    keeps each one found by the match's five groups, so a trace line is the
    very object of its scenario's plain event of that text. A miss is not kept."""
    parts = match.groups()
    event = model._events.get(parts)
    if event is None:
        head, promiser, prefixes, atom, promisee = parts
        agents = model._agents_by_name
        promiser, promisee = agents.get(promiser), agents.get(promisee)
        body = model._bodies.get(body_form(prefixes + atom))
        if promiser is None or body is None or promisee is None:
            return None
        event = model._events[parts] = (IntroduceEvent if head == "pi" else WithdrawEvent)(promiser, body, promisee)
    return event


def _parse_event(stream: _Stream, model: PromiseModel) -> Event:
    kind, _, column = stream.peek()
    if kind == "event" and (event := _plain_event(_EVENT_RE.match(stream.text, column - 1), model)):
        stream.pos += 1
        return event
    # any other shape, or a name the model lacks: token by token, raising
    # every diagnostic
    _, head, column = stream.expect_name("pi or pw")
    if head not in ("pi", "pw"):
        raise ParseError(stream.line, column, "pi or pw", repr(head))
    stream.expect_sym("(")
    promiser = _agent(stream, model)
    performer = _bracketed_agent(stream, model)
    stream.expect_sym(",")
    body = _parse_body(stream, model)
    stream.expect_sym(",")
    promisee = _agent(stream, model)
    beneficiary = _bracketed_agent(stream, model)
    stream.expect_sym(")")
    if performer is None and beneficiary is None:
        return (IntroduceEvent if head == "pi" else WithdrawEvent)(promiser, body, promisee)
    if head == "pw":
        raise ValidationError(f"line {stream.line}: withdrawal events cannot be delegated")
    return GeneralizedIntroduceEvent(promiser, performer or promiser, body, promisee, beneficiary or promisee)


def _bracketed_agent(stream: _Stream, model: PromiseModel) -> Agent | None:
    """The ``[NAME]`` after an event's promiser or promisee, if any."""
    if not stream.at_sym("["):
        return None
    stream.advance()
    agent = _agent(stream, model)
    stream.expect_sym("]")
    return agent


def _parse_promise_list(stream: _Stream, model: PromiseModel) -> list[Promise]:
    promises = []
    while True:
        event = _parse_event(stream, model)
        if not isinstance(event, IntroduceEvent):
            raise ValidationError("initial states may only contain basic promises (pi)")
        promises.append(Promise(event.promiser, event.body, event.promisee))
        if not stream.at_sym(","):
            return promises
        stream.advance()


# ---------------------------------------------------------------------------
# terms and conditions

_TERM_OPERATORS = {cls.symbol: cls for cls in (Seq, Alt, Par)}
_CONDITION_OPERATORS = {cls.symbol: cls for cls in (And, Or, Implies)}


def _parse(stream: _Stream, operators: dict, prefix, primary):
    """Precedence climbing over an operator table (Pratt, *Top down
    operator precedence*, 1973), for terms and conditions alike.
    ``operators`` maps a binary operator's token to its class; ``prefix``
    reads a prefix and returns its (binding, builder) entry, or None;
    ``primary`` reads an operand without operators. Entries wait on a
    stack instead of recursing: a binary operator's builder holds its
    left operand, and an open parenthesis is an entry that builds
    nothing."""
    pending: list = []
    while True:
        if stream.at_sym("("):
            stream.advance()
            pending.append((-1, None))
            continue
        entry = prefix(stream)
        if entry is not None:
            pending.append(entry)
            continue
        node = primary(stream)
        while True:
            op = operators.get(stream.peek()[1])
            # build the pending entries that bind at least as tightly as the
            # operator (more tightly, if it is right-associative); with no
            # operator, all of them down to the innermost open parenthesis
            least = -1 if op is None else op.binding + op.right_assoc
            while pending and pending[-1][0] >= least and pending[-1][1] is not None:
                node = pending.pop()[1](node)
            if op is not None:
                stream.advance()
                pending.append((op.binding, partial(op, node)))
                break
            if not pending:
                return node
            stream.expect_sym(")")
            pending.pop()


def _parse_condition(stream: _Stream, model: PromiseModel) -> Condition:
    bound: dict[str, int] = {}  # each quantifier variable in scope, with how many bind it

    def prefix(stream: _Stream):
        word = stream.peek()[1]
        if word == "not":
            stream.advance()
            return Not.binding, Not
        if word != "forall":
            return None
        stream.advance()
        var = stream.expect_name("a quantifier variable")[1]
        stream.expect_sym("!=")
        excluding = _agent_ref(stream, model, bound)
        stream.expect_sym(":")
        bound[var] = bound.get(var, 0) + 1

        def build(body: Condition) -> Condition:
            bound[var] -= 1
            if not bound[var]:
                del bound[var]
            return ForAllAgents(var, excluding, body)

        return ForAllAgents.binding, build

    return _parse(stream, _CONDITION_OPERATORS, prefix, partial(_condition_primary, model=model, bound=bound))


def _agent_ref(stream: _Stream, model: PromiseModel, bound: dict[str, int]):
    _, name, column = stream.expect_name("an agent or quantifier variable")
    agent = AgentVar(name) if name in bound else model._agents_by_name.get(name)
    if agent is None:
        raise ValidationError(f"line {stream.line}, column {column}: unknown agent {name!r}")
    return agent


def _condition_primary(stream: _Stream, model: PromiseModel, bound: dict[str, int]) -> Condition:
    word = stream.peek()[1]
    if word == "true" or word == "false":
        stream.advance()
        return TRUE if word == "true" else FALSE
    if word == "p":
        stream.advance()
        stream.expect_sym("(")
        promiser = _agent_ref(stream, model, bound)
        stream.expect_sym(",")
        body = _parse_body(stream, model)
        stream.expect_sym(",")
        promisee = _agent_ref(stream, model, bound)
        stream.expect_sym(")")
        return HasPromise(promiser, body, promisee)
    if word == "E":
        stream.advance()
        stream.expect_sym("(")
        body = _parse_body(stream, model)
        stream.expect_sym(")")
        return IsExclusive(body)
    stream.fail("a condition")


def _guard_prefix(stream: _Stream, model: PromiseModel):
    if not stream.at_sym("["):
        return None
    stream.advance()
    cond = _parse_condition(stream, model)
    stream.expect_sym("]")
    stream.expect_sym("->")
    return Guard.binding, partial(Guard, cond)


def _term_primary(stream: _Stream, model: PromiseModel, definitions: dict[str, ProcessTerm]) -> ProcessTerm:
    kind, word, column = stream.peek()
    if kind not in _NAMES:
        stream.fail("a process term")
    if word == "pi" or word == "pw":
        return Act(_parse_event(stream, model))
    stream.advance()
    if word == "delta" or word == "ok":
        return DEADLOCK if word == "delta" else DONE
    if word == "protocol":
        stream.expect_sym("(")
        initiator = _agent(stream, model)
        stream.expect_sym(",")
        responder = _agent(stream, model)
        stream.expect_sym(",")
        body = _parse_body(stream, model)
        stream.expect_sym(")")
        try:
            return make_protocol(model, initiator, responder, body)
        except InvalidBody as err:
            raise ValidationError(f"line {stream.line}: {err}") from err
    if word in definitions:
        return definitions[word]
    raise ValidationError(f"line {stream.line}, column {column}: unknown process {word!r}")


def _parse_term_stream(stream: _Stream, model: PromiseModel, definitions: dict[str, ProcessTerm]) -> ProcessTerm:
    guard, primary = partial(_guard_prefix, model=model), partial(_term_primary, model=model, definitions=definitions)
    return _parse(stream, _TERM_OPERATORS, guard, primary)


def parse_term(text: str, model: PromiseModel, definitions: dict[str, ProcessTerm] | None = None) -> ProcessTerm:
    """Parse a single process term (used for terms outside scenario files)."""
    line = _decomment(text)
    stream = _Stream(_tokenize(line, 1), 1, line, len(text) + 1)
    term = _parse_term_stream(stream, model, definitions or {})
    stream.expect_end()
    return term


def parse_trace(text: str, model: PromiseModel) -> list[Event]:
    """Parse a trace file: one event per line, ``#`` comments allowed. A
    line that is one plain event is read with one match."""
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _decomment(raw)
        match = _EVENT_LINE_RE.fullmatch(line)
        if match and (event := _plain_event(match, model)):
            events.append(event)
            continue
        tokens = _tokenize(line, lineno)
        if not tokens:
            continue
        stream = _Stream(tokens, lineno, line, len(raw) + 1)
        events.append(_parse_event(stream, model))
        stream.expect_end()
    return events


# ---------------------------------------------------------------------------
# rendering

def render(value) -> str:
    """Canonical text for scenarios, terms, promises, traces and states."""
    if isinstance(value, Scenario):
        return _render_scenario(value)
    return str(value)


def _render_scenario(s: Scenario) -> str:
    lines: list[str] = []
    if s.model.agents:
        lines.append("agent " + " ".join(a.name for a in s.model.agents))
    for low, high in sorted(s.model.order.declared, key=lambda p: (p[0].name, p[1].name)):
        lines.append(f"subord {low} <= {high}")
    for tag in s.model.user_types():
        lines.append(f"type {tag}")
    for atom in s.model.user_atoms():
        lines.append(f"task {atom} : {atom.type}")
    for body in sorted(s.model.exclusiveness.exclusive, key=str):
        lines.append(f"exclusive {body}")
    for pair in sorted(s.model.incompatibility.declared, key=lambda p: sorted(map(str, p))):
        x, y = sorted(pair, key=str)
        lines.append(f"incompatible {x} # {y}")
    for name, term in s.definitions:
        lines.append(f"def {name} = {term}")
    if s.initial_state.promises:
        rendered = ", ".join(
            f"pi({p.promiser}, {p.body}, {p.promisee})"
            for p in sorted(s.initial_state, key=str)
        )
        lines.append(f"init {rendered}")
    lines.append(f"run {s.entry}")
    return "\n".join(lines) + "\n"
