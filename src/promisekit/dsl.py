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
from dataclasses import dataclass
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

@dataclass(frozen=True)
class Token:
    kind: str  # 'name' | 'sym'
    value: str
    line: int
    column: int


_TOKEN_RE = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<name>[A-Za-z][A-Za-z0-9_]*)"
    r"|(?P<sym>=>|<=|!=|->|\|\||[()\[\],:.#+=!~])"
)


def _tokenize(text: str, line: int) -> list[Token]:
    tokens: list[Token] = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise ParseError(line, pos + 1, "a name or operator", repr(text[pos]))
        if match.lastgroup != "ws":
            tokens.append(Token(match.lastgroup, match.group(), line, pos + 1))
        pos = match.end()
    return tokens


class _Stream:
    """Cursor over one line's tokens with positioned errors."""

    def __init__(self, tokens: list[Token], line: int, end_column: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line
        self.end_column = end_column

    def peek(self) -> Token | None:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at_sym(self, *values: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "sym" and tok.value in values

    def at_name(self, *values: str) -> bool:
        tok = self.peek()
        return tok is not None and tok.kind == "name" and (not values or tok.value in values)

    def advance(self) -> Token:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, self.end_column, "more input")
        self.pos += 1
        return tok

    def expect_sym(self, value: str) -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "sym" or tok.value != value:
            self.fail(repr(value))
        return self.advance()

    def expect_name(self, what: str = "a name") -> Token:
        tok = self.peek()
        if tok is None or tok.kind != "name":
            self.fail(what)
        return self.advance()

    def expect_end(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(tok.line, tok.column, "end of line", repr(tok.value))

    def fail(self, expected: str) -> NoReturn:
        tok = self.peek()
        if tok is None:
            raise ParseError(self.line, self.end_column, expected)
        raise ParseError(tok.line, tok.column, expected, repr(tok.value))


def _decomment(raw: str) -> str:
    """Truncate a line at its comment. ``#`` starts a comment everywhere
    except that on ``incompatible`` lines the first hash is the operator."""
    keep = 1 if re.match(r"\s*incompatible\b", raw) else 0
    seen = 0
    for i, ch in enumerate(raw):
        if ch == "#":
            if seen >= keep:
                return raw[:i]
            seen += 1
    return raw


# ---------------------------------------------------------------------------
# scenarios

@dataclass(frozen=True)
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
    exclusive: list[tuple[int, str]] = []
    incompat: list[tuple[int, str, str]] = []
    defs: list[tuple[int, str, _Stream]] = []
    init_streams: list[tuple[int, _Stream]] = []
    run_stream: tuple[int, _Stream] | None = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(_decomment(raw), lineno)
        if not tokens:
            continue
        stream = _Stream(tokens, lineno, len(raw) + 1)
        directive = stream.expect_name("a directive")
        if directive.value == "agent":
            if not stream.at_name():
                stream.fail("an agent name")
            while stream.at_name():
                name = stream.advance().value
                _check_declarable(name, "agent", lineno)
                agents.append(name)
            stream.expect_end()
        elif directive.value == "subord":
            low = stream.expect_name("an agent name").value
            stream.expect_sym("<=")
            high = stream.expect_name("an agent name").value
            stream.expect_end()
            subordination.append((low, high))
        elif directive.value == "type":
            name = stream.expect_name("a type name").value
            _check_declarable(name, "type", lineno)
            stream.expect_end()
            types.append(name)
        elif directive.value == "task":
            name = stream.expect_name("an atom name").value
            _check_declarable(name, "atom", lineno)
            stream.expect_sym(":")
            type_name = stream.expect_name("a type name").value
            stream.expect_end()
            if name in atoms:
                raise ValidationError(f"line {lineno}: duplicate atom {name!r}")
            atoms[name] = type_name
        elif directive.value == "exclusive":
            body = _body_text(stream)
            stream.expect_end()
            exclusive.append((lineno, body))
        elif directive.value == "incompatible":
            first = _body_text(stream)
            stream.expect_sym("#")
            second = _body_text(stream)
            stream.expect_end()
            incompat.append((lineno, first, second))
        elif directive.value == "def":
            name = stream.expect_name("a definition name").value
            _check_declarable(name, "definition", lineno)
            stream.expect_sym("=")
            defs.append((lineno, name, stream))
        elif directive.value == "init":
            if init_streams:
                raise ValidationError(f"line {lineno}: duplicate init directive")
            init_streams.append((lineno, stream))
        elif directive.value == "run":
            if run_stream is not None:
                raise ValidationError(f"line {lineno}: duplicate run directive")
            run_stream = (lineno, stream)
        else:
            raise ParseError(directive.line, directive.column, "a directive", repr(directive.value))

    try:
        model = PromiseModel.create(
            agents=agents,
            types=types,
            atoms=atoms,
            subordination=subordination,
            incompatible_pairs=[(x, y) for _, x, y in incompat],
            exclusive=[body for _, body in exclusive],
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
        parts.append(stream.advance().value)
    name = stream.expect_name("an atom name")
    parts.append(name.value)
    return "".join(parts)


def _parse_body(stream: _Stream, model: PromiseModel) -> TaskBody:
    tok = stream.peek()
    text = _body_text(stream)
    try:
        return model.body(text)
    except UnknownAtom as err:
        line, col = (tok.line, tok.column) if tok else (stream.line, stream.end_column)
        raise ValidationError(f"line {line}, column {col}: {err}") from err


def _agent(stream: _Stream, model: PromiseModel) -> Agent:
    tok = stream.expect_name("an agent name")
    if not model.has_agent(tok.value):
        raise ValidationError(f"line {tok.line}, column {tok.column}: unknown agent {tok.value!r}")
    return model.agent(tok.value)


def _parse_event(stream: _Stream, model: PromiseModel) -> Event:
    head = stream.expect_name("pi or pw")
    if head.value not in ("pi", "pw"):
        raise ParseError(head.line, head.column, "pi or pw", repr(head.value))
    stream.expect_sym("(")
    promiser = _agent(stream, model)
    performer = None
    if stream.at_sym("["):
        stream.advance()
        performer = _agent(stream, model)
        stream.expect_sym("]")
    stream.expect_sym(",")
    body = _parse_body(stream, model)
    stream.expect_sym(",")
    promisee = _agent(stream, model)
    beneficiary = None
    if stream.at_sym("["):
        stream.advance()
        beneficiary = _agent(stream, model)
        stream.expect_sym("]")
    stream.expect_sym(")")
    delegated = performer is not None or beneficiary is not None
    if head.value == "pw":
        if delegated:
            raise ValidationError(
                f"line {head.line}: withdrawal events cannot be delegated"
            )
        return WithdrawEvent(promiser, body, promisee)
    if delegated:
        return GeneralizedIntroduceEvent(
            promiser,
            performer if performer is not None else promiser,
            body,
            promisee,
            beneficiary if beneficiary is not None else promisee,
        )
    return IntroduceEvent(promiser, body, promisee)


def _parse_promise_list(stream: _Stream, model: PromiseModel) -> list[Promise]:
    promises = []
    while True:
        event = _parse_event(stream, model)
        if not isinstance(event, IntroduceEvent):
            raise ValidationError("initial states may only contain basic promises (pi)")
        promises.append(Promise(event.promiser, event.body, event.promisee))
        if stream.at_sym(","):
            stream.advance()
            continue
        return promises


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
            tok = stream.peek()
            op = operators.get(tok.value) if tok is not None else None
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
        if stream.at_name("not"):
            stream.advance()
            return Not.binding, Not
        if not stream.at_name("forall"):
            return None
        stream.advance()
        var = stream.expect_name("a quantifier variable").value
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
    tok = stream.expect_name("an agent or quantifier variable")
    if tok.value in bound:
        return AgentVar(tok.value)
    if model.has_agent(tok.value):
        return model.agent(tok.value)
    raise ValidationError(
        f"line {tok.line}, column {tok.column}: unknown agent {tok.value!r}"
    )


def _condition_primary(stream: _Stream, model: PromiseModel, bound: dict[str, int]) -> Condition:
    if stream.at_name("true"):
        stream.advance()
        return TRUE
    if stream.at_name("false"):
        stream.advance()
        return FALSE
    if stream.at_name("p"):
        stream.advance()
        stream.expect_sym("(")
        promiser = _agent_ref(stream, model, bound)
        stream.expect_sym(",")
        body = _parse_body(stream, model)
        stream.expect_sym(",")
        promisee = _agent_ref(stream, model, bound)
        stream.expect_sym(")")
        return HasPromise(promiser, body, promisee)
    if stream.at_name("E"):
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
    if stream.at_name("delta"):
        stream.advance()
        return DEADLOCK
    if stream.at_name("ok"):
        stream.advance()
        return DONE
    if stream.at_name("pi", "pw"):
        return Act(_parse_event(stream, model))
    if stream.at_name("protocol"):
        head = stream.advance()
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
            raise ValidationError(f"line {head.line}: {err}") from err
    if stream.at_name():
        tok = stream.advance()
        if tok.value in definitions:
            return definitions[tok.value]
        raise ValidationError(
            f"line {tok.line}, column {tok.column}: unknown process {tok.value!r}"
        )
    stream.fail("a process term")


def _parse_term_stream(
    stream: _Stream, model: PromiseModel, definitions: dict[str, ProcessTerm]
) -> ProcessTerm:
    return _parse(
        stream,
        _TERM_OPERATORS,
        partial(_guard_prefix, model=model),
        partial(_term_primary, model=model, definitions=definitions),
    )


def parse_term(text: str, model: PromiseModel, definitions: dict[str, ProcessTerm] | None = None) -> ProcessTerm:
    """Parse a single process term (used for terms outside scenario files)."""
    tokens = _tokenize(_decomment(text), 1)
    stream = _Stream(tokens, 1, len(text) + 1)
    term = _parse_term_stream(stream, model, definitions or {})
    stream.expect_end()
    return term


def parse_trace(text: str, model: PromiseModel) -> list[Event]:
    """Parse a trace file: one event per line, ``#`` comments allowed."""
    events: list[Event] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = _tokenize(_decomment(raw), lineno)
        if not tokens:
            continue
        stream = _Stream(tokens, lineno, len(raw) + 1)
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
