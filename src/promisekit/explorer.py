"""Exhaustive exploration of the negotiation state space.

Terms are finite and every transition consumes one action, so the
transition system of any configuration is a finite DAG. The explorer
builds it breadth-first, enumerates the maximal traces (event sequences
ending in a configuration with no outgoing transitions), verifies
externally supplied traces, and checks the state invariants over every
reachable node. All outputs are deterministically ordered so repeated
runs are byte-identical.
"""

from __future__ import annotations

import enum
from collections import deque
from dataclasses import dataclass
from functools import partial

from .process_algebra import (
    Configuration,
    Event,
    _configuration,
    _locate,
    _Point,
    step,
)
from .promise_state import PromiseModel, State, _clashes

__all__ = [
    "Lts",
    "Outcome",
    "Trace",
    "Accepted",
    "Rejected",
    "Violation",
    "LimitExceeded",
    "transitions",
    "final_outcome",
    "build_lts",
    "maximal_traces",
    "verify_trace",
    "check_invariants",
    "find_deadlocks",
    "DEFAULT_NODE_LIMIT",
    "DEFAULT_TRACE_LIMIT",
]

DEFAULT_NODE_LIMIT = 100_000
DEFAULT_TRACE_LIMIT = 10_000


class LimitExceeded(Exception):
    """Exploration hit a resource cap; ``partial`` holds what was built."""

    def __init__(self, what: str, limit: int, partial=None):
        super().__init__(f"{what} limit of {limit} exceeded")
        self.what = what
        self.limit = limit
        self.partial = partial


class _Renderings(dict):
    """Each key's ``str``, computed at its first lookup: events, control
    points, and states by (promise table, bits)."""

    def __missing__(self, item) -> str:
        if item.__class__ is tuple:
            text = self[item] = str(item[0].state(item[1]))
        else:
            text = self[item] = str(item)
        return text


def transitions(
    model: PromiseModel, config: Configuration, texts: _Renderings | None = None
) -> list[tuple[Event, Configuration]]:
    """The one-step transitions of a configuration in the order every
    report uses: by rendered event, then successor term, then state. An
    exploration keeps ``texts`` for all its calls, so that no event, term
    or state is rendered twice."""
    moves = _ordered(model, _locate(model, config), texts)
    return [(event, _configuration(*after)) for event, after in moves]


def _ordered(
    model: PromiseModel, node: tuple[_Point, int], texts: _Renderings | None
) -> list[tuple[Event, tuple[_Point, int]]]:
    """``transitions`` of a (control point, bits) node, as ``step`` gives
    them for a node."""
    moves = step(model, node)
    if len(moves) > 1:
        texts = _Renderings() if texts is None else texts
        if len({texts[event] for event, _ in moves}) == len(moves):
            # distinct events decide the order: no successor is rendered
            moves.sort(key=lambda move: texts[move[0]])
        else:
            table = node[0].table
            moves.sort(key=lambda move: (texts[move[0]], texts[move[1][0]], texts[table, move[1][1]]))
    return moves


class Lts:
    """A fully explored transition system.

    ``nodes`` are in breadth-first discovery order; per-node outgoing
    transitions are sorted by rendered event, then successor. Walks over
    the system use integer ids: a node's id is its place in ``nodes``,
    and an edge's ends are found by identity, so that a built system
    never hashes a configuration: each distinct configuration must be one
    object, as ``build_lts`` makes it. An end that is not in ``nodes``
    (the edges of a truncated build) gets an id after them.
    """

    def __init__(
        self,
        initial: Configuration,
        nodes: tuple[Configuration, ...],
        edges: tuple[tuple[Configuration, Event, Configuration], ...],
    ):
        self.initial = initial
        self.nodes = nodes
        self.edges = edges
        self._ends = list(nodes)  # every edge end, by id
        self._ids = {id(node): number for number, node in enumerate(nodes)}
        # every distinct event, numbered in rendered order: ids sort as reports do
        self._events: list[Event] = sorted(dict.fromkeys(event for _, event, _ in edges), key=str)
        event_ids = {event: number for number, event in enumerate(self._events)}
        moves = [
            (self._number(source), event_ids[event], self._number(target)) for source, event, target in edges
        ]
        self._successors: list[list[tuple[int, int]]] = [[] for _ in self._ends]
        for source, event, target in moves:
            self._successors[source].append((event, target))

    def _number(self, config: Configuration) -> int:
        """The id of an edge end; a new end gets the next id."""
        number = self._ids.get(id(config))
        if number is None:
            number = self._ids[id(config)] = len(self._ends)  # the edges keep it alive
            self._ends.append(config)
        return number

    def outgoing(self, config: Configuration) -> list[tuple[Event, Configuration]]:
        moves = self._successors[self._ids[id(config)]]
        return [(self._events[event], self._ends[target]) for event, target in moves]


def build_lts(
    model: PromiseModel,
    initial: Configuration,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Lts:
    """Breadth-first closure of ``step`` starting from ``initial``.

    Configurations are deduplicated structurally, by control point and
    the bits of their state, and each is one object: every edge leads to
    the instance in ``nodes``. Raises LimitExceeded (with the partial
    system attached) when more than ``node_limit`` configurations are
    reachable; its ``nodes`` are the first ``node_limit``.
    """
    if node_limit <= 0:
        raise ValueError("node_limit must be positive")
    # each configuration by (control point, bits), to its one instance
    start = _locate(model, initial)
    seen = {start: initial}
    texts = _Renderings()
    edges: list[tuple[Configuration, Event, Configuration]] = []
    queue = deque([(start, initial)])
    truncated = False
    while queue:
        source, config = queue.popleft()
        for event, key in _ordered(model, source, texts):
            node = seen.get(key)
            if node is None:
                node = seen[key] = _configuration(*key)
                if len(seen) > node_limit:
                    truncated = True
                else:
                    queue.append((key, node))
            edges.append((config, event, node))
    lts = Lts(initial, tuple(seen.values())[:node_limit], tuple(edges))
    if truncated:
        raise LimitExceeded("node", node_limit, partial=lts)
    return lts


class Outcome(enum.Enum):
    SUCCESSFUL = "successful"
    DEADLOCKED = "deadlocked"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Trace:
    """A maximal run: its events in order, and how it ended."""

    events: tuple[Event, ...]
    outcome: Outcome

    def __str__(self) -> str:
        return "\n".join(str(event) for event in self.events)


def final_outcome(config: Configuration) -> Outcome:
    """How a run ends that stopped in ``config``: successful when its term
    can terminate, deadlocked otherwise."""
    return Outcome.SUCCESSFUL if config.terminates else Outcome.DEADLOCKED


def _after(nodes, successors, outcome) -> tuple[dict, set[Outcome]]:
    """One step of the subset construction: each event that ``successors``
    gives any of ``nodes``, with every node it leads to, and the
    ``outcome`` of each of ``nodes`` that has no transition."""
    targets: dict = {}
    ends: set[Outcome] = set()
    for node in nodes:
        moves = successors(node)
        if not moves:
            ends.add(outcome(node))
        for event, target in moves:
            found = targets.get(event)
            if found is None:
                targets[event] = {target}
            else:
                found.add(target)
    return targets, ends


def maximal_traces(lts: Lts, max_traces: int = DEFAULT_TRACE_LIMIT) -> list[Trace]:
    """Every event sequence from the initial node to a terminal node.

    Distinct paths yielding the same (events, outcome) pair collapse to
    one trace. The result is sorted by rendered events, then outcome: the
    walk visits each event prefix once, with every node it reaches, and
    yields its own traces before its extensions in rendered-event order,
    so it stops at the first trace past ``max_traces`` in that order.
    Nodes and events are walked as ids (see ``Lts``). Prefixes that reach
    the same nodes share their extensions, so each distinct set of nodes
    is expanded once per walk (Rabin & Scott's subset construction).
    """
    traces: list[Trace] = []
    events = lts._events
    successors = lts._successors.__getitem__
    ends = lts._ends

    def outcome(node: int) -> Outcome:
        return final_outcome(ends[node])

    # a depth-first walk on an explicit stack, so that no recursion limit
    # bounds the trace length; an entry is (prefix length, its last event,
    # the nodes it reaches), and ``path`` holds the prefix being visited
    path: list[Event] = []
    stack: list[tuple[int, int, frozenset[int]]] = [(0, -1, frozenset({lts._ids[id(lts.initial)]}))]
    # each set of nodes met: its outcomes in report order, and its
    # (event, nodes it leads to) children in the order they are pushed
    expanded: dict[frozenset[int], tuple[list[Outcome], list[tuple[int, frozenset[int]]]]] = {}
    while stack:
        length, event, nodes = stack.pop()
        if length:
            del path[length - 1 :]
            path.append(events[event])
        found = expanded.get(nodes)
        if found is None:
            targets, finals = _after(nodes, successors, outcome)
            children = [(event, frozenset(targets[event])) for event in sorted(targets, reverse=True)]
            found = expanded[nodes] = sorted(finals, key=str), children
        finals, children = found
        for end in finals:
            traces.append(Trace(tuple(path), end))
            if len(traces) > max_traces:
                raise LimitExceeded("trace", max_traces, partial=traces)
        stack += [(length + 1, event, nodes) for event, nodes in children]
    return traces


@dataclass(frozen=True)
class Accepted:
    """Trace verdict: every event labelled an available transition."""

    final_state: State
    maximal: bool
    outcome: Outcome | None  # None when the trace can still be extended


@dataclass(frozen=True)
class Rejected:
    """Trace verdict: mismatch at ``index``; ``available`` lists the
    events that were enabled there instead."""

    index: int
    available: tuple[Event, ...]
    state: State


def verify_trace(
    model: PromiseModel,
    initial: Configuration,
    events: tuple[Event, ...] | list[Event],
) -> Accepted | Rejected:
    """Replay an event sequence against the step semantics.

    The same event may label transitions into different terms, so the
    replay tracks every configuration the prefix can reach, as (control
    point, bits); the promise state is identical across them because it
    is a function of the events.
    """

    def ending(node: tuple[_Point, int]) -> Outcome:
        return final_outcome(_configuration(*node))

    start = _locate(model, initial)
    table = start[0].table
    current = {start}
    successors = partial(step, model)
    for index, wanted in enumerate(events):
        targets, _ = _after(current, successors, ending)
        if wanted not in targets:
            available = tuple(sorted(targets, key=str))
            return Rejected(index=index, available=available, state=table.state(next(iter(current))[1]))
        current = targets[wanted]

    _, ends = _after(current, successors, ending)
    # successful if any terminal configuration is, None if none is terminal
    outcome = Outcome.SUCCESSFUL if Outcome.SUCCESSFUL in ends else next(iter(ends), None)
    return Accepted(final_state=table.state(next(iter(current))[1]), maximal=bool(ends), outcome=outcome)


@dataclass(frozen=True)
class Violation:
    """Two promises of a reachable state that clash; ``kind`` is the
    reason, 'conflict' or 'exclusiveness'."""

    kind: str
    config: Configuration
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail} in state {self.config.state}"


def check_invariants(model: PromiseModel, lts: Lts) -> list[Violation]:
    """Every pair of promises that clash (see ``promise_state.clash``) in
    every reachable state, under the model's conflict mode: a mask test
    per held promise that can clash at all. Expected empty for any system
    reached through enabled speech acts."""
    return [
        Violation(reason, node, f"{p} and {q}")
        for node in lts.nodes
        for reason, p, q in _clashes(model, _locate(model, node)[1])
    ]


def find_deadlocks(lts: Lts) -> list[Configuration]:
    """Terminal configurations that cannot terminate successfully."""
    return [
        node
        for node, moves in zip(lts.nodes, lts._successors)
        if not moves and final_outcome(node) is Outcome.DEADLOCKED
    ]
