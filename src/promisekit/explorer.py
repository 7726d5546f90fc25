"""Exhaustive exploration of the negotiation state space.

Terms are finite and every transition consumes one action, so the
transition system of any configuration is a finite DAG. The explorer
builds it breadth-first, enumerates the maximal traces (event sequences
ending in a configuration with no transitions), verifies
externally supplied traces, and checks the state invariants over every
reachable node. All outputs are deterministically ordered so repeated
runs are byte-identical.
"""

from __future__ import annotations

import enum
from collections.abc import Sequence
from functools import cached_property, partial
from operator import eq, itemgetter
from typing import NamedTuple

from .process_algebra import (
    Act,
    Configuration,
    Event,
    Par,
    _configuration,
    _locate,
    _Point,
    step,
)
from .promise_state import PromiseModel, State, _clashes
from .task_algebra import value

__all__ = [
    "Lts",
    "Outcome",
    "Trace",
    "Accepted",
    "Rejected",
    "Violation",
    "LimitExceeded",
    "transitions",
    "random_walk",
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
    """Exploration hit a resource cap; ``partial``, what was found, is made when first read."""

    def __init__(self, what: str, limit: int, make_partial=lambda: None):
        super().__init__(f"{what} limit of {limit} exceeded")
        self.what, self.limit, self._make_partial = what, limit, make_partial

    partial = cached_property(lambda self: self._make_partial())


def transitions(model: PromiseModel, config: Configuration) -> list[tuple[Event, Configuration]]:
    """The configuration view of ``step``: a configuration's transitions,
    each once, in report order: by rendered event, successor term, state.
    Every successor is made, as a configuration."""
    node = _locate(model, config)
    return [(move[1], _configuration(*model._engine.successor(node[0], move))) for move in _ordered(model, node)]


def _ordered(model: PromiseModel, node: tuple[_Point, int]) -> list[tuple]:
    """``transitions`` of a (control point, bits) node, as the moves
    ``step`` gives, each transition once: by event rank (see
    ``_Engine.rank``), and only on a tie, equal text, by rendered
    successor. Only the moves that tie have their successors made, to
    render them and to merge the moves that make one transition; such a
    move holds its whole successor point, with slot None."""
    moves = step(model, node)
    if len(moves) > 1:
        engine = model._engine
        if not engine.ranked:  # the first order asked of events not yet ranked
            engine.rank()
            moves = step(model, node)
        moves.sort(key=itemgetter(0))
        rank = None
        for move in moves:
            if move[0] == rank:
                break
            rank = move[0]
        else:  # distinct events decide the order: no successor is made
            return moves
        # the ranks that tie; equal events are one object, so equal tuples are one transition
        tied = {move[0] for move, following in zip(moves, moves[1:]) if move[0] == following[0]}
        point, texts = node[0], engine.texts
        made = (move[:2] + (None,) + engine.successor(point, move) if move[0] in tied else move for move in moves)
        moves = sorted(dict.fromkeys(made), key=lambda m: (m[0], texts[m[3]], texts[m[4]]) if m[0] in tied else m[:1])
    return moves


def random_walk(model: PromiseModel, initial: Configuration, rng) -> tuple[list[Event], tuple[_Point, int]]:
    """A walk from ``initial`` to a node with no transition, and its
    events: at each node, the move that ``rng.choice`` picks from
    ``transitions``' list. Only the picked move's successor is made, and
    the end is a (control point, bits) node, whose point tells how it ended."""
    node, events, successor = _locate(model, initial), [], model._engine.successor
    while moves := _ordered(model, node):
        move = rng.choice(moves)
        events.append(move[1])
        node = successor(node[0], move)
    return events, node


class _View(Sequence):
    """A read-only sequence of ``size`` items, item ``i`` being ``item(i)``,
    made when read. Views compare item by item, as tuples do."""

    def __init__(self, size: int, item):
        self._size, self._item = size, item

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, index):
        places = range(self._size)[index]  # negative indices and slices, as a tuple takes them
        return tuple(map(self._item, places)) if isinstance(index, slice) else self._item(places)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (_View, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


class Lts:
    """A fully explored transition system, numbered as ``build_lts`` found
    it: a node's id is its place in ``_keys``, the (control point, bits)
    nodes the build reached (see ``step``), or (configuration, None) for a
    node given as one. ``nodes`` are the first ``expanded``, in breadth-first
    order; later keys are the ends that a truncated build did not expand,
    and have no transitions. ``_successors`` holds each one's transitions as
    (event id, node id), sorted by rendered event, then successor; an
    event's id is its place in ``_events``, which are in rendered order, so
    that ids sort as reports do. ``nodes`` and ``edges`` are views whose
    lengths make nothing: this is where configurations are lazy. A node's
    configuration, its term and state, is made at its first read and kept,
    one object.
    """

    def __init__(self, nodes: list, successors: list[list[tuple[int, int]]], events: list[Event], expanded: int):
        self._keys = [node if node.__class__ is tuple else (node, None) for node in nodes]
        self._successors, self._events, self._made = successors, events, {}  # _made: each node read, by id
        self._expanded, self._size = min(expanded, len(nodes)), sum(map(len, successors))

    # each read makes a view, so that no view's hold on the system makes a cycle
    nodes = property(lambda self: _View(self._expanded, self._config))
    edges = property(lambda self: _View(self._size, self._edge))

    def _config(self, node: int) -> Configuration:
        config = self._made.get(node)
        if config is None:
            point, bits = self._keys[node]
            config = self._made[node] = point if bits is None else _configuration(point, bits)
        return config

    def _edge(self, index: int) -> tuple[Configuration, Event, Configuration]:
        source, event, target = self._ids[index]
        return self._config(source), self._events[event], self._config(target)

    # each edge as (source, event, target) ids, made at the first read of an edge
    _ids = cached_property(lambda self: [(s, e, t) for s, moves in enumerate(self._successors) for e, t in moves])


def build_lts(
    model: PromiseModel,
    initial: Configuration,
    node_limit: int = DEFAULT_NODE_LIMIT,
) -> Lts:
    """Breadth-first closure of ``step`` starting from ``initial``.

    Each successor node is made from its move here, in the loop over the
    node's moves. A node gets its id when the search first reaches it,
    keyed by its control point and the bits of its state. No configuration
    is made here: ``Lts`` makes one when a node is read, as one object, so
    every edge leads to the instance in ``nodes``, the first too, which
    equals ``initial``. An event's id is its rank (see
    ``_Engine.rank``), closed up when some ranked event labels no
    transition here. Raises LimitExceeded (with the partial system
    attached) when more than ``node_limit`` configurations are reachable;
    its ``nodes`` are the first ``node_limit``.
    """
    if node_limit <= 0:
        raise ValueError("node_limit must be positive")
    start = _locate(model, initial)
    ids = {start: 0}  # each (control point, bits) reached, to its id
    nodes = [start]  # by id, and the queue: the search expands them in order
    successors: list[list[tuple[int, int]]] = []
    labels: dict[int, Event] = {}  # the event of each rank that labels a transition
    engine = model._engine
    if not engine.ranked:  # the ids are ranks
        engine.rank()
    points, vector, replace = engine.points, engine._vector, engine.replace
    for node in nodes:
        if len(successors) == node_limit:
            break
        point = node[0]
        if point.op is Par:
            shape, leaves = point.parts
            row = list(leaves)
        moves = []
        for rank, event, slot, successor, after in _ordered(model, node):
            if slot is not None:  # the successor of a leaf: put it in its slot
                if successor.op is Par:
                    successor = replace(point, slot, successor)
                else:  # ``replace`` inlined, on one copy of the leaves per node:
                    # a call per move costs an offers build about 8%
                    row[slot] = successor
                    key = (shape, tuple(row))
                    row[slot] = leaves[slot]
                    successor = points.get(key) or vector(*key)
            key = (successor, after)
            target = ids.get(key)
            if target is None:
                target = ids[key] = len(nodes)
                nodes.append(key)
            labels[rank] = event
            moves.append((rank, target))
        successors.append(moves)
    successors += [[] for _ in range(len(nodes) - len(successors))]  # ends past the limit
    ranks = sorted(labels)
    if ranks and ranks[-1] >= len(ranks):  # some rank labels nothing here: close up the ids
        number = {rank: place for place, rank in enumerate(ranks)}
        successors = [[(number[rank], target) for rank, target in moves] for moves in successors]
    lts = Lts(nodes, successors, [labels[rank] for rank in ranks], node_limit)
    if len(nodes) > node_limit:
        raise LimitExceeded("node", node_limit, lambda: lts)
    return lts


class Outcome(enum.Enum):
    SUCCESSFUL = "successful"
    DEADLOCKED = "deadlocked"

    def __str__(self) -> str:
        return self.value


class Trace(NamedTuple):
    """A maximal run: its events in order, and how it ended."""

    events: tuple[Event, ...]
    outcome: Outcome

    def __str__(self) -> str:
        return "\n".join(str(event) for event in self.events)


def final_outcome(config: Configuration | _Point) -> Outcome:
    """How a run ends that stopped in ``config``, or in a node of this
    control point: successful when its term can terminate, deadlocked
    otherwise."""
    return Outcome.SUCCESSFUL if config.terminates else Outcome.DEADLOCKED


def _after(nodes, successors, outcome) -> tuple[dict, set[Outcome]]:
    """One step of the subset construction: each event that ``successors``
    gives any of ``nodes``, with every node it leads to, and the ``outcome``
    of each of ``nodes`` that has no transition. A move is (event, target)."""
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
    walk lists a prefix's own traces before its extensions in
    rendered-event order, so it stops at the first trace past
    ``max_traces`` in that order. Nodes and events are walked as ids (see
    ``Lts``). The traces after a prefix depend only on the set of nodes it
    reaches, so the walk visits each distinct set once (Rabin & Scott's
    subset construction): the first prefix to reach a set lists the
    traces below it, and every later one replays that listing, already in
    report order, under its own events. The walk keeps only a count and pieces
    (see ``_listing``): past the cap, no trace is made until ``partial`` is read.
    """
    events, successors, keys = lts._events, lts._successors.__getitem__, lts._keys

    def outcome(node: int) -> Outcome:
        return final_outcome(keys[node][0])

    # a depth-first walk on an explicit stack, so that no recursion limit
    # bounds the trace length. A frame is a set of nodes being listed: an
    # iterator over its events, the nodes each leads to, the set, the place
    # of its first trace and its prefix length; ``path`` is the prefix
    path: list[Event] = []
    frames: list[tuple] = []
    pieces, count = [], 0  # what the walk lists (see ``_listing``), and how many traces
    # each set of nodes listed: the traces below it are traces[first:end],
    # listed under a prefix of length ``depth``
    listed: dict[frozenset[int], tuple[int, int, int]] = {}
    nodes = frozenset({0})
    while True:
        found = listed.get(nodes)
        if found is None:
            targets, finals = _after(nodes, successors, outcome)
            frames.append((iter(sorted(targets)), targets, nodes, count, len(path)))
            if finals:
                pieces.append((tuple(path), sorted(finals, key=str)[: max_traces + 1 - count]))
                count += len(pieces[-1][1])
        else:
            first, end, depth = found
            end = min(end, first + max_traces + 1 - count)  # none beyond the one past the cap
            pieces.append((tuple(path), first, end, depth))
            count += end - first
        if count > max_traces:
            raise LimitExceeded("trace", max_traces, partial(_listing, pieces))
        while frames:  # on to the next event of the innermost set with one left
            children, targets, parent, first, depth = frames[-1]
            event = next(children, None)
            if event is not None:
                del path[depth:]
                path.append(events[event])
                nodes = frozenset(targets[event])
                break
            frames.pop()
            listed[parent] = (first, count, depth)
        else:
            return _listing(pieces)


def _listing(pieces: list[tuple]) -> list[Trace]:
    """The traces of ``maximal_traces``'s pieces: (prefix, outcomes), one per outcome, and (prefix,
    first, end, depth), ``traces[first:end]`` with their first ``depth`` events replaced by prefix."""
    traces: list[Trace] = []
    for piece in pieces:
        if len(piece) == 2:
            traces += [Trace(piece[0], end) for end in piece[1]]
        else:
            prefix, first, end, depth = piece
            traces += [Trace(prefix + old.events[depth:], old.outcome) for old in traces[first:end]]
    return traces


@value
class Accepted:
    """Trace verdict: every event labelled an available transition."""

    final_state: State
    maximal: bool
    outcome: Outcome | None  # None when the trace can still be extended


@value
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
    is a function of the events. Of the moves ``step`` gives, only those
    labelled by the trace's next event are made into nodes.
    """
    current = {_locate(model, initial)}
    engine = model._engine
    for index, wanted in enumerate(events):
        found = [(node[0], step(model, node)) for node in current]
        # equal events are one action point, whose event the moves hold
        action = engine.points.get((Act, wanted))
        event = action.parts[0] if action is not None else None
        targets = {engine.successor(point, move) for point, moves in found for move in moves if move[1] is event}
        if not targets:
            available = tuple(sorted({move[1] for _, moves in found for move in moves}, key=str))
            return Rejected(index=index, available=available, state=engine.table.state(next(iter(current))[1]))
        current = targets

    ends = {final_outcome(node[0]) for node in current if not step(model, node)}
    # successful if any terminal configuration is, None if none is terminal
    outcome = Outcome.SUCCESSFUL if Outcome.SUCCESSFUL in ends else next(iter(ends), None)
    return Accepted(final_state=engine.table.state(next(iter(current))[1]), maximal=bool(ends), outcome=outcome)


@value
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
    reached through enabled speech acts. Each distinct state is checked once;
    a node made by hand is located, and only nodes that clash are made."""
    table, nodes = model._table, lts.nodes
    states = [
        bits if bits is not None and point.table is table else _locate(model, nodes[node])[1]
        for node, (point, bits) in enumerate(lts._keys[: len(nodes)])
    ]
    clashes = {bits: _clashes(model, bits) for bits in set(states)}
    return [
        Violation(reason, nodes[node], f"{p} and {q}")
        for node, bits in enumerate(states)
        for reason, p, q in clashes[bits]
    ]


def find_deadlocks(lts: Lts) -> list[Configuration]:
    """Terminal configurations that cannot terminate successfully: only these are made."""
    keys, successors, nodes = lts._keys, lts._successors, lts.nodes
    return [
        nodes[node]
        for node in range(len(nodes))
        if not successors[node] and final_outcome(keys[node][0]) is Outcome.DEADLOCKED
    ]
