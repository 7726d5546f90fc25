"""Brute-force trace enumerator written straight off the transition rules.

Deliberately independent of the library's interpreter: enabledness,
stepping, termination and trace assembly are all re-derived here from the
rule definitions, using only the raw data (promise sets, the closure's
pair set, the exclusiveness set). The test suite compares its trace sets
against the explorer's.
"""

from __future__ import annotations

from promisekit.process_algebra import (
    Act,
    Alt,
    And,
    Deadlock,
    Done,
    FalseConst,
    ForAllAgents,
    GeneralizedIntroduceEvent,
    Guard,
    HasPromise,
    Implies,
    IntroduceEvent,
    IsExclusive,
    Not,
    Or,
    Par,
    Seq,
    TrueConst,
    WithdrawEvent,
)
from promisekit.promise_state import Agent, Promise, State
from promisekit.task_algebra import GAMMA

SUCCESS = "successful"
DEADLOCK = "deadlocked"


def _eval(model, cond, promises: frozenset[Promise], env: dict[str, Agent]) -> bool:
    if isinstance(cond, TrueConst):
        return True
    if isinstance(cond, FalseConst):
        return False
    if isinstance(cond, HasPromise):
        promiser = env[cond.promiser.name] if not isinstance(cond.promiser, Agent) else cond.promiser
        promisee = env[cond.promisee.name] if not isinstance(cond.promisee, Agent) else cond.promisee
        return Promise(promiser, cond.body, promisee) in promises
    if isinstance(cond, IsExclusive):
        return cond.body in model.exclusiveness.exclusive
    if isinstance(cond, Not):
        return not _eval(model, cond.operand, promises, env)
    if isinstance(cond, And):
        return _eval(model, cond.left, promises, env) and _eval(model, cond.right, promises, env)
    if isinstance(cond, Or):
        return _eval(model, cond.left, promises, env) or _eval(model, cond.right, promises, env)
    if isinstance(cond, Implies):
        return (not _eval(model, cond.left, promises, env)) or _eval(
            model, cond.right, promises, env
        )
    if isinstance(cond, ForAllAgents):
        excluded = (
            env[cond.excluding.name] if not isinstance(cond.excluding, Agent) else cond.excluding
        )
        for agent in model.agents:
            if agent == excluded:
                continue
            if not _eval(model, cond.body, promises, {**env, cond.var: agent}):
                return False
        return True
    raise TypeError(cond)


def _intro_allowed(model, promises: frozenset[Promise], candidate: Promise) -> bool:
    for p in promises:
        if p.promiser != candidate.promiser:
            continue
        if model.strict_conflicts or p.promisee == candidate.promisee:
            if frozenset((p.body, candidate.body)) in model.incompatibility.pairs:
                return False
    if candidate.body in model.exclusiveness.exclusive:
        for p in promises:
            if (
                p.promiser == candidate.promiser
                and p.body == candidate.body
                and p.promisee != candidate.promisee
            ):
                return False
    return True


def clash_reason(model, p: Promise, q: Promise) -> str | None:
    """Why one agent cannot hold both promises, straight off the
    introduction premise, or None: 'conflict' for incompatible bodies
    toward the same promisee (any promisee in strict mode), 'exclusiveness'
    for an exclusive body toward two promisees."""
    if p.promiser != q.promiser:
        return None
    in_scope = model.strict_conflicts or p.promisee == q.promisee
    if in_scope and frozenset((p.body, q.body)) in model.incompatibility.pairs:
        return "conflict"
    if p.body == q.body and p.promisee != q.promisee and p.body in model.exclusiveness.exclusive:
        return "exclusiveness"
    return None


def clash_masks(model, promises: list[Promise]) -> list[int]:
    """For each promise of the list, the bits of the others that clash with it."""
    return [sum(1 << j for j, q in enumerate(promises) if clash_reason(model, p, q)) for p in promises]


def _moves(model, term, promises: frozenset[Promise]):
    """All (event, term', promises') transitions, straight off the rules."""
    if isinstance(term, (Done, Deadlock)):
        return []
    if isinstance(term, Act):
        event = term.event
        if isinstance(event, IntroduceEvent):
            candidate = Promise(event.promiser, event.body, event.promisee)
            if _intro_allowed(model, promises, candidate):
                return [(event, Done(), promises | {candidate})]
            return []
        if isinstance(event, WithdrawEvent):
            present = Promise(event.promiser, event.body, event.promisee)
            if present in promises:
                return [(event, Done(), promises - {present})]
            return []
        if isinstance(event, GeneralizedIntroduceEvent):
            compliance = Promise(event.performer, GAMMA, event.promiser)
            induced = Promise(event.performer, event.body, event.beneficiary)
            if compliance in promises and _intro_allowed(model, promises, induced):
                return [(event, Done(), promises | {induced})]
            return []
        raise TypeError(event)
    if isinstance(term, Alt):
        return _moves(model, term.left, promises) + _moves(model, term.right, promises)
    if isinstance(term, Seq):
        out = [
            (event, Seq(rest, term.right), after)
            for event, rest, after in _moves(model, term.left, promises)
        ]
        if _finished(term.left):
            out += _moves(model, term.right, promises)
        return out
    if isinstance(term, Par):
        out = [
            (event, Par(rest, term.right), after)
            for event, rest, after in _moves(model, term.left, promises)
        ]
        out += [
            (event, Par(term.left, rest), after)
            for event, rest, after in _moves(model, term.right, promises)
        ]
        return out
    if isinstance(term, Guard):
        if _eval(model, term.condition, promises, {}):
            return _moves(model, term.body, promises)
        return []
    raise TypeError(term)


def _finished(term) -> bool:
    if isinstance(term, Done):
        return True
    if isinstance(term, (Seq, Par)):
        return _finished(term.left) and _finished(term.right)
    if isinstance(term, Alt):
        return _finished(term.left) or _finished(term.right)
    return False


def oracle_traces(model, term, state: State) -> set[tuple[tuple[str, ...], str]]:
    """All maximal runs as (rendered events, outcome) pairs."""

    def recurse(term, promises) -> set[tuple[tuple[str, ...], str]]:
        moves = _moves(model, term, promises)
        if not moves:
            return {((), SUCCESS if _finished(term) else DEADLOCK)}
        out = set()
        for event, rest_term, after in moves:
            for rest, outcome in recurse(rest_term, after):
                out.add(((str(event),) + rest, outcome))
        return out

    return recurse(term, state.promises)


def explorer_trace_set(traces) -> set[tuple[tuple[str, ...], str]]:
    """Normalize the explorer's Trace list for comparison."""
    return {(tuple(str(e) for e in t.events), t.outcome.value) for t in traces}
