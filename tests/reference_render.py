"""The recursive renderer that ``process_algebra._render`` replaced, kept
as the reference it is tested against: one function per sort, each
precedence level spelled out by hand.

``rng`` adds redundant parentheses around random subterms and
subconditions, which must parse to the same term.
"""

from __future__ import annotations

import random

from promisekit.process_algebra import (
    Act,
    Alt,
    And,
    Deadlock,
    Done,
    FalseConst,
    ForAllAgents,
    Guard,
    HasPromise,
    Implies,
    IsExclusive,
    Not,
    Or,
    Par,
    Seq,
    TrueConst,
)


def render_term(term, rng: random.Random | None = None) -> str:
    return _term(term, rng)[0]


def render_condition(cond, rng: random.Random | None = None) -> str:
    return _condition(cond, rng)[0]


def _term(term, rng) -> tuple[str, int]:
    # binding strength: `.` over `+` over `||`; guards prefix one operand
    if isinstance(term, Done):
        return "ok", 4
    if isinstance(term, Deadlock):
        return "delta", 4
    if isinstance(term, Act):
        return str(term.event), 4
    for cls, symbol, binding in ((Seq, ".", 2), (Alt, "+", 1), (Par, "||", 0)):
        if isinstance(term, cls):
            left = _term_child(term.left, binding, rng)
            return f"{left} {symbol} {_term_child(term.right, binding + 1, rng)}", binding
    if isinstance(term, Guard):
        return f"[{_condition(term.condition, rng)[0]}] -> {_term_child(term.body, 3, rng)}", 3
    raise TypeError(f"not a process term: {term!r}")


def _term_child(term, min_prec: int, rng) -> str:
    text, prec = _term(term, rng)
    return f"({text})" if prec < min_prec or (rng and rng.random() < 0.2) else text


def _condition(cond, rng) -> tuple[str, int]:
    # implication is right-associative and binds loosest; quantifiers are
    # parenthesized whenever they appear as an operand so their (maximal)
    # body stays unambiguous
    if isinstance(cond, TrueConst):
        return "true", 5
    if isinstance(cond, FalseConst):
        return "false", 5
    if isinstance(cond, HasPromise):
        return f"p({cond.promiser}, {cond.body}, {cond.promisee})", 5
    if isinstance(cond, IsExclusive):
        return f"E({cond.body})", 5
    if isinstance(cond, Not):
        return f"not {_cond_child(cond.operand, 4, rng)}", 4
    if isinstance(cond, And):
        return f"{_cond_child(cond.left, 3, rng)} and {_cond_child(cond.right, 4, rng)}", 3
    if isinstance(cond, Or):
        return f"{_cond_child(cond.left, 2, rng)} or {_cond_child(cond.right, 3, rng)}", 2
    if isinstance(cond, Implies):
        return f"{_cond_child(cond.left, 2, rng)} => {_cond_child(cond.right, 1, rng)}", 1
    if isinstance(cond, ForAllAgents):
        body = _cond_child(cond.body, 0, rng)
        return f"forall {cond.var} != {cond.excluding} : {body}", 0
    raise TypeError(f"not a condition: {cond!r}")


def _cond_child(cond, min_prec: int, rng) -> str:
    text, prec = _condition(cond, rng)
    return f"({text})" if prec < min_prec or (rng and rng.random() < 0.2) else text
