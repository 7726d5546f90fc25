"""Seeded random scenario generator for round-trip testing.

Builds a random but always-valid model, then random term *objects* over
it and renders them, so the emitted text exercises the renderer's
parenthesization as well as the parser.
"""

from __future__ import annotations

import random
from functools import reduce

from promisekit.process_algebra import (
    Act,
    AgentVar,
    Alt,
    And,
    DEADLOCK,
    FALSE,
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
    TRUE,
    WithdrawEvent,
)
from promisekit.promise_state import PromiseModel
from promisekit.task_algebra import all_bodies, negate


def _random_condition(rng: random.Random, model, depth: int, bound: tuple[str, ...] = ()):
    bodies = all_bodies(model.user_atoms())
    refs = list(model.agents) + [AgentVar(v) for v in bound]
    leaves = [TRUE, FALSE, IsExclusive(rng.choice(bodies))]
    if refs:
        leaves.append(HasPromise(rng.choice(refs), rng.choice(bodies), rng.choice(refs)))
    if depth <= 1:
        return rng.choice(leaves)
    pick = rng.randrange(6)
    if pick == 0:
        return Not(_random_condition(rng, model, depth - 1, bound))
    if pick == 1:
        return And(
            _random_condition(rng, model, depth - 1, bound),
            _random_condition(rng, model, depth - 1, bound),
        )
    if pick == 2:
        return Or(
            _random_condition(rng, model, depth - 1, bound),
            _random_condition(rng, model, depth - 1, bound),
        )
    if pick == 3:
        return Implies(
            _random_condition(rng, model, depth - 1, bound),
            _random_condition(rng, model, depth - 1, bound),
        )
    if pick == 4 and model.agents:
        var = f"v{len(bound)}"
        return ForAllAgents(
            var,
            rng.choice(list(model.agents)),
            _random_condition(rng, model, depth - 1, bound + (var,)),
        )
    return rng.choice(leaves)


def _random_event(rng: random.Random, model):
    agents = list(model.agents)
    bodies = all_bodies(model.user_atoms())
    kind = rng.randrange(4)
    promiser, promisee = rng.choice(agents), rng.choice(agents)
    body = rng.choice(bodies)
    if kind == 0:
        return WithdrawEvent(promiser, body, promisee)
    if kind == 1:
        return GeneralizedIntroduceEvent(
            promiser, rng.choice(agents), body, promisee, rng.choice(agents)
        )
    return IntroduceEvent(promiser, body, promisee)


def _random_term(rng: random.Random, model, depth: int):
    if depth <= 1:
        if rng.randrange(6) == 0:
            return DEADLOCK
        return Act(_random_event(rng, model))
    pick = rng.randrange(5)
    if pick == 0:
        return Seq(_random_term(rng, model, depth - 1), _random_term(rng, model, depth - 1))
    if pick == 1:
        return Alt(_random_term(rng, model, depth - 1), _random_term(rng, model, depth - 1))
    if pick == 2:
        return Par(_random_term(rng, model, depth - 1), _random_term(rng, model, depth - 1))
    if pick == 3:
        return Guard(_random_condition(rng, model, 2), _random_term(rng, model, depth - 1))
    return _random_term(rng, model, depth - 1)


def random_scenario_text(seed: int, parts: int = 1) -> str:
    """A random, parseable scenario file. Past one part, its ``run`` term
    interleaves ``parts`` sequences of two generated terms each."""
    rng = random.Random(seed)
    agent_names = [f"ag{i}" for i in range(rng.randint(2, 4))]
    type_names = [f"ty{i}" for i in range(rng.randint(1, 2))]
    atom_types = {f"at{i}": rng.choice(type_names) for i in range(rng.randint(1, 3))}

    # subordination along increasing indices only, so no cycles
    subord = []
    for i in range(len(agent_names) - 1):
        if rng.random() < 0.4:
            subord.append((agent_names[i], agent_names[i + 1]))

    model = PromiseModel.create(agents=agent_names, types=type_names, atoms=atom_types)
    bodies = all_bodies(model.user_atoms())

    exclusive = sorted({str(rng.choice(bodies)) for _ in range(rng.randint(0, 3))})

    # declared pairs: same-type bodies of distinct atoms, avoiding anything
    # that would close into a negation conflict
    declared: list[tuple[str, str]] = []
    chosen: set[frozenset] = set()
    for _ in range(rng.randint(0, 4)):
        x, y = rng.choice(bodies), rng.choice(bodies)
        if x.atom == y.atom or x.atom.type != y.atom.type:
            continue
        pair = frozenset((x, y))
        if pair in chosen:
            continue
        if frozenset((x, negate(y))) in chosen or frozenset((negate(x), y)) in chosen:
            continue
        chosen.add(pair)
        declared.append((str(x), str(y)))

    lines = ["# generated scenario"]
    lines.append("agent " + " ".join(agent_names))
    for low, high in subord:
        lines.append(f"subord {low} <= {high}")
    for name in type_names:
        lines.append(f"type {name}")
    for name, type_name in atom_types.items():
        lines.append(f"task {name} : {type_name}")
    for body in exclusive:
        lines.append(f"exclusive {body}")
    for x, y in declared:
        lines.append(f"incompatible {x} # {y}")

    for i in range(rng.randint(0, 2)):
        term = _random_term(rng, model, rng.randint(1, 3))
        lines.append(f"def proc{i} = {term}")

    # one init promise per promiser guarantees the list is introducible
    if rng.random() < 0.5 and model.user_atoms():
        promisers = rng.sample(list(model.agents), rng.randint(1, len(model.agents)))
        items = []
        for promiser in promisers:
            atom = rng.choice(model.user_atoms())
            items.append(f"pi({promiser}, {atom.name}, {rng.choice(list(model.agents))})")
        lines.append("init " + ", ".join(items))

    def part():
        return _random_term(rng, model, rng.randint(1, 3))

    # interleaved sequences: each part has steps left after another moves
    run = part() if parts == 1 else reduce(Par, [Seq(part(), part()) for _ in range(parts)])
    lines.append(f"run {run}")
    return "\n".join(lines) + "\n"
