"""Seeded scenario generators for the three benchmark families.

Each generator takes a seed and a size. The seed only permutes names and
orders: agent and goods names are drawn from fixed-width pools, so every
seed renders to text of the same length and yields a transition system
of the same shape. Sizes are set by the caller, never by the seed.
"""

from __future__ import annotations

import random

# Fixed-width name pools: a seed picks and orders names, never their length.
_AGENTS = [f"a{i:02d}" for i in range(100)]
_GOODS = [f"g{i:02d}" for i in range(100)]


def offers(seed: int, n: int) -> str:
    """``n`` concurrent offers of one exclusive good to one customer.

    n=2 is the shape of the bundled car-ride scenario: 48 nodes, 96 edges
    and 340 maximal traces.
    """
    rng = random.Random(f"offers/{seed}")
    customer, *offerers = rng.sample(_AGENTS, n + 1)
    good = rng.choice(_GOODS)
    lines = [
        "# n concurrent offers of one exclusive good",
        "agent " + " ".join([customer, *offerers]),
        "type t",
        f"task {good} : t",
        f"exclusive ~{good}",
        "run " + " || ".join(f"protocol({o}, {customer}, {good})" for o in offerers),
    ]
    return "\n".join(lines) + "\n"


def sequential(seed: int, goods: int) -> tuple[str, str]:
    """One negotiation of ``4 * goods`` events and its only maximal trace.

    For every good the supplier promises it and the customer promises to
    use it; afterwards all ``2 * goods`` promises are withdrawn in the
    order they were made. Returns (scenario text, trace text).
    """
    rng = random.Random(f"sequential/{seed}")
    supplier, customer = rng.sample(_AGENTS, 2)
    names = rng.sample(_GOODS, goods)
    intro, withdraw = [], []
    for good in names:
        intro += [f"pi({supplier}, {good}, {customer})", f"pi({customer}, ~{good}, {supplier})"]
        withdraw += [f"pw({supplier}, {good}, {customer})", f"pw({customer}, ~{good}, {supplier})"]
    events = intro + withdraw
    lines = [
        f"# one negotiation of {len(events)} events",
        f"agent {supplier} {customer}",
        "type t",
        *(f"task {good} : t" for good in sorted(names)),
        "run " + " . ".join(events),
    ]
    return "\n".join(lines) + "\n", "\n".join(events) + "\n"


def walk_seeds(seed: int, count: int) -> list[int]:
    """Seeds for the ``promise run`` walks of one cycle."""
    rng = random.Random(f"walks/{seed}")
    return [rng.randrange(2**31) for _ in range(count)]
