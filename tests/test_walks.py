"""`promise run` and `promise verify-trace` against reference walks.

The engine makes only the successors a caller takes: a walk makes the
one move it picks, a replay the moves labelled by the trace's next
event. The references here make every successor, through the
configuration view ``transitions``:

- the walk of seed ``s`` is ``random.Random(s).choice(transitions(...))``
  from the initial configuration until no transition is left;
- the replay follows the set of configurations that each prefix of the
  trace reaches, through ``transitions`` of every one of them.

Both render the command-line report themselves, and the whole stdout of
the command line, text and JSON, must equal it: for the walk of every
seed, and for the replay of every distinct walk, of its middle prefix
and of a copy with its middle event swapped for one that is not
available there. Every proper prefix of a walk is replayed by
``verify_trace`` too, whose verdict the command line renders.
"""

from __future__ import annotations

import importlib.util
import json
import random
from pathlib import Path

import pytest

from promisekit import Configuration, can_terminate, parse_scenario, transitions
from promisekit.explorer import build_lts, verify_trace
from promisekit.process_algebra import IntroduceEvent, Par, WithdrawEvent, _term_of
from promisekit.promise_state import EMPTY_STATE

from golden_outputs import CORPUS, GOLDEN, ROOT, SEEDS
from helpers import run_cli
from reference_render import render_term
from scenario_gen import random_scenario_text

WALK_SEEDS = sorted(set(SEEDS) | set(range(32)))


def _bench_offers():
    spec = importlib.util.spec_from_file_location("bench_scenarios", ROOT / "bench" / "scenarios.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.offers


def _ties(n: int) -> str:
    """``n`` copies of one introduction, interleaved: every move of a walk
    has the same event, so each order is decided by the successors."""
    return "agent a b\ntype t\ntask g : t\nrun " + " || ".join(["pi(a, g, b)"] * n) + "\n"


OFFERS = _bench_offers()
GOLDEN_SCENARIOS = ("deep_sequential", "deep_mixed", "nondeterministic", "offers3")
# (id, scenario text, strict conflicts)
CASES = [
    *((f"corpus-{name}", (ROOT / CORPUS / f"{name}.promise").read_text(encoding="utf-8"), False)
      for name in ("jub", "isp", "laws")),
    *((f"golden-{name}-{mode}", (ROOT / GOLDEN / f"{name}.promise").read_text(encoding="utf-8"), strict)
      for name in GOLDEN_SCENARIOS for mode, strict in (("dyadic", False), ("strict", True))),
    *((f"offers-{n}", OFFERS(1, n), False) for n in range(2, 9)),
    *((f"ties-{n}", _ties(n), False) for n in range(2, 7)),
    # two moves with one event and one successor: one transition
    ("merged", "agent a b\ntype t\ntask g : t\nrun pi(a, g, b) + [true] -> pi(a, g, b)\n", False),
    ("merged-plain", "agent a b\ntype t\ntask g : t\nrun pi(a, g, b) + pi(a, g, b)\n", False),
]
GENERATED = [(seed, strict) for seed in range(200) for strict in (False, True)]


def _run_report(seed: int, events: list, final: Configuration, fmt: str) -> str:
    outcome = "successful" if can_terminate(final.term) else "deadlocked"
    if fmt == "json":
        payload = {
            "seed": seed,
            "events": [str(e) for e in events],
            "outcome": outcome,
            "final_state": sorted(str(p) for p in final.state),
        }
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join([*map(str, events), f"outcome: {outcome}", f"final state: {final.state}"]) + "\n"


def _verify_report(verdict: tuple, events: list, fmt: str) -> str:
    if verdict[0] == "accepted":
        _, state, maximal, outcome = verdict
        if fmt == "json":
            payload = {
                "verdict": "accepted",
                "maximal": maximal,
                "outcome": outcome,
                "final_state": sorted(str(p) for p in state),
            }
            return json.dumps(payload, indent=2) + "\n"
        lines = ["accepted", f"maximal: {'yes' if maximal else 'no'}", f"outcome: {outcome or 'incomplete'}"]
        return "\n".join([*lines, f"final state: {state}"]) + "\n"
    _, index, available, state = verdict
    if fmt == "json":
        payload = {
            "verdict": "rejected",
            "index": index,
            "event": str(events[index]),
            "available": [str(e) for e in available],
            "state": sorted(str(p) for p in state),
        }
        return json.dumps(payload, indent=2) + "\n"
    lines = [f"rejected at index {index}: {events[index]}", "available events:"]
    return "\n".join([*lines, *(f"  {e}" for e in available), f"state: {state}"]) + "\n"


def _reference_walk(model, initial: Configuration, seed: int) -> tuple[list, Configuration]:
    rng = random.Random(seed)
    current, events = initial, []
    while moves := transitions(model, current):
        event, current = rng.choice(moves)
        events.append(event)
    return events, current


def _accepted(model, current: set) -> tuple:
    """The verdict on a trace that leads to the configurations ``current``."""
    ends = [config for config in current if not transitions(model, config)]
    outcome = None
    if ends:
        outcome = "successful" if any(can_terminate(config.term) for config in ends) else "deadlocked"
    return "accepted", next(iter(current)).state, bool(ends), outcome


def _reference_replay(model, initial: Configuration, events: list) -> list[tuple]:
    """The verdict on each prefix of ``events`` that is not rejected, the
    empty one first, then the rejection if there is one."""
    current, verdicts = {initial}, []
    for index, wanted in enumerate(events):
        verdicts.append(_accepted(model, current))
        moves = [move for config in current for move in transitions(model, config)]
        targets = {config for event, config in moves if event == wanted}
        if not targets:
            available = sorted({event for event, _ in moves}, key=str)
            return verdicts + [("rejected", index, available, next(iter(current)).state)]
        current = targets
    return verdicts + [_accepted(model, current)]


def _swapped(model, initial: Configuration, walk: list) -> list | None:
    """The walk with its middle event swapped for the first event, in
    rendered order, of those it or its counterpart withdrawal or
    introduction names that is not available there."""
    index = len(walk) // 2
    current = {initial}
    for event in walk[:index]:
        current = {config for c in current for e, config in transitions(model, c) if e == event}
    available = {event for config in current for event, _ in transitions(model, config)}
    candidates = set(walk)
    for e in walk:
        if isinstance(e, (IntroduceEvent, WithdrawEvent)):
            other = WithdrawEvent if isinstance(e, IntroduceEvent) else IntroduceEvent
            candidates.add(other(e.promiser, e.body, e.promisee))
    unavailable = sorted((e for e in candidates if e not in available), key=str)
    return walk[:index] + unavailable[:1] + walk[index + 1 :] if unavailable else None


def _check(text: str, strict: bool, tmp_path: Path) -> None:
    scenario_file = tmp_path / "scenario.promise"
    scenario_file.write_text(text, encoding="utf-8")
    mode = ["--strict-conflicts"] if strict else []
    scenario = parse_scenario(text, strict_conflicts=strict)
    model = scenario.model
    initial = Configuration(scenario.entry, scenario.initial_state)
    walks = []
    for seed in WALK_SEEDS:
        events, final = _reference_walk(model, initial, seed)
        for fmt in ("text", "json"):
            argv = ["run", str(scenario_file), "--seed", str(seed), "--format", fmt, *mode]
            assert run_cli(argv) == (0, _run_report(seed, events, final, fmt), "")
        if events not in walks:
            walks.append(events)
    trace_file = tmp_path / "trace.txt"
    for walk in walks:
        verdicts = _reference_replay(model, initial, walk)
        # every proper prefix through the library, whose verdict the
        # command line renders; the middle one through the command line too
        for length, (_, state, maximal, outcome) in enumerate(verdicts[:-1]):
            verdict = verify_trace(model, initial, walk[:length])
            assert (verdict.final_state, verdict.maximal, verdict.outcome and str(verdict.outcome)) == (state, maximal, outcome)
        middle = len(walk) // 2
        cases = [(walk, verdicts[-1]), (walk[:middle], verdicts[middle])]
        swapped = _swapped(model, initial, walk)
        if swapped is not None:
            cases.append((swapped, _reference_replay(model, initial, swapped)[-1]))
            assert cases[-1][1][:2] == ("rejected", middle)
        for events, verdict in cases:
            trace_file.write_text("".join(f"{e}\n" for e in events), encoding="utf-8")
            for fmt in ("text", "json"):
                argv = ["verify-trace", str(scenario_file), "--trace", str(trace_file), "--format", fmt, *mode]
                expected = _verify_report(verdict, events, fmt)
                assert run_cli(argv) == (0 if verdict[0] == "accepted" else 1, expected, "")


@pytest.mark.parametrize("text, strict", [case[1:] for case in CASES], ids=[case[0] for case in CASES])
def test_walks_and_replays_match_the_reference(text, strict, tmp_path):
    _check(text, strict, tmp_path)


@pytest.mark.parametrize("seed, strict", GENERATED, ids=[f"{seed}-{'strict' if s else 'dyadic'}" for seed, s in GENERATED])
def test_generated_walks_and_replays_match_the_reference(seed, strict, tmp_path):
    _check(random_scenario_text(seed), strict, tmp_path)


def test_tied_walks_order_by_successor():
    # each move of the tie family has one event: the walk's choices are
    # among successors ordered by their rendered terms
    scenario = parse_scenario(_ties(3))
    initial = Configuration(scenario.entry, scenario.initial_state)
    moves = transitions(scenario.model, initial)
    assert [str(config.term) for _, config in moves] == [
        "ok || pi(a, g, b) || pi(a, g, b)",
        "pi(a, g, b) || ok || pi(a, g, b)",
        "pi(a, g, b) || pi(a, g, b) || ok",
    ]
    merged = parse_scenario(CASES[-2][1])
    assert len(transitions(merged.model, Configuration(merged.entry, merged.initial_state))) == 1


# every point reached in the corpus, the golden scenarios and offers N=2-4,
# and a right operand that is a join
RENDERED = [case for case in CASES if case[0].startswith(("corpus-", "golden-", "offers-2", "offers-3", "offers-4"))]
RENDERED.append(("nested", "agent a b\ntype t\ntask g : t\nrun (pi(a, g, b) || (pi(a, g, b) || ok)) || pi(a, g, b) . (ok || ok)\n", False))


@pytest.mark.parametrize("text, strict", [case[1:] for case in RENDERED], ids=[case[0] for case in RENDERED])
def test_interleavings_render_as_the_reference(text, strict):
    # an interleaving's text is joined from its leaves' texts; no term is
    # built for it, and the reference renders the term built afterwards
    scenario = parse_scenario(text, strict_conflicts=strict)
    model = scenario.model
    lts = build_lts(model, Configuration(scenario.entry, scenario.initial_state))
    engine = model._engine
    points = [point for point in engine.points.values() if point.op is Par]
    unbuilt = [point for point in points if point._term is None]  # reached by steps
    texts = [(engine.texts[point], str(point)) for point in points]
    assert all(point._term is None for point in unbuilt)
    for point, (cached, plain) in zip(points, texts):
        assert cached == plain == render_term(_term_of(point))
    for node, (point, _) in zip(lts.nodes, lts._keys):
        assert engine.texts[point] == render_term(node.term)
