"""Command-line front end.

    promise check FILE       validate a scenario and re-verify the algebra laws
    promise explore FILE     build the full state space, list traces/deadlocks
    promise run FILE         one seeded random walk to a terminal configuration
    promise verify-trace FILE --trace TRACEFILE   replay a trace file

Reports go to stdout, diagnostics to stderr. Exit codes: 0 success,
1 semantic failure, 2 resource limit, 64 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
from functools import cache, partial
from pathlib import Path

from .dsl import ParseError, Scenario, ValidationError, parse_scenario, parse_trace
from .explorer import (
    DEFAULT_NODE_LIMIT,
    DEFAULT_TRACE_LIMIT,
    Accepted,
    LimitExceeded,
    Outcome,
    build_lts,
    check_invariants,
    final_outcome,
    find_deadlocks,
    maximal_traces,
    random_walk,
    verify_trace,
)
from .process_algebra import Act, Configuration, GeneralizedIntroduceEvent, _Engine, event_promise
from .promise_state import _Table, obligation_warnings
from .task_algebra import algebra_law_violations, incompatibility_law_violations

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_LIMIT = 2
EXIT_USAGE = 64


class _ArgumentParser(argparse.ArgumentParser):
    """argparse exits 2 on bad usage; the convention here is 64."""

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive_int(text: str) -> int:
    if not text.isdecimal() or int(text) == 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


@cache
def _build_parser() -> _ArgumentParser:
    """The argument parser, built once per process: parsing leaves it as
    it was."""
    parser = _ArgumentParser(prog="promise", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("check", "explore", "run", "verify-trace"):
        p = sub.add_parser(name)
        p.add_argument("scenario", type=Path, help="scenario (.promise) file")
        if name == "verify-trace":
            p.add_argument("--trace", type=Path, required=True, help="trace file to replay")
        p.add_argument(
            "--strict-conflicts",
            action="store_true",
            help="check introductions against all of a promiser's promises, "
            "not only those toward the same promisee",
        )
        if name == "run":
            p.add_argument("--seed", type=int, default=0, help="random-walk seed")
        if name == "explore":
            p.add_argument("--node-limit", type=_positive_int, default=DEFAULT_NODE_LIMIT)
            p.add_argument("--max-traces", type=_positive_int, default=DEFAULT_TRACE_LIMIT)
        p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def _load(path: Path, parse):
    """The file at ``path`` given to ``parse``, or None after a one-line diagnostic."""
    try:
        return parse(path.read_text(encoding="utf-8-sig"))
    except (OSError, UnicodeDecodeError) as err:
        print(f"error: cannot read {path}: {err}", file=sys.stderr)
    except (ParseError, ValidationError) as err:
        print(f"error: {path}: {err}", file=sys.stderr)
    return None


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def cmd_check(args: argparse.Namespace, scenario: Scenario) -> int:
    model = scenario.model
    violations = algebra_law_violations(model.atoms)
    violations += incompatibility_law_violations(model.atoms, model.incompatibility)

    # the delegated events of the definitions and the entry: compiled under
    # no model, each distinct action is one point
    engine = _Engine(_Table())
    for term in [term for _, term in scenario.definitions] + [scenario.entry]:
        engine.compile(None, term)
    warnings = sorted(
        {
            str(w)
            for point in engine.points.values()
            if point.op is Act and point.parts[0].__class__ is GeneralizedIntroduceEvent
            for w in obligation_warnings(model, event_promise(point.parts[0]))
        }
    )

    status = "ok" if not violations else "failed"
    if args.format == "json":
        _print_json(
            {
                "scenario": str(args.scenario),
                "agents": len(model.agents),
                "atoms": len(model.atoms),
                "bodies": 4 * len(model.atoms),
                "pairs": len(model.incompatibility.pairs),
                "declared": len(model.incompatibility.declared),
                "violations": violations,
                "warnings": warnings,
                "status": status,
            }
        )
    else:
        lines = [
            f"scenario: {args.scenario}",
            f"agents: {len(model.agents)}",
            f"atoms: {len(model.atoms)}",
            f"task bodies: {4 * len(model.atoms)}",
            f"incompatibility pairs: {len(model.incompatibility.pairs)} "
            f"({len(model.incompatibility.declared)} declared)",
            f"law violations: {len(violations)}",
        ]
        lines += [f"  {v}" for v in violations]
        lines.append(f"warnings: {len(warnings)}")
        lines += [f"  {w}" for w in warnings]
        lines.append(status)
        print("\n".join(lines))
    return EXIT_OK if not violations else EXIT_FAILURE


def cmd_explore(args: argparse.Namespace, scenario: Scenario) -> int:
    initial = Configuration(scenario.entry, scenario.initial_state)
    try:
        lts = build_lts(scenario.model, initial, node_limit=args.node_limit)
        texts = map(scenario.model._engine.texts.__getitem__, lts._events)  # the build rendered each event once
        labels = list(texts) if args.format == "json" else [f"  {text}" for text in texts]
        traces = maximal_traces(lts, max_traces=args.max_traces, labels=labels)  # each event's line, as printed
    except LimitExceeded as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_LIMIT
    violations = check_invariants(scenario.model, lts)
    deadlocks = find_deadlocks(lts)

    if args.format == "json":
        _print_json(
            {
                "nodes": len(lts.nodes),
                "edges": len(lts.edges),
                "traces": [{"events": list(t.events), "outcome": str(t.outcome)} for t in traces],
                "deadlocks": [
                    {"state": str(node.state), "term": str(node.term)} for node in deadlocks
                ],
                "violations": [
                    {"kind": v.kind, "detail": v.detail, "state": str(v.config.state)}
                    for v in violations
                ],
            }
        )
    else:
        lines = [f"nodes: {len(lts.nodes)}", f"edges: {len(lts.edges)}", f"traces: {len(traces)}"]
        headers = {id(outcome): f" ({outcome}):" for outcome in Outcome}  # by id: no outcome is hashed or formatted
        for number, (events, outcome) in enumerate(traces, start=1):
            lines.append(f"trace {number}{headers[id(outcome)]}")
            lines += events
        lines.append(f"deadlocks: {len(deadlocks)}")
        lines += [f"  {node.state} with {node.term}" for node in deadlocks]
        lines.append(f"violations: {len(violations)}")
        lines += [f"  {v}" for v in violations]
        print("\n".join(lines))
    return EXIT_OK if not violations else EXIT_FAILURE


def cmd_run(args: argparse.Namespace, scenario: Scenario) -> int:
    initial = Configuration(scenario.entry, scenario.initial_state)
    events, end = random_walk(scenario.model, initial, random.Random(args.seed))
    texts = scenario.model._engine.texts  # renders each event once, and none the walk ranked
    outcome, state = final_outcome(end), texts.table.state(end[2])

    if args.format == "json":
        _print_json(
            {
                "seed": args.seed,
                "events": [texts[e] for e in events],
                "outcome": str(outcome),
                "final_state": sorted(str(p) for p in state),
            }
        )
    else:
        lines = [texts[event] for event in events]
        lines.append(f"outcome: {outcome}")
        lines.append(f"final state: {state}")
        print("\n".join(lines))
    return EXIT_OK


def cmd_verify_trace(args: argparse.Namespace, scenario: Scenario) -> int:
    events = _load(args.trace, partial(parse_trace, model=scenario.model))
    if events is None:
        return EXIT_FAILURE
    initial = Configuration(scenario.entry, scenario.initial_state)
    verdict = verify_trace(scenario.model, initial, events)
    if isinstance(verdict, Accepted):
        if args.format == "json":
            _print_json(
                {
                    "verdict": "accepted",
                    "maximal": verdict.maximal,
                    "outcome": str(verdict.outcome) if verdict.outcome else None,
                    "final_state": sorted(str(p) for p in verdict.final_state),
                }
            )
        else:
            lines = [
                "accepted",
                f"maximal: {'yes' if verdict.maximal else 'no'}",
                f"outcome: {verdict.outcome if verdict.outcome else 'incomplete'}",
                f"final state: {verdict.final_state}",
            ]
            print("\n".join(lines))
        return EXIT_OK
    if args.format == "json":
        _print_json(
            {
                "verdict": "rejected",
                "index": verdict.index,
                "event": str(events[verdict.index]),
                "available": [str(e) for e in verdict.available],
                "state": sorted(str(p) for p in verdict.state),
            }
        )
    else:
        lines = [
            f"rejected at index {verdict.index}: {events[verdict.index]}",
            "available events:",
        ]
        lines += [f"  {event}" for event in verdict.available]
        lines.append(f"state: {verdict.state}")
        print("\n".join(lines))
    return EXIT_FAILURE


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    command = {
        "check": cmd_check,
        "explore": cmd_explore,
        "run": cmd_run,
        "verify-trace": cmd_verify_trace,
    }[args.command]
    scenario = _load(args.scenario, partial(parse_scenario, strict_conflicts=args.strict_conflicts))
    if scenario is None:
        return EXIT_FAILURE
    try:
        return command(args, scenario)
    except BrokenPipeError:
        # downstream closed the pipe (e.g. | head); avoid a traceback and
        # the secondary error from the interpreter's exit-time flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
