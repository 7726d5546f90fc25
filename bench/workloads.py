"""The benchmark's workloads, run in a child process of ``run.py``.

    python3 bench/workloads.py --workload NAME --seed N --seconds S --trace 0|1 --work DIR

needs ``src`` on PYTHONPATH. It writes the workload's generated inputs to
DIR, times fresh-process set-up, runs the workload as a closed loop with
one client for S seconds and prints one JSON object with the samples,
the answer checks and, with ``--trace 1``, the per-layer figures.

Every timed operation's exit code and output digest is compared with
``answers.json``, recorded from the seed commit by ``record.py``. The
seed selects one of ``VARIANTS`` recorded input variants, so that every
answer has a recorded counterpart. Checks that do not depend on the code
under test (the SOS oracle in ``tests/sos_oracle.py``, node and edge
counts, replay agreement) run beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import promisekit
import promisekit.cli

import scenarios
from hostspeed import SETUP_REFERENCE_S, HostSpeed
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
ANSWERS = Path(__file__).resolve().parent / "answers.json"
VARIANTS = 8
TRACE_CAP = 10_000
SETUP_PROBES = 15

# Sizes are fixed per workload; the seed never changes them.
SIZES = {
    # N=4 concurrent offers: 2,160 nodes and 8,640 edges; each explore is
    # followed by `walks` run/verify-trace pairs on the same scenario.
    "offers": {"n": 4, "walks": 40},
    # One negotiation of 4 * 50 = 200 events.
    "sequential": {"goods": 50},
    # Walks on N=8 offers, each followed by a small explore of N=2.
    "replay": {"n": 8, "explore_n": 2, "walks": 64},
}
KINDS = ("explore", "verify", "run")


def cli(argv: list[str]) -> tuple[int, str, str]:
    """``promise ARGV`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = promisekit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def digest(answer) -> str:
    return hashlib.sha256(json.dumps(answer).encode()).hexdigest()[:12]


def load_oracle():
    spec = importlib.util.spec_from_file_location("sos_oracle", ROOT / "tests" / "sos_oracle.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class Harness:
    """Times operations and checks every answer.

    With ``answers`` None it records digests instead of comparing them.
    """

    def __init__(self, answers: dict[str, str] | None):
        self.answers = answers
        self.recorded: dict[str, str] = {}
        self.tracer: Tracer | None = None
        self.speed = HostSpeed()
        # (start, end) of every timed operation, by kind
        self.samples: dict[str, list[tuple[float, float]]] = {kind: [] for kind in KINDS}
        self.attempted = 0
        self.failed_ops: set[int] = set()
        self.messages: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    def fail(self, op_id: int, message: str) -> None:
        self.failed_ops.add(op_id)
        if len(self.messages) < 20:
            self.messages.append(message)

    def check(self, op_id: int, ok: bool, message: str) -> None:
        if not ok:
            self.fail(op_id, message)

    def timed(self, kind: str, key: str, fn):
        """Run ``fn`` as one timed operation; returns (op id, answer)."""
        self.attempted += 1
        op_id = self.attempted
        self.speed.maybe_calibrate()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                answer = fn()
            else:
                answer = self.tracer.operation(kind, op_id, fn)
        except Exception as err:  # a crash is a failed operation, not a harness error
            self.fail(op_id, f"{key}: raised {err!r}")
            return op_id, None
        self.samples[kind].append((start, time.perf_counter()))
        found = digest(answer)
        if self.answers is None:
            self.recorded[key] = found
        elif self.answers.get(key) != found:
            self.fail(op_id, f"{key}: answer {found} differs from record {self.answers.get(key)}")
        return op_id, answer

    def scaled(self, kind: str) -> list[float]:
        """The operation times of ``kind``, scaled to the reference host."""
        return [(end - start) * self.speed.scale(start, end) for start, end in self.samples[kind]]

    def cross_check(self, name: str, fn) -> None:
        """An untimed check that does not depend on the code under test."""
        self.attempted += 1
        try:
            ok = fn()
        except Exception as err:
            self.fail(self.attempted, f"{name}: raised {err!r}")
            return
        self.check(self.attempted, ok, f"{name}: failed")


def walk_and_replay(h: Harness, scenario: Path, walk_file: Path, index: int, seed: int) -> None:
    """``promise run --seed`` then ``promise verify-trace`` of the walk it printed."""
    run_id, ran = h.timed("run", f"run/{index}", lambda: cli(["run", str(scenario), "--seed", str(seed)]))
    if ran is None:
        return
    code, out, _ = ran
    lines = out.splitlines()
    h.check(run_id, code == 0 and len(lines) >= 2, f"run/{seed}: exit {code}")
    if code != 0 or len(lines) < 2:
        return
    events, outcome, final = lines[:-2], lines[-2], lines[-1]
    walk_file.write_text("\n".join(events) + "\n", encoding="utf-8")
    verify_id, verified = h.timed(
        "verify", f"verify/{index}", lambda: cli(["verify-trace", str(scenario), "--trace", str(walk_file)])
    )
    if verified is None:
        return
    code, out, _ = verified
    h.check(
        verify_id,
        code == 0 and out.splitlines() == ["accepted", "maximal: yes", outcome, final],
        f"verify/{seed}: walk not accepted as maximal with the state run printed",
    )


def explore_pipeline(path: Path) -> dict:
    """What ``promise explore`` computes, through the library: the CLI
    stops at the trace cap on this size and prints no counts."""
    scenario = promisekit.parse_scenario(path.read_text(encoding="utf-8"))
    initial = promisekit.Configuration(scenario.entry, scenario.initial_state)
    lts = promisekit.build_lts(scenario.model, initial)
    try:
        promisekit.maximal_traces(lts, max_traces=TRACE_CAP)
        capped = None
    except promisekit.LimitExceeded as err:
        capped = str(err)
    violations = promisekit.check_invariants(scenario.model, lts)
    deadlocks = promisekit.find_deadlocks(lts)
    return {
        "nodes": len(lts.nodes),
        "edges": len(lts.edges),
        "traces": capped,
        "violations": [str(v) for v in violations],
        "deadlocks": [f"{node.state} with {node.term}" for node in deadlocks],
    }


class Workload:
    """A workload's inputs for one seed and its cycle of operations."""

    def __init__(self, name: str, seed: int, work: Path, sizes: dict | None = None):
        self.name = name
        self.variant = seed % VARIANTS
        self.sizes = sizes or SIZES[name]
        self.work = work
        work.mkdir(parents=True, exist_ok=True)
        self.walk_file = work / f"{name}.walk.txt"
        s = self.sizes
        if name == "offers":
            self.scenario = self._write("offers.promise", scenarios.offers(self.variant, s["n"]))
            self.setup_files = [self.scenario]
            self.walks = scenarios.walk_seeds(self.variant, s["walks"])
        elif name == "sequential":
            text, trace = scenarios.sequential(self.variant, s["goods"])
            self.scenario = self._write("sequential.promise", text)
            self.trace = self._write("sequential.trace.txt", trace)
            self.events = trace.splitlines()
            self.setup_files = [self.scenario]
        elif name == "replay":
            self.scenario = self._write("replay.promise", scenarios.offers(self.variant, s["n"]))
            self.small = self._write("replay.small.promise", scenarios.offers(self.variant, s["explore_n"]))
            self.setup_files = [self.scenario, self.small]
            self.walks = scenarios.walk_seeds(self.variant, s["walks"])
        else:
            raise ValueError(f"unknown workload {name!r}")

    def _write(self, filename: str, text: str) -> Path:
        path = self.work / filename
        path.write_text(text, encoding="utf-8")
        return path

    def cycle(self, h: Harness) -> None:
        """One cycle of operations; every cycle of a run is the same, so
        the mix of walks does not depend on how many cycles fit in a run."""
        getattr(self, f"_cycle_{self.name}")(h)

    def _cycle_offers(self, h: Harness) -> None:
        op_id, result = h.timed("explore", "explore", lambda: explore_pipeline(self.scenario))
        if result is not None:
            h.check(
                op_id,
                result["traces"] == f"trace limit of {TRACE_CAP} exceeded"
                and not result["violations"]
                and not result["deadlocks"],
                "explore: expected the trace cap, no violations and no deadlocks",
            )
        for index, seed in enumerate(self.walks):
            walk_and_replay(h, self.scenario, self.walk_file, index, seed)

    def _cycle_sequential(self, h: Harness) -> None:
        length = len(self.events)
        op_id, result = h.timed("explore", "explore", lambda: cli(["explore", str(self.scenario)]))
        if result is not None:
            code, out, _ = result
            lines = out.splitlines()
            h.check(
                op_id,
                code == 0
                and lines[:4] == [f"nodes: {length + 1}", f"edges: {length}", "traces: 1", "trace 1 (successful):"]
                and [line.strip() for line in lines[4 : 4 + length]] == self.events,
                "explore: expected L+1 nodes, L edges and the one successful trace",
            )
        op_id, result = h.timed(
            "verify", "verify", lambda: cli(["verify-trace", str(self.scenario), "--trace", str(self.trace)])
        )
        if result is not None:
            h.check(
                op_id,
                result[0] == 0
                and result[1].splitlines() == ["accepted", "maximal: yes", "outcome: successful", "final state: {}"],
                "verify: the generated trace was not accepted as maximal",
            )
        op_id, result = h.timed("run", "run", lambda: cli(["run", str(self.scenario)]))
        if result is not None:
            h.check(
                op_id,
                result[0] == 0 and result[1].splitlines() == self.events + ["outcome: successful", "final state: {}"],
                "run: the walk differs from the only maximal trace",
            )

    def _cycle_replay(self, h: Harness) -> None:
        for index, seed in enumerate(self.walks):
            walk_and_replay(h, self.scenario, self.walk_file, index, seed)
            self._explore_small(h)

    def _explore_small(self, h: Harness) -> None:
        op_id, result = h.timed("explore", "explore", lambda: cli(["explore", str(self.small)]))
        if result is not None:
            h.check(
                op_id,
                result[0] == 0 and result[1].splitlines()[:3] == ["nodes: 48", "edges: 96", "traces: 340"],
                "explore: expected 48 nodes, 96 edges and 340 traces",
            )

    def cross_checks(self, h: Harness) -> None:
        """The SOS oracle against the explorer on the family's smallest instance."""
        oracle = load_oracle()
        if self.name == "sequential":
            text, trace = scenarios.sequential(self.variant, 1)
            events = trace.splitlines()
        else:
            text = scenarios.offers(self.variant, 2)
        scenario = promisekit.parse_scenario(text)
        expected = oracle.oracle_traces(scenario.model, scenario.entry, scenario.initial_state)
        if self.name == "offers":
            h.cross_check("oracle: N=2 offers", lambda: _explorer_agrees(oracle, scenario, expected, 340))
        elif self.name == "sequential":
            h.cross_check(
                "oracle: one-good negotiation",
                lambda: _explorer_agrees(oracle, scenario, expected, 1)
                and expected == {(tuple(events), "successful")},
            )
        else:
            path = self._write("oracle.promise", text)
            seeds = scenarios.walk_seeds(self.variant, 8)
            h.cross_check("oracle: N=2 walks", lambda: _walks_are_traces(path, seeds, expected))


def _explorer_agrees(oracle, scenario, expected, count: int) -> bool:
    lts = promisekit.build_lts(scenario.model, promisekit.Configuration(scenario.entry, scenario.initial_state))
    found = oracle.explorer_trace_set(promisekit.maximal_traces(lts))
    return found == expected and len(found) == count


def _walks_are_traces(scenario: Path, seeds: list[int], expected) -> bool:
    for seed in seeds:
        code, out, _ = cli(["run", str(scenario), "--seed", str(seed)])
        lines = out.splitlines()
        if code != 0 or (tuple(lines[:-2]), lines[-2].removeprefix("outcome: ")) not in expected:
            return False
    return True


def run_cycles(workload: Workload, h: Harness, seconds: float) -> int:
    """Run whole cycles until ``seconds`` have passed (at least one);
    returns the number of cycles."""
    start = time.perf_counter()
    cycles = 0
    while True:
        workload.cycle(h)
        cycles += 1
        if time.perf_counter() - start >= seconds:
            h.speed.maybe_calibrate(force=True)  # brackets the last operations
            return cycles


def setup_seconds(files: list[Path]) -> list[float]:
    """Fresh-process ``import promisekit`` plus the first parse of each file."""
    probe = Path(__file__).resolve().parent / "setup_probe.py"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(probe), *map(str, files)],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        seconds, loop_seconds = map(float, done.stdout.split())
        times.append(seconds * SETUP_REFERENCE_S / loop_seconds)
    return times


def quantile(samples: list[float], q: int) -> float:
    if not samples:  # every operation of the kind failed, so correct is false
        return 0.0
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def end_to_end(h: Harness, setup: list[float]) -> dict:
    scaled = {kind: h.scaled(kind) for kind in KINDS}
    busy = [t for times in scaled.values() for t in times]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "explore_s.p50": (quantile(scaled["explore"], 50), "s"),
        "verify_s.p50": (quantile(scaled["verify"], 50), "s"),
        "run_s.p50": (quantile(scaled["run"], 50), "s"),
        # one client in a closed loop: operations per second of program time
        "ops_per_s": (len(busy) / sum(busy) if busy else 0.0, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(t: Tracer, cycles: int, overhead: float) -> dict:
    """Figures per cycle of the workload, so that counts do not depend on
    how many cycles fit in the run."""
    def s(name):
        return t.stats[name]

    pi, intro, step = s("promise_state.pi_enabled"), s("promise_state.introduce"), s("process_algebra.step")
    per = lambda value: value / cycles  # noqa: E731
    return {
        "dsl.parse_scenario.calls": (per(s("dsl.parse_scenario").calls), "count"),
        "dsl.parse_scenario.total_s": (per(s("dsl.parse_scenario").total_s), "s"),
        "dsl.parse_trace.total_s": (per(s("dsl.parse_trace").total_s), "s"),
        "task_algebra.incompatible.calls": (per(s("task_algebra.incompatible").calls), "count"),
        "task_algebra.is_exclusive.calls": (per(s("task_algebra.is_exclusive").calls), "count"),
        "promise_state.pi_enabled.calls": (per(pi.calls), "count"),
        "promise_state.pi_enabled.self_s": (per(pi.self_s), "s"),
        "promise_state.pi_enabled.enabled_ratio": (pi.true_results / pi.calls if pi.calls else 0.0, "ratio"),
        "promise_state.introduce.calls": (per(intro.calls), "count"),
        "promise_state.introduce.self_s": (per(intro.self_s), "s"),
        "promise_state.withdraw.calls": (per(s("promise_state.withdraw").calls), "count"),
        "promise_state.scans_per_introduction": (
            (pi.calls + intro.calls) / intro.calls if intro.calls else 0.0, "ratio"),
        "process_algebra.step.calls": (per(step.calls), "count"),
        "process_algebra.step.self_s": (per(step.self_s), "s"),
        "process_algebra.step.calls_per_edge": (t.steps_in_build / t.edges if t.edges else 0.0, "ratio"),
        "process_algebra.can_terminate.calls": (per(s("process_algebra.can_terminate").calls), "count"),
        "process_algebra.can_terminate.self_s": (per(s("process_algebra.can_terminate").self_s), "s"),
        "process_algebra.eval_condition.calls": (per(s("process_algebra.eval_condition").calls), "count"),
        "explorer.build_lts.self_s": (per(s("explorer.build_lts").self_s), "s"),
        "explorer.build_lts.total_s": (per(s("explorer.build_lts").total_s), "s"),
        "explorer.maximal_traces.self_s": (per(s("explorer.maximal_traces").self_s), "s"),
        "explorer.check_invariants.total_s": (per(s("explorer.check_invariants").total_s), "s"),
        "explorer.find_deadlocks.total_s": (per(s("explorer.find_deadlocks").total_s), "s"),
        "explorer.verify_trace.self_s": (per(s("explorer.verify_trace").self_s), "s"),
        "explorer.verify_trace.total_s": (per(s("explorer.verify_trace").total_s), "s"),
        "explorer.nodes": (per(t.nodes), "count"),
        "explorer.edges": (per(t.edges), "count"),
        "cli.main.calls": (per(s("cli.main").calls), "count"),
        "cli.main.self_s": (per(s("cli.main").self_s), "s"),
        "gc.collections": (per(t.gc_collections), "count"),
        "gc.pause_s": (per(t.gc_pause_s), "s"),
        "tracing.overhead_ratio": (overhead, "ratio"),
    }


def load_answers(workload: str, variant: int) -> dict[str, str]:
    with open(ANSWERS, encoding="utf-8") as f:
        return json.load(f)[workload][str(variant)]


def measure(workload: Workload, h: Harness, seconds: float, trace: bool) -> dict:
    """Runs the workload for ``seconds``; returns its result record."""
    workload.cross_checks(h)
    tails = {}
    if not trace:
        setup = setup_seconds(workload.setup_files)
        cycles = run_cycles(workload, h, seconds)
        metrics = end_to_end(h, setup)
        # Recorded but not gated: between runs the p90s spread by 8-15%,
        # more than a third of the largest bound a metric may have.
        tails = {f"{kind}_s.p90": quantile(h.scaled(kind), 90) for kind in KINDS}
    else:
        # Untraced first, then the same cycles traced: the ratio of their
        # scaled operation times per cycle is the tracing overhead.
        cycles = run_cycles(workload, h, seconds / 2)
        untraced = sum(sum(h.scaled(kind)) for kind in KINDS)
        tracer = Tracer()
        h.tracer = tracer
        tracer.install()
        try:
            traced_cycles = run_cycles(workload, h, seconds / 2)
        finally:
            tracer.uninstall()
        traced = sum(sum(h.scaled(kind)) for kind in KINDS) - untraced
        tracer.write_spans(workload.work / f"spans-{workload.name}-{workload.variant}.jsonl")
        metrics = per_layer(tracer, traced_cycles, (traced / traced_cycles) / (untraced / cycles))
    return {
        "workload": workload.name,
        "variant": workload.variant,
        "cycles": cycles,
        "samples": {kind: len(v) for kind, v in h.samples.items()},
        "wall_p50_s": {kind: statistics.median(end - start for start, end in v) for kind, v in h.samples.items() if v},
        "tails": tails,
        "attempted": h.attempted,
        "failed": h.failed,
        "messages": h.messages,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(SIZES), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, required=True)
    args = parser.parse_args(argv)
    workload = Workload(args.workload, args.seed, args.work)
    h = Harness(load_answers(workload.name, workload.variant))
    result = measure(workload, h, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
