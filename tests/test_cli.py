"""Command-line behaviour: reports, exit codes, determinism."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from promisekit.cli import _build_parser
from promisekit.corpus import corpus_path
from promisekit.dsl import parse_scenario, parse_term
from promisekit.explorer import Lts
from promisekit import process_algebra
from promisekit.process_algebra import (
    GeneralizedIntroduceEvent,
    IntroduceEvent,
    Par,
    WithdrawEvent,
    _Engine,
    can_terminate,
)

from helpers import long_negotiation, offers, run_cli

JUB = str(corpus_path("jub.promise"))
LAWS = str(corpus_path("laws.promise"))
TRACE = str(corpus_path("jub_trace.txt"))
OFFERS3 = str(Path(__file__).parent / "golden" / "offers3.promise")

SIX_EVENTS = [
    "pi(ja, tbc2JUB, ma)",
    "pi(ma, ~tbc2JUB, ja)",
    "pi(ju, tbc2JUB, ma)",
    "pi(ma, !~tbc2JUB, ju)",
    "pw(ju, tbc2JUB, ma)",
    "pw(ma, !~tbc2JUB, ju)",
]


class TestCheck:
    def test_bundled_scenarios_are_clean(self):
        code, out, err = run_cli(["check", JUB])
        assert code == 0
        assert "law violations: 0" in out
        assert err == ""

    def test_delegation_warning_is_reported_but_not_fatal(self, tmp_path):
        code, out, _ = run_cli(["check", LAWS])
        assert code == 0
        assert "warnings: 1" in out
        assert "intern is subordinate to boss" in out
        # a delegated event only inside a guard, in a definition that run
        # never names, is still read; met once more elsewhere, it still
        # warns once
        header = "agent boss intern client\nsubord intern <= boss\ntype travel\ntask train : travel\n"
        hidden = "def unused = pi(boss, train, client) + [true] -> pi(boss[intern], train, client)\n"
        scenario = tmp_path / "hidden.promise"
        for run in ("run pi(boss, train, client)\n", "run pi(boss[intern], train, client) || ok\n"):
            scenario.write_text(header + hidden + run)
            code, out, _ = run_cli(["check", str(scenario)])
            assert code == 0
            assert "warnings: 1\n" in out and out.count("intern is subordinate to boss") == 1

    def test_redundant_axiom_declaration_passes(self, tmp_path):
        scenario = tmp_path / "redundant.promise"
        scenario.write_text(
            "agent a\ntype t\ntask x : t\nincompatible x # !x\nrun delta\n"
        )
        code, out, _ = run_cli(["check", str(scenario)])
        assert code == 0

    def test_cross_type_declaration_fails(self, tmp_path):
        scenario = tmp_path / "crosstype.promise"
        scenario.write_text(
            "agent a\ntype t\ntype u\ntask x : t\ntask y : u\n"
            "incompatible x # y\nrun delta\n"
        )
        code, out, err = run_cli(["check", str(scenario)])
        assert code == 1
        assert "share a type" in err

    def test_missing_file(self):
        code, _, err = run_cli(["check", "/nonexistent.promise"])
        assert code == 1
        assert "cannot read" in err

    def test_non_utf8_scenario(self, tmp_path):
        scenario = tmp_path / "latin1.promise"
        scenario.write_bytes("agent jos\xe9\nrun delta\n".encode("latin-1"))
        code, out, err = run_cli(["check", str(scenario)])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cannot read" in err

    def test_strict_mode_validates_init(self, tmp_path):
        scenario = tmp_path / "split.promise"
        scenario.write_text(
            "agent a b c\ntype t\ntask x : t\ninit pi(a, x, b), pi(a, !x, c)\nrun delta\n"
        )
        assert run_cli(["explore", str(scenario)])[0] == 0
        code, out, err = run_cli(["explore", str(scenario), "--strict-conflicts"])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "invalid initial state" in err

    def test_json_report(self):
        code, out, _ = run_cli(["check", JUB, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["status"] == "ok"
        assert payload["pairs"] == 4


class TestExplore:
    def test_lists_the_bundled_negotiation(self):
        code, out, _ = run_cli(["explore", JUB])
        assert code == 0
        block = "\n".join(f"  {event}" for event in SIX_EVENTS)
        assert block in out
        assert "deadlocks: 0" in out
        assert "violations: 0" in out

    def test_strict_mode_loses_the_negotiation_but_stays_sound(self):
        code, out, _ = run_cli(["explore", JUB, "--strict-conflicts"])
        assert code == 0  # deadlocks are reported, not fatal
        block = "\n".join(f"  {event}" for event in SIX_EVENTS)
        assert block not in out
        assert "violations: 0" in out
        assert "deadlocks: 0" not in out

    def test_json_schema(self):
        code, out, _ = run_cli(["explore", JUB, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert list(payload.keys()) == ["nodes", "edges", "traces", "deadlocks", "violations"]
        assert payload["nodes"] == 48
        assert payload["edges"] == 96
        assert len(payload["traces"]) == 340
        assert {t["outcome"] for t in payload["traces"]} == {"successful"}
        assert SIX_EVENTS in [t["events"] for t in payload["traces"]]

    def test_edges_are_counted_without_making_them(self, monkeypatch):
        # ``Lts._edge`` makes each (source, event, target) triple that is read
        monkeypatch.setattr(Lts, "_edge", lambda lts, index: pytest.fail("edge made"))
        code, out, _ = run_cli(["explore", JUB])
        assert code == 0 and out.splitlines()[:2] == ["nodes: 48", "edges: 96"]

    def test_node_limit_exit_code(self):
        code, _, err = run_cli(["explore", JUB, "--node-limit", "3"])
        assert code == 2
        assert "limit" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("mode", [[], ["--strict-conflicts"]], ids=["dyadic", "strict"])
    def test_trace_cap_is_one_line_on_stderr(self, fmt, mode):
        # 315,000 traces: the report is the diagnostic alone
        argv = ["explore", OFFERS3, "--format", fmt, *mode]
        assert run_cli(argv) == (2, "", "error: trace limit of 10000 exceeded\n")

    def test_trace_cap_one_below_the_count(self):
        assert run_cli(["explore", JUB, "--max-traces", "339"]) == (2, "", "error: trace limit of 339 exceeded\n")

    def test_explore_is_deterministic(self):
        first = run_cli(["explore", JUB])
        second = run_cli(["explore", JUB])
        assert first == second


class TestRun:
    def test_same_seed_same_walk(self):
        first = run_cli(["run", JUB, "--seed", "42"])
        second = run_cli(["run", JUB, "--seed", "42"])
        assert first == second
        assert first[0] == 0

    def test_walks_end_within_the_diameter(self):
        for seed in range(8):
            code, out, _ = run_cli(["run", JUB, "--seed", str(seed)])
            assert code == 0
            events = [line for line in out.splitlines() if line.startswith(("pi(", "pw("))]
            assert 0 < len(events) <= 8
            assert "outcome: successful" in out

    def test_walk_replays_through_verify(self, tmp_path):
        code, out, _ = run_cli(["run", JUB, "--seed", "7"])
        assert code == 0
        events = [line for line in out.splitlines() if line.startswith(("pi(", "pw("))]
        trace_file = tmp_path / "walk.txt"
        trace_file.write_text("\n".join(events) + "\n")
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", str(trace_file)])
        assert code == 0
        assert "accepted" in out

    def test_json_walk(self):
        code, out, _ = run_cli(["run", JUB, "--seed", "42", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["seed"] == 42
        assert payload["outcome"] == "successful"
        assert payload["events"]


class TestVerifyTrace:
    def test_bundled_trace_accepted(self):
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", TRACE])
        assert code == 0
        assert out.splitlines() == [
            "accepted",
            "maximal: yes",
            "outcome: successful",
            "final state: {ja:tbc2JUB->ma, ma:~tbc2JUB->ja}",
        ]

    def test_prefix_is_accepted_but_not_maximal(self, tmp_path):
        trace_file = tmp_path / "prefix.txt"
        trace_file.write_text("\n".join(SIX_EVENTS[:4]) + "\n")
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", str(trace_file)])
        assert code == 0
        assert "maximal: no" in out
        assert "outcome: incomplete" in out

    def test_non_utf8_trace(self, tmp_path):
        trace_file = tmp_path / "latin1.txt"
        trace_file.write_bytes(b"pi(ja, tbc2JUB, ma) # \xe9\n")
        code, out, err = run_cli(["verify-trace", JUB, "--trace", str(trace_file)])
        assert code == 1
        assert out == ""
        assert err.count("\n") == 1 and "cannot read" in err

    def test_files_with_a_byte_order_mark(self, tmp_path):
        # an editor may save UTF-8 with a byte-order mark: each report is the
        # one of the same files without it
        scenario, trace_file = tmp_path / "bom.promise", tmp_path / "bom.txt"
        scenario.write_bytes("\ufeff".encode() + Path(JUB).read_bytes())
        trace_file.write_bytes("\ufeff".encode() + Path(TRACE).read_bytes())
        for marked, plain in (
            (["explore", str(scenario)], ["explore", JUB]),
            (["run", str(scenario), "--seed", "3"], ["run", JUB, "--seed", "3"]),
            (["verify-trace", str(scenario), "--trace", str(trace_file)], ["verify-trace", JUB, "--trace", TRACE]),
        ):
            code, out, err = run_cli(plain)
            assert run_cli(marked) == (code, out, err) and code == 0 and err == ""

    def test_bad_first_event_rejected_at_zero(self, tmp_path):
        trace_file = tmp_path / "bad.txt"
        trace_file.write_text("pw(ja, tbc2JUB, ma)\n")
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", str(trace_file)])
        assert code == 1
        assert "rejected at index 0" in out

    def test_strict_mode_rejects_event_four(self):
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", TRACE, "--strict-conflicts"])
        assert code == 1
        assert "rejected at index 3: pi(ma, !~tbc2JUB, ju)" in out

    def test_json_verdict(self):
        code, out, _ = run_cli(["verify-trace", JUB, "--trace", TRACE, "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "accepted"
        assert payload["maximal"] is True
        assert payload["final_state"] == ["ja:tbc2JUB->ma", "ma:~tbc2JUB->ja"]


class TestUsage:
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["explode", JUB],
            ["verify-trace", JUB],  # --trace is required
            ["explore", JUB, "--format", "yaml"],
        ],
    )
    def test_usage_errors_exit_64(self, argv):
        code, _, err = run_cli(argv)
        assert code == 64
        assert err != ""

    @pytest.mark.parametrize(
        "argv",
        [
            ["explore", JUB, "--node-limit", "0"],
            ["explore", JUB, "--node-limit", "-1"],
            ["explore", JUB, "--max-traces", "0"],
            ["explore", JUB, "--max-traces", "-5"],
            ["explore", JUB, "--node-limit", "ten"],
        ],
    )
    def test_limits_must_be_positive_integers(self, argv):
        code, out, err = run_cli(argv)
        assert code == 64
        assert out == ""
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith(f"promise explore: error: argument {argv[2]}:")

    @pytest.mark.parametrize("flag", ["--node-limit", "--max-traces"])
    def test_run_takes_no_limits(self, flag):
        code, _, err = run_cli(["run", JUB, flag, "1"])
        assert code == 64
        assert "unrecognized arguments" in err


class TestFixedCostsPaidOnce:
    """One argument parser serves every call of a process, and a report
    renders each event once."""

    def _calls(self, tmp_path) -> list[list[str]]:
        broken = tmp_path / "broken.promise"
        broken.write_text("agent a b\ntype t\ntask x : t\nrun pi(a, x, q)\n", encoding="utf-8")
        calls = []
        for fmt in ("text", "json"):
            calls += [
                ["check", JUB, "--format", fmt],
                ["explore", JUB, "--strict-conflicts", "--format", fmt],
                ["explore", JUB, "--max-traces", "5", "--format", fmt],
                ["run", JUB, "--seed", "7", "--format", fmt],
                ["run", JUB, "--format", fmt],
                ["verify-trace", JUB, "--trace", TRACE, "--strict-conflicts", "--format", fmt],
                ["verify-trace", JUB, "--trace", TRACE, "--format", fmt],
            ]
        calls += [
            ["explore", JUB, "--format", "yaml"],  # usage error
            ["explore", str(broken)],  # scenario parse error
            ["explore", JUB],
        ]
        return calls

    def test_calls_keep_no_state_between_them(self, tmp_path):
        calls = self._calls(tmp_path)
        first = []
        for argv in calls:  # each call made first, with a parser of its own
            _build_parser.cache_clear()
            first.append(run_cli(argv))
        _build_parser.cache_clear()
        shared = [run_cli(argv) for argv in calls]
        assert _build_parser.cache_info().misses == 1
        assert [code for code, _, _ in first[-3:]] == [64, 1, 0]
        assert "unknown agent 'q'" in first[-2][2]
        for argv, alone, after in zip(calls, first, shared):
            assert after == alone, argv

    @pytest.fixture
    def renders(self, monkeypatch) -> dict:
        """How often each event is rendered, from here on."""
        renders: dict = {}
        for cls in (IntroduceEvent, WithdrawEvent, GeneralizedIntroduceEvent):

            def counting(event, render=cls.__str__):
                renders[event] = renders.get(event, 0) + 1
                return render(event)

            monkeypatch.setattr(cls, "__str__", counting)
        return renders

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_explore_renders_each_event_once(self, tmp_path, renders, fmt):
        scenario = tmp_path / "offers.promise"
        scenario.write_text(offers(2), encoding="utf-8")
        code, out, _ = run_cli(["explore", str(scenario), "--format", fmt])
        assert code == 0 and out.count("pi(o0, lift, c)") == 340  # in every trace
        assert len(renders) == 10 and set(renders.values()) == {1}  # five events per offer

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_walk_renders_each_event_once_and_its_replay_none(self, tmp_path, renders, fmt):
        # a walk orders moves, so its model's engine ranks, and renders,
        # every event once; a replay orders none and renders no event
        scenario, walk = tmp_path / "offers.promise", tmp_path / "walk.txt"
        scenario.write_text(offers(2), encoding="utf-8")
        code, out, _ = run_cli(["run", str(scenario), "--seed", "3", "--format", fmt])
        events = json.loads(out)["events"] if fmt == "json" else out.splitlines()[:-2]
        assert code == 0 and events
        assert set(renders.values()) == {1}
        assert set(map(str, renders)) >= set(events)  # read last: it renders them again
        renders.clear()
        walk.write_text("\n".join(events) + "\n", encoding="utf-8")
        code, out, _ = run_cli(["verify-trace", str(scenario), "--trace", str(walk), "--format", fmt])
        assert code == 0 and ("accepted" in out) and renders == {}

    def test_a_walk_compiles_its_term_once_under_its_model(self, tmp_path, monkeypatch):
        # the walk's end tells its outcome by its control point, so no term
        # is compiled again under no model; and compiling flattens each
        # ``||`` tree once, at its root
        scenario = tmp_path / "offers.promise"
        scenario.write_text(offers(3), encoding="utf-8")
        pending, roots = [(parse_scenario(offers(3)).entry, None)], 0
        while pending:
            term, parent = pending.pop()
            roots += term.__class__ is Par and parent is not Par
            pending += [(getattr(term, side), term.__class__) for side in ("left", "right", "body") if hasattr(term, side)]
        engines, flattened = [], []
        make, flatten = _Engine.__init__, process_algebra._flatten
        monkeypatch.setattr(_Engine, "__init__", lambda engine, table: engines.append(table) or make(engine, table))
        monkeypatch.setattr(process_algebra, "_flatten", lambda term: flattened.append(term) or flatten(term))
        for fmt in ("text", "json"):
            engines.clear(), flattened.clear()
            code, out, _ = run_cli(["run", str(scenario), "--seed", "3", "--format", fmt])
            assert code == 0 and "successful" in out
            assert len(engines) == 1  # the model's
            assert roots == 4 and len(flattened) == len(set(map(id, flattened))) == roots


class TestLongSequences:
    """Scenario size is bounded by the node limit, not by the interpreter's
    recursion limit."""

    @pytest.fixture(scope="class")
    def negotiation(self, tmp_path_factory):
        text, events = long_negotiation(150)
        directory = tmp_path_factory.mktemp("long")
        (directory / "long.promise").write_text(text, encoding="utf-8")
        (directory / "long.txt").write_text("\n".join(events) + "\n", encoding="utf-8")
        return str(directory / "long.promise"), str(directory / "long.txt"), events

    def test_explore(self, negotiation):
        scenario, _, events = negotiation
        code, out, _ = run_cli(["explore", scenario, "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert (report["nodes"], report["edges"]) == (601, 600)
        assert report["traces"] == [{"events": events, "outcome": "successful"}]

    def test_run(self, negotiation):
        scenario, _, events = negotiation
        code, out, _ = run_cli(["run", scenario, "--format", "json"])
        assert code == 0
        walk = json.loads(out)
        assert (walk["events"], walk["outcome"]) == (events, "successful")

    def test_verify_trace(self, negotiation):
        scenario, trace, _ = negotiation
        code, out, _ = run_cli(["verify-trace", scenario, "--trace", trace, "--format", "json"])
        assert code == 0
        verdict = json.loads(out)
        assert verdict["verdict"] == "accepted"
        assert (verdict["maximal"], verdict["outcome"]) == (True, "successful")

    def test_check(self, tmp_path):
        scenario = tmp_path / "repeat.promise"
        body = " . ".join(["pi(s, g, c) . pw(s, g, c)"] * 1_000)
        scenario.write_text(f"agent s c\ntype t\ntask g : t\nrun {body}\n", encoding="utf-8")
        code, out, _ = run_cli(["check", str(scenario)])
        assert code == 0
        assert out.splitlines()[-1] == "ok"

    def test_explore_renders_a_deep_sequence(self, tmp_path):
        # the first node has two transitions, so the 600-deep sequence after
        # it is rendered for the transition order
        scenario = tmp_path / "branch.promise"
        body = " . ".join(["pi(s, g, c) . pw(s, g, c)"] * 300)
        text = f"agent s c\ntype t\ntask g : t\ntask h : t\nrun (pi(s, h, c) + pi(c, h, s)) . ({body})\n"
        scenario.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(["explore", str(scenario), "--format", "json"])
        assert code == 0
        report = json.loads(out)
        assert (report["nodes"], report["edges"], len(report["traces"])) == (1203, 1202, 2)

    def test_explore_interleaves_a_deep_sequence(self, tmp_path):
        # the two orders of the interleaving reach equal but distinct
        # configurations with a 600-deep sequence, which the node lookup
        # compares
        scenario = tmp_path / "interleaved.promise"
        body = " . ".join(["pi(s, g, c) . pw(s, g, c)"] * 300)
        text = f"agent s c\ntype t\ntask g : t\ntask h : t\nrun ({body}) || pi(c, h, s)\n"
        scenario.write_text(text, encoding="utf-8")
        code, out, _ = run_cli(["explore", str(scenario)])
        assert code == 0
        assert out.splitlines()[:3] == ["nodes: 1202", "edges: 1801", "traces: 601"]

    @pytest.mark.parametrize(
        "operator, operand, outcome", [("+", "pi(s, g, c)", "successful"), ("||", "delta", "deadlocked")]
    )
    def test_long_operator_chains(self, tmp_path, operator, operand, outcome):
        # 1,000 operands of one choice or interleaving: stepping through
        # and rendering them is a loop, as for a sequence
        scenario = tmp_path / "chain.promise"
        term = f" {operator} ".join([operand] * 1_000 + ["pi(s, g, c)"])
        scenario.write_text(f"agent s c\ntype t\ntask g : t\nrun {term}\n", encoding="utf-8")
        code, out, err = run_cli(["explore", str(scenario), "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["nodes"], report["edges"]) == (2, 1)
        assert report["traces"] == [{"events": ["pi(s, g, c)"], "outcome": outcome}]
        if outcome == "deadlocked":
            [deadlock] = report["deadlocks"]
            assert deadlock["term"] == " || ".join(["delta"] * 1_000 + ["ok"])
        code, out, err = run_cli(["run", str(scenario)])
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["pi(s, g, c)", f"outcome: {outcome}"]

    def test_check_accepts_deep_nesting_in_one_line(self, tmp_path):
        # nesting is parsed with a stack, like long operator chains
        scenario = tmp_path / "nested.promise"
        term = "(" * 300 + "pi(s, g, c)" + ")" * 300
        scenario.write_text(f"agent s c\ntype t\ntask g : t\nrun {term}\n", encoding="utf-8")
        code, out, err = run_cli(["check", str(scenario)])
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "ok"


HEAD = "agent s c\ntype t\ntask g : t\n"


def _definitions(first: str, line) -> str:
    """A scenario that runs ``d1499``: ``def d0 = FIRST``, then each
    ``def d<i>`` is ``line(i)``, a short line that uses ``d<i-1>``."""
    lines = [f"def d0 = {first}", *(f"def d{i} = {line(i)}" for i in range(1, 1_500))]
    return HEAD + "\n".join(lines) + "\nrun d1499\n"


# one input per kind of nesting, each far deeper than the interpreter's recursion limit
CONDITION = "".join(
    ("not (", "p(s, g, c) or (", "true and (", "not p(s, g, c) => (", "forall v != c : (")[i % 5]
    for i in range(5_000)
)
DEEP_INPUTS = {
    "parentheses": "(" * 10_000 + "pi(s, g, c)" + ")" * 10_000,
    "guards": "[true] -> " * 10_000 + "pi(s, g, c)",
    "condition": f"[{CONDITION}true{')' * 5_000}] -> pi(s, g, c)",
    "operators": "".join(f"pi(s, g, c) {('.', '+', '||')[i % 3]} (" for i in range(5_000))
    + "pi(s, g, c)"
    + ")" * 5_000,
}


class TestDeepNesting:
    """Nesting depth is bounded by the node limit, not by the interpreter's
    recursion limit: each command's walks over terms and conditions use
    explicit stacks."""

    def test_guard_chain_built_from_definitions(self, tmp_path):
        scenario = tmp_path / "guards.promise"
        scenario.write_text(_definitions("pi(s, g, c)", lambda i: f"[true] -> d{i - 1}"), encoding="utf-8")
        code, out, err = run_cli(["explore", str(scenario), "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["nodes"], report["edges"]) == (2, 1)
        assert report["traces"] == [{"events": ["pi(s, g, c)"], "outcome": "successful"}]
        code, out, err = run_cli(["run", str(scenario)])
        assert (code, err) == (0, "")
        assert out.splitlines()[:2] == ["pi(s, g, c)", "outcome: successful"]

    def test_alternating_chain_built_from_definitions(self, tmp_path):
        scenario = tmp_path / "alternating.promise"
        text = _definitions("pw(s, g, c)", lambda i: f"d{i - 1} {'.' if i % 2 else '+'} pw(s, g, c)")
        scenario.write_text(text, encoding="utf-8")
        code, out, err = run_cli(["explore", str(scenario), "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert report["nodes"] == 1
        [deadlock] = report["deadlocks"]
        parsed = parse_scenario(text)
        assert parse_term(deadlock["term"], parsed.model) == parsed.entry

    def test_definitions_that_double_their_sharing(self, tmp_path):
        # d25 is 2^25 delegated actions as a tree, but 26 distinct subterms:
        # every command visits each distinct subterm once
        lines = [f"def d{i} = d{i - 1} + d{i - 1}" for i in range(1, 26)]
        text = "agent s c\nsubord c <= s\ntype t\ntask g : t\ninit pi(c, gamma, s)\n"
        scenario, trace = tmp_path / "shared.promise", tmp_path / "shared.txt"
        scenario.write_text(text + "def d0 = pi(s[c], g, s)\n" + "\n".join(lines) + "\nrun d25\n", encoding="utf-8")
        trace.write_text("pi(s[c], g, s)\n", encoding="utf-8")
        code, out, err = run_cli(["check", str(scenario)])
        assert (code, err) == (0, "")
        warning = "  obligation: c is subordinate to s, so the promise binds c involuntarily"
        assert out.splitlines()[-3:] == ["warnings: 1", warning, "ok"]
        code, out, err = run_cli(["explore", str(scenario), "--format", "json"])
        assert (code, err) == (0, "")
        report = json.loads(out)
        assert (report["nodes"], report["edges"], report["deadlocks"]) == (2, 1, [])
        assert report["traces"] == [{"events": ["pi(s[c], g, s[s])"], "outcome": "successful"}]
        code, out, err = run_cli(["run", str(scenario)])
        assert (code, err, out.splitlines()[:2]) == (0, "", ["pi(s[c], g, s[s])", "outcome: successful"])
        code, out, err = run_cli(["verify-trace", str(scenario), "--trace", str(trace)])
        assert (code, err, out.splitlines()[:2]) == (0, "", ["accepted", "maximal: yes"])

    def test_termination_of_deep_terms(self):
        # decided on control points, which are compiled with explicit stacks
        model = parse_scenario(HEAD + "run ok\n").model
        expected = {"parentheses": True, "guards": False, "operators": True}
        for name, finished in expected.items():
            assert can_terminate(parse_term(DEEP_INPUTS[name], model)) is False
            assert can_terminate(parse_term(DEEP_INPUTS[name].replace("pi(s, g, c)", "ok"), model)) is finished

    @pytest.mark.parametrize("name", DEEP_INPUTS)
    def test_every_command_takes_deep_input(self, tmp_path, name):
        scenario, trace = tmp_path / "deep.promise", tmp_path / "deep.txt"
        scenario.write_text(f"{HEAD}run {DEEP_INPUTS[name]}\n", encoding="utf-8")
        trace.write_text("pi(s, g, c)\n", encoding="utf-8")
        code, out, err = run_cli(["check", str(scenario)])
        assert (code, err, out.splitlines()[-1]) == (0, "", "ok")
        code, out, err = run_cli(["explore", str(scenario), "--node-limit", "50"])
        if name == "operators":
            assert (code, out, err) == (2, "", "error: node limit of 50 exceeded\n")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[:3] == ["nodes: 2", "edges: 1", "traces: 1"]
        code, out, err = run_cli(["run", str(scenario)])
        assert (code, err, out.splitlines()[0]) == (0, "", "pi(s, g, c)")
        code, out, err = run_cli(["verify-trace", str(scenario), "--trace", str(trace)])
        assert (code, err, out.splitlines()[0]) == (0, "", "accepted")
