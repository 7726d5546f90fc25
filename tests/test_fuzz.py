"""Malformed input never ends in a traceback: random bytes and mutated
corpus text, fed to every subcommand, end in a documented exit code."""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from promisekit.cli import main
from promisekit.corpus import corpus_text

EXIT_CODES = {0, 1, 2, 64}
SCENARIOS = [corpus_text(name) for name in ("jub.promise", "isp.promise", "laws.promise")]
TRACES = [corpus_text("jub_trace.txt")]
# the characters the scenario and trace syntax is made of
ALPHABET = "abcgjmsuxy()[].+|!~,:#=<>-_ \n" + "".join(str(d) for d in range(10))
# small limits keep a mutation that grows the state space cheap
COMMANDS = [
    ["check"],
    ["explore", "--node-limit", "300", "--max-traces", "30"],
    ["run", "--seed", "1"],
    ["verify-trace"],
]


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with a few slices deleted, repeated or replaced."""
    text = draw(st.sampled_from(texts))
    for _ in range(draw(st.integers(1, 4))):
        start = draw(st.integers(0, len(text)))
        end = draw(st.integers(start, min(len(text), start + 40)))
        edit = draw(st.sampled_from(["delete", "repeat", "replace"]))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "repeat":
            text = text[:end] + text[start:end] + text[end:]
        else:
            text = text[:start] + draw(st.text(ALPHABET, max_size=12)) + text[end:]
    return text.encode("utf-8")


def inputs(texts):
    return st.one_of(st.binary(max_size=300), mutated(texts))


def run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    directory = tmp_path_factory.mktemp("fuzz")
    return directory / "scenario.promise", directory / "trace.txt"


@settings(max_examples=60, deadline=None)
@given(inputs(SCENARIOS), inputs(TRACES))
def test_every_subcommand_ends_in_a_documented_exit_code(files, scenario_bytes, trace_bytes):
    scenario, trace = files
    scenario.write_bytes(scenario_bytes)
    trace.write_bytes(trace_bytes)
    for command in COMMANDS:
        argv = [command[0], str(scenario), *command[1:]]
        if command[0] == "verify-trace":
            argv += ["--trace", str(trace)]
        code, err = run(argv)
        assert code in EXIT_CODES, (argv, code, err)
        assert "Traceback" not in err
