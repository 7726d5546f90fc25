"""A fixed set of 5,000 malformed and well-formed texts for the DSL, and
a short digest of what the parser makes of each.

    PYTHONPATH=src python tests/parse_differential.py   # rewrites golden/diagnostics.txt

The texts come from a seeded ``random.Random``, so every run makes the
same ones:

- 3,500 scenarios: a corpus, golden or generated scenario with 1-4
  slices deleted, repeated, replaced by random characters or replaced
  by one grammar token;
- 500 trace files, mutated the same way and parsed against the model of
  their scenario;
- 1,000 scenarios with one grammar token inserted at a token boundary.

A scenario's digest covers, in both conflict modes, either the rendered
scenario or the exception: its class, message, line and column. A trace
file's digest covers its events, class and text, or the exception.
Record only from a commit whose parser is known to be right:
``test_parse_differential.py`` holds every later commit to it.
"""

from __future__ import annotations

import hashlib
import random
import re
from pathlib import Path

from promisekit.corpus import corpus_text
from promisekit.dsl import parse_scenario, parse_trace, render

from scenario_gen import random_scenario_text

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "golden"
DIGESTS = GOLDEN / "diagnostics.txt"
SEED = 20_061

# (scenario, trace) pairs; the generated scenarios have no trace
PAIRS = [
    (corpus_text("jub.promise"), corpus_text("jub_trace.txt")),
    (corpus_text("isp.promise"), (GOLDEN / "isp_walk.txt").read_text(encoding="utf-8")),
    (corpus_text("laws.promise"), (GOLDEN / "laws_walk.txt").read_text(encoding="utf-8")),
    *(
        ((GOLDEN / f"{name}.promise").read_text(encoding="utf-8"),
         (GOLDEN / f"{name}_trace.txt").read_text(encoding="utf-8"))
        for name in ("deep_sequential", "deep_mixed", "nondeterministic")
    ),
]
SCENARIOS = [scenario for scenario, _ in PAIRS] + [random_scenario_text(seed) for seed in range(12)]
# the characters of the syntax, and some it does not know: a no-break
# space and a form feed are whitespace to the scanner, and the form feed
# and the line separator end a line
ALPHABET = "abcgjmsuxy()[].+|!~,:#=<>-_ \n$?\u00e9\u00a0\x0c\u2028" + "0123456789"
TOKENS = [
    "agent", "subord", "type", "task", "exclusive", "incompatible", "def", "init", "run",
    "pi", "pw", "delta", "ok", "protocol", "p", "E", "not", "and", "or", "forall",
    "true", "false", "gamma", "compliance",
    "=>", "<=", "!=", "->", "||", "(", ")", "[", "]", ",", ":", ".", "#", "+", "=", "!", "~",
    "a", "x", "zz", "Q1", "$", "@", "\n",
]


def _mutated(rng: random.Random, text: str) -> str:
    """``text`` with 1-4 slices deleted, repeated or replaced."""
    for _ in range(rng.randint(1, 4)):
        start = rng.randint(0, len(text))
        end = rng.randint(start, min(len(text), start + 40))
        edit = rng.choice(("delete", "repeat", "replace", "token"))
        if edit == "delete":
            text = text[:start] + text[end:]
        elif edit == "repeat":
            text = text[:end] + text[start:end] + text[end:]
        elif edit == "replace":
            text = text[:start] + "".join(rng.choice(ALPHABET) for _ in range(rng.randint(0, 12))) + text[end:]
        else:
            text = text[:start] + rng.choice(("", " ")) + rng.choice(TOKENS) + rng.choice(("", " ")) + text[end:]
    return text


def _inserted(rng: random.Random, text: str) -> str:
    """``text`` with one grammar token inserted where a token starts."""
    starts = [m.start() for m in re.finditer(r"[A-Za-z0-9_]+|\S", text)]
    at = rng.choice(starts)
    return text[:at] + rng.choice(TOKENS) + rng.choice(("", " ")) + text[at:]


def texts() -> list[tuple[int | None, str]]:
    """The 5,000 texts, each with the index into ``PAIRS`` of the
    scenario whose model parses it as a trace file, or None for a
    scenario."""
    rng = random.Random(SEED)
    out: list[tuple[int | None, str]] = []
    out += [(None, _mutated(rng, rng.choice(SCENARIOS))) for _ in range(3_500)]
    for _ in range(500):
        pair = rng.randrange(len(PAIRS))
        out.append((pair, _mutated(rng, PAIRS[pair][1])))
    out += [(None, _inserted(rng, rng.choice(SCENARIOS))) for _ in range(1_000)]
    return out


def _failure(err: Exception) -> str:
    return f"{type(err).__name__} {err} {getattr(err, 'line', None)} {getattr(err, 'column', None)}"


def outcome(pair: int | None, text: str, models: dict[int, object]) -> str:
    """What the parser makes of one text, as a string."""
    if pair is not None:
        if pair not in models:
            models[pair] = parse_scenario(PAIRS[pair][0]).model
        try:
            return "\n".join(f"{type(e).__name__} {e}" for e in parse_trace(text, models[pair]))
        except Exception as err:  # noqa: BLE001 - any exception is part of the answer
            return _failure(err)
    parts = []
    for strict in (False, True):
        try:
            parts.append(render(parse_scenario(text, strict_conflicts=strict)))
        except Exception as err:  # noqa: BLE001
            parts.append(_failure(err))
    return "\n--\n".join(parts)


def digest(result: str) -> str:
    return hashlib.sha256(result.encode("utf-8")).hexdigest()[:12]


def digests() -> list[str]:
    models: dict[int, object] = {}
    return [digest(outcome(pair, text, models)) for pair, text in texts()]


if __name__ == "__main__":
    found = digests()
    DIGESTS.write_text("\n".join(found) + "\n", encoding="utf-8")
    print(f"{len(found)} digests written to {DIGESTS.relative_to(TESTS.parent)}")
