"""Parse diagnostics and renderings stay the same on 5,000 fixed texts:
every error keeps its class, message, line and column, and every
scenario that parses renders the same in both conflict modes."""

from __future__ import annotations

from parse_differential import DIGESTS, digest, outcome, texts


def test_every_text_parses_as_recorded():
    recorded = DIGESTS.read_text(encoding="utf-8").split()
    cases = texts()
    assert len(cases) == len(recorded) == 5_000
    models: dict[int, object] = {}
    for number, ((pair, text), expected) in enumerate(zip(cases, recorded)):
        result = outcome(pair, text, models)
        assert digest(result) == expected, (
            f"text {number} ({'trace file' if pair is not None else 'scenario'}) "
            f"differs from the recording:\n{text!r}\nnow gives:\n{result}"
        )
