"""Byte-for-byte stability of the command-line output on the corpus."""

from __future__ import annotations

import json

import pytest

from golden_outputs import OUTPUTS, ROOT, cases, observe

RECORDED = json.loads(OUTPUTS.read_text(encoding="utf-8"))


def test_every_case_is_recorded():
    assert sorted(" ".join(argv) for argv in cases()) == sorted(RECORDED)


@pytest.mark.parametrize("argv", cases(), ids=" ".join)
def test_output_matches_the_recording(argv, monkeypatch):
    monkeypatch.chdir(ROOT)
    assert observe(argv) == RECORDED[" ".join(argv)]
