"""Smoke test of the benchmark harness at tiny sizes; not a timed run.

    python3 -m pytest -q bench/smoke.py      (or: python3 bench/smoke.py)

It proves that every workload runs and passes its checks, that the
checks fire on a wrong answer, that the traced run reports every
per-layer metric and removes its wrappers, and that the benchmark
refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import promisekit  # noqa: E402
from record import record  # noqa: E402
from workloads import Harness, Workload, measure  # noqa: E402

TINY = {
    "offers": {"n": 3, "walks": 2},  # N=3 still reaches the trace cap
    "sequential": {"goods": 2},
    "replay": {"n": 3, "explore_n": 2, "walks": 3},
}
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(name: str, work: Path, answers: dict[str, str] | None = None) -> tuple[Workload, Harness]:
    if answers is None:
        answers = record(name, 5, work, TINY[name]).recorded
    return Workload(name, 5, work, TINY[name]), Harness(answers)


def test_every_workload_passes_its_checks(tmp_path: Path) -> None:
    for name in TINY:
        workload, h = _tiny(name, tmp_path)
        result = measure(workload, h, seconds=0.01, trace=False)
        assert result["failed"] == 0, result["messages"]
        assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_a_wrong_recorded_answer_counts_as_a_failure(tmp_path: Path) -> None:
    answers = record("sequential", 5, tmp_path, TINY["sequential"]).recorded
    answers["verify"] = "0" * 12
    workload, h = _tiny("sequential", tmp_path, answers)
    result = measure(workload, h, seconds=0.01, trace=False)
    assert result["failed"] == 1
    assert "verify" in result["messages"][0]


def test_traced_run_reports_every_per_layer_metric(tmp_path: Path) -> None:
    original = promisekit.step
    workload, h = _tiny("offers", tmp_path)
    result = measure(workload, h, seconds=0.01, trace=True)
    assert result["failed"] == 0, result["messages"]
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["explorer.nodes"] == 324 and metrics["explorer.edges"] == 972
    assert metrics["process_algebra.step.calls"] > metrics["explorer.nodes"]
    assert promisekit.step is original and promisekit.process_algebra.step is original
    spans = (tmp_path / "spans-offers-5.jsonl").read_text(encoding="utf-8").splitlines()
    assert any(json.loads(line)["name"] == "explorer.build_lts" for line in spans)


def test_refuses_to_run_without_the_sources() -> None:
    with tempfile.TemporaryDirectory() as bare:
        shutil.copytree(BENCH, Path(bare) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "replay", "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    assert done.returncode != 0 and done.stdout == ""


if __name__ == "__main__":
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            with tempfile.TemporaryDirectory() as tmp:
                args = [Path(tmp)] if test.__code__.co_argcount else []
                test(*args)
            print(f"ok {name}")
