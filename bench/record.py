"""Records the answer digests that every timed operation is checked against.

    PYTHONPATH=src python3 bench/record.py

Run it on the commit whose answers are the reference (the answers must
never change, so this is the seed commit unless an answer is meant to
change); it rewrites ``bench/answers.json``. Recording fails if any
check that does not depend on the code under test fails.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import ANSWERS, SIZES, VARIANTS, Harness, Workload

WORK = Path(__file__).resolve().parent.parent / ".bench_work" / "record"


def record(name: str, variant: int, work: Path, sizes: dict | None = None) -> Harness:
    """One cycle of a workload's operations, recording their digests."""
    workload = Workload(name, variant, work, sizes)
    h = Harness(answers=None)
    workload.cross_checks(h)
    workload.cycle(h)
    return h


def main() -> int:
    answers: dict[str, dict[str, dict[str, str]]] = {}
    for name in sorted(SIZES):
        answers[name] = {}
        for variant in range(VARIANTS):
            h = record(name, variant, WORK)
            if h.failed:
                print(f"{name} variant {variant}: {h.messages}", file=sys.stderr)
                return 1
            answers[name][str(variant)] = h.recorded
            print(f"{name} variant {variant}: {len(h.recorded)} answers", file=sys.stderr)
    with open(ANSWERS, "w", encoding="utf-8") as out:
        json.dump(answers, out, indent=0, sort_keys=True)
        out.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
