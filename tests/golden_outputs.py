"""Golden command-line outputs: the exit code and the stdout digest of
every subcommand on the bundled corpus, on two deep scenarios and on a
nondeterministic one, in both output formats and both conflict modes.

    PYTHONPATH=src python tests/golden_outputs.py   # rewrites golden/outputs.json

Run it from any directory; commands run from the repository root with
relative paths, so the ``scenario:`` line of ``check`` does not depend on
where the checkout lives. Record only from a commit whose output is known
to be right: ``test_golden.py`` holds every later commit to it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from helpers import run_cli

TESTS = Path(__file__).resolve().parent
ROOT = TESTS.parent
OUTPUTS = TESTS / "golden" / "outputs.json"

CORPUS = "src/promisekit/corpus"
GOLDEN = "tests/golden"
SEEDS = (0, 1, 2, 3, 7, 42)
# scenario file, trace file, `promise run` seeds
SCENARIOS = (
    (f"{CORPUS}/jub.promise", f"{CORPUS}/jub_trace.txt", SEEDS),
    # the seed-0 walks of `promise run`
    (f"{CORPUS}/isp.promise", f"{GOLDEN}/isp_walk.txt", SEEDS),
    (f"{CORPUS}/laws.promise", f"{GOLDEN}/laws_walk.txt", SEEDS),
    # deep terms: a 200-event sequence, whose only walk every seed takes,
    # and a mix of all operators with deadlocks, replaying its longest
    # successful trace (rejected under strict conflicts)
    (f"{GOLDEN}/deep_sequential.promise", f"{GOLDEN}/deep_sequential_trace.txt", (0,)),
    (f"{GOLDEN}/deep_mixed.promise", f"{GOLDEN}/deep_mixed_trace.txt", SEEDS),
    # one event into several configurations, and a prefix that ends both
    # successful and deadlocked, which verify-trace reports as successful
    (f"{GOLDEN}/nondeterministic.promise", f"{GOLDEN}/nondeterministic_trace.txt", SEEDS),
    # three protocols interleaved at the top level, whose declines step into
    # nested interleavings: `explore` hits the trace limit, and each seed's
    # walk picks among the interleaved moves; replays its seed-0 walk
    (f"{GOLDEN}/offers3.promise", f"{GOLDEN}/offers3_walk.txt", SEEDS),
)


def cases() -> list[list[str]]:
    out = []
    for scenario, trace, seeds in SCENARIOS:
        commands = [["check", scenario], ["explore", scenario]]
        commands += [["run", scenario, "--seed", str(seed)] for seed in seeds]
        commands.append(["verify-trace", scenario, "--trace", trace])
        for command in commands:
            for fmt in ("text", "json"):
                out.append(command + ["--format", fmt])
                out.append(command + ["--format", fmt, "--strict-conflicts"])
    return out


def observe(argv: list[str]) -> dict:
    """Exit code, stdout digest and stdout length of one in-process run
    from the repository root."""
    code, out, _ = run_cli(argv)
    data = out.encode("utf-8")
    return {"exit": code, "sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data)}


if __name__ == "__main__":
    os.chdir(ROOT)
    recorded = {" ".join(argv): observe(argv) for argv in cases()}
    OUTPUTS.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"{len(recorded)} outputs written to {OUTPUTS.relative_to(ROOT)}")
