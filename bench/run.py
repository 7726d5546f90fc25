"""promisekit benchmark: one workload per invocation.

    python3 bench/run.py --workload offers|sequential|replay --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The workload runs in its own
child process (so its peak RSS is its own) with ``src`` on PYTHONPATH.
Generated inputs, the full result record and, with ``--trace 1``, the
spans go to ``.bench_work/``. The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the environment.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOADS = ("offers", "sequential", "replay")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest() -> str:
    """Identifies the code under test where there is no git metadata."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "seed": seed,
        "commit": _commit(),
        "source": _source_digest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "promisekit" / "__init__.py").is_file():
        print(f"error: no promisekit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = ROOT / ".bench_work"
    work.mkdir(exist_ok=True)
    command = [
        sys.executable, str(BENCH / "workloads.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--work", str(work),
    ]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        done = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=args.seconds + 120,
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        print("error: workload timed out", file=sys.stderr)
        return 1
    if done.returncode != 0:
        print(f"error: workload exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(done.stdout.splitlines()[-1])
    record = {"environment": environment(args.seed), **result}
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (work / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for message in result["messages"]:
        print(f"failed: {message}", file=sys.stderr)

    print(json.dumps({"environment": record["environment"], "samples": result["samples"]}))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
