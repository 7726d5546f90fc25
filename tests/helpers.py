from __future__ import annotations

import contextlib
import io

from promisekit.cli import main


def run_cli(args: list[str]) -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(args)
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 1
    return code, out.getvalue(), err.getvalue()


def long_negotiation(goods: int) -> tuple[str, list[str]]:
    """A negotiation of ``4 * goods`` events in one sequence, and its only
    maximal trace: every good is promised and its use promised, then every
    promise is withdrawn."""
    names = [f"g{i}" for i in range(goods)]
    events = [e for g in names for e in (f"pi(s, {g}, m)", f"pi(m, ~{g}, s)")]
    events += [e for g in names for e in (f"pw(s, {g}, m)", f"pw(m, ~{g}, s)")]
    lines = ["agent s m", "type t", *(f"task {g} : t" for g in names), "run " + " . ".join(events)]
    return "\n".join(lines) + "\n", events


def offers(n: int) -> str:
    """``n`` concurrent offers of one exclusive lift; n=2 is the ride."""
    offerers = [f"o{i}" for i in range(n)]
    return "\n".join(
        [
            "agent c " + " ".join(offerers),
            "type transport",
            "task lift : transport",
            "exclusive ~lift",
            "run " + " || ".join(f"protocol({o}, c, lift)" for o in offerers),
        ]
    ) + "\n"
