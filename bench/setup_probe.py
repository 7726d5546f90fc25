"""Prints the seconds a fresh process needs to import promisekit and
parse the scenario files given as arguments, then the seconds of the
host-speed set-up loop run right after in the same process."""

import sys
import time

start = time.perf_counter()
import promisekit  # noqa: E402

for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as f:
        promisekit.parse_scenario(f.read())
elapsed = time.perf_counter() - start

from hostspeed import calibrate, setup_loop  # noqa: E402

print(elapsed, calibrate(setup_loop))
