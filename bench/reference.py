"""Reference computations whose time no change to the package can move.

run.py scales its timings by these to undo the host's speed drift (see
README.md, "Noise").  Both use the standard library only.

* `IMPORT_CODE`, run in a fresh interpreter the way `setup_s` is, prints
  the seconds it takes to import a fixed set of standard-library modules.
  It is the reference for `setup_s`.
* `fork_sample` times a fixed Fraction computation in a forked child, from
  the fork to the reaped exit, the way a job is timed.  It is the reference
  for job times.

Run as a script, this file serves fork samples: for each line it reads on
standard input it writes one sample's seconds to standard output, and it
exits at the end of its input.  run.py starts it as an interpreter of its
own, so the process it forks from has never imported the package, and
nothing the package does at import time can change the cost of the fork.

    python3 bench/reference.py     # then one empty line per sample
"""

from __future__ import annotations

import os
import sys
import time
from fractions import Fraction

IMPORT_CODE = (
    "import time; t = time.perf_counter(); "
    "import csv, decimal, email.parser, http.client, statistics, tarfile, xml.dom.minidom, "
    "zipfile; print(repr(time.perf_counter() - t))"
)


def _work() -> None:
    table: dict = {}
    for i in range(6000):
        table[(i % 17, i % 13, i // 7)] = Fraction(i % 13 - 6, i % 4 + 1)
    keys = list(table)
    total = Fraction(0)
    for k in range(0, len(keys) - 3, 3):
        a, b, c = keys[k], keys[k + 1], keys[k + 2]
        total += table[a] * table[b] - table[c]
        table[(a, b)] = total


def fork_sample() -> float:
    """Seconds for `_work` in a forked child, from the fork to the reaped exit."""
    sys.stdout.flush()
    t0 = time.perf_counter()
    pid = os.fork()
    if pid == 0:
        code = 70
        try:
            _work()
            code = 0
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    elapsed = time.perf_counter() - t0
    if status != 0:
        raise RuntimeError(f"reference child ended with status {status}")
    return elapsed


def main() -> int:
    for _ in sys.stdin:
        print(repr(fork_sample()), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
