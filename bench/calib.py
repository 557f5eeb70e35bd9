"""A fixed reference loop that measures how fast the machine is right now.

A shared virtual machine can change speed by about 2x within minutes,
and a pure-Python loop slows down with it about as much as the
program does. The harness times this loop before each timed run and
each set-up run, and scales the mean run time to the loop's reference
speed: mean run time x REFERENCE_S / mean loop time. A change in the
program moves the scaled time as much as the raw one; a change in the
machine's speed moves both the runs and the loop, and mostly cancels.

The loop does the kind of work the package does, in pure Python, with
no import of it: split trace-like text lines, parse hex addresses,
shift them to page numbers and count them in a dict of about 16k
pages. Its inputs are fixed, so it does the same work on every call.
"""

from __future__ import annotations

import time

# what one call of reference_loop() takes at the reference speed: its
# time on an Intel Xeon vCPU at 2.1 GHz with Python 3.11 in the host's
# faster phases
REFERENCE_S = 0.14
# lines per pass and passes per call
_LINES = 40_000
_PASSES = 6


def _make_lines() -> list[str]:
    """Lackey-style lines from a fixed linear congruential sequence."""
    lines = []
    x = 12345
    for i in range(_LINES):
        x = (1103515245 * x + 12345) & 0x7FFFFFFF
        page = x % 16_384
        op = "ILSM"[i & 3]
        lead = "" if op == "I" else " "
        lines.append(f"{lead}{op} {0x4000000 + (page << 12) + (x & 0xFF):08x},{4 + (i & 4)}\n")
    return lines


_TEXT = _make_lines()


def reference_loop() -> float:
    """Run the fixed loop once and return its wall time in seconds."""
    t0 = time.perf_counter()
    for _ in range(_PASSES):
        counts: dict[int, int] = {}
        last: dict[str, int] = {}
        for line in _TEXT:
            op, rest = line.split(None, 1)
            addr, size = rest.split(",")
            page = int(addr, 16) >> 12
            counts[page] = counts.get(page, 0) + int(size)
            last[op] = page
    return time.perf_counter() - t0


if __name__ == "__main__":
    print(min(reference_loop() for _ in range(5)))
