"""Seeded trace generators for the benchmark, independent of the package.

Every input the benchmark feeds to workset is made here, from a seed,
as trace text. Nothing in this file imports workset, so a change to the
program cannot change what is measured. Each generator yields lines
with their newline; the sizes are fixed and only the placement of
pages and the order of events depend on the seed, so every seed costs
the same amount of work.
"""

from __future__ import annotations

import random
from typing import Iterator

PAGE = 4096
CODE_BASE = 0x0040_0000  # matches the layout gen_pageramp writes
CODE_PAGES = 4
INSN_BYTES = 4


def pageramp_lines(
    max_pages: int,
    stride: int,
    cycles: int,
    pages_per_step: int,
    insns_per_step: int,
    base_address: int,
) -> Iterator[str]:
    """The pageramp sawtooth, as ``write_trace(gen_pageramp(cfg))`` prints
    it: per cycle the claimed prefix grows to max_pages and shrinks back
    in pages_per_step steps; after each step insns_per_step dwell
    fetches, then one fetch plus one single-byte store per stride-th
    claimed page. Fetches cycle through a 4-page code region."""
    yield "C 0: pageramp.c:21|pageramp.c:48\n"
    yield "U 0 0\n"
    wrap = CODE_PAGES * PAGE
    offset = 0

    def one_pass(claimed: int) -> Iterator[str]:
        nonlocal offset
        for _ in range(insns_per_step):
            yield f"I  {CODE_BASE + offset:08x},{INSN_BYTES}\n"
            offset = (offset + INSN_BYTES) % wrap
        for page in range(0, claimed, stride):
            yield f"I  {CODE_BASE + offset:08x},{INSN_BYTES}\n"
            offset = (offset + INSN_BYTES) % wrap
            yield f" S {base_address + page * PAGE:08x},1\n"

    for _ in range(cycles):
        claimed = 0
        while claimed < max_pages:
            claimed = min(claimed + pages_per_step, max_pages)
            yield from one_pass(claimed)
        while claimed > 0:
            claimed = max(claimed - pages_per_step, 0)
            yield from one_pass(claimed)


def seeded_base(seed: int) -> int:
    """A page-aligned data base address between 256 MiB and 4 GiB that
    depends on the seed and stays clear of the code region."""
    rng = random.Random(f"base-{seed}")
    return 0x1000_0000 + rng.randrange(0xE000) * 0x1_0000


def random_scan_lines(seed: int, insns: int, data_pages: int) -> Iterator[str]:
    """Straight-line code, one fetch per 4 bytes, each followed by an
    8-byte load from a uniformly random page of a data_pages pool at a
    random offset. Nearly every line is distinct."""
    rng = random.Random(f"scan-{seed}")
    base = seeded_base(seed)
    randrange = rng.randrange
    for i in range(insns):
        yield f"I  {CODE_BASE + INSN_BYTES * i:08x},{INSN_BYTES}\n"
        yield f" L {base + randrange(data_pages) * PAGE + randrange(PAGE // 8) * 8:08x},8\n"


# threads-peaks shape: each thread runs QUANTUM instructions at a time,
# round robin; each instruction does one data access. A quiet phase
# touches the thread's BASE_PAGES private pages; a burst phase, entered
# with probability BURST_P at a quantum start and lasting BURST_QUANTA
# quanta, copies BURST_SPAN pages per access, walking a BURST_POOL-page
# pool, so the data working set jumps by hundreds of pages between two
# samples, steeply enough for the detector to fire even on the
# combined series of all threads.
THREADS = 4
QUANTUM = 100
BASE_PAGES = 16
BURST_POOL = 512
BURST_SPAN = 4
BURST_P = 0.03
BURST_QUANTA = 1


def threads_peaks_lines(seed: int, quanta: int) -> Iterator[str]:
    """A 4-thread trace with call stack declarations, stack switches at
    each phase change and bursty data phases that fire peaks."""
    rng = random.Random(f"threads-{seed}")
    base = seeded_base(seed)
    for tid in range(THREADS):
        yield f"C {2 * tid}: worker.c:{20 + tid}|main.c:40\n"
        yield f"C {2 * tid + 1}: scan.c:{60 + tid}|worker.c:{30 + tid}|main.c:40\n"
    burst_left = [0] * THREADS
    burst_next = [0] * THREADS
    stack = [-1] * THREADS
    code_off = [0] * THREADS
    kinds = ("L", "S", "M")
    for q in range(quanta):
        tid = q % THREADS
        suffix = f" t{tid}\n" if tid else "\n"
        if burst_left[tid] == 0 and rng.random() < BURST_P:
            burst_left[tid] = BURST_QUANTA
        bursting = burst_left[tid] > 0
        want = 2 * tid + int(bursting)
        if stack[tid] != want:
            stack[tid] = want
            yield f"U {tid} {want}\n"
        code = CODE_BASE + tid * 16 * PAGE
        private = base + tid * (BASE_PAGES + BURST_POOL) * PAGE
        pool = private + BASE_PAGES * PAGE
        for _ in range(QUANTUM):
            yield f"I  {code + code_off[tid]:08x},{INSN_BYTES}{suffix}"
            code_off[tid] = (code_off[tid] + INSN_BYTES) % (2 * PAGE)
            kind = kinds[rng.randrange(3)]
            if bursting:
                address = pool + burst_next[tid] * PAGE
                burst_next[tid] = (burst_next[tid] + BURST_SPAN) % BURST_POOL
                yield f" {kind} {address:08x},{BURST_SPAN * PAGE}{suffix}"
            else:
                address = private + rng.randrange(BASE_PAGES) * PAGE
                yield f" {kind} {address + rng.randrange(PAGE // 8) * 8:08x},8{suffix}"
        if bursting:
            burst_left[tid] -= 1
