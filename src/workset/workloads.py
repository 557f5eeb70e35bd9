"""Synthetic trace generators for exercising the analyzer.

Two workloads are provided. ``gen_pageramp`` is a sawtooth: the set of
claimed data pages grows from 0 to a maximum and shrinks back, several
times over, touching every stride-th claimed page after each step. Its
data working set ramps up and down accordingly. ``gen_step`` produces a
flat working set with a single short bump, which is the canonical input
for peak detector tests.

Each takes one config object (PagerampConfig, StepConfig), which holds
every default, including those of the ``workset gen`` flags, and checks
every range when it is built. Both are fully deterministic: the same
config gives the same record sequence, one record per trace line and
byte for byte once serialized. Each returns one lazy ``itertools``
pipeline, not a generator object: Python code runs once per pass or
interval and once per event built, never once per record. Events are
shared: a generator builds one fetch event per code offset and one
store event per data page, and hands out that event again on every
later access to the offset or page, as long as there are at most
EVENT_MEMO_SIZE of them. Consumers must treat the events as
immutable.
"""

from __future__ import annotations

from itertools import chain, cycle, filterfalse, islice, repeat, starmap
from typing import Callable, Iterable, Iterator

from .trace import (
    ADDRESS_LIMIT,
    AccessKind,
    CallStackDecl,
    StackActivation,
    Struct,
    TraceEvent,
    check_int,
    check_page_size,
    show_int,
)

# All generated instruction fetches walk a small fixed code region so the
# instruction working set stays a few pages, like a tight loop would.
CODE_BASE = 0x0040_0000
CODE_PAGES = 4
INSN_BYTES = 4
# log2 of the largest page size whose code region ends at or below 2**64
_PAGE_SIZE_BITS = ((ADDRESS_LIMIT - CODE_BASE) // CODE_PAGES).bit_length() - 1

EVENT_MEMO_SIZE = 65536
"""Most events a generator keeps of one kind: it keeps one fetch event
per code offset when the code region holds at most this many offsets,
and one store event per data page when its data region holds at most
this many pages. Above that, events of that kind are built afresh on
every access and dropped once read. The code region holds
``CODE_PAGES * page_size / INSN_BYTES`` offsets, so from 128 KiB pages
on fetch events are built afresh."""

# Synthetic provenance attached to pageramp stores: the touch loop frame,
# then the ramp driver frame. Purely decorative, but it exercises the
# stack declaration / peak annotation path end to end.
_PAGERAMP_STACK_ID = 0
_PAGERAMP_FRAMES = ("pageramp.c:21", "pageramp.c:48")


def _check_end(base_address: int, pages: int, page_size: int) -> None:
    end = base_address + pages * page_size
    if end > ADDRESS_LIMIT:
        raise ValueError(f"data pages must end at or below 2**64, got end {show_int(end)}")


def _events(kind: AccessKind, addresses: Iterable[int], size: int) -> Iterator[TraceEvent]:
    """Lazy events of one kind and size, one per address, each built
    when it is read."""
    return map(TraceEvent, repeat(kind), addresses, repeat(size))


def _code_fetches(page_size: int) -> Iterator[TraceEvent]:
    """Endless instruction fetches cycling through the code pages."""
    addresses = range(CODE_BASE, CODE_BASE + CODE_PAGES * page_size, INSN_BYTES)
    if len(addresses) <= EVENT_MEMO_SIZE:
        # cycle keeps its first lap, so each offset's event is built once
        return cycle(_events(AccessKind.INSN_FETCH, addresses, INSN_BYTES))
    return _events(AccessKind.INSN_FETCH, chain.from_iterable(repeat(addresses)), INSN_BYTES)


def _data_stores(base_address: int, page_size: int, stride: int,
                 pages: int) -> Callable[[int], Iterable[TraceEvent]]:
    """The single-byte stores at the start of pages 0, stride,
    2*stride, ... below a page count, as a function of that count,
    which is at most ``pages``. Each event is built when it is read.
    With at most EVENT_MEMO_SIZE pages, the first pass to reach a page
    keeps its event and later passes read it again; with more, every
    pass builds fresh events."""
    step = stride * page_size

    def fresh(first: int, claimed: int) -> Iterator[TraceEvent]:
        addresses = range(base_address + first * page_size, base_address + claimed * page_size, step)
        return _events(AccessKind.DATA_STORE, addresses, 1)

    if pages > EVENT_MEMO_SIZE:
        return lambda claimed: fresh(0, claimed)
    kept: list[TraceEvent] = []

    def shared(claimed: int) -> Iterable[TraceEvent]:
        touches = len(range(0, claimed, stride))
        known = kept[:touches]
        if touches <= len(kept):
            return known
        # append returns None, so filterfalse passes each new event on
        # as it keeps it; the list stays in page order because a pass
        # reads all its stores before the next pass asks for its own
        return chain(known, filterfalse(kept.append, fresh(len(kept) * stride, claimed)))

    return shared


class PagerampConfig(Struct):
    """Sawtooth workload parameters.

    ``insns_per_touch`` sets compute density (fetches preceding each
    store); ``insns_per_step`` is the dwell spent in each claim/release
    step itself, modeling the map/unmap bookkeeping a real program does
    between touch passes. ``pages_per_step`` is the claim granularity.
    """

    __match_args__ = ("max_pages", "stride", "cycles", "insns_per_touch", "insns_per_step",
                      "pages_per_step", "base_address", "page_size")

    def __init__(self, max_pages: int = 1024, stride: int = 2, cycles: int = 10,
                 insns_per_touch: int = 1, insns_per_step: int = 16, pages_per_step: int = 1,
                 base_address: int = 0x1000_0000, page_size: int = 4096) -> None:
        self._set_fields(max_pages, stride, cycles, insns_per_touch, insns_per_step,
                         pages_per_step, base_address, page_size)
        check_int("max_pages", self.max_pages)
        check_int("stride", self.stride)
        check_int("cycles", self.cycles)
        check_int("insns_per_touch", self.insns_per_touch)
        check_int("insns_per_step", self.insns_per_step, minimum=0)
        check_int("pages_per_step", self.pages_per_step)
        check_int("base_address", self.base_address, minimum=0)
        check_page_size(self.page_size, _PAGE_SIZE_BITS, smallest=256)
        _check_end(self.base_address, self.max_pages, self.page_size)

    @property
    def touch_pass_insns(self) -> int:
        """Instruction cost of one claim/release step at full claim."""
        full_touches = -(-self.max_pages // self.stride)  # ceil
        return self.insns_per_step + self.insns_per_touch * full_touches


def gen_pageramp(
    config: PagerampConfig | None = None,
) -> Iterator[TraceEvent | CallStackDecl | StackActivation]:
    """Return a lazy iterator over the sawtooth workload's records: the
    declaration of its one call stack and the activation of that stack
    on thread 0, then the events.

    Per cycle the claimed page count rises from 0 to max_pages and
    falls back to 0 in pages_per_step increments. After every step the
    workload touches page 0, stride, 2*stride, ... of the claimed
    prefix with one single-byte store each, preceded by
    insns_per_touch instruction fetches. Stores never leave
    [base_address, base_address + max_pages * page_size).
    """
    cfg = config if config is not None else PagerampConfig()
    head = (CallStackDecl(_PAGERAMP_STACK_ID, _PAGERAMP_FRAMES),
            StackActivation(0, _PAGERAMP_STACK_ID))
    code = _code_fetches(cfg.page_size)
    stores = _data_stores(cfg.base_address, cfg.page_size, cfg.stride, cfg.max_pages)
    per_touch = cfg.insns_per_touch

    def pass_records(claimed: int) -> Iterator[TraceEvent]:
        touched = range(0, claimed, cfg.stride)
        # zip takes per_touch fetches from the shared islice, then the
        # store; the islice ends exactly when the touched pages do
        fetches = islice(code, per_touch * len(touched))
        return chain(
            islice(code, cfg.insns_per_step),
            chain.from_iterable(zip(*[fetches] * per_touch, stores(claimed))),
        )

    top, step = cfg.max_pages, cfg.pages_per_step
    ramp = (range(step, top, step), (top,), range(top - step, 0, -step), (0,))
    claims = chain.from_iterable(chain.from_iterable(repeat(ramp, cfg.cycles)))
    return chain(head, chain.from_iterable(map(pass_records, claims)))


class StepConfig(Struct):
    """Step workload parameters.

    The pattern is ``flat_samples`` intervals touching ``flat_pages``
    distinct pages, one interval touching ``flat_pages + step_pages``,
    repeated ``repeats`` times, then a flat tail of ``flat_samples``
    intervals. ``step_pages = 0`` degenerates to a constant series.
    Every emitted interval is exactly ``interval_insns`` instructions
    long, so analyzing with tau = every = interval_insns gives one
    sample per interval whose data WSS equals the page count touched
    in it.
    """

    __match_args__ = ("interval_insns", "repeats", "base_address", "page_size", "flat_pages",
                      "step_pages", "flat_samples")

    def __init__(self, interval_insns: int = 1000, repeats: int = 1,
                 base_address: int = 0x2000_0000, page_size: int = 4096, flat_pages: int = 10,
                 step_pages: int = 50, flat_samples: int = 20) -> None:
        self._set_fields(interval_insns, repeats, base_address, page_size, flat_pages,
                         step_pages, flat_samples)
        check_int("interval_insns", self.interval_insns)
        check_int("repeats", self.repeats)
        check_int("base_address", self.base_address, minimum=0)
        check_page_size(self.page_size, _PAGE_SIZE_BITS, smallest=256)
        check_int("flat_pages", self.flat_pages)
        check_int("step_pages", self.step_pages, minimum=0)
        check_int("flat_samples", self.flat_samples)
        pages = self.flat_pages + self.step_pages
        _check_end(self.base_address, pages, self.page_size)
        if self.interval_insns < pages:
            raise ValueError(
                f"interval_insns ({self.interval_insns}) must cover "
                f"flat_pages + step_pages ({pages})"
            )


def gen_step(config: StepConfig | None = None) -> Iterator[TraceEvent]:
    """Return a lazy iterator over the step workload's records: a flat
    working set with one short bump per repeat, and no call stacks."""
    cfg = config if config is not None else StepConfig()
    code = _code_fetches(cfg.page_size)
    flat, bump = cfg.flat_pages, cfg.flat_pages + cfg.step_pages
    stores = _data_stores(cfg.base_address, cfg.page_size, 1, bump)

    def interval(npages: int) -> Iterator[TraceEvent]:
        return chain(
            chain.from_iterable(zip(islice(code, npages), stores(npages))),
            islice(code, cfg.interval_insns - npages),
        )

    # runs of (page count, intervals): flat then one bump, per repeat,
    # then the flat tail
    runs = chain(repeat(((flat, cfg.flat_samples), (bump, 1)), cfg.repeats),
                 (((flat, cfg.flat_samples),),))
    counts = chain.from_iterable(starmap(repeat, chain.from_iterable(runs)))
    return chain.from_iterable(map(interval, counts))
