"""Working set computation over an instruction-count time base.

Time is a logical clock that advances by one per instruction fetch; the
fetch's own access and any data accesses that follow it (until the next
fetch) carry that timestamp, so the first instruction executes at t=1.
The working set at time t with window tau is the set of distinct pages
whose last access falls in the half-open interval (t - tau, t].

Samples are taken whenever the clock crosses a multiple of ``every``,
after all accesses of the crossing instruction have been recorded, so
samples exist exactly at t = every, 2*every, ... up to the final
instruction count. Pages are never dropped from the tables: memory
given back to the OS keeps counting until those page frames are touched
again, a deliberate overapproximation that keeps the tables append-only
and the analysis single-pass.

The pass keeps one scope for the whole trace and, with per-thread
analysis, one per thread (_ScopeState), each with one page table per
access stream. Which of two private tables a scope builds depends on
the window's shape: _BucketTable when windows overlap (tau > every),
_TileTable when they do not. An event's pages are appended to one
scope's batches: the combined scope's, or with per-thread scopes its
thread's, whose batches a thread change (an activation counts as one)
makes current. An event is appended once, and a thread change costs a
lookup. All pages in a batch share one expiry index (see _Table) and
the running stack.

The clock is tested once per fetch. At a cut, the next fetch at which
a sample falls due or the expiry index moves, the pass drains, then
takes the due sample of every scope, then computes the expiry index
(now + tau - 1) // every and the next cut. A drain applies the batches
of every scope that ran since the last one to its own tables, and a
thread scope's to the combined scope's too; the pass also drains when
the running stack changes, when a batch reaches BATCH_LIMIT entries
and at the end of the trace. Sampling never scans the tables. Only the
clock counts samples: a drain or sample is told the next one's index.

The pass only counts: a scope keeps its samples as columns, and
_ScopeState.result builds the results, the report module's classes,
from the finished state, judging the peaks after the pass too. It
names stacks from the declarations the pass collected.
"""

from __future__ import annotations

import heapq
from array import array
from collections import Counter, _count_elements
from itertools import islice
from typing import Iterable, Mapping, Sequence

from .peak import PeakDetector, PeakParams
from .report import (
    AnalysisResult,
    HotPageEntry,
    PeakAnnotation,
    SampleSeries,
    StreamResult,
    Summary,
)
from .trace import (
    AccessKind,
    CallStackDecl,
    LineMemo,
    StackActivation,
    Stream,
    Struct,
    TraceEvent,
    check_int,
    check_page_size,
    check_type,
    decode_event,
    parse_record,
    show_int,
    stack_line,
)

BATCH_LIMIT = 1024
"""Length at which a pending batch is applied even though no sample,
expiry move or stack change asks for it. It bounds the memory a scope's
batches hold when samples are rare or absent (a window longer than the
trace, a trace without instruction fetches)."""

_STREAMS = (Stream.INSN, Stream.DATA)
"""The access streams, in the order a scope holds its per-stream tables
and batches, and appends the annotations of one sample."""

SWEEP_POINTS_MAX = 10_000
"""The most taus a sweep takes. The sweep reads the trace once per tau,
and building the grid takes one step per point."""


class AnalysisConfig(Struct):
    """Analysis knobs. ``every`` (the sampling interval) defaults to
    ``tau`` so consecutive windows tile the trace without overlap."""

    __match_args__ = ("tau", "every", "page_size", "per_thread", "peak_detect", "peak_g",
                      "peak_phi", "peak_alpha", "top_n")
    tau = 100_000  # also shown by the CLI's help

    def __init__(self, tau: int = tau, every: int | None = None, page_size: int = 4096,
                 per_thread: bool = False, peak_detect: bool = False,
                 peak_g: float = PeakParams.g, peak_phi: float = PeakParams.phi,
                 peak_alpha: float = PeakParams.alpha, top_n: int = 10) -> None:
        self._set_fields(tau, every, page_size, per_thread, peak_detect, peak_g, peak_phi,
                         peak_alpha, top_n)
        check_int("tau", self.tau)
        if self.every is None:
            self.every = self.tau
        check_int("every", self.every)
        # one page of 2**64 bytes already covers every address
        check_page_size(self.page_size, 64)
        check_int("top_n", self.top_n, minimum=0)
        for name in ("per_thread", "peak_detect"):
            check_type(name, getattr(self, name), (bool,), "a bool")
        # validates the peak knobs even when detection is off
        self.peak_params()

    def peak_params(self) -> PeakParams:
        return PeakParams(alpha=self.peak_alpha, phi=self.peak_phi, g=self.peak_g)


class SweepConfig(Struct):
    """A sweep of the window length: ``points`` values of tau from
    ``tau_min`` to ``tau_max``, spaced evenly on a log scale, each
    analyzed with sampling interval ``every`` (default: that tau)."""

    __match_args__ = ("tau_min", "tau_max", "points", "every")

    def __init__(self, tau_min: int = 100, tau_max: int = 1_000_000, points: int = 9,
                 every: int | None = None) -> None:
        self._set_fields(tau_min, tau_max, points, every)
        for name in ("tau_min", "tau_max"):
            value = getattr(self, name)
            check_int(name, value)
            # the grid is computed in floats, which hold every int up to 2**53
            if value > 1 << 53:
                raise ValueError(f"{name} must be <= 2**53, got {show_int(value)}")
        check_int("points", self.points)
        if self.points > SWEEP_POINTS_MAX:
            raise ValueError(f"points must be <= {SWEEP_POINTS_MAX}, got {show_int(self.points)}")
        if self.every is not None:
            check_int("every", self.every)

    def taus(self) -> list[int]:
        """The distinct values of tau, in ascending order; both ends are
        exact, the points between them rounded."""
        lo, hi = self.tau_min, self.tau_max
        if self.points == 1:
            return [lo]
        ratio = (hi / lo) ** (1 / (self.points - 1))
        return sorted({hi, *(round(lo * ratio**i) for i in range(self.points - 1))})


class _Table:
    """What both page tables keep of one access stream's pages: per page,
    its access count and, if its first access carried one, that access's
    stack id, which names the page in the hot page ranking.

    Samples are numbered 1, 2, ... and sample k is taken at t = k * every.
    A page last touched at ts is counted by sample k iff
    k * every - tau < ts <= k * every, so the last sample that counts it
    is its expiry index (ts + tau - 1) // every. Accesses arrive through
    ``add(pages, expires, upcoming, stack_ref)`` in batches that share one
    expiry index and one stack id, in time order, after the instant of
    the last sample taken; ``sample(upcoming)`` takes the next sample, the
    number of pages whose last access lies in its window. ``upcoming``,
    that sample's index, comes from the caller's clock."""

    def __init__(self) -> None:
        self._first: dict[int, int] = {}
        self._count: Counter[int] = Counter()

    def _tally(self, pages: Sequence[int], stack_ref: int | None) -> None:
        """Count one access per entry of ``pages``. The pages this batch
        touches first are the newest keys of the count, and their first
        access carries ``stack_ref``."""
        count = self._count
        known = len(count)
        # Counter.update minus its per-call Mapping check
        _count_elements(count, pages)
        new = len(count) - known
        if new and stack_ref is not None:
            self._first.update(dict.fromkeys(islice(reversed(count), new), stack_ref))

    def __len__(self) -> int:
        return len(self._count)

    def hot_pages(self, n: int, stacks: Mapping[int, tuple[str, ...]],
                  label_map: Mapping[int, str] | None = None) -> list[HotPageEntry]:
        """The ``n`` most accessed pages, by access count (descending),
        page number breaking ties.

        A page's info text comes from label_map when it has an entry, else
        from the innermost frame of its first touch's stack in ``stacks``
        (the trace's declarations), else stays blank. Only pages whose
        count reaches the n-th largest count are sorted, and only the
        winners become entries."""
        check_int("n", n, minimum=0)
        count = self._count
        cut = heapq.nlargest(n, count.values())
        if not cut:
            return []
        least = cut[-1]
        ranked = [page for page, c in count.items() if c >= least]
        ranked.sort()
        # a stable sort keeps equal counts in page order
        ranked.sort(key=count.__getitem__, reverse=True)
        labels = label_map if label_map is not None else {}
        first = self._first
        out = []
        for page in ranked[:n]:
            frames = stacks.get(first.get(page))
            info = labels[page] if page in labels else frames[0] if frames else ""
            out.append(HotPageEntry(count[page], page, info))
        return out


class _BucketTable(_Table):
    """The table for windows that overlap (tau > every). It keeps each
    page's expiry index and, per expiry index, the number of pages due to
    leave the working set there, plus the live count of pages some
    upcoming sample still counts. A batch costs one C-level count update
    plus one step per distinct page in it, and a page moves between
    buckets only when its expiry index changes. ``sample`` reports the
    live count and retires one bucket, so each sample costs O(1) whatever
    the number of pages."""

    def __init__(self) -> None:
        super().__init__()
        self._live = 0
        self._buckets: dict[int, int] = {}
        self._expiry: dict[int, int] = {}

    def add(self, pages: Sequence[int], expires: int, upcoming: int,
            stack_ref: int | None = None) -> None:
        self._tally(pages, stack_ref)
        expiry = self._expiry
        buckets = self._buckets
        joined = 0  # pages whose expiry index becomes ``expires``
        moved = 0  # of those, pages an upcoming sample already counted
        for page in dict.fromkeys(pages):
            # a new page's -1 is below every sample index
            old = expiry.get(page, -1)
            if old == expires:
                continue
            expiry[page] = expires
            joined += 1
            if old >= upcoming:
                buckets[old] -= 1
                moved += 1
        # a batch that expires before the next sample is never counted
        if joined and expires >= upcoming:
            buckets[expires] = buckets.get(expires, 0) + joined
            self._live += joined - moved

    def sample(self, upcoming: int) -> int:
        live = self._live
        self._live = live - self._buckets.pop(upcoming, 0)
        return live


class _TileTable(_Table):
    """The table for windows that do not overlap (tau <= every, the
    default every = tau among them), where an access falls in at most
    one sample's window: the one its expiry index names, if that sample
    is still to come. Every batch added before sample k then has expiry
    index k - 1 or k, and a scope takes every sample after its first,
    so the table keeps no per-page expiry, only the set of pages touched
    in the next sample's window; a sample is the size of that set, and
    empties it. A batch costs C-level count and set updates, with no
    step per page."""

    def __init__(self) -> None:
        super().__init__()
        self._window: set[int] = set()

    def add(self, pages: Sequence[int], expires: int, upcoming: int,
            stack_ref: int | None = None) -> None:
        self._tally(pages, stack_ref)
        if expires >= upcoming:
            self._window.update(pages)

    def sample(self, upcoming: int) -> int:
        wss = len(self._window)
        self._window.clear()
        return wss


class _ScopeState:
    """Accumulator for one sampling scope (the whole trace, or one
    thread), which run_analysis drains and samples. A scope takes sample
    ``first_sample`` and every one after it. ``tables`` and ``batches``
    hold one entry per stream, in _STREAMS order. A batch holds the page
    numbers touched since the last drain. ``last_stack`` is the stack of
    the scope's last event; while the scope has pages waiting it is the
    running stack, which all of them carry. ``feeds`` pairs each batch
    with the tables a drain applies it to: the scope's own, and for a
    thread scope also those of ``combined``, the whole trace's scope.
    The pass only counts: ``wss`` holds one column of sampled values
    per stream, whose first entry is sample ``first_sample``; with peak
    detection ``stack_refs`` holds the running stack at each sample
    (else it is None), and ``result`` judges the peaks."""

    __slots__ = ("tables", "batches", "feeds", "first_sample", "wss", "stack_refs",
                 "last_stack")

    def __init__(self, cfg: AnalysisConfig, first_sample: int = 1,
                 combined: _ScopeState | None = None):
        table = _TileTable if cfg.tau <= cfg.every else _BucketTable
        self.tables = tuple(table() for _ in _STREAMS)
        self.batches: tuple[list[int], ...] = tuple([] for _ in _STREAMS)
        fed = (self.tables,) if combined is None else (self.tables, combined.tables)
        self.feeds = tuple(zip(self.batches, zip(*fed)))
        self.first_sample = first_sample
        self.wss = tuple(array("q") for _ in _STREAMS)
        self.stack_refs: list[int | None] | None = [] if cfg.peak_detect else None
        self.last_stack: int | None = None

    def result(
        self,
        cfg: AnalysisConfig,
        label_map: Mapping[int, str] | None,
        stacks: Mapping[int, tuple[str, ...]],
        threads: dict[int, AnalysisResult] | None = None,
    ) -> AnalysisResult:
        """This scope's samples, per-stream summaries and hot pages, and
        annotations; ``threads`` is the per-thread breakdown, if any.
        With peak detection one detector per stream judges the finished
        columns. Each peak appends one annotation, in _STREAMS order,
        that names the stack the scope ran under at the sample; the
        series marks its samples from them."""
        every, first = cfg.every, self.first_sample
        times = range(every * first, every * (first + len(self.wss[0])), every)
        annotations: list[PeakAnnotation] = []
        if self.stack_refs is not None:
            insn_detector, data_detector = (PeakDetector(cfg.peak_params()) for _ in _STREAMS)
            for t, wss_insn, wss_data, ref in zip(times, *self.wss, self.stack_refs):
                fired = (insn_detector.update(wss_insn).is_peak,
                         data_detector.update(wss_data).is_peak)
                if any(fired):
                    frames = stacks.get(ref, ())
                    for stream, peak in zip(_STREAMS, fired):
                        if peak:
                            annotations.append(PeakAnnotation(
                                len(annotations), t, stream, len(set(frames)), frames))
        insn, data = (
            StreamResult(
                Summary(stream, sum(values) / len(values) if values else 0.0,
                        max(values, default=0), len(table), cfg.page_size),
                table.hot_pages(cfg.top_n, stacks, label_map),
            )
            for table, values, stream in zip(self.tables, self.wss, _STREAMS)
        )
        samples = SampleSeries(times, *self.wss, annotations)
        return AnalysisResult(samples, insn, data, annotations, threads)


def run_analysis(
    records: Iterable[TraceEvent | CallStackDecl | StackActivation | str],
    config: AnalysisConfig | None = None,
    label_map: Mapping[int, str] | None = None,
    strict: bool = True,
) -> AnalysisResult:
    """Single pass over a trace: records as produced by read_trace or
    the generators, or the trace's text lines (an open file works).
    Memory grows with distinct pages and with samples: each scope keeps
    one sample per ``every`` instructions, 16 bytes each in two columns
    (with peak detection, also an 8-byte stack slot during the pass,
    and after it an entry per sample a peak fired at), so a small
    ``every`` makes it grow with trace length.

    Each thread runs under the stack its last activation (a
    StackActivation record or a U line) named, or none before its
    first. An event's stack is looked up when its thread differs from
    the previous event's or an activation came in between.

    Text lines are decoded here, without building a TraceEvent: an
    event line maps, through a LineMemo like read_trace's, to its
    stream, page range and thread, so a repeat of an admitted line
    costs a dict lookup. ``strict`` applies to text lines as in
    read_trace, and line numbers in errors and warnings count the text
    lines. Records are analyzed exactly when write_trace writes them,
    as the lines it writes are; else ValueError, strict or lenient.
    """
    cfg = config if config is not None else AnalysisConfig()
    stacks: dict[int, tuple[str, ...]] = {}
    combined = _ScopeState(cfg)
    threads: dict[int, _ScopeState] = {}
    per_thread = cfg.per_thread
    tau, every = cfg.tau, cfg.every
    shift = cfg.page_size.bit_length() - 1
    insn_fetch = AccessKind.INSN_FETCH
    # the scope events go to (the combined one, or per thread the running
    # thread's) and its batches as locals: the loop runs once per trace
    # event
    scope = combined
    insn_batch, data_batch = combined.batches
    # every scope: the combined one, then each thread's from its first run
    scopes = [combined]
    now = 0
    # expiry index of the accesses at ``now``, set at each cut
    expires = (tau - 1) // every
    # the clock alone numbers the samples: sample ``upcoming``, at
    # t = upcoming * every, is taken before fetch upcoming * every + 1
    upcoming = 1
    # the next fetch at which a sample falls due or ``expires`` moves
    cut = min(every + 1, (expires + 1) * every - tau + 1)
    # text lines: event line -> (is_fetch, first_page, last_page, thread),
    # one tuple for all the lines that decode alike
    memo = LineMemo(share=True)
    memo_get = memo.get
    lineno = 0
    others = 0  # text lines that are not events, which never hit the memo
    # each thread's current stack as the activations set it, and the
    # stack ``ref`` of thread ``ref_thread``, the last event's thread;
    # None forces a lookup
    current: dict[int, int] = {}
    ref = ref_thread = None
    # the scopes that ran since the last drain, once per run, the
    # running one's last: only their batches hold pages (an entry kept
    # from before that drain has empty ones)
    ran: list[_ScopeState] = []

    def drain(expires: int, upcoming: int) -> None:
        for state in dict.fromkeys(ran):
            for batch, tables in state.feeds:
                if batch:
                    for table in tables:
                        table.add(batch, expires, upcoming, state.last_stack)
                    batch.clear()
        del ran[:-1]

    def take_samples(upcoming: int) -> None:
        for state in scopes:
            insn, data = state.tables
            insn_wss, data_wss = state.wss
            insn_wss.append(insn.sample(upcoming))
            data_wss.append(data.sample(upcoming))
            if state.stack_refs is not None:
                state.stack_refs.append(state.last_stack)

    for rec in records:
        if rec.__class__ is str:
            lineno += 1
            entry = memo_get(rec)
            if entry is not None:
                fetch, page, last_page, thread = entry
            else:
                fields = decode_event(rec)
                if fields is None:
                    # blank, comment, stack record or malformed line
                    others += 1
                    rec = parse_record(rec, lineno, stacks, strict)
                    if rec.__class__ is StackActivation:
                        current[rec.thread] = rec.stack
                        ref_thread = None
                    continue
                tag, address, size, thread = fields
                fetch = tag == "I"
                page = address >> shift
                last_page = (address + size - 1) >> shift
                if last_page == page:
                    last_page = page  # the entry holds one int for both
                memo.add(rec, (fetch, page, last_page, thread), lineno - others)
        elif rec.__class__ is TraceEvent:
            address = rec.address
            page = address >> shift
            last_page = (address + rec.size - 1) >> shift
            fetch = rec.kind is insn_fetch
            thread = rec.thread
        else:
            # declares a stack, checks an activation, refuses any other object
            stack_line(rec, stacks)
            if rec.__class__ is StackActivation:
                current[rec.thread] = rec.stack
                ref_thread = None
            continue
        if fetch:
            now += 1
            if now == cut:
                # sample before looking at the event, so a thread first
                # seen here does not pick up a boundary it predates; the
                # pages drained here all carry the current expiry index
                drain(expires, upcoming)
                if now == upcoming * every + 1:
                    take_samples(upcoming)
                    upcoming += 1
                expires = (now + tau - 1) // every
                cut = min(upcoming * every + 1, (expires + 1) * every - tau + 1)
            batch = insn_batch
        else:
            batch = data_batch
        # the stack can change only with the thread or an activation.
        # Drain before it does: a batch carries one stack, and a peak
        # annotation names the stack of the event before the sample
        if thread != ref_thread:
            ref_thread = thread
            ref = current.get(thread)
            if ref != combined.last_stack:
                drain(expires, upcoming)
                combined.last_stack = ref
            if per_thread:
                scope = threads.get(thread)
                if scope is None:
                    scope = threads[thread] = _ScopeState(cfg, upcoming, combined)
                    scopes.append(scope)
                scope.last_stack = ref
                insn_batch, data_batch = scope.batches
                batch = insn_batch if fetch else data_batch
            ran.append(scope)
        batch.append(page)
        if page != last_page:
            batch.extend(range(page + 1, last_page + 1))
        if len(batch) >= BATCH_LIMIT:
            drain(expires, upcoming)

    drain(expires, upcoming)
    if now == upcoming * every:
        take_samples(upcoming)
    # the memo is dead weight from here on, and building the results
    # (ranking the hot pages) takes memory of its own
    del memo, memo_get

    thread_results = (
        {tid: threads[tid].result(cfg, label_map, stacks) for tid in sorted(threads)}
        if per_thread
        else None
    )
    return combined.result(cfg, label_map, stacks, thread_results)
