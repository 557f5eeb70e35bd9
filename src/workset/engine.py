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

Each table holds one entry per page, ``[expiry, count, first_stack_ref]``:
the page's expiry index (the number of the last sample whose window
still holds its latest access), its access count, and the stack id the
first access carried, which names the page in the hot page ranking.
Sampling never scans the tables. Each table counts its pages per expiry
index (see PageTable); a sample reads a running count and retires one
expiry bucket, so it costs O(1) however many pages the stream has
touched, and a touch moves its page between buckets only when the
page's expiry index changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from .peak import PeakDetector, PeakParams
from .report import HotPageEntry, Summary, hot_pages, summarize
from .trace import AccessKind, CallStackDecl, Stream, TraceEvent


@dataclass
class AnalysisConfig:
    """Analysis knobs. ``every`` (the sampling interval) defaults to
    ``tau`` so consecutive windows tile the trace without overlap."""

    tau: int = 100_000
    every: int | None = None
    page_size: int = 4096
    per_thread: bool = False
    peak_detect: bool = False
    peak_g: float = 1.0
    peak_phi: float = 0.2
    peak_alpha: float = 0.3
    top_n: int = 10

    def __post_init__(self) -> None:
        if self.every is None:
            self.every = self.tau
        if self.tau < 1:
            raise ValueError(f"tau must be >= 1, got {self.tau}")
        if self.every < 1:
            raise ValueError(f"every must be >= 1, got {self.every}")
        if self.page_size < 1 or self.page_size & (self.page_size - 1):
            raise ValueError(f"page_size must be a power of two, got {self.page_size}")
        if self.top_n < 0:
            raise ValueError(f"top_n must be >= 0, got {self.top_n}")
        # validates the peak knobs even when detection is off
        self.peak_params()

    def peak_params(self) -> PeakParams:
        return PeakParams(alpha=self.peak_alpha, phi=self.peak_phi, g=self.peak_g)


class PageTable:
    """Append-only table of pages touched by one access stream, with the
    working set of window ``tau`` sampled every ``every`` instructions.

    Samples are numbered 1, 2, ... and sample k is taken at t = k * every.
    A page last touched at ts is counted by sample k iff
    k * every - tau < ts <= k * every, so the last sample that counts it
    is its expiry index (ts + tau - 1) // every. Each page has a single
    entry ``[expiry, count, first_stack_ref]``, so a repeat touch costs
    one dict lookup. The table also keeps, per expiry index, the number
    of pages due to leave the working set there, plus the live count of
    pages some upcoming sample still counts. ``sample`` reports the live
    count and retires one bucket, so each sample costs O(1) whatever the
    number of pages. ``first_sample`` is the index of the first sample
    this table takes.
    """

    def __init__(
        self,
        page_size: int,
        stacks: Mapping[int, tuple[str, ...]] | None = None,
        tau: int = 1,
        every: int = 1,
        first_sample: int = 1,
    ):
        self.page_size = page_size
        self.page_shift = page_size.bit_length() - 1
        self.tau = tau
        self.every = every
        self._next = first_sample
        self._live = 0
        self._buckets: dict[int, int] = {}
        self._pages: dict[int, list] = {}
        self._stacks = stacks if stacks is not None else {}

    def touch(self, address: int, size: int, now: int, stack_ref: int | None = None) -> None:
        """Record an access covering [address, address + size) at time
        ``now``. Times must not decrease, and must lie after the instant
        of the last sample taken."""
        shift = self.page_shift
        page = address >> shift
        last_page = (address + size - 1) >> shift
        expires = (now + self.tau - 1) // self.every
        # a touch that expires before the next sample is never counted
        counted = expires >= self._next
        pages = self._pages
        buckets = self._buckets
        while True:
            entry = pages.get(page)
            if entry is not None:
                entry[1] += 1
                old = entry[0]
                if old != expires:
                    entry[0] = expires
                    if counted:
                        if old >= self._next:
                            buckets[old] -= 1
                        else:
                            self._live += 1
                        buckets[expires] = buckets.get(expires, 0) + 1
            else:
                pages[page] = [expires, 1, stack_ref]
                if counted:
                    self._live += 1
                    buckets[expires] = buckets.get(expires, 0) + 1
            if page >= last_page:
                break
            page += 1

    def sample(self) -> int:
        """Take the next sample: the number of pages whose last access
        lies in (t - tau, t] for t = every * (index of this sample)."""
        live = self._live
        self._live = live - self._buckets.pop(self._next, 0)
        self._next += 1
        return live

    def __len__(self) -> int:
        return len(self._pages)

    def records(self) -> list[tuple[int, int, str | None]]:
        """One ``(page, access_count, frame)`` tuple per page, in first
        touch order. ``frame`` is the innermost frame of the stack the
        first access carried, or None when it carried no declared stack."""
        stacks = self._stacks
        out = []
        for page, (_, count, ref) in self._pages.items():
            frames = stacks.get(ref)
            out.append((page, count, frames[0] if frames else None))
        return out


@dataclass(slots=True)
class WssSample:
    """One sampling instant: WSS of both streams, peak verdicts, and an
    optional index into the annotation list."""

    t: int
    wss_insn: int
    wss_data: int
    peak_insn: bool = False
    peak_data: bool = False
    annotation: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "t": self.t,
            "wss_insn": self.wss_insn,
            "wss_data": self.wss_data,
            "peak_insn": self.peak_insn,
            "peak_data": self.peak_data,
            "annotation": self.annotation,
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "WssSample":
        return cls(
            d["t"], d["wss_insn"], d["wss_data"],
            d["peak_insn"], d["peak_data"], d["annotation"],
        )


@dataclass(slots=True)
class PeakAnnotation:
    """Context grabbed when a peak fires: which stream spiked and the
    call stack the triggering thread was under. ``refs`` counts the
    distinct frames captured."""

    index: int
    t: int
    stream: Stream
    refs: int
    frames: tuple[str, ...]

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "t": self.t,
            "stream": self.stream.value,
            "refs": self.refs,
            "frames": list(self.frames),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "PeakAnnotation":
        return cls(d["index"], d["t"], Stream(d["stream"]), d["refs"], tuple(d["frames"]))


@dataclass
class StreamResult:
    """Summary plus hot page ranking for one access stream."""

    summary: Summary
    hot_pages: list[HotPageEntry]

    def to_dict(self) -> dict[str, Any]:
        return {
            "summary": self.summary.to_dict(),
            "hot_pages": [e.to_dict() for e in self.hot_pages],
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "StreamResult":
        return cls(
            Summary.from_dict(d["summary"]),
            [HotPageEntry.from_dict(e) for e in d["hot_pages"]],
        )


@dataclass
class AnalysisResult:
    """Everything one analysis produces. ``threads`` holds per-thread
    sub-results (sampled on the same global clock) when requested."""

    samples: list[WssSample]
    insn: StreamResult
    data: StreamResult
    annotations: list[PeakAnnotation]
    threads: dict[int, "AnalysisResult"] | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "samples": [s.to_dict() for s in self.samples],
            "insn": self.insn.to_dict(),
            "data": self.data.to_dict(),
            "annotations": [a.to_dict() for a in self.annotations],
            "threads": (
                {str(tid): sub.to_dict() for tid, sub in sorted(self.threads.items())}
                if self.threads is not None
                else None
            ),
        }

    @classmethod
    def from_dict(cls, d: Mapping[str, Any]) -> "AnalysisResult":
        threads = d["threads"]
        return cls(
            [WssSample.from_dict(s) for s in d["samples"]],
            StreamResult.from_dict(d["insn"]),
            StreamResult.from_dict(d["data"]),
            [PeakAnnotation.from_dict(a) for a in d["annotations"]],
            {int(tid): cls.from_dict(sub) for tid, sub in threads.items()}
            if threads is not None
            else None,
        )


class _ScopeState:
    """Accumulator for one sampling scope (the whole trace, or one thread).
    A scope created at time ``now`` takes its first sample at the next
    global sampling instant, so its tables start at that sample index."""

    __slots__ = ("insn", "data", "samples", "annotations", "detector_insn",
                 "detector_data", "last_stack", "stacks")

    def __init__(self, cfg: AnalysisConfig, stacks: dict[int, tuple[str, ...]], now: int = 0):
        first_sample = max(1, -(-now // cfg.every))
        self.insn = PageTable(cfg.page_size, stacks, cfg.tau, cfg.every, first_sample)
        self.data = PageTable(cfg.page_size, stacks, cfg.tau, cfg.every, first_sample)
        self.samples: list[WssSample] = []
        self.annotations: list[PeakAnnotation] = []
        if cfg.peak_detect:
            self.detector_insn = PeakDetector(cfg.peak_params())
            self.detector_data = PeakDetector(cfg.peak_params())
        else:
            self.detector_insn = None
            self.detector_data = None
        self.last_stack: int | None = None
        self.stacks = stacks

    def _annotate(self, t: int, stream: Stream) -> int:
        ref = self.last_stack
        frames = self.stacks.get(ref, ()) if ref is not None else ()
        index = len(self.annotations)
        self.annotations.append(
            PeakAnnotation(index, t, stream, len(set(frames)), tuple(frames))
        )
        return index

    def take_sample(self, t: int) -> None:
        wss_insn = self.insn.sample()
        wss_data = self.data.sample()
        peak_insn = peak_data = False
        annotation = None
        if self.detector_insn is not None:
            peak_insn = self.detector_insn.update(wss_insn).is_peak
            peak_data = self.detector_data.update(wss_data).is_peak
            if peak_insn:
                annotation = self._annotate(t, Stream.INSN)
            if peak_data:
                index = self._annotate(t, Stream.DATA)
                if annotation is None:
                    annotation = index
        self.samples.append(
            WssSample(t, wss_insn, wss_data, peak_insn, peak_data, annotation)
        )

    def result(
        self,
        cfg: AnalysisConfig,
        label_map: Mapping[int, str] | None,
        threads: dict[int, AnalysisResult] | None = None,
    ) -> AnalysisResult:
        """This scope's samples, per-stream summaries and hot pages, and
        annotations; ``threads`` is the per-thread breakdown, if any."""
        insn, data = (
            StreamResult(
                summarize(self.samples, table, stream),
                hot_pages(table, cfg.top_n, label_map),
            )
            for table, stream in ((self.insn, Stream.INSN), (self.data, Stream.DATA))
        )
        return AnalysisResult(self.samples, insn, data, self.annotations, threads)


def run_analysis(
    records: Iterable[TraceEvent | CallStackDecl],
    config: AnalysisConfig | None = None,
    label_map: Mapping[int, str] | None = None,
) -> AnalysisResult:
    """Single pass over a record stream, as produced by read_trace or
    the generators. Memory stays proportional to distinct pages plus
    samples, never to trace length."""
    cfg = config if config is not None else AnalysisConfig()
    stacks: dict[int, tuple[str, ...]] = {}
    combined = _ScopeState(cfg, stacks)
    threads: dict[int, _ScopeState] = {}
    per_thread = cfg.per_thread
    every = cfg.every
    insn_fetch = AccessKind.INSN_FETCH
    # bound methods hoisted out of the loop; it runs once per trace event
    touch_insn = combined.insn.touch
    touch_data = combined.data.touch
    now = 0
    pending = False

    def flush(t: int) -> None:
        combined.take_sample(t)
        for state in threads.values():
            state.take_sample(t)

    for rec in records:
        if rec.__class__ is not TraceEvent:
            if rec.__class__ is CallStackDecl:
                stacks[rec.id] = rec.frames
                continue
            raise TypeError(
                f"cannot analyze record of type {rec.__class__.__name__}; "
                "feed read_trace or generator output"
            )
        fetch = rec.kind is insn_fetch
        if fetch:
            # flush before looking at the event so a thread first seen here
            # does not pick up a sample for a boundary it predates
            if pending:
                flush(now)
                pending = False
            now += 1
            touch_insn(rec.address, rec.size, now, rec.stack_ref)
            if now % every == 0:
                pending = True
        else:
            touch_data(rec.address, rec.size, now, rec.stack_ref)
        if per_thread:
            scope = threads.get(rec.thread)
            if scope is None:
                scope = threads[rec.thread] = _ScopeState(cfg, stacks, now)
            (scope.insn if fetch else scope.data).touch(
                rec.address, rec.size, now, rec.stack_ref
            )
            scope.last_stack = rec.stack_ref
        combined.last_stack = rec.stack_ref

    if pending:
        flush(now)

    thread_results = (
        {tid: threads[tid].result(cfg, label_map) for tid in sorted(threads)}
        if per_thread
        else None
    )
    return combined.result(cfg, label_map, thread_results)
