"""Independent reference implementations the real modules are checked
against. Everything here recomputes results from first principles with
none of the package's data structures: the working set oracle rescans a
flat (timestamp, page) list per sample instead of keeping a page table,
and the peak oracle is a direct transliteration of the detector's
recurrences. Keep this file boring."""

from __future__ import annotations

import json
import math
import random
from bisect import bisect_right
from functools import cache
from itertools import chain, islice, repeat
from typing import Callable, Iterator

from workset.trace import (
    MAX_ACCESS_SIZE,
    AccessKind,
    CallStackDecl,
    StackActivation,
    Stream,
    TraceEvent,
    TraceParseError,
)
from workset.workloads import (
    _PAGERAMP_FRAMES,
    _PAGERAMP_STACK_ID,
    CODE_BASE,
    CODE_PAGES,
    EVENT_MEMO_SIZE,
    INSN_BYTES,
    PagerampConfig,
    StepConfig,
)


def split_parse_event(line):
    """The event grammar checked field by field on ``line.split()``:
    the TraceEvent of a well-formed event record, TraceParseError for a
    malformed one, and None for a line whose first field is not an
    event tag (not an event record at all)."""
    parts = line.split()
    if not parts or parts[0] not in ("I", "L", "S", "M"):
        return None
    if len(parts) not in (2, 3) or not line.isascii():
        raise TraceParseError("malformed event record")
    if parts[1].count(",") != 1:
        raise TraceParseError("expected <addr>,<size>")
    addr_s, size_s = parts[1].split(",")
    # the line is ASCII, so isalnum() and isdigit() admit ASCII only
    if not (addr_s.isalnum() and size_s.isdigit()):
        raise TraceParseError("malformed address/size")
    try:
        address = int(addr_s, 16)
        size = int(size_s)
    except ValueError:  # a bad hex digit, or more digits than int() converts
        raise TraceParseError("malformed address/size") from None
    if not 1 <= size <= MAX_ACCESS_SIZE:
        raise TraceParseError("size out of range")
    # the access must end inside the 64-bit address space
    if address + size > 2**64:
        raise TraceParseError("address out of range")
    thread = 0
    if len(parts) == 3:
        field = parts[2]
        if field[0] != "t" or not field[1:].isdigit():
            raise TraceParseError("malformed thread field")
        try:
            thread = int(field[1:])
        except ValueError:
            raise TraceParseError("thread id too long") from None
    return TraceEvent(AccessKind(parts[0]), address, size, thread)


def expand_accesses(events, page_size, thread=None):
    """Walk raw events once, assigning timestamps by counting fetches,
    and expand every access into (timestamp, page) pairs per stream.
    ``thread`` filters the recorded accesses but never the clock."""
    shift = page_size.bit_length() - 1
    insn, data = [], []
    now = 0
    for ev in events:
        if not isinstance(ev, TraceEvent):
            continue
        is_fetch = ev.kind is AccessKind.INSN_FETCH
        if is_fetch:
            now += 1
        if thread is not None and ev.thread != thread:
            continue
        first = ev.address >> shift
        last = (ev.address + ev.size - 1) >> shift
        target = insn if is_fetch else data
        for page in range(first, last + 1):
            target.append((now, page))
    return insn, data, now


def slow_hot_pages(records, page_size, thread=None):
    """Brute force hot page ranking: count every access page by page and
    note the stack id of each page's first access, which is the stack
    the last activation for the access's thread named; declarations
    anywhere in the stream name the stacks. Returns one list per stream,
    insn then data, of (count, page, info) with the most accessed page
    first and the page number breaking ties; info is the innermost frame
    of the first access's declared stack, else "". ``thread`` filters as
    in expand_accesses."""
    shift = page_size.bit_length() - 1
    stacks = {}
    current = {}
    counts = ({}, {})
    first_refs = ({}, {})
    for rec in records:
        if isinstance(rec, CallStackDecl):
            stacks[rec.id] = rec.frames
            continue
        if isinstance(rec, StackActivation):
            current[rec.thread] = rec.stack
            continue
        if thread is not None and rec.thread != thread:
            continue
        stream = 0 if rec.kind is AccessKind.INSN_FETCH else 1
        first = rec.address >> shift
        last = (rec.address + rec.size - 1) >> shift
        for page in range(first, last + 1):
            counts[stream][page] = counts[stream].get(page, 0) + 1
            first_refs[stream].setdefault(page, current.get(rec.thread))
    ranked = []
    for count, refs in zip(counts, first_refs):
        rows = []
        for page, n in count.items():
            frames = stacks.get(refs[page])
            rows.append((n, page, frames[0] if frames else ""))
        rows.sort(key=lambda row: (-row[0], row[1]))
        ranked.append(rows)
    return tuple(ranked)


def slow_wss_series(events, tau, every, page_size, thread=None):
    """Brute force: for every sampling instant, rescan the access lists
    and count distinct pages inside the half-open window (t - tau, t]."""
    insn, data, final = expand_accesses(events, page_size, thread)
    out = []
    for t in range(every, final + 1, every):
        lo = t - tau
        wi = len({p for ts, p in insn if lo < ts <= t})
        wd = len({p for ts, p in data if lo < ts <= t})
        out.append((t, wi, wd))
    return out


def fast_wss_series(events, tau, every, page_size, thread=None):
    """Same recount per sample, sliced so big randomized traces stay
    affordable: timestamps are nondecreasing, so each window is a slice
    located by bisection, whose distinct pages a set counts."""
    insn, data, final = expand_accesses(events, page_size, thread)
    columns = [([ts for ts, _ in pairs], [page for _, page in pairs]) for pairs in (insn, data)]
    out = []
    for t in range(every, final + 1, every):
        wi, wd = (len(set(pages[bisect_right(ts, t - tau):bisect_right(ts, t)]))
                  for ts, pages in columns)
        out.append((t, wi, wd))
    return out


def reference_peak_series(values, alpha=0.3, phi=0.2, g=1.0, eps=1e-9):
    """Scalar reference for the peak recurrences. Returns a list of
    (is_peak, distance, threshold, dispersion, mean, var) tuples, the
    statistics being the post-update state."""
    out = []
    mean = var = None
    for x in values:
        if mean is None:
            mean, var = float(x), 0.0
            out.append((False, 0.0, 0.0, 0.0, mean, var))
            continue
        distance = abs(x - mean)
        dispersion = var / mean if mean > eps else 0.0
        c = 1.0 - math.exp(-dispersion / 2.0)
        threshold = c * g * var + (1.0 - c) * g * mean
        is_peak = distance > threshold
        value = phi * x + (1.0 - phi) * mean if is_peak else float(x)
        prev_mean = mean
        mean = alpha * value + (1.0 - alpha) * prev_mean
        var = alpha * (value - prev_mean) ** 2 + (1.0 - alpha) * var
        out.append((is_peak, distance, threshold, dispersion, mean, var))
    return out


def make_random_events(
    rng: random.Random,
    n: int,
    insn_pages: int = 16,
    data_pages: int = 64,
    page_size: int = 4096,
    threads: tuple[int, ...] = (0,),
    straddle: bool = False,
    run: int = 0,
):
    """Random but well-formed event list over small page pools. Each
    event's thread is drawn from ``threads``, or with ``run`` > 0 the
    threads take turns, ``run`` events each."""
    insn_base = 0x0040_0000
    data_base = 0x1000_0000
    events = []
    for i in range(n):
        roll = rng.random()
        thread = threads[i // run % len(threads)] if run else rng.choice(threads)
        if roll < 0.5:
            page = rng.randrange(insn_pages)
            # fetches stay aligned so one fetch touches one page
            offset = rng.randrange(page_size // 4) * 4
            events.append(
                TraceEvent(AccessKind.INSN_FETCH, insn_base + page * page_size + offset, 4, thread)
            )
        else:
            kind = rng.choice(
                (AccessKind.DATA_LOAD, AccessKind.DATA_STORE, AccessKind.DATA_MODIFY)
            )
            page = rng.randrange(data_pages)
            if straddle and rng.random() < 0.05:
                offset = page_size - rng.choice((1, 2, 3))
                size = rng.choice((4, 8, 16))
            else:
                offset = rng.randrange(page_size - 16)
                size = rng.choice((1, 2, 4, 8))
            events.append(
                TraceEvent(kind, data_base + page * page_size + offset, size, thread)
            )
    return events


def slow_emit_json(result):
    """The JSON document straight from the json module: what emit_json
    must write, byte for byte."""
    return json.dumps(result.to_dict(), indent=2) + "\n"


def _step_path(points):
    if not points:
        return ""
    x0, y0 = points[0]
    parts = [f"M{x0:.1f},{y0:.1f}"]
    for x, y in points[1:]:
        parts.append(f"H{x:.1f}V{y:.1f}")
    return "".join(parts)


def slow_emit_svg(result):
    """The SVG plot built whole from a list of every sample, as emit_svg
    once built it: what emit_svg must write, byte for byte."""
    from workset.report import _COLORS, _MB, _ML, _MR, _MT, _SVG_H, _SVG_W, _ticks

    rows = [(s.t, s.wss_insn, s.wss_data) for s in result.samples]
    t_max = max((t for t, _, _ in rows), default=1)
    y_max = max(
        (max(insn, data) for _, insn, data in rows), default=1
    )
    y_max = max(y_max, 1)
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def sx(t):
        return _ML + plot_w * t / t_max

    def sy(v):
        return _MT + plot_h * (1.0 - v / (y_max * 1.05))

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
        f'font-family="sans-serif" font-size="12">',
        f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>',
        f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" stroke="#333"/>',
        f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="#333"/>',
    ]
    for tv in _ticks(t_max):
        x = sx(tv)
        out.append(f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" y2="{_MT + plot_h + 4}" stroke="#333"/>')
        out.append(
            f'<text x="{x:.1f}" y="{_MT + plot_h + 18}" text-anchor="middle">{tv}</text>'
        )
    for yv in _ticks(y_max):
        y = sy(yv)
        out.append(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>')
        out.append(
            f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{yv}</text>'
        )
    out.append(
        f'<text x="{_ML + plot_w / 2:.0f}" y="{_SVG_H - 8}" text-anchor="middle">instructions</text>'
    )
    out.append(
        f'<text x="14" y="{_MT + plot_h / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {_MT + plot_h / 2:.0f})">pages</text>'
    )
    series = {
        Stream.INSN: [(sx(t), sy(insn)) for t, insn, _ in rows],
        Stream.DATA: [(sx(t), sy(data)) for t, _, data in rows],
    }
    for stream, pts in series.items():
        path = _step_path(pts)
        if path:
            out.append(
                f'<path d="{path}" fill="none" stroke="{_COLORS[stream]}" stroke-width="1.5"/>'
            )
    # legend
    for i, (stream, label) in enumerate(((Stream.INSN, "insn"), (Stream.DATA, "data"))):
        lx = _ML + plot_w - 120 + i * 64
        out.append(
            f'<line x1="{lx}" y1="{_MT + 10}" x2="{lx + 18}" y2="{_MT + 10}" '
            f'stroke="{_COLORS[stream]}" stroke-width="2"/>'
        )
        out.append(f'<text x="{lx + 22}" y="{_MT + 14}">{label}</text>')
    # peak markers, labeled with the annotation index
    marked = {ann.t for ann in result.annotations}
    by_t = {t: (insn, data) for t, insn, data in rows if t in marked}
    for ann in result.annotations:
        wss = by_t.get(ann.t)
        if wss is None:
            continue
        value = wss[0] if ann.stream is Stream.INSN else wss[1]
        x, y = sx(ann.t), sy(value)
        color = _COLORS[ann.stream]
        out.append(
            f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="none" stroke="{color}"/>'
        )
        out.append(
            f'<text x="{x:.1f}" y="{y - 8:.1f}" text-anchor="middle" fill="{color}">'
            f"[{ann.index}]</text>"
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"


# pieces of frame and label text that JSON must escape or that look like
# escapes: quote, backslash, NUL, U+2028, a lone surrogate, non-ASCII
# text, and the literal text of an escaped NUL followed by digits
_TEXT_BITS = ('"', "\\", "\x00", "\u2028", "\udcff", "é", "日本", "\\u0000", "\"\x001",
              "0", "7", "a", " ", "\n", "\t", "|", ": ", "[", "}")


def random_text(rng: random.Random) -> str:
    return "".join(rng.choice(_TEXT_BITS) for _ in range(rng.randrange(6)))


def make_random_result(rng: random.Random, nested: bool = True):
    """A random but well-typed AnalysisResult: samples (possibly none)
    with peaks, both streams sometimes firing at one instant; hot page
    lists from empty (top_n = 0) up; frames (a tuple or a list) and
    labels from _TEXT_BITS; and, when ``nested``, a per-thread breakdown
    that may be absent, empty or keyed by thread ids from 0 to large."""
    from workset.report import (
        AnalysisResult,
        HotPageEntry,
        PeakAnnotation,
        StreamResult,
        Summary,
        WssSample,
    )

    samples, annotations = [], []
    t = 0
    for _ in range(rng.choice((0, 1, 2, rng.randrange(40)))):
        t += rng.randrange(1, 1 << rng.randrange(1, 64))
        fired = [rng.random() < 0.3, rng.random() < 0.3]
        annotation = None
        for stream, fires in zip(Stream, fired):
            if fires:
                frames = [random_text(rng) for _ in range(rng.randrange(4))]
                # a library caller may pass a list; the engine passes a tuple
                frames = rng.choice((tuple, list))(frames)
                if annotation is None:
                    annotation = len(annotations)
                annotations.append(
                    PeakAnnotation(len(annotations), t, stream, len(set(frames)), frames)
                )
        samples.append(WssSample(
            t, rng.randrange(1 << rng.randrange(1, 40)), rng.randrange(1 << rng.randrange(1, 40)),
            fired[0], fired[1], annotation,
        ))
    streams = []
    for stream in Stream:
        top_n = rng.choice((0, 1, 3, 10))
        entries = [
            HotPageEntry(rng.randrange(1, 1 << 40), rng.randrange(1 << 52), random_text(rng))
            for _ in range(rng.randrange(top_n + 1))
        ]
        avg = rng.choice((0.0, 1.0, 1 / 3, 2.5, 1e16, 1e-7, rng.random() * 10 ** rng.randrange(12)))
        summary = Summary(stream, avg, rng.randrange(1 << 30), rng.randrange(1 << 30),
                          1 << rng.randrange(30))
        streams.append(StreamResult(summary, entries))
    threads = None
    if nested and rng.random() < 0.6:
        tids = rng.sample((0, 1, 7, 2**31, 10**15, 2**64 - 1), rng.randrange(4))
        threads = {tid: make_random_result(rng, nested=False) for tid in tids}
    return AnalysisResult(samples, streams[0], streams[1], annotations, threads)


# The workload generators as a generator frame per record with a
# functools.cache per event kind: the record streams, and the sharing of
# event objects, the itertools pipelines in workset.workloads must match.


def _memoized(make: Callable[[int], TraceEvent], keys: int) -> Callable[[int], TraceEvent]:
    """``make`` with its results kept for reuse when it is called with at
    most ``keys`` distinct arguments, and that is at most EVENT_MEMO_SIZE;
    else ``make`` itself."""
    return cache(make) if keys <= EVENT_MEMO_SIZE else make


def _code_fetches(page_size: int) -> Iterator[TraceEvent]:
    """Endless instruction fetches cycling through the code pages."""
    addresses = range(CODE_BASE, CODE_BASE + CODE_PAGES * page_size, INSN_BYTES)
    fetch = _memoized(
        lambda address: TraceEvent(AccessKind.INSN_FETCH, address, INSN_BYTES),
        len(addresses),
    )
    return map(fetch, chain.from_iterable(repeat(addresses)))


def _data_stores(base_address: int, page_size: int, pages: int) -> Callable[[int], TraceEvent]:
    """Single-byte store event at the start of a page, by index below
    ``pages``."""
    return _memoized(
        lambda page: TraceEvent(AccessKind.DATA_STORE, base_address + page * page_size, 1),
        pages,
    )


def slow_gen_pageramp(
    config: PagerampConfig | None = None,
) -> Iterator[TraceEvent | CallStackDecl | StackActivation]:
    """gen_pageramp as first written: a generator frame resumed per
    record and a functools.cache lookup per event.

    Yield the sawtooth workload as a lazy record stream: the
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
    yield CallStackDecl(_PAGERAMP_STACK_ID, _PAGERAMP_FRAMES)
    yield StackActivation(0, _PAGERAMP_STACK_ID)
    code = _code_fetches(cfg.page_size)
    store = _data_stores(cfg.base_address, cfg.page_size, cfg.max_pages)
    per_touch = cfg.insns_per_touch

    def pass_records(claimed: int) -> Iterator[TraceEvent]:
        touched = range(0, claimed, cfg.stride)
        # zip takes per_touch fetches from the shared islice, then the
        # store; the islice ends exactly when the touched pages do
        fetches = islice(code, per_touch * len(touched))
        return chain(
            islice(code, cfg.insns_per_step),
            chain.from_iterable(zip(*[fetches] * per_touch, map(store, touched))),
        )

    for _ in range(cfg.cycles):
        claimed = 0
        while claimed < cfg.max_pages:
            claimed = min(claimed + cfg.pages_per_step, cfg.max_pages)
            yield from pass_records(claimed)
        while claimed > 0:
            claimed = max(claimed - cfg.pages_per_step, 0)
            yield from pass_records(claimed)


def slow_gen_step(config: StepConfig | None = None) -> Iterator[TraceEvent]:
    """gen_step as first written.

    Yield the step workload as a lazy record stream: a flat working
    set with one short bump per repeat, and no call stacks."""
    cfg = config if config is not None else StepConfig()
    code = _code_fetches(cfg.page_size)
    store = _data_stores(cfg.base_address, cfg.page_size, cfg.flat_pages + cfg.step_pages)

    def interval(npages: int) -> Iterator[TraceEvent]:
        return chain(
            chain.from_iterable(zip(islice(code, npages), map(store, range(npages)))),
            islice(code, cfg.interval_insns - npages),
        )

    for _ in range(cfg.repeats):
        for _ in range(cfg.flat_samples):
            yield from interval(cfg.flat_pages)
        yield from interval(cfg.flat_pages + cfg.step_pages)
    for _ in range(cfg.flat_samples):
        yield from interval(cfg.flat_pages)
