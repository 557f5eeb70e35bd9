"""The result document: its classes, and the emitters that render it.

The classes here (WssSample, PeakAnnotation, Summary, HotPageEntry,
StreamResult, AnalysisResult) are what an analysis returns. Each
class's fields, in the order its ``__match_args__`` lists them, are the
keys of its JSON object, and its ``to_dict`` walks them. An analysis keeps each scope's samples
as columns, in a SampleSeries that builds WssSample objects on demand.
The text format is meant for eyeballs: per-stream one-line summaries,
hot page tables, and one line per detected peak. CSV and JSON are
stable machine formats (the CSV column set and JSON field names are
part of the tool's contract, see docs/result-schema.md). SVG is a
small dependency-free step plot of both WSS series with peak markers.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Sequence
from enum import Enum
from itertools import compress
from typing import Any, Iterable, TextIO

from .trace import Stream, Struct, excerpt

CSV_HEADER = "t,WSS_insn,WSS_data,peak_insn,peak_data,annotation"


def _plain(value: Any) -> Any:
    """``value`` as plain JSON data: a number, string or None as it is,
    an Enum its value, a tuple or list a list, the ``threads`` dict a
    dict keyed by ``str(tid)`` in thread id order, and a result object
    a dict of its fields in ``__match_args__`` order. Each result class's
    ``to_dict`` is this function. A SampleSeries counts as a list."""
    if value is None or isinstance(value, (int, float, str)):
        return value
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (list, tuple, SampleSeries)):
        return [_plain(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in sorted(value.items())}
    return {name: _plain(getattr(value, name)) for name in value.__match_args__}


class WssSample(Struct):
    """One sampling instant: WSS of both streams, peak verdicts, and an
    optional index into the annotation list."""

    __slots__ = __match_args__ = (
        "t", "wss_insn", "wss_data", "peak_insn", "peak_data", "annotation")

    def __init__(self, t: int, wss_insn: int, wss_data: int, peak_insn: bool = False,
                 peak_data: bool = False, annotation: int | None = None) -> None:
        self.t = t
        self.wss_insn = wss_insn
        self.wss_data = wss_data
        self.peak_insn = peak_insn
        self.peak_data = peak_data
        self.annotation = annotation

    to_dict = _plain


_SERIES_CHUNK = 512
"""Samples built at a time: by a SampleSeries while it is iterated, and
by the JSON and SVG emitters, which slice the series."""


class SampleSeries(Sequence):
    """One scope's samples, kept as columns: a read-only sequence of
    WssSample that builds each sample when it is asked for, so changing
    a sample it returned changes nothing it holds.

    Sample i is taken at instant ``times[i]``. ``insn`` and ``data``
    hold the WSS values, and ``annotations`` the scope's peaks: each
    sample some of them name is marked with their streams and the index
    of the first. Iteration builds _SERIES_CHUNK samples at a time, and
    a slice is a list. A series equals a list or tuple of equal samples.
    """

    __slots__ = ("_times", "_insn", "_data", "_peaks")

    def __init__(
        self,
        times: range,
        insn: array,
        data: array,
        annotations: Iterable[PeakAnnotation],
    ):
        self._times = times
        self._insn = insn
        self._data = data
        # sample index -> (first annotation index, peak_insn in bit 0 and
        # peak_data in bit 1), for the samples that fired
        self._peaks: dict[int, tuple[int, int]] = {}
        for ann in annotations:
            i = (ann.t - times.start) // times.step
            index, bits = self._peaks.get(i, (ann.index, 0))
            self._peaks[i] = index, bits | (1 if ann.stream is Stream.INSN else 2)

    def __len__(self) -> int:
        return len(self._insn)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self._build(index)
        try:
            # normalizes a negative index; a non-integer is a TypeError
            i = range(len(self))[index]
        except IndexError:
            raise IndexError("sample index out of range") from None
        return self._build(slice(i, i + 1))[0]

    def __iter__(self):
        for start in range(0, len(self), _SERIES_CHUNK):
            yield from self._build(slice(start, start + _SERIES_CHUNK))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (SampleSeries, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return (f"<SampleSeries of {len(self)} samples every {self._times.step}"
                f" from t={self._times.start}>")

    def _build(self, cut: slice) -> list[WssSample]:
        """The samples that slice ``cut`` selects, as a list does."""
        out = list(map(WssSample, self._times[cut], self._insn[cut], self._data[cut]))
        peaks = self._peaks
        if peaks:
            rows = range(len(self))[cut]
            for j in compress(range(len(out)), map(peaks.__contains__, rows)):
                sample = out[j]
                sample.annotation, bits = peaks[rows[j]]
                sample.peak_insn = bool(bits & 1)
                sample.peak_data = bool(bits & 2)
        return out


class PeakAnnotation(Struct):
    """Context grabbed when a peak fires: which stream spiked and the
    call stack the triggering thread was under. ``refs`` counts the
    distinct frames captured."""

    __slots__ = __match_args__ = ("index", "t", "stream", "refs", "frames")

    def __init__(self, index: int, t: int, stream: Stream, refs: int,
                 frames: tuple[str, ...]) -> None:
        self._set_fields(index, t, stream, refs, frames)

    to_dict = _plain


class Summary(Struct):
    """Per-stream totals: mean and max of the WSS samples plus the
    number of distinct pages ever seen in the stream's table."""

    __match_args__ = ("stream", "avg_pages", "peak_pages", "total_pages", "page_size")

    def __init__(self, stream: Stream, avg_pages: float, peak_pages: int, total_pages: int,
                 page_size: int) -> None:
        self._set_fields(stream, avg_pages, peak_pages, total_pages, page_size)

    to_dict = _plain


class HotPageEntry(Struct):
    __match_args__ = ("count", "page", "info")

    def __init__(self, count: int, page: int, info: str = "") -> None:
        self._set_fields(count, page, info)

    to_dict = _plain


class StreamResult(Struct):
    """Summary plus hot page ranking for one access stream."""

    __match_args__ = ("summary", "hot_pages")

    def __init__(self, summary: Summary, hot_pages: list[HotPageEntry]) -> None:
        self._set_fields(summary, hot_pages)

    to_dict = _plain


class AnalysisResult(Struct):
    """Everything one analysis produces. ``threads`` holds per-thread
    sub-results (sampled on the same global clock) when requested.

    An analysis returns its ``samples`` as a SampleSeries: a read-only
    sequence that holds 16 bytes per sample, plus an entry per sample a
    peak fired at, and builds each WssSample when it is read, by index,
    slice or iteration, so changing a sample read from it leaves the
    series as it was. Any sequence of WssSample works here; the
    emitters only take its length, slice it and iterate it."""

    __match_args__ = ("samples", "insn", "data", "annotations", "threads")

    def __init__(self, samples: Sequence[WssSample], insn: StreamResult, data: StreamResult,
                 annotations: list[PeakAnnotation],
                 threads: dict[int, AnalysisResult] | None = None) -> None:
        self._set_fields(samples, insn, data, annotations, threads)

    to_dict = _plain


def load_label_map(lines: Iterable[str]) -> dict[int, str]:
    """Parse a page label sidecar: '<hexpage> <label>' per line.

    Blank lines and '#' comments are skipped; the label is everything
    after the first whitespace.
    """
    out: dict[int, str] = {}
    for lineno, raw in enumerate(lines, 1):
        s = raw.strip()
        if not s or s[0] == "#":
            continue
        page_s, *rest = s.split(None, 1)
        label = rest[0] if rest else ""
        try:
            # same hex rule as trace addresses: no signs, '_' or non-ASCII digits
            if not (page_s.isascii() and page_s.isalnum()):
                raise ValueError
            page = int(page_s, 16)
        except ValueError:
            raise ValueError(f"label map line {lineno}: bad page {excerpt(page_s)}") from None
        if not label:
            raise ValueError(f"label map line {lineno}: missing label")
        try:
            # as in C frames: an undecodable input byte arrives as a lone surrogate
            label.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"label map line {lineno}: label is not valid UTF-8") from None
        out[page] = label
    return out


# --------------------------------------------------------------------------
# emitters


def emit(result: AnalysisResult, format: str, sink: TextIO) -> None:
    """Render a result to ``sink`` in one of FORMATS."""
    emitter = _EMITTERS.get(format)
    if emitter is None:
        raise ValueError(f"unknown format {format!r} (expected one of {FORMATS})")
    emitter(result, sink)


def _kb_text(value: float) -> str:
    # keep integer kB figures exact; only fractional ones get a decimal point
    return str(int(value)) if value == int(value) else f"{value:g}"


def format_summary(summary: Summary) -> str:
    label = "Insn" if summary.stream is Stream.INSN else "Data"
    avg_kb, peak_kb, total_kb = (
        pages * summary.page_size / 1024
        for pages in (summary.avg_pages, summary.peak_pages, summary.total_pages)
    )
    return (
        f"{label} avg/peak/total: "
        f"{summary.avg_pages:.1f}/{summary.peak_pages}/{summary.total_pages} pages "
        f"({avg_kb:.0f}/{_kb_text(peak_kb)}/{_kb_text(total_kb)} kB)"
    )


def _emit_text_body(result: AnalysisResult, write) -> None:
    write(format_summary(result.insn.summary) + "\n")
    write(format_summary(result.data.summary) + "\n")
    for stream_result, name in ((result.insn, "Insn"), (result.data, "Data")):
        entries = stream_result.hot_pages
        write(f"\n{name} pages ({stream_result.summary.total_pages} entries")
        if len(entries) < stream_result.summary.total_pages:
            write(f", top {len(entries)}")
        write("):\n")
        if entries:
            write(f"{'count':>12}  {'page':<12}info\n")
            for e in entries:
                write(f"{e.count:>12}  {'0x%04x' % e.page:<12}{e.info}\n")
    if result.annotations:
        write(f"\nPeaks ({len(result.annotations)}):\n")
        for ann in result.annotations:
            loc = "|".join(ann.frames) if ann.frames else "?"
            write(f"[{ann.index}] refs={ann.refs}, loc={loc}\n")


def emit_text(result: AnalysisResult, sink: TextIO) -> None:
    """Write the report in one ``sink.write``, so a text stream that
    cannot encode some of it raises before it writes any."""
    parts: list[str] = []
    _emit_text_body(result, parts.append)
    for tid in sorted(result.threads or ()):
        parts.append(f"\n== Thread {tid} ==\n")
        _emit_text_body(result.threads[tid], parts.append)
    sink.write("".join(parts))


def emit_csv(result: AnalysisResult, sink: TextIO) -> None:
    """One row per sample; peak flags as 0/1, annotation index or empty."""
    write = sink.write
    write(CSV_HEADER + "\n")
    for s in result.samples:
        ann = "" if s.annotation is None else s.annotation
        write(
            f"{s.t},{s.wss_insn},{s.wss_data},{int(s.peak_insn)},{int(s.peak_data)},{ann}\n"
        )


def emit_json(result: AnalysisResult, sink: TextIO) -> None:
    """Write ``result`` as the JSON document of docs/result-schema.md.

    The bytes are exactly ``json.dumps(result.to_dict(), indent=2)``
    plus one newline: 2-space indent, keys in schema order, ASCII only
    (other characters as ``\\uXXXX`` escapes). Sample lists are
    formatted here, one fixed template per sample, and written
    _SERIES_CHUNK samples at a time; the rest of the document goes
    through ``json``, one small value at a time, so no document-sized
    string and no dict per sample is ever built.
    """
    _write_json_result(result, sink.write, "")
    sink.write("\n")


def _write_json_result(result: AnalysisResult, write, pad: str) -> None:
    """Write one result object whose opening brace sits at indent ``pad``,
    its fields in declaration order. Each goes through ``_plain`` but the
    samples and a non-empty ``threads`` dict, whose sub-results nest one
    level deeper."""
    import json  # here, so that only a run that writes JSON loads it

    inner = pad + "  "
    sep = "{\n"
    for name in AnalysisResult.__match_args__:
        value = getattr(result, name)
        write(f'{sep}{inner}"{name}": ')
        sep = ",\n"
        if name == "samples":
            _write_json_samples(value, write, inner)
        elif name == "threads" and value:
            tsep = "{\n"
            for tid, sub in sorted(value.items()):
                write(f'{tsep}{inner}  "{tid}": ')
                _write_json_result(sub, write, inner + "  ")
                tsep = ",\n"
            write("\n" + inner + "}")
        else:
            # a string in indented JSON output never holds a raw newline,
            # so every newline is structural and re-indenting is exact
            write(json.dumps(_plain(value), indent=2).replace("\n", "\n" + inner))
    write("\n" + pad + "}")


def _write_json_samples(samples: Sequence[WssSample], write, pad: str) -> None:
    """Write a sample list whose opening bracket sits at indent ``pad``."""
    if not samples:
        write("[]")
        return
    item = pad + "  "
    key = item + "  "
    # WssSample's fields, in declaration order
    template = (
        f'{item}{{\n{key}"t": %d,\n{key}"wss_insn": %d,\n{key}"wss_data": %d,\n'
        f'{key}"peak_insn": %s,\n{key}"peak_data": %s,\n{key}"annotation": %s\n{item}}}'
    )
    boolean = ("false", "true")
    sep = "[\n"
    for start in range(0, len(samples), _SERIES_CHUNK):
        write(sep + ",\n".join([
            template % (
                s.t, s.wss_insn, s.wss_data, boolean[s.peak_insn], boolean[s.peak_data],
                "null" if s.annotation is None else s.annotation,
            )
            for s in samples[start:start + _SERIES_CHUNK]
        ]))
        sep = ",\n"
    write("\n" + pad + "]")


# --------------------------------------------------------------------------
# SVG step plot

_SVG_W, _SVG_H = 960, 380
_ML, _MR, _MT, _MB = 64, 18, 18, 44
_COLORS = {Stream.INSN: "#4878a8", Stream.DATA: "#c44e52"}


def _ticks(limit: float, want: int = 5) -> list[int]:
    if limit <= 0:
        return [0]
    import math

    raw = limit / want
    mag = 10 ** math.floor(math.log10(raw)) if raw >= 1 else 1
    for mult in (1, 2, 5, 10):
        if mag * mult >= raw:
            step = mag * mult
            break
    return list(range(0, int(limit) + 1, int(step))) or [0]


def emit_svg(result: AnalysisResult, sink: TextIO) -> None:
    """Plot both WSS series over instruction time, marking peaks.

    Reads the samples twice, _SERIES_CHUNK at a time. The first pass
    finds the axis limits and both values at each annotated instant.
    The second writes the insn path's steps as it reads them and keeps
    the data path's as text, to write once the insn path is closed. So
    the plot holds the data path's text, not an object per sample, and
    each path still takes one step per sample.
    """
    samples = result.samples
    t_of, insn_of, data_of = map(operator.attrgetter, ("t", "wss_insn", "wss_data"))
    marked = {ann.t for ann in result.annotations}
    t_tops, y_tops, at_peak = [], [1], {}
    for start in range(0, len(samples), _SERIES_CHUNK):
        chunk = samples[start:start + _SERIES_CHUNK]
        t_tops.append(max(map(t_of, chunk)))
        y_tops += max(map(insn_of, chunk)), max(map(data_of, chunk))
        # the last sample at an annotated instant places its marker
        for s in compress(chunk, map(marked.__contains__, map(t_of, chunk))):
            at_peak[s.t] = (s.wss_insn, s.wss_data)
    # a series whose latest instant is 0 still gets a time axis
    t_max = max(t_tops, default=1) or 1
    y_max = max(y_tops)
    plot_w = _SVG_W - _ML - _MR
    plot_h = _SVG_H - _MT - _MB

    def sx(t: float) -> float:
        return _ML + plot_w * t / t_max

    def sy(v: float) -> float:
        return _MT + plot_h * (1.0 - v / (y_max * 1.05))

    write = sink.write
    write(f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {_SVG_W} {_SVG_H}" '
          f'font-family="sans-serif" font-size="12">\n')
    write(f'<rect width="{_SVG_W}" height="{_SVG_H}" fill="white"/>\n')
    write(f'<line x1="{_ML}" y1="{_MT + plot_h}" x2="{_ML + plot_w}" y2="{_MT + plot_h}" stroke="#333"/>\n')
    write(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_MT + plot_h}" stroke="#333"/>\n')
    for tv in _ticks(t_max):
        x = sx(tv)
        write(f'<line x1="{x:.1f}" y1="{_MT + plot_h}" x2="{x:.1f}" y2="{_MT + plot_h + 4}" stroke="#333"/>\n')
        write(f'<text x="{x:.1f}" y="{_MT + plot_h + 18}" text-anchor="middle">{tv}</text>\n')
    for yv in _ticks(y_max):
        y = sy(yv)
        write(f'<line x1="{_ML - 4}" y1="{y:.1f}" x2="{_ML}" y2="{y:.1f}" stroke="#333"/>\n')
        write(f'<text x="{_ML - 8}" y="{y + 4:.1f}" text-anchor="end">{yv}</text>\n')
    write(f'<text x="{_ML + plot_w / 2:.0f}" y="{_SVG_H - 8}" text-anchor="middle">instructions</text>\n')
    write(f'<text x="14" y="{_MT + plot_h / 2:.0f}" text-anchor="middle" '
          f'transform="rotate(-90 14 {_MT + plot_h / 2:.0f})">pages</text>\n')
    if samples:
        # a move to the first sample, then one H...V step per sample
        path_end = '" fill="none" stroke="{}" stroke-width="1.5"/>\n'.format
        x = f"{sx(samples[0].t):.1f}"
        write(f'<path d="M{x},{sy(samples[0].wss_insn):.1f}')
        data = [f'<path d="M{x},{sy(samples[0].wss_data):.1f}']
        for start in range(1, len(samples), _SERIES_CHUNK):
            chunk = samples[start:start + _SERIES_CHUNK]
            xs = [f"H{sx(s.t):.1f}V" for s in chunk]
            write("".join([f"{x}{sy(s.wss_insn):.1f}" for x, s in zip(xs, chunk)]))
            data.append("".join([f"{x}{sy(s.wss_data):.1f}" for x, s in zip(xs, chunk)]))
        write(path_end(_COLORS[Stream.INSN]))
        data.append(path_end(_COLORS[Stream.DATA]))
        for part in data:
            write(part)
    # legend
    for i, (stream, label) in enumerate(((Stream.INSN, "insn"), (Stream.DATA, "data"))):
        lx = _ML + plot_w - 120 + i * 64
        write(f'<line x1="{lx}" y1="{_MT + 10}" x2="{lx + 18}" y2="{_MT + 10}" '
              f'stroke="{_COLORS[stream]}" stroke-width="2"/>\n')
        write(f'<text x="{lx + 22}" y="{_MT + 14}">{label}</text>\n')
    # peak markers, labeled with the annotation index
    for ann in result.annotations:
        wss = at_peak.get(ann.t)
        if wss is None:
            continue
        value = wss[0] if ann.stream is Stream.INSN else wss[1]
        x, y = sx(ann.t), sy(value)
        color = _COLORS[ann.stream]
        write(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="3.5" fill="none" stroke="{color}"/>\n')
        write(f'<text x="{x:.1f}" y="{y - 8:.1f}" text-anchor="middle" fill="{color}">'
              f"[{ann.index}]</text>\n")
    write("</svg>\n")


_EMITTERS = {"text": emit_text, "csv": emit_csv, "json": emit_json, "svg": emit_svg}
FORMATS = tuple(_EMITTERS)
