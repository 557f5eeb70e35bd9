"""Independent reference results for the benchmark's output check.

Written without the package: it parses the trace text itself, assigns
the instruction clock, and turns every access into the range of sample
indices whose window contains it. An access at time ts lies in the
window (t - tau, t] of every sample t = k * every with
ts <= t <= ts + tau - 1. Each page's ranges are merged as the trace is
read (times never decrease, so a new range either extends the last one
or starts after it) and applied as a difference array over the sample
indices, which gives every sampled working set size in one pass.

The peak reference transliterates the detector recurrences documented
in the package, in the same operation order, so verdicts match bit for
bit. Results are cached per input sha256 and analysis parameters.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from pathlib import Path
from typing import Iterable

EVENT_TAGS = ("I", "L", "S", "M")


class _Stream:
    """Merged sample-index ranges per page for one stream of one scope."""

    __slots__ = ("lo", "hi", "closed")

    def __init__(self) -> None:
        self.lo: dict[int, int] = {}
        self.hi: dict[int, int] = {}
        self.closed: list[tuple[int, int]] = []

    def add(self, page: int, lo: int, hi: int) -> None:
        cur_hi = self.hi.get(page)
        if cur_hi is None:
            self.lo[page] = lo
        elif lo > cur_hi + 1:
            self.closed.append((self.lo[page], cur_hi))
            self.lo[page] = lo
        self.hi[page] = hi

    def series(self, k_max: int) -> list[int]:
        diff = [0] * (k_max + 2)
        ranges = self.closed + [(lo, self.hi[p]) for p, lo in self.lo.items()]
        for lo, hi in ranges:
            lo = max(lo, 1)
            hi = min(hi, k_max)
            if lo <= hi:
                diff[lo] += 1
                diff[hi + 1] -= 1
        out = []
        live = 0
        for k in range(1, k_max + 1):
            live += diff[k]
            out.append(live)
        return out


def wss_reference(
    lines: Iterable[str],
    tau: int,
    every: int,
    per_thread: bool = False,
    page_size: int = 4096,
) -> tuple[dict, dict]:
    """Return (scopes, stats) for a trace.

    scopes maps "all" (and, with per_thread, each thread id as a
    string) to {"series": [[t, wss_insn, wss_data], ...],
    "total": [insn, data], "peak": [insn, data]}. A thread's series
    starts at the first sample at or after its first event, as the
    engine creates a thread's scope on that event. stats describes the
    input: lines, records by tag ("#" for comments and blank lines),
    distinct pages, the share of event lines whose text is distinct,
    and the instruction count.
    """
    shift = page_size.bit_length() - 1
    all_insn, all_data = _Stream(), _Stream()
    scopes: dict[str, tuple[_Stream, _Stream]] = {"all": (all_insn, all_data)}
    first_ts: dict[str, int] = {"all": 0}
    by_tag = {tag: 0 for tag in ("I", "L", "S", "M", "C", "U", "#")}
    # traces repeat lines heavily; each distinct text is parsed once
    memo: dict[str, tuple] = {}
    nlines = 0
    now = 0
    lo, hi = 0, (tau - 1) // every
    for raw in lines:
        nlines += 1
        rec = memo.get(raw)
        if rec is None:
            rec = memo[raw] = _parse(raw, shift)
        by_tag[rec[0]] += 1
        if len(rec) == 1:
            continue
        tag, first, last, tid = rec
        is_fetch = tag == "I"
        if is_fetch:
            now += 1
            lo = -(-now // every)
            hi = (now + tau - 1) // every
        stream = all_insn if is_fetch else all_data
        for page in range(first, last + 1):
            stream.add(page, lo, hi)
        if per_thread:
            scope = scopes.get(tid)
            if scope is None:
                scope = scopes[tid] = (_Stream(), _Stream())
                first_ts[tid] = now
            stream = scope[0] if is_fetch else scope[1]
            for page in range(first, last + 1):
                stream.add(page, lo, hi)
    k_max = now // every
    out = {}
    for key, (insn, data) in scopes.items():
        k0 = max(1, -(-first_ts[key] // every))
        wi = insn.series(k_max)[k0 - 1 :]
        wd = data.series(k_max)[k0 - 1 :]
        out[key] = {
            "series": [[k * every, i, d] for k, i, d in zip(range(k0, k_max + 1), wi, wd)],
            "total": [len(insn.lo), len(data.lo)],
            "peak": [max(wi, default=0), max(wd, default=0)],
        }
    events = sum(by_tag[t] for t in EVENT_TAGS)
    stats = {
        "lines": nlines,
        "records_by_kind": by_tag,
        "event_records": events,
        "instructions": now,
        "distinct_pages": len(all_insn.lo) + len(all_data.lo),
        "distinct_line_ratio": (
            sum(1 for rec in memo.values() if len(rec) > 1) / events if events else 0.0
        ),
    }
    return out, stats


def _parse(raw: str, shift: int) -> tuple:
    """(tag, first page, last page, thread) for an event line; (key,) for
    any other line, "#" standing for comments and blank lines."""
    parts = raw.split()
    if not parts or parts[0][0] == "#":
        return ("#",)
    tag = parts[0]
    if tag not in EVENT_TAGS:
        return (tag,)
    addr_s, _, size_s = parts[1].partition(",")
    address = int(addr_s, 16)
    tid = parts[2][1:] if len(parts) == 3 else "0"
    return (tag, address >> shift, (address + int(size_s) - 1) >> shift, tid)


def peak_flags(values: list[int], alpha=0.3, phi=0.2, g=1.0, eps=1e-9) -> list[bool]:
    """Peak verdict per sample, by the detector's recurrences."""
    out = []
    mean = var = 0.0
    for i, x in enumerate(values):
        if i == 0:
            mean, var = float(x), 0.0
            out.append(False)
            continue
        distance = abs(x - mean)
        dispersion = var / mean if mean > eps else 0.0
        c = 1.0 - math.exp(-dispersion / 2.0)
        threshold = c * g * var + (1.0 - c) * g * mean
        is_peak = distance > threshold
        value = phi * x + (1.0 - phi) * mean if is_peak else float(x)
        prev = mean
        mean = alpha * value + (1.0 - alpha) * prev
        var = alpha * (value - prev) ** 2 + (1.0 - alpha) * var
        out.append(is_peak)
    return out


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def cached_reference(
    path: Path, cache_dir: Path, tau: int, every: int, per_thread: bool
) -> dict:
    """The reference for the trace at ``path``, computed once per input
    sha256 and parameter set. Returns {"scopes", "stats"}; stats gains
    the sha256."""
    digest = sha256_file(path)
    cache = cache_dir / f"{digest}-tau{tau}-every{every}-pt{int(per_thread)}.json"
    if cache.exists():
        with open(cache, encoding="utf-8") as f:
            return json.load(f)
    with open(path, encoding="utf-8") as f:
        scopes, stats = wss_reference(f, tau, every, per_thread)
    stats["sha256"] = digest
    ref = {"scopes": scopes, "stats": stats}
    cache_dir.mkdir(parents=True, exist_ok=True)
    tmp = cache.with_suffix(".tmp")
    with open(tmp, "w", encoding="utf-8") as f:
        json.dump(ref, f)
    os.replace(tmp, cache)
    return ref
