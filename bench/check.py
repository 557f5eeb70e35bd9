"""Compare one run's output with the reference results.

Each checker returns None when the output matches, else a one-line
reason. The CSV and JSON shapes are the ones docs/result-schema.md
fixes; the library digest is what lib_child.py prints.
"""

from __future__ import annotations

import json

from reference import peak_flags

CSV_HEADER = "t,WSS_insn,WSS_data,peak_insn,peak_data,annotation"


def check_output(fmt: str, text: str, scopes: dict, peak_detect: bool) -> str | None:
    try:
        if fmt == "csv":
            return _check_csv(text, scopes["all"])
        if fmt == "json":
            return _check_json(text, scopes, peak_detect)
        return _check_digest(json.loads(text), scopes["all"])
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"[:200]


def _check_csv(text: str, want: dict) -> str | None:
    rows = text.splitlines()
    if not rows or rows[0] != CSV_HEADER:
        return "missing CSV header"
    series = want["series"]
    if len(rows) - 1 != len(series):
        return f"{len(rows) - 1} CSV rows, want {len(series)}"
    for row, (t, wi, wd) in zip(rows[1:], series):
        if row != f"{t},{wi},{wd},0,0,":
            return f"CSV row {row!r}, want t={t} insn={wi} data={wd}"
    return None


def _check_digest(got: dict, want: dict) -> str | None:
    for key in ("series", "total", "peak"):
        if got[key] != want[key]:
            return f"{key} differs from the reference"
    return None


def _check_json(text: str, scopes: dict, peak_detect: bool) -> str | None:
    doc = json.loads(text)
    reason = _check_scope(doc, scopes["all"], peak_detect)
    if reason:
        return f"combined: {reason}"
    threads = doc["threads"]
    want_tids = sorted(k for k in scopes if k != "all")
    if not want_tids:
        return None if not threads else "unexpected per-thread results"
    if threads is None or sorted(threads) != want_tids:
        return f"threads {None if threads is None else sorted(threads)}, want {want_tids}"
    for tid in want_tids:
        reason = _check_scope(threads[tid], scopes[tid], peak_detect)
        if reason:
            return f"thread {tid}: {reason}"
    return None


def _check_scope(doc: dict, want: dict, peak_detect: bool) -> str | None:
    samples = doc["samples"]
    got = [[s["t"], s["wss_insn"], s["wss_data"]] for s in samples]
    if got != want["series"]:
        return "sampled series differs from the reference"
    for i, stream in enumerate(("insn", "data")):
        summary = doc[stream]["summary"]
        if [summary["peak_pages"], summary["total_pages"]] != [want["peak"][i], want["total"][i]]:
            return f"{stream} peak_pages/total_pages differ from the reference"
    if peak_detect:
        flags_i = peak_flags([s[1] for s in got])
        flags_d = peak_flags([s[2] for s in got])
    else:
        flags_i = flags_d = [False] * len(got)
    fired = 0
    for s, pi, pd in zip(samples, flags_i, flags_d):
        if s["peak_insn"] != pi or s["peak_data"] != pd:
            return f"peak verdict at t={s['t']} differs from the reference"
        if (s["annotation"] is not None) != (pi or pd):
            return f"annotation at t={s['t']} does not match its peak flags"
        fired += pi + pd
    if len(doc["annotations"]) != fired:
        return f"{len(doc['annotations'])} annotations for {fired} peaks"
    return None
