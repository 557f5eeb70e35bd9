"""Acceptance gate. One test per criterion, named so the -v line reads
as the verdict; each also prints a [Cn PASS/FAIL] line with the
measured numbers. Everything is checked against the independent
oracles in oracles.py, never against the engine's own arithmetic.
"""

import io
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

from oracles import expand_accesses, fast_wss_series, make_random_events, reference_peak_series
import workset
from workset.engine import AnalysisConfig, run_analysis
from workset.peak import detect_series
from workset.report import emit_text, emit_json
from workset.trace import CallStackDecl, StackActivation, read_trace, write_trace
from workset.workloads import PagerampConfig, gen_pageramp

PAGE = 4096


def verdict(tag: str, ok: bool, detail: str) -> None:
    # bypass capture: the per-criterion verdict should reach the console
    # (and any tee'd log) even when the test passes
    print(f"[{tag} {'PASS' if ok else 'FAIL'}] {detail}", file=sys.__stdout__)


# --------------------------------------------------------------------------
# C1: sampled series identical to a from-scratch recount


def test_c1_engine_matches_recount_oracle_on_randomized_traces():
    t0 = time.perf_counter()
    mismatches = 0
    for seed in range(100):
        rng = random.Random(1000 + seed)
        n = int(10 ** rng.uniform(2, 5))  # 100 .. 100_000 events
        while True:
            tau = int(10 ** rng.uniform(0, 4))
            every = int(10 ** rng.uniform(0, 4))
            # keep the brute-force recount affordable; the engine itself
            # has no problem with any of these draws
            est_insns = max(1, n // 2)
            n_samples = est_insns // every
            if n_samples <= 20_000 and n_samples * min(tau, est_insns) <= 2_000_000:
                break
        events = make_random_events(
            rng,
            n,
            insn_pages=rng.choice((4, 16, 64)),
            data_pages=rng.choice((16, 64, 512)),
            threads=(0,) if seed % 2 else (0, 1, 2),
            straddle=seed % 3 == 0,
        )
        got = [
            (s.t, s.wss_insn, s.wss_data)
            for s in run_analysis(events, AnalysisConfig(tau=tau, every=every)).samples
        ]
        if got != fast_wss_series(events, tau, every, PAGE):
            mismatches += 1
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0
    verdict("C1", ok, f"{100 - mismatches}/100 randomized traces exact ({elapsed:.1f}s)")
    assert ok, f"{mismatches} traces disagreed with the recount oracle"


# --------------------------------------------------------------------------
# C2: sawtooth workload shows its plateaus and releases


def plateau_runs(series, level):
    runs = []
    start = None
    for i, v in enumerate(series):
        if v == level and start is None:
            start = i
        elif v != level and start is not None:
            runs.append((start, i))
            start = None
    if start is not None:
        runs.append((start, len(series)))
    return runs


def test_c2_pageramp_plateaus_at_512_and_drops_below_16():
    cfg = PagerampConfig()  # 1024 pages, stride 2, 10 cycles
    tau = cfg.touch_pass_insns
    t0 = time.perf_counter()
    res = run_analysis(gen_pageramp(cfg), AnalysisConfig(tau=tau, every=tau))
    elapsed = time.perf_counter() - t0
    series = [s.wss_data for s in res.samples]
    top = max(series)
    runs = plateau_runs(series, 512)
    gap_minima = [
        min(series[runs[i][1]:runs[i + 1][0]]) for i in range(len(runs) - 1)
    ]
    ok = (
        top == 512
        and len(runs) == cfg.cycles
        and all(m < 16 for m in gap_minima)
        and elapsed < 30.0
    )
    verdict(
        "C2",
        ok,
        f"max={top}, plateau runs={len(runs)}, worst inter-run min="
        f"{max(gap_minima) if gap_minima else 'n/a'}, analyze={elapsed:.1f}s (tau={tau})",
    )
    assert top == 512
    assert len(runs) == cfg.cycles
    assert all(m < 16 for m in gap_minima), gap_minima
    assert elapsed < 30.0


# --------------------------------------------------------------------------
# C3: widening the window never shrinks any sample


def test_c3_window_monotonicity_across_three_decades():
    events = make_random_events(
        random.Random(33), 200_000, insn_pages=32, data_pages=1024
    )
    every = 1000
    taus = (1_000, 10_000, 100_000)
    series = {
        tau: run_analysis(events, AnalysisConfig(tau=tau, every=every)).samples
        for tau in taus
    }
    violations = 0
    checked = 0
    for lo, hi in zip(taus, taus[1:]):
        assert [s.t for s in series[lo]] == [s.t for s in series[hi]]
        for a, b in zip(series[lo], series[hi]):
            checked += 1
            if a.wss_insn > b.wss_insn or a.wss_data > b.wss_data:
                violations += 1
    minima = [min(s.wss_data for s in series[tau]) for tau in taus]
    monotone_minima = all(a <= b for a, b in zip(minima, minima[1:]))
    ok = violations == 0 and monotone_minima
    verdict(
        "C3",
        ok,
        f"0 violations required: got {violations} over {checked} sample pairs; "
        f"series minima {minima}",
    )
    assert ok


# --------------------------------------------------------------------------
# C4: peak detector bit-equal to the scalar reference


def random_walk(seed, n=1000):
    rng = random.Random(seed)
    x = 50.0
    out = []
    for _ in range(n):
        x = max(1.0, x + rng.uniform(-4, 4) + (40 if rng.random() < 0.01 else 0))
        out.append(x)
    return out


def close(a, b, rel=1e-12):
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def test_c4_peak_detector_matches_reference_recurrences():
    vectors = {
        "constant": [7.0] * 50,
        "step": [10.0] * 20 + [60.0] + [10.0] * 20,
        "walk": random_walk(2024),
    }
    bad = []
    for name, values in vectors.items():
        got = detect_series(values)
        want = reference_peak_series(values)
        for i, (g, w) in enumerate(zip(got, want)):
            flags_equal = g.is_peak == w[0]
            stats_equal = (
                close(g.distance, w[1])
                and close(g.threshold, w[2])
                and close(g.dispersion, w[3])
            )
            if not (flags_equal and stats_equal):
                bad.append((name, i))
    ok = not bad
    verdict(
        "C4",
        ok,
        f"flags exact + stats within 1e-12 on {len(vectors)} vectors "
        f"({sum(len(v) for v in vectors.values())} samples)",
    )
    assert ok, bad[:5]


# --------------------------------------------------------------------------
# C5: reported text is internally consistent with the raw trace

SUMMARY_RE = re.compile(
    r"^(Insn|Data) avg/peak/total: ([\d.]+)/(\d+)/(\d+) pages "
    r"\((\d+)/([\d.]+)/([\d.]+) kB\)$"
)
HOT_ROW_RE = re.compile(r"^\s*(\d+)\s+0x[0-9a-f]+\s")


def test_c5_text_report_consistent_with_trace_contents():
    events = make_random_events(
        random.Random(77), 50_000, data_pages=128, threads=(0, 1), straddle=True
    )
    cfg = AnalysisConfig(tau=500, every=250, top_n=10**9)
    res = run_analysis(events, cfg)
    buf = io.StringIO()
    emit_text(res, buf)
    lines = buf.getvalue().splitlines()

    summaries = [m for m in map(SUMMARY_RE.match, lines[:2]) if m]
    assert len(summaries) == 2, lines[:2]
    problems = []
    for m in summaries:
        avg_pages, peak_pages, total_pages = float(m[2]), int(m[3]), int(m[4])
        avg_kb, peak_kb, total_kb = int(m[5]), float(m[6]), float(m[7])
        if peak_kb != peak_pages * 4 or total_kb != total_pages * 4:
            problems.append(f"{m[1]}: kB columns not 4x pages")
        if abs(avg_kb - avg_pages * 4) > 0.5 + 1e-9:  # printed rounded
            problems.append(f"{m[1]}: avg kB off")

    # hot page counts must add up to every page touch in the raw trace
    insn_pairs, data_pairs, final = expand_accesses(events, PAGE)
    section = None
    sums = {"Insn": 0, "Data": 0}
    for line in lines:
        if line.startswith("Insn pages"):
            section = "Insn"
        elif line.startswith("Data pages"):
            section = "Data"
        m = HOT_ROW_RE.match(line)
        if section and m:
            sums[section] += int(m[1])
    if sums["Insn"] != len(insn_pairs):
        problems.append(f"insn counts {sums['Insn']} != {len(insn_pairs)}")
    if sums["Data"] != len(data_pairs):
        problems.append(f"data counts {sums['Data']} != {len(data_pairs)}")
    if len(res.samples) != final // cfg.every:
        problems.append("sample count disagrees with instruction count")

    ok = not problems
    verdict(
        "C5",
        ok,
        f"kB scaling + hot-page totals verified against raw trace "
        f"({len(insn_pairs):,} insn / {len(data_pairs):,} data touches)",
    )
    assert ok, problems


# --------------------------------------------------------------------------
# C6: serialization round trips, 1000x each


def decorated_records(rng, n):
    records = [
        CallStackDecl(0, ("gen.c:12", "gen.c:90")),
        CallStackDecl(1, ("lib.c:3",)),
    ]
    threads = (0, 1) if rng.random() < 0.5 else (0,)
    events = make_random_events(rng, n, threads=threads, straddle=True)
    switch = {t: rng.randrange(0, 20) for t in threads}
    seen = defaultdict(int)
    for ev in events:
        i = seen[ev.thread]
        seen[ev.thread] += 1
        if i >= switch[ev.thread]:
            records.append(StackActivation(ev.thread, rng.choice((0, 1))))
        records.append(ev)
    return records


def test_c6_trace_and_json_round_trips():
    t0 = time.perf_counter()
    trace_bad = 0
    for seed in range(1000):
        rng = random.Random(seed)
        records = decorated_records(rng, rng.randrange(0, 60))
        buf = io.StringIO()
        write_trace(records, buf)
        back = list(read_trace(io.StringIO(buf.getvalue())))
        if back != records:
            trace_bad += 1

    json_bad = 0
    for seed in range(1000):
        rng = random.Random(10_000 + seed)
        records = decorated_records(rng, 150)
        cfg = AnalysisConfig(
            tau=1 + seed % 37,
            every=1 + seed % 11,
            peak_detect=bool(seed & 1),
            per_thread=bool(seed & 2),
            top_n=seed % 5,
        )
        res = run_analysis(records, cfg)
        buf = io.StringIO()
        emit_json(res, buf)
        if json.loads(buf.getvalue()) != res.to_dict():
            json_bad += 1
    elapsed = time.perf_counter() - t0
    ok = trace_bad == 0 and json_bad == 0
    verdict(
        "C6",
        ok,
        f"1000/1000 trace and {1000 - json_bad}/1000 result round trips exact "
        f"({elapsed:.1f}s)",
    )
    assert ok, (trace_bad, json_bad)


# --------------------------------------------------------------------------
# C7: full pipeline at scale


# The analysis runs in a grandchild of this process. On Linux, exec carries
# the peak RSS of the address space it replaces into the new program's
# ru_maxrss, so a child of the test process would report at least the
# test process's own high-water mark. A small intermediate process
# spawns the analysis and reports the rusage wait4 gives for it alone.
_C7_SPAWNER = """
import json, os, sys
pid = os.posix_spawn(sys.executable, [sys.executable, "-c", *sys.argv[1:]], os.environ)
_, status, usage = os.wait4(pid, 0)
print(json.dumps({"code": os.waitstatus_to_exitcode(status), "rss_mb": usage.ru_maxrss / 1024}))
"""
_C7_ANALYSIS = """
import json, sys, time
from workset.engine import AnalysisConfig, run_analysis
lines = 0
def counting(stream):
    global lines
    for line in stream:
        lines += 1
        yield line
tau = int(sys.argv[2])
t0 = time.perf_counter()
with open(sys.argv[1]) as f:
    res = run_analysis(counting(f), AnalysisConfig(tau=tau, every=tau))
elapsed = time.perf_counter() - t0
print(json.dumps({"lines": lines, "elapsed": elapsed, "samples": len(res.samples)}))
"""


def test_c7_ten_million_events_within_time_and_memory(tmp_path):
    cfg = PagerampConfig()
    path = tmp_path / "big.trace"
    with open(path, "w") as f:
        write_trace(gen_pageramp(cfg), f)

    src = Path(workset.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _C7_SPAWNER, _C7_ANALYSIS, str(path), str(cfg.touch_pass_insns)],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(src)},
    )
    path.unlink()
    assert proc.returncode == 0, proc.stderr
    run = {}
    for line in proc.stdout.splitlines():
        run.update(json.loads(line))
    assert run["code"] == 0, proc.stderr
    lines, elapsed, rss_mb = run["lines"], run["elapsed"], run["rss_mb"]

    ok = lines >= 10_000_000 and elapsed < 30.0 and rss_mb < 512
    verdict(
        "C7",
        ok,
        f"{lines:,} trace lines parsed+analyzed in {elapsed:.1f}s "
        f"(budget 30s), peak RSS {rss_mb:.0f} MB (budget 512 MB), "
        f"{run['samples']} samples",
    )
    assert lines >= 10_000_000
    assert elapsed < 30.0, f"{elapsed:.1f}s"
    assert rss_mb < 512, f"{rss_mb:.0f} MB"
