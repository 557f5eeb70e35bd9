"""Tests for the benchmark itself. Run from the repository root:

    PYTHONPATH=src python -m pytest -q bench

They pin the generators to their seeds, check the reference against
the brute-force recount in tests/oracles.py, and run the harness once
per mode to check what it prints.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from check import check_output
from inputs import pageramp_lines, random_scan_lines, threads_peaks_lines
from reference import peak_flags, wss_reference
from run import END_TO_END, PER_LAYER, WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))

from oracles import expand_accesses, make_random_events, slow_wss_series  # noqa: E402
from workset import (  # noqa: E402
    AnalysisConfig,
    PagerampConfig,
    detect_series,
    gen_pageramp,
    read_trace,
    run_analysis,
    write_trace,
)


def _digest(lines) -> str:
    return hashlib.sha256("".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = WORKLOADS[name].lines
    first = _digest(make(7, 1))
    assert _digest(make(7, 1)) == first
    assert _digest(make(8, 1)) != first


def test_quarter_input_is_a_prefix_of_the_full_input():
    for name in ("ramp-tile", "random-scan", "threads-peaks"):
        make = WORKLOADS[name].lines
        quarter = "".join(make(3, 1))
        assert "".join(make(3, 4)).startswith(quarter)


def _tiny_traces():
    yield "ramp", "".join(pageramp_lines(8, 2, 2, 1, 3, 0x1000_0000))
    yield "scan", "".join(random_scan_lines(5, insns=300, data_pages=40))
    yield "threads", "".join(threads_peaks_lines(5, quanta=12))
    rng = random.Random(11)
    events = make_random_events(rng, 400, threads=(0, 1, 3), straddle=True)
    sink = io.StringIO()
    write_trace(events, sink)
    yield "random", sink.getvalue()


@pytest.mark.parametrize("tau,every", [(1, 1), (7, 3), (50, 50), (64, 5), (500, 40)])
def test_reference_matches_oracle_recount(tau, every):
    for label, text in _tiny_traces():
        events = list(read_trace(io.StringIO(text)))
        scopes, stats = wss_reference(io.StringIO(text), tau, every, per_thread=True)
        want = [list(x) for x in slow_wss_series(events, tau, every, 4096)]
        assert scopes["all"]["series"] == want, label
        insn, data, final = expand_accesses(events, 4096)
        assert stats["instructions"] == final
        assert scopes["all"]["total"] == [len({p for _, p in insn}), len({p for _, p in data})]
        for tid in {e.thread for e in events if hasattr(e, "thread")}:
            got = scopes[str(tid)]["series"]
            full = [list(x) for x in slow_wss_series(events, tau, every, 4096, thread=tid)]
            # a thread's series starts at its first sample; the recount covers all
            assert got == full[len(full) - len(got):], (label, tid)


def test_reference_peaks_match_the_detector():
    rng = random.Random(3)
    for _ in range(50):
        values = [rng.choice((5, 6, 7, 40, 200)) for _ in range(rng.randrange(1, 80))]
        assert peak_flags(values) == [v.is_peak for v in detect_series(values)]


def test_threads_peaks_fires_peaks():
    wl = WORKLOADS["threads-peaks"]
    text = "".join(wl.lines(1, 1))
    cfg = AnalysisConfig(tau=wl.tau, every=wl.every, per_thread=True, peak_detect=True)
    result = run_analysis(read_trace(io.StringIO(text)), cfg)
    assert any(s.peak_data for s in result.samples)
    assert all(any(s.peak_data for s in t.samples) for t in result.threads.values())
    scopes, _ = wss_reference(io.StringIO(text), wl.tau, wl.every, per_thread=True)
    assert any(peak_flags([s[2] for s in scopes["all"]["series"]]))


def test_ramp_lib_reference_text_is_what_the_generator_yields():
    cfg = dict(max_pages=16, stride=2, cycles=2, pages_per_step=3, insns_per_step=5,
               base_address=0x3000_0000)
    sink = io.StringIO()
    write_trace(gen_pageramp(PagerampConfig(**cfg)), sink)
    assert "".join(pageramp_lines(**cfg)) == sink.getvalue()


def test_check_rejects_a_wrong_series():
    text = "".join(pageramp_lines(8, 2, 2, 1, 3, 0x1000_0000))
    scopes, _ = wss_reference(io.StringIO(text), 6, 6)
    rows = ["t,WSS_insn,WSS_data,peak_insn,peak_data,annotation"]
    rows += [f"{t},{i},{d},0,0," for t, i, d in scopes["all"]["series"]]
    assert check_output("csv", "\n".join(rows) + "\n", scopes, False) is None
    rows[3] = rows[3].replace(",0,0,", ",1,0,")
    assert check_output("csv", "\n".join(rows) + "\n", scopes, False) is not None
    assert check_output("json", "{}", scopes, False) is not None


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace,names", [(0, END_TO_END), (1, PER_LAYER)])
def test_printed_metrics_match(trace, names):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "threads-peaks", "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace:
        assert result["metrics"]["peak.peaks"]["value"] > 0


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "ramp-tile", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
