"""The workset benchmark: end-to-end and per-layer numbers per workload.

Usage, from the repository root:

    python3 bench/run.py --workload ramp-tile --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Each workload's input is made from the seed by bench/inputs.py, never
by the package. Every run of the program is its own child process, one
at a time, so ru_maxrss and CPU time are that run's own. Each output is
checked against an independent reference (bench/reference.py); a run
that exits nonzero or disagrees counts as failed.

With --trace 0 the runs made in --seconds alternate with set-up runs
and with a fixed reference loop (bench/calib.py), all pinned to one
CPU. The times reported are scaled to the loop's reference speed: the
mean time of the runs x REFERENCE_S / the mean time of the loop over
the same stretch. A shared virtual machine can change speed by 2x
within minutes; the scaling cancels that, and a change in the program
still moves the scaled times in full. Raw medians are printed as
comments and kept in the results file.

With --trace 1 a separate child (bench/probe.py) times each layer
through the package's public calls, and the per-layer metrics are
printed instead. The last line of stdout is one JSON object: correct,
attempted, failed and metrics. Inputs, reference caches, spans and
full results go to .bench_data/ in the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

from calib import REFERENCE_S, reference_loop
from check import check_output
from inputs import pageramp_lines, random_scan_lines, seeded_base, threads_peaks_lines
from reference import cached_reference, wss_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DATA = ROOT / ".bench_data"

# the end-to-end loop always makes at least this many timed runs
MIN_RUNS = 5
# a run must end within this long, even if a child hangs
HARD_LIMIT_S = 150.0

END_TO_END = {
    "wall_s": "s",
    "events_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "pass_rate": "ratio",
}
PER_LAYER = {
    "trace.read_s": "s",
    "trace.ns_per_record": "ns",
    "trace.records": "count",
    "workloads.gen_s": "s",
    "engine.ingest_s": "s",
    "engine.sample_s": "s",
    "engine.us_per_sample": "us",
    "engine.samples": "count",
    "engine.pages": "count",
    "peak.detect_s": "s",
    "peak.peaks": "count",
    "peak.annotations": "count",
    "report.emit_s": "s",
    "report.output_bytes": "bytes",
    "cli.overhead_s": "s",
    "cli.rss_growth_mb": "MB",
    "spans.coverage": "ratio",
}

@dataclass(frozen=True)
class Workload:
    """One benchmark workload. ``lines(seed, quarters)`` makes its trace
    text; quarters=4 is the measured input and quarters=1 its first
    quarter, which cli.rss_growth_mb compares it with. ``flags`` are the
    analyze flags; a workload without flags runs the library path.
    Without ``make``, the input is the pageramp sawtooth with
    ``ramp_step`` pages per step."""

    tau: int
    every: int
    per_thread: bool
    peak_detect: bool
    fmt: str
    flags: tuple[str, ...]
    make: Callable[[int, int], Iterator[str]] | None = None
    ramp_step: int = 0

    def analysis(self) -> dict:
        return {"tau": self.tau, "every": self.every, "per_thread": self.per_thread,
                "peak_detect": self.peak_detect}

    def ramp(self, seed: int, quarters: int) -> dict:
        """PagerampConfig fields of the sawtooth: 1024 pages, every other
        one touched, one cycle per quarter."""
        return {"max_pages": 1024, "stride": 2, "cycles": quarters,
                "pages_per_step": self.ramp_step, "insns_per_step": 16,
                "base_address": seeded_base(seed)}

    def lines(self, seed: int, quarters: int) -> Iterator[str]:
        if self.make is not None:
            return self.make(seed, quarters)
        return pageramp_lines(**self.ramp(seed, quarters))


WORKLOADS = {
    "ramp-tile": Workload(
        528, 528, False, False, "csv", ("--tau", "528", "--format", "csv"), ramp_step=4),
    "random-scan": Workload(
        5000, 50, False, False, "csv",
        ("--tau", "5000", "--every", "50", "--format", "csv"),
        lambda seed, q: random_scan_lines(seed, insns=15_000 * q, data_pages=120_000)),
    "threads-peaks": Workload(
        2000, 50, True, True, "json",
        ("--tau", "2000", "--every", "50", "--per-thread", "--peak-detect",
         "--format", "json"),
        lambda seed, q: threads_peaks_lines(seed, quanta=250 * q)),
    "ramp-lib": Workload(528, 16, False, False, "lib", (), ramp_step=8),
}


@dataclass
class Run:
    wall: float
    cpu: float
    rss_mb: float
    error: str | None
    output: str


class Bench:
    """State of one benchmark run: its workload, seed, deadline and the
    tally of child runs attempted and failed."""

    def __init__(self, name: str, seed: int):
        self.name = name
        self.wl = WORKLOADS[name]
        self.seed = seed
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.work = DATA / "work"
        self.work.mkdir(parents=True, exist_ok=True)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])
        # The vCPUs of a shared virtual machine change speed independently,
        # so the reference loop tells the runs' speed only on their CPU.
        # Children inherit the affinity through the launcher.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        self.launcher = subprocess.Popen(
            [sys.executable, str(BENCH / "launcher.py")], cwd=ROOT, text=True,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def time_left(self) -> float:
        return HARD_LIMIT_S - (time.perf_counter() - self.started)

    # -- inputs and reference ------------------------------------------------

    def prepare(self, quarters: int) -> tuple[Path, dict]:
        """Write the seeded trace (reused when seed and size match) and
        return it with its reference."""
        path = self.work / f"{self.name}-q{quarters}.trace"
        stamp = path.with_suffix(".seed")
        tag = f"{self.seed} {quarters}"
        if not (path.exists() and stamp.exists() and stamp.read_text() == tag):
            stamp.unlink(missing_ok=True)
            with open(path, "w", encoding="utf-8") as f:
                f.writelines(self.wl.lines(self.seed, quarters))
            stamp.write_text(tag)
        wl = self.wl
        ref = cached_reference(path, DATA / "ref", wl.tau, wl.every, wl.per_thread)
        return path, ref

    def command(self, path: Path | None, quarters: int) -> list[str]:
        if self.wl.flags:
            return [sys.executable, "-m", "workset.cli", "analyze", str(path), *self.wl.flags]
        args = {"ramp": self.wl.ramp(self.seed, quarters), "analysis": self.wl.analysis()}
        return [sys.executable, str(BENCH / "lib_child.py"), json.dumps(args)]

    # -- child processes -----------------------------------------------------

    def spawn(self, cmd: list[str]) -> Run:
        """Run one child to completion through the launcher: wall time from
        spawn to exit, CPU time and peak RSS from the child's own rusage."""
        out_path = self.work / "stdout.txt"
        err_path = self.work / "stderr.txt"
        request = {"cmd": cmd, "env": self.env, "stdout": str(out_path),
                   "stderr": str(err_path), "timeout": max(1.0, self.time_left())}
        self.launcher.stdin.write(json.dumps(request) + "\n")
        self.launcher.stdin.flush()
        reply = json.loads(self.launcher.stdout.readline())
        error = None
        if reply["code"] != 0:
            tail = err_path.read_text(errors="replace").strip().splitlines()[-1:]
            error = f"exit {reply['code']}: {' '.join(tail)}"[:300]
        return Run(reply["wall"], reply["cpu"], reply["rss_mb"], error,
                   out_path.read_text(encoding="utf-8", errors="replace"))

    def close(self) -> None:
        self.launcher.stdin.close()
        self.launcher.wait()

    def checked(self, cmd: list[str], ref: dict | None) -> Run:
        """spawn(), then count the run and check its output against ref
        (None: only the exit code is checked)."""
        run = self.spawn(cmd)
        self.attempted += 1
        if run.error is None and ref is not None:
            run.error = check_output(self.wl.fmt, run.output, ref["scopes"],
                                     self.wl.peak_detect)
        if run.error is not None:
            self.failures.append(run.error)
        return run

    # -- the two kinds of run ------------------------------------------------

    def setup_command(self) -> tuple[list[str], dict | None]:
        """The workload's command on an empty trace, or a bare import for
        the library path: the fixed cost a user pays on every call."""
        if not self.wl.flags:
            return [sys.executable, "-c", "import workset"], None
        empty = self.work / "empty.trace"
        empty.write_text("")
        scopes, _ = wss_reference([], self.wl.tau, self.wl.every, self.wl.per_thread)
        return self.command(empty, 4), {"scopes": scopes}

    def end_to_end(self, seconds: float) -> tuple[dict, dict]:
        path, ref = self.prepare(4)
        cmd = self.command(path, 4)
        setup_cmd, setup_ref = self.setup_command()
        # warm-up: bytecode caches and the page cache, which users keep too
        self.checked(setup_cmd, setup_ref)
        self.checked(cmd, ref)
        # set-up runs and the reference loop alternate with the timed
        # runs, so that all three sample the same stretch of machine time
        runs: list[Run] = []
        setups: list[Run] = []
        loops: list[float] = []
        deadline = time.perf_counter() + seconds
        while len(runs) < MIN_RUNS or time.perf_counter() < deadline:
            if self.time_left() < 5.0:
                break
            loops.append(reference_loop())
            runs.append(self.checked(cmd, ref))
            loops.append(reference_loop())
            setups.append(self.checked(setup_cmd, setup_ref))
        scale = REFERENCE_S / statistics.fmean(loops)
        wall = scale * statistics.fmean(r.wall for r in runs)
        metrics = {
            "wall_s": wall,
            "events_per_s": ref["stats"]["event_records"] / wall,
            "cpu_s": scale * statistics.fmean(r.cpu for r in runs),
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
            "setup_s": scale * statistics.fmean(r.wall for r in setups),
            "pass_rate": (self.attempted - len(self.failures)) / self.attempted,
        }
        raw = {"runs": [[r.wall, r.cpu, r.rss_mb] for r in runs],
               "setup_runs": [r.wall for r in setups], "reference_loops": loops,
               "raw_medians": {"wall_s": statistics.median(r.wall for r in runs),
                               "cpu_s": statistics.median(r.cpu for r in runs),
                               "setup_s": statistics.median(r.wall for r in setups),
                               "reference_loop_s": statistics.median(loops)},
               "input": ref["stats"]}
        return metrics, raw

    def per_layer(self, seconds: float) -> tuple[dict, dict]:
        path, ref = self.prepare(4)
        quarter_path, quarter_ref = self.prepare(1)
        deadline = time.perf_counter() + seconds
        cmd = self.command(path, 4)
        self.checked(cmd, ref)  # warm-up
        full = [self.checked(cmd, ref) for _ in range(3)]
        quarter = [self.checked(self.command(quarter_path, 1), quarter_ref) for _ in range(3)]
        probe_args = {
            "input": str(path) if self.wl.flags else None,
            "format": self.wl.fmt if self.wl.flags else None,
            "analysis": self.wl.analysis(),
            "ramp": None if self.wl.flags else self.wl.ramp(self.seed, 4),
            "instructions": ref["stats"]["instructions"],
        }
        probe_cmd = [sys.executable, str(BENCH / "probe.py"), json.dumps(probe_args)]
        probes = []
        while not probes or time.perf_counter() < deadline:
            if self.time_left() < 10.0:
                break
            run = self.checked(probe_cmd, None)
            if run.error is not None:
                continue
            probe = json.loads(run.output)
            error = check_output(self.wl.fmt, probe["output"], ref["scopes"],
                                 self.wl.peak_detect)
            if error is not None:
                self.failures.append(f"probe: {error}")
                continue
            probes.append(probe)
        if not probes:
            return {}, {"input": ref["stats"]}
        layers = [_layer_times(p) for p in probes]
        med = {k: statistics.median(x[k] for x in layers) for k in layers[0]}
        last = probes[-1]
        cli_wall = statistics.median(r.wall for r in full)
        metrics = {
            "trace.read_s": med["read"],
            "trace.ns_per_record": 1e9 * med["read"] / last["records"] if self.wl.flags else 0.0,
            "trace.records": last["records"] if self.wl.flags else 0,
            "workloads.gen_s": med["gen"],
            "engine.ingest_s": med["ingest"],
            "engine.sample_s": med["sample"],
            "engine.us_per_sample": 1e6 * med["sample"] / max(1, last["samples"]),
            "engine.samples": last["samples"],
            "engine.pages": last["pages"],
            "peak.detect_s": med["detect"],
            "peak.peaks": last["peaks"],
            "peak.annotations": last["annotations"],
            "report.emit_s": med["emit"],
            "report.output_bytes": last["output_bytes"],
            "cli.overhead_s": cli_wall - med["inprocess"],
            "cli.rss_growth_mb": (statistics.median(r.rss_mb for r in full)
                                  - statistics.median(r.rss_mb for r in quarter)),
            "spans.coverage": med["coverage"],
        }
        raw = {
            "input": ref["stats"],
            "quarter_input": quarter_ref["stats"],
            "cli_runs": [[r.wall, r.cpu, r.rss_mb] for r in full],
            "quarter_runs": [[r.wall, r.cpu, r.rss_mb] for r in quarter],
            "layers": layers,
            "spans": [p["spans"] for p in probes],
        }
        return metrics, raw


def _layer_times(probe: dict) -> dict:
    """Layer times of one probe; a span name that occurs more than once
    counts with its mean duration."""
    spans: dict[str, list[float]] = {}
    for s in probe["spans"]:
        spans.setdefault(s["name"], []).append(s["end"] - s["start"])
    dur = {name: statistics.fmean(times) for name, times in spans.items()}
    read = dur.get("trace.read", 0.0)
    gen = dur.get("workloads.gen", 0.0)
    emit = dur.get("report.emit", 0.0)
    return {
        "read": read,
        "gen": gen,
        "ingest": dur["engine.nosample"] - read - gen,
        "sample": dur["engine.full"] - dur["engine.nosample"],
        "detect": dur.get("peak.detect", 0.0),
        "emit": emit,
        "inprocess": dur["inprocess.total"],
        "coverage": (dur["engine.full"] + emit) / dur["inprocess.total"],
    }


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg": list(os.getloadavg()),
    }


def run_one(name: str, seed: int, seconds: int, trace: bool) -> int:
    bench = Bench(name, seed)
    env = machine()
    try:
        if trace:
            metrics, raw = bench.per_layer(seconds)
            units = PER_LAYER
        else:
            metrics, raw = bench.end_to_end(seconds)
            units = END_TO_END
    finally:
        bench.close()
    env["loadavg_after"] = list(os.getloadavg())
    failed = len(bench.failures)
    result = {
        "correct": failed == 0 and set(metrics) == set(units),
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    results = DATA / "results"
    results.mkdir(parents=True, exist_ok=True)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": env, "failures": bench.failures[:20], **raw, "result": result}
    out = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record, indent=1))
    print(f"# machine {json.dumps(env)}")
    print(f"# input {json.dumps(raw['input'])}")
    for reason in bench.failures[:5]:
        print(f"# FAILED {reason}")
    for k, v in result["metrics"].items():
        print(f"# {name:14} {k:22} {v['value']:14.6g} {v['unit']}")
    if not trace:
        print(f"# {name:14} {'fail_rate':22} {failed / bench.attempted:14.6g} ratio")
        for k, v in raw["raw_medians"].items():
            print(f"# {name:14} {'raw median ' + k:22} {v:14.6g} s")
    print(json.dumps(result), flush=True)
    return 0


def run_all(seed: int, seconds: int, trace: bool) -> int:
    """Every workload, one child process each, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = proc.stdout.splitlines()
        print("\n".join(line for line in lines[:-1] if not line.startswith("# input")),
              flush=True)
        if proc.returncode != 0 or not lines:
            total["correct"] = False
            continue
        one = json.loads(lines[-1])
        total["correct"] &= one["correct"]
        total["attempted"] += one["attempted"]
        total["failed"] += one["failed"]
        for k, v in one["metrics"].items():
            total["metrics"][f"{name}/{k}"] = v
    print(json.dumps(total), flush=True)
    return 0 if total["correct"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not (SRC / "workset" / "__init__.py").is_file():
        sys.stderr.write(f"bench: no workset package under {SRC}; run from a full checkout\n")
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_one(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    raise SystemExit(main())
