#!/usr/bin/env python3
"""Sweep the window length over a trace and tabulate how the sampled
working set responds. With a fixed --every, every row samples the same
instants and a wider window can only grow each sample, so the avg/peak
columns are monotone down the table; the interesting part is where
they stop growing (the trace's natural locality scale). The default,
every = tau, tiles each row's windows instead, so the rows sample
different instants and the columns need not be monotone: data pages
touched at t = 4, 5 and 6 of a 12-instruction trace give a data peak
of 3 at tau = 3 but of 2 at tau = 4.

Reads a trace file, or analyzes a built-in step workload when no input
is given. A malformed trace line or an unreadable file ends the sweep
with a one-line error and exit status 2, as ``workset analyze`` does;
so does a --csv path that cannot be written, before the first pass.
"""

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workset.engine import AnalysisConfig, run_analysis
from workset.trace import TraceParseError
from workset.workloads import StepConfig, gen_step


def sweep_taus(lo: int, hi: int, points: int) -> list[int]:
    if points == 1:
        return [lo]
    ratio = (hi / lo) ** (1 / (points - 1))
    taus = sorted({max(1, round(lo * ratio**i)) for i in range(points)})
    return taus


def positive(text: str) -> int:
    """An argparse type: a decimal integer of at least 1. Its ValueError
    becomes argparse's usage error "invalid positive value"."""
    value = int(text)
    if value < 1:
        raise ValueError(text)
    return value


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("input", nargs="?", help="trace file (default: synthetic step workload)")
    ap.add_argument("--tau-min", type=positive, default=100)
    ap.add_argument("--tau-max", type=positive, default=1_000_000)
    ap.add_argument("--points", type=positive, default=9)
    ap.add_argument("--every", type=positive, default=None,
                    help="fixed sampling interval, which makes the columns monotone "
                    "in tau (default: tau, i.e. tiling windows, which need not be)")
    ap.add_argument("--csv", type=Path, help="also write the table as CSV")
    args = ap.parse_args()

    def analyze(cfg):
        if args.input:
            # as the CLI reads it: undecodable bytes make a malformed line
            with open(args.input, encoding="utf-8", errors="surrogateescape") as f:
                return run_analysis(f, cfg)
        return run_analysis(gen_step(StepConfig(interval_insns=10_000)), cfg)

    try:
        # the CSV file is opened first, so a bad path fails before any pass
        with open(args.csv, "w") if args.csv else nullcontext() as csv_out:
            rows = []
            for tau in sweep_taus(args.tau_min, args.tau_max, args.points):
                res = analyze(AnalysisConfig(tau=tau, every=args.every))
                i, d = res.insn.summary, res.data.summary
                rows.append((tau, len(res.samples), i.avg_pages, i.peak_pages,
                             d.avg_pages, d.peak_pages))

            head = (f"{'tau':>9} {'samples':>8} {'insn avg':>9} {'insn pk':>8} "
                    f"{'data avg':>9} {'data pk':>8}")
            print(head)
            print("-" * len(head))
            for tau, n, ia, ip, da, dp in rows:
                print(f"{tau:>9} {n:>8} {ia:>9.1f} {ip:>8} {da:>9.1f} {dp:>8}")

            if csv_out:
                csv_out.write("tau,samples,insn_avg,insn_peak,data_avg,data_peak\n")
                for row in rows:
                    csv_out.write(",".join(str(v) for v in row) + "\n")
    except (TraceParseError, OSError) as exc:
        sys.stderr.write(f"tau_sweep: {exc}\n")
        return 2
    if args.csv:
        print(f"\nwrote {args.csv}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
