#!/usr/bin/env python3
"""Run the sawtooth workload end to end and drop csv/svg/text reports
into an output directory. The window is locked to one touch pass so the
sampled series shows the full ramp: peaks at max_pages/stride distinct
pages, troughs near zero while the allocation is handed back. An output
directory that cannot be written ends the run with a one-line error and
exit status 2, as ``workset analyze`` does.
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workset.engine import AnalysisConfig, run_analysis
from workset.report import emit_csv, emit_svg, emit_text
from workset.workloads import PagerampConfig, gen_pageramp


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--max-pages", type=int, default=256)
    ap.add_argument("--stride", type=int, default=2)
    ap.add_argument("--cycles", type=int, default=3)
    ap.add_argument("--peak-detect", action="store_true")
    ap.add_argument("--outdir", type=Path, default=Path("out/pageramp"))
    args = ap.parse_args()

    try:
        cfg = PagerampConfig(max_pages=args.max_pages, stride=args.stride, cycles=args.cycles)
    except ValueError as exc:
        ap.error(str(exc))
    tau = cfg.touch_pass_insns
    result = run_analysis(
        gen_pageramp(cfg),
        AnalysisConfig(tau=tau, every=tau, peak_detect=args.peak_detect),
    )

    try:
        args.outdir.mkdir(parents=True, exist_ok=True)
        for name, emitter in (("wss.csv", emit_csv), ("wss.svg", emit_svg),
                              ("summary.txt", emit_text)):
            with open(args.outdir / name, "w") as f:
                emitter(result, f)
    except OSError as exc:
        sys.stderr.write(f"pageramp_demo: {exc}\n")
        return 2

    series = [s.wss_data for s in result.samples]
    print(f"tau = every = {tau} insns, {len(series)} samples")
    print(f"data WSS min/max: {min(series)}/{max(series)} pages")
    print(f"wrote {args.outdir}/wss.csv, wss.svg, summary.txt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
