"""Child process of the ramp-lib workload: the library path.

Usage: python lib_child.py '<json args>' with PYTHONPATH naming the
package's src directory. The args hold the PagerampConfig and
AnalysisConfig fields. Runs run_analysis over gen_pageramp in process,
with no trace text, and prints a digest of the result for the check.
"""

from __future__ import annotations

import json
import sys

from workset import AnalysisConfig, PagerampConfig, gen_pageramp, run_analysis


def digest(result) -> dict:
    """The combined series and per-stream totals, in the shape the
    reference uses."""
    return {
        "series": [[s.t, s.wss_insn, s.wss_data] for s in result.samples],
        "total": [result.insn.summary.total_pages, result.data.summary.total_pages],
        "peak": [result.insn.summary.peak_pages, result.data.summary.peak_pages],
    }


def main() -> None:
    args = json.loads(sys.argv[1])
    ramp = PagerampConfig(**args["ramp"])
    result = run_analysis(gen_pageramp(ramp), AnalysisConfig(**args["analysis"]))
    json.dump(digest(result), sys.stdout)


if __name__ == "__main__":
    main()
