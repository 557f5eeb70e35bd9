"""Child process of a traced run: time each layer through public calls.

Usage: python probe.py '<json args>' with PYTHONPATH naming the
package's src directory. Every span wraps one call into the package's
public API (read_trace, gen_pageramp, run_analysis, detect_series,
emit), so refactors inside the package do not break it. Spans are kept
in memory and printed, with the result counts and the emitted output,
as one JSON object on stdout.

Layers are timed by difference. engine.nosample analyzes with the
sampling interval past the last instruction, so it costs feeding plus
page-table touches; engine.full adds the workload's own sampling. The
feed and both analyses run twice each; the harness uses the mean per
span name. inprocess.total is the pipeline the CLI runs, in one pass.
"""

from __future__ import annotations

import io
import json
import sys
import time
from contextlib import contextmanager

from workset import (
    AnalysisConfig,
    PagerampConfig,
    detect_series,
    emit,
    gen_pageramp,
    read_trace,
    run_analysis,
)

from lib_child import digest


def main() -> None:
    args = json.loads(sys.argv[1])
    spans: list[dict] = []
    origin = time.perf_counter()

    @contextmanager
    def span(name: str, parent: str | None = "probe"):
        start = time.perf_counter() - origin
        try:
            yield
        finally:
            spans.append(
                {"name": name, "start": start, "end": time.perf_counter() - origin,
                 "parent": parent}
            )

    cfg = AnalysisConfig(**args["analysis"])
    quiet = AnalysisConfig(**{**args["analysis"], "every": args["instructions"] + 1})
    path = args["input"]
    fmt = args["format"]

    if path is not None:
        feed_layer = "trace.read"

        def over_feed(consume):
            with open(path, "r", encoding="utf-8") as f:
                return consume(read_trace(f))
    else:
        feed_layer = "workloads.gen"
        ramp = PagerampConfig(**args["ramp"])

        def over_feed(consume):
            return consume(gen_pageramp(ramp))

    def count(records) -> int:
        n = 0
        for _ in records:
            n += 1
        return n

    # feed, quiet and full runs go in a mirrored order, so that a machine
    # slowing down or speeding up over the probe cancels in the differences
    with span("probe", parent=None):
        with span(feed_layer):
            records = over_feed(count)
        with span("engine.nosample"):
            over_feed(lambda recs: run_analysis(recs, quiet))
        with span("engine.full"):
            over_feed(lambda recs: run_analysis(recs, cfg))
        with span("engine.full"):
            result = over_feed(lambda recs: run_analysis(recs, cfg))
        with span("engine.nosample"):
            over_feed(lambda recs: run_analysis(recs, quiet))
        with span(feed_layer):
            over_feed(count)
        scopes = [result, *(result.threads or {}).values()]
        if cfg.peak_detect:
            params = cfg.peak_params()
            with span("peak.detect"):
                for scope in scopes:
                    detect_series([s.wss_insn for s in scope.samples], params)
                    detect_series([s.wss_data for s in scope.samples], params)
        if fmt is not None:
            sink = io.StringIO()
            with span("report.emit"):
                emit(result, fmt, sink)
            output = sink.getvalue()
        else:
            output = json.dumps(digest(result))
        with span("inprocess.total"):
            again = over_feed(lambda recs: run_analysis(recs, cfg))
            if fmt is not None:
                emit(again, fmt, io.StringIO())

    json.dump(
        {
            "spans": spans,
            "records": records,
            "samples": sum(len(s.samples) for s in scopes),
            "pages": sum(s.insn.summary.total_pages + s.data.summary.total_pages
                         for s in scopes),
            "peaks": sum(x.peak_insn + x.peak_data for s in scopes for x in s.samples),
            "annotations": sum(len(s.annotations) for s in scopes),
            "output_bytes": len(output.encode("utf-8")) if fmt is not None else 0,
            "output": output,
        },
        sys.stdout,
    )


if __name__ == "__main__":
    main()
