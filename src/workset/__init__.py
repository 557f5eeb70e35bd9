"""workset: trace-driven working set analyzer.

Replays a memory access trace against a logical clock that ticks once
per instruction, tracks the distinct pages touched per access stream
(instruction vs data), and samples the working set size over a sliding
window. Once the pass is over, it judges peaks in each finished series
and annotates them with call stacks, ranks hot pages, and writes
text/CSV/JSON/SVG reports. Synthetic workload generators and a CLI
round out the toolkit.
"""

from .engine import AnalysisConfig, run_analysis
from .peak import PeakDetector, PeakParams, PeakVerdict, detect_series
from .report import (
    CSV_HEADER,
    AnalysisResult,
    HotPageEntry,
    PeakAnnotation,
    StreamResult,
    Summary,
    WssSample,
    emit,
    format_summary,
    load_label_map,
)
from .trace import (
    AccessKind,
    CallStackDecl,
    StackActivation,
    Stream,
    TraceEvent,
    TraceParseError,
    parse_line,
    read_trace,
    write_trace,
)
from .workloads import PagerampConfig, StepConfig, gen_pageramp, gen_step

__version__ = "0.1.0"

__all__ = [
    "AccessKind",
    "AnalysisConfig",
    "AnalysisResult",
    "CSV_HEADER",
    "CallStackDecl",
    "HotPageEntry",
    "PagerampConfig",
    "PeakAnnotation",
    "PeakDetector",
    "PeakParams",
    "PeakVerdict",
    "StackActivation",
    "StepConfig",
    "Stream",
    "StreamResult",
    "Summary",
    "TraceEvent",
    "TraceParseError",
    "WssSample",
    "detect_series",
    "emit",
    "format_summary",
    "gen_pageramp",
    "gen_step",
    "load_label_map",
    "parse_line",
    "read_trace",
    "run_analysis",
    "write_trace",
]
