"""Every public validator keeps its error text short, however large the
value it refuses: an int is shown by its bit length once it is long,
and a string by a bounded excerpt or its type."""

import io

import pytest

from workset.engine import AnalysisConfig, PageTable, hot_pages, run_analysis
from workset.peak import PeakParams
from workset.report import load_label_map
from workset.trace import (
    AccessKind,
    CallStackDecl,
    StackActivation,
    TraceEvent,
    parse_record,
    write_trace,
)
from workset.workloads import PagerampConfig, StepConfig

HUGE = 2**20000
LONG = "z" * 100_000

# (validator, call that makes it refuse an oversized int, one that makes
# it refuse an oversized string)
CASES = [
    ("AnalysisConfig",
     lambda: AnalysisConfig(page_size=HUGE),
     lambda: AnalysisConfig(tau=LONG)),
    ("PagerampConfig",
     lambda: PagerampConfig(base_address=HUGE),
     lambda: PagerampConfig(max_pages=LONG)),
    ("StepConfig",
     lambda: StepConfig(flat_pages=HUGE),
     lambda: StepConfig(interval_insns=LONG)),
    ("TraceEvent",
     lambda: TraceEvent(AccessKind.DATA_LOAD, HUGE, 4),
     lambda: TraceEvent(AccessKind.DATA_LOAD, 0, LONG)),
    ("hot_pages",
     lambda: hot_pages(PageTable(4096), -HUGE),
     lambda: hot_pages(PageTable(4096), LONG)),
    ("load_label_map",
     lambda: load_label_map([f"-{HUGE:x} heap"]),
     lambda: load_label_map([LONG + " heap"])),
    # a stack id of 4000 digits still parses, so the message shows it
    ("parse_record",
     lambda: parse_record("U 0 " + "9" * 4000, 1, {}, strict=True),
     lambda: parse_record(LONG, 1, {}, strict=True)),
    ("write_trace",
     lambda: write_trace([TraceEvent(AccessKind.DATA_LOAD, HUGE, 4)], io.StringIO()),
     lambda: write_trace([CallStackDecl(0, ("a|" + LONG,))], io.StringIO())),
]


@pytest.mark.parametrize(
    "refuse",
    [pytest.param(case[1], id=f"{case[0]}-int") for case in CASES]
    + [pytest.param(case[2], id=f"{case[0]}-str") for case in CASES],
)
def test_error_text_is_bounded(refuse):
    with pytest.raises((ValueError, TypeError)) as info:
        refuse()
    assert len(str(info.value)) < 300


# past int-to-text conversion's digit limit, where formatting the number
# raises a message that names nothing
@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: AnalysisConfig(peak_alpha=HUGE),
         "alpha must be in (0, 1], got a 20001-bit integer"),
        (lambda: PeakParams(phi=-HUGE), "phi must be in (0, 1], got a negative 20001-bit integer"),
        (lambda: PeakParams(g=-HUGE), "g must be > 0, got a negative 20001-bit integer"),
        # floats keep their own text
        (lambda: PeakParams(g=float("nan")), "g must be > 0, got nan"),
        (lambda: AnalysisConfig(peak_phi=float("inf")), "phi must be in (0, 1], got inf"),
        (lambda: AnalysisConfig(tau=float("-inf")), "tau must be >= 1, got -inf"),
    ],
)
def test_numbers_are_shown_bounded(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "record,shown",
    [
        (CallStackDecl(HUGE, ("a",)), "CallStackDecl(id=a 20001-bit integer, frames=a tuple)"),
        (StackActivation(HUGE, 0), "StackActivation(thread=a 20001-bit integer, stack=0)"),
        (StackActivation(0, -HUGE),
         "StackActivation(thread=0, stack=a negative 20001-bit integer)"),
    ],
)
@pytest.mark.parametrize(
    "consume",
    [lambda records: write_trace(records, io.StringIO()), run_analysis],
    ids=["write_trace", "run_analysis"],
)
def test_stack_record_numbers_past_the_digit_limit(record, shown, consume):
    with pytest.raises(ValueError) as info:
        consume([record])
    assert str(info.value) == f"invalid stack record {shown}: a number too long to write as text"
