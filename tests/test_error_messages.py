"""Every public validator keeps its error text short, however large the
value it refuses: an int is shown by its bit length once it is long,
and a string by a bounded excerpt or its type."""

import io

import pytest

from workset.engine import AnalysisConfig, SweepConfig, _BucketTable, run_analysis
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

# (validator, call that makes it refuse an oversized int, what its
# message shows of it, call that makes it refuse an oversized string,
# what that message shows of it)
CASES = [
    ("AnalysisConfig",
     lambda: AnalysisConfig(page_size=HUGE), "page_size must be a power of two up to 2**64, "
                                             "got a 20001-bit integer",
     lambda: AnalysisConfig(tau=LONG), "tau must be an int, got a str"),
    ("PagerampConfig",
     lambda: PagerampConfig(base_address=HUGE), "got end a 20001-bit integer",
     lambda: PagerampConfig(max_pages=LONG), "max_pages must be an int, got a str"),
    ("StepConfig",
     lambda: StepConfig(flat_pages=HUGE), "got end a 20013-bit integer",
     lambda: StepConfig(interval_insns=LONG), "interval_insns must be an int, got a str"),
    ("TraceEvent",
     lambda: TraceEvent(AccessKind.DATA_LOAD, HUGE, 4),
     "address must be an int in 0..2**64-1, got a 20001-bit integer",
     lambda: TraceEvent(AccessKind.DATA_LOAD, 0, LONG),
     "size must be an int in 1..65536, got a str"),
    ("hot_pages",
     lambda: _BucketTable().hot_pages(-HUGE, {}), "n must be >= 0, got a negative 20001-bit integer",
     lambda: _BucketTable().hot_pages(LONG, {}), "n must be an int, got a str"),
    ("load_label_map",
     lambda: load_label_map([f"-{HUGE:x} heap"]), "bad page '-10000000",
     lambda: load_label_map([LONG + " heap"]), "bad page 'zzzzzzzz"),
    # a stack id of 4000 digits still parses, so the message shows it
    ("parse_record",
     lambda: parse_record("U 0 " + "9" * 4000, 1, {}, strict=True),
     "undeclared stack id a 13288-bit integer",
     lambda: parse_record(LONG, 1, {}, strict=True), "unknown record tag 'zzzzzzzz"),
    ("write_trace",
     lambda: write_trace([TraceEvent(AccessKind.DATA_LOAD, HUGE, 4)], io.StringIO()),
     "address must be an int in 0..2**64-1, got a 20001-bit integer",
     lambda: write_trace([CallStackDecl(0, ("a|" + LONG,))], io.StringIO()),
     "invalid stack record 'C 0: a|zzzzzzzz"),
]


@pytest.mark.parametrize(
    "refuse,shows",
    [pytest.param(*case[1:3], id=f"{case[0]}-int") for case in CASES]
    + [pytest.param(*case[3:5], id=f"{case[0]}-str") for case in CASES],
)
def test_error_text_is_bounded(refuse, shows):
    # a message that does not show what it refuses, such as int-to-text
    # conversion's own digit-limit message, fails even when it is short
    with pytest.raises(ValueError) as info:
        refuse()
    assert shows in str(info.value)
    assert len(str(info.value)) < 300


def int_knobs():
    """(call taking one value, the name its message gives that value)
    for every int field of the configs, and for hot_pages' count."""
    for config in (AnalysisConfig, PagerampConfig, StepConfig, SweepConfig):
        for name in config.__match_args__:
            if config.__init__.__annotations__[name] in ("int", "int | None"):
                yield pytest.param(lambda value, c=config, f=name: c(**{f: value}),
                                   name, id=f"{config.__name__}.{name}")
    yield pytest.param(lambda value: _BucketTable().hot_pages(value, {}), "n", id="hot_pages.n")


@pytest.mark.parametrize("value", [2.5, True, "7"], ids=["float", "bool", "str"])
@pytest.mark.parametrize("make,name", int_knobs())
def test_int_knobs_take_ints_only(make, name, value):
    # refused where it is given: past the check a float or str fails far
    # from its field (in islice, in a slice) or runs (tau=2.5 samples once)
    with pytest.raises(ValueError) as info:
        make(value)
    assert str(info.value) == f"{name} must be an int, got a {value.__class__.__name__}"


@pytest.mark.parametrize(
    "make,message",
    [
        # a str used to fail in a comparison that named no field, and a
        # bool to run as 0 or 1
        (lambda: AnalysisConfig(peak_g="1"), "g must be a real number, got a str"),
        (lambda: AnalysisConfig(peak_alpha=True), "alpha must be a real number, got a bool"),
        (lambda: AnalysisConfig(peak_phi=None), "phi must be a real number, got a NoneType"),
        (lambda: PeakParams(g=False), "g must be a real number, got a bool"),
        (lambda: PeakParams(alpha="0.5"), "alpha must be a real number, got a str"),
        # a truthy str used to turn per-thread scopes on
        (lambda: AnalysisConfig(per_thread="no"), "per_thread must be a bool, got a str"),
        (lambda: AnalysisConfig(peak_detect=1), "peak_detect must be a bool, got 1"),
        (lambda: AnalysisConfig(per_thread=None), "per_thread must be a bool, got a NoneType"),
    ],
)
def test_real_and_bool_knobs_take_their_type_only(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_real_knobs_take_ints_and_floats():
    cfg = AnalysisConfig(peak_alpha=1, peak_phi=0.5, peak_g=2, per_thread=True, peak_detect=True)
    assert cfg.peak_params() == PeakParams(alpha=1, phi=0.5, g=2)


# past int-to-text conversion's digit limit, where formatting the number
# raises a message that names nothing
@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: AnalysisConfig(peak_alpha=HUGE),
         "alpha must be in (0, 1], got a 20001-bit integer"),
        (lambda: PeakParams(phi=-HUGE), "phi must be in (0, 1], got a negative 20001-bit integer"),
        (lambda: PeakParams(g=-HUGE), "g must be > 0, got a negative 20001-bit integer"),
        # past the float range: an infinite g turned detection off, and an
        # int one failed converting to float after the whole pass
        (lambda: AnalysisConfig(peak_g=2**2000), "g must be finite, got a 2001-bit integer"),
        (lambda: PeakParams(g=HUGE), "g must be finite, got a 20001-bit integer"),
        # floats keep their own text
        (lambda: PeakParams(g=float("nan")), "g must be > 0, got nan"),
        (lambda: AnalysisConfig(peak_phi=float("inf")), "phi must be in (0, 1], got inf"),
        (lambda: PeakParams(g=float("inf")), "g must be finite, got inf"),
        # an int knob shows a float by its type
        (lambda: AnalysisConfig(tau=float("-inf")), "tau must be an int, got a float"),
    ],
)
def test_numbers_are_shown_bounded(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_an_access_past_the_address_space_is_refused():
    # its last byte would lie in page 2**52, which no 64-bit address is in
    with pytest.raises(ValueError) as info:
        TraceEvent(AccessKind.DATA_LOAD, 2**64 - 1, 8)
    assert str(info.value) == (
        "event end (address + size) must be at most 2**64, got 18446744073709551623")
    with pytest.raises(ValueError) as info:
        parse_record("I  ffffffffffffffff,8\n", 1, {}, strict=True)
    assert str(info.value) == (
        "line 1: malformed event record 'I  ffffffffffffffff,8': expected "
        "'<hexaddr>,<size>[ t<tid>]' in ASCII, size 1..65536, address + size at most 2**64")


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
