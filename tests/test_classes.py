"""The contract of the package's record, result and config classes:
how each is built, compared, shown and hashed, whether it holds its
fields in slots, and the names of its fields, which ``__match_args__``
lists in declaration order."""

import hashlib
import json
import random

import pytest

from oracles import make_random_events
from workset.engine import AnalysisConfig, SweepConfig, run_analysis
from workset.peak import PeakParams, PeakVerdict
from workset.report import (
    AnalysisResult,
    HotPageEntry,
    PeakAnnotation,
    StreamResult,
    Summary,
    WssSample,
)
from workset.trace import AccessKind, CallStackDecl, StackActivation, Stream, TraceEvent
from workset.workloads import PagerampConfig, StepConfig

SUMMARY = Summary(Stream.DATA, 1.5, 2, 3, 4096)
STREAM = StreamResult(SUMMARY, [])

# (class, its field names, whether it holds them in slots, a value for
# every field in order, the repr of the instance built from them)
CLASSES = [
    (TraceEvent, ("kind", "address", "size", "thread"), True,
     (AccessKind.INSN_FETCH, 4096, 4, 0),
     "TraceEvent(kind=<AccessKind.INSN_FETCH: 'I'>, address=4096, size=4, thread=0)"),
    (CallStackDecl, ("id", "frames"), True, (3, ("f.c:1", "main")),
     "CallStackDecl(id=3, frames=('f.c:1', 'main'))"),
    (StackActivation, ("thread", "stack"), True, (1, 3),
     "StackActivation(thread=1, stack=3)"),
    (PeakParams, ("alpha", "phi", "g"), False, (0.5, 0.25, 2.0),
     "PeakParams(alpha=0.5, phi=0.25, g=2.0)"),
    (PeakVerdict, ("is_peak", "distance", "threshold", "dispersion"), True,
     (True, 3.0, 1.5, 0.25),
     "PeakVerdict(is_peak=True, distance=3.0, threshold=1.5, dispersion=0.25)"),
    (WssSample, ("t", "wss_insn", "wss_data", "peak_insn", "peak_data", "annotation"), True,
     (100, 2, 3, False, True, 0),
     "WssSample(t=100, wss_insn=2, wss_data=3, peak_insn=False, peak_data=True, annotation=0)"),
    (PeakAnnotation, ("index", "t", "stream", "refs", "frames"), True,
     (0, 100, Stream.DATA, 1, ("f.c:1",)),
     "PeakAnnotation(index=0, t=100, stream=<Stream.DATA: 'data'>, refs=1, frames=('f.c:1',))"),
    (Summary, ("stream", "avg_pages", "peak_pages", "total_pages", "page_size"), False,
     (Stream.INSN, 2.5, 3, 4, 4096),
     "Summary(stream=<Stream.INSN: 'insn'>, avg_pages=2.5, peak_pages=3, total_pages=4, "
     "page_size=4096)"),
    (HotPageEntry, ("count", "page", "info"), False, (5, 0x400, "code"),
     "HotPageEntry(count=5, page=1024, info='code')"),
    (StreamResult, ("summary", "hot_pages"), False, (SUMMARY, [HotPageEntry(1, 2)]),
     "StreamResult(summary=Summary(stream=<Stream.DATA: 'data'>, avg_pages=1.5, peak_pages=2, "
     "total_pages=3, page_size=4096), hot_pages=[HotPageEntry(count=1, page=2, info='')])"),
    (AnalysisResult, ("samples", "insn", "data", "annotations", "threads"), False,
     ([WssSample(1, 0, 0)], STREAM, STREAM, [], {}),
     "AnalysisResult(samples=[WssSample(t=1, wss_insn=0, wss_data=0, peak_insn=False, "
     "peak_data=False, annotation=None)], insn=StreamResult(summary=Summary(stream=<Stream.DATA: "
     "'data'>, avg_pages=1.5, peak_pages=2, total_pages=3, page_size=4096), hot_pages=[]), "
     "data=StreamResult(summary=Summary(stream=<Stream.DATA: 'data'>, avg_pages=1.5, "
     "peak_pages=2, total_pages=3, page_size=4096), hot_pages=[]), annotations=[], threads={})"),
    (AnalysisConfig, ("tau", "every", "page_size", "per_thread", "peak_detect", "peak_g",
                      "peak_phi", "peak_alpha", "top_n"), False,
     (50, 10, 256, True, True, 2.0, 0.5, 0.25, 3),
     "AnalysisConfig(tau=50, every=10, page_size=256, per_thread=True, peak_detect=True, "
     "peak_g=2.0, peak_phi=0.5, peak_alpha=0.25, top_n=3)"),
    (SweepConfig, ("tau_min", "tau_max", "points", "every"), False, (10, 1000, 3, 5),
     "SweepConfig(tau_min=10, tau_max=1000, points=3, every=5)"),
    (PagerampConfig, ("max_pages", "stride", "cycles", "insns_per_touch", "insns_per_step",
                      "pages_per_step", "base_address", "page_size"), False,
     (8, 1, 2, 3, 4, 2, 0x2000, 512),
     "PagerampConfig(max_pages=8, stride=1, cycles=2, insns_per_touch=3, insns_per_step=4, "
     "pages_per_step=2, base_address=8192, page_size=512)"),
    (StepConfig, ("interval_insns", "repeats", "base_address", "page_size", "flat_pages",
                  "step_pages", "flat_samples"), False,
     (100, 2, 0x3000, 1024, 5, 6, 7),
     "StepConfig(interval_insns=100, repeats=2, base_address=12288, page_size=1024, "
     "flat_pages=5, step_pages=6, flat_samples=7)"),
]

# (class, the values of its fields without a default, the defaults)
DEFAULTS = [
    (TraceEvent, (AccessKind.DATA_LOAD, 8, 1), {"thread": 0}),
    (PeakParams, (), {"alpha": 0.3, "phi": 0.2, "g": 1.0}),
    (WssSample, (1, 2, 3), {"peak_insn": False, "peak_data": False, "annotation": None}),
    (HotPageEntry, (1, 2), {"info": ""}),
    (AnalysisResult, ([], STREAM, STREAM, []), {"threads": None}),
    (AnalysisConfig, (), {"tau": 100_000, "every": 100_000, "page_size": 4096,
                          "per_thread": False, "peak_detect": False, "peak_g": 1.0,
                          "peak_phi": 0.2, "peak_alpha": 0.3, "top_n": 10}),
    (SweepConfig, (), {"tau_min": 100, "tau_max": 1_000_000, "points": 9, "every": None}),
    (PagerampConfig, (), {"max_pages": 1024, "stride": 2, "cycles": 10, "insns_per_touch": 1,
                          "insns_per_step": 16, "pages_per_step": 1,
                          "base_address": 0x1000_0000, "page_size": 4096}),
    (StepConfig, (), {"interval_insns": 1000, "repeats": 1, "base_address": 0x2000_0000,
                      "page_size": 4096, "flat_pages": 10, "step_pages": 50,
                      "flat_samples": 20}),
]

by_class = pytest.mark.parametrize("cls,names,slotted,values,shown", CLASSES,
                                   ids=[case[0].__name__ for case in CLASSES])


@by_class
def test_fields_are_listed_in_declaration_order(cls, names, slotted, values, shown):
    assert cls.__match_args__ == names
    # a class pattern takes its positions from __match_args__
    match cls(*values):
        case cls(first, second):
            assert (first, second) == values[:2]
        case _:
            pytest.fail("no match")


@by_class
def test_built_by_position_or_keyword(cls, names, slotted, values, shown):
    by_position = cls(*values)
    by_keyword = cls(**dict(zip(names, values)))
    for name, value in zip(names, values):
        assert getattr(by_position, name) == value
        assert getattr(by_keyword, name) == value
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@pytest.mark.parametrize("cls,required,defaults", DEFAULTS,
                         ids=[case[0].__name__ for case in DEFAULTS])
def test_defaults(cls, required, defaults):
    built = cls(*required)
    assert {name: getattr(built, name) for name in defaults} == defaults
    assert cls.__match_args__[len(required):] == tuple(defaults)


@by_class
def test_equal_only_to_the_same_class_with_equal_fields(cls, names, slotted, values, shown):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b

    class Other(cls):
        pass

    other = Other(*values)
    assert a != other and other != a
    assert a.__eq__(other) is NotImplemented
    assert a.__eq__(values) is NotImplemented
    assert a != values
    for name in names:
        changed = cls(*values)
        setattr(changed, name, "changed")
        assert a != changed and not a == changed


@by_class
def test_repr(cls, names, slotted, values, shown):
    assert repr(cls(*values)) == shown


@by_class
def test_unhashable(cls, names, slotted, values, shown):
    with pytest.raises(TypeError):
        hash(cls(*values))


@by_class
def test_slots(cls, names, slotted, values, shown):
    assert hasattr(cls(*values), "__dict__") is not slotted


def test_per_thread_peak_result_is_unchanged():
    # a digest of the JSON text of to_dict() as the dataclass-based
    # classes built it, key order included
    events = make_random_events(random.Random(7), 600, threads=(0, 1, 2))
    cfg = AnalysisConfig(tau=40, every=10, per_thread=True, peak_detect=True, top_n=3)
    plain = run_analysis(events, cfg).to_dict()
    assert sorted(plain["threads"]) == ["0", "1", "2"]
    assert plain["annotations"]
    digest = hashlib.sha256(json.dumps(plain).encode()).hexdigest()
    assert digest == "b8ad99343b2f7e72f7f07775d89a507de449b9601950db141f4d27609ee27602"
