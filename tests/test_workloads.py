"""Generator contracts: the tiny-config golden emission was enumerated
by hand from the workload definition before gen_pageramp existed; keep
it literal."""

import io
import sys
import time
import tracemalloc
from collections import Counter
from itertools import islice

import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import slow_gen_pageramp, slow_gen_step

from workset.engine import AnalysisConfig, run_analysis
from workset.trace import AccessKind, TraceEvent, read_trace, write_trace
from workset.workloads import (
    CODE_BASE,
    CODE_PAGES,
    EVENT_MEMO_SIZE,
    PagerampConfig,
    StepConfig,
    gen_pageramp,
    gen_step,
)

TINY = dict(max_pages=4, stride=2, cycles=1, insns_per_step=2)

# 8 passes at claims 1,2,3,4,3,2,1,0: two dwell fetches each, then one
# fetch + one store per touched page (pages 0, 2, ... below the claim)
TINY_GOLDEN = """\
C 0: pageramp.c:21|pageramp.c:48
U 0 0
I  00400000,4
I  00400004,4
I  00400008,4
 S 10000000,1
I  0040000c,4
I  00400010,4
I  00400014,4
 S 10000000,1
I  00400018,4
I  0040001c,4
I  00400020,4
 S 10000000,1
I  00400024,4
 S 10002000,1
I  00400028,4
I  0040002c,4
I  00400030,4
 S 10000000,1
I  00400034,4
 S 10002000,1
I  00400038,4
I  0040003c,4
I  00400040,4
 S 10000000,1
I  00400044,4
 S 10002000,1
I  00400048,4
I  0040004c,4
I  00400050,4
 S 10000000,1
I  00400054,4
I  00400058,4
I  0040005c,4
 S 10000000,1
I  00400060,4
I  00400064,4
"""


def store_page_sets(records, page_size=4096, base=0x1000_0000):
    """Sequence of per-pass touched page index sets, split on dwell runs."""
    passes = []
    current = None
    run_of_fetches = 0
    for rec in records:
        if not isinstance(rec, TraceEvent):
            continue
        if rec.kind is AccessKind.INSN_FETCH:
            run_of_fetches += 1
            continue
        if run_of_fetches > 1 or current is None:  # dwell run opened a new pass
            current = set()
            passes.append(current)
        run_of_fetches = 0
        current.add((rec.address - base) // page_size)
    if run_of_fetches > 1:
        passes.append(set())
    return passes


def test_tiny_golden_emission():
    buf = io.StringIO()
    write_trace(gen_pageramp(PagerampConfig(**TINY)), buf)
    assert buf.getvalue() == TINY_GOLDEN


def test_tiny_golden_round_trips():
    records = list(gen_pageramp(PagerampConfig(**TINY)))
    assert list(read_trace(io.StringIO(TINY_GOLDEN))) == records


def test_touch_sets_follow_the_ramp():
    passes = store_page_sets(gen_pageramp(PagerampConfig(**TINY)))
    assert passes == [{0}, {0}, {0, 2}, {0, 2}, {0, 2}, {0}, {0}, set()]


def test_touch_sets_with_stride_one():
    cfg = PagerampConfig(max_pages=3, stride=1, cycles=1, insns_per_step=2)
    passes = store_page_sets(gen_pageramp(cfg))
    assert passes == [{0}, {0, 1}, {0, 1, 2}, {0, 1}, {0}, set()]


def test_peak_distinct_pages_per_pass():
    cfg = PagerampConfig(max_pages=1024, stride=2, cycles=1)
    passes = store_page_sets(gen_pageramp(cfg))
    assert max(len(p) for p in passes) == 512
    assert len(passes) == 2 * 1024


def test_events_are_shared_per_code_offset_and_page():
    # 4 code pages of 256 bytes hold 256 fetch offsets
    ramp = gen_pageramp(PagerampConfig(max_pages=8, stride=1, cycles=2, page_size=256))
    step = gen_step(StepConfig(
        interval_insns=300, page_size=256, flat_pages=3, step_pages=5, flat_samples=4
    ))
    for records in (ramp, step):
        events = [r for r in records if isinstance(r, TraceEvent)]
        for kind, distinct in ((AccessKind.INSN_FETCH, 256), (AccessKind.DATA_STORE, 8)):
            same_kind = [e for e in events if e.kind is kind]
            assert len({e.address for e in same_kind}) == distinct
            assert len({id(e) for e in same_kind}) == distinct


def test_huge_page_size_starts_quickly_with_bounded_memory():
    # the code region spans 4 GiB: 2**30 fetch offsets, far more than
    # EVENT_MEMO_SIZE, so no fetch event is built ahead or kept
    cfg = PagerampConfig(
        max_pages=1, stride=1, cycles=1, insns_per_step=150_000, page_size=1 << 30
    )
    records = gen_pageramp(cfg)
    t0 = time.perf_counter()
    head = list(islice(records, 42))  # the stack's declaration and activation first
    assert time.perf_counter() - t0 < 1.0
    assert [r.address for r in head[2:]] == [CODE_BASE + 4 * i for i in range(40)]
    tracemalloc.start()
    try:
        held = []
        for _ in range(3):
            for _ in islice(records, EVENT_MEMO_SIZE // 2):
                pass
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # a memo keeping every fetch would grow by about 5 MB per step
    assert held[2] <= held[0] + 64 * 1024, held


def test_data_page_count_above_memo_size_starts_quickly_with_bounded_memory():
    # one pass touches 4 * EVENT_MEMO_SIZE pages: no store event is kept
    pages = 4 * EVENT_MEMO_SIZE
    cfg = PagerampConfig(max_pages=pages, stride=1, cycles=1, insns_per_step=0,
                         pages_per_step=pages, page_size=256)
    records = gen_pageramp(cfg)
    t0 = time.perf_counter()
    head = list(islice(records, 42))
    assert time.perf_counter() - t0 < 1.0
    assert [r.address for r in head[3::2]] == [cfg.base_address + 256 * i for i in range(20)]
    tracemalloc.start()
    try:
        held = []
        for _ in range(3):
            for _ in islice(records, EVENT_MEMO_SIZE // 2):
                pass
            held.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    # keeping every store would grow by about 1.5 MB per step
    assert held[2] <= held[0] + 64 * 1024, held


def count_calls(read):
    """Python calls made while ``read()`` runs, split into TraceEvent
    constructions and all others."""
    calls = Counter()

    def profile(frame, event, arg):
        if event == "call":
            calls[frame.f_code is TraceEvent.__init__.__code__] += 1

    sys.setprofile(profile)
    try:
        value = read()
    finally:
        sys.setprofile(None)
    return value, calls[True], calls[False]


def test_events_are_built_as_they_are_read():
    # the store list may reach EVENT_MEMO_SIZE events, all in the first pass
    cfg = PagerampConfig(max_pages=EVENT_MEMO_SIZE, stride=1, cycles=1, insns_per_step=0,
                         pages_per_step=EVENT_MEMO_SIZE, page_size=256)
    t0 = time.perf_counter()
    records, built, _ = count_calls(lambda: gen_pageramp(cfg))
    assert time.perf_counter() - t0 < 1.0
    assert built == 0
    # 2 + 2 * 100 records: 100 fetch offsets and 100 pages so far
    head, built, _ = count_calls(lambda: list(islice(records, 202)))
    assert built == len({id(r) for r in head[2:]}) == 200


@pytest.mark.parametrize(
    "generate, intervals",
    [
        # 20 cycles of 16 claims up and 16 down
        (lambda: gen_pageramp(PagerampConfig(max_pages=64, stride=2, cycles=20,
                                             pages_per_step=4, page_size=256)), 640),
        # 5 repeats of 4 flat intervals and a bump, then 4 flat ones
        (lambda: gen_step(StepConfig(interval_insns=300, repeats=5, page_size=256,
                                     flat_pages=3, step_pages=5, flat_samples=4)), 29),
    ],
    ids=["pageramp", "step"],
)
def test_no_python_call_per_record(generate, intervals):
    # Python runs a few calls per pass or interval and one per event
    # built; a generator frame resumed per record makes one per record
    records, built, other = count_calls(lambda: list(generate()))
    assert built == len({id(r) for r in records if isinstance(r, TraceEvent)})
    assert other <= 3 * intervals + 16, (other, len(records))


def shared_events(records):
    """Per access kind, each event's position among the distinct
    objects of that kind: equal positions mean one shared object."""
    firsts = {kind: {} for kind in AccessKind}
    return [
        firsts[r.kind].setdefault(id(r), len(firsts[r.kind]))
        for r in records
        if isinstance(r, TraceEvent)
    ]


page_sizes = st.integers(8, 20).map(lambda bits: 1 << bits)  # 256 B to 1 MiB


@given(
    max_pages=st.integers(1, 40),
    stride=st.integers(1, 50),
    cycles=st.integers(1, 3),
    insns_per_touch=st.integers(1, 4),
    insns_per_step=st.integers(0, 20),
    pages_per_step=st.integers(1, 50),
    page_size=page_sizes,
)
@example(max_pages=EVENT_MEMO_SIZE + 1, stride=EVENT_MEMO_SIZE, cycles=2, insns_per_touch=2,
         insns_per_step=3, pages_per_step=EVENT_MEMO_SIZE, page_size=256)
def test_pageramp_matches_the_generator_oracle(max_pages, stride, cycles, insns_per_touch,
                                               insns_per_step, pages_per_step, page_size):
    cfg = PagerampConfig(max_pages, stride, cycles, insns_per_touch, insns_per_step,
                         pages_per_step, page_size=page_size)
    records = list(gen_pageramp(cfg))
    expected = list(slow_gen_pageramp(cfg))
    assert records == expected
    assert shared_events(records) == shared_events(expected)


@given(
    interval_extra=st.integers(0, 30),
    repeats=st.integers(1, 3),
    page_size=page_sizes,
    flat_pages=st.integers(1, 10),
    step_pages=st.integers(0, 10),
    flat_samples=st.integers(1, 4),
)
@example(interval_extra=0, repeats=1, page_size=1 << 17, flat_pages=1,
         step_pages=EVENT_MEMO_SIZE, flat_samples=1)
def test_step_matches_the_generator_oracle(interval_extra, repeats, page_size, flat_pages,
                                           step_pages, flat_samples):
    cfg = StepConfig(flat_pages + step_pages + interval_extra, repeats, page_size=page_size,
                     flat_pages=flat_pages, step_pages=step_pages, flat_samples=flat_samples)
    records = list(gen_step(cfg))
    expected = list(slow_gen_step(cfg))
    assert records == expected
    assert shared_events(records) == shared_events(expected)


def test_deterministic():
    cfg = PagerampConfig(**TINY)
    assert list(gen_pageramp(cfg)) == list(gen_pageramp(cfg))


@given(
    max_pages=st.integers(1, 24),
    stride=st.integers(1, 5),
    cycles=st.integers(1, 3),
    pages_per_step=st.integers(1, 5),
)
def test_stores_stay_inside_the_claimed_region(max_pages, stride, cycles, pages_per_step):
    cfg = PagerampConfig(
        max_pages=max_pages,
        stride=stride,
        cycles=cycles,
        insns_per_touch=1,
        insns_per_step=1,
        pages_per_step=pages_per_step,
    )
    low = cfg.base_address
    high = cfg.base_address + max_pages * cfg.page_size
    saw_store = False
    for rec in gen_pageramp(cfg):
        if isinstance(rec, TraceEvent) and rec.kind is AccessKind.DATA_STORE:
            saw_store = True
            assert low <= rec.address < high
        if isinstance(rec, TraceEvent) and rec.kind is AccessKind.INSN_FETCH:
            assert CODE_BASE <= rec.address < CODE_BASE + CODE_PAGES * cfg.page_size
    assert saw_store


def test_pages_per_step_clamps_at_the_rim():
    # 5 pages in steps of 2 claims 2,4,5 then releases 3,1,0
    cfg = PagerampConfig(
        max_pages=5, stride=1, cycles=1, insns_per_step=2, pages_per_step=2
    )
    passes = store_page_sets(gen_pageramp(cfg))
    assert [len(p) for p in passes] == [2, 4, 5, 3, 1, 0]


def test_config_validation():
    for bad in (
        dict(max_pages=0),
        dict(stride=0),
        dict(cycles=0),
        dict(insns_per_touch=0),
        dict(insns_per_step=-1),
        dict(pages_per_step=0),
        dict(page_size=1000),
        dict(page_size=128),
    ):
        with pytest.raises(ValueError):
            PagerampConfig(**bad)


def test_touch_pass_insns():
    cfg = PagerampConfig(max_pages=1024, stride=2, insns_per_touch=1, insns_per_step=16)
    assert cfg.touch_pass_insns == 16 + 512
    cfg = PagerampConfig(max_pages=5, stride=2, insns_per_touch=3, insns_per_step=1)
    assert cfg.touch_pass_insns == 1 + 3 * 3


# --------------------------------------------------------------------------
# step workload


def wss_data_series(records, interval):
    cfg = AnalysisConfig(tau=interval, every=interval)
    return [s.wss_data for s in run_analysis(records, cfg).samples]


def test_step_series_shape():
    cfg = StepConfig(interval_insns=200)
    series = wss_data_series(gen_step(cfg), 200)
    assert series == [10] * 20 + [60] + [10] * 20


def test_step_zero_is_flat():
    cfg = StepConfig(interval_insns=100, step_pages=0, flat_samples=5)
    series = wss_data_series(gen_step(cfg), 100)
    assert series == [10] * 11


def test_step_repeats_twice():
    cfg = StepConfig(interval_insns=200, repeats=2)
    series = wss_data_series(gen_step(cfg), 200)
    assert series == ([10] * 20 + [60]) * 2 + [10] * 20
    assert sum(1 for v in series if v > 10) == 2


def test_step_interval_exactly_tiles_instructions():
    cfg = StepConfig(interval_insns=64, flat_pages=3, step_pages=5, flat_samples=4)
    fetches = sum(
        1
        for r in gen_step(cfg)
        if r.kind is AccessKind.INSN_FETCH
    )
    assert fetches == 64 * (4 + 1 + 4)


def test_step_validation():
    for bad in (
        dict(flat_pages=0),
        dict(step_pages=-1),
        dict(flat_samples=0),
        dict(interval_insns=30),  # below flat_pages + step_pages
        dict(repeats=0),
    ):
        with pytest.raises(ValueError):
            StepConfig(**bad)


@pytest.mark.parametrize(
    "config, generate, fits",
    [
        (PagerampConfig, gen_pageramp, dict(max_pages=1)),
        (StepConfig, gen_step, dict(flat_pages=1, step_pages=0, flat_samples=1,
                                    interval_insns=4)),
    ],
)
def test_page_size_keeps_the_code_region_below_2_64(config, generate, fits):
    # the code pages from CODE_BASE end at or below 2**64 up to 2**61
    assert CODE_BASE + CODE_PAGES * 2**61 <= 2**64 < CODE_BASE + CODE_PAGES * 2**62
    head = islice(generate(config(page_size=2**61, base_address=0, **fits)), 10)
    assert len(list(head)) == 10
    for page_size in (2**62, 2**64, 2**65, 2**4000):
        with pytest.raises(ValueError, match=r"^page_size must be a power of two "
                                             r"from 256 up to 2\*\*61, got "):
            config(page_size=page_size, base_address=0, **fits)


def test_data_pages_end_at_or_below_2_64():
    top = 2**64 - 2 * 4096
    PagerampConfig(max_pages=2, base_address=top)
    step = dict(interval_insns=4, base_address=top, step_pages=1, flat_samples=1)
    StepConfig(flat_pages=1, **step)
    with pytest.raises(ValueError):
        PagerampConfig(max_pages=3, base_address=top)
    with pytest.raises(ValueError):
        StepConfig(flat_pages=2, **step)
