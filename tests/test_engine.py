"""Engine behavior pinned against the brute-force oracles plus a set of
hand-computed edge cases for the clock / window / sampling rules."""

import io
import logging
import random
import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import (
    expand_accesses,
    fast_wss_series,
    make_random_events,
    reference_peak_series,
    slow_hot_pages,
    slow_wss_series,
)
from workset.engine import (
    BATCH_LIMIT,
    SWEEP_POINTS_MAX,
    AnalysisConfig,
    HotPageEntry,
    SweepConfig,
    _BucketTable,
    _ScopeState,
    _TileTable,
    run_analysis,
)
from workset.report import WssSample
from workset.trace import (
    MAX_ACCESS_SIZE,
    AccessKind,
    CallStackDecl,
    LineMemo,
    StackActivation,
    Stream,
    TraceEvent,
    TraceParseError,
    decode_event,
    read_trace,
    write_trace,
)
from workset.workloads import PagerampConfig, StepConfig, gen_pageramp, gen_step

FETCH = AccessKind.INSN_FETCH


def fetch(address=0x0040_0000, thread=0):
    return TraceEvent(FETCH, address, 4, thread)


def triples(samples):
    return [(s.t, s.wss_insn, s.wss_data) for s in samples]


# --------------------------------------------------------------------------
# page table


def test_touch_counts_and_last_access():
    table = _BucketTable()
    table.add([2], expires=3, upcoming=1)
    table.add([2, 2], expires=9, upcoming=1)
    assert len(table) == 1
    assert table.hot_pages(len(table), {}) == [HotPageEntry(3, 2)]


def test_add_applies_each_distinct_page_once():
    table = _BucketTable()
    table.add([1, 2, 1, 1], expires=2, upcoming=1)  # counted by samples 1 and 2
    table.add([2, 3], expires=3, upcoming=1)  # page 2 moves on to sample 3
    table.add([4], expires=0, upcoming=1)  # expires before sample 1: never counted
    assert [table.sample(k) for k in range(1, 5)] == [3, 3, 2, 0]
    table.add([1, 4, 4], expires=5, upcoming=5)  # expired pages come back
    assert table.sample(5) == 2
    ranked = [HotPageEntry(4, 1), HotPageEntry(3, 4), HotPageEntry(2, 2), HotPageEntry(1, 3)]
    assert table.hot_pages(len(table), {}) == ranked
    assert table.hot_pages(2, {}) == ranked[:2]


def test_straddling_access_touches_every_page():
    events = [fetch(), TraceEvent(AccessKind.DATA_STORE, 0x1FFC, 8)]  # crosses into page 2
    res = run_analysis(events, AnalysisConfig(tau=1))
    assert sorted((e.page, e.count) for e in res.data.hot_pages) == [(1, 1), (2, 1)]
    events.append(TraceEvent(AccessKind.DATA_LOAD, 0x0FFF, 8193))  # 0x0FFF..0x2FFF: pages 0, 1, 2
    res = run_analysis(events, AnalysisConfig(tau=1))
    assert sorted((e.page, e.count) for e in res.data.hot_pages) == [(0, 1), (1, 2), (2, 2)]
    assert triples(res.samples) == [(1, 1, 3)]


@pytest.mark.parametrize("page_size", [256, 4096, 2**20])
def test_a_record_spans_no_more_pages_than_a_line_can(page_size):
    # the widest access a line may hold, at the worst alignment, is
    # analyzed; a wider record cannot be built (test_trace checks that)
    cfg = AnalysisConfig(tau=1, page_size=page_size)
    widest = TraceEvent(AccessKind.DATA_LOAD, page_size - 1, MAX_ACCESS_SIZE)
    res = run_analysis([fetch(), widest], cfg)
    span = (MAX_ACCESS_SIZE + page_size - 2) // page_size + 1
    assert res.data.summary.total_pages == span


@pytest.mark.parametrize(
    "records, says",
    [
        pytest.param([CallStackDecl(0, ("a",)), CallStackDecl(0, ("b",))],
                     "duplicate call stack id 0", id="duplicate-id"),
        pytest.param([CallStackDecl(0, ("a",)), StackActivation(0, 1)],
                     "activation of undeclared stack id 1", id="undeclared-stack"),
        pytest.param([StackActivation(0, 1), CallStackDecl(1, ("a",))],
                     "activation of undeclared stack id 1", id="declared-too-late"),
        pytest.param([CallStackDecl(0, ("a|b",))],
                     "reads back as a different record", id="bar-in-frame"),
        pytest.param([CallStackDecl(0, ("a",)), StackActivation(-1, 0)],
                     "malformed stack activation", id="negative-thread"),
    ],
)
def test_stack_records_follow_the_stack_line_rules(records, says):
    # refused as their lines are in strict mode; records are refused in
    # lenient mode too
    with pytest.raises(ValueError, match=says):
        run_analysis([fetch(), *records, fetch()], strict=False)


def test_window_is_half_open_on_the_left():
    # one data touch at t=100; with tau=50 it is in (t - 50, t] for
    # t = 100..149 and out from t=150 on
    events = [fetch() for _ in range(99)]
    events.append(fetch())
    events.append(TraceEvent(AccessKind.DATA_STORE, 0x5000, 1))
    events.extend(fetch() for _ in range(60))
    res = run_analysis(events, AnalysisConfig(tau=50, every=1))
    wss_data = {s.t: s.wss_data for s in res.samples}
    assert wss_data[99] == 0
    assert wss_data[100] == 1
    assert wss_data[149] == 1  # 100 > 149 - 50
    assert wss_data[150] == 0  # 100 > 100 is false


def test_records_capture_first_access_info():
    stacks = {3: ("x.c:9", "y.c:2")}
    table = _BucketTable()
    table.add([2], 1, 1, stack_ref=3)
    table.add([2], 5, 1)  # same page again, no stack
    table.add([9], 7, 1, stack_ref=8)  # undeclared ref
    assert table.hot_pages(len(table), stacks) == [HotPageEntry(2, 2, "x.c:9"), HotPageEntry(1, 9)]


@pytest.mark.parametrize("table_class", [_BucketTable, _TileTable])
def test_a_page_first_seen_without_a_stack_stays_blank(table_class):
    stacks = {3: ("x.c:9", "y.c:2")}
    table = table_class()
    table.add([5, 5], 1, 1)  # first seen with no stack
    table.add([2, 5], 1, 1, stack_ref=3)
    table.add([9, 5, 2], 1, 1, stack_ref=8)  # undeclared ref
    assert table.hot_pages(len(table), stacks) == [
        HotPageEntry(4, 5), HotPageEntry(2, 2, "x.c:9"), HotPageEntry(1, 9)
    ]


def test_tile_table_applies_each_distinct_page_once():
    table = _TileTable()
    table.add([1, 2, 1, 1], expires=1, upcoming=1)  # in the window of sample 1
    table.add([2, 3], expires=1, upcoming=1)
    assert table.sample(1) == 3
    table.add([4], expires=1, upcoming=2)  # after sample 1, before window 2: never counted
    table.add([1, 4, 4], expires=2, upcoming=2)  # window 2 starts afresh
    assert table.sample(2) == 2
    assert table.sample(3) == 0  # no access in window 3
    table.add([3], expires=4, upcoming=4)
    assert table.sample(4) == 1
    ranked = [HotPageEntry(4, 1), HotPageEntry(3, 4), HotPageEntry(2, 2), HotPageEntry(2, 3)]
    assert len(table) == 4
    assert table.hot_pages(len(table), {}) == ranked


# a batch of accesses: its pages, whether they fall in the window of the
# next sample (else in the gap before it), and its stack
tile_batches = st.tuples(
    st.lists(st.integers(0, 24), min_size=1, max_size=12),
    st.booleans(),
    st.sampled_from((None, 0, 1)),
)


@given(
    first_sample=st.integers(1, 3),
    periods=st.lists(st.lists(tile_batches, max_size=6), max_size=10),
    tail=st.lists(tile_batches, max_size=3),
)
def test_tile_table_matches_the_bucket_table_property(first_sample, periods, tail):
    # windows that tile: before sample k every batch has expiry index
    # k - 1 (between two windows) or k (in window k), in time order
    stacks = {0: ("a.c:1",), 1: ("b.c:2", "a.c:1")}
    tables = [cls() for cls in (_BucketTable, _TileTable)]
    samples = ([], [])
    for k, period in enumerate([*periods, tail], first_sample):
        for pages, in_window, ref in sorted(period, key=lambda batch: batch[1]):
            for table in tables:
                table.add(pages, k if in_window else k - 1, k, ref)
        if k - first_sample < len(periods):
            for table, taken in zip(tables, samples):
                taken.append(table.sample(k))
    bucket, tile = tables
    assert samples[0] == samples[1]
    assert len(bucket) == len(tile)
    assert bucket.hot_pages(len(bucket), stacks) == tile.hot_pages(len(tile), stacks)


@pytest.mark.parametrize(
    "tau, every, table_class",
    [(1, 1, _TileTable), (528, 528, _TileTable), (30, 70, _TileTable),
     (529, 528, _BucketTable), (5000, 50, _BucketTable)],
)
def test_scopes_use_the_set_table_exactly_when_windows_do_not_overlap(tau, every, table_class):
    cfg = AnalysisConfig(tau=tau, every=every)
    combined = _ScopeState(cfg)
    thread = _ScopeState(cfg, 4, combined=combined)
    assert [type(table) for table in (*combined.tables, *thread.tables)] == [table_class] * 4


# --------------------------------------------------------------------------
# clock and sampling rules


def test_clock_starts_at_one():
    res = run_analysis([fetch() for _ in range(3)], AnalysisConfig(tau=1, every=1))
    assert triples(res.samples) == [(1, 1, 0), (2, 1, 0), (3, 1, 0)]


def test_empty_trace_has_no_samples():
    res = run_analysis([], AnalysisConfig(tau=10, every=10))
    assert res.samples == []
    assert res.annotations == []
    assert res.threads is None
    assert res.insn.summary.total_pages == 0
    assert res.data.summary.total_pages == 0


def test_trace_shorter_than_interval_has_no_samples():
    res = run_analysis([fetch() for _ in range(9)], AnalysisConfig(tau=10, every=10))
    assert res.samples == []


def test_sampling_instants_are_exact_multiples():
    res = run_analysis([fetch() for _ in range(5)], AnalysisConfig(tau=2, every=2))
    assert [s.t for s in res.samples] == [2, 4]


def test_final_boundary_flushes_at_end_of_trace():
    res = run_analysis([fetch() for _ in range(4)], AnalysisConfig(tau=2, every=2))
    assert [s.t for s in res.samples] == [2, 4]


def test_sample_covers_the_whole_boundary_instruction():
    # the second instruction lands on the boundary; its data accesses
    # carry t=2 and must be inside the sample taken at t=2
    events = [
        fetch(0x0040_0000),
        fetch(0x0040_0004),
        TraceEvent(AccessKind.DATA_STORE, 0x1000_0000, 1),
        TraceEvent(AccessKind.DATA_LOAD, 0x2000_0000, 1),
        fetch(0x0040_0008),
    ]
    res = run_analysis(events, AnalysisConfig(tau=2, every=2))
    assert res.samples == [WssSample(2, 1, 2)]


def test_data_before_the_first_instruction_has_timestamp_zero():
    events = [TraceEvent(AccessKind.DATA_STORE, 0x1000_0000, 1), fetch(), fetch()]
    wide = run_analysis(events, AnalysisConfig(tau=2, every=1))
    # (t-tau, t] = (-1, 1] at t=1 includes ts=0; (0, 2] at t=2 does not
    assert triples(wide.samples) == [(1, 1, 1), (2, 1, 0)]


def test_default_every_is_tau():
    assert AnalysisConfig(tau=500).every == 500
    assert AnalysisConfig(tau=500, every=7).every == 7


@pytest.mark.parametrize(
    "tau_min, tau_max, points, taus",
    [
        (100, 1_000_000, 9, [100, 316, 1000, 3162, 10000, 31623, 100000, 316228, 1000000]),
        (7, 9, 1, [7]),
        (5, 6, 4, [5, 6]),  # rounding merges points
        (20, 5, 3, [5, 10, 20]),
        # float rounding alone ends this grid at 2**53 + 2
        (1, 2**53, 3, [1, 94906266, 2**53]),
    ],
)
def test_sweep_taus_span_the_range_on_a_log_scale(tau_min, tau_max, points, taus):
    assert SweepConfig(tau_min, tau_max, points).taus() == taus


def test_sweep_points_are_capped():
    assert SWEEP_POINTS_MAX == 10_000
    taus = SweepConfig(1, 2**53, SWEEP_POINTS_MAX).taus()
    assert len(taus) <= SWEEP_POINTS_MAX and taus[0] == 1 and taus[-1] == 2**53
    with pytest.raises(ValueError, match="^points must be <= 10000, got 10001$"):
        SweepConfig(points=SWEEP_POINTS_MAX + 1)


# --------------------------------------------------------------------------
# oracle agreement


@pytest.mark.parametrize(
    "seed,n,tau,every,straddle",
    [
        (1, 200, 10, 10, False),
        (2, 500, 31, 7, False),
        (3, 500, 7, 31, True),
        (4, 1000, 1, 1, False),
        (5, 800, 97, 13, True),
    ],
)
def test_matches_slow_oracle(seed, n, tau, every, straddle):
    events = make_random_events(random.Random(seed), n, straddle=straddle)
    res = run_analysis(events, AnalysisConfig(tau=tau, every=every))
    assert triples(res.samples) == slow_wss_series(events, tau, every, 4096)


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    tau=st.integers(1, 60),
    every=st.integers(1, 60),
    straddle=st.booleans(),
)
def test_matches_slow_oracle_property(seed, n, tau, every, straddle):
    events = make_random_events(random.Random(seed), n, straddle=straddle)
    res = run_analysis(events, AnalysisConfig(tau=tau, every=every))
    assert triples(res.samples) == slow_wss_series(events, tau, every, 4096)


def hand_off_examples(test):
    """``test`` with the edge cases of per-thread batching, where an
    event goes to its thread's batches only and a thread's drain feeds
    its own tables and the combined ones: a run longer than BATCH_LIMIT
    between two switches (no sample comes first), a switch on every
    event with no stack, activations for the running thread in the
    middle of its run, and a switch on every event with each thread
    under its own stack, where every event drains."""
    for kwargs in (
        dict(seed=1, n=4000, tau=3000, every=1000, nthreads=2, straddle=True, run=1500,
             switch_p=0.0),
        dict(seed=2, n=400, tau=13, every=5, nthreads=3, straddle=True, run=1, switch_p=0.0),
        dict(seed=3, n=600, tau=20, every=7, nthreads=2, straddle=False, run=150,
             switch_p=0.05),
        dict(seed=4, n=400, tau=13, every=5, nthreads=3, straddle=True, run=1, switch_p=1.0),
    ):
        test = example(**kwargs)(test)
    return test


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 300),
    tau=st.integers(1, 60),
    every=st.integers(1, 60),
    nthreads=st.integers(2, 3),
    straddle=st.booleans(),
    run=st.sampled_from((0, 1, 40)),
    switch_p=st.sampled_from((0.0, 0.02, 0.3)),
)
@hand_off_examples
def test_per_thread_matches_slow_oracle_property(
    seed, n, tau, every, nthreads, straddle, run, switch_p
):
    rng = random.Random(seed)
    threads = tuple(range(nthreads))
    events = make_random_events(rng, n, straddle=straddle, threads=threads, run=run)
    records = [CallStackDecl(i, (f"f{i}.c:1",)) for i in range(3)]
    records += with_stack_switches(rng, events, 3, switch_p)
    res = run_analysis(records, AnalysisConfig(tau=tau, every=every, per_thread=True))
    assert triples(res.samples) == slow_wss_series(events, tau, every, 4096)
    first_seen = {}
    now = 0
    for ev in events:
        now += ev.kind is FETCH
        first_seen.setdefault(ev.thread, now)
    assert set(res.threads) == set(first_seen)
    for tid, sub in res.threads.items():
        # a thread samples every global boundary from its first event on
        oracle = slow_wss_series(events, tau, every, 4096, thread=tid)
        assert triples(sub.samples) == [x for x in oracle if x[0] >= first_seen[tid]]


def with_stack_switches(rng, events, nstacks, switch_p):
    """``events`` with activation records in between: each thread keeps
    its stack until it switches, which it does before an event with
    probability ``switch_p``, so switches fall in the middle of sampling
    intervals. With ``switch_p`` 1, each thread instead runs under its
    own stack, its id modulo ``nstacks``, activated before its first
    event. The stack ids are below ``nstacks``; the caller declares
    them."""
    out = []
    started = set()
    for ev in events:
        if switch_p == 1:
            if ev.thread not in started:
                started.add(ev.thread)
                out.append(StackActivation(ev.thread, ev.thread % nstacks))
        elif rng.random() < switch_p:
            out.append(StackActivation(ev.thread, rng.randrange(nstacks)))
        out.append(ev)
    return out


def ranking(stream):
    return [(e.count, e.page, e.info) for e in stream.hot_pages]


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    tau=st.integers(1, 60),
    every=st.integers(1, 60),
    nthreads=st.integers(1, 3),
    straddle=st.booleans(),
    run=st.sampled_from((0, 1, 40)),
    switch_p=st.sampled_from((0.0, 0.02, 0.3)),
)
# no sample and no stack switch: only the batch length bound drains
@example(seed=7, n=6000, tau=10**6, every=10**6, nthreads=2, straddle=True, run=0,
         switch_p=0.0)
@hand_off_examples
def test_hot_pages_match_slow_oracle_property(
    seed, n, tau, every, nthreads, straddle, run, switch_p
):
    rng = random.Random(seed)
    threads = tuple(range(nthreads))
    events = make_random_events(rng, n, straddle=straddle, threads=threads, run=run)
    records = [CallStackDecl(i, (f"f{i}.c:1", "main.c:9")) for i in range(3)]
    records += with_stack_switches(rng, events, 3, switch_p)
    cfg = AnalysisConfig(tau=tau, every=every, per_thread=True, top_n=10**6)
    res = run_analysis(records, cfg)
    assert (ranking(res.insn), ranking(res.data)) == slow_hot_pages(records, 4096)
    assert set(res.threads) == {e.thread for e in events}
    for tid, sub in res.threads.items():
        expected = slow_hot_pages(records, 4096, thread=tid)
        assert (ranking(sub.insn), ranking(sub.data)) == expected


@pytest.mark.parametrize(
    "nthreads,run,own_stacks,tau",
    [pytest.param(2, 1, False, 10**6, id="1"), pytest.param(2, 5000, False, 10**6, id="5000"),
     pytest.param(3, 1, True, 10**6, id="1-own-stacks"),
     pytest.param(2, 1, False, 2 * 10**6, id="1-overlapping"),
     pytest.param(2, 5000, False, 2 * 10**6, id="5000-overlapping"),
     pytest.param(3, 1, True, 2 * 10**6, id="1-own-stacks-overlapping")],
)
def test_per_thread_batches_stay_bounded(monkeypatch, nthreads, run, own_stacks, tau):
    """With no sample, only the batch length bound and stack changes
    drain: no table takes more pages at once than BATCH_LIMIT plus one
    access's, and every page reaches its thread's table and the combined
    one exactly once. Without stacks, only the bound drains; with each
    thread under its own stack and a switch on every event, every event
    drains. Windows that tile (tau = every) use the set table, and
    overlapping ones the bucket table."""
    added = {}

    def recording(add):
        def recording_add(self, pages, expires, upcoming, stack_ref=None):
            added.setdefault(self, []).append(list(pages))
            add(self, pages, expires, upcoming, stack_ref)
        return recording_add

    for table_class in (_BucketTable, _TileTable):
        monkeypatch.setattr(table_class, "add", recording(table_class.add))
    rng = random.Random(7)
    threads = tuple(range(nthreads))
    events = make_random_events(rng, 6000, straddle=True, threads=threads, run=run)
    records = [CallStackDecl(i, (f"f{i}.c:1",)) for i in threads]
    records += with_stack_switches(rng, events, nthreads, 1.0 if own_stacks else 0.0)
    run_analysis(records, AnalysisConfig(tau=tau, every=10**6, per_thread=True))
    expected = [
        sorted(page for _, page in accesses)
        for tid in (None, *threads)
        for accesses in expand_accesses(events, 4096, thread=tid)[:2]
    ]
    tables = [sorted(page for batch in batches for page in batch) for batches in added.values()]
    assert sorted(tables) == sorted(expected)
    assert max(len(batch) for batches in added.values() for batch in batches) <= BATCH_LIMIT + 1


BAD_LINES = [
    "nonsense\n",
    " L 0,65537\n",       # above MAX_ACCESS_SIZE
    " L 1_0,4\n",
    "I  10,4 t\u0661\n",
    "I \udcff,4\n",       # undecodable byte under surrogateescape
    "U 0 99\n",           # undeclared stack
    "C 0: again.c:1\n",   # duplicate stack id
]
EXTRA_LINES = ["\n", "# comment\n", "U 0 2\n", "U 1 3\n", "C 9: late.c:7\n"]


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _analyze(records, cfg, strict):
    """(result dict or the error's line number, logged warnings)."""
    logger = logging.getLogger("workset.trace")
    handler = _Warnings()
    logger.addHandler(handler)
    try:
        outcome = run_analysis(records, cfg, strict=strict).to_dict()
    except TraceParseError as exc:
        outcome = exc.lineno
    finally:
        logger.removeHandler(handler)
    return outcome, handler.messages


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    tau=st.integers(1, 60),
    every=st.integers(1, 60),
    nthreads=st.integers(1, 3),
    straddle=st.booleans(),
    switch_p=st.sampled_from((0.0, 0.02, 0.3)),
    per_thread=st.booleans(),
    peak_detect=st.booleans(),
    extra=st.integers(0, 6),
    bad=st.integers(0, 3),
    strict=st.booleans(),
)
def test_text_lines_match_read_trace(
    seed, n, tau, every, nthreads, straddle, switch_p, per_thread, peak_detect, extra, bad,
    strict,
):
    rng = random.Random(seed)
    events = make_random_events(rng, n, straddle=straddle, threads=tuple(range(nthreads)))
    records = [CallStackDecl(i, (f"f{i}.c:1", "main.c:9")) for i in range(4)]
    records += with_stack_switches(rng, events, 3, switch_p)
    buf = io.StringIO()
    write_trace(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    for line in rng.choices(EXTRA_LINES, k=extra) + rng.choices(BAD_LINES, k=bad):
        lines.insert(rng.randrange(len(lines) + 1), line)
    cfg = AnalysisConfig(tau=tau, every=every, per_thread=per_thread,
                         peak_detect=peak_detect, peak_g=0.5, top_n=10**6)
    text = _analyze(lines, cfg, strict)
    assert text == _analyze(read_trace(lines, strict=strict), cfg, strict)
    if bad and not strict:
        assert len(text[1]) >= 1


def test_fast_oracle_agrees_with_slow():
    # three threads' straddling accesses, windows that overlap, tile or
    # leave gaps, and the whole trace as well as single threads
    for seed in (99, 5, 2024):
        events = make_random_events(random.Random(seed), 800, straddle=True, threads=(0, 1, 2))
        for tau, every in ((23, 11), (11, 23), (1, 1), (40, 40)):
            for thread in (None, 0, 2):
                fast = fast_wss_series(events, tau, every, 4096, thread)
                assert fast == slow_wss_series(events, tau, every, 4096, thread)
                assert any(wi and wd for _, wi, wd in fast)


@given(
    seed=st.integers(0, 2**32 - 1),
    taus=st.tuples(st.integers(1, 80), st.integers(1, 80)),
    every=st.integers(1, 40),
)
def test_wider_window_never_shrinks_the_wss(seed, taus, every):
    tau_lo, tau_hi = sorted(taus)
    events = make_random_events(random.Random(seed), 250)
    lo = run_analysis(events, AnalysisConfig(tau=tau_lo, every=every)).samples
    hi = run_analysis(events, AnalysisConfig(tau=tau_hi, every=every)).samples
    assert [s.t for s in lo] == [s.t for s in hi]
    for a, b in zip(lo, hi):
        assert a.wss_insn <= b.wss_insn
        assert a.wss_data <= b.wss_data


def test_wss_never_exceeds_window_or_footprint():
    events = make_random_events(random.Random(7), 500, insn_pages=64, data_pages=256)
    res = run_analysis(events, AnalysisConfig(tau=13, every=5))
    insn_pages = {e.address >> 12 for e in events if e.kind is FETCH}
    data_pages = {e.address >> 12 for e in events if e.kind is not FETCH}
    assert res.samples
    for s in res.samples:
        assert 0 <= s.wss_insn <= min(13, len(insn_pages))
        assert 0 <= s.wss_data <= len(data_pages)


def _transient_bytes(records, cfg):
    """Peak traced memory of one analysis minus what its result still
    holds afterwards: the tables, memo and buffers the pass needed."""
    tracemalloc.start()
    try:
        result = run_analysis(records, cfg)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - held, result


def _pageramp_lines(scale, data_only=False):
    buf = io.StringIO()
    write_trace(gen_pageramp(PagerampConfig(max_pages=128, cycles=scale)), buf)
    lines = buf.getvalue().splitlines(keepends=True)
    if data_only:
        lines = [line for line in lines if not line.startswith("I")]
    return lines


def _distinct_lines(scale):
    """70000 event lines per unit of ``scale``, no two alike: fetches and
    loads at word offsets of 128 code and 128 data pages, with the size
    changing each time the offsets wrap, so no access leaves its page."""
    lines = []
    for j in range(35_000 * scale):
        page, offset, size = j % 128, (j // 128) % 1024 * 4, 1 + j // 131_072
        lines.append(f"I  {0x40_0000 + page * 4096 + offset:x},{size}\n")
        lines.append(f" L {0x1000_0000 + page * 4096 + offset:x},{size}\n")
    return lines


@pytest.mark.parametrize(
    "tau, every, make_lines, text",
    [
        pytest.param(528, 16, _pageramp_lines, False, id="16"),
        pytest.param(528, 528, _pageramp_lines, False, id="528"),
        # no sample ever drains the batches: only their length bound does
        pytest.param(10**9, 10**9, _pageramp_lines, False, id="window-longer-than-trace"),
        pytest.param(528, 528, partial(_pageramp_lines, data_only=True), False,
                     id="data-only"),
        pytest.param(528, 16, _pageramp_lines, True, id="text-16"),
        pytest.param(528, 528, _pageramp_lines, True, id="text-528"),
        pytest.param(10**9, 10**9, _pageramp_lines, True, id="text-window-longer-than-trace"),
        pytest.param(528, 528, partial(_pageramp_lines, data_only=True), True,
                     id="text-data-only"),
        # more distinct lines than the line memo holds: only its bound
        # keeps it from growing with the trace
        pytest.param(528, 528, _distinct_lines, True, id="text-distinct-lines"),
    ],
)
def test_memory_does_not_grow_with_trace_length(tau, every, make_lines, text):
    cfg = AnalysisConfig(tau=tau, every=every)
    # the first pass in a process can trace up to 20 kB less than later
    # ones (objects reused from free lists are not traced), so one
    # untraced pass puts both measured passes in the same state
    warm = make_lines(1)
    run_analysis(warm if text else read_trace(warm), cfg)
    runs = []
    for scale in (1, 4):
        lines = make_lines(scale)  # built before tracing
        records = lines if text else read_trace(lines)
        runs.append((len(lines), *_transient_bytes(records, cfg)))
    (n1, short, res1), (n4, long, res4) = runs
    assert n4 > 3.5 * n1
    assert res4.data.summary.total_pages == res1.data.summary.total_pages
    if res1.insn.summary.total_pages and tau < 10**9:
        assert len(res4.samples) > 3.5 * len(res1.samples)
    else:
        assert res4.samples == []
    # keeping one pointer per extra sample would already cost about 25 kB
    assert long <= short + 16 * 1024, (short, long)


@pytest.mark.parametrize("scopes", [{}, dict(per_thread=True, peak_detect=True)],
                         ids=["combined", "per-thread-peaks"])
def test_samples_retain_few_bytes_each(scopes):
    # a scope keeps its samples as two 8-byte columns (and, with peak
    # detection, an entry per sample that fired), so what the result
    # holds grows by about 16 bytes per sample; one WssSample object per
    # sample costs over 100
    cfg = AnalysisConfig(tau=64, every=1, **scopes)
    records = list(gen_pageramp(PagerampConfig(max_pages=128, cycles=1)))
    run_analysis(records, cfg)  # warm, as the tests above do
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        res = run_analysis(records, cfg)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    series = [res.samples, *(sub.samples for sub in (res.threads or {}).values())]
    n = sum(map(len, series))
    assert len(series) == (2 if scopes else 1) and n > 10_000 * len(series)
    if scopes:
        assert res.annotations  # the peak columns are really exercised
    assert held <= 24 * n, held / n


def test_line_memo_stays_small_on_distinct_lines():
    # lines that never repeat are not worth memoizing: a memo that kept
    # each of the 70000 would take about 8.6 MB, and this one keeps about
    # the first 8700
    cfg = AnalysisConfig(tau=528, every=528)
    run_analysis(_distinct_lines(1), cfg)  # warm, as the test above does
    lines = _distinct_lines(1)
    transient, _ = _transient_bytes(lines, cfg)
    assert transient < 2 * 1024 * 1024, transient


def test_line_memo_holds_one_value_per_decoded_event(monkeypatch):
    # 60000 distinct data lines over 16 pages and 4 threads decode to 64
    # distinct events, so the memo's entries share 64 values: what a held
    # line costs is its dict entry (the lines are built before tracing).
    # A value per line, a 4-tuple and a page int, would add about 85 bytes
    body = [f" L {0x1000_0000 + j % 16 * 4096 + j // 16 % 1024 * 4:x},4 t{j // 16384}\n"
            for j in range(60_000)]
    # five passes: the memo closes during the first and admits the rest
    # on their next misses, so the last pass only hits
    feed, decoded_at = _counting_decodes(monkeypatch, ["I  400000,4\n"] + body * 5)
    transient, _ = _transient_bytes(feed, AnalysisConfig(tau=528, every=528))
    assert max(decoded_at) <= 4 * len(body)
    assert transient <= 64 * len(body), transient / len(body)


def _counting_decodes(monkeypatch, lines):
    """``lines`` as a lazy iterable, and the list that gets the index of
    the line being read each time the engine decodes an event line."""
    position = [0]
    decoded_at = []

    def counting(line):
        fields = decode_event(line)
        if fields is not None:
            decoded_at.append(position[0])
        return fields

    def feed():
        for position[0], line in enumerate(lines):
            yield line

    monkeypatch.setattr("workset.engine.decode_event", counting)
    return feed(), decoded_at


def test_line_memo_hits_again_after_distinct_lines(monkeypatch):
    # after 150000 distinct lines the line memo admits a line on its
    # second miss only; then a loop of 200 lines must be memoized again.
    # Each of its lines is decoded twice, but lines whose fingerprints
    # share a slot miss on every pass, at least two a pass, until a
    # window of 512 misses ends and finds the memo hitting: within two
    # windows, and 256 passes after the one that ends the first
    distinct = _distinct_lines(3)[:150_000]
    loop = [f"I  {0x50_0000 + 8 * i:x},4\n" for i in range(100)]
    loop += [f" S {0x2000_0000 + 64 * i:x},8\n" for i in range(100)]
    lines = distinct + loop * 500
    feed, decoded_at = _counting_decodes(monkeypatch, lines)
    res = run_analysis(feed, AnalysisConfig(tau=528, every=528))
    assert res.samples
    assert decoded_at[:150_000] == list(range(150_000))
    second = decoded_at[150_000:]
    assert len(second) <= 3 * 200 + 2 * 512
    # and after that, every line of the loop is a memo hit
    assert max(second) < 150_000 + 260 * 200


def _three_phase_records(rng):
    """Stack declarations, then events in three phases: 10000 lines that
    never repeat, 30 passes of a loop of 100 lines, 3000 lines that
    never repeat; two threads switch stacks now and then. Long enough
    for the line memo to fill past 8192 entries and then admit lines on
    their second miss only."""
    records = [CallStackDecl(i, (f"f{i}.c:1", "main.c:9")) for i in range(3)]
    fresh = iter(range(10**6))

    def unique_event():
        i = next(fresh)
        thread = rng.randrange(2)
        if rng.random() < 0.5:
            return TraceEvent(FETCH, 0x40_0000 + 4 * i, 4, thread)
        # 300 data pages, offsets below 4000 so no access straddles
        address = 0x1000_0000 + i % 300 * 4096 + i // 300
        return TraceEvent(AccessKind.DATA_LOAD, address, rng.choice((1, 8, 16)), thread)

    loop = [unique_event() for _ in range(100)]
    events = [unique_event() for _ in range(10_000)]
    events += loop * 30
    events += [unique_event() for _ in range(3000)]
    return records + with_stack_switches(rng, events, 2, 0.01)


def test_results_when_the_line_memo_admits_on_second_miss(monkeypatch):
    records = _three_phase_records(random.Random(11))
    buf = io.StringIO()
    write_trace(records, buf)
    lines = buf.getvalue().splitlines(keepends=True)
    events = [r for r in records if isinstance(r, TraceEvent)]
    cfg = AnalysisConfig(tau=300, every=100, per_thread=True, top_n=10**6)
    expected = (slow_wss_series(events, 300, 100, 4096), slow_hot_pages(records, 4096))
    per_thread = {
        tid: (slow_wss_series(events, 300, 100, 4096, thread=tid),
              slow_hot_pages(records, 4096, thread=tid))
        for tid in (0, 1)
    }
    feed, decoded_at = _counting_decodes(monkeypatch, lines)
    from_text = run_analysis(feed, cfg)
    # the loop's lines were decoded again on their second pass, and hit
    # the memo once it admitted them
    event_lines = [line for line in lines if not line.startswith(("C", "U"))]
    assert len(set(event_lines)) < len(decoded_at) < len(event_lines)
    analyses = [from_text, run_analysis(read_trace(lines), cfg)]
    # a memo of 64 entries fills and is cleared many times a run; the
    # engine's clears its shared values with it. Each memo's entries and
    # values after each add, keyed by whether it shares values
    monkeypatch.setattr("workset.trace.LINE_MEMO_SIZE", 64)
    held = {True: [], False: []}
    add = LineMemo.add

    def add_and_count(memo, *args):
        add(memo, *args)
        values = memo._values
        held[values is not None].append((len(memo._entries), len(values or ())))

    monkeypatch.setattr(LineMemo, "add", add_and_count)
    analyses += [run_analysis(lines, cfg), run_analysis(read_trace(lines), cfg)]
    for shared, sizes in held.items():
        assert max(entries for entries, _ in sizes) == 64
        assert all(values <= entries if shared else values == 0 for entries, values in sizes)
        # cleared more than once
        assert sizes.count((1, int(shared))) > 1
    for res in analyses:
        assert (triples(res.samples), (ranking(res.insn), ranking(res.data))) == expected
        for tid, (series, hot) in per_thread.items():
            sub = res.threads[tid]
            # both threads run from the first instant on
            assert triples(sub.samples) == series
            assert (ranking(sub.insn), ranking(sub.data)) == hot


# --------------------------------------------------------------------------
# per-thread mode


def test_per_thread_matches_oracle():
    events = make_random_events(random.Random(4242), 600, threads=(0, 1, 3))
    cfg = AnalysisConfig(tau=37, every=23, per_thread=True)
    res = run_analysis(events, cfg)
    # the combined view is unchanged by the extra bookkeeping
    assert triples(res.samples) == slow_wss_series(events, 37, 23, 4096)
    assert set(res.threads) == {e.thread for e in events}
    for tid, sub in res.threads.items():
        oracle = {t: (wi, wd) for t, wi, wd in slow_wss_series(events, 37, 23, 4096, thread=tid)}
        instants = [s.t for s in sub.samples]
        # a thread samples every global boundary from its first event on
        ordered = sorted(oracle)
        assert instants == ordered[len(ordered) - len(instants):]
        for s in sub.samples:
            assert (s.wss_insn, s.wss_data) == oracle[s.t]


def test_thread_first_seen_after_boundary_skips_that_sample():
    events = [
        fetch(0x1000, thread=0),
        fetch(0x2000, thread=0),
        fetch(0x3000, thread=1),
        fetch(0x4000, thread=1),
    ]
    res = run_analysis(events, AnalysisConfig(tau=4, every=2, per_thread=True))
    assert [s.t for s in res.samples] == [2, 4]
    assert [s.t for s in res.threads[0].samples] == [2, 4]
    # thread 1 appears at t=3, after the t=2 boundary it must not sample
    assert [s.t for s in res.threads[1].samples] == [4]
    assert res.threads[1].samples[0].wss_insn == 2


def test_thread_first_seen_after_the_last_sample_has_no_samples():
    events = [fetch(0x1000 * t, thread=0) for t in range(1, 5)]
    events += [fetch(0x5000, thread=1), TraceEvent(AccessKind.DATA_STORE, 0x9000, 4, 1)]
    res = run_analysis(events, AnalysisConfig(tau=2, every=2, per_thread=True))
    assert [s.t for s in res.samples] == [2, 4]
    # thread 1 runs only at t=5, and the trace ends before t=6
    late = res.threads[1]
    assert late.samples == []
    assert (late.insn.summary.total_pages, late.data.summary.total_pages) == (1, 1)
    assert [(e.count, e.page) for e in late.insn.hot_pages] == [(1, 5)]
    assert [(e.count, e.page) for e in late.data.hot_pages] == [(1, 9)]


def test_thread_first_seen_before_any_fetch_starts_at_sample_one():
    events = [TraceEvent(AccessKind.DATA_STORE, 0x9000, 4, 1)]
    events += [fetch(0x1000 * t, thread=0) for t in range(1, 5)]
    res = run_analysis(events, AnalysisConfig(tau=4, every=2, per_thread=True))
    # the store at t=0 lies in the window (-2, 2] of sample 1 only
    assert triples(res.threads[1].samples) == [(2, 0, 1), (4, 0, 0)]
    assert triples(res.samples) == [(2, 2, 1), (4, 4, 0)]


def test_per_thread_with_empty_trace():
    res = run_analysis([], AnalysisConfig(per_thread=True))
    assert res.threads == {}


# --------------------------------------------------------------------------
# peak wiring and annotations


def test_peak_flags_on_step_workload():
    cfg = StepConfig(interval_insns=400, flat_pages=6, step_pages=40, flat_samples=12)
    records = gen_step(cfg)
    res = run_analysis(records, AnalysisConfig(tau=400, every=400, peak_detect=True))
    assert [s.peak_data for s in res.samples] == [False] * 12 + [True] + [False] * 12
    spike = res.samples[12]
    assert spike.annotation is not None
    data_anns = [a for a in res.annotations if a.stream is Stream.DATA]
    assert len(data_anns) == 1
    assert data_anns[0].t == spike.t == 13 * 400
    assert data_anns[0].frames == ()  # step workload carries no stacks
    assert data_anns[0].refs == 0


def test_peaks_off_by_default():
    records = gen_step(
        StepConfig(interval_insns=400, flat_pages=6, step_pages=40, flat_samples=12)
    )
    res = run_analysis(records, AnalysisConfig(tau=400, every=400))
    assert not any(s.peak_insn or s.peak_data for s in res.samples)
    assert res.annotations == []


def spike_trace(decl, activation, warm=6, interval=50):
    """Trace text: ``warm`` quiet intervals of 2 pages, then one 40-page
    burst, all fetching the same code address so the insn stream stays
    flat and only the data detector can fire."""
    lines = [decl, activation]

    def emit(npages):
        for p in range(npages):
            lines.append("I  00400000,4")
            lines.append(f" S {0x3000_0000 + p * 4096:08x},1")
        lines.extend("I  00400000,4" for _ in range(interval - npages))

    for _ in range(warm):
        emit(2)
    emit(40)
    return lines


@pytest.mark.parametrize(
    "decl,frames,refs",
    [
        ("C 7: alloc.c:12|main.c:40", ("alloc.c:12", "main.c:40"), 2),
        ("C 7: loop.c:5|loop.c:5", ("loop.c:5", "loop.c:5"), 1),
    ],
)
def test_annotation_captures_the_active_stack(decl, frames, refs):
    lines = spike_trace(decl, "U 0 7")
    res = run_analysis(
        read_trace(lines), AnalysisConfig(tau=50, every=50, peak_detect=True)
    )
    assert [s.peak_data for s in res.samples] == [False] * 6 + [True]
    assert not any(s.peak_insn for s in res.samples)
    ann = res.annotations[res.samples[6].annotation]
    assert ann.stream is Stream.DATA
    assert ann.t == 7 * 50
    assert ann.frames == frames
    assert ann.refs == refs


def test_per_thread_annotation_names_its_own_stack():
    """Thread 1's data series peaks at an instant that thread 0 ran up
    to: the combined annotation names thread 0's stack, thread 1's own
    annotation names thread 1's."""
    lines = [
        "C 0: idle.c:3|main.c:40",
        "C 1: alloc.c:12|worker.c:7|main.c:40",
        "U 0 0",
        "U 1 1",
    ]

    def interval(npages):
        for p in range(npages):
            lines.append("I  00400000,4 t1")
            lines.append(f" S {0x3000_0000 + p * 4096:08x},1 t1")
        lines.extend("I  00500000,4" for _ in range(50 - npages))

    for _ in range(6):
        interval(2)
    interval(40)
    cfg = AnalysisConfig(tau=50, every=50, per_thread=True, peak_detect=True)
    res = run_analysis(lines, cfg)
    assert [s.peak_data for s in res.samples] == [False] * 6 + [True]
    assert res.annotations[res.samples[6].annotation].frames == ("idle.c:3", "main.c:40")
    sub = res.threads[1]
    assert [s.peak_data for s in sub.samples] == [False] * 6 + [True]
    ann = sub.annotations[sub.samples[6].annotation]
    assert (ann.t, ann.stream) == (350, Stream.DATA)
    assert ann.frames == ("alloc.c:12", "worker.c:7", "main.c:40")
    assert ann.refs == 3
    assert res.threads[0].annotations == []


def event_stacks(records, thread=None):
    """(timestamp, stack id) of each event of ``thread``, or of every
    event when None: the stack the last activation for the event's
    thread named, None before the first."""
    current = {}
    now = 0
    out = []
    for rec in records:
        if isinstance(rec, StackActivation):
            current[rec.thread] = rec.stack
        elif isinstance(rec, TraceEvent):
            now += rec.kind is FETCH
            if thread is None or rec.thread == thread:
                out.append((now, current.get(rec.thread)))
    return out


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    tau=st.integers(1, 60),
    every=st.integers(1, 60),
    nthreads=st.integers(1, 3),
    straddle=st.booleans(),
    run=st.sampled_from((0, 1, 40)),
    switch_p=st.sampled_from((0.02, 0.3)),
)
@hand_off_examples
# both streams peak at some samples of the combined scope
@example(seed=0, n=200, tau=10, every=5, nthreads=2, straddle=False, run=0, switch_p=0.3)
def test_annotations_name_the_stack_of_the_last_event_property(
    seed, n, tau, every, nthreads, straddle, run, switch_p
):
    rng = random.Random(seed)
    threads = tuple(range(nthreads))
    events = make_random_events(rng, n, straddle=straddle, threads=threads, run=run)
    stacks = {i: (f"f{i}.c:1", f"g{i}.c:2", "main.c:9") for i in range(3)}
    records = [CallStackDecl(i, frames) for i, frames in stacks.items()]
    records += with_stack_switches(rng, events, 3, switch_p)
    # a low sensitivity, so that random series fire peaks often
    cfg = AnalysisConfig(tau=tau, every=every, per_thread=True, peak_detect=True, peak_g=0.2)
    res = run_analysis(records, cfg)
    for tid, scope in [(None, res), *res.threads.items()]:
        seen = event_stacks(records, tid)
        for ann in scope.annotations:
            ref = [stack for ts, stack in seen if ts <= ann.t][-1]
            frames = stacks.get(ref, ())
            assert (ann.frames, ann.refs) == (frames, len(set(frames)))
        # one annotation per peak flag, in sample order and insn before
        # data at one instant; a sample names the first of its own
        flags = []
        for s in scope.samples:
            first = len(flags) if s.peak_insn or s.peak_data else None
            assert s.annotation == first
            flags += [(s.t, Stream.INSN)] * s.peak_insn + [(s.t, Stream.DATA)] * s.peak_data
        assert [(ann.t, ann.stream) for ann in scope.annotations] == flags
        assert [ann.index for ann in scope.annotations] == list(range(len(flags)))


@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 400),
    tau=st.integers(1, 60),
    every=st.integers(1, 20),
    nthreads=st.integers(1, 3),
    run=st.sampled_from((0, 1, 40)),
    # none of them the default
    alpha=st.sampled_from((0.1, 0.6, 1.0)),
    phi=st.sampled_from((0.05, 0.5, 1.0)),
    g=st.sampled_from((0.1, 0.4, 2.0)),
    as_text=st.booleans(),
)
@example(seed=5, n=400, tau=12, every=3, nthreads=3, run=0, alpha=0.6, phi=0.5, g=0.1,
         as_text=True)
def test_peak_flags_are_the_detector_verdicts_property(
    seed, n, tau, every, nthreads, run, alpha, phi, g, as_text
):
    # each scope is judged on its own series, with the configured knobs
    rng = random.Random(seed)
    events = make_random_events(rng, n, threads=tuple(range(nthreads)), run=run)
    records = [CallStackDecl(i, (f"f{i}.c:1",)) for i in range(2)]
    records += with_stack_switches(rng, events, 2, 0.05)
    if as_text:
        buf = io.StringIO()
        write_trace(records, buf)
        records = buf.getvalue().splitlines(keepends=True)
    cfg = AnalysisConfig(tau=tau, every=every, per_thread=True, peak_detect=True,
                         peak_alpha=alpha, peak_phi=phi, peak_g=g)
    res = run_analysis(records, cfg)
    for scope in [res, *res.threads.values()]:
        for stream in ("insn", "data"):
            series = [getattr(s, f"wss_{stream}") for s in scope.samples]
            verdicts = reference_peak_series(series, alpha=alpha, phi=phi, g=g)
            assert [getattr(s, f"peak_{stream}") for s in scope.samples] == [
                v[0] for v in verdicts
            ]


# --------------------------------------------------------------------------
# config and input validation


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(tau=0),
        dict(tau=-5),
        dict(every=0),
        dict(page_size=1000),
        dict(page_size=0),
        dict(top_n=-1),
        dict(peak_alpha=0.0),
        dict(peak_phi=1.5),
        dict(peak_g=0.0),
        dict(page_size=2**65),  # a power of two, but above 2**64
    ],
)
def test_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        AnalysisConfig(**kwargs)


def test_rejects_non_event_records():
    with pytest.raises(TypeError):
        run_analysis([b"I 00400000,4\n"])  # lines of a file opened in binary mode
    with pytest.raises(TypeError):
        run_analysis([fetch(), (FETCH, 0x1000, 4)])


def test_accepts_stack_declarations():
    res = run_analysis([CallStackDecl(1, ("a.c:1",)), fetch()], AnalysisConfig(tau=1, every=1))
    assert len(res.samples) == 1
