"""Output-side checks: summary arithmetic, hot page ranking, and the
four emitters. CSV and JSON are checked field by field against the
result they render, because the column set and field names are
contractual (docs/result-schema.md)."""

import hashlib
import io
import json
import random
import re
import tracemalloc
import xml.etree.ElementTree as ET
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    make_random_events,
    make_random_result,
    random_text,
    slow_emit_json,
    slow_emit_svg,
)
from workset.engine import AnalysisConfig, _BucketTable, run_analysis
from workset.report import (
    CSV_HEADER,
    FORMATS,
    AnalysisResult,
    HotPageEntry,
    PeakAnnotation,
    SampleSeries,
    StreamResult,
    Summary,
    WssSample,
    emit,
    emit_csv,
    emit_json,
    emit_svg,
    emit_text,
    format_summary,
    load_label_map,
)
from workset.trace import AccessKind, CallStackDecl, StackActivation, Stream, TraceEvent
from workset.workloads import StepConfig, gen_step

SVG_NS = "{http://www.w3.org/2000/svg}"


def manual_result():
    samples = [WssSample(100, 2, 3), WssSample(200, 2, 8, False, True, 0)]
    ann = PeakAnnotation(0, 200, Stream.DATA, 1, ("f.c:1",))
    insn = StreamResult(
        Summary(Stream.INSN, 2.0, 2, 4, 4096), [HotPageEntry(5, 0x400, "code")]
    )
    data = StreamResult(
        Summary(Stream.DATA, 5.5, 8, 9, 4096), [HotPageEntry(3, 0x1000, "")]
    )
    return AnalysisResult(samples, insn, data, [ann], None)


def analyzed(n=400, **cfg_kwargs):
    events = make_random_events(random.Random(12), n, threads=(0, 1))
    cfg = AnalysisConfig(tau=29, every=17, **cfg_kwargs)
    return run_analysis(events, cfg)


# --------------------------------------------------------------------------
# summaries


def test_summarize_arithmetic():
    # the insn pages of the windows that samples 10, 20 and 30 count:
    # {0, 1}, {0, 1, 2} and {1, 2, 3, 4}
    pages = [0, 1] * 5 + [0, 1, 2] * 3 + [0] + [1, 2, 3, 4] * 2 + [1, 2]
    events = [TraceEvent(AccessKind.INSN_FETCH, page * 4096, 4) for page in pages]
    res = run_analysis(events, AnalysisConfig(tau=10))
    assert [(s.t, s.wss_insn) for s in res.samples] == [(10, 2), (20, 3), (30, 4)]
    assert res.insn.summary == Summary(Stream.INSN, 3.0, 4, 5, 4096)


def test_summarize_empty_sample_list():
    # the trace ends before the first sample is due
    events = [TraceEvent(AccessKind.INSN_FETCH, 0, 4), TraceEvent(AccessKind.DATA_LOAD, 0, 8)]
    res = run_analysis(events, AnalysisConfig(tau=10))
    assert len(res.samples) == 0
    s = res.data.summary
    assert s.avg_pages == 0.0 and s.peak_pages == 0 and s.total_pages == 1


def test_format_summary_exact():
    s = Summary(Stream.INSN, 3.0, 4, 5, 4096)
    assert format_summary(s) == "Insn avg/peak/total: 3.0/4/5 pages (12/16/20 kB)"
    s = Summary(Stream.DATA, 56.75, 57, 100, 4096)
    assert format_summary(s) == "Data avg/peak/total: 56.8/57/100 pages (227/228/400 kB)"


def test_format_summary_fractional_kb():
    # sub-4k pages produce fractional kB on the exact figures
    s = Summary(Stream.INSN, 1.0, 3, 5, 512)
    assert format_summary(s) == "Insn avg/peak/total: 1.0/3/5 pages (0/1.5/2.5 kB)"


# --------------------------------------------------------------------------
# hot pages


HOT_STACKS = {1: ("f.c:1", "g.c:2")}


def hot_table():
    table = _BucketTable()
    table.add([5, 5, 5], expires=1, upcoming=1, stack_ref=1)
    table.add([2, 2, 2], expires=2, upcoming=1)
    table.add([9], expires=3, upcoming=1)
    return table


def test_hot_pages_rank_by_count_then_page():
    table = hot_table()
    entries = table.hot_pages(len(table), HOT_STACKS)
    assert [(e.count, e.page) for e in entries] == [(3, 2), (3, 5), (1, 9)]


def test_hot_pages_limit():
    table = hot_table()
    assert len(table.hot_pages(2, HOT_STACKS)) == 2
    assert table.hot_pages(0, HOT_STACKS) == []
    with pytest.raises(ValueError):
        table.hot_pages(-1, HOT_STACKS)
    with pytest.raises(ValueError, match="^n must be >= 0, got a negative 16610-bit integer$"):
        table.hot_pages(-(10**5000), HOT_STACKS)


@settings(max_examples=150, deadline=None)
@given(
    batches=st.lists(
        st.tuples(st.lists(st.integers(0, 12), max_size=8), st.sampled_from([None, 1, 2, 9])),
        max_size=12,
    ),
    n=st.integers(0, 16),
    labels=st.dictionaries(st.integers(0, 12), st.sampled_from(["", "heap", "é"]), max_size=4),
)
@example(batches=[(list(range(8)) * 3, None)], n=3, labels={})  # one count for all
@example(batches=[([1, 1, 2, 3, 3], 1)], n=0, labels={})
def test_hot_pages_match_a_full_sort(batches, n, labels):
    stacks = {1: ("f.c:1", "g.c:2"), 2: ("h.c:3",)}
    table = _BucketTable()
    counts, first = Counter(), {}
    for expires, (pages, ref) in enumerate(batches, 1):
        table.add(pages, expires, 1, ref)
        counts.update(pages)
        for page in pages:
            first.setdefault(page, ref)
    ranked = sorted(counts, key=lambda page: (-counts[page], page))[:n]
    expected = [
        (counts[page], page,
         labels[page] if page in labels else stacks.get(first[page], ("",))[0])
        for page in ranked
    ]
    entries = table.hot_pages(n, stacks, labels)
    assert [(e.count, e.page, e.info) for e in entries] == expected


def test_hot_pages_of_tied_pages_take_memory_for_the_answer_only():
    # pages touched once all tie at the cut: ranking them must neither
    # copy nor sort them
    pages = random.Random(3).sample(range(1 << 40), 100_000)
    table = _BucketTable()
    table.add(pages, 1, 1)
    tracemalloc.start()
    try:
        entries = table.hot_pages(10, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [(e.count, e.page) for e in entries] == [(1, page) for page in sorted(pages)[:10]]
    assert peak < 16_384


def test_hot_pages_counts_sum_to_total_accesses():
    table = hot_table()
    # hot_table() records seven accesses
    assert sum(e.count for e in table.hot_pages(len(table), HOT_STACKS)) == 7


def test_hot_pages_info_resolution():
    # label map wins, then the first-touch stack frame, then blank
    table = hot_table()
    entries = table.hot_pages(len(table), HOT_STACKS, label_map={2: "heap"})
    info = {e.page: e.info for e in entries}
    assert info == {2: "heap", 5: "f.c:1", 9: ""}
    entries = table.hot_pages(len(table), HOT_STACKS, label_map={5: "code"})
    assert {e.page: e.info for e in entries}[5] == "code"


def test_load_label_map():
    lines = ["# comment", "", "0x12 heap", "1f stack region  ", "1a\tfoo", "2b \t bar\tbaz"]
    assert load_label_map(lines) == {
        0x12: "heap", 0x1F: "stack region", 0x1A: "foo", 0x2B: "bar\tbaz",
    }


@pytest.mark.parametrize(
    "bad", ["zz heap", "12", "1_0 heap", "+1f heap", "-2 heap", "\u0663 heap", "0x0x3 heap"]
)
def test_load_label_map_rejects(bad):
    with pytest.raises(ValueError):
        load_label_map([bad])


def test_load_label_map_quotes_an_excerpt_of_a_bad_page():
    with pytest.raises(ValueError, match=r"^label map line 2: bad page 'zzzz") as info:
        load_label_map(["1 heap", "z" * 100_000 + " heap"])
    assert len(str(info.value)) < 150


# --------------------------------------------------------------------------
# CSV


def test_csv_exact_rows():
    buf = io.StringIO()
    emit_csv(manual_result(), buf)
    assert buf.getvalue() == (
        "t,WSS_insn,WSS_data,peak_insn,peak_data,annotation\n"
        "100,2,3,0,0,\n"
        "200,2,8,0,1,0\n"
    )


def assert_csv_rows_match(result):
    buf = io.StringIO()
    emit_csv(result, buf)
    header, *rows = buf.getvalue().splitlines()
    assert header == CSV_HEADER
    assert [row.split(",") for row in rows] == [
        [str(s.t), str(s.wss_insn), str(s.wss_data), str(int(s.peak_insn)),
         str(int(s.peak_data)), "" if s.annotation is None else str(s.annotation)]
        for s in result.samples
    ]


def test_csv_round_trip():
    assert_csv_rows_match(manual_result())


def test_csv_round_trip_analyzed():
    assert_csv_rows_match(analyzed(peak_detect=True))


# --------------------------------------------------------------------------
# JSON


def test_json_round_trip_manual():
    result = manual_result()
    buf = io.StringIO()
    emit_json(result, buf)
    assert json.loads(buf.getvalue()) == result.to_dict()


def test_json_round_trip_per_thread():
    result = analyzed(per_thread=True, peak_detect=True)
    assert result.threads  # the fixture really exercises the nesting
    buf = io.StringIO()
    emit_json(result, buf)
    back = json.loads(buf.getvalue())
    assert back == result.to_dict()
    assert list(back["threads"]) == [str(tid) for tid in sorted(result.threads)]


SCHEMA = Path(__file__).resolve().parent.parent / "docs" / "result-schema.md"


def schema_tables(text):
    """The field names of each '### <name>' table, in table order."""
    tables, name = {}, None
    for line in text.splitlines():
        if line.startswith("### "):
            name = line[4:]
            tables[name] = []
        elif name is not None and (m := re.match(r"\| `(\w+)`\s*\|", line)):
            tables[name].append(m.group(1))
    return tables


def test_to_dict_keys_follow_the_schema_doc():
    text = SCHEMA.read_text(encoding="utf-8")
    block = re.search(r"```json\n(.*?)```", text, re.S).group(1)
    top = re.findall(r'^  "(\w+)":', block, re.M)
    stream = re.findall(r'"(\w+)":', re.search(r'^  "insn":.*$', block, re.M).group())[1:]
    tables = schema_tables(text)
    assert top and stream and all(tables.get(name) for name in
                                  ("Sample", "Summary", "Hot page entry", "Annotation"))
    result = manual_result()
    result.threads = {1: manual_result()}
    doc = result.to_dict()
    assert list(doc) == top
    assert list(doc["threads"]["1"]) == top
    assert list(doc["insn"]) == list(doc["data"]) == stream
    assert list(doc["samples"][0]) == tables["Sample"]
    assert list(doc["insn"]["summary"]) == tables["Summary"]
    assert list(doc["insn"]["hot_pages"][0]) == tables["Hot page entry"]
    assert list(doc["annotations"][0]) == tables["Annotation"]
    assert f"```\n{CSV_HEADER}\n```" in text


def test_json_bytes_match_the_json_module():
    rng = random.Random(20)
    seen = Counter()
    for _ in range(600):
        result = make_random_result(rng)
        buf = io.StringIO()
        emit_json(result, buf)
        assert buf.getvalue() == slow_emit_json(result)
        scopes = [result, *(result.threads or {}).values()]
        seen["per-thread"] += bool(result.threads)
        seen["large tid"] += any(tid > 2**31 for tid in result.threads or ())
        seen["no samples"] += any(not r.samples for r in scopes)
        seen["both peaks"] += any(s.peak_insn and s.peak_data for r in scopes for s in r.samples)
        seen["top_n 0"] += any(not r.insn.hot_pages for r in scopes)
        frames = [f for r in scopes for a in r.annotations for f in a.frames]
        seen["escaped NUL text"] += any("\\u0000" in f for f in frames)
        seen["quote NUL digit"] += any('"\x001' in f for f in frames)
    assert min(seen.values()) >= 20, seen
    # sample lists longer than one write chunk, at both nesting depths
    result = make_random_result(random.Random(21), nested=False)
    result.samples = [WssSample(t, t % 5, t % 7, t % 3 == 0, t % 2 == 0, None)
                      for t in range(1, 1100)]
    result.threads = {5: AnalysisResult(result.samples[:513], result.insn, result.data, [])}
    buf = io.StringIO()
    emit_json(result, buf)
    assert buf.getvalue() == slow_emit_json(result)
    # and results of real analyses, labeled with the same awkward text
    for seed in range(60):
        rng = random.Random(seed)
        events = make_random_events(rng, 300, threads=(0, 3, 2**40))
        labels = {page: random_text(rng) for page in range(0x10000, 0x10040)}
        cfg = AnalysisConfig(tau=rng.randrange(1, 60), every=rng.randrange(1, 30),
                             per_thread=True, peak_detect=True, top_n=rng.randrange(6))
        result = run_analysis(events, cfg, label_map=labels)
        buf = io.StringIO()
        emit_json(result, buf)
        assert buf.getvalue() == slow_emit_json(result)


class _CountingSink:
    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)


def test_emit_json_holds_less_than_its_output():
    # the writer streams: its peak traced memory stays below the size of
    # the document, which a writer that builds the whole text, or one
    # dict per sample, exceeds
    def scope(n, step):
        samples = [WssSample(t, t % 97, t % 89, t % 31 == 0, t % 37 == 0, None)
                   for t in range(step, step * (n + 1), step)]
        insn = StreamResult(Summary(Stream.INSN, 40.5, 96, 200, 4096),
                            [HotPageEntry(900 - i, i, f"f{i}.c:1") for i in range(10)])
        data = StreamResult(Summary(Stream.DATA, 30.25, 88, 500, 4096), [])
        return AnalysisResult(samples, insn, data, [])

    result = scope(10_000, 50)
    result.threads = {tid: scope(2_500, 200) for tid in range(4)}
    sink = _CountingSink()
    tracemalloc.start()
    try:
        emit_json(result, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 3_000_000
    assert peak < sink.size


# --------------------------------------------------------------------------
# sample series


def series_and_list():
    """A column-backed series with peaks, longer than one chunk of its
    iteration, and the list of its samples."""
    events = make_random_events(random.Random(12), 3000)
    cfg = AnalysisConfig(tau=29, every=2, peak_detect=True, peak_g=0.2)
    samples = run_analysis(events, cfg).samples
    assert isinstance(samples, SampleSeries)
    expected = list(samples)
    assert any(s.annotation is not None for s in expected)
    return samples, expected


def test_sample_series_is_a_read_only_sequence():
    samples, expected = series_and_list()
    n = len(samples)
    assert n == len(expected) > 512
    assert expected == [samples[i] for i in range(n)]
    assert [samples[-i] for i in range(1, n + 1)] == expected[::-1]
    for cut in (slice(3, 9), slice(None, None, -1), slice(-5, None), slice(1, -1, 4),
                slice(n, None), slice(7, 2), slice(-3 * n, 3 * n, 7)):
        assert samples[cut] == expected[cut]
    for bad in (n, -n - 1, 10**30):
        with pytest.raises(IndexError, match="^sample index out of range$"):
            samples[bad]
    with pytest.raises(TypeError):
        samples["0"]
    # equal to a list or tuple of equal samples, either way round
    assert samples == expected and expected == samples
    assert samples == tuple(expected) and not samples != expected
    assert samples != expected[:-1] and samples != [*expected[:-1], WssSample(0, 0, 0)]
    assert samples != iter(expected) and samples != "samples"
    assert list(reversed(samples)) == expected[::-1]
    assert expected[5] in samples and samples.index(expected[5]) == 5
    # a sample read from the series is a copy
    first = samples[0]
    first.wss_insn += 1
    first.annotation = 99
    assert samples[0] == expected[0] != first
    with pytest.raises(TypeError):
        samples[0] = first
    with pytest.raises(TypeError):
        hash(samples)
    empty = analyzed(n=0).samples
    assert len(empty) == 0 and list(empty) == [] and empty == [] and empty == ()


def test_sample_series_iterates_without_building_the_list():
    # 70000 samples as WssSample objects take over 7 MB; iteration holds
    # one chunk of them at a time
    events = [TraceEvent(AccessKind.INSN_FETCH, 0x40_0000, 4, 0)] * 70_000
    samples = run_analysis(events, AnalysisConfig(tau=8, every=1)).samples
    assert len(samples) == 70_000
    tracemalloc.start()
    try:
        total = 0
        for s in samples:
            total += s.t
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == 70_000 * 70_001 // 2
    assert peak <= 256 * 1024, peak


def as_lists(result):
    """``result`` with every scope's samples rebuilt as a plain list."""
    threads = result.threads
    if threads is not None:
        threads = {tid: as_lists(sub) for tid, sub in threads.items()}
    return AnalysisResult(list(result.samples), result.insn, result.data, result.annotations,
                          threads)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 500), tau=st.integers(1, 60),
       every=st.integers(1, 20), g=st.sampled_from((0.1, 0.5, 1.0)))
@example(seed=3, n=500, tau=9, every=1, g=0.1)
def test_emitters_read_a_series_as_its_list_property(seed, n, tau, every, g):
    rng = random.Random(seed)
    events = make_random_events(rng, n, threads=(0, 1, 2**40))
    cfg = AnalysisConfig(tau=tau, every=every, per_thread=True, peak_detect=True, peak_g=g)
    result = run_analysis(events, cfg)
    plain = as_lists(result)
    for fmt in FORMATS:
        got, want = io.StringIO(), io.StringIO()
        emit(result, fmt, got)
        emit(plain, fmt, want)
        assert got.getvalue() == want.getvalue(), fmt
    assert result.to_dict() == plain.to_dict()


# --------------------------------------------------------------------------
# text


def test_text_summary_lines_come_first():
    buf = io.StringIO()
    emit_text(manual_result(), buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "Insn avg/peak/total: 2.0/2/4 pages (8/8/16 kB)"
    assert lines[1] == "Data avg/peak/total: 5.5/8/9 pages (22/32/36 kB)"


def test_text_summary_grammar():
    buf = io.StringIO()
    emit_text(analyzed(), buf)
    lines = buf.getvalue().splitlines()
    pat = re.compile(
        r"^(Insn|Data) avg/peak/total: \d+\.\d/\d+/\d+ pages \(\d+/[\d.]+/[\d.]+ kB\)$"
    )
    assert pat.match(lines[0]) and pat.match(lines[1])


def test_text_hot_page_table_layout():
    buf = io.StringIO()
    emit_text(manual_result(), buf)
    text = buf.getvalue()
    assert "Insn pages (4 entries, top 1):" in text
    assert "Data pages (9 entries, top 1):" in text
    assert "           5  0x0400      code\n" in text
    assert "Peaks (1):" in text
    assert "[0] refs=1, loc=f.c:1\n" in text


def test_text_peak_without_frames_prints_question_mark():
    result = manual_result()
    result.annotations[0] = PeakAnnotation(0, 200, Stream.DATA, 0, ())
    buf = io.StringIO()
    emit_text(result, buf)
    assert "[0] refs=0, loc=?\n" in buf.getvalue()


def test_text_untruncated_listing_has_no_top_note():
    buf = io.StringIO()
    emit_text(analyzed(top_n=0), buf)
    assert ", top 0):" in buf.getvalue()
    buf = io.StringIO()
    emit_text(analyzed(n=40, top_n=10_000), buf)
    assert ", top" not in buf.getvalue()


def test_text_per_thread_sections():
    buf = io.StringIO()
    emit_text(analyzed(per_thread=True), buf)
    text = buf.getvalue()
    assert "== Thread 0 ==" in text
    assert "== Thread 1 ==" in text


def test_text_report_bytes_exact():
    def thread(insn, data, insn_hot, data_hot):
        return AnalysisResult([], StreamResult(Summary(Stream.INSN, *insn, 4096), insn_hot),
                              StreamResult(Summary(Stream.DATA, *data, 4096), data_hot), [])

    result = AnalysisResult(
        [WssSample(100, 2, 3), WssSample(200, 2, 8, False, True, 0), WssSample(300, 4, 8, True)],
        StreamResult(Summary(Stream.INSN, 2.0, 4, 4, 4096), [HotPageEntry(5, 0x400, "f.c:1")]),
        StreamResult(Summary(Stream.DATA, 5.5, 8, 9, 1024),
                     [HotPageEntry(12, 0x20000, "café"), HotPageEntry(3, 0x1000, "")]),
        [PeakAnnotation(0, 200, Stream.DATA, 2, ("f.c:1", "main.c:9")),
         PeakAnnotation(1, 300, Stream.INSN, 0, ())],
        # out of order, as sections come in thread id order
        {1: thread((1.0, 1, 1), (0.5, 2, 2), [HotPageEntry(4, 0x401, "g.c:2")],
                   [HotPageEntry(7, 0x20000, "café"), HotPageEntry(1, 0x1001, "")]),
         0: thread((1.0, 1, 3), (0.0, 0, 0), [], [])},
    )
    buf = io.StringIO()
    emit_text(result, buf)
    assert buf.getvalue() == (
        "Insn avg/peak/total: 2.0/4/4 pages (8/16/16 kB)\n"
        "Data avg/peak/total: 5.5/8/9 pages (6/8/9 kB)\n"
        "\n"
        "Insn pages (4 entries, top 1):\n"
        "       count  page        info\n"
        "           5  0x0400      f.c:1\n"
        "\n"
        "Data pages (9 entries, top 2):\n"
        "       count  page        info\n"
        "          12  0x20000     café\n"
        "           3  0x1000      \n"
        "\n"
        "Peaks (2):\n"
        "[0] refs=2, loc=f.c:1|main.c:9\n"
        "[1] refs=0, loc=?\n"
        "\n"
        "== Thread 0 ==\n"
        "Insn avg/peak/total: 1.0/1/3 pages (4/4/12 kB)\n"
        "Data avg/peak/total: 0.0/0/0 pages (0/0/0 kB)\n"
        "\n"
        "Insn pages (3 entries, top 0):\n"
        "\n"
        "Data pages (0 entries):\n"
        "\n"
        "== Thread 1 ==\n"
        "Insn avg/peak/total: 1.0/1/1 pages (4/4/4 kB)\n"
        "Data avg/peak/total: 0.5/2/2 pages (2/8/8 kB)\n"
        "\n"
        "Insn pages (1 entries):\n"
        "       count  page        info\n"
        "           4  0x0401      g.c:2\n"
        "\n"
        "Data pages (2 entries):\n"
        "       count  page        info\n"
        "           7  0x20000     café\n"
        "           1  0x1001      \n"
    )


# --------------------------------------------------------------------------
# SVG


def test_svg_is_well_formed_with_both_series():
    buf = io.StringIO()
    emit_svg(manual_result(), buf)
    root = ET.fromstring(buf.getvalue())
    assert root.tag == f"{SVG_NS}svg"
    paths = root.findall(f".//{SVG_NS}path")
    strokes = {p.get("stroke") for p in paths}
    assert strokes == {"#4878a8", "#c44e52"}


def test_svg_marks_each_peak_once():
    buf = io.StringIO()
    emit_svg(manual_result(), buf)
    root = ET.fromstring(buf.getvalue())
    assert len(root.findall(f".//{SVG_NS}circle")) == 1
    labels = [t.text for t in root.findall(f".//{SVG_NS}text")]
    assert "[0]" in labels
    assert "instructions" in labels and "pages" in labels


def test_svg_with_no_samples_is_still_well_formed():
    result = AnalysisResult(
        [],
        StreamResult(Summary(Stream.INSN, 0.0, 0, 0, 4096), []),
        StreamResult(Summary(Stream.DATA, 0.0, 0, 0, 4096), []),
        [],
    )
    buf = io.StringIO()
    emit_svg(result, buf)
    root = ET.fromstring(buf.getvalue())
    assert root.findall(f".//{SVG_NS}path") == []


def test_svg_of_samples_all_at_time_zero_is_complete():
    result = manual_result()
    result.samples = [WssSample(0, 1, 1)]
    result.annotations = []
    buf = io.StringIO()
    emit_svg(result, buf)
    assert buf.getvalue().endswith("</svg>\n")
    root = ET.fromstring(buf.getvalue())
    assert root.tag == f"{SVG_NS}svg"
    assert len(root.findall(f".//{SVG_NS}path")) == 2


def assert_svg_bytes(result):
    buf = io.StringIO()
    emit_svg(result, buf)
    assert buf.getvalue() == slow_emit_svg(result)


def test_svg_bytes_match_the_whole_list_plot():
    rng = random.Random(24)
    seen = Counter()
    for _ in range(600):
        result = make_random_result(rng)
        # each thread's sub-result is a result of its own
        for scope in (result, *(result.threads or {}).values()):
            assert_svg_bytes(scope)
            seen["no samples"] += not scope.samples
            seen["peaks"] += bool(scope.annotations)
            seen["sub-result"] += scope is not result
    assert min(seen.values()) >= 20, seen
    # hand-built series: out of time order, a repeated instant (the last
    # sample there places the marker), an annotation with no sample, a
    # negative instant, and lengths at the edges of a chunk
    ann = [PeakAnnotation(0, 30, Stream.INSN, 0, ()), PeakAnnotation(1, 30, Stream.DATA, 0, ()),
           PeakAnnotation(2, 99, Stream.DATA, 0, ())]
    result = manual_result()
    result.annotations = ann
    for samples in ([WssSample(30, 4, 0), WssSample(10, 0, 9), WssSample(30, 7, 2)],
                    [WssSample(-5, 3, 3), WssSample(30, 0, 0)], [WssSample(30, 0, 0)]):
        result.samples = samples
        assert_svg_bytes(result)
    for n in (1, 2, 511, 512, 513, 1024, 1025):
        result.samples = [WssSample(t, t % 7, t * t % 11) for t in range(3, 3 * n + 1, 3)]
        assert_svg_bytes(result)


@pytest.mark.parametrize("make", [
    # peaks on most samples, each one marked
    lambda: run_analysis(gen_step(StepConfig()),
                         AnalysisConfig(tau=50, every=10, peak_detect=True)),
    lambda: analyzed(n=3000, per_thread=True, peak_detect=True),
    lambda: analyzed(n=0),
], ids=["step-peaks", "per-thread", "empty"])
def test_svg_bytes_of_an_analysis_match_the_whole_list_plot(make):
    result = make()
    assert isinstance(result.samples, SampleSeries)
    for scope in (result, *(result.threads or {}).values()):
        assert_svg_bytes(scope)


def test_emit_svg_holds_no_object_per_sample():
    # 100000 samples built from columns: a plot that lists its points
    # traces about 480 bytes per sample, and this one about 14
    n = 100_000
    insn = array("q", (i % 977 for i in range(n)))
    data = array("q", (i * 7 % 1999 for i in range(n)))
    result = manual_result()
    result.samples = SampleSeries(range(5, 5 * (n + 1), 5), insn, data, [])
    result.annotations = []
    sink = _CountingSink()
    tracemalloc.start()
    try:
        emit_svg(result, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sink.size > 10 * 2 * n
    assert peak <= 64 * n, peak / n


# --------------------------------------------------------------------------
# dispatcher


@pytest.mark.parametrize("format", ["text", "csv", "json", "svg"])
def test_emit_dispatch(format):
    buf = io.StringIO()
    emit(manual_result(), format, buf)
    assert buf.getvalue()


def test_emit_rejects_unknown_format():
    with pytest.raises(ValueError):
        emit(manual_result(), "yaml", io.StringIO())


# --------------------------------------------------------------------------
# pinned bytes


def stack_switching_threads():
    """Three threads taking turns, 40 events each, under three declared
    stacks that they switch between now and then."""
    rng = random.Random(32)
    records = [CallStackDecl(0, ("main.c:1",)), CallStackDecl(1, ("scan.c:7", "main.c:1")),
               CallStackDecl(2, ("copy.c:3", "scan.c:7", "main.c:1"))]
    for ev in make_random_events(rng, 6000, threads=(0, 1, 2), run=40):
        if rng.random() < 0.01:
            records.append(StackActivation(ev.thread, rng.randrange(3)))
        records.append(ev)
    return records


PINNED = {
    # the step workload sampled finely: 3,906 data peaks, most of them zeros
    "step": (lambda: gen_step(StepConfig()), AnalysisConfig(tau=50, every=10, peak_detect=True), {
        "text": "f4147c7fb79cd27aef3af9096427218a5cf9c641b8a27093a12eb027fbe18543",
        "csv": "169f8fa48f7319e4bd5ed916d841da8231b70e8c3a7ff5775ee53c792a99e656",
        "json": "327e2f5fcc34d1064e3ba649a67f0af7003e33a277066df5e5652b9e4f1d6950",
        "svg": "076ecee71b5622f9045baf2099b9fce50b3848a1598e9b4e76ba8e179fef58fb",
    }),
    # peaks on both streams of every scope, under four stacks (none among them)
    "threads": (stack_switching_threads, AnalysisConfig(
        tau=40, every=10, per_thread=True, peak_detect=True, peak_g=0.5), {
        "text": "b17bddaf21d4445ab702e3d68710a865d6c033bd256ab72b88ddbfa185dbedc7",
        "csv": "24b3c529b66550d9445184010d7bfad60dd978bcac9acbc536432c29d108efea",
        "json": "e335d6ba623a00529040772014b020ba54acbef0363b7050ad23fad9f53b9179",
        "svg": "c6eab000fe721006a122919e2181dd232aba3f6d34fddffc3c5db57cbb282451",
    }),
}


@pytest.mark.parametrize("name", PINNED)
def test_emitted_bytes_are_pinned(name):
    # a change to the engine, the peak post-pass or an emitter that is
    # meant to keep every output must keep these digests
    records, cfg, digests = PINNED[name]
    result = run_analysis(records(), cfg)
    got = {}
    for fmt in FORMATS:
        sink = io.StringIO()
        emit(result, fmt, sink)
        got[fmt] = hashlib.sha256(sink.getvalue().encode("utf-8")).hexdigest()
    assert got == digests
