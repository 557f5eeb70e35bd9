"""Trace grammar: parsing, error handling, stack attribution, round trips."""

import io
import logging
import tracemalloc
from itertools import islice

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import split_parse_event
from workset.engine import AnalysisConfig, run_analysis
from workset.report import emit
from workset.trace import (
    AccessKind,
    CallStackDecl,
    MAX_ACCESS_SIZE,
    StackActivation,
    TraceEvent,
    TraceParseError,
    parse_line,
    parse_record,
    read_trace,
    write_trace,
)


# --------------------------------------------------------------------------
# parse_line


def test_parse_insn_fetch():
    assert parse_line("I  04010173,3") == TraceEvent(AccessKind.INSN_FETCH, 0x04010173, 3)


def test_parse_store_with_thread():
    ev = parse_line(" S 1ffefffd70,8 t1")
    assert ev == TraceEvent(AccessKind.DATA_STORE, 0x1FFEFFFD70, 8, 1)


def test_parse_load_and_modify():
    assert parse_line(" L 1ffefffb58,8").kind is AccessKind.DATA_LOAD
    assert parse_line(" M 0425e140,4").kind is AccessKind.DATA_MODIFY


def test_parse_call_stack_decl():
    rec = parse_line("C 4: pageramp.c:37|pageramp.c:77")
    assert rec == CallStackDecl(4, ("pageramp.c:37", "pageramp.c:77"))


def test_parse_activation():
    assert parse_line("U 1 4") == StackActivation(1, 4)


def test_parse_comment_and_blank():
    assert parse_line("# anything at all") is None
    assert parse_line("") is None
    assert parse_line("   \n") is None


def test_parse_hex_prefix_and_missing_leading_space():
    assert parse_line("L 0xdeadbeef,4") == TraceEvent(AccessKind.DATA_LOAD, 0xDEADBEEF, 4)


def test_thread_defaults_to_zero():
    assert parse_line("I  1000,1").thread == 0


def test_frames_may_contain_spaces():
    rec = parse_line("C 0: touch pages (a.c:3)|main (a.c:9)")
    assert rec.frames == ("touch pages (a.c:3)", "main (a.c:9)")


@pytest.mark.parametrize(
    "line",
    [
        "I  zzzz,4",          # bad address
        "I  1000,x",          # bad size
        "I  1000,0",          # zero size
        "I  1000",            # missing size
        "I  1000,4 t1 extra", # trailing junk
        "I  1000,4 1",        # malformed thread
        "Q 1000,4",           # unknown tag
        "C x: a|b",           # bad stack id
        "C 1: a||b",          # empty frame
        "C 1 a|b",            # missing colon
        "U 1",                # short activation
        "U one 2",            # non-numeric activation
        " L 10,4 t\u00b2",    # superscript two: isdigit() but not int()
        "C \u00b2: a",
        "U \u00b2 \u00b2",
        " L 1_000,4",        # int() accepts '_' separators
        " L 1000,+4",        # and signs
        " L +1000,4",
        " L -1000,4",
        " L 0x0x10,4",       # one prefix only
        " L 10,\u0663",       # Arabic-Indic digits: int() accepts them
        " L 1\u0660,4",
        " L 10,4 t\u0661",
        "U \u0661 2",
        "I \udcff,4",         # undecodable byte under surrogateescape
        "C 1: a\udcff|b",
        # more digits than int() converts
        pytest.param("I  1000,4 t" + "9" * 5000, id="long-thread-id"),
        pytest.param("C " + "9" * 5000 + ": a", id="long-stack-id"),
        " L 0,65537",         # above MAX_ACCESS_SIZE
        " L 0,68719476736",   # would touch 16M pages
        " L 1" + "0" * 16 + ",4",  # address 2**64
        "I  ffffffffffffffff,8",   # ends past 2**64
        pytest.param("I  " + "f" * 3600 + ",4", id="huge-address"),
        pytest.param("U " + "1 " * 3000, id="long-activation"),
        pytest.param("Q" * 5000, id="long-tag"),
    ],
)
def test_parse_errors(line):
    with pytest.raises(TraceParseError) as info:
        parse_line(line)
    # the message quotes at most a bounded excerpt of the line
    assert len(str(info.value)) < 300


_GRAMMAR_BITS = st.sampled_from(
    ["I", "L", "S", "M", "C", "U", "#", " ", "\t", ",", ":", "|", "t", "0x", "0", "7",
     "f", "_", "+", "-", "\u00b2", "\u0663", "\udcff", "\u3000", "\x1c", "\n"]
)


@given(st.one_of(st.text(), st.lists(_GRAMMAR_BITS, max_size=12).map("".join)))
def test_parse_line_returns_record_or_raises_parse_error(line):
    try:
        rec = parse_line(line)
    except TraceParseError:
        return
    assert rec is None or isinstance(rec, (TraceEvent, CallStackDecl, StackActivation))


def _outcome(parse, line):
    try:
        return parse(line)
    except TraceParseError:
        return "error"


_WS_BITS = st.sampled_from(
    ["", " ", "  ", "\t", "\x1c", "\x1f", "\x0b\x0c", "\r\n", "\n", "\u3000", "\x85"]
)


@st.composite
def event_like_lines(draw):
    """Event records and near misses, field by field."""
    tag = draw(st.sampled_from(["I", "L", "S", "M", "IL", "i", "C", ""]))
    prefix = draw(st.sampled_from(["", "", "0x", "0X", "0x0x", "x", "+", "-"]))
    addr = draw(st.one_of(
        st.text("0123456789abcdefABCDEFgx_\u0663", max_size=10),
        st.sampled_from(["1" + "0" * 16, "0" * 20 + "f" * 16]),  # 2**64, 2**64 - 1
    ))
    comma = draw(st.sampled_from([",", ",", ",,", "", ";"]))
    size = draw(st.one_of(
        st.integers(0, 70000).map(str),
        st.integers(65530, 65540).map(str),
        st.tuples(st.text("0", max_size=5), st.integers(0, 99).map(str)).map("".join),
        st.sampled_from(["", "+4", "4_0", "\u0663", "\u00b2", "4 ", "9" * 4301,
                         "0" * 4299 + "1", "0" * 4300 + "1"]),
    ))
    thread = draw(st.sampled_from(
        ["", "", " t0", " t17", "\tt007", "\x1ct3", " t", " 1", " t-1", " t\u0661",
         " t" + "9" * 4300, " t" + "9" * 4301, " tt1", " t1 t2"]
    ))
    junk = draw(st.sampled_from(["", "", "", " x", "#", "\udcff", "\u00e9", ",4"]))
    lead, mid, tail = draw(_WS_BITS), draw(_WS_BITS), draw(_WS_BITS)
    return f"{lead}{tag}{mid}{prefix}{addr}{comma}{size}{thread}{junk}{tail}"


@settings(max_examples=500)
@given(st.one_of(event_like_lines(), st.lists(_GRAMMAR_BITS, max_size=12).map("".join)))
@example("\tI\t0X1F,0004\tt09\r\n")
@example("\x1c L\x1c10,65536\x1d")
@example(" S 10,65537")
@example(" L 10," + "0" * 4300 + "1")
@example(" L 10,4 t" + "1" * 4301)
@example(" L 10,\u0664")
@example(" M 10,4 t1 junk")
@example(" L 1" + "0" * 16 + ",4")
@example(" L " + "0" * 20 + "f" * 16 + ",4")
def test_event_grammar_matches_split_oracle(line):
    expected = _outcome(split_parse_event, line)
    got = _outcome(parse_line, line)
    if expected is None:  # not an event record: parse_line must not decode one
        assert not isinstance(got, TraceEvent)
    else:
        assert got == expected


def test_parse_line_accepts_non_ascii_frames():
    assert parse_line("C 3: caf\u00e9.c:1").frames == ("caf\u00e9.c:1",)


def test_parse_error_carries_line_number():
    with pytest.raises(TraceParseError) as exc:
        parse_line("garbage", lineno=17)
    assert exc.value.lineno == 17
    assert "line 17" in str(exc.value)


@pytest.mark.parametrize("strict", [True, False], ids=["strict", "lenient"])
@pytest.mark.parametrize(
    "head", ["U 1 ", " L ", "Q "], ids=["activation", "event", "unknown-tag"]
)
def test_one_long_line_costs_memory_bounded_by_its_length(head, strict, caplog):
    # a token list of the line's million words would cost tens of times
    # the line; a bounded split and a bounded excerpt cost at most one
    # copy of it
    line = head + "2 " * 1_000_000
    tracemalloc.start()
    try:
        try:
            assert parse_record(line, 1, {}, strict) is None
        except TraceParseError as exc:
            assert strict and exc.lineno == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * len(line)


# --------------------------------------------------------------------------
# read_trace


SAMPLE = """\
# header comment
C 4: pageramp.c:37|pageramp.c:77
I  04010173,3
U 0 4
I  04010176,2
 L 1ffefffb58,8
 S 1ffefffd70,8 t1
"""


def test_read_trace_yields_records_in_order():
    records = list(read_trace(io.StringIO(SAMPLE)))
    assert isinstance(records[0], CallStackDecl)
    assert isinstance(records[2], StackActivation)
    kinds = [r.kind for r in records if isinstance(r, TraceEvent)]
    assert kinds == [
        AccessKind.INSN_FETCH,
        AccessKind.INSN_FETCH,
        AccessKind.DATA_LOAD,
        AccessKind.DATA_STORE,
    ]


def test_read_trace_attaches_stack_refs_per_thread():
    records = list(read_trace(io.StringIO(SAMPLE)))
    # the activation stands where its U line does: after the first
    # fetch, before the events thread 0 runs under stack 4; thread 1
    # is never activated
    assert [type(r).__name__ for r in records] == [
        "CallStackDecl", "TraceEvent", "StackActivation", "TraceEvent", "TraceEvent",
        "TraceEvent",
    ]
    assert records[2] == StackActivation(0, 4)
    assert records[5].thread == 1


def test_repeated_line_after_stack_switch_gets_new_stack_ref():
    text = "C 1: a\nC 2: b\nI  1000,4\nU 0 1\nI  1000,4\nI  1000,4\nU 0 2\nI  1000,4\n"
    records = list(read_trace(io.StringIO(text)))
    # the switches are records of their own, so the stack of each event
    # is the last activation before it
    assert records[2:] == [
        TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4), StackActivation(0, 1),
        TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4), TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4),
        StackActivation(0, 2), TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4),
    ]
    # events are context-free: every repeat is the memoized event itself
    events = [r for r in records if isinstance(r, TraceEvent)]
    assert all(e is events[0] for e in events)


def test_read_trace_memo_hits_again_after_distinct_lines(monkeypatch):
    # after 150000 distinct event lines the line memo admits a line on
    # its second miss only; then a loop of 200 lines must be memoized
    # again (see test_line_memo_hits_again_after_distinct_lines in
    # test_engine.py for the bounds)
    distinct = [f" L {0x1000_0000 + 4 * i:x},4\n" for i in range(150_000)]
    loop = [f"I  {0x40_0000 + 4 * i:x},4 t{i % 3}\n" for i in range(200)]
    lines = distinct + loop * 500
    position = [0]
    parsed_at = []

    def counting(*args):
        parsed_at.append(position[0])
        return parse_record(*args)

    def feed():
        for position[0], line in enumerate(lines):
            yield line

    monkeypatch.setattr("workset.trace.parse_record", counting)
    records = list(read_trace(feed()))
    assert records == [parse_line(line) for line in lines]
    assert parsed_at[:150_000] == list(range(150_000))
    second = parsed_at[150_000:]
    assert len(second) <= 3 * 200 + 2 * 512
    # after that, every line of the loop is a memo hit: the same event
    assert max(second) < 150_000 + 260 * 200
    assert all(a is b for a, b in zip(records[-200:], records[-400:-200]))


def test_read_trace_strict_raises_with_line_number():
    bad = "I  1000,4\nnonsense\n"
    with pytest.raises(TraceParseError) as exc:
        list(read_trace(io.StringIO(bad)))
    assert exc.value.lineno == 2


def test_read_trace_lenient_skips_and_warns(caplog):
    bad = "I  1000,4\nnonsense\n L 2000,1\n"
    with caplog.at_level(logging.WARNING, logger="workset.trace"):
        records = list(read_trace(io.StringIO(bad), strict=False))
    assert len(records) == 2
    assert len(caplog.records) == 1
    assert "line 2" in caplog.text


def test_duplicate_stack_id_rejected():
    text = "C 1: a\nC 1: b\n"
    with pytest.raises(TraceParseError):
        list(read_trace(io.StringIO(text)))


def test_activation_of_undeclared_stack_rejected():
    with pytest.raises(TraceParseError):
        list(read_trace(io.StringIO("U 0 9\n")))


def test_read_trace_is_lazy():
    def endless():
        while True:
            yield "I  00400000,4\n"

    first = list(islice(read_trace(endless()), 10))
    assert len(first) == 10  # returning at all proves streaming


def test_empty_input():
    assert list(read_trace(io.StringIO(""))) == []


# --------------------------------------------------------------------------
# write_trace and round trips


def test_write_trace_canonical_lines():
    records = [
        CallStackDecl(4, ("pageramp.c:37", "pageramp.c:77")),
        StackActivation(0, 4),
        TraceEvent(AccessKind.INSN_FETCH, 0x04010173, 3, 0),
        TraceEvent(AccessKind.DATA_STORE, 0x1FFEFFFD70, 8, 1),
    ]
    buf = io.StringIO()
    write_trace(records, buf)
    assert buf.getvalue() == (
        "C 4: pageramp.c:37|pageramp.c:77\n"
        "U 0 4\n"
        "I  04010173,3\n"
        " S 1ffefffd70,8 t1\n"
    )


def test_write_trace_emits_activation_only_on_change():
    # U lines come from activation records alone, one each, redundant
    # or not; events never add one
    records = [
        CallStackDecl(0, ("a",)),
        CallStackDecl(1, ("b",)),
        StackActivation(0, 0),
        TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4, 0),
        TraceEvent(AccessKind.INSN_FETCH, 0x1004, 4, 1),
        StackActivation(0, 1),
        StackActivation(0, 1),
        TraceEvent(AccessKind.INSN_FETCH, 0x1008, 4, 0),
    ]
    buf = io.StringIO()
    write_trace(records, buf)
    lines = buf.getvalue().splitlines()
    assert [line for line in lines if line.startswith("U")] == ["U 0 0", "U 0 1", "U 0 1"]
    assert len(lines) == len(records)


def test_write_rejects_undeclared_ref_and_bad_frames():
    with pytest.raises(ValueError):
        write_trace([StackActivation(0, 7)], io.StringIO())
    with pytest.raises(ValueError):  # declared only after its activation
        write_trace([StackActivation(0, 7), CallStackDecl(7, ("a",))], io.StringIO())
    with pytest.raises(ValueError):
        write_trace([CallStackDecl(0, ("a|b",))], io.StringIO())
    with pytest.raises(ValueError):
        write_trace([CallStackDecl(0, ())], io.StringIO())


@pytest.mark.parametrize(
    "records",
    [
        # an event refuses a bad field when it is built
        pytest.param(lambda: [TraceEvent(AccessKind.DATA_LOAD, 0x10, 4, -1)],
                     id="negative-thread"),
        pytest.param(lambda: [CallStackDecl(-1, ("a",))], id="negative-stack-id"),
        pytest.param(lambda: [CallStackDecl(0, ("a",)), StackActivation(-2, 0)],
                     id="negative-activation-thread"),
        # a reader in text mode ends the line at the "\r"
        pytest.param(lambda: [CallStackDecl(0, ("a\rb",))], id="carriage-return-in-frame"),
        pytest.param(lambda: [CallStackDecl(0, ("a\nb",))], id="newline-in-frame"),
        pytest.param(lambda: [CallStackDecl(0, (" a",))], id="padded-frame"),
        # an undecodable input byte, as errors="surrogateescape" reads it
        pytest.param(lambda: [CallStackDecl(0, ("a\udcffb",))], id="lone-surrogate-in-frame"),
        pytest.param(lambda: [CallStackDecl(True, ("a",))], id="bool-stack-id"),
        pytest.param(lambda: [CallStackDecl(1, ("a",)), StackActivation(True, 1)],
                     id="bool-activation-thread"),
    ],
)
def test_write_rejects_records_read_trace_would_reject(records):
    with pytest.raises(ValueError):
        write_trace(records(), io.StringIO())


@pytest.mark.parametrize(
    "field, value",
    [
        ("kind", "L"),
        ("kind", None),
        ("address", -1),
        ("address", 2**64),
        pytest.param("address", 2**20000, id="address-2**20000"),
        ("address", 16.0),
        ("size", 0),
        ("size", MAX_ACCESS_SIZE + 1),
        ("size", True),
        ("size", "4"),
        ("thread", -3),
        ("thread", True),
        ("thread", 1.0),
        # past int-to-text conversion's default 4300-digit limit
        pytest.param("thread", 10**5000, id="thread-10**5000"),
    ],
)
def test_event_refuses_a_field_no_line_can_hold(field, value):
    fields = dict(kind=AccessKind.DATA_LOAD, address=0x10, size=4, thread=0)
    fields[field] = value
    with pytest.raises(ValueError, match=f"^event {field} must be ") as info:
        TraceEvent(**fields)
    assert len(str(info.value)) < 100


def test_access_size_cap():
    assert MAX_ACCESS_SIZE == 65536
    largest = TraceEvent(AccessKind.DATA_LOAD, 0x1000, MAX_ACCESS_SIZE)
    assert parse_line(" L 1000,65536") == largest
    buf = io.StringIO()
    write_trace([largest], buf)
    buf.seek(0)
    assert list(read_trace(buf)) == [largest]
    with pytest.raises(ValueError):
        write_trace([TraceEvent(AccessKind.DATA_LOAD, 0x1000, MAX_ACCESS_SIZE + 1)],
                    io.StringIO())


def test_address_bound():
    highest = TraceEvent(AccessKind.DATA_LOAD, 2**64 - 1, 1)
    assert parse_line(" L " + "0" * 20 + "f" * 16 + ",1") == highest
    buf = io.StringIO()
    write_trace([highest], buf)
    buf.seek(0)
    assert list(read_trace(buf)) == [highest]
    for address in (2**64, -1):
        with pytest.raises(ValueError):
            write_trace([TraceEvent(AccessKind.DATA_LOAD, address, 1)], io.StringIO())
    # an access may end at 2**64, and not past it (see test_error_messages.py)
    assert parse_line(" L fffffffffffffff8,8") == TraceEvent(AccessKind.DATA_LOAD, 2**64 - 8, 8)


def test_round_trip_simple():
    records = [
        CallStackDecl(2, ("f (x.c:1)", "g (x.c:9)")),
        TraceEvent(AccessKind.INSN_FETCH, 0xABC, 2),
        StackActivation(3, 2),
        TraceEvent(AccessKind.DATA_MODIFY, 0xFFFF_FFFF_FFFF, 16, 3),
        TraceEvent(AccessKind.DATA_LOAD, 0x0, 1),
    ]
    buf = io.StringIO()
    write_trace(records, buf)
    buf.seek(0)
    assert list(read_trace(buf)) == records


_FRAME_CHARS = "abcdefghijklmnopqrstuvwxyz0123456789.:_()/"


@st.composite
def record_sequences(draw, unwritable=False):
    """Declarations, then events and activations in any order: redundant
    activations, switches back and forth, and activations that no event
    follows. With ``unwritable``, some stack records may hold what the
    text format cannot: negative and bool ids and threads, duplicate
    ids, activations of undeclared stacks, and frames that are empty,
    padded with spaces, or hold a "|", a line break or a lone surrogate.
    Events always hold what a line can, as TraceEvent refuses anything
    else when it is built."""
    if unwritable:
        number = st.one_of(st.integers(-1, 3), st.booleans())
        frame = st.text(_FRAME_CHARS + "|\r\n \udcff", max_size=12)
        ids = draw(st.lists(number, max_size=3))
    else:
        number = st.integers(0, 2)
        frame = st.text(_FRAME_CHARS, min_size=1, max_size=12)
        ids = list(range(draw(st.integers(0, 3))))
    records = [
        CallStackDecl(i, tuple(draw(st.lists(frame, min_size=1, max_size=3))))
        for i in ids
    ]
    for _ in range(draw(st.integers(0, 30))):
        if ids and draw(st.booleans()):
            thread = draw(number)
            stack = draw(number if unwritable else st.sampled_from(ids))
            records.append(StackActivation(thread, stack))
            continue
        kind = draw(st.sampled_from(list(AccessKind)))
        records.append(
            TraceEvent(
                kind,
                draw(st.integers(0, 2**48 - 1)),
                draw(st.integers(1, 64)),
                draw(st.integers(0, 2)),
            )
        )
    return records


def _text(records):
    buf = io.StringIO()
    write_trace(records, buf)
    return buf.getvalue()


@given(record_sequences())
def test_round_trip_property(records):
    assert list(read_trace(io.StringIO(_text(records)))) == records


@given(records=record_sequences())
@example(records=[
    CallStackDecl(1, ("a",)), CallStackDecl(2, ("b",)),
    StackActivation(0, 1), StackActivation(0, 1),
    TraceEvent(AccessKind.INSN_FETCH, 0x1000, 4),
    StackActivation(1, 2), StackActivation(0, 2), StackActivation(0, 1),
    TraceEvent(AccessKind.DATA_STORE, 0x2000, 8),
])
def test_text_round_trip_property(tmp_path_factory, records):
    # through a real file, read in text mode as the CLI reads it
    path = tmp_path_factory.mktemp("round-trip") / "trace.txt"
    with open(path, "w", encoding="utf-8") as f:
        write_trace(records, f)
    with open(path, encoding="utf-8") as f:
        text = f.read()
    assert text == _text(records)
    with open(path, encoding="utf-8") as f:
        assert _text(read_trace(f)) == text


@given(record_sequences(unwritable=True))
@example([CallStackDecl(0, ("a\udcffb",))])
@example([CallStackDecl(1, ("a",)), StackActivation(True, 1)])
@example([CallStackDecl(0, ("a",)), CallStackDecl(0, ("b",))])
@example([CallStackDecl(0, ("a\nb",))])
def test_write_refuses_exactly_what_the_format_cannot_hold(records):
    # a sequence is refused, or its text reads back as the sequence,
    # read as a text-mode file reads it; test_round_trip_property
    # checks that what the format can hold is written
    try:
        text = _text(records)
    except ValueError:
        return
    assert list(read_trace(io.StringIO(text, newline=None))) == records


@given(record_sequences(unwritable=True))
@example([CallStackDecl(0, ("a",)), CallStackDecl(0, ("b",))])
@example([CallStackDecl(0, ("a",)), StackActivation(0, 1)])
@example([CallStackDecl(0, ["a", "b"]), StackActivation(1, 0),
          TraceEvent(AccessKind.DATA_LOAD, 0x1000, 4, 1)])
def test_run_analysis_takes_exactly_what_write_trace_writes(records):
    # records are analyzed iff write_trace writes them, with the result
    # of analyzing the written lines
    cfg = AnalysisConfig(tau=3, every=2, per_thread=True, peak_detect=True)
    try:
        text = _text(records)
    except ValueError:
        with pytest.raises(ValueError):
            run_analysis(records, cfg)
        return
    expected = run_analysis(io.StringIO(text), cfg).to_dict()
    assert run_analysis(records, cfg).to_dict() == expected


# one list per reason parse_record skips a line in lenient mode; each
# line is refused wherever it stands in a trace of record_sequences()
JUNK = {
    "malformed event": [" L 1000,0\n", "I  zz,4\n", f" S 1000,{MAX_ACCESS_SIZE + 1}\n",
                        "I  1" + "0" * 16 + ",4\n", " M 1000,4 tx\n", "I 1000\n",
                        "I  ffffffffffffffff,8\n"],
    "bad C line": ["C x: a\n", "C 5 a\n", "C 5: a||b\n", "C -1: a\n", "C :\n"],
    "bad U line": ["U 0\n", "U a 1\n", "U 0 1 2\n", "U\n", "U -1 0\n"],
    "undecodable bytes": ["I  10\udcff00,4\n", "C 5: f\udcffg\n", "\udcff\n",
                          " L 2000,4 t\udcff\n"],
    # never declared: record_sequences() declares stacks 0 to 2 only
    "undeclared stack": ["U 0 9\n", "U 1 7\n"],
}


@st.composite
def junk_traces(draw):
    """(clean trace lines, the same lines with junk inserted, the count
    of junk lines). Junk covers every reason a line is skipped; a
    duplicate declaration stands after its stack's first one."""
    clean = _text(draw(record_sequences())).splitlines(keepends=True)
    lines = list(clean)
    declared = {line.partition(":")[0][2:]: i for i, line in enumerate(clean)
                if line.startswith("C ")}
    inserted = 0
    for _ in range(draw(st.integers(1, 8))):
        reasons = sorted(JUNK) + ["duplicate stack id"] * bool(declared)
        reason = draw(st.sampled_from(reasons))
        if reason == "duplicate stack id":
            ident = draw(st.sampled_from(sorted(declared)))
            # after the declaration, which later insertions only push down
            at = draw(st.integers(lines.index(clean[declared[ident]]) + 1, len(lines)))
            junk = f"C {ident}: again\n"
        else:
            at = draw(st.integers(0, len(lines)))
            junk = draw(st.sampled_from(JUNK[reason]))
        lines.insert(at, junk)
        inserted += 1
    return clean, lines, inserted


class _Warnings(logging.Handler):
    def __init__(self):
        super().__init__(logging.WARNING)
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def _rendered(lines, strict):
    cfg = AnalysisConfig(tau=3, every=2, per_thread=True, peak_detect=True)
    result = run_analysis(lines, cfg, strict=strict)
    outputs = []
    for format in ("csv", "json"):
        out = io.StringIO()
        emit(result, format, out)
        outputs.append(out.getvalue())
    return outputs


@settings(max_examples=150)
@given(junk_traces())
def test_lenient_results_ignore_junk_lines(trace):
    clean, lines, inserted = trace
    warnings = _Warnings()
    logger = logging.getLogger("workset.trace")
    logger.addHandler(warnings)
    try:
        assert _rendered(lines, strict=False) == _rendered(clean, strict=True)
    finally:
        logger.removeHandler(warnings)
    assert len(warnings.messages) == inserted
    assert all(m.startswith("skipping malformed trace line: line ") for m in warnings.messages)
