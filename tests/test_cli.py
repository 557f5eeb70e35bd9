"""CLI wiring: flag parsing, exit codes, stdin/stdout plumbing. Most
tests drive main(argv) in-process; subprocess tests cover the real
gen | analyze pipe, a reader that closes it, a pipe that sweep cannot
rewind, and the one-line failures."""

import importlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from workset.cli import BROKEN_PIPE, INPUT_ERROR, INTERRUPTED, USAGE_ERROR, main
from workset.engine import AnalysisConfig, run_analysis
from workset.report import CSV_HEADER, FORMATS, emit
from workset.trace import write_trace
from workset.workloads import PagerampConfig, StepConfig, gen_pageramp, gen_step

TINY_FLAGS = ["--max-pages", "4", "--stride", "2", "--cycles", "1", "--insns-per-step", "2"]
TINY_CFG = PagerampConfig(max_pages=4, stride=2, cycles=1, insns_per_step=2)


def rendered(records):
    buf = io.StringIO()
    write_trace(records, buf)
    return buf.getvalue()


def step_trace_text(flat=10, step=50, samples=20, interval=1000):
    return rendered(gen_step(StepConfig(
        interval_insns=interval, flat_pages=flat, step_pages=step, flat_samples=samples
    )))


# --------------------------------------------------------------------------
# gen


def test_gen_pageramp_to_stdout(capsys):
    assert main(["gen", "pageramp", *TINY_FLAGS]) == 0
    assert capsys.readouterr().out == rendered(gen_pageramp(TINY_CFG))


def test_gen_step_to_file(tmp_path):
    out = tmp_path / "trace.txt"
    argv = [
        "gen", "step", "--flat-pages", "3", "--step-pages", "7",
        "--flat-samples", "4", "--interval-insns", "64", "-o", str(out),
    ]
    assert main(argv) == 0
    expected = rendered(gen_step(
        StepConfig(interval_insns=64, flat_pages=3, step_pages=7, flat_samples=4)
    ))
    assert out.read_text() == expected


def test_gen_accepts_hex_flag_values(capsys):
    argv = ["gen", "step", "--flat-samples", "1", "--interval-insns", "16",
            "--flat-pages", "2", "--step-pages", "0", "--base-address", "0x30000000"]
    assert main(argv) == 0
    assert " S 30000000,1" in capsys.readouterr().out


def test_gen_is_deterministic(capsys):
    main(["gen", "pageramp", *TINY_FLAGS])
    first = capsys.readouterr().out
    main(["gen", "pageramp", *TINY_FLAGS])
    assert capsys.readouterr().out == first


def test_gen_defaults_are_the_configs(capsys):
    assert main(["gen", "step"]) == 0
    assert capsys.readouterr().out == rendered(gen_step())
    assert main(["gen", "pageramp", "--max-pages", "4", "--cycles", "1"]) == 0
    expected = rendered(gen_pageramp(PagerampConfig(max_pages=4, cycles=1)))
    assert capsys.readouterr().out == expected


def test_analyze_defaults_are_the_configs(monkeypatch, capsys):
    text = step_trace_text(interval=5000)  # 205000 instructions: two samples
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    assert main(["analyze"]) == 0
    expected = io.StringIO()
    emit(run_analysis(text.splitlines(keepends=True), AnalysisConfig()), "text", expected)
    assert capsys.readouterr().out == expected.getvalue()


def test_gen_rejects_bad_workload_config(capsys):
    assert main(["gen", "pageramp", "--page-size", "1000"]) == USAGE_ERROR
    assert "page" in capsys.readouterr().err


def test_gen_step_rejects_tight_interval(capsys):
    argv = ["gen", "step", "--flat-pages", "40", "--step-pages", "30",
            "--interval-insns", "50"]
    assert main(argv) == USAGE_ERROR


# --------------------------------------------------------------------------
# analyze: happy paths


def test_analyze_file_to_csv(tmp_path):
    trace = tmp_path / "t.txt"
    trace.write_text(step_trace_text())
    out = tmp_path / "r.csv"
    argv = ["analyze", str(trace), "--tau", "1000", "--format", "csv", "-o", str(out)]
    assert main(argv) == 0
    rows = out.read_text().splitlines()
    assert rows[0] == CSV_HEADER
    series = [int(r.split(",")[2]) for r in rows[1:]]
    assert series == [10] * 20 + [60] + [10] * 20


def test_analyze_stdin_stdout(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(step_trace_text(samples=5, interval=200)))
    assert main(["analyze", "--tau", "200", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert len(rows) == 1 + 11


def test_analyze_empty_stdin_is_fine(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["analyze", "--format", "csv"]) == 0
    assert capsys.readouterr().out == CSV_HEADER + "\n"


def test_analyze_default_every_is_tau(monkeypatch, capsys):
    text = step_trace_text(samples=2, interval=200)  # 1000 instructions
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    main(["analyze", "--tau", "500", "--format", "csv"])
    assert len(capsys.readouterr().out.splitlines()) == 1 + 2
    monkeypatch.setattr(sys, "stdin", io.StringIO(text))
    main(["analyze", "--tau", "500", "--every", "250", "--format", "csv"])
    assert len(capsys.readouterr().out.splitlines()) == 1 + 4


@pytest.mark.parametrize("format", ["text", "csv", "json", "svg"])
def test_analyze_all_formats(format, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(step_trace_text(samples=2, interval=100)))
    assert main(["analyze", "--tau", "100", "--format", format]) == 0
    assert capsys.readouterr().out


def test_analyze_peak_detect_marks_the_bump(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(step_trace_text()))
    assert main(["analyze", "--tau", "1000", "--peak-detect", "--format", "csv"]) == 0
    rows = [r.split(",") for r in capsys.readouterr().out.splitlines()[1:]]
    flagged = [r for r in rows if r[4] == "1"]
    assert len(flagged) == 1
    assert flagged[0][0] == str(21 * 1000)
    assert flagged[0][5] != ""  # carries an annotation index


def test_analyze_labels_show_up_in_text(tmp_path, monkeypatch, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("20000 heap arena\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(step_trace_text(samples=2, interval=100)))
    assert main(["analyze", "--tau", "100", "--labels", str(labels)]) == 0
    assert "heap arena" in capsys.readouterr().out


def test_analyze_per_thread_text(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(step_trace_text(samples=2, interval=100)))
    assert main(["analyze", "--tau", "100", "--per-thread"]) == 0
    assert "== Thread 0 ==" in capsys.readouterr().out


# --------------------------------------------------------------------------
# analyze: failure paths

BROKEN_TRACE = "I  00400000,4\nI  00400004,4\nX nope\nI  00400008,4\n"


def test_analyze_missing_file(capsys):
    assert main(["analyze", "/nonexistent/trace.txt"]) == INPUT_ERROR
    assert capsys.readouterr().err


def test_analyze_malformed_trace_strict(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BROKEN_TRACE))
    assert main(["analyze"]) == INPUT_ERROR
    assert "line 3" in capsys.readouterr().err


def test_analyze_malformed_trace_lenient(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(BROKEN_TRACE))
    argv = ["analyze", "--lenient", "--tau", "1", "--every", "1", "--format", "csv"]
    assert main(argv) == 0
    assert len(capsys.readouterr().out.splitlines()) == 1 + 3


BAD_BYTE_TRACE = b"I  00400000,4\n L 1000\xff,4\nI  00400004,4\nI  00400008,4\n"


def test_analyze_invalid_utf8_strict(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(BAD_BYTE_TRACE)
    assert main(["analyze", str(trace)]) == INPUT_ERROR
    assert "line 2" in capsys.readouterr().err


def test_analyze_invalid_utf8_lenient(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(BAD_BYTE_TRACE)
    argv = ["analyze", str(trace), "--lenient", "--tau", "1", "--every", "1", "--format", "csv"]
    assert main(argv) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == ["1,1,0,0,0,", "2,1,0,0,0,", "3,1,0,0,0,"]


@pytest.mark.parametrize("lenient", [False, True])
def test_analyze_invalid_utf8_on_stdin_has_no_traceback(lenient):
    argv = [sys.executable, "-m", "workset.cli", "analyze", "--tau", "1", "--format", "csv"]
    proc = subprocess.run(argv + ["--lenient"] * lenient, input=BAD_BYTE_TRACE,
                          capture_output=True)
    assert proc.returncode == (0 if lenient else INPUT_ERROR)
    assert b"Traceback" not in proc.stderr
    assert b"line 2" in proc.stderr
    if lenient:
        assert len(proc.stdout.splitlines()) == 1 + 3


CAFE_TRACE = "C 0: caf\u00e9.c:1\nU 0 0\nI  400000,4\n".encode()


@pytest.mark.parametrize("command, trace, status", [
    ("analyze", BAD_BYTE_TRACE.replace(b" L 1000\xff,4", b"C 0: f\xffg"), INPUT_ERROR),
    ("sweep", BAD_BYTE_TRACE, INPUT_ERROR),
    ("analyze", CAFE_TRACE, 0),
], ids=["analyze-bad-frame", "sweep-bad-address", "analyze-cafe"])
def test_stdin_is_read_as_utf8_like_a_file(command, trace, status, tmp_path):
    # a file is always read as UTF-8; under a latin-1 stdin encoding the
    # bad byte would decode to a valid frame or a different error text,
    # and the \xc3\xa9 of caf\u00e9 to two characters
    path = tmp_path / "trace.txt"
    path.write_bytes(trace)
    argv = [sys.executable, "-m", "workset.cli", command]
    if command == "analyze":
        argv += ["--tau", "1", "--format", "json"]
    env = dict(os.environ, PYTHONIOENCODING="latin-1")
    from_file = subprocess.run(argv + [str(path)], capture_output=True, env=env)
    # redirected, not piped, so that sweep can rewind it
    with open(path, "rb") as stdin:
        redirected = subprocess.run(argv + ["-"], stdin=stdin, capture_output=True, env=env)
    assert from_file.returncode == redirected.returncode == status
    assert redirected.stdout == from_file.stdout
    assert redirected.stderr == from_file.stderr
    if status == 0:
        assert b'"info": "caf\\u00e9.c:1"' in redirected.stdout


# the text report of this trace holds caf\u00e9 as the peak's frame and as a page label
_ANALYZE = ["analyze", "{tmp}/trace.txt", "--tau", "20", "--per-thread", "--peak-detect",
            "--labels", "{tmp}/labels.txt", "--format"]


@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("argv", [
    pytest.param(["gen", "pageramp", *TINY_FLAGS], id="gen-pageramp"),
    pytest.param(["gen", "step"], id="gen-step"),
    *(pytest.param(_ANALYZE + [format], id=f"analyze-{format}") for format in FORMATS),
    *(pytest.param(["sweep", "{tmp}/trace.txt", "--tau-min", "5", "--tau-max", "20",
                    "--points", "2", "--format", format], id=f"sweep-{format}")
      for format in ("text", "csv")),
])
def test_stdout_and_output_file_write_the_same_bytes(argv, encoding, tmp_path):
    (tmp_path / "trace.txt").write_text(
        "C 0: caf\u00e9.c:1\nU 0 0\n" + step_trace_text(flat=2, step=6, samples=8, interval=20),
        encoding="utf-8")
    (tmp_path / "labels.txt").write_text("20001 caf\u00e9\n", encoding="utf-8")
    argv = [sys.executable, "-m", "workset.cli", *(arg.format(tmp=tmp_path) for arg in argv)]
    out = tmp_path / "out.txt"
    env = dict(os.environ, PYTHONIOENCODING=encoding)
    to_file = subprocess.run(argv + ["-o", str(out)], capture_output=True, env=env)
    to_stdout = subprocess.run(argv, capture_output=True, env=env)
    assert (to_file.returncode, to_file.stdout, to_file.stderr) == (0, b"", b"")
    assert (to_stdout.returncode, to_stdout.stderr) == (0, b"")
    assert to_stdout.stdout == out.read_bytes()
    if argv[-1] == "text" and "analyze" in argv:
        assert "0x20001     caf\u00e9\n".encode() in to_stdout.stdout
        assert "loc=caf\u00e9.c:1\n".encode() in to_stdout.stdout


def test_interrupt_exits_130_without_a_traceback(monkeypatch, tmp_path, capsys):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("workset.cli.run_analysis", interrupted)
    path = tmp_path / "trace.txt"
    path.write_text("I  00400000,4\n")
    assert main(["analyze", str(path)]) == INTERRUPTED
    assert capsys.readouterr() == ("", "")


def test_out_of_memory_is_one_line_and_exit_2(monkeypatch, tmp_path, capsys):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr("workset.cli.run_analysis", exhausted)
    path = tmp_path / "trace.txt"
    path.write_text("I  00400000,4\n")
    assert main(["analyze", str(path), "-o", str(tmp_path / "out.txt")]) == INPUT_ERROR
    assert capsys.readouterr() == ("", "workset analyze: out of memory\n")
    assert not (tmp_path / "out.txt").exists()


# runs main with the address space capped at 32 MB above what the
# interpreter holds once the CLI is imported
_CAPPED_MAIN = """
import resource, sys
from workset.cli import main
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) << 10 for line in status if line.startswith("VmSize:"))
resource.setrlimit(resource.RLIMIT_AS, (size + (32 << 20), resource.getrlimit(resource.RLIMIT_AS)[1]))
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.skipif(sys.platform != "linux", reason="reads /proc and caps RLIMIT_AS")
def test_running_out_of_memory_in_a_child_is_one_line(tmp_path):
    # every load touches a page of its own, so the page tables outgrow the cap
    path = tmp_path / "trace.txt"
    with path.open("w") as f:
        for i in range(400_000):
            f.write(f"I  {0x400000 + 4 * i:08x},4\n L {(i + 0x10000) << 12:x},8\n")
    proc = subprocess.run(
        [sys.executable, "-c", _CAPPED_MAIN, "analyze", "--tau", "100000", str(path)],
        capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        INPUT_ERROR, "", "workset analyze: out of memory\n")


@pytest.mark.parametrize(
    "stream, argv", [("stdin", ["analyze"]), ("stdout", ["gen", "pageramp", *TINY_FLAGS])]
)
def test_closed_std_stream_is_an_input_error(stream, argv, monkeypatch):
    # a process started with the descriptor closed (`workset analyze <&-`)
    # sees None in place of the stream
    monkeypatch.setattr(sys, stream, None)
    assert main(argv) == INPUT_ERROR


# a page number too long for int-to-decimal conversion, unless rejected
_HUGE_ADDRESS_LINE = b"I  " + b"f" * 3600 + b",4\n"
_TRACE_BITS = st.sampled_from(
    [b"I  ", b" L ", b" S ", b" M ", b"C ", b"U ", b"#", b" ", b",", b":", b"|", b" t",
     b"0x", b"0", b"7", b"f", b"\n", b"\xff", b"\xc3\xa9", b"\xb2", _HUGE_ADDRESS_LINE]
)
_SIZE_LINES = st.integers(0, 2**80).map(lambda n: b" L 1ff8,%d\n" % n)


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.one_of(st.binary(max_size=40), st.lists(_TRACE_BITS, max_size=12).map(b"".join),
                  _SIZE_LINES),
        max_size=8,
    ).map(b"".join)
)
@example(_HUGE_ADDRESS_LINE)
def test_analyze_any_input_exits_cleanly(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.txt")
        with open(path, "wb") as f:
            f.write(data)
        for format in FORMATS:
            argv = ["analyze", path, "--tau", "3", "--every", "2", "--per-thread",
                    "--peak-detect", "--format", format, "-o", os.devnull]
            assert main(argv) in (0, 1, 2)
            assert main(argv + ["--lenient"]) in (0, 1, 2)


@pytest.mark.parametrize("format", FORMATS)
def test_analyze_huge_address_is_a_malformed_line(format, tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(_HUGE_ADDRESS_LINE)
    argv = ["analyze", str(trace), "--format", format, "-o", os.devnull]
    assert main(argv) == INPUT_ERROR
    assert main(argv + ["--lenient"]) == 0
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("lenient", [False, True])
def test_malformed_line_error_text_is_bounded(lenient, tmp_path):
    # the error (strict) or warning (lenient) quotes an excerpt of the
    # line, not its 3600 digits
    trace = tmp_path / "trace.txt"
    trace.write_bytes(_HUGE_ADDRESS_LINE)
    argv = [sys.executable, "-m", "workset.cli", "analyze", str(trace), "-o", os.devnull]
    proc = subprocess.run(argv + ["--lenient"] * lenient, capture_output=True, text=True)
    assert proc.returncode == (0 if lenient else INPUT_ERROR)
    assert "malformed event record 'I  fff" in proc.stderr
    assert len(proc.stderr) < 400


def test_analyze_bad_labels_file(tmp_path, monkeypatch, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("zz not-a-page\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["analyze", "--labels", str(labels)]) == INPUT_ERROR
    assert main(["analyze", "--labels", str(tmp_path / "missing.txt")]) == INPUT_ERROR


def test_analyze_labels_file_with_an_undecodable_byte_names_its_line(tmp_path, monkeypatch,
                                                                     capsys):
    labels = tmp_path / "labels.txt"
    labels.write_bytes(b"20000 heap\n30000 arena \xff\n")
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["analyze", "--labels", str(labels)]) == INPUT_ERROR
    assert capsys.readouterr().err == (
        "workset analyze: label map line 2: label is not valid UTF-8\n")


# one out-of-range value per numeric flag, and the field its config names
OUT_OF_RANGE = [
    (["gen", "pageramp", "--max-pages", "0"], "max_pages"),
    (["gen", "pageramp", "--stride", "0"], "stride"),
    (["gen", "pageramp", "--cycles", "0"], "cycles"),
    (["gen", "pageramp", "--insns-per-touch", "0"], "insns_per_touch"),
    (["gen", "pageramp", "--insns-per-step", "-1"], "insns_per_step"),
    (["gen", "pageramp", "--pages-per-step", "0"], "pages_per_step"),
    (["gen", "pageramp", "--base-address", "-1"], "base_address"),
    (["gen", "pageramp", "--page-size", "0x80"], "page_size"),
    (["gen", "step", "--flat-pages", "0"], "flat_pages"),
    (["gen", "step", "--step-pages", "-1"], "step_pages"),
    (["gen", "step", "--flat-samples", "0"], "flat_samples"),
    (["gen", "step", "--interval-insns", "0"], "interval_insns"),
    (["gen", "step", "--repeats", "0"], "repeats"),
    (["gen", "step", "--base-address", "-1"], "base_address"),
    (["gen", "step", "--page-size", "4097"], "page_size"),
    (["analyze", "--tau", "-1"], "tau"),
    (["analyze", "--every", "-1"], "every"),
    (["analyze", "--page-size", "3"], "page_size"),
    (["analyze", "--peak-sensitivity", "0"], "g"),
    (["analyze", "--peak-alpha", "1.5"], "alpha"),
    (["analyze", "--peak-phi", "0"], "phi"),
    (["analyze", "--top-n", "-5"], "top_n"),
    (["analyze", "--page-size", "0x1" + "0" * 275], "page_size"),  # 2**1100
    # values past int-to-text conversion's 4300-digit limit
    (["analyze", "--page-size", "0x1" + "0" * 4000], "page_size"),  # 2**16000
    (["analyze", "--tau=-0x1" + "0" * 4000], "tau"),
    (["analyze", "--top-n=-0x1" + "0" * 4000], "top_n"),
    (["gen", "pageramp", "--base-address=-0x1" + "0" * 4000], "base_address"),
    (["gen", "step", "--repeats=-0x1" + "0" * 4000], "repeats"),
    # page sizes above 2**64, whose data pages would also end past it
    (["gen", "pageramp", "--page-size", "0x1" + "0" * 40], "page_size"),
    (["gen", "step", "--page-size", "0x1" + "0" * 4000], "page_size"),
    # negative numbers other than decimal ones, given as separate arguments
    (["analyze", "--tau", "-0x10"], "tau"),
    (["analyze", "--top-n", "-0o7"], "top_n"),
    (["gen", "pageramp", "--base-address", "-0x1000"], "base_address"),
    (["gen", "step", "--repeats", "-0b1"], "repeats"),
    (["analyze", "--peak-alpha", "-.5"], "alpha"),
    (["analyze", "--peak-sensitivity", "-.5"], "g"),
    (["analyze", "--peak-phi", "-.5"], "phi"),
    # float flags that read as infinite
    (["analyze", "--peak-sensitivity", "inf"], "g"),
    (["analyze", "--peak-sensitivity", "1e400"], "g"),
    (["gen", "pageramp", "--stride", "-1"], "stride"),
    # past 2**53, where the grid's float arithmetic overflowed or drifted
    (["sweep", "-", "--tau-max", "1" + "0" * 400], "tau_max"),
    (["sweep", "-", "--tau-min", str(2**53 + 1), "--tau-max", str(2**53 + 1)], "tau_min"),
    # one pass per tau, and one step per point to build the grid
    (["sweep", "-", "--points", "1000000000000"], "points"),
    # one point would sweep tau_min alone
    (["sweep", "-", "--points", "1", "--tau-min", "5", "--tau-max", "20"], "points"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ["analyze", "--tau", "0"],
        ["analyze", "--tau", "-3"],
        ["analyze", "--every", "0"],
        ["analyze", "--format", "yaml"],
        ["analyze", "--top-n", "-1"],
        ["frobnicate"],
        ["gen"],
        [],
        *(argv for argv, _ in OUT_OF_RANGE),
    ],
)
def test_usage_errors_exit_1(argv, capsys):
    assert main(argv) == USAGE_ERROR
    capsys.readouterr()  # swallow usage text


@pytest.mark.parametrize("argv, field", OUT_OF_RANGE)
def test_out_of_range_value_names_the_field(argv, field, capsys):
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"{field} must" in err


@pytest.mark.parametrize(
    "argv, says",
    [
        (["analyze", "--page-size", "0x1" + "0" * 4000],
         "page_size must be a power of two up to 2**64, got a 16001-bit integer"),
        (["gen", "step", "--repeats=-0x1" + "0" * 4000],
         "repeats must be >= 1, got a negative 16001-bit integer"),
        # past the digit limit of int(): not an integer to argparse, which
        # prints its usage text (about 430 characters) before the message
        (["analyze", "--tau", "-9" + "9" * 4400],
         "argument --tau: expected an integer, got '-9999"),
        (["gen", "pageramp", "--cycles", "9" * 4400],
         "argument --cycles: expected an integer, got '9999"),
        (["gen", "pageramp", "--page-size", "0x1" + "0" * 4000],
         "page_size must be a power of two from 256 up to 2**61, got a 16001-bit integer"),
    ],
)
def test_huge_flag_value_error_text_is_bounded(argv, says, capsys):
    assert main(argv) == USAGE_ERROR
    err = capsys.readouterr().err
    assert "Traceback" not in err
    message = err.splitlines()[-1]
    assert says in message
    assert len(message) < 400
    if "argument" not in says:
        assert len(err) < 400


def test_negative_hex_flag_value_reaches_the_range_check(capsys):
    # argparse alone would take -0x10 for an option: "expected one argument"
    assert main(["analyze", "--tau", "-0x10"]) == USAGE_ERROR
    assert capsys.readouterr().err == "workset analyze: tau must be >= 1, got -16\n"


def test_analyze_bad_peak_params_exit_1(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(""))
    assert main(["analyze", "--peak-alpha", "0"]) == USAGE_ERROR
    assert "alpha" in capsys.readouterr().err


# one case per way a command fails: (prog, argv, exit status); {tmp} holds
# the files the test writes, and no case may create {tmp}/out.txt
FAILURES = [
    pytest.param("workset gen pageramp", ["gen", "pageramp", "--cycles", "0"], USAGE_ERROR,
                 id="gen-bad-value"),
    pytest.param("workset gen step", ["gen", "step", "-o", "{tmp}/missing/out.txt"], INPUT_ERROR,
                 id="gen-unwritable-output"),
    pytest.param("workset analyze", ["analyze", "--tau", "0", "{tmp}/trace.txt"], USAGE_ERROR,
                 id="analyze-bad-value"),
    pytest.param("workset analyze", ["analyze", "{tmp}/missing.txt"], INPUT_ERROR,
                 id="analyze-missing-input"),
    pytest.param("workset analyze", ["analyze", "--labels", "{tmp}/bad-labels.txt",
                                     "{tmp}/trace.txt", "-o", "{tmp}/out.txt"], INPUT_ERROR,
                 id="analyze-bad-label-line"),
    pytest.param("workset analyze", ["analyze", "{tmp}/broken.txt", "-o", "{tmp}/out.txt"],
                 INPUT_ERROR, id="analyze-malformed-trace"),
    pytest.param("workset analyze", ["analyze", "{tmp}/trace.txt", "-o", "{tmp}/missing/out.txt"],
                 INPUT_ERROR, id="analyze-unwritable-output"),
    pytest.param("workset sweep", ["sweep", "--points", "0", "{tmp}/trace.txt"], USAGE_ERROR,
                 id="sweep-bad-value"),
    pytest.param("workset sweep", ["sweep", "{tmp}/missing.txt"], INPUT_ERROR,
                 id="sweep-missing-input"),
    pytest.param("workset sweep", ["sweep", "{tmp}/broken.txt", "-o", "{tmp}/out.txt"],
                 INPUT_ERROR, id="sweep-malformed-trace"),
    # reported after the passes, as analyze reports it
    pytest.param("workset sweep", ["sweep", "{tmp}/trace.txt", "-o", "{tmp}/missing/out.txt"],
                 INPUT_ERROR, id="sweep-unwritable-output"),
]


@pytest.mark.parametrize("prog, argv, status", FAILURES)
def test_every_failure_is_one_line_after_the_prog(prog, argv, status, tmp_path):
    (tmp_path / "trace.txt").write_text("I  00400000,4\n S 20000000,1\n")
    (tmp_path / "broken.txt").write_text(BROKEN_TRACE)
    (tmp_path / "bad-labels.txt").write_text("zz not-a-page\n")
    # under an ASCII stdout encoding, a failure still ends in one line
    env = dict(os.environ, PYTHONIOENCODING="ascii")
    proc = subprocess.run(
        [sys.executable, "-m", "workset.cli", *(arg.format(tmp=tmp_path) for arg in argv)],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == status
    # nothing reaches stdout
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith(f"{prog}: ")
    assert not (tmp_path / "out.txt").exists()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    assert "workset" in capsys.readouterr().out


@pytest.mark.parametrize("command", [["gen"], ["gen", "pageramp"], ["gen", "step"], ["analyze"],
                                     ["sweep"]])
def test_subcommand_help_exits_zero(command, capsys):
    assert main([*command, "--help"]) == 0
    assert "SUPPRESS" not in capsys.readouterr().out


def test_analyze_help_shows_the_default_tau(capsys):
    # the help reads the default from AnalysisConfig.tau, which a config
    # that held its fields in slots would turn into a member descriptor
    assert main(["analyze", "--help"]) == 0
    assert "(default 100000)" in " ".join(capsys.readouterr().out.split())


def test_pageramp_recipe_writes_each_report(tmp_path):
    # the README's recipe: a window of one touch pass shows the whole ramp
    cfg = PagerampConfig(max_pages=16, cycles=1)
    tau = str(cfg.touch_pass_insns)
    trace = tmp_path / "ramp.trace"
    assert main(["gen", "pageramp", "--max-pages", "16", "--cycles", "1", "-o", str(trace)]) == 0
    result = run_analysis(gen_pageramp(cfg), AnalysisConfig(tau=cfg.touch_pass_insns))
    for format in ("csv", "svg", "text"):
        out = tmp_path / f"wss.{format}"
        assert main(["analyze", str(trace), "--tau", tau, "--format", format, "-o", str(out)]) == 0
        expected = io.StringIO()
        emit(result, format, expected)
        assert out.read_text() == expected.getvalue()


@pytest.mark.parametrize(
    "flag, value, says",
    [
        ("--max-pages", "0", "max_pages must be >= 1, got 0"),
        ("--cycles", "0", "cycles must be >= 1, got 0"),
    ],
    ids=["max-pages", "cycles"],
)
def test_pageramp_recipe_reports_a_bad_value(tmp_path, capsys, flag, value, says):
    trace = tmp_path / "ramp.trace"
    assert main(["gen", "pageramp", flag, value, "-o", str(trace)]) == USAGE_ERROR
    assert capsys.readouterr().err == f"workset gen pageramp: {says}\n"
    assert not trace.exists()


def test_pageramp_recipe_reports_an_unwritable_output(tmp_path, capsys):
    trace = tmp_path / "ramp.trace"
    assert main(["gen", "pageramp", "--max-pages", "16", "--cycles", "1", "-o", str(trace)]) == 0
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "wss.svg"
    argv = ["analyze", str(trace), "--tau", "144", "--format", "svg", "-o", str(out)]
    assert main(argv) == INPUT_ERROR
    assert capsys.readouterr().err == f"workset analyze: [Errno 20] Not a directory: '{out}'\n"


# --------------------------------------------------------------------------
# sweep

SWEEP_TRACE = "".join(f"I  {0x400000 + 4 * i:08x},4\n L {0x1000 * i:x},8\n" for i in range(50))
SWEEP_FLAGS = ["--tau-min", "5", "--tau-max", "20", "--points", "2"]


def test_sweep_rows_are_the_summaries_of_one_analysis_per_tau(tmp_path, capsys):
    trace = tmp_path / "trace.txt"
    trace.write_text(SWEEP_TRACE)
    rows = []
    for tau in (5, 20):
        res = run_analysis(SWEEP_TRACE.splitlines(keepends=True), AnalysisConfig(tau=tau))
        i, d = res.insn.summary, res.data.summary
        rows.append((tau, len(res.samples), i.avg_pages, i.peak_pages, d.avg_pages,
                     d.peak_pages))
    assert main(["sweep", str(trace), *SWEEP_FLAGS, "--format", "csv"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "tau,samples,insn_avg,insn_peak,data_avg,data_peak",
        *(",".join(map(str, row)) for row in rows),
    ]
    assert main(["sweep", str(trace), *SWEEP_FLAGS]) == 0
    table = capsys.readouterr().out.splitlines()
    assert table[0].split() == ["tau", "samples", "insn", "avg", "insn", "pk", "data", "avg",
                                "data", "pk"]
    assert table[1] == "-" * len(table[0])
    assert [line.split() for line in table[2:]] == [
        [str(tau), str(n), f"{ia:.1f}", str(ip), f"{da:.1f}", str(dp)]
        for tau, n, ia, ip, da, dp in rows
    ]


def test_sweep_columns_are_monotone_at_a_fixed_every(tmp_path, capsys):
    # 12 fetches, data pages touched after fetches 4, 5 and 6: tiling
    # windows (every = tau) sample different instants at each tau
    lines = [f"I  {0x400000 + 4 * t:08x},4\n" + f" L {0x1000 * t:x},8\n" * (t in (4, 5, 6))
             for t in range(1, 13)]
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(lines))

    def data_peaks(*flags):
        argv = ["sweep", str(trace), "--tau-min", "3", "--tau-max", "4", "--points", "2",
                "--format", "csv", *flags]
        assert main(argv) == 0
        return [int(row.split(",")[5]) for row in capsys.readouterr().out.splitlines()[1:]]

    assert data_peaks() == [3, 2]
    assert data_peaks("--every", "1") == [3, 3]


@pytest.mark.parametrize(
    "line, says",
    [
        (b" L 10,0\n", "line 2: malformed event record 'L 10,0': expected "),
        # read as analyze reads it, an undecodable byte makes a malformed line
        (b"\xff\n", "line 2: unknown record tag '\\udcff'"),
    ],
    ids=["zero-size", "undecodable-byte"],
)
def test_sweep_reports_a_malformed_line(tmp_path, capsys, line, says):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(b"I  00400000,4\n" + line)
    assert main(["sweep", str(trace), "--points", "1", "--tau-max", "100"]) == INPUT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"workset sweep: {says}")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("flag", ["--tau-min", "--tau-max", "--points", "--every"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_sweep_refuses_non_positive_values(flag, value, capsys):
    assert main(["sweep", "-", flag, value]) == USAGE_ERROR
    field = flag[2:].replace("-", "_")
    assert capsys.readouterr().err == f"workset sweep: {field} must be >= 1, got {value}\n"


@pytest.mark.parametrize("value, shown", [
    ("10001", "10001"),
    ("1000000000000", "1000000000000"),
    ("0x1" + "0" * 1000, "a 4001-bit integer"),
])
def test_sweep_refuses_more_points_than_the_cap(tmp_path, capsys, value, shown):
    # refused before the input is opened or the grid is built
    trace = tmp_path / "trace.txt"
    trace.write_text(SWEEP_TRACE)
    assert main(["sweep", str(trace), "--points", value]) == USAGE_ERROR
    assert capsys.readouterr() == ("", f"workset sweep: points must be <= 10000, got {shown}\n")


def test_sweep_refuses_one_point_for_two_ends(tmp_path, capsys):
    # both ends are swept, and one point would drop tau_max
    trace = tmp_path / "trace.txt"
    trace.write_text(SWEEP_TRACE)
    argv = ["sweep", str(trace), "--points", "1", "--tau-min", "5", "--tau-max", "20"]
    assert main(argv) == USAGE_ERROR
    assert capsys.readouterr() == (
        "", "workset sweep: points must be >= 2 to sweep tau_min 5 to tau_max 20, got 1\n")


def test_sweep_refuses_a_pipe_and_reads_redirected_stdin(tmp_path, capsys):
    # every pass after the first would read an exhausted pipe
    trace = tmp_path / "trace.txt"
    trace.write_text(SWEEP_TRACE)
    argv = [sys.executable, "-m", "workset.cli", "sweep", "-", *SWEEP_FLAGS]
    piped = subprocess.run(argv, input=SWEEP_TRACE, capture_output=True, text=True)
    assert (piped.returncode, piped.stdout) == (INPUT_ERROR, "")
    assert piped.stderr == ("workset sweep: the input cannot be rewound, "
                            "and the sweep reads it once per tau\n")
    with open(trace) as stdin:
        redirected = subprocess.run(argv, stdin=stdin, capture_output=True, text=True)
    assert (redirected.returncode, redirected.stderr) == (0, "")
    assert main(["sweep", str(trace), *SWEEP_FLAGS]) == 0
    assert redirected.stdout == capsys.readouterr().out


def test_sweep_closes_its_files(tmp_path):
    # -X dev reports a file left unclosed as a ResourceWarning on stderr
    trace = tmp_path / "trace.txt"
    trace.write_text(SWEEP_TRACE)
    out = tmp_path / "sweep.csv"
    proc = subprocess.run(
        [sys.executable, "-X", "dev", "-m", "workset.cli", "sweep", str(trace), *SWEEP_FLAGS,
         "--format", "csv", "-o", str(out)],
        capture_output=True, text=True, timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert len(out.read_text().splitlines()) == 1 + 2


# --------------------------------------------------------------------------
# the real pipe


def test_gen_analyze_subprocess_pipe():
    gen = subprocess.run(
        [sys.executable, "-m", "workset.cli", "gen", "step",
         "--flat-samples", "5", "--interval-insns", "200"],
        capture_output=True, text=True,
    )
    assert gen.returncode == 0
    ana = subprocess.run(
        [sys.executable, "-m", "workset.cli", "analyze", "--tau", "200",
         "--format", "csv"],
        input=gen.stdout, capture_output=True, text=True,
    )
    assert ana.returncode == 0
    rows = ana.stdout.splitlines()
    assert rows[0] == CSV_HEADER
    assert [int(r.split(",")[2]) for r in rows[1:]] == [10] * 5 + [60] + [10] * 5


def test_reader_closing_the_pipe_is_not_an_error():
    # as `workset gen pageramp | head -1`: the trace is far longer than
    # a pipe holds, so gen is still writing when the reader goes away
    gen = subprocess.Popen([sys.executable, "-m", "workset.cli", "gen", "pageramp"],
                           stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert gen.stdout.readline().startswith(b"C 0: ")
    gen.stdout.close()
    stderr = gen.stderr.read()
    gen.stderr.close()
    assert (gen.wait(timeout=60), stderr) == (BROKEN_PIPE, b"")


@pytest.mark.parametrize("format", ["csv", "json"])
def test_results_do_not_depend_on_the_hash_seed(format, tmp_path):
    # 10000 distinct lines close the line memo; it then admits a loop's
    # line on its second miss, unless another line's fingerprint took its
    # slot, which the salted str hash decides: how many lines are decoded
    # changes with PYTHONHASHSEED, and the result must not
    distinct = [f" L {0x1000_0000 + 64 * j:x},8 t{j % 3}\n" for j in range(10_000)]
    loop = [f"I  {0x40_0000 + 4 * i:x},4\n" if i % 2 else f" S {0x2000_0000 + 16 * i:x},4\n"
            for i in range(2_000)]
    trace = tmp_path / "trace.txt"
    trace.write_text("".join(distinct + loop * 4))
    argv = [sys.executable, "-m", "workset.cli", "analyze", "--tau", "500", "--every", "100",
            "--per-thread", "--peak-detect", "--format", format, str(trace)]
    outputs = []
    for seed in ("0", "1"):
        proc = subprocess.run(argv, capture_output=True,
                              env=dict(os.environ, PYTHONHASHSEED=seed), timeout=60)
        assert (proc.returncode, proc.stderr) == (0, b"")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].count(b"\n") > 40  # one CSV row per sample, or more JSON lines


@pytest.mark.skipif(shutil.which("workset") is None, reason="entry point not installed")
def test_console_script_entry_point():
    proc = subprocess.run(["workset", "--help"], capture_output=True, text=True)
    assert proc.returncode == 0
    assert "analyze" in proc.stdout


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_declared_console_script_resolves(capsys):
    """What the installed ``workset`` command runs, without installing:
    the entry point pyproject.toml declares."""
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    target = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]["workset"]
    module, _, name = target.partition(":")
    entry = getattr(importlib.import_module(module), name)
    assert entry(["--help"]) == 0
    assert "analyze" in capsys.readouterr().out


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_the_version_is_stated_once():
    """pyproject.toml takes the version from the package, which states
    it once."""
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    config = tomllib.loads(pyproject.read_text(encoding="utf-8"))
    assert "version" not in config["project"]
    assert "version" in config["project"]["dynamic"]
    module, _, name = config["tool"]["setuptools"]["dynamic"]["version"]["attr"].rpartition(".")
    version = getattr(importlib.import_module(module), name)
    assert version.count(".") == 2 and version.replace(".", "").isdigit()
