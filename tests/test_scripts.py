"""Smoke tests for the example scripts: they run on tiny inputs and
leave no file handle unclosed (``-X dev`` reports those as
ResourceWarning on stderr)."""

import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args, status=0):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == status, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    return proc


def test_tau_sweep_closes_its_input(tmp_path):
    trace = tmp_path / "trace.txt"
    lines = (f"I  {0x400000 + 4 * i:08x},4\n L {0x1000 * i:x},8\n" for i in range(50))
    trace.write_text("".join(lines))
    out = run_script("tau_sweep.py", trace, "--tau-min", 5, "--tau-max", 20, "--points", 2).stdout
    assert len(out.splitlines()) == 2 + 2


@pytest.mark.parametrize(
    "line, says",
    [
        (b" L 10,0\n", "line 2: malformed event record 'L 10,0': expected "),
        # read as the CLI reads it, an undecodable byte makes a malformed line
        (b"\xff\n", "line 2: unknown record tag '\\udcff'"),
    ],
)
def test_tau_sweep_reports_a_malformed_line(tmp_path, line, says):
    trace = tmp_path / "trace.txt"
    trace.write_bytes(b"I  00400000,4\n" + line)
    err = run_script("tau_sweep.py", trace, "--points", 1, status=2).stderr
    assert err.startswith(f"tau_sweep: {says}")
    assert len(err.splitlines()) == 1


def test_tau_sweep_reports_an_unwritable_csv_before_any_pass(tmp_path):
    # the trace's second line is malformed, so a pass run before the CSV
    # file is opened would report that line instead
    trace = tmp_path / "trace.txt"
    trace.write_text("I  00400000,4\n L 10,0\n")
    csv = tmp_path / "missing" / "sweep.csv"
    proc = run_script("tau_sweep.py", trace, "--points", 1, "--csv", csv, status=2)
    assert proc.stderr == f"tau_sweep: [Errno 2] No such file or directory: '{csv}'\n"
    assert proc.stdout == ""


@pytest.mark.parametrize("flag", ["--tau-min", "--tau-max", "--points", "--every"])
@pytest.mark.parametrize("value", ["0", "-5"])
def test_tau_sweep_rejects_non_positive_arguments(flag, value):
    err = run_script("tau_sweep.py", flag, value, status=2).stderr
    assert err.startswith("usage: ")
    assert f"argument {flag}: invalid positive value" in err
    assert "Traceback" not in err


def test_pageramp_demo(tmp_path):
    out = run_script("pageramp_demo.py", "--max-pages", 16, "--cycles", 1, "--outdir", tmp_path).stdout
    assert "samples" in out
    assert {p.name for p in tmp_path.iterdir()} == {"wss.csv", "wss.svg", "summary.txt"}


@pytest.mark.parametrize(
    "flag, value, says",
    [
        ("--max-pages", 0, "max_pages must be >= 1, got 0"),
        ("--stride", -1, "stride must be >= 1, got -1"),
        ("--cycles", 0, "cycles must be >= 1, got 0"),
    ],
)
def test_pageramp_demo_reports_a_bad_value(tmp_path, flag, value, says):
    err = run_script("pageramp_demo.py", flag, value, "--outdir", tmp_path, status=2).stderr
    assert err.startswith("usage: ")
    assert err.splitlines()[-1] == f"pageramp_demo.py: error: {says}"
    assert "Traceback" not in err


def test_pageramp_demo_reports_an_unwritable_outdir(tmp_path):
    blocker = tmp_path / "file"
    blocker.write_text("")
    outdir = blocker / "out"
    err = run_script("pageramp_demo.py", "--max-pages", 16, "--cycles", 1, "--outdir", outdir,
                     status=2).stderr
    assert err == f"pageramp_demo: [Errno 20] Not a directory: '{outdir}'\n"
