"""Smoke tests for the example scripts: they run on tiny inputs and
leave no file handle unclosed (``-X dev`` reports those as
ResourceWarning on stderr)."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *args):
    proc = subprocess.run(
        [sys.executable, "-X", "dev", str(SCRIPTS / name), *map(str, args)],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert "ResourceWarning" not in proc.stderr
    return proc.stdout


def test_tau_sweep_closes_its_input(tmp_path):
    trace = tmp_path / "trace.txt"
    lines = (f"I  {0x400000 + 4 * i:08x},4\n L {0x1000 * i:x},8\n" for i in range(50))
    trace.write_text("".join(lines))
    out = run_script("tau_sweep.py", trace, "--tau-min", 5, "--tau-max", 20, "--points", 2)
    assert len(out.splitlines()) == 2 + 2


def test_pageramp_demo(tmp_path):
    out = run_script("pageramp_demo.py", "--max-pages", 16, "--cycles", 1, "--outdir", tmp_path)
    assert "samples" in out
    assert {p.name for p in tmp_path.iterdir()} == {"wss.csv", "wss.svg", "summary.txt"}
