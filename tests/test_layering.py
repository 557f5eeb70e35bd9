"""The package's module layering: a module imports only modules that come
before it in LAYERS, so no import cycle can form between them. Outside
the package, it imports only the standard library. Only the CLI's main
and its parser's usage errors write to stderr. A run loads logging only
to warn about a skipped line, and json only to write a JSON document. No
run loads dataclasses or the modules it pulls in. The package exports
the names PUBLIC_API lists, and the README's Library example runs."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import workset
from workset import AnalysisConfig, run_analysis
from workset.cli import main
from workset.workloads import StepConfig, gen_step

LAYERS = ("trace", "peak", "report", "engine", "workloads", "cli")
PACKAGE = Path(workset.__file__).resolve().parent
README = Path(__file__).resolve().parents[1] / "README.md"

# what ``import *`` takes from the package; a change to it is a change
# to the public API, made here on purpose
PUBLIC_API = [
    "AccessKind", "AnalysisConfig", "AnalysisResult", "CSV_HEADER", "CallStackDecl",
    "HotPageEntry", "PagerampConfig", "PeakAnnotation", "PeakDetector", "PeakParams",
    "PeakVerdict", "StackActivation", "StepConfig", "Stream", "StreamResult", "Summary",
    "TraceEvent", "TraceParseError", "WssSample", "detect_series", "emit", "format_summary",
    "gen_pageramp", "gen_step", "load_label_map", "parse_line", "read_trace", "run_analysis",
    "write_trace",
]


def test_the_package_exports_exactly_the_public_api():
    assert PUBLIC_API == sorted(PUBLIC_API)
    assert workset.__all__ == PUBLIC_API
    for name in PUBLIC_API:
        assert hasattr(workset, name), name
    namespace = {}
    exec("from workset import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == PUBLIC_API


def test_the_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the example reads trace.txt in the working directory; a trace of
    # 300,000 instructions gives its window of 100,000 three samples
    argv = ["gen", "step", "--interval-insns", "100000", "--flat-samples", "1"]
    assert main([*argv, "-o", str(tmp_path / "trace.txt")]) == 0
    text = README.read_text(encoding="utf-8")
    library = text[text.index("\n## Library\n"):text.index("\n## Tests\n")]
    example = re.search(r"```python\n(.*?)```", library, re.S).group(1)
    monkeypatch.chdir(tmp_path)
    exec(example, {})
    cfg = StepConfig(interval_insns=100_000, flat_samples=1)
    result = run_analysis(gen_step(cfg), AnalysisConfig(tau=100_000))
    assert len(result.samples) == 3
    expected = [f"{s.t} {s.wss_insn} {s.wss_data}" for s in result.samples]
    expected.append(f"{result.data.summary.peak_pages} pages at peak")
    assert capsys.readouterr().out.splitlines() == expected
    # every name the README cites by its module resolves there, and the
    # Library section names every export
    cited = re.findall(r"`workset\.(\w+)\.(\w+)`", text)
    assert ("trace", "LineMemo") in cited
    for module, name in cited:
        assert hasattr(importlib.import_module(f"workset.{module}"), name), (module, name)
    assert {name for name in PUBLIC_API if f"`{name}`" not in library} == set()


def imported_modules(tree):
    """The package modules a module imports, wherever the import sits:
    at top level, under ``if TYPE_CHECKING:`` or inside a function. An
    import of the package itself yields ``workset``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                if node.module:
                    yield node.module.split(".")[0]
                else:  # from . import name
                    yield from (alias.name for alias in node.names)
            elif node.module and node.module.split(".")[0] == "workset":
                yield (node.module.split(".") + ["workset"])[1]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                parts = alias.name.split(".")
                if parts[0] == "workset":
                    yield (parts + ["workset"])[1]


def test_layers_name_every_module():
    modules = {path.stem for path in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_modules_parse_as_python_3_10():
    # pyproject.toml requires Python >= 3.10. This rejects syntax from a
    # later version, such as except* (3.11), though not a call to a
    # library function that 3.10 lacks.
    with pytest.raises(SyntaxError):
        ast.parse("try:\n    pass\nexcept* ValueError:\n    pass\n", feature_version=(3, 10))
    for path in sorted(PACKAGE.glob("*.py")):
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


def test_modules_import_only_earlier_layers():
    for depth, name in enumerate(LAYERS):
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        for target in imported_modules(tree):
            assert target in LAYERS[:depth], f"{name} imports {target}"


def test_imported_modules_sees_every_form():
    tree = ast.parse(
        "from .a import x\n"
        "from . import b\n"
        "import workset.c\n"
        "from workset.d import y\n"
        "from workset import z\n"
        "if TYPE_CHECKING:\n"
        "    from .e import w\n"
        "def f():\n"
        "    from .g import v\n"
    )
    assert sorted(imported_modules(tree)) == ["a", "b", "c", "d", "e", "g", "workset"]


def stderr_users(node, scope=()):
    """The dotted names of the functions and classes, within ``node``,
    whose own code names ``sys.stderr`` or imports ``stderr`` from sys;
    ``""`` for module-level code."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from stderr_users(child, (*scope, child.name))
            continue
        if (isinstance(child, ast.Attribute) and child.attr == "stderr"
                and isinstance(child.value, ast.Name) and child.value.id == "sys"):
            yield ".".join(scope)
        elif isinstance(child, ast.ImportFrom) and child.module == "sys" and any(
                alias.name == "stderr" for alias in child.names):
            yield ".".join(scope)
        yield from stderr_users(child, scope)


def test_only_main_writes_failure_lines():
    # a command that catches its own errors would print its own line, and
    # maybe its own prefix and exit status
    users = set()
    for name in LAYERS:
        tree = ast.parse((PACKAGE / f"{name}.py").read_text(encoding="utf-8"))
        users.update(f"{name}.{user}" for user in stderr_users(tree))
    assert users == {"cli.main", "cli._Parser.error"}


def test_stderr_users_sees_every_form():
    tree = ast.parse(
        "import sys\n"
        "sys.stderr.write('a')\n"
        "def f():\n"
        "    print('b', file=sys.stderr)\n"
        "class C:\n"
        "    def g(self):\n"
        "        from sys import stderr\n"
        "    def h(self):\n"
        "        sys.stdout.write('c')\n"
    )
    assert sorted(stderr_users(tree)) == ["", "C.g", "f"]


def test_package_imports_only_the_standard_library():
    # pytest and hypothesis are installed for the tests, so a stray import
    # of either in the package would otherwise go unnoticed; an import
    # counts wherever it sits
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top in sys.stdlib_module_names or top == "workset", (
                    f"{path.name} imports {top}")


# Run in a fresh interpreter: ``body`` may set ``status``, the child's
# exit status. Writes, one per line to the file named by argv[1], the
# modules that ``body`` loaded beyond those the bare interpreter (site
# and whatever it imports) had loaded already.
IMPORT_SET_CHILD = """\
import sys
base = set(sys.modules)
status = 0
{body}
with open(sys.argv[1], "w") as out:
    out.write("\\n".join(sorted(set(sys.modules) - base)))
sys.exit(status)
"""


def loaded_modules(tmp_path, body):
    """(the modules ``body`` loaded in a fresh interpreter, the finished
    process)."""
    listing = tmp_path / "modules.txt"
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_SET_CHILD.format(body=body), str(listing)],
        capture_output=True, text=True, timeout=60,
    )
    return set(listing.read_text().split("\n")), proc


def analyze(tmp_path, *options, bad_line=False):
    """A child body that runs ``workset analyze`` on a two-event trace,
    with a malformed line 2 if ``bad_line``."""
    trace = tmp_path / "t.trace"
    trace.write_text("I 0x1000,4\n" + "bogus line\n" * bad_line + " L 0x2000,8\n")
    argv = ["analyze", "--tau", "1", "-o", os.devnull, *options, str(trace)]
    return f"import workset.cli\nstatus = workset.cli.main({argv!r})"


# dataclasses and some of the modules it imports (inspect pulls in the
# rest): the package's classes are plain classes, so no process needs them
DATACLASS_MODULES = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize("module", ["workset", "workset.cli"])
def test_importing_the_package_loads_neither_logging_nor_json(tmp_path, module):
    # each costs memory and time in every process, and a normal run
    # neither warns about a skipped line nor writes JSON
    modules, proc = loaded_modules(tmp_path, f"import {module}")
    assert proc.returncode == 0, proc.stderr
    assert module in modules
    assert not modules & {"logging", "json"}
    assert not modules & DATACLASS_MODULES


@pytest.mark.parametrize("format, loaded", [("csv", set()), ("json", {"json"})],
                         ids=["csv", "json"])
def test_a_run_loads_json_only_to_write_json(tmp_path, format, loaded):
    modules, proc = loaded_modules(tmp_path, analyze(tmp_path, "--format", format))
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "workset.cli" in modules
    assert modules & {"logging", "json"} == loaded
    assert not modules & DATACLASS_MODULES


def test_a_lenient_skip_loads_logging_and_warns_once(tmp_path):
    body = analyze(tmp_path, "--format", "csv", "--lenient", bad_line=True)
    modules, proc = loaded_modules(tmp_path, body)
    assert proc.returncode == 0
    assert proc.stderr == "skipping malformed trace line: line 2: unknown record tag 'bogus'\n"
    assert "logging" in modules
    assert "json" not in modules
