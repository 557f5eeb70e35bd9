"""Command line front end: generate, analyze or sweep memory traces.

Exit codes: 0 on success, 1 on usage errors (bad flags or parameter
values), 2 on input and output errors (unreadable files, malformed trace
or label lines in strict mode, output that cannot be written), 141
(128 + SIGPIPE) when the reader of the output closed it first, as
``head`` does. Every failure but the last ends in one line, ``<prog>:
<message>``, such as ``workset analyze: tau must be >= 1, got 0``; a
closed output is not a failure of the command and prints nothing.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from contextlib import contextmanager

from .engine import SWEEP_POINTS_MAX, AnalysisConfig, SweepConfig, run_analysis
from .report import FORMATS, emit, load_label_map
from .trace import excerpt, write_trace
from .workloads import PagerampConfig, StepConfig, gen_pageramp, gen_step

USAGE_ERROR = 1
INPUT_ERROR = 2
BROKEN_PIPE = 141


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes only decimal negative numbers for values; _int
        # also reads -0x10, -0o7 and -0b1, and float flags read -.5. No
        # option name starts with "-" and a digit or a dot, so such an
        # argument is always a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse exits 2 on usage problems by default; this tool reserves 2
    # for input errors, so downgrade to 1
    def error(self, message: str):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _int(text: str) -> int:
    # base 0 accepts hex, so addresses can be given as 0x...
    try:
        return int(text, 0)
    except ValueError:
        # a decimal value past int()'s digit limit also lands here
        raise argparse.ArgumentTypeError(f"expected an integer, got {excerpt(text)}") from None


def _config(cls, args: argparse.Namespace):
    """``cls`` built from the given flags that name its fields; the
    config supplies every default and checks every range."""
    names = cls.__match_args__
    return cls(**{k: v for k, v in vars(args).items() if k in names})


@contextmanager
def _open_text(path: str, mode: str):
    """Yield a text stream for ``path`` opened in ``mode`` ("r" or "w"),
    or stdin/stdout for "-". Input is read as UTF-8, stdin too, whatever
    the locale. Undecodable input bytes reach the parser as lone
    surrogates, which it rejects as malformed lines, so --lenient can
    skip them."""
    if path != "-":
        with open(path, mode, encoding="utf-8", errors="surrogateescape") as f:
            yield f
        return
    reading = mode == "r"
    stream = sys.stdin if reading else sys.stdout
    if stream is None:  # the process was started with that descriptor closed
        raise OSError(f"{'stdin' if reading else 'stdout'} is closed")
    if reading and hasattr(stream, "reconfigure"):
        stream.reconfigure(encoding="utf-8", errors="surrogateescape")
    yield stream
    if not reading:
        # a reader that closed the pipe shows here, not at exit
        stream.flush()


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="workset", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    # a flag left off the command line stays out of the namespace, so the
    # config it fills supplies the default
    leaf = {"argument_default": argparse.SUPPRESS}

    gen = sub.add_parser("gen", help="generate a synthetic trace")
    gen_sub = gen.add_subparsers(dest="workload", required=True, parser_class=_Parser)
    helps = {"stride": "touch every stride-th claimed page",
             "insns_per_step": "dwell instructions per claim/release step"}
    for workload, config, generate, about in (
        ("pageramp", PagerampConfig, gen_pageramp, "sawtooth working set workload"),
        ("step", StepConfig, gen_step, "flat working set with one bump"),
    ):
        workload_parser = gen_sub.add_parser(workload, help=about, **leaf)
        # one flag per field of the workload's config
        for name in config.__match_args__:
            workload_parser.add_argument(f"--{name.replace('_', '-')}", type=_int,
                                         help=helps.get(name))
        workload_parser.add_argument("-o", "--output", default="-",
                                     help="output file, '-' for stdout")
        workload_parser.set_defaults(func=_cmd_gen, config=config, generate=generate,
                                     prog=workload_parser.prog)

    analyze = sub.add_parser("analyze", help="compute working set sizes from a trace", **leaf)
    analyze.add_argument("input", nargs="?", default="-",
                         help="trace file, '-' or omitted for stdin")
    analyze.add_argument("--tau", type=_int, help=(
        f"window length in instructions (default {AnalysisConfig.tau})"))
    analyze.add_argument("--every", type=_int,
                         help="sampling interval in instructions (default: --tau)")
    analyze.add_argument("--page-size", type=_int)
    analyze.add_argument("--per-thread", action="store_true",
                         help="also produce per-thread series and summaries")
    analyze.add_argument("--peak-detect", action="store_true",
                         help="flag peaks in the sampled series (off by default)")
    analyze.add_argument("--peak-sensitivity", dest="peak_g", type=float, metavar="G")
    analyze.add_argument("--peak-alpha", type=float, help="moving average decay")
    analyze.add_argument("--peak-phi", type=float, help="damping while a peak is active")
    analyze.add_argument("--top-n", type=_int, help="hot pages listed per stream")
    analyze.add_argument("--format", choices=FORMATS, default="text")
    analyze.add_argument("--labels", metavar="FILE", default=None,
                         help="page label sidecar ('<hexpage> <label>' lines)")
    analyze.add_argument("--strict", dest="strict", action="store_true", default=True,
                         help="fail on malformed trace lines (default)")
    analyze.add_argument("--lenient", dest="strict", action="store_false",
                         help="skip malformed trace lines with a warning")
    analyze.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")
    analyze.set_defaults(func=_cmd_analyze, config=AnalysisConfig, prog=analyze.prog)

    sweep = sub.add_parser("sweep", help="tabulate working set sizes over a range of tau", **leaf,
                           description="Analyze a trace once per tau, for taus spaced evenly "
                           "on a log scale, and tabulate each pass's summaries.")
    sweep.add_argument("input", help="trace file, '-' for stdin if it can be rewound")
    sweep.add_argument("--tau-min", type=_int, help="smallest tau")
    sweep.add_argument("--tau-max", type=_int, help="largest tau")
    sweep.add_argument("--points", type=_int, help=f"number of taus, at most {SWEEP_POINTS_MAX}")
    sweep.add_argument("--every", type=_int, help=(
        "fixed sampling interval, which makes the columns monotone in tau (default: "
        "each tau, so the windows tile the trace and the columns need not be monotone)"))
    sweep.add_argument("--format", choices=("text", "csv"), default="text")
    sweep.add_argument("-o", "--output", default="-", help="output file, '-' for stdout")
    sweep.set_defaults(func=_cmd_sweep, config=SweepConfig, prog=sweep.prog)

    return parser


def _cmd_gen(args: argparse.Namespace, cfg: PagerampConfig | StepConfig) -> None:
    with _open_text(args.output, "w") as out:
        write_trace(args.generate(cfg), out)


def _cmd_analyze(args: argparse.Namespace, cfg: AnalysisConfig) -> None:
    label_map = None
    if args.labels:
        with open(args.labels, "r", encoding="utf-8", errors="surrogateescape") as f:
            label_map = load_label_map(f)
    with _open_text(args.input, "r") as stream:
        result = run_analysis(stream, cfg, label_map, strict=args.strict)
    # opened only now, so a failed analysis leaves no output file behind
    with _open_text(args.output, "w") as out:
        emit(result, args.format, out)


def _cmd_sweep(args: argparse.Namespace, cfg: SweepConfig) -> None:
    rows = []
    with _open_text(args.input, "r") as stream:
        # a pipe would yield the trace to the first pass only
        if not stream.seekable():
            raise OSError("the input cannot be rewound, and the sweep reads it once per tau")
        for tau in cfg.taus():
            stream.seek(0)
            res = run_analysis(stream, AnalysisConfig(tau=tau, every=cfg.every))
            i, d = res.insn.summary, res.data.summary
            rows.append((tau, len(res.samples), i.avg_pages, i.peak_pages, d.avg_pages,
                         d.peak_pages))
    if args.format == "csv":
        lines = ["tau,samples,insn_avg,insn_peak,data_avg,data_peak"]
        lines += [",".join(map(str, row)) for row in rows]
    else:
        head = (f"{'tau':>9} {'samples':>8} {'insn avg':>9} {'insn pk':>8} "
                f"{'data avg':>9} {'data pk':>8}")
        lines = [head, "-" * len(head)]
        lines += [f"{tau:>9} {n:>8} {ia:>9.1f} {ip:>8} {da:>9.1f} {dp:>8}"
                  for tau, n, ia, ip, da, dp in rows]
    # opened only now, so a failed pass leaves no output file behind
    with _open_text(args.output, "w") as out:
        out.write("".join(line + "\n" for line in lines))


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse raises for --help (0) and, via _Parser.error, usage (1)
        return int(exc.code) if exc.code is not None else 0
    try:
        cfg = _config(args.config, args)
    except ValueError as exc:
        sys.stderr.write(f"{args.prog}: {exc}\n")
        return USAGE_ERROR
    # with the config built, a ValueError is malformed input (TraceParseError, a label
    # map line) or an output that cannot encode the text (UnicodeEncodeError)
    try:
        args.func(args, cfg)
    except BrokenPipeError:
        # what is still buffered for stdout goes nowhere, so the flush
        # at exit prints no "Exception ignored" message
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return BROKEN_PIPE
    except (OSError, ValueError) as exc:
        sys.stderr.write(f"{args.prog}: {exc}\n")
        return INPUT_ERROR
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
