"""Command-line interface.

Subcommands: ``suite list``, ``suite manifest``, ``run``, ``summarize``,
``plot``.  Exit codes: 0 success, 1 usage error, 2 data error, 130
interrupted (128 + SIGINT, as a shell reports it).
"""

from __future__ import annotations

import argparse
import sys

from . import harness, report, suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERRUPTED = 130

#: Most values one filter flag may name, repeats included, counted before any
#: range is expanded.
MAX_VALUES = 10**6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's default exits with code 2
        raise ValueError(message)


def _int_set(text: str) -> tuple[int, ...]:
    """Parse '1,3,5' or '1-10' (or a mix) into a sorted tuple of ints.

    A chunk that is neither an integer nor a range LO-HI with LO <= HI is a
    usage error naming the chunk, and so is a chunk that would take the
    flag past ``MAX_VALUES`` values.
    """
    values: set[int] = set()
    for chunk in text.split(","):
        chunk = chunk.strip()
        head, dash, tail = chunk[1:].partition("-")  # a leading '-' is a sign
        try:
            lo, hi = (int(chunk[:1] + head), int(tail)) if dash else (int(chunk),) * 2
            ascending = lo <= hi
        except ValueError:
            ascending = False
        if not ascending:
            raise argparse.ArgumentTypeError(
                f"{chunk!r} is not an integer or an ascending range LO-HI"
            )
        if len(values) + hi - lo >= MAX_VALUES:
            raise argparse.ArgumentTypeError(
                f"{chunk!r} names more than {MAX_VALUES} values"
            )
        values.update(range(lo, hi + 1))
    return tuple(sorted(values))


def _build_parser() -> _Parser:
    parser = _Parser(prog="biobj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_suite = sub.add_parser("suite", help="inspect the problem suite")
    suite_sub = p_suite.add_subparsers(dest="suite_command", required=True)
    for name in ("list", "manifest"):
        p = suite_sub.add_parser(name)
        _add_filters(p)
        p.add_argument("--out", help="write to file instead of stdout")

    p_run = sub.add_parser("run", help="run optimizers over suite problems")
    _add_filters(p_run)
    p_run.add_argument(
        "--optimizer",
        action="append",
        choices=harness.OPTIMIZERS,
        help="may be given multiple times (default: random-search)",
    )
    p_run.add_argument("--budget-mult", type=int, default=harness.DEFAULT_BUDGET_MULTIPLIER)
    p_run.add_argument("--seeds", type=_int_set, default=harness.DEFAULT_SEEDS)
    p_run.add_argument("--out", required=True, help="results directory")

    p_sum = sub.add_parser("summarize", help="summary table from a results dir")
    p_sum.add_argument("results_dir")
    p_sum.add_argument("--out", help="write to file instead of stdout")

    p_plot = sub.add_parser("plot", help="Pareto-front SVG from a record file")
    p_plot.add_argument("record")
    p_plot.add_argument("--out", required=True, help="output SVG path")
    return parser


def _add_filters(p: argparse.ArgumentParser) -> None:
    p.add_argument("--functions", type=_int_set, help="pair indices, e.g. 1,5-10")
    p.add_argument("--dims", type=_int_set, help="dimensions, e.g. 2,3,5")
    p.add_argument("--instances", type=_int_set, help="instance ids, e.g. 1-10")


def _emit(lines, out_path):
    text = "\n".join(lines) + "\n"
    # Not harness._write_atomic: its rename would replace a symlink (or, as
    # root, /dev/stdout) with a regular file instead of writing through it.
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_suite(args) -> int:
    ids = suite.enumerate_suite(args.functions, args.dims, args.instances)
    if args.suite_command == "list":
        lines = [
            f"{pid} {suite.pair_name(pid.pair_index)} [{suite.group_of(pid.pair_index)}]"
            for pid in ids
        ]
    else:
        lines = suite.manifest_lines(ids)
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_run(args) -> int:
    config = harness.ExperimentConfig(
        out_dir=args.out,
        functions=args.functions,
        dims=args.dims,
        instances=args.instances,
        optimizers=tuple(args.optimizer or ("random-search",)),
        seeds=tuple(args.seeds),
        budget_multiplier=args.budget_mult,
    )
    harness.run_experiment(config)
    return EXIT_OK


def _cmd_summarize(args) -> int:
    try:
        lines = report.summarize(args.results_dir)
    except report.EmptyResultsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        _emit([report.SUMMARY_HEADER], args.out)
        return EXIT_DATA
    _emit(lines, args.out)
    return EXIT_OK


def _cmd_plot(args) -> int:
    _emit(report.plot_front(harness.read_record(args.record)), args.out)
    return EXIT_OK


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.command == "suite":
            return _cmd_suite(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "summarize":
            return _cmd_summarize(args)
        return _cmd_plot(args)
    # RecordError is a ValueError, so this clause must come first.
    except (harness.RecordError, OSError) as exc:  # bad input or output file
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ValueError as exc:  # argparse's errors and bad settings
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except KeyboardInterrupt:  # record writes are atomic: no partial file
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
