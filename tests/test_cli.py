"""Every argv the CLI is given ends with a documented exit code.

A hypothesis property draws argv from the parser's grammar for every
subcommand, with values from small to 10**300, negative, NaN and malformed,
and runs each through ``cli.main`` in process.  Only argv whose run is a few
tiny cells is executed; larger valid settings are checked by building their
``ExperimentConfig``.
"""

import argparse
import contextlib
import io
import os
import subprocess
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

import biobj
from biobj import cli, harness, suite
from biobj.harness import ExperimentConfig, run_experiment
from biobj.suite import N_INSTANCES, SUITE_DIMS, enumerate_suite

BIG = (10**300, -(10**300), 2**63, 2**64 + 1, 10**19)

#: Integer text from small to 10**300, of either sign.
INTS = st.one_of(
    st.integers(-3, 60), st.sampled_from(BIG), st.integers(-(10**300), 10**300)
).map(str)

MALFORMED = st.sampled_from(
    ["nan", "inf", "-inf", "", " ", "1e3", "2.5", "0x10", "abc", "1-", "-", "--",
     "1,,2", "1-2-3", "٣", "5-3"]
)

#: LO-HI ranges: reversed, up to four values wide, or far wider than
#: ``cli.MAX_VALUES``.
RANGES = st.builds(
    lambda lo, width: f"{lo}-{lo + width}",
    st.integers(-3, 60),
    st.integers(-2, 3) | st.sampled_from(BIG),
)

#: A filter flag's value: up to three chunks, or a malformed one.
INT_SETS = st.lists(INTS | RANGES, min_size=1, max_size=3).map(",".join) | MALFORMED

#: Placeholders for the inputs of ``summarize`` and ``plot``.
PATHS = ("RES", "REC", "CORRUPT", "EMPTY", "FILE", "MISSING")

JUNK = st.sampled_from([["--sigma", "0.5"], ["--bogus"], ["--out"], ["extra"]])


def _mostly(valid, adversarial):
    """Mostly ``valid``, sometimes ``adversarial``."""
    return st.integers(0, 7).flatmap(lambda i: valid if i else adversarial)


FILTERS = {
    "--functions": _mostly(st.integers(1, 55).map(str), INT_SETS),
    "--dims": _mostly(st.sampled_from(SUITE_DIMS).map(str), INT_SETS),
    "--instances": _mostly(st.integers(1, 12).map(str), INT_SETS),
}
RUN_FLAGS = {
    **FILTERS,
    "--seeds": _mostly(st.integers(0, 20).map(str), INT_SETS),
    "--budget-mult": _mostly(st.integers(1, 5).map(str), INTS | MALFORMED),
    "--optimizer": _mostly(
        st.sampled_from(harness.OPTIMIZERS), st.sampled_from(["cmaes", ""])
    ),
}
OUT = st.sampled_from(["OUT", "MISSING/out"])
COMMANDS = ("suite list", "suite manifest", "run", "run", "summarize", "plot")


@st.composite
def argvs(draw):
    """An argv from the parser's grammar, sometimes with a junk argument.

    ``run`` is drawn twice as often as each other command and is nearly
    always given each of its flags (the others about half of theirs), so
    that valid runs small enough to execute are common.
    """
    command = draw(st.sampled_from(COMMANDS))
    argv = command.split()
    if command == "run":
        flags, odds = {**RUN_FLAGS, "--out": st.just("OUT")}, 15
    else:
        flags, odds = {"--out": OUT}, 1
        if command.startswith("suite"):
            flags.update(FILTERS)
        else:
            argv.append(draw(st.sampled_from(PATHS)))
    for name, values in flags.items():
        if draw(st.integers(0, odds)):
            argv += [name, draw(values)]
    if draw(st.integers(0, 9)) == 0:
        argv += draw(JUNK)
    return argv


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """The existing inputs that ``PATHS`` name (all but MISSING), made once."""
    root = tmp_path_factory.mktemp("inputs")
    res = run_experiment(ExperimentConfig(
        out_dir=str(root / "res"), functions=(1,), dims=(2,), instances=(1,),
        optimizers=harness.OPTIMIZERS, seeds=(1,), budget_multiplier=5,
    ))
    rec = os.path.join(res, "k01_d02_i01_archive-evolver_s001.rec")
    corrupt = root / "corrupt.rec"
    with open(rec) as fh:
        corrupt.write_text(fh.read().replace("seed: 1\n", "seed: nan\n"))
    (root / "empty").mkdir()
    (root / "file.txt").write_text("not a record\n")
    return {"RES": res, "REC": rec, "CORRUPT": str(corrupt),
            "EMPTY": str(root / "empty"), "FILE": str(root / "file.txt")}


@contextlib.contextmanager
def _ranges_capped():
    """Fail, rather than fill memory, if ``cli`` expands a range longer than
    ``cli.MAX_VALUES``."""

    def bounded_range(lo, hi):
        assert hi - lo <= cli.MAX_VALUES, "a range past the cap was expanded"
        return range(lo, hi)

    with mock.patch.object(cli, "range", bounded_range, create=True):
        yield


def test_long_range_is_rejected_before_it_is_expanded(tmp_path, capsys):
    with _ranges_capped():
        assert cli.main(["suite", "list", "--functions", "1-10000000000"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "usage error: argument --functions: '1-10000000000' names more than "
            f"{cli.MAX_VALUES} values\n"
        )
        out = tmp_path / "res"
        assert cli.main(["run", "--seeds", "0-1000000", "--out", str(out)]) == 1
        assert "'0-1000000' names more than" in capsys.readouterr().err
        assert not out.exists()


def test_problem_count_is_capped_before_any_id_is_built(capsys, monkeypatch):
    built = []

    class CountingId(suite.ProblemId):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(suite, "ProblemId", CountingId)
    assert cli.main(["suite", "list", "--instances", "1-1000000"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"usage error: the filters select more than {suite.MAX_PROBLEMS} problems\n"
    )
    assert built == []
    assert cli.main(["suite", "list", "--dims", "2", "--instances", "1-2"]) == 0
    assert len(built) == 110  # the count sees every id built


def test_range_cap_counts_every_chunk(monkeypatch):
    monkeypatch.setattr(cli, "MAX_VALUES", 5)
    assert cli._int_set("1-5") == (1, 2, 3, 4, 5)
    assert cli._int_set("3,1-4") == (1, 2, 3, 4)
    for text, chunk in [("1-6", "1-6"), ("1-3,4-6", "4-6"), ("0,-4-0", "-4-0")]:
        with pytest.raises(argparse.ArgumentTypeError, match=f"'{chunk}' names more"):
            cli._int_set(text)


def _cheap(argv) -> bool:
    """Whether ``main(argv)`` does little work: it stops at a usage error,
    lists problems without building them, or builds at most four problems
    (``suite manifest``) or runs at most four cells at budget multiplier
    <= 5, all with instance ids from the table (a larger id runs the
    validity loop)."""
    try:
        args = cli._build_parser().parse_args(argv)
        if args.command == "run":
            config = ExperimentConfig(
                out_dir=args.out, functions=args.functions, dims=args.dims,
                instances=args.instances,
                optimizers=tuple(args.optimizer or ("random-search",)),
                seeds=tuple(args.seeds), budget_multiplier=args.budget_mult,
            )
            ids, cells = config.problem_ids, len(config.optimizers) * len(config.seeds)
            if config.budget_multiplier > 5:
                return False
        elif args.command == "suite":
            ids, cells = enumerate_suite(args.functions, args.dims, args.instances), 1
            if args.suite_command == "list":
                return True
        else:
            return True
    except ValueError:
        return True
    return len(ids) * cells <= 4 and all(pid.instance <= N_INSTANCES for pid in ids)


@settings(max_examples=300, deadline=None)
@given(argv=argvs())
def test_exit_code_is_documented(inputs, argv):
    with tempfile.TemporaryDirectory() as tmp, _ranges_capped():
        paths = {**inputs, "OUT": os.path.join(tmp, "out"),
                 "MISSING": os.path.join(tmp, "missing")}
        paths["MISSING/out"] = os.path.join(paths["MISSING"], "out")
        argv = [paths.get(a, a) for a in argv]
        if not _cheap(argv):
            event("not run")
            return
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        err = stderr.getvalue()
        event(f"{argv[0]} exit {code}")
        assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_DATA), err
        assert "Traceback" not in err
        if code == cli.EXIT_USAGE:
            assert err.startswith("usage error: ") and err.count("\n") == 1
            assert not os.path.exists(paths["OUT"])
            assert not os.path.exists(paths["MISSING"])


@pytest.mark.parametrize(
    "argv",
    [
        ["suite", "list", "--functions", "56", "--out", "OUT"],
        ["suite", "manifest", "--dims", "7", "--out", "OUT"],
        ["run", "--functions", "1", "--dims", "2", "--instances", "1",
         "--sigma", "0.5", "--out", "OUT"],
        ["summarize", "RES", "--out", "OUT", "--bogus"],
        ["plot", "REC", "--out", "OUT", "--seeds", "1"],
    ],
    ids=["suite-list", "suite-manifest", "run", "summarize", "plot"],
)
def test_usage_error_under_python_O(inputs, tmp_path, argv):
    out = tmp_path / "out"
    argv = [{**inputs, "OUT": str(out)}.get(a, a) for a in argv]
    src = os.path.dirname(os.path.dirname(biobj.__file__))
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "biobj", *argv],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == cli.EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("usage error: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not out.exists()
