import argparse
import hashlib
import importlib
import math
import os
import re
import signal
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import biobj
from biobj import cli, harness
from biobj.cli import _build_parser, main
from biobj.harness import (
    ExperimentConfig,
    RecordError,
    RunRecord,
    read_record,
    run_experiment,
    run_optimizer,
    write_record,
)
from biobj.report import EmptyResultsError, load_records, plot_front, summarize
from biobj.suite import instantiate_problem


def sphere_problem(dim=2, instance=1):
    return instantiate_problem(1, dim, instance)


class TestRandomSearch:
    def test_budget_one(self):
        record = run_optimizer("random-search", sphere_problem(), 1, 3)
        assert len(record.trace) == 1
        assert record.trace[0][0] == 1
        assert len(record.archive) == 1

    def test_deterministic(self):
        a = run_optimizer("random-search", sphere_problem(), 200, 7)
        b = run_optimizer("random-search", sphere_problem(), 200, 7)
        assert a.trace == b.trace
        assert a.to_text() == b.to_text()

    def test_budget_accounting(self):
        p = sphere_problem()
        run_optimizer("random-search", p, 321, 1)
        assert p.eval_count == 321

    def test_trace_monotone(self):
        record = run_optimizer("random-search", sphere_problem(), 2000, 5)
        for prev, cur in zip(record.trace, record.trace[1:]):
            assert cur[0] > prev[0]
            assert cur[1] >= prev[1]
        assert record.trace[-1][0] <= record.budget

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            run_optimizer("random-search", sphere_problem(), 0, 1)

    def test_sigma_ignored(self):
        texts = {
            run_optimizer("random-search", sphere_problem(), 200, 3, sigma).to_text()
            for sigma in (harness.DEFAULT_SIGMA, 1e-3, 3.0)
        }
        assert len(texts) == 1
        assert "sigma:" not in texts.pop()


class TestArchiveEvolver:
    def test_budget_one_is_single_sample(self):
        record = run_optimizer("archive-evolver", sphere_problem(), 1, 9)
        assert len(record.archive) == 1

    def test_deterministic(self):
        a = run_optimizer("archive-evolver", sphere_problem(), 300, 2, 0.5)
        b = run_optimizer("archive-evolver", sphere_problem(), 300, 2, 0.5)
        assert a.to_text() == b.to_text()

    def test_multimodal_pair_contract(self):
        record = run_optimizer("archive-evolver", instantiate_problem(55, 5, 1), 400, 1)
        assert record.trace
        for prev, cur in zip(record.trace, record.trace[1:]):
            assert cur[0] > prev[0] and cur[1] >= prev[1]

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            run_optimizer("archive-evolver", sphere_problem(), 10, 1, sigma=0.0)


class TestRecordIO:
    def test_roundtrip(self, tmp_path):
        record = run_optimizer("random-search", sphere_problem(3, 2), 150, 4)
        path = write_record(record, str(tmp_path))
        loaded = read_record(path)
        assert loaded == record
        assert (loaded.problem.pair_index, loaded.problem.dim) == (1, 3)
        assert (loaded.problem.instance, loaded.seed, loaded.budget) == (2, 4, 150)
        assert loaded.optimizer == "random-search"
        assert loaded.final_hv == record.final_hv
        # column order: normalized pair, raw pair, decision vector
        assert len(loaded.archive[0]) == 2 + 2 + 3

    def test_evolver_sigma_roundtrip(self, tmp_path):
        record = run_optimizer("archive-evolver", sphere_problem(), 50, 1, 0.25)
        assert "sigma: 0.25\n" in record.to_text()
        assert read_record(write_record(record, str(tmp_path))).sigma == 0.25

    @pytest.mark.parametrize("optimizer", harness.OPTIMIZERS)
    def test_writer_and_header_table_agree(self, optimizer):
        # A key added to only one of to_text and _HEADER shows here.
        text = run_optimizer(optimizer, sphere_problem(), 20, 1).to_text()
        keys = [line.split(": ")[0] for line in text.partition("trace:\n")[0].splitlines()]
        expected = list(harness._HEADER)
        assert keys == (expected if optimizer == "archive-evolver" else expected[:-1])

    def test_monotonicity_checked_on_load(self, tmp_path):
        record = run_optimizer("random-search", sphere_problem(), 200, 1)
        trace, mid = record.trace, len(record.trace) // 2
        assert trace[0][0] == 1 and 0 < mid < len(trace) - 1
        bad_traces = [
            [(49, 0.999), *trace],
            [(-3, -1.0), *trace],
            [(0, -5.0), *trace],
            [(0, 0.0), *trace],  # first index below 1
            [(1, -1.0), *trace[1:]],  # first value below 0
            [*trace[:mid], (trace[mid][0], math.nan), *trace[mid + 1 :]],
            [(trace[0][0], -0.0), *trace[1:]],  # passes >= 0.0
        ]
        bad = tmp_path / "bad.rec"
        for bad_trace in bad_traces:
            bad.write_text(replace(record, trace=bad_trace).to_text())
            with pytest.raises(RecordError, match="trace line"):
                read_record(str(bad))

    def test_negative_zero_final_value_rejected(self, tmp_path):
        # A run whose archive never strictly dominates the nadir has HV 0
        # throughout, so a last value of -0.0 matches its archive, and
        # summarize would print -0.000000 for it.
        record = run_optimizer("random-search", instantiate_problem(2, 40, 1), 40, 1)
        assert {hv for _, hv in record.trace} == {0.0}
        record.trace[-1] = (record.trace[-1][0], -0.0)
        bad = tmp_path / "bad.rec"
        bad.write_text(record.to_text())
        with pytest.raises(RecordError, match=r"trace line \d+ -0\.0: "):
            read_record(str(bad))

    def test_non_utf8_byte_named_with_path(self, tmp_path):
        text = run_optimizer("random-search", sphere_problem(), 20, 1).to_text()
        at = text.index("trace:")
        bad = tmp_path / "bad.rec"
        bad.write_bytes(text[:at].encode() + b"\xff" + text[at:].encode())
        with pytest.raises(RecordError) as info:
            read_record(str(bad))
        assert str(info.value) == (
            f"{bad}: 'utf-8' codec can't decode byte 0xff in position {at}: "
            "invalid start byte"
        )

    @pytest.mark.parametrize("section", ["trace", "archive"])
    @pytest.mark.parametrize(
        "garble",
        [
            lambda line: line.replace(".", ",", 1),
            lambda line: line[: len(line) // 2] + "\x00" + line[len(line) // 2 :],
        ],
        ids=["comma", "nul"],
    )
    def test_malformed_line_in_long_section_named(self, tmp_path, section, garble):
        # Two lines deep in a long section are garbled: the first is named.
        text = run_optimizer("random-search", sphere_problem(), 2000, 1).to_text()
        lines = text.splitlines()
        start = lines.index(f"{section}:") + 1
        end = lines.index("archive:") if section == "trace" else len(lines)
        assert end - start > 100
        mid = (start + end) // 2
        lines[mid], lines[end - 1] = garble(lines[mid]), garble(lines[end - 1])
        bad = tmp_path / "bad.rec"
        bad.write_text("\n".join(lines) + "\n")
        with pytest.raises(RecordError) as exc:
            read_record(str(bad))
        assert str(exc.value) == f"{bad}: malformed {section} line: {lines[mid]!r}"

    def test_missing_header_field(self, tmp_path):
        bad = tmp_path / "bad.rec"
        bad.write_text("pair_index: 1\ntrace:\narchive:\n")
        with pytest.raises(RecordError):
            read_record(str(bad))

    @pytest.mark.parametrize(
        "body", ["trace:\n1 0.0\narchive:\n", "trace:\narchive:\n"]
    )
    def test_empty_archive_rejected(self, tmp_path, body):
        # Each passed every other check: no archive has a hypervolume of 0.
        text = run_optimizer("random-search", sphere_problem(), 20, 1).to_text()
        bad = tmp_path / "bad.rec"
        bad.write_text(text.partition("trace:\n")[0] + body)
        with pytest.raises(RecordError, match="must not be empty"):
            read_record(str(bad))
        assert main(["plot", str(bad), "--out", str(tmp_path / "front.svg")]) == 2

    def test_non_positive_dim_rejected(self, tmp_path):
        text = run_optimizer("random-search", sphere_problem(), 20, 1).to_text()
        head, _, _ = text.partition("archive:\n")
        bad = tmp_path / "bad.rec"
        # With dim -3 a one-value row would have the expected width 4 + D.
        bad.write_text(head.replace("dim: 2", "dim: -3") + "archive:\n0.5\n")
        with pytest.raises(RecordError, match="dim"):
            read_record(str(bad))

    @pytest.mark.parametrize(
        "key, bad, error",
        [
            ("pair_index", "99", "pair index"),
            ("dim", "4", "dimension 4"),
            ("instance", "0", "instance id"),
            ("group", "moderate-moderate", "group"),
        ],
    )
    def test_problem_fields_checked(self, key, bad, error):
        record = run_optimizer("random-search", sphere_problem(), 20, 1)
        lines = record.to_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
        lines[i] = f"{key}: {bad}"
        with pytest.raises(RecordError, match=error):
            RunRecord.from_text("\n".join(lines) + "\n")

    def test_archive_row_width_checked(self, tmp_path):
        text = run_optimizer("random-search", sphere_problem(), 20, 1).to_text()
        bad = tmp_path / "bad.rec"
        bad.write_text(text + "0.5 0.5 1.0 1.0 0.0\n")  # D=2 needs 6 values
        with pytest.raises(RecordError, match="bad.rec"):
            read_record(str(bad))

    def test_archive_order_checked_on_load(self):
        record = run_optimizer("random-search", sphere_problem(), 200, 1)
        assert len(record.archive) >= 2
        record.archive[0], record.archive[1] = record.archive[1], record.archive[0]
        with pytest.raises(RecordError, match="non-dominated"):
            RunRecord.from_text(record.to_text())

    def test_infinite_objectives_rejected_on_load(self):
        # (inf - ideal) / span == inf, so the normalization check passes
        # a row whose f1 and a_norm are both infinite.
        record = run_optimizer("random-search", sphere_problem(), 200, 1)
        row = len(record.archive) + 1
        with pytest.raises(RecordError, match=rf"archive row {row} f1 f2 \(inf, -inf\)"):
            RunRecord.from_text(record.to_text() + "inf -inf inf -inf 0.5 0.5\n")

    def test_final_hv_checked_against_archive(self):
        record = run_optimizer("random-search", sphere_problem(), 200, 1)
        i, hv = record.trace[-1]
        record.trace[-1] = (i, hv + 1e-9)  # still monotone
        with pytest.raises(RecordError, match="final hypervolume"):
            RunRecord.from_text(record.to_text())

    def test_file_modes_follow_umask(self, tmp_path):
        old = os.umask(0o027)
        try:
            out = run_experiment(ExperimentConfig(
                out_dir=str(tmp_path / "res"), functions=(1,), dims=(2,),
                instances=(1,), seeds=(1,), budget_multiplier=5,
            ))
        finally:
            os.umask(old)
        names = sorted(os.listdir(out))
        assert names == ["k01_d02_i01_random-search_s001.rec", "manifest.txt"]
        for name in names:
            assert os.stat(os.path.join(out, name)).st_mode & 0o777 == 0o640


class TestExperiment:
    def test_single_cell(self, tmp_path):
        config = ExperimentConfig(
            out_dir=str(tmp_path / "res"),
            functions=(2,),
            dims=(2,),
            instances=(1,),
            optimizers=("random-search",),
            seeds=(1,),
            budget_multiplier=50,
        )
        out = run_experiment(config)
        names = sorted(os.listdir(out))
        assert names == ["k02_d02_i01_random-search_s001.rec", "manifest.txt"]

    def test_record_count_and_idempotent_rerun(self, tmp_path):
        out = str(tmp_path / "res")
        config = dict(
            out_dir=out,
            functions=(1, 11),
            dims=(2,),
            instances=(1, 2),
            optimizers=("random-search", "archive-evolver"),
            seeds=(1, 2, 3),
            budget_multiplier=25,
        )
        run_experiment(ExperimentConfig(**config))
        records = [n for n in os.listdir(out) if n.endswith(".rec")]
        assert len(records) == 2 * 1 * 2 * 2 * 3
        first = {n: open(os.path.join(out, n), "rb").read() for n in sorted(os.listdir(out))}
        run_experiment(ExperimentConfig(**config))
        second = {n: open(os.path.join(out, n), "rb").read() for n in sorted(os.listdir(out))}
        assert first == second

    def test_repeated_optimizers_and_seeds_run_once(self, tmp_path):
        config = ExperimentConfig(
            out_dir=str(tmp_path / "res"), functions=(1,), dims=(2,), instances=(1,),
            optimizers=("archive-evolver", "random-search", "archive-evolver"),
            seeds=(2, 1, 2), budget_multiplier=5,
        )
        assert config.optimizers == ("archive-evolver", "random-search")
        assert config.seeds == (2, 1)
        done = []
        run_experiment(config, progress=done.append)
        assert [(r.optimizer, r.seed) for r in done] == [
            ("archive-evolver", 2), ("archive-evolver", 1),
            ("random-search", 2), ("random-search", 1),
        ]

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(out_dir=str(tmp_path), functions=())
        # With no optimizer the settings rule never runs, so this must raise.
        with pytest.raises(ValueError, match="at least one optimizer"):
            ExperimentConfig(out_dir=str(tmp_path), optimizers=(), seeds=(-1,))

    def test_unknown_optimizer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(out_dir=str(tmp_path), optimizers=("cmaes",))
        with pytest.raises(ValueError, match="unknown optimizer 'cmaes'"):
            harness.run_optimizer("cmaes", sphere_problem(), 10, 1)

    def test_under_evaluating_optimizer_raises(self, tmp_path, monkeypatch):
        def short_run(name, problem, budget, seed, sigma):
            return run_optimizer("random-search", problem, budget - 1, seed)

        monkeypatch.setattr(harness, "run_optimizer", short_run)
        config = ExperimentConfig(
            out_dir=str(tmp_path / "res"), functions=(1,), dims=(2,),
            instances=(1,), seeds=(1,), budget_multiplier=5,
        )
        # A checked error, not an assert, so it also fires under python -O.
        with pytest.raises(RuntimeError, match="made 9 evaluations"):
            run_experiment(config)


class TestSummarize:
    def make_results(self, tmp_path, **overrides):
        config = dict(
            out_dir=str(tmp_path / "res"),
            functions=(1, 20),
            dims=(2,),
            instances=(1, 2),
            optimizers=("random-search",),
            seeds=(1, 2),
            budget_multiplier=30,
        )
        config.update(overrides)
        return run_experiment(ExperimentConfig(**config))

    def test_groups_and_stats(self, tmp_path):
        out = self.make_results(tmp_path)
        lines = summarize(out)
        assert lines[0].startswith("group\tdim\toptimizer")
        groups = {ln.split("\t")[0] for ln in lines[1:]}
        assert groups == {"separable-separable", "moderate-moderate"}
        cells = {}
        for rec in load_records(out):
            key = (rec.group, str(rec.problem.dim), rec.optimizer)
            cells.setdefault(key, []).append(rec.final_hv)
        assert len(lines) - 1 == len(cells)
        for ln in lines[1:]:
            group, dim, optimizer, n_runs, *stats = ln.split("\t")
            # 2 instances x 2 seeds: quartile weights 0.75, 0.5 and 0.25,
            # so both forms of the lerp are taken
            assert int(n_runs) == 4
            q1, med, q3 = np.percentile(cells[(group, dim, optimizer)], [25, 50, 75])
            assert stats == [f"{med:.6f}", f"{q1:.6f}", f"{q3:.6f}"]
            assert q1 <= med <= q3

    def test_single_record_median(self, tmp_path):
        out = self.make_results(
            tmp_path, functions=(1,), instances=(1,), seeds=(1,)
        )
        record = load_records(out)[0]
        line = summarize(out)[1]
        assert float(line.split("\t")[4]) == pytest.approx(
            record.final_hv, abs=1e-6
        )

    def test_empty_directory(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(EmptyResultsError):
            summarize(str(empty))

    def test_corrupt_file_reported_and_skipped(self, tmp_path):
        out = self.make_results(tmp_path, functions=(1,), instances=(1,), seeds=(1,))
        (tmp_path / "res" / "zz_corrupt.rec").write_text("not a record\n")
        messages = []
        lines = summarize(out, on_error=messages.append)
        assert len(messages) == 1
        assert "zz_corrupt" in messages[0]
        assert len(lines) == 2


class TestPlot:
    def test_structural_content(self, tmp_path):
        record = run_optimizer("random-search", sphere_problem(), 500, 1)
        path = write_record(record, str(tmp_path))
        svg = "\n".join(plot_front(read_record(path)))
        assert svg.count("front-point") == len(record.archive)
        assert svg.count("ideal-marker") == 1
        assert svg.count("nadir-marker") == 1
        assert "Sphere" in svg

    def test_axis_labels_carry_function_names(self, tmp_path):
        record = run_optimizer("random-search", instantiate_problem(10, 2, 1), 200, 1)
        path = write_record(record, str(tmp_path))
        svg = "\n".join(plot_front(read_record(path)))
        assert "Sphere" in svg and "Gallagher 101 peaks" in svg

    def test_deterministic_bytes(self, tmp_path):
        record = run_optimizer("random-search", sphere_problem(), 100, 2)
        path = write_record(record, str(tmp_path))
        assert plot_front(read_record(path)) == plot_front(read_record(path))


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--out"]) == 1

    def test_docs_name_exactly_the_parser_subcommands(self):
        def leaves(parser, prefix=""):
            names = set()
            for action in parser._actions:
                if isinstance(action, argparse._SubParsersAction):
                    for name, sub in action.choices.items():
                        names |= leaves(sub, prefix + name + " ") or {prefix + name}
            return names

        accepted = leaves(_build_parser())
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            block = fh.read().split("## CLI\n", 1)[1].split("```")[1]
        readme_names = set()
        for line in block.splitlines():
            if line.startswith("biobj "):
                words = line.split()[1:3]
                readme_names.add(words[0] if words[0] in accepted else " ".join(words))
        doc = cli.__doc__.split("Subcommands:", 1)[1].split("Exit codes", 1)[0]
        assert readme_names == accepted
        assert set(re.findall(r"``([^`]+)``", doc)) == accepted

    def test_suite_list(self, capsys):
        assert main(["suite", "list", "--functions", "1", "--dims", "2"]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 10
        assert "Sphere/Sphere" in out

    def test_suite_manifest_to_file(self, tmp_path):
        path = str(tmp_path / "manifest.txt")
        code = main(
            ["suite", "manifest", "--functions", "1", "--dims", "2",
             "--instances", "1", "--out", path]
        )
        assert code == 0
        lines = open(path).read().splitlines()
        assert len(lines) == 2

    def test_run_summarize_plot_pipeline(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        code = main(
            ["run", "--functions", "1", "--dims", "2", "--instances", "1",
             "--optimizer", "random-search", "--budget-mult", "50",
             "--seeds", "1,2", "--out", out]
        )
        assert code == 0
        assert main(["summarize", out]) == 0
        rec = os.path.join(out, "k01_d02_i01_random-search_s001.rec")
        svg = str(tmp_path / "front.svg")
        assert main(["plot", rec, "--out", svg]) == 0
        assert os.path.exists(svg)

    def test_summarize_empty_dir_exit_code(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["summarize", str(empty)]) == 2
        captured = capsys.readouterr()
        assert captured.out.startswith("group\t")
        assert captured.err == f"error: no readable records in {empty}\n"

    def test_plot_missing_record_exit_code(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope.rec"), "--out", "x.svg"]) == 2

    def test_plot_infinite_objectives_is_a_data_error(self, tmp_path, capsys):
        rec = write_record(run_optimizer("random-search", sphere_problem(), 50, 1), str(tmp_path))
        with open(rec, "a") as fh:
            fh.write("inf -inf inf -inf 0.5 0.5\n")
        svg = tmp_path / "front.svg"
        assert main(["plot", rec, "--out", str(svg)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not svg.exists()

    @pytest.mark.parametrize(
        "nadir, trace, archive",
        [
            # raw objectives over 1.8e308 apart: their span overflows
            ("1.0 1.0", "1 0.0", ["-1e+308 1e+308 -1e+308 1e+308 0.0 0.0",
                                  "1e+308 -1e+308 1e+308 -1e+308 0.0 0.0"]),
            # a subnormal span, which halving would make 0
            ("5e-324 5e-324", "1 1.0", ["0.0 0.0 0.0 0.0 0.0 0.0"]),
        ],
    )
    def test_plot_coordinates_finite_at_extreme_spans(self, tmp_path, nadir, trace, archive):
        rec = tmp_path / "extreme.rec"
        rec.write_text(
            "pair_index: 1\ndim: 2\ninstance: 1\ngroup: separable-separable\n"
            "optimizer: random-search\nseed: 1\nbudget: 2\nideal: 0.0 0.0\n"
            f"nadir: {nadir}\ntrace:\n{trace}\narchive:\n" + "\n".join(archive) + "\n"
        )
        svg = tmp_path / "front.svg"
        assert main(["plot", str(rec), "--out", str(svg)]) == 0
        text = svg.read_text()
        assert text.count("front-point") == len(archive)
        assert "nan" not in text and "inf" not in text

    #: sha256 of ``summarize --out`` and ``plot`` on the run of
    #: ``test_text_outputs_pinned``, as written before ``plot_front`` returned
    #: its lines: the CLI writes both through one path.
    SUMMARY_SHA = "05c1eaeb18d689846b73afae88a2465688869f2e536595c5b191bc7cad0533d3"
    PLOT_SHA = "e224021ae8e4665f402cc2d669a0f76a572f476d88a08e34d8a842682955ba6d"

    def test_text_outputs_pinned(self, tmp_path):
        out = str(tmp_path / "res")
        assert main(
            ["run", "--functions", "1,20", "--dims", "2", "--instances", "1",
             "--seeds", "1,2", "--optimizer", "random-search",
             "--optimizer", "archive-evolver", "--budget-mult", "30", "--out", out]
        ) == 0
        tsv, svg = tmp_path / "s.tsv", tmp_path / "p.svg"
        assert main(["summarize", out, "--out", str(tsv)]) == 0
        rec = os.path.join(out, "k20_d02_i01_archive-evolver_s002.rec")
        assert main(["plot", rec, "--out", str(svg)]) == 0
        assert hashlib.sha256(tsv.read_bytes()).hexdigest() == self.SUMMARY_SHA
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == self.PLOT_SHA

    def test_record_without_ideal_line_is_a_data_error(self, tmp_path, capsys):
        out = str(tmp_path / "res")
        assert main(
            ["run", "--functions", "1", "--dims", "2", "--instances", "1",
             "--budget-mult", "10", "--seeds", "1,2", "--out", out]
        ) == 0
        rec = os.path.join(out, "k01_d02_i01_random-search_s001.rec")
        lines = open(rec).read().splitlines(keepends=True)
        with open(rec, "w") as fh:
            fh.writelines(ln for ln in lines if not ln.startswith("ideal:"))
        capsys.readouterr()

        assert main(["summarize", out]) == 0
        captured = capsys.readouterr()
        assert f"skipping {rec}: " in captured.err
        assert "missing header field 'ideal'" in captured.err
        assert captured.out.splitlines()[1].split("\t")[3] == "1"

        assert main(["plot", rec, "--out", str(tmp_path / "front.svg")]) == 2
        assert "missing header field 'ideal'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "optimizer, key, value, error",
        [
            ("random-search", "optimizer", "nonsense", "unknown optimizer 'nonsense'"),
            ("archive-evolver", "sigma", None, "'sigma:' belongs"),
            ("random-search", "sigma", "0.5", "'sigma:' belongs"),
            ("random-search", "seed", "-7", "seeds must be non-negative, got -7"),
            ("random-search", "budget", "0", "budget must be >= 1, got 0"),
            ("random-search", "ideal", "nan nan", "must be strictly below nadir"),
            ("random-search", "ideal", "-inf -inf", "must be finite"),
            ("archive-evolver", "nadir", "inf inf", "must be finite"),
            ("random-search", "ideal", "-50.0 -50.0", "are not its f1 f2 normalized"),
        ],
        ids=["optimizer", "evolver-without-sigma", "search-with-sigma", "seed",
             "budget", "ideal", "ideal-infinite", "nadir-infinite", "ideal-moved"],
    )
    def test_bad_run_settings_are_a_data_error(
        self, tmp_path, capsys, optimizer, key, value, error
    ):
        out = str(tmp_path / "res")
        assert main(
            ["run", "--functions", "1", "--dims", "2", "--instances", "1",
             "--optimizer", "random-search", "--optimizer", "archive-evolver",
             "--budget-mult", "10", "--seeds", "1", "--out", out]
        ) == 0
        rec = os.path.join(out, f"k01_d02_i01_{optimizer}_s001.rec")
        head, _, body = open(rec).read().partition("trace:\n")
        header = dict(line.split(": ", 1) for line in head.splitlines())
        if value is None:
            del header[key]
        else:
            header[key] = value
        with open(rec, "w") as fh:
            fh.write("".join(f"{k}: {v}\n" for k, v in header.items()))
            fh.write("trace:\n" + body)
        with pytest.raises(RecordError, match=error):
            read_record(rec)
        capsys.readouterr()

        assert main(["summarize", out]) == 0
        captured = capsys.readouterr()
        assert f"skipping {rec}: " in captured.err
        assert len(captured.out.splitlines()) == 2  # the other optimizer's row

        assert main(["plot", rec, "--out", str(tmp_path / "front.svg")]) == 2
        assert error in capsys.readouterr().err

    @pytest.mark.parametrize(
        "arg, chunk", [("5-3", "5-3"), ("1--3", "1--3"), ("1,5-3", "5-3")]
    )
    def test_bad_range_is_a_usage_error(self, tmp_path, capsys, arg, chunk):
        assert main(["suite", "list", "--functions", arg]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage error: ") and f"'{chunk}'" in captured.err
        out = tmp_path / "res"
        assert main(["run", "--functions", arg, "--dims", "2", "--out", str(out)]) == 1
        assert f"'{chunk}'" in capsys.readouterr().err
        assert not out.exists()

    def test_exit_codes_under_python_O(self, tmp_path):
        def biobj_O(*args):
            src = os.path.dirname(os.path.dirname(biobj.__file__))
            return subprocess.run(
                [sys.executable, "-O", "-m", "biobj", *args],
                env=dict(os.environ, PYTHONPATH=src),
                capture_output=True, text=True, timeout=120,
            )

        out = tmp_path / "res"
        usage = biobj_O("run", "--functions", "1", "--dims", "2", "--instances", "1",
                        "--budget-mult", "5", "--seeds=-1", "--out", str(out))
        assert usage.returncode == 1, usage.stderr
        assert usage.stderr.startswith("usage error: ")
        assert not out.exists()

        record = run_optimizer("random-search", sphere_problem(), 20, 1)
        rec = write_record(record, str(tmp_path))
        with open(rec) as fh:
            text = fh.read()
        with open(rec, "w") as fh:
            fh.write(text.replace("seed: 1\n", "seed: -7\n"))
        svg = tmp_path / "front.svg"
        data = biobj_O("plot", rec, "--out", str(svg))
        assert data.returncode == 2, data.stderr
        assert data.stderr.startswith("error: ") and "seed" in data.stderr
        assert not svg.exists()

    def test_interrupted_run_exit_code(self, tmp_path):
        out = tmp_path / "res"
        src = os.path.dirname(os.path.dirname(biobj.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "biobj", "run", "--functions", "1-55",
             "--dims", "40", "--instances", "1", "--seeds", "1",
             "--budget-mult", "100", "--out", str(out)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            deadline = time.monotonic() + 60
            while not list(out.glob("*.rec")) and proc.poll() is None:
                assert time.monotonic() < deadline, "no record written"
                time.sleep(0.01)
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert proc.returncode == cli.EXIT_INTERRUPTED, err
        assert err == "interrupted\n"
        assert not list(out.glob("*.tmp"))
        recs = sorted(out.glob("*.rec"))
        assert 1 <= len(recs) < 55
        for rec in recs:
            read_record(str(rec))

    def test_one_version_string(self):
        tomllib = pytest.importorskip("tomllib")
        root = os.path.join(os.path.dirname(__file__), os.pardir)
        with open(os.path.join(root, "pyproject.toml"), "rb") as fh:
            config = tomllib.load(fh)
        assert "version" not in config["project"]
        assert "version" in config["project"]["dynamic"]
        attr = config["tool"]["setuptools"]["dynamic"]["version"]["attr"]
        module, _, name = attr.rpartition(".")
        assert getattr(importlib.import_module(module), name) == biobj.__version__

    @pytest.mark.parametrize("bad", [["--sigma", "0"], ["--seeds=-1"]])
    def test_usage_error_writes_nothing(self, tmp_path, capsys, bad):
        out = tmp_path / "res"
        code = main(
            ["run", "--functions", "1", "--dims", "2", "--instances", "1",
             "--optimizer", "random-search", "--optimizer", "archive-evolver",
             "--budget-mult", "5", *bad, "--out", str(out)]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("usage error: ")
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["summarize", "RES"], ["plot", "REC"],
         ["suite", "list", "--functions", "1"],
         ["suite", "manifest", "--functions", "1", "--dims", "2"]],
        ids=["summarize", "plot", "suite-list", "suite-manifest"],
    )
    def test_out_into_missing_directory_is_a_data_error(self, tmp_path, capsys, argv):
        res = run_experiment(ExperimentConfig(
            out_dir=str(tmp_path / "res"), functions=(1,), dims=(2,),
            instances=(1,), seeds=(1,), budget_multiplier=5,
        ))
        rec = os.path.join(res, "k01_d02_i01_random-search_s001.rec")
        target = tmp_path / "missing" / "x.out"
        argv = [{"RES": res, "REC": rec}.get(a, a) for a in argv]
        assert main([*argv, "--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not target.parent.exists()

    def test_seed_range_syntax(self, tmp_path):
        out = str(tmp_path / "res")
        code = main(
            ["run", "--functions", "1", "--dims", "2", "--instances", "1",
             "--budget-mult", "10", "--seeds", "1-3", "--out", out]
        )
        assert code == 0
        recs = [n for n in os.listdir(out) if n.endswith(".rec")]
        assert len(recs) == 3
