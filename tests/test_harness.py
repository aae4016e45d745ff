import os

import pytest

from biobj import harness
from biobj.cli import main
from biobj.harness import (
    ExperimentConfig,
    RecordError,
    RunRecord,
    read_record,
    run_archive_evolver,
    run_experiment,
    run_random_search,
    write_record,
)
from biobj.report import EmptyResultsError, load_records, plot_front, summarize
from biobj.suite import instantiate_problem


def sphere_problem(dim=2, instance=1):
    return instantiate_problem(1, dim, instance)


class TestRandomSearch:
    def test_budget_one(self):
        record = run_random_search(sphere_problem(), 1, 3)
        assert len(record.trace) == 1
        assert record.trace[0][0] == 1
        assert len(record.archive) == 1

    def test_deterministic(self):
        a = run_random_search(sphere_problem(), 200, 7)
        b = run_random_search(sphere_problem(), 200, 7)
        assert a.trace == b.trace
        assert a.to_text() == b.to_text()

    def test_budget_accounting(self):
        p = sphere_problem()
        run_random_search(p, 321, 1)
        assert p.eval_count == 321

    def test_trace_monotone(self):
        record = run_random_search(sphere_problem(), 2000, 5)
        for prev, cur in zip(record.trace, record.trace[1:]):
            assert cur[0] > prev[0]
            assert cur[1] >= prev[1]
        assert record.trace[-1][0] <= record.budget

    def test_rejects_zero_budget(self):
        with pytest.raises(ValueError):
            run_random_search(sphere_problem(), 0, 1)


class TestArchiveEvolver:
    def test_budget_one_is_single_sample(self):
        record = run_archive_evolver(sphere_problem(), 1, 9)
        assert len(record.archive) == 1

    def test_deterministic(self):
        a = run_archive_evolver(sphere_problem(), 300, 2, 0.5)
        b = run_archive_evolver(sphere_problem(), 300, 2, 0.5)
        assert a.to_text() == b.to_text()

    def test_multimodal_pair_contract(self):
        record = run_archive_evolver(instantiate_problem(55, 5, 1), 400, 1)
        assert record.trace
        for prev, cur in zip(record.trace, record.trace[1:]):
            assert cur[0] > prev[0] and cur[1] >= prev[1]

    def test_rejects_bad_sigma(self):
        with pytest.raises(ValueError):
            run_archive_evolver(sphere_problem(), 10, 1, step_sigma=0.0)


class TestRecordIO:
    def test_roundtrip(self, tmp_path):
        record = run_random_search(sphere_problem(3, 2), 150, 4)
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
        record = run_archive_evolver(sphere_problem(), 50, 1, 0.25)
        assert "sigma: 0.25\n" in record.to_text()
        assert read_record(write_record(record, str(tmp_path))).sigma == 0.25

    def test_monotonicity_checked_on_load(self, tmp_path):
        record = run_random_search(sphere_problem(), 50, 1)
        path = write_record(record, str(tmp_path))
        text = open(path).read().replace("trace:", "trace:\n49 0.999", 1)
        bad = tmp_path / "bad.rec"
        bad.write_text(text)
        with pytest.raises(RecordError):
            read_record(str(bad))

    def test_missing_header_field(self, tmp_path):
        bad = tmp_path / "bad.rec"
        bad.write_text("pair_index: 1\ntrace:\narchive:\n")
        with pytest.raises(RecordError):
            read_record(str(bad))

    def test_non_positive_dim_rejected(self, tmp_path):
        text = run_random_search(sphere_problem(), 20, 1).to_text()
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
        lines = run_random_search(sphere_problem(), 20, 1).to_text().splitlines()
        i = next(i for i, line in enumerate(lines) if line.startswith(f"{key}: "))
        lines[i] = f"{key}: {bad}"
        with pytest.raises(RecordError, match=error):
            RunRecord.from_text("\n".join(lines) + "\n")

    def test_archive_row_width_checked(self, tmp_path):
        text = run_random_search(sphere_problem(), 20, 1).to_text()
        bad = tmp_path / "bad.rec"
        bad.write_text(text + "0.5 0.5 1.0 1.0 0.0\n")  # D=2 needs 6 values
        with pytest.raises(RecordError, match="bad.rec"):
            read_record(str(bad))

    def test_archive_order_checked_on_load(self):
        record = run_random_search(sphere_problem(), 200, 1)
        assert len(record.archive) >= 2
        record.archive[0], record.archive[1] = record.archive[1], record.archive[0]
        with pytest.raises(RecordError, match="non-dominated"):
            RunRecord.from_text(record.to_text())

    def test_final_hv_checked_against_archive(self):
        record = run_random_search(sphere_problem(), 200, 1)
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

    def test_empty_selection_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(out_dir=str(tmp_path), functions=())

    def test_unknown_optimizer_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentConfig(out_dir=str(tmp_path), optimizers=("cmaes",))

    def test_under_evaluating_optimizer_raises(self, tmp_path, monkeypatch):
        def short_run(name, problem, budget, seed, sigma):
            return run_random_search(problem, budget - 1, seed)

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
        for ln in lines[1:]:
            fields = ln.split("\t")
            assert int(fields[3]) == 4  # 2 instances x 2 seeds
            q1, med, q3 = float(fields[5]), float(fields[4]), float(fields[6])
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
        record = run_random_search(sphere_problem(), 500, 1)
        path = write_record(record, str(tmp_path))
        out = str(tmp_path / "front.svg")
        plot_front(read_record(path), out)
        svg = open(out).read()
        assert svg.count("front-point") == len(record.archive)
        assert svg.count("ideal-marker") == 1
        assert svg.count("nadir-marker") == 1
        assert "Sphere" in svg

    def test_axis_labels_carry_function_names(self, tmp_path):
        record = run_random_search(instantiate_problem(10, 2, 1), 200, 1)
        path = write_record(record, str(tmp_path))
        out = str(tmp_path / "front.svg")
        plot_front(read_record(path), out)
        svg = open(out).read()
        assert "Sphere" in svg and "Gallagher 101 peaks" in svg

    def test_deterministic_bytes(self, tmp_path):
        record = run_random_search(sphere_problem(), 100, 2)
        path = write_record(record, str(tmp_path))
        out1, out2 = str(tmp_path / "a.svg"), str(tmp_path / "b.svg")
        plot_front(read_record(path), out1)
        plot_front(read_record(path), out2)
        assert open(out1, "rb").read() == open(out2, "rb").read()


class TestCli:
    def test_usage_error_exit_code(self, capsys):
        assert main(["frobnicate"]) == 1
        assert main(["run", "--out"]) == 1

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

    def test_plot_missing_record_exit_code(self, tmp_path):
        assert main(["plot", str(tmp_path / "nope.rec"), "--out", "x.svg"]) == 2

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
