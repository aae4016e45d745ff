"""Property tests of the ``.rec`` format: round trips and corrupt files."""

import os
import tempfile

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from biobj.cli import main
from biobj.harness import (
    RecordError,
    RunRecord,
    read_record,
    run_optimizer,
    write_record,
)
from biobj.indicator import normalize
from biobj.report import load_records
from biobj.suite import instantiate_problem


@st.composite
def records(draw):
    """A record of a short run of either optimizer on a random problem."""
    problem = instantiate_problem(
        draw(st.integers(1, 55)), draw(st.sampled_from((2, 3, 5))), draw(st.integers(1, 10))
    )
    return run_optimizer(
        draw(st.sampled_from(("random-search", "archive-evolver"))),
        problem,
        draw(st.integers(1, 40)),
        draw(st.integers(1, 999)),
    )


@settings(max_examples=60, deadline=None)
@given(records())
def test_text_round_trip(record):
    text = record.to_text()
    assert RunRecord.from_text(text) == record
    assert RunRecord.from_text(text).to_text() == text


@settings(max_examples=30, deadline=None)
@given(records())
def test_archive_columns(record):
    # Each row is (a_norm, b_norm, f1, f2, x): re-evaluating x gives (f1, f2),
    # and normalizing (f1, f2) gives (a_norm, b_norm).
    pid = record.problem
    problem = instantiate_problem(pid.pair_index, pid.dim, pid.instance)
    for row in RunRecord.from_text(record.to_text()).archive:
        assert len(row) == 4 + pid.dim
        (f1,), (f2,) = problem.evaluate(np.array([row[4:]]))
        assert (f1, f2) == row[2:4]
        assert normalize(row[2:4], record.ideal, record.nadir) == row[:2]


def _corrupt(data: bytes, edits) -> bytes:
    lines = data.split(b"\n")
    for kind, where, junk in edits:
        i = where % len(lines)
        if kind == "delete":
            del lines[i]
        elif kind == "truncate":
            lines[i] = lines[i][: len(junk)]
        else:
            lines[i] = junk
        if not lines:
            break
    return b"\n".join(lines)


edit_lists = st.lists(
    st.tuples(
        st.sampled_from(("delete", "truncate", "garble")),
        st.integers(0, 10**6),
        st.one_of(st.binary(max_size=30), st.text(max_size=30).map(str.encode)),
    ),
    min_size=1,
    max_size=4,
)


@settings(max_examples=150, deadline=None)
@given(records(), st.lists(edit_lists, min_size=1, max_size=3))
def test_corrupt_records_fail_only_with_record_error(record, corruptions):
    with tempfile.TemporaryDirectory() as tmp, tempfile.TemporaryDirectory() as svgs:
        path = write_record(record, tmp)
        with open(path, "rb") as fh:
            data = fh.read()
        for n, edits in enumerate(corruptions):
            with open(os.path.join(tmp, f"bad{n}.rec"), "wb") as fh:
                fh.write(_corrupt(data, edits))
        for name in sorted(os.listdir(tmp)):
            try:
                read_record(os.path.join(tmp, name))
                accepted = True
            except RecordError:
                accepted = False
            svg = os.path.join(svgs, name + ".svg")
            assert main(["plot", os.path.join(tmp, name), "--out", svg]) in (0, 2)
            if accepted:  # an accepted record plots finite coordinates
                with open(svg) as fh:
                    text = fh.read()
                assert "nan" not in text and "inf" not in text
        messages = []
        loaded = list(load_records(tmp, on_error=messages.append))
        assert record in loaded
        assert len(loaded) + len(messages) == 1 + len(corruptions)
