"""The row seam: every report subcommand is one compute → validate →
render function that ``repro profile`` and ``repro report`` call
directly, and output paths fail cleanly before any work.
"""

import argparse
import re

import pytest

import repro.cli
from repro.cli import _ROWS, build_parser, main

#: A small argv for every row, cheap enough to run three times.
ROW_ARGS = {
    "table1": ["table1", "--batch", "8"],
    "fig4": ["fig4"],
    "fig5": ["fig5", "--layers", "3"],
    "fig9": ["fig9", "--batch", "8"],
    "summary": ["summary", "mnist"],
    "trace": ["trace", "--layers", "2", "--batch", "2"],
    "sensitivity": ["sensitivity", "--metric", "energy"],
    "area": ["area", "mnist"],
    "reliability": ["reliability", "mlp", "--count", "8", "--batch", "8",
                    "--train-epochs", "0", "--rates", "0.0"],
    "sweep": ["sweep", "mlp", "--count", "4", "--batch", "4",
              "--train-epochs", "0", "--rates", "0.0"],
    "infer": ["infer", "mlp", "--count", "8", "--batch", "8"],
    "train": ["train", "mlp", "--train-count", "16", "--test-count", "8",
              "--batch", "8"],
}

#: The subcommands that are not rows.
NON_ROWS = ("serve", "top", "check", "bench", "profile", "report")


def _subcommands():
    (subparsers,) = (
        action
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    return set(subparsers.choices)


def test_every_subcommand_is_a_row_or_named_non_row():
    assert set(ROW_ARGS) == set(_ROWS)
    assert _subcommands() == set(_ROWS) | set(NON_ROWS)


@pytest.mark.parametrize("name", sorted(ROW_ARGS))
def test_profile_prints_the_row_then_its_summary(capsys, tmp_path, name):
    argv = ROW_ARGS[name]
    assert main(argv) == 0
    row_output = capsys.readouterr().out
    trace = tmp_path / "trace.json"
    assert main(["profile", "--trace-out", str(trace), *argv]) == 0
    output = capsys.readouterr().out
    assert output.startswith(row_output)
    summary = output[len(row_output):].splitlines()
    assert re.fullmatch(
        rf"profiled `repro {re.escape(' '.join(argv))}` in \d+\.\d{{3}} s "
        r"\(exit 0\): \d+ counters, \d+ spans",
        summary[0],
    )
    assert summary[-1].startswith(f"chrome trace written to {trace} ")
    assert trace.is_file()


@pytest.mark.parametrize("name", sorted(ROW_ARGS))
def test_report_returns_the_row_exit_code(capsys, name):
    assert main(["report", *ROW_ARGS[name]]) == 0
    assert capsys.readouterr().out.startswith("analysis of repro ")


@pytest.mark.parametrize("wrapper", ["profile", "report"])
@pytest.mark.parametrize("name", NON_ROWS)
def test_wrappers_refuse_non_rows(capsys, tmp_path, wrapper, name):
    argv = [wrapper, name]
    if wrapper == "profile":
        argv = [wrapper, "--trace-out", str(tmp_path / "t.json"), name]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"{wrapper}: cannot wrap {name!r}\n"
    assert captured.out == ""
    assert not (tmp_path / "t.json").exists()


def _forbid(monkeypatch, attribute):
    """Make ``repro.cli.<attribute>`` fail the test if anything calls it."""

    def ran(*args, **kwargs):
        pytest.fail(f"{attribute} ran before the output path was checked")

    monkeypatch.setattr(repro.cli, attribute, ran)


@pytest.mark.parametrize(
    "argv,command",
    [
        (["serve", "--smoke", "1", "--event-log", "{missing}/e.jsonl"],
         "serve"),
        (["sweep", "mlp", "--stats-out", "{missing}/s.json"], "sweep"),
        (["sweep", "mlp", "--trace-out", "{missing}/t.json"], "sweep"),
        (["profile", "--trace-out", "{missing}/x.json", "sweep", "mlp"],
         "profile"),
        (["profile", "--trace-out", "{ok}/x.json", "sweep", "mlp",
          "--stats-out", "{missing}/s.json"], "sweep"),
    ],
    ids=["serve --event-log", "sweep --stats-out", "sweep --trace-out",
         "profile --trace-out", "profile sweep --stats-out"],
)
def test_missing_output_directory_fails_before_any_work(
    capsys, monkeypatch, tmp_path, argv, command
):
    _forbid(monkeypatch, "campaign_cells")
    _forbid(monkeypatch, "_cmd_serve")
    missing = tmp_path / "no" / "such"
    argv = [
        word.format(missing=missing, ok=tmp_path) for word in argv
    ]
    assert main(argv) == 2
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro {command}: error: cannot write {missing}/")
    assert captured.out == ""


def test_unwritable_output_at_write_time_is_one_line(capsys, tmp_path):
    """A path whose directory exists but which cannot be written (here:
    it is a directory) fails with one stderr line, not a traceback."""
    assert main(["profile", "--trace-out", str(tmp_path), "fig4"]) == 1
    captured = capsys.readouterr()
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro profile: error: cannot write {tmp_path}: ")
    assert captured.out == ""


def test_refused_row_under_profile_still_profiles(capsys, tmp_path):
    trace = tmp_path / "trace.json"
    argv = ["profile", "--trace-out", str(trace), "reliability", "mlp",
            "--rates", "2"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (
        "repro reliability: error: stuck rates sum to more than 1\n"
    )
    assert "(exit 2)" in captured.out.splitlines()[0]
    assert trace.is_file()
