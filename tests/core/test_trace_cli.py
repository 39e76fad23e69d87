"""Tests for the schedule trace renderer and the CLI."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.core.schedule import (
    simulate_gan_iteration,
    simulate_inference_pipeline,
    simulate_training_pipeline,
)
from repro.core.trace import (
    occupancy_profile,
    render_gan_schedule,
    render_training_schedule,
)


class TestTrainingTrace:
    def test_has_row_per_stage_plus_update(self):
        result = simulate_training_pipeline(3, 4, 2)
        chart = render_training_schedule(result)
        lines = chart.splitlines()
        # header + (2L+1) stage rows + update row
        assert len(lines) == 1 + 7 + 1

    def test_elements_appear_diagonally(self):
        result = simulate_training_pipeline(2, 2, 2)
        chart = render_training_schedule(result)
        first_stage = next(
            line for line in chart.splitlines() if line.startswith("fwd L1")
        )
        # Elements 0 and 1 enter in consecutive cycles.
        assert "01" in first_stage

    def test_update_marker_present(self):
        result = simulate_training_pipeline(2, 2, 2)
        chart = render_training_schedule(result)
        update_line = next(
            line for line in chart.splitlines() if line.startswith("update")
        )
        assert "*" in update_line

    def test_truncation_marker(self):
        result = simulate_training_pipeline(3, 64, 64)
        chart = render_training_schedule(result, max_cycles=20)
        assert "(truncated)" in chart

    def test_inference_schedule_has_forward_rows_only(self):
        chart = render_training_schedule(simulate_inference_pipeline(4, 3))
        rows = chart.splitlines()[1:]
        assert [row[:6] for row in rows] == [
            "fwd L1", "fwd L2", "fwd L3", "fwd L4"
        ]

    def test_occupancy_profile_fills_and_drains(self):
        result = simulate_training_pipeline(3, 8, 8)
        profile = occupancy_profile(result)
        assert profile[0] == 1                      # first input enters
        assert max(profile) > 1                     # pipeline fills
        assert profile[-1] == 0 or profile[-1] <= 1 # drained at update


class TestGanTrace:
    def test_resources_labelled(self):
        result = simulate_gan_iteration(2, 2, 3, "sp")
        chart = render_gan_schedule(result)
        assert "G[0]" in chart
        assert "D0[0]" in chart
        assert "D1[0]" in chart

    def test_update_markers(self):
        result = simulate_gan_iteration(2, 2, 3, "pipelined")
        chart = render_gan_schedule(result)
        update_line = next(
            line for line in chart.splitlines() if line.startswith("update")
        )
        assert "D" in update_line and "G" in update_line

    def test_cs_shows_second_backward_branch(self):
        result = simulate_gan_iteration(2, 2, 3, "cs")
        chart = render_gan_schedule(result)
        assert "Dbwd2[0]" in chart


class TestCli:
    def test_parser_subcommands(self):
        parser = build_parser()
        args = parser.parse_args(["fig5", "--layers", "4"])
        assert args.layers == 4

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        out = capsys.readouterr().out
        assert "12544" in out

    def test_fig5(self, capsys):
        assert main(["fig5", "--layers", "3"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out

    def test_fig9(self, capsys):
        assert main(["fig9", "--batch", "16"]) == 0
        out = capsys.readouterr().out
        assert "sp_cs" in out

    def test_summary_known_workload(self, capsys):
        assert main(["summary", "alexnet"]) == 0
        assert "alexnet" in capsys.readouterr().out

    def test_summary_unknown_workload(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["summary", "resnet"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'resnet'" in capsys.readouterr().err

    def test_trace_training(self, capsys):
        assert main(["trace", "--layers", "2", "--batch", "2"]) == 0
        assert "fwd L1" in capsys.readouterr().out

    def test_trace_gan(self, capsys):
        assert main(
            ["trace", "--gan", "--layers", "2", "--batch", "2",
             "--scheme", "sp_cs"]
        ) == 0
        assert "D1[0]" in capsys.readouterr().out

    @pytest.mark.slow
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "PipeLayer" in out and "ReGAN" in out


class TestCliExtensions:
    def test_area_subcommand(self, capsys):
        from repro.cli import main

        assert main(["area", "mnist", "--budget", "8192"]) == 0
        out = capsys.readouterr().out
        assert "mm^2" in out and "arrays" in out

    def test_area_unknown_workload(self, capsys):
        from repro.cli import main

        with pytest.raises(SystemExit) as exit_info:
            main(["area", "resnet"])
        assert exit_info.value.code == 2
        assert "invalid choice: 'resnet'" in capsys.readouterr().err

    def test_sensitivity_subcommand(self, capsys):
        from repro.cli import main

        assert main(["sensitivity", "--metric", "speedup"]) == 0
        out = capsys.readouterr().out
        assert "subcycle_time" in out
        assert "swing" in out


SRC = Path(__file__).resolve().parents[2] / "src"


@pytest.mark.parametrize(
    "argv", [["table1"], ["table1", "--json"], ["fig4"]], ids=" ".join
)
def test_closed_stdout_exits_one_quietly(argv):
    """A reader that closes the pipe early (``repro table1 | head -3``)
    ends the command with exit 1 and nothing on stderr."""
    process = subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    process.stdout.close()
    _, stderr = process.communicate(timeout=120)
    assert (process.returncode, stderr) == (1, b"")
