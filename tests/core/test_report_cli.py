"""Tests for ``repro report`` — derived metrics at the CLI surface."""

import json

import pytest

from repro.cli import main
from repro.core.schedule import simulate_training_pipeline
from repro.telemetry import validate_analysis_report


def _report(capsys, argv):
    code = main(["report"] + argv)
    return code, capsys.readouterr()


class TestReportWrappedRun:
    def test_trace_utilization_matches_simulator(self, capsys):
        """Acceptance: per-stage utilization over a Fig. 5 pipeline
        profile is consistent with the schedule simulator's cycles."""
        code, captured = _report(
            capsys,
            ["--json", "trace", "--layers", "3", "--batch", "4"],
        )
        assert code == 0
        document = json.loads(captured.out)
        validate_analysis_report(document)
        (pipeline,) = document["pipelines"]
        result = simulate_training_pipeline(3, 8, 4)
        assert pipeline["makespan_cycles"] == result.makespan
        assert pipeline["stage_count"] == 7
        for stage in pipeline["stages"]:
            assert (
                stage["busy_cycles"] + stage["bubble_cycles"]
                == result.makespan
            )
        busy = sum(s["busy_cycles"] for s in pipeline["stages"])
        assert pipeline["parallelism"] == pytest.approx(
            busy / result.makespan
        )

    def test_text_rendering(self, capsys):
        code, captured = _report(
            capsys, ["trace", "--layers", "2", "--batch", "2"]
        )
        assert code == 0
        assert "pipeline pipeline" in captured.out
        assert "utilization" in captured.out
        # The wrapped command's own output is swallowed.
        assert "Gantt" not in captured.out

    def test_engine_subtree_from_infer(self, capsys):
        code, captured = _report(
            capsys, ["--json", "infer", "mlp", "--count", "4"]
        )
        assert code == 0
        document = json.loads(captured.out)
        validate_analysis_report(document)
        (engine,) = document["engines"]
        assert engine["prefix"] == "engine"
        assert all(
            layer["macs"] > 0 and layer["mvm_calls"] > 0
            for layer in engine["layers"]
        )

    @pytest.mark.parametrize(
        "wrapped", [["trace"], ["infer", "mlp", "--count", "4"]]
    )
    def test_inner_json_flag_selects_json(self, capsys, wrapped):
        """``report <cmd> --json`` prints the analysis document, as
        ``report --json <cmd>`` does."""
        code, captured = _report(capsys, wrapped + ["--json"])
        assert code == 0
        validate_analysis_report(json.loads(captured.out))

    @pytest.mark.parametrize(
        "wrapped",
        [["summary", "bogus"], ["reliability", "mlp", "--rates", "5"]],
        ids=" ".join,
    )
    def test_returns_wrapped_exit_code(self, capsys, wrapped):
        """A failing wrapped command fails the report, as under
        ``repro profile``."""
        code, captured = _report(capsys, wrapped)
        assert code == 2
        assert captured.err

    def test_rejects_wrapping_wrappers(self, capsys):
        for wrapped in ("profile", "report", "bench"):
            code, captured = _report(capsys, [wrapped])
            assert code == 2
            assert "cannot wrap" in captured.err

    def test_requires_a_subcommand(self, capsys):
        code, captured = _report(capsys, [])
        assert code == 2
        assert "name a subcommand" in captured.err


class TestReportFromProfile:
    @pytest.fixture()
    def profile_path(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["profile", "--trace-out", str(trace), "trace",
             "--layers", "3", "--batch", "4", "--json"]
        ) == 0
        path = tmp_path / "profile.json"
        path.write_text(capsys.readouterr().out)
        return path

    def test_reads_saved_profile(self, capsys, profile_path):
        code, captured = _report(
            capsys, ["--profile", str(profile_path), "--json"]
        )
        assert code == 0
        document = json.loads(captured.out)
        validate_analysis_report(document)
        assert document["source"] == str(profile_path)
        assert document["pipelines"]

    def test_missing_file(self, capsys, tmp_path):
        code, captured = _report(
            capsys, ["--profile", str(tmp_path / "absent.json")]
        )
        assert code == 2
        assert "cannot read profile" in captured.err

    def test_profile_xor_subcommand(self, capsys, profile_path):
        code, captured = _report(
            capsys, ["--profile", str(profile_path), "trace"]
        )
        assert code == 2
        assert "not both" in captured.err

    def test_stale_schema_version_rejected(self, capsys, profile_path):
        document = json.loads(profile_path.read_text())
        document["schema_version"] = 999
        profile_path.write_text(json.dumps(document))
        code, captured = _report(
            capsys, ["--profile", str(profile_path)]
        )
        assert code == 2
        assert "schema_version: expected 1, got 999" in captured.err
        assert "regenerate" in captured.err

    def test_missing_schema_version_rejected(self, capsys, profile_path):
        document = json.loads(profile_path.read_text())
        del document["schema_version"]
        profile_path.write_text(json.dumps(document))
        code, captured = _report(
            capsys, ["--profile", str(profile_path)]
        )
        assert code == 2
        assert "missing key 'schema_version'" in captured.err


class TestReportEnergy:
    def test_energy_report_from_infer(self, capsys):
        from repro.telemetry import validate_energy_report

        code, captured = _report(
            capsys,
            ["--json", "--energy", "infer", "mlp", "--count", "4"],
        )
        assert code == 0
        document = json.loads(captured.out)
        validate_energy_report(document)
        assert document["kind"] == "energy"
        totals = document["totals"]
        assert totals["total_joules"] > 0
        assert totals["energy_per_inference_joules"] > 0

    def test_energy_text_rendering(self, capsys):
        code, captured = _report(
            capsys, ["--energy", "infer", "mlp", "--count", "4"]
        )
        assert code == 0
        assert "energy" in captured.out
        assert "total" in captured.out
