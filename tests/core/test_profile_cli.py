"""Tests for ``repro profile``: wrapping, schema, and determinism.

The profile report's *counter* section inherits the simulator's
determinism contracts: byte-identical across same-seed runs and across
the loop/vectorized engine backends.  The span section is wall-clock
and never compared.
"""

import hashlib
import json

from repro.cli import main
from repro.telemetry import validate_profile_report


def _profile(capsys, tmp_path, wrapped, name="trace.json"):
    trace = tmp_path / name
    argv = ["profile", "--trace-out", str(trace)] + wrapped
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out), trace


class TestProfileCommand:
    def test_profile_infer_json(self, capsys, tmp_path):
        document, trace = _profile(
            capsys, tmp_path, ["infer", "--json", "--count", "8"]
        )
        validate_profile_report(document)
        assert document["command"][0] == "infer"
        assert document["exit_code"] == 0
        # Hierarchical counters from the deployed engines are present.
        assert any(
            path.startswith("engine/") for path in document["counters"]
        )
        assert document["counter_tree"]["engine"]
        # Timing spans (wall-clock) live in their own section.
        assert document["spans"]
        assert document["chrome_trace"] == str(trace)
        loaded = json.loads(trace.read_text())
        assert any(
            event["ph"] == "X" for event in loaded["traceEvents"]
        )

    def test_profile_defaults_to_mlp_workload(self, capsys, tmp_path):
        """Acceptance path: ``repro profile infer --json`` needs no
        positional workload (it defaults to ``mlp``)."""
        document, _ = _profile(capsys, tmp_path, ["infer", "--json"])
        validate_profile_report(document)
        assert document["counters"]["inference.runs"] == 1

    def test_profile_trace_subcommand(self, capsys, tmp_path):
        document, _ = _profile(
            capsys, tmp_path,
            ["trace", "--layers", "2", "--batch", "2", "--json"],
        )
        validate_profile_report(document)
        assert document["counters"]["pipeline/events"] > 0
        assert document["counters"]["pipeline/makespan_cycles"] > 0

    def test_profile_text_mode_prints_wrapped_output(self, capsys, tmp_path):
        trace = tmp_path / "trace.json"
        assert main(
            ["profile", "--trace-out", str(trace), "infer", "--count", "8"]
        ) == 0
        out = capsys.readouterr().out
        assert "inference on 8 inputs" in out  # wrapped command's report
        assert "profiled `repro infer" in out
        assert str(trace) in out

    def test_profile_counters_deterministic_across_runs(
        self, capsys, tmp_path
    ):
        """Same seed, same command -> byte-identical counter telemetry."""
        first, _ = _profile(
            capsys, tmp_path,
            ["infer", "--json", "--count", "8", "--seed", "3"], "a.json",
        )
        second, _ = _profile(
            capsys, tmp_path,
            ["infer", "--json", "--count", "8", "--seed", "3"], "b.json",
        )
        assert json.dumps(first["counters"], sort_keys=True) == json.dumps(
            second["counters"], sort_keys=True
        )
        assert first["counter_tree"] == second["counter_tree"]

    def test_profile_infer_counter_tree_is_pinned(self, capsys, tmp_path):
        """The inference counter tree (``inference.*``, engine events,
        energy) does not move; CI checks the same pin at one BLAS
        thread."""
        document, _ = _profile(
            capsys, tmp_path,
            ["infer", "--json", "--count", "16", "--seed", "3",
             "--batch", "4"],
        )
        counters = document["counters"]
        digest = hashlib.sha256(
            json.dumps(counters, sort_keys=True).encode()
        ).hexdigest()
        assert (digest, len(counters)) == (
            "dcf1ec2b603875b9ce88ecda87d15bc7e855ce2834adab78a4f9a1a859ad0093",
            32,
        )

    def test_profile_counters_identical_across_backends(
        self, capsys, tmp_path
    ):
        """The backend bit-identity contract extends to telemetry."""
        counters = {}
        for backend in ("loop", "vectorized"):
            document, _ = _profile(
                capsys, tmp_path,
                ["infer", "--json", "--count", "8", "--seed", "3",
                 "--backend", backend],
                f"{backend}.json",
            )
            counters[backend] = document["counters"]
        assert json.dumps(counters["loop"], sort_keys=True) == json.dumps(
            counters["vectorized"], sort_keys=True
        )

    def test_profile_without_command_fails(self, capsys):
        assert main(["profile"]) == 2
        assert "name a subcommand" in capsys.readouterr().err

    def test_profile_cannot_nest(self, capsys):
        assert main(["profile", "profile", "infer"]) == 2
        assert "cannot wrap" in capsys.readouterr().err

    def test_profile_rejects_bad_wrapped_command(self, capsys):
        assert main(["profile", "no_such_command"]) == 2
