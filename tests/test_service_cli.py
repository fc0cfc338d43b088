"""The ``repro serve`` / ``repro submit`` CLI verbs and their exit codes."""

from __future__ import annotations

import json
import threading

import pytest

from repro.cli import main
from repro.errors import DeadlineExceededError
from repro.runner.report import RunReport


def _run(argv):
    return main(argv)


class TestSubmit:
    def test_submit_verifies_and_exits_zero(self, capsys):
        code = _run(
            ["submit", "--count", "12", "--mix", "mixed",
             "--backends", "cf,baseline,numpy"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "12 submitted, 12 verified ok" in out
        assert "0 mismatched" in out

    def test_submit_writes_metrics_artifact(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        code = _run(
            ["submit", "--count", "6", "--metrics-out", str(path)]
        )
        assert code == 0
        report = RunReport.read(path)
        metrics = report.metrics()
        assert metrics["requests.completed"] == 6.0
        assert "batches.fill_ratio_mean" in metrics
        # The artifact is plain JSON (CI uploads it directly).
        json.loads(path.read_text())

    def test_submit_unknown_backend_is_usage_error(self, capsys):
        code = _run(["submit", "--count", "2", "--backends", "bogus"])
        assert code == 2
        assert "unknown backend" in capsys.readouterr().err

    def test_submit_expired_deadlines_exit_code(self, capsys, gated_backend):
        # One request per batch, and the gate holds the first batch far
        # past the deadline: the requests queued behind it expire, and the
        # process exits with the documented deadline code.
        backend, gate = gated_backend
        timer = threading.Timer(0.2, gate.set)
        timer.start()
        try:
            code = _run(
                ["submit", "--count", "3", "--deadline", "0.0005",
                 "--backends", backend, "--batch-requests", "1"]
            )
        finally:
            timer.cancel()
        assert code == DeadlineExceededError.exit_code
        assert "expired" in capsys.readouterr().out


class TestServe:
    def test_serve_selftest_passes(self, capsys):
        code = _run(
            ["serve", "--count", "20", "--mix", "mixed", "--selftest",
             "--burst", "8", "--burst-gap", "0.01"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "selftest PASS" in out

    def test_serve_writes_metrics_artifact(self, tmp_path):
        path = tmp_path / "serve.json"
        code = _run(
            ["serve", "--count", "8",
             "--burst-gap", "0", "--metrics-out", str(path)]
        )
        assert code == 0
        assert RunReport.read(path).metrics()["requests.submitted"] == 8.0


class TestParserIntegration:
    def test_serve_and_submit_are_choices(self, capsys):
        with pytest.raises(SystemExit):
            _run(["--help"])
        help_text = capsys.readouterr().out
        assert "serve" in help_text
        assert "submit" in help_text
        assert "--selftest" in help_text
        assert "--max-wait" not in help_text
