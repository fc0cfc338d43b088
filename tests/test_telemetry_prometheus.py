"""Prometheus text exposition: names, types, ordering, snapshot files."""

from __future__ import annotations

import re

import numpy as np

from repro.config import SortParams
from repro.service import DEFAULT_BACKENDS, SortService
from repro.service.metrics import ServiceMetrics, counter_paths
from repro.service.request import SortResult
from repro.telemetry.prometheus import (
    SnapshotWriter,
    render_exposition,
    sanitize_metric_name,
    service_exposition,
)
from repro.telemetry.stats import flatten_numeric

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def _parse_exposition(text: str) -> dict[str, tuple[str, float]]:
    """Strictly parse a text exposition into ``name -> (type, value)``.

    Every sample must follow exactly one ``# HELP`` and then one
    ``# TYPE`` line for its own name; names are valid and unique.
    """
    assert text.endswith("\n")
    samples: dict[str, tuple[str, float]] = {}
    helped: str | None = None
    typed: tuple[str, str] | None = None
    for line in text.splitlines():
        if line.startswith("# HELP "):
            assert helped is None and typed is None, line
            helped = line.split(" ", 3)[2]
        elif line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            assert helped == name and typed is None, line
            assert kind in ("counter", "gauge"), line
            typed = (name, kind)
        else:
            name, value = line.split(" ")
            assert typed is not None and typed[0] == name, line
            assert _NAME.fullmatch(name), name
            assert name not in samples, name
            samples[name] = (typed[1], float(value))
            helped, typed = None, None
    assert helped is None and typed is None
    return samples


class TestSanitize:
    def test_dots_become_underscores(self):
        assert (
            sanitize_metric_name("requests.latency_s.p95")
            == "repro_requests_latency_s_p95"
        )

    def test_invalid_characters_are_replaced(self):
        assert sanitize_metric_name("a-b c/d") == "repro_a_b_c_d"

    def test_digit_prefix_is_guarded_without_repro_prefix(self):
        assert sanitize_metric_name("9lives", prefix="") == "_9lives"

    def test_empty_name_falls_back(self):
        assert sanitize_metric_name("...", prefix="") == "metric"


class TestRenderExposition:
    def test_help_type_sample_triplets_in_sorted_order(self):
        text = render_exposition({"b.x": 2.0, "a.y": 1.5})
        lines = text.splitlines()
        assert lines[0] == "# HELP repro_a_y repro metric a.y"
        assert lines[1] == "# TYPE repro_a_y gauge"
        assert lines[2] == "repro_a_y 1.5"
        assert lines[3].startswith("# HELP repro_b_x")
        assert text.endswith("\n")

    def test_counter_prefixes_are_typed_counter(self):
        text = render_exposition(
            {"counters.shared_replays": 12.0, "queue.max_depth": 3.0},
            counters=counter_paths(),
        )
        assert "# TYPE repro_counters_shared_replays counter" in text
        assert "# TYPE repro_queue_max_depth gauge" in text

    def test_integral_values_render_without_decimal_point(self):
        text = render_exposition({"n": 4.0, "frac": 0.25})
        assert "repro_n 4\n" in text
        assert "repro_frac 0.25" in text

    def test_empty_metrics_render_empty(self):
        assert render_exposition({}) == ""

    def test_custom_help_text(self):
        text = render_exposition({"n": 1.0}, help_text={"n": "how many"})
        assert "# HELP repro_n how many" in text


class TestServiceExposition:
    def _metrics(self) -> ServiceMetrics:
        metrics = ServiceMetrics(SortParams(E=5, u=32), w=8, queue_capacity=16)
        metrics.record_admitted(queue_depth=1)
        metrics.record_result(
            SortResult(
                request_id=0,
                backend="cf",
                data=np.arange(4, dtype=np.int64),
                wait_s=0.001,
                service_s=0.002,
            )
        )
        return metrics

    def test_snapshot_leaves_become_samples(self):
        text = service_exposition(self._metrics().snapshot())
        assert "# TYPE repro_requests_submitted counter" in text
        assert "# TYPE repro_queue_capacity gauge" in text
        assert "repro_requests_submitted 1" in text
        assert "repro_requests_completed 1" in text
        assert "repro_queue_capacity 16" in text
        assert "repro_requests_latency_s_p95" in text

    def test_metrics_prometheus_method_agrees(self):
        # Snapshots embed wall-clock throughput, so compare the metric
        # names (the stable part), not the time-dependent values.
        metrics = self._metrics()

        def names(text: str) -> list[str]:
            return [
                line.split()[0]
                for line in text.splitlines()
                if not line.startswith("#")
            ]

        assert names(metrics.prometheus()) == names(
            service_exposition(metrics.snapshot())
        )


class TestStrictExposition:
    def test_served_exposition_parses_and_types_declared_counters(self):
        rng = np.random.default_rng(0)
        with SortService() as service:
            for backend in DEFAULT_BACKENDS:
                ticket = service.submit(rng.integers(0, 1000, 150), backend=backend)
                assert ticket.result(timeout=60).ok, backend
            text = service.metrics.prometheus()
            snap = service.metrics.snapshot()
        samples = _parse_exposition(text)
        flat: dict[str, float] = {}
        flatten_numeric("", snap, flat)
        declared = counter_paths()
        assert declared <= set(flat)
        assert set(samples) == {sanitize_metric_name(path) for path in flat}
        assert {name for name, (kind, _) in samples.items() if kind == "counter"} == {
            sanitize_metric_name(path) for path in declared
        }


class TestSnapshotWriter:
    def test_numbered_files_in_order(self, tmp_path):
        writer = SnapshotWriter(tmp_path / "snaps")
        first = writer.write("a 1\n")
        second = writer.write("a 2\n")
        assert first.name == "metrics-000001.prom"
        assert second.name == "metrics-000002.prom"
        assert writer.count == 2
        assert first.read_text() == "a 1\n"

    def test_custom_stem(self, tmp_path):
        writer = SnapshotWriter(tmp_path, stem="svc")
        assert writer.write("x 1\n").name == "svc-000001.prom"
