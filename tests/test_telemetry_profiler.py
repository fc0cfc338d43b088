"""The conflict profiler round-trips against the simulator's own counters."""

from __future__ import annotations

import pytest

from repro.sim.trace import AccessTrace
from repro.telemetry.profiler import (
    PROFILE_TARGETS,
    ConflictProfile,
    event_excess,
    profile_cf,
    profile_random,
    profile_worstcase,
)

W, E = 8, 5  # small geometry: the exact simulator is instant


class TestEventMath:
    def test_same_address_broadcasts(self):
        trace = AccessTrace()
        event = trace.record(0, "read", [(t, 4) for t in range(8)], 1)
        assert event_excess(event, W) == 0  # one address -> broadcast

    def test_same_bank_distinct_addresses_conflict(self):
        trace = AccessTrace()
        event = trace.record(0, "read", [(0, 0), (1, 8), (2, 16)], 3)
        assert event_excess(event, W) == 2  # three words of bank 0


@pytest.mark.parametrize("target", sorted(PROFILE_TARGETS))
class TestCountersRoundTrip:
    def test_trace_attribution_matches_counters(self, target):
        # The profiler recomputes cycles/replays/excess from the raw
        # trace; the kernel's Counters tallied them independently during
        # execution.  They must agree exactly.
        run = PROFILE_TARGETS[target](w=W, E=E)
        assert run.profile.total.cycles == run.counters.shared_cycles
        assert run.profile.total.replays == run.counters.shared_replays
        assert run.profile.total.excess == run.counters.shared_excess
        assert int(run.profile.bank_excess.sum()) == run.counters.shared_excess

    def test_per_phase_attribution_sums_to_total(self, target):
        run = PROFILE_TARGETS[target](w=W, E=E)
        assert (
            sum(s.excess for s in run.profile.per_phase.values())
            == run.profile.total.excess
        )
        assert (
            sum(s.rounds for s in run.profile.per_phase.values())
            == run.profile.total.rounds
        )


class TestWorstcase:
    def test_phases_are_search_then_merge(self):
        run = profile_worstcase(w=W, E=E)
        assert list(run.profile.per_phase) == ["search", "merge"]

    def test_merge_excess_matches_the_fast_measurement_path(self):
        # The runner's theorem8 experiment measures the same quantity
        # through the vectorized engine lane; the simulator trace-based
        # attribution must agree exactly.
        from repro.engine.lane import profile_serial_merges
        from repro.worstcase import worstcase_merge_inputs

        run = profile_worstcase(w=W, E=E)
        a, b = worstcase_merge_inputs(W, E)
        (lane,) = profile_serial_merges([(a, b)], E, W)
        assert run.merge_excess == lane.shared_excess

    def test_merge_excess_meets_theorem8(self):
        from repro.worstcase import theorem8_combined

        run = profile_worstcase(w=32, E=15)
        assert run.merge_excess >= theorem8_combined(32, 15) - 2 * 32

    def test_profile_is_deterministic(self):
        first = profile_worstcase(w=W, E=E)
        second = profile_worstcase(w=W, E=E)
        assert first.profile.as_dict() == second.profile.as_dict()
        assert first.counters.as_dict() == second.counters.as_dict()


class TestCf:
    def test_zero_merge_phase_excess(self):
        run = profile_cf(w=W, E=E)
        assert run.merge_excess == 0

    def test_phases_are_search_gather_scatter(self):
        run = profile_cf(w=W, E=E)
        assert list(run.profile.per_phase) == ["search", "gather", "scatter"]


class TestRandom:
    def test_seed_determinism(self):
        assert (
            profile_random(w=W, E=E, seed=3).profile.as_dict()
            == profile_random(w=W, E=E, seed=3).profile.as_dict()
        )


class TestRendering:
    def test_tables_and_heatmap_render(self):
        run = profile_worstcase(w=W, E=E)
        table = run.profile.attribution_table()
        assert "bank" in table and "excess" in table
        assert len(table.splitlines()) == W + 2  # header + banks + sum
        assert "search" in run.profile.phase_table()
        assert "warp" in run.profile.warp_table()
        assert "excess per bank" in run.profile.heatmap()

    def test_depth_summary_uses_shared_percentiles(self):
        run = profile_worstcase(w=W, E=E)
        summary = run.profile.depth_summary()
        assert set(summary) == {"p50", "p95", "max"}
        assert summary["p50"] <= summary["p95"] <= summary["max"]

    def test_as_dict_is_json_shaped(self):
        import json

        run = profile_cf(w=W, E=E)
        payload = run.profile.as_dict()
        assert json.loads(json.dumps(payload)) == payload
        assert payload["w"] == W
        assert len(payload["bank_excess"]) == W


class TestConflictProfileEdges:
    def test_empty_trace(self):
        profile = ConflictProfile(AccessTrace(), W)
        assert profile.total.rounds == 0
        assert profile.depth_summary() == {"p50": 0.0, "p95": 0.0, "max": 0.0}

    def test_unlabeled_rounds_get_a_bucket(self):
        trace = AccessTrace()
        trace.record(0, "read", [(0, 0), (1, 8)], 2)
        profile = ConflictProfile(trace, W)
        assert list(profile.per_phase) == ["(unlabeled)"]

    def test_invalid_w_rejected(self):
        from repro.errors import ParameterError

        with pytest.raises(ParameterError):
            ConflictProfile(AccessTrace(), 0)
