"""The ``cf-batched`` backend contract: outputs, counters, integration.

The batched backend must be observationally identical to the stock
``cf`` backend (same sorted segments) while its counters equal the sum
of the lockstep simulator's per-tile
:func:`~repro.mergesort.blocksort.blocksort_tile` shared-memory counters
over the same packed tiles — the bit-identity contract of the engine
lane, now at the service boundary.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.config import SortParams
from repro.engine.backend import cf_batched_backend, pack_tiles, split_batch
from repro.errors import ParameterError
from repro.mergesort import blocksort_tile
from repro.mergesort.segmented import KEY_BITS, KEY_LIMIT
from repro.service.backends import available_backends, get_backend
from repro.sim.counters import Counters

PARAMS = SortParams(5, 32)  # tile = 160, coprime with w = 8
W = 8


def _segments(lengths, seed=0, high=1 << 30):
    rng = np.random.default_rng(seed)
    data = rng.integers(-(high // 2), high // 2, int(sum(lengths)), dtype=np.int64)
    offsets, pos = [], 0
    for n in lengths:
        offsets.append(pos)
        pos += n
    return data, offsets


class TestRegistry:
    def test_cf_batched_is_registered(self):
        assert "cf-batched" in available_backends()
        assert get_backend("cf-batched") is not None


class TestOutputContract:
    @pytest.mark.parametrize("lengths", [
        [10], [160], [40, 50, 60], [1, 159, 80, 80, 7], [0, 16, 0, 32],
    ])
    def test_segments_come_back_sorted(self, lengths):
        data, offsets = _segments(lengths, seed=sum(lengths))
        outcome = cf_batched_backend(data, offsets, PARAMS, W)
        bounds = offsets + [len(data)]
        for lo, hi in zip(bounds, bounds[1:]):
            assert np.array_equal(
                outcome.data[lo:hi], np.sort(data[lo:hi])
            ), f"segment [{lo}:{hi}]"

    def test_matches_the_cf_backend_output(self):
        data, offsets = _segments([30, 70, 120, 45, 90], seed=9)
        batched = cf_batched_backend(data, offsets, PARAMS, W)
        stock = get_backend("cf")(data, offsets, PARAMS, W)
        assert np.array_equal(batched.data, stock.data)

    def test_long_segment_falls_back_to_the_pipeline(self):
        data, offsets = _segments([400, 20], seed=4)
        outcome = cf_batched_backend(data, offsets, PARAMS, W)
        assert np.array_equal(outcome.data[:400], np.sort(data[:400]))
        assert np.array_equal(outcome.data[400:], np.sort(data[400:]))
        assert outcome.launches == 2  # one pipeline launch + one tile

    def test_empty_batch(self):
        outcome = cf_batched_backend(np.array([], dtype=np.int64), [], PARAMS, W)
        assert outcome.launches == 0
        assert outcome.counters.as_dict() == Counters().as_dict()


class TestCounterContract:
    def test_counters_equal_per_tile_blocksort_profiles(self):
        lengths = [25, 60, 100, 150, 12, 48, 80]  # packs into several tiles
        data, offsets = _segments(lengths, seed=2)
        outcome = cf_batched_backend(data, offsets, PARAMS, W)

        tile = PARAMS.tile_elements
        bounds = offsets + [len(data)]
        segs = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if hi > lo]
        tiles, packed = pack_tiles(data, segs, tile)
        want = Counters()
        for row in packed:
            _, sim = blocksort_tile(row.copy(), PARAMS.E, W, "cf")
            want.merge(sim.total)
        # The lane models exactly the shared-memory traffic.
        got = outcome.counters.as_dict()
        for field, value in want.as_dict().items():
            shared = field.startswith(("shared_", "broadcast"))
            assert got[field] == (value if shared else 0), field
        assert outcome.launches == len(tiles)


class TestValidation:
    def test_noncoprime_geometry_rejected(self):
        with pytest.raises(ParameterError):
            cf_batched_backend(np.arange(10), [0], SortParams(16, 64), 32)

    def test_non_power_of_two_u_rejected(self):
        with pytest.raises(ParameterError):
            cf_batched_backend(np.arange(10), [0], SortParams(5, 24), 8)

    def test_decreasing_offsets_rejected(self):
        with pytest.raises(ParameterError):
            cf_batched_backend(np.arange(10), [0, 8, 4], PARAMS, W)

    def test_nonzero_first_offset_rejected(self):
        with pytest.raises(ParameterError):
            cf_batched_backend(np.arange(10), [2, 5], PARAMS, W)

    def test_oversized_keys_rejected(self):
        data = np.array([KEY_LIMIT], dtype=np.int64)
        with pytest.raises(ParameterError):
            cf_batched_backend(data, [0], PARAMS, W)


class TestPackTiles:
    def test_first_fit_never_splits_a_segment(self):
        data = np.arange(300, dtype=np.int64)
        segs = [(0, 100), (100, 200), (200, 300)]
        tiles, packed = pack_tiles(data, segs, 160)
        assert [len(t) for t in tiles] == [1, 1, 1]
        assert packed.shape == (3, 160)

    def test_packed_words_round_trip(self):
        data = np.array([5, -3, 7, 0], dtype=np.int64)
        _, packed = pack_tiles(data, [(0, 2), (2, 4)], 4)
        mask = np.int64((1 << KEY_BITS) - 1)
        keys = (packed[0] & mask) - KEY_LIMIT
        assert keys.tolist() == [5, -3, 7, 0]
        ranks = (packed[0] >> KEY_BITS).tolist()
        assert ranks == [0, 0, 1, 1]

    def test_segment_larger_than_tile_rejected(self):
        with pytest.raises(ParameterError):
            pack_tiles(np.arange(10, dtype=np.int64), [(0, 10)], 8)


class TestSplitBatch:
    @pytest.mark.parametrize("parts", [1, 2, 3, 5])
    @pytest.mark.parametrize("seed", range(4))
    def test_ranges_cover_the_batch_and_no_tile_straddles_a_cut(self, parts, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.choice([0, 1, 40, 100, 159, 160, 161, 400], 24).tolist()
        data, offsets = _segments(lengths, seed)
        bounds = offsets + [len(data)]
        cuts = split_batch(bounds, 160, parts)
        assert cuts[0] == 0 and cuts[-1] == len(offsets)
        assert cuts == sorted(set(cuts)) and len(cuts) - 1 <= parts
        index = {lo: i for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])) if hi > lo}
        short = [(lo, hi) for lo, hi in zip(bounds, bounds[1:]) if 0 < hi - lo <= 160]
        tiles, _ = pack_tiles(data, short, 160)
        for members in tiles:
            first, last = index[members[0][0]], index[members[-1][0]]
            assert not [c for c in cuts if first < c <= last], members

    def test_each_cut_is_the_valid_boundary_nearest_its_share(self):
        # n = 1600 keys in whole tiles: shares 533.3 and 1066.7 keys.
        bounds = list(range(0, 1601, 160))
        assert split_batch(bounds, 160, 3) == [0, 3, 7, 10]
        assert split_batch(bounds, 160, 1) == [0, 10]

    def test_a_tile_around_a_long_or_empty_segment_is_no_cut(self):
        # 40 + 40 keys share a tile across the long and the empty segment.
        bounds = [0, 40, 440, 440, 480]
        assert split_batch(bounds, 160, 4) == [0, 4]


class TestServiceIntegration:
    def test_run_synchronous_verifies_every_segment(self):
        from repro.service.batching import BatchPolicy
        from repro.service.synthetic import run_synchronous, synth_requests

        requests = synth_requests(
            12, 8, 120, "mixed", seed=5, params=PARAMS, w=W, backend="cf-batched"
        )
        policy = BatchPolicy(max_batch_tiles=4, max_batch_requests=6)
        metrics = run_synchronous(requests, policy, PARAMS, W, verify=True)
        assert metrics["requests"] == 12
        assert metrics["batches"] >= 1
        assert metrics["counters"]["shared_requests"] > 0

    def test_cf_and_cf_batched_agree_through_the_service(self):
        from repro.service.batching import BatchPolicy
        from repro.service.synthetic import run_synchronous, synth_requests

        policy = BatchPolicy(max_batch_tiles=4, max_batch_requests=8)
        by_backend = {}
        for backend in ("cf", "cf-batched"):
            requests = synth_requests(
                10, 8, 100, "random", seed=3, params=PARAMS, w=W, backend=backend
            )
            by_backend[backend] = run_synchronous(
                requests, policy, PARAMS, W, verify=True
            )
        assert (
            by_backend["cf"]["elements"] == by_backend["cf-batched"]["elements"]
        )
