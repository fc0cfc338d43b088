"""The fuzz oracle stack: corpus, mutators, oracles, shrinker.

The load-bearing cases are the acceptance criteria of the fuzz
subsystem: every oracle passes on current code for every seed workload,
an intentionally injected sort bug is caught by the differential oracle
(the mutation test), and the shrinker reduces such a counterexample to a
minimal reproducer.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ParameterError
from repro.fuzz.corpus import Corpus, Geometry, digest_of, seed_corpus
from repro.fuzz.mutators import MUTATORS, mutate
from repro.fuzz.oracles import (
    INJECTABLE_BUGS,
    ORACLE_FAMILIES,
    baseline_excess_bound,
    constructed_excess,
    evaluate_case,
    fuzz_case_tile,
    injected_sort,
)
from repro.fuzz.reproducer import (
    load_reproducer,
    make_reproducer,
    replay,
    save_reproducer,
)
from repro.fuzz.shrink import shrink
from repro.workloads.generators import uniform_random

G = Geometry(w=8, E=5, u=16)


class TestGeometry:
    def test_derived_sizes(self):
        assert G.tile == 80
        assert G.n == 160
        assert G.key == "w8-E5-u16"
        assert G.coprime

    def test_non_coprime_flag(self):
        assert not Geometry(w=8, E=6, u=16).coprime

    @pytest.mark.parametrize("w,E,u", [(1, 5, 16), (8, 1, 16), (8, 5, 12), (8, 5, 0)])
    def test_invalid_geometry_rejected(self, w, E, u):
        with pytest.raises(ParameterError):
            Geometry(w=w, E=E, u=u)


class TestCorpus:
    def test_seed_corpus_covers_workloads_and_adversary(self):
        corpus = seed_corpus(G, seed=0)
        origins = [e.origin for e in corpus.entries()]
        assert len(corpus) == 8
        assert "seed:adversarial" in origins
        assert "seed:duplicate_runs" in origins
        assert "seed:sawtooth" in origins
        assert all(len(e.data) == G.n for e in corpus.entries())

    def test_add_dedupes_by_content(self):
        corpus = Corpus(G)
        data = uniform_random(G.n, seed=1)
        assert corpus.add(data, origin="a") is not None
        assert corpus.add(data.copy(), origin="b") is None
        assert len(corpus) == 1

    def test_wrong_length_rejected(self):
        with pytest.raises(ParameterError):
            Corpus(G).add(uniform_random(G.n - 1, seed=1), origin="short")

    def test_digest_is_content_addressed(self):
        data = uniform_random(G.n, seed=2)
        assert digest_of(G, data) == digest_of(G, data.copy())
        assert digest_of(G, data) != digest_of(G, data + 1)
        assert digest_of(G, data) != digest_of(Geometry(w=8, E=7, u=16), data)

    def test_pick_is_score_weighted_and_deterministic(self):
        corpus = seed_corpus(G, seed=0)
        heavy = corpus.entries()[3]
        corpus.note_score(heavy.digest, 10_000)
        picks = {
            corpus.pick(np.random.default_rng(k)).digest for k in range(20)
        }
        assert heavy.digest in picks  # overwhelming weight dominates
        a = corpus.pick(np.random.default_rng(5)).digest
        b = corpus.pick(np.random.default_rng(5)).digest
        assert a == b

    def test_note_score_keeps_max(self):
        corpus = seed_corpus(G, seed=0)
        digest = corpus.entries()[0].digest
        corpus.note_score(digest, 7)
        corpus.note_score(digest, 3)
        assert corpus.get(digest).score == 7


class TestMutators:
    def test_all_mutators_preserve_length_and_dtype(self):
        data = uniform_random(G.n, seed=3)
        for name in MUTATORS:
            rng = np.random.default_rng(11)
            used, mutant = mutate(rng, data, G, name=name)
            assert used == name
            assert len(mutant) == G.n
            assert mutant.dtype == np.int64

    def test_mutate_is_deterministic_per_rng_state(self):
        data = uniform_random(G.n, seed=4)
        n1, m1 = mutate(np.random.default_rng(9), data, G)
        n2, m2 = mutate(np.random.default_rng(9), data, G)
        assert n1 == n2
        assert np.array_equal(m1, m2)

    def test_unknown_mutator_rejected(self):
        with pytest.raises(ParameterError):
            mutate(np.random.default_rng(0), uniform_random(G.n, seed=0), G,
                   name="bogus")


class TestOracles:
    def test_every_seed_input_passes_every_oracle(self):
        for entry in seed_corpus(G, seed=0).entries():
            result = evaluate_case(entry.data, G)
            assert result["failures"] == [], entry.origin
            assert result["cf_merge_replays"] == 0, entry.origin
            assert set(result["checks"]) >= {
                "differential/cf_matches_numpy",
                "differential/batched_pipeline_matches_sim",
                "invariant/cf_zero_merge_replays",
                "bound/baseline_excess_bounded",
            }

    def test_adversarial_seed_scores_the_constructed_excess(self):
        corpus = seed_corpus(G, seed=0)
        adversary = next(
            e for e in corpus.entries() if e.origin == "seed:adversarial"
        )
        result = evaluate_case(adversary.data, G)
        assert result["score"] == constructed_excess(G.w, G.E, G.n // G.E)

    def test_non_coprime_geometry_skips_invariant_family(self):
        geometry = Geometry(w=8, E=6, u=16)
        result = evaluate_case(uniform_random(geometry.n, seed=3), geometry)
        assert result["failures"] == []
        assert result["checks"]["invariant/cf_zero_merge_replays"]["skipped"]
        assert result["checks"]["invariant/cf_gather_schedule_crs"]["skipped"]
        # Differential checks still ran for real.
        assert not result["checks"]["differential/cf_matches_numpy"]["skipped"]
        assert not result["checks"]["differential/batched_pipeline_matches_sim"][
            "skipped"
        ]

    def test_batched_pipeline_divergence_is_caught(self, monkeypatch):
        import repro.fuzz.oracles as oracles

        real = oracles.batched_mergesort

        def off_by_one(*args, **kwargs):
            result = real(*args, **kwargs)
            result.per_level[-1].merge.shared_replays += 1
            return result

        monkeypatch.setattr(oracles, "batched_mergesort", off_by_one)
        result = evaluate_case(uniform_random(G.n, seed=5), G)
        check = result["checks"]["differential/batched_pipeline_matches_sim"]
        assert result["failures"] == ["differential/batched_pipeline_matches_sim"]
        assert "cf:level0.merge" in check["detail"]
        assert "thrust:level0.merge" in check["detail"]

    def test_short_input_skips_block_level_checks(self):
        result = evaluate_case(np.array([3, 1, 2], dtype=np.int64), G)
        assert result["failures"] == []
        assert result["checks"]["differential/fast_profile_matches_sim"]["skipped"]
        assert result["checks"]["bound/baseline_excess_bounded"]["skipped"]

    def test_oracle_subset_runs_only_that_family(self):
        result = evaluate_case(uniform_random(G.n, seed=5), G,
                               oracles=("invariant",))
        assert all(name.startswith("invariant/") for name in result["checks"])

    def test_unknown_family_rejected(self):
        with pytest.raises(ParameterError):
            evaluate_case(uniform_random(G.n, seed=5), G, oracles=("magic",))

    def test_bound_ceiling_exceeds_construction(self):
        u_merge = G.n // G.E
        assert baseline_excess_bound(G.w, G.E, u_merge) > constructed_excess(
            G.w, G.E, u_merge
        )

    def test_fuzz_case_tile_round_trips_job_params(self):
        data = uniform_random(G.n, seed=6)
        params = {
            "w": G.w, "E": G.E, "u": G.u,
            "data": tuple(int(v) for v in data),
            "oracles": ORACLE_FAMILIES, "inject": "",
        }
        assert fuzz_case_tile(params) == evaluate_case(data, G)


class TestMutationTesting:
    """The oracles must catch a deliberately broken sort."""

    @pytest.mark.parametrize("bug", INJECTABLE_BUGS)
    def test_injected_bug_is_caught(self, bug):
        result = evaluate_case(uniform_random(G.n, seed=7), G, inject=bug)
        assert "differential/injected_reference" in result["failures"]

    def test_injected_sort_actually_differs(self):
        data = uniform_random(64, seed=8)
        for bug in INJECTABLE_BUGS:
            assert not np.array_equal(injected_sort(data, bug), np.sort(data))

    def test_unknown_bug_rejected(self):
        with pytest.raises(ParameterError):
            injected_sort(uniform_random(8, seed=0), "off_by_three")

    def test_shrinker_minimizes_injected_counterexample(self):
        data = uniform_random(G.n, seed=9)

        def fails(candidate):
            result = evaluate_case(candidate, G, inject="swap_tail")
            return "differential/injected_reference" in result["failures"]

        assert fails(data)
        minimal = shrink(data, fails)
        # swap_tail needs two distinct trailing values; nothing smaller
        # than two elements can fail, and the shrinker must find that.
        assert len(minimal) == 2
        assert fails(minimal)

    def test_shrink_rejects_passing_input(self):
        with pytest.raises(ParameterError):
            shrink(uniform_random(G.n, seed=10), lambda _c: False)


class TestReproducer:
    def test_save_load_round_trip(self, tmp_path):
        original = make_reproducer(
            [5, 3], G, failures=["differential/injected_reference"],
            oracles=list(ORACLE_FAMILIES), inject="swap_tail",
        )
        path = save_reproducer(original, tmp_path / "case.json")
        assert load_reproducer(path) == original

    def test_replay_reports_still_failing(self, tmp_path):
        reproducer = make_reproducer(
            [5, 3], G, failures=["differential/injected_reference"],
            oracles=list(ORACLE_FAMILIES), inject="swap_tail",
        )
        outcome = replay(reproducer)
        assert outcome["still_failing"]
        clean = make_reproducer(
            [5, 3], G, failures=["differential/injected_reference"],
            oracles=list(ORACLE_FAMILIES), inject=None,
        )
        assert not replay(clean)["still_failing"]

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "not-a-case.json"
        path.write_text('{"kind": "something-else"}')
        with pytest.raises(ParameterError):
            load_reproducer(path)

    def test_serialized_bytes_are_stable(self, tmp_path):
        reproducer = make_reproducer(
            [1, 2], G, failures=[], oracles=[], inject=None,
        )
        p1 = save_reproducer(reproducer, tmp_path / "a.json")
        p2 = save_reproducer(reproducer, tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()
