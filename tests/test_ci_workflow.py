"""The CI pipeline contract: workflow validity + committed baseline health.

``.github/workflows/ci.yml`` can't be executed locally, but its structure
is load-bearing (tier-1 matrix, lint gates, smoke + perf gate, artifact
upload), so this suite validates it as data.  The committed
``benchmarks/BASELINE.json`` is likewise checked to be a readable,
populated RunReport — a gate with an empty baseline would pass vacuously.
"""

from __future__ import annotations

import re
from pathlib import Path

import pytest

from repro.runner import RunReport, compare_reports
from repro.service import DEFAULT_BACKENDS

REPO_ROOT = Path(__file__).resolve().parents[1]
WORKFLOW = REPO_ROOT / ".github" / "workflows" / "ci.yml"
BASELINE = REPO_ROOT / "benchmarks" / "BASELINE.json"

yaml = pytest.importorskip("yaml", reason="workflow validation needs PyYAML")


@pytest.fixture(scope="module")
def workflow() -> dict:
    data = yaml.safe_load(WORKFLOW.read_text())
    assert isinstance(data, dict)
    return data


def _steps_text(job: dict) -> str:
    return "\n".join(str(step.get("run", "")) for step in job["steps"])


def test_workflow_triggers(workflow):
    # YAML 1.1 parses the bare `on:` key as boolean True.
    triggers = workflow.get("on", workflow.get(True))
    assert "pull_request" in triggers
    assert triggers["push"]["branches"] == ["main"]
    assert workflow["permissions"] == {"contents": "read"}


def test_workflow_schedules_the_nightly_cron(workflow):
    triggers = workflow.get("on", workflow.get(True))
    crons = [entry["cron"] for entry in triggers["schedule"]]
    assert len(crons) == 1
    minute, hour, dom, month, dow = crons[0].split()
    # One nightly firing, deliberately off the :00/:30 thundering herd.
    assert (dom, month, dow) == ("*", "*", "*")
    assert hour.isdigit()
    assert minute.isdigit() and int(minute) % 30 != 0


def test_workflow_cancels_superseded_runs(workflow):
    concurrency = workflow["concurrency"]
    assert concurrency["cancel-in-progress"] is True
    assert "github.ref" in concurrency["group"]


def test_workflow_has_the_nine_jobs(workflow):
    assert set(workflow["jobs"]) == {
        "test", "lint", "smoke", "engine", "kway", "columns", "cluster",
        "replay", "nightly-fuzz",
    }


def test_nightly_fuzz_is_schedule_only_and_regular_jobs_skip_schedule(workflow):
    for name, job in workflow["jobs"].items():
        if name == "nightly-fuzz":
            assert job["if"] == "github.event_name == 'schedule'"
        else:
            assert job["if"] == "github.event_name != 'schedule'", name


def test_every_job_caches_pip_keyed_on_pyproject(workflow):
    for name, job in workflow["jobs"].items():
        caches = [
            step for step in job["steps"]
            if str(step.get("uses", "")).startswith("actions/cache@")
        ]
        assert caches, f"job {name} does not cache pip"
        cache = caches[0]
        assert cache["with"]["path"] == "~/.cache/pip"
        assert "hashFiles('pyproject.toml')" in cache["with"]["key"]


def test_tier1_job_runs_pytest_across_supported_pythons(workflow):
    job = workflow["jobs"]["test"]
    assert job["strategy"]["matrix"]["python-version"] == ["3.10", "3.11", "3.12"]
    assert job["strategy"]["fail-fast"] is False
    steps = _steps_text(job)
    assert "python -m pytest -x -q" in steps
    pytest_step = next(s for s in job["steps"] if "pytest" in str(s.get("run", "")))
    assert pytest_step["env"]["PYTHONPATH"] == "src"


def test_tier1_job_runs_the_wall_clock_benchmark_helper_tests(workflow):
    # No tier-1 run collects wallbench/tests (pytest's testpaths is tests/).
    job = workflow["jobs"]["test"]
    step = next(s for s in job["steps"] if "wallbench/tests" in str(s.get("run", "")))
    assert step["run"].strip() == "python -m pytest wallbench/tests -q"
    assert step["env"]["PYTHONPATH"] == "src"


def test_lint_job_gates_ruff_and_strict_mypy(workflow):
    steps = _steps_text(workflow["jobs"]["lint"])
    assert "ruff check" in steps
    assert "mypy --strict src/repro/runner" in steps
    assert "src/repro/service" in steps
    assert "src/repro/telemetry" in steps
    assert "src/repro/fuzz" in steps
    assert "src/repro/engine" in steps
    assert "src/repro/columns" in steps
    assert "src/repro/cluster" in steps
    assert "src/repro/replay" in steps
    assert "src/repro/mergesort/kway.py" in steps
    assert "src/repro/mergesort/samplesort.py" in steps
    # The root package and the lazy-export helper every __init__ uses:
    # follow_imports = "silent" would hide their errors otherwise.
    assert "src/repro/__init__.py" in steps
    assert "src/repro/_version.py" in steps
    assert "src/repro/_lazy.py" in steps


def test_smoke_job_runs_quick_suite_and_perf_gate(workflow):
    job = workflow["jobs"]["smoke"]
    steps = _steps_text(job)
    assert "python -m repro all --quick" in steps
    assert "--report run-report.json" in steps
    assert "python -m repro bench" in steps
    assert "--baseline benchmarks/BASELINE.json" in steps
    # Every gated leaf is a deterministic counter or modeled time, so
    # any drift is a regression: the gate allows none.
    assert re.search(r"--tolerance 0(\s|$)", steps)


def test_smoke_job_runs_service_selftest(workflow):
    # The service smoke: a mixed random/adversarial batch through every
    # stock backend, self-verified output, metrics artifact for upload.
    steps = _steps_text(workflow["jobs"]["smoke"])
    assert "python -m repro serve" in steps
    assert "--mix mixed" in steps
    assert "--selftest" in steps
    assert "--metrics-out service-metrics.json" in steps
    backends = steps.split("--backends", 1)[1].split()[0].split(",")
    assert sorted(backends) == sorted(DEFAULT_BACKENDS)


def test_smoke_job_always_uploads_run_reports(workflow):
    job = workflow["jobs"]["smoke"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "run-reports"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "run-report.json" in upload["with"]["path"]
    assert "bench-report.json" in upload["with"]["path"]
    assert "service-metrics.json" in upload["with"]["path"]


def test_smoke_job_profiles_the_adversarial_input(workflow):
    # The telemetry smoke: a deterministic conflict profile of the
    # Fig. 5 adversarial input, artifacts uploaded for inspection.
    steps = _steps_text(workflow["jobs"]["smoke"])
    assert "python -m repro profile worstcase" in steps
    assert "--w 32 --E 15" in steps
    assert "--out telemetry-artifacts" in steps


def test_smoke_job_uploads_telemetry_artifacts(workflow):
    job = workflow["jobs"]["smoke"]
    uploads = [
        s for s in job["steps"] if "upload-artifact" in str(s.get("uses", ""))
    ]
    telemetry = next(u for u in uploads if u["with"]["name"] == "telemetry")
    assert telemetry["if"] == "always()"
    assert telemetry["with"]["if-no-files-found"] == "error"
    assert "telemetry-artifacts" in telemetry["with"]["path"]


def test_smoke_job_runs_the_seeded_fuzz_campaign_twice(workflow):
    # The fuzz smoke: same seed + budget must produce a byte-identical
    # report (the determinism contract), verified with cmp; exit 6 from
    # either run (counterexample found) fails the step.
    steps = _steps_text(workflow["jobs"]["smoke"])
    assert "python -m repro fuzz run" in steps
    assert "--fuzz-seed 0" in steps
    assert "--fuzz-report fuzz-report.json" in steps
    assert "cmp fuzz-report.json fuzz-report-again.json" in steps


def test_smoke_job_uploads_fuzz_artifacts(workflow):
    job = workflow["jobs"]["smoke"]
    uploads = [
        s for s in job["steps"] if "upload-artifact" in str(s.get("uses", ""))
    ]
    fuzz = next(u for u in uploads if u["with"]["name"] == "fuzz")
    assert fuzz["if"] == "always()"
    assert fuzz["with"]["if-no-files-found"] == "error"
    assert "fuzz-artifacts" in fuzz["with"]["path"]
    assert "fuzz-report.json" in fuzz["with"]["path"]


def test_engine_job_runs_the_benchmark_twice_and_diffs_reports(workflow):
    # The engine smoke: the batched lane's fusion-ledger check plus the
    # determinism contract — two runs must emit byte-identical reports
    # (counters, ledger counts + plan-cache hit counts, no timings).  The
    # lane gate is deterministic, so no timing floor is passed in.
    job = workflow["jobs"]["engine"]
    steps = _steps_text(job)
    assert "pytest benchmarks/bench_engine.py" in steps
    assert "ENGINE_REPORT=engine-report.json" in steps
    assert "ENGINE_REPORT=engine-report-again.json" in steps
    assert "cmp engine-report.json engine-report-again.json" in steps
    bench = next(s for s in job["steps"] if "bench_engine.py" in str(s.get("run", "")))
    assert "fusion ledger" in bench["name"]
    assert bench["env"] == {"PYTHONPATH": "src"}


def test_engine_job_profiles_twice_and_diffs_artifacts(workflow):
    # ``repro profile engine`` writes only call counts and byte totals,
    # so two runs must leave byte-identical fusion/arena artifacts.
    job = workflow["jobs"]["engine"]
    profile = next(s for s in job["steps"] if "profile engine" in str(s.get("run", "")))
    run = profile["run"]
    assert "repro profile engine --out engine-artifacts\n" in run
    assert "repro profile engine --out engine-artifacts-again\n" in run
    assert (
        "cmp engine-artifacts/profile-engine.json "
        "engine-artifacts-again/profile-engine.json" in run
    )
    assert profile["env"] == {"PYTHONPATH": "src"}


def test_engine_job_checks_paper_geometry_parity(workflow):
    # E=15, u=512, w=32 at 16 tiles, where the stacked-pass budget binds:
    # the lane must equal the lockstep oracle on every result field.
    job = workflow["jobs"]["engine"]
    step = next(s for s in job["steps"] if "gpu_mergesort" in str(s.get("run", "")))
    run = step["run"]
    assert "16 * 15 * 512" in run
    assert 'for variant in ("cf", "thrust"):' in run
    assert "got = batched_mergesort(data, 15, 512, 32, variant)" in run
    assert "want = gpu_mergesort(data, 15, 512, 32, variant)" in run
    assert "assert got.as_dict() == want.as_dict(), variant" in run
    assert step["env"] == {"PYTHONPATH": "src"}


def test_engine_job_checks_paper_geometry_parity_at_six_tiles(workflow):
    # Six tiles at E=15, u=512, w=32: merge levels of 6, 4 and 6 blocks, so
    # one level is padded, and one stacked pass holds blocksort and merge
    # levels.  Both variants must equal the oracle and take two passes.
    job = workflow["jobs"]["engine"]
    step = next(s for s in job["steps"] if "gpu_mergesort" in str(s.get("run", "")))
    run = step["run"]
    assert "6 * 15 * 512" in run
    six = run[run.index("6 * 15 * 512"):]
    assert 'for variant in ("cf", "thrust"):' in six
    assert "got = batched_mergesort(data, 15, 512, 32, variant)" in six
    assert "want = gpu_mergesort(data, 15, 512, 32, variant)" in six
    assert 'assert got.as_dict() == want.as_dict(), ("6 tiles", variant)' in six
    assert 'assert calls == (2 if variant == "cf" else 4)' in six


def test_engine_job_uploads_its_reports(workflow):
    job = workflow["jobs"]["engine"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "engine"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "engine-report.json" in upload["with"]["path"]


def test_kway_job_runs_the_benchmark_twice_and_diffs_reports(workflow):
    # The k-way smoke: the log_k level-count assertion, the CF
    # zero-conflict grid, and the batched-vs-lockstep counter identity,
    # run twice — reports must be byte-identical (no timings inside).
    steps = _steps_text(workflow["jobs"]["kway"])
    assert "pytest benchmarks/bench_kway.py" in steps
    assert "KWAY_REPORT=kway-report.json" in steps
    assert "KWAY_REPORT=kway-report-again.json" in steps
    assert "cmp kway-report.json kway-report-again.json" in steps


def test_kway_job_checks_paper_geometry_parity(workflow):
    # E=15, u=512, w=32, k=4 on 9 tiles: a level with a carried run, then
    # a short group.  The lane must equal the lockstep oracle on every
    # KwaySortResult field.
    job = workflow["jobs"]["kway"]
    step = next(s for s in job["steps"] if "kway_sort(" in str(s.get("run", "")))
    run = step["run"]
    assert "9 * 15 * 512" in run
    assert "got = batched_kway_sort(data, 4, 15, 512, 32)" in run
    assert "want = kway_sort(data, 4, 15, 512, 32)" in run
    assert "assert got.as_dict() == want.as_dict()" in run
    assert step["env"] == {"PYTHONPATH": "src"}


def test_kway_job_uploads_its_reports(workflow):
    job = workflow["jobs"]["kway"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "kway"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "kway-report.json" in upload["with"]["path"]


def test_smoke_job_profiles_the_kway_targets(workflow):
    steps = _steps_text(workflow["jobs"]["smoke"])
    assert "python -m repro profile kway" in steps
    assert "python -m repro trace kway" in steps


def test_columns_job_runs_the_benchmark_twice_and_diffs_reports(workflow):
    # The columns smoke: reference-oracle bit-identity for every
    # operator, zero CF merge replays at the coprime geometry, and the
    # determinism contract — two runs emit byte-identical reports.
    steps = _steps_text(workflow["jobs"]["columns"])
    assert "pytest benchmarks/bench_columns.py" in steps
    assert "COLUMNS_REPORT=columns-report.json" in steps
    assert "COLUMNS_REPORT=columns-report-again.json" in steps
    assert "cmp columns-report.json columns-report-again.json" in steps
    assert "python -m repro profile columns" in steps


def test_columns_job_uploads_its_reports(workflow):
    job = workflow["jobs"]["columns"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "columns"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "columns-report.json" in upload["with"]["path"]


def test_cluster_job_runs_the_benchmark_twice_and_diffs_reports(workflow):
    # The cluster smoke: inline-vs-process byte identity, the
    # cf-cluster ≡ cf-batched backend identity, the external sort's
    # resident-key budget ceiling — run twice, reports byte-identical.
    steps = _steps_text(workflow["jobs"]["cluster"])
    assert "pytest benchmarks/bench_cluster.py" in steps
    assert "CLUSTER_REPORT=cluster-report.json" in steps
    assert "CLUSTER_REPORT=cluster-report-again.json" in steps
    assert "cmp cluster-report.json cluster-report-again.json" in steps
    assert "python -m repro cluster-sort" in steps
    assert "--external" in steps


def test_cluster_job_serves_cf_cluster_on_worker_processes(workflow):
    # cf-cluster cuts each batch into one segment range per pool process,
    # so its batches must also run on worker processes: a self-verified
    # serve smoke.
    job = workflow["jobs"]["cluster"]
    step = next(s for s in job["steps"] if "--workers-procs" in str(s.get("run", "")))
    run = str(step["run"])
    assert "python -m repro serve" in run
    assert "--count 200" in run
    assert "--mix mixed" in run
    assert "--workers-procs 2" in run
    assert "--selftest" in run
    backends = run.split("--backends", 1)[1].split()[0].split(",")
    assert sorted(backends) == ["cf-batched", "cf-cluster"]
    assert step["env"] == {"PYTHONPATH": "src"}


def test_cluster_job_uploads_its_reports(workflow):
    job = workflow["jobs"]["cluster"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "cluster"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "cluster-report.json" in upload["with"]["path"]


def test_replay_job_runs_the_benchmark_twice_and_diffs_reports(workflow):
    # The replay smoke: double-run byte identity of replay reports, the
    # traffic-log save/load roundtrip, and the four-fault chaos campaign
    # surviving with clean oracles — run twice, reports byte-identical.
    steps = _steps_text(workflow["jobs"]["replay"])
    assert "pytest benchmarks/bench_replay.py" in steps
    assert "REPLAY_REPORT=replay-report.json" in steps
    assert "REPLAY_REPORT=replay-report-again.json" in steps
    assert "cmp replay-report.json replay-report-again.json" in steps


def test_replay_job_runs_the_cli_chaos_smoke(workflow):
    # The CLI smoke exercises both verbs end to end: a clean replay of
    # the adversarial mix and a full chaos campaign (exit 7 fails the
    # step and the always() upload preserves the failure artifact).
    steps = _steps_text(workflow["jobs"]["replay"])
    assert "python -m repro replay run" in steps
    assert "python -m repro replay chaos" in steps
    assert "--chaos-report" in steps


def test_replay_job_uploads_its_reports(workflow):
    job = workflow["jobs"]["replay"]
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert upload["with"]["name"] == "replay"
    assert upload["with"]["if-no-files-found"] == "error"
    assert "replay-report.json" in upload["with"]["path"]
    assert "replay-artifacts" in upload["with"]["path"]


def test_nightly_fuzz_runs_an_external_sort_smoke(workflow):
    steps = _steps_text(workflow["jobs"]["nightly-fuzz"])
    assert "python -m repro cluster-sort --external" in steps
    assert "--budget-keys 8192" in steps


def test_nightly_fuzz_runs_a_larger_budget_and_uploads_reproducers(workflow):
    # The nightly campaign: bigger budget and search than the PR smoke,
    # covering every registered backend oracle (kway/samplesort
    # included); artifacts upload on always() so exit 6 preserves the
    # minimized reproducers.
    job = workflow["jobs"]["nightly-fuzz"]
    steps = _steps_text(job)
    assert "python -m repro fuzz run" in steps
    assert "--budget 512" in steps
    assert "--search-iters 20000" in steps
    upload = next(s for s in job["steps"] if "upload-artifact" in str(s.get("uses", "")))
    assert upload["if"] == "always()"
    assert "nightly-fuzz-artifacts" in upload["with"]["path"]


def test_every_job_checks_out_and_sets_up_python(workflow):
    for name, job in workflow["jobs"].items():
        uses = [str(step.get("uses", "")) for step in job["steps"]]
        assert any(u.startswith("actions/checkout@") for u in uses), name
        assert any(u.startswith("actions/setup-python@") for u in uses), name


def test_committed_baseline_is_a_populated_report():
    baseline = RunReport.read(BASELINE)
    assert baseline.name == "bench-baseline"
    assert baseline.code_version
    assert len(baseline.tiles) >= 20  # fig6-quick + theorem8 grid + defenses
    metrics = baseline.metrics()
    assert len(metrics) > 100
    # Modeled end-to-end times are gated too, not just raw counters.
    assert any("time_us@" in key for key in metrics)
    # A baseline must be self-consistent under a zero-tolerance gate.
    assert compare_reports(baseline, baseline, tolerance=0.0) == ([], [])
