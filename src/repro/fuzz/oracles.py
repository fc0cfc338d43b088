"""The three fuzz oracles: differential, invariant, bound.

:func:`evaluate_case` runs one fuzz input through every requested oracle
family and returns a JSON-serializable verdict.  Individual checks are
named ``family/check``; a case is a counterexample iff any executed check
reports ``ok: False``.  Checks whose geometric preconditions don't hold
(e.g. a shrunk input whose length no longer divides into warps) are
recorded as *skipped* — still ``ok``, so the shrinker can freely reduce
lengths while chasing a failing check.

Families
--------
``differential``
    CF-Merge and the Thrust-style baseline vs ``numpy.sort``; the batched
    lane's conflict profile vs the lockstep simulator's counters; the
    batched pipeline's full result (data and every counter) vs both
    lockstep pipeline results;
    ``sort_by_key`` stability against ``numpy.argsort(kind="stable")``;
    every registered service backend on a segmented payload; the
    cluster-sharded engine lane byte-identical (values, counters,
    launches) to the in-process batched lane on the same payload; the
    columnar operators (sort/join/groupby over a table derived from the
    payload) bit-identical against the pure-Python reference oracle
    (:mod:`repro.columns.reference`); and — only when ``inject`` names
    one of :data:`INJECTABLE_BUGS` — a deliberately broken reference
    sort, the mutation test proving the oracle can actually catch a
    wrong sort.
``invariant``
    The paper's zero-conflict claim (CF merge replays == 0 on *this*
    input) and the algebraic form: the CF gather schedule of the case's
    top merge is conflict-free and a complete residue system per warp
    (:mod:`repro.core.verify`).  Both carry the paper's precondition
    ``gcd(E, w) == 1`` — non-coprime geometries skip them (the CF layout
    offers no guarantee there), while the differential checks still run.
``bound``
    Theorem 8 as a ceiling: no fuzzed input may provoke more baseline
    merge-phase excess than the Section 4 construction at the same size,
    plus the same ``2w``-per-warp boundary slack the ``theorem8``
    experiment grants the closed form (head-load rounds and incidental
    conflicts sit within it; see ``docs/FUZZING.md``).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Sequence

import numpy as np
import numpy.typing as npt

from repro.config import SortParams
from repro.core.schedule import block_gather_schedule
from repro.core.verify import rounds_are_complete_residue_systems, schedule_conflicts
from repro.engine.lane import profile_serial_merges
from repro.errors import ParameterError
from repro.fuzz.corpus import Geometry
from repro.mergesort.by_key import sort_by_key
from repro.mergesort.merge_path import block_split_from_merge_path
from repro.mergesort.pipeline import MergesortResult, batched_mergesort, gpu_mergesort
from repro.mergesort.serial_merge import serial_merge_block
from repro.service.backends import available_backends, get_backend

__all__ = [
    "ORACLE_FAMILIES",
    "INJECTABLE_BUGS",
    "KEY_MODULUS",
    "evaluate_case",
    "fuzz_case_tile",
    "baseline_excess_bound",
    "constructed_excess",
    "injected_sort",
]

Array = npt.NDArray[np.int64]

#: The oracle families, in evaluation order.
ORACLE_FAMILIES: tuple[str, ...] = ("differential", "invariant", "bound")

#: Deliberate reference-sort bugs for mutation-testing the oracles.
INJECTABLE_BUGS: tuple[str, ...] = ("swap_tail", "drop_min")

#: Stability keys are the input values folded into this modulus — small
#: enough that duplicate keys are common, so stability is actually load
#: bearing, large enough to preserve most ordering structure.
KEY_MODULUS = 1 << 20

#: Counter fields the lane's profile must reproduce exactly.
_PROFILE_FIELDS = (
    "shared_replays",
    "shared_excess",
    "shared_cycles",
    "shared_read_rounds",
)


def _check(ok: bool, detail: str, skipped: bool = False) -> dict[str, Any]:
    return {"ok": bool(ok), "detail": detail, "skipped": skipped}


def _skip(detail: str) -> dict[str, Any]:
    return _check(True, detail, skipped=True)


@lru_cache(maxsize=128)
def constructed_excess(w: int, E: int, u_merge: int) -> int:
    """Baseline merge-phase excess of the §4 construction at this size."""
    from repro.worstcase import worstcase_merge_inputs

    a, b = worstcase_merge_inputs(w, E, u=u_merge)
    return int(profile_serial_merges([(a, b)], E, w)[0].shared_excess)


def baseline_excess_bound(w: int, E: int, u_merge: int) -> int:
    """The bound oracle's ceiling: constructed excess + 2w per warp.

    The slack term mirrors the ``theorem8`` experiment's verdict
    convention (measured excess matches the closed form modulo <= 2w
    boundary effects): head-load rounds and incidental cross-run
    conflicts land inside it, and adversarial annealing has not escaped
    it on any searched geometry.
    """
    return constructed_excess(w, E, u_merge) + 2 * w * (u_merge // w)


def injected_sort(data: Array, bug: str) -> Array:
    """A deliberately wrong reference sort (mutation-testing hook)."""
    out = np.sort(data)
    if bug == "swap_tail":
        if len(out) >= 2:
            out[[-2, -1]] = out[[-1, -2]]
    elif bug == "drop_min":
        if len(out) >= 2:
            out[0] = out[1]
    else:
        raise ParameterError(
            f"unknown injected bug {bug!r} (one of {', '.join(INJECTABLE_BUGS)})"
        )
    return out


def _segment_offsets(n: int) -> list[int]:
    """Deterministic uneven segment offsets for the backend check."""
    if n < 4:
        return [0]
    return sorted({0, n // 4, n // 2 + 1, (3 * n) // 4})


def _backends_check(data: Array, geometry: Geometry) -> dict[str, Any]:
    """Every registered backend sorts a segmented payload correctly.

    Backends with stricter geometric preconditions than the fuzzed case
    (``cf-batched`` needs coprime ``w, E`` and a power-of-two ``u``) are
    recorded as skipped, matching the module's skip convention.
    """
    params = SortParams(geometry.E, geometry.u)
    offsets = _segment_offsets(len(data))
    bounds = offsets + [len(data)]
    disagreements: list[str] = []
    skipped: list[str] = []
    for name in available_backends():
        try:
            outcome = get_backend(name)(data, offsets, params, geometry.w)
        except ParameterError:
            skipped.append(name)
            continue
        for lo, hi in zip(bounds, bounds[1:]):
            if not np.array_equal(outcome.data[lo:hi], np.sort(data[lo:hi])):
                disagreements.append(f"{name}@[{lo}:{hi})")
    return _check(
        not disagreements,
        f"backends {', '.join(available_backends())} over "
        f"{len(offsets)} segments"
        + (f"; skipped: {', '.join(skipped)}" if skipped else "")
        + (f"; wrong: {', '.join(disagreements)}" if disagreements else ""),
    )


def _cluster_check(data: Array, geometry: Geometry) -> dict[str, Any]:
    """The cluster-sharded lane is byte-identical to the batched lane.

    Runs ``cf-cluster`` and ``cf-batched`` over the same segmented
    payload and demands identical output values, identical aggregated
    counters, and identical launch counts — the tentpole identity the
    cluster package promises.  Geometries the batched lane rejects
    (non-coprime ``w, E`` or a non-power-of-two ``u``) skip, matching
    the module's skip convention.
    """
    from repro.cluster.service import cf_cluster_backend
    from repro.engine.backend import cf_batched_backend

    params = SortParams(geometry.E, geometry.u)
    offsets = _segment_offsets(len(data))
    try:
        batched = cf_batched_backend(data, offsets, params, geometry.w)
        clustered = cf_cluster_backend(data, offsets, params, geometry.w)
    except ParameterError as exc:
        return _skip(f"batched-lane precondition failed: {exc}")
    mismatches: list[str] = []
    if not np.array_equal(clustered.data, batched.data):
        mismatches.append("values")
    if clustered.counters.as_dict() != batched.counters.as_dict():
        mismatches.append("counters")
    if clustered.launches != batched.launches:
        mismatches.append(
            f"launches ({clustered.launches} != {batched.launches})"
        )
    return _check(
        not mismatches,
        f"cf-cluster vs cf-batched over {len(offsets)} segments"
        + (f"; diverged: {', '.join(mismatches)}" if mismatches else ""),
    )


def _batched_pipeline_check(
    data: Array, geometry: Geometry, lockstep: dict[str, MergesortResult]
) -> dict[str, Any]:
    """``batched_mergesort`` equals the lockstep results on every field.

    ``lockstep`` maps each variant to the case's ``gpu_mergesort``
    result; the batched pipeline reruns both at the same geometry.
    """
    diverged: list[str] = []
    for variant, want in lockstep.items():
        got = batched_mergesort(data, geometry.E, geometry.u, geometry.w, variant)
        want_fields, got_fields = want.as_dict(), got.as_dict()
        diverged += [
            f"{variant}:{name}"
            for name in sorted(set(want_fields) | set(got_fields))
            if want_fields.get(name) != got_fields.get(name)
        ]
    return _check(
        not diverged,
        f"batched_mergesort vs gpu_mergesort ({', '.join(lockstep)}) over n={len(data)}"
        + (f"; diverged: {', '.join(diverged)}" if diverged else ""),
    )


def _columns_table(data: Array) -> Any:
    """A deterministic columnar table derived from one fuzz payload.

    Duplicate-heavy signed keys (``mod 16 - 8``), a float column with
    NaNs (every 11th residue) and a validity mask (every 7th residue is
    null), and a ``uint64`` payload — so sorts, joins and groupbys hit
    ties, NaN ordering, and null placement on nearly every fuzzed input.
    """
    from repro.columns.table import Table

    key = (data % 16) - 8
    score = (data % 1000).astype(np.float64) / 7.0
    score[data % 11 == 0] = np.nan
    return Table.from_arrays(
        {
            "key": key.astype(np.int64),
            "score": score,
            "payload": (data % (1 << 16)).astype(np.uint64),
        },
        valid={"score": data % 7 != 0},
    )


def _columns_check(data: Array, geometry: Geometry) -> dict[str, Any]:
    """The columnar operators agree bit-identically with the reference.

    Runs ``sort_by`` (mixed directions and null placements), an inner
    and a left ``merge_join`` (the right side reuses a reversed slice of
    the same payload, so matches and misses both occur), and a
    ``groupby_aggregate`` — each against its pure-Python oracle from
    :mod:`repro.columns.reference`, at the fuzzed case's geometry.
    """
    from repro.columns.keys import KeySpec
    from repro.columns.ops import groupby_aggregate, merge_join, sort_by
    from repro.columns.reference import (
        groupby_reference,
        join_reference,
        sort_by_reference,
    )

    params = SortParams(geometry.E, geometry.u)
    table = _columns_table(data)
    right = _columns_table(data[::-2].copy()).select(["key", "payload"])
    keys = [KeySpec("key"), KeySpec("score", ascending=False, nulls="first")]
    mismatches: list[str] = []
    got = sort_by(table, keys, params=params, w=geometry.w)
    if not got.table.equals(sort_by_reference(table, keys)):
        mismatches.append("sort_by")
    for how in ("inner", "left"):
        joined = merge_join(table, right, ["key"], how=how, params=params, w=geometry.w)
        if not joined.table.equals(join_reference(table, right, ["key"], how=how)):
            mismatches.append(f"join/{how}")
    aggs = {"score": ("count", "sum", "min", "max"), "payload": ("sum",)}
    grouped = groupby_aggregate(table, ["key"], aggs, params=params, w=geometry.w)
    if not grouped.table.equals(groupby_reference(table, ["key"], aggs)):
        mismatches.append("groupby")
    return _check(
        not mismatches,
        f"sort_by/join/groupby over {len(data)} rows at "
        f"(w={geometry.w}, E={geometry.E}, u={geometry.u})"
        + (f"; wrong: {', '.join(mismatches)}" if mismatches else ""),
    )


def _stability_check(data: Array, geometry: Geometry) -> dict[str, Any]:
    """``sort_by_key`` keeps equal keys in input order (stability)."""
    keys = data % KEY_MODULUS
    values = np.arange(len(data), dtype=np.int64)
    sorted_keys, reordered, _ = sort_by_key(
        keys, values, E=geometry.E, u=geometry.u, w=geometry.w, variant="cf"
    )
    order = np.argsort(keys, kind="stable")
    ok = np.array_equal(sorted_keys, keys[order]) and np.array_equal(reordered, order)
    return _check(ok, f"by_key over {len(data)} keys mod {KEY_MODULUS}")


def evaluate_case(
    data: Array | Sequence[int],
    geometry: Geometry,
    oracles: Sequence[str] = ORACLE_FAMILIES,
    inject: str | None = None,
) -> dict[str, Any]:
    """Run one input through the requested oracle families.

    Returns a JSON-serializable dict: per-check verdicts (``checks``),
    the sorted list of failing check names (``failures``), the baseline
    merge-phase excess the input provoked (``score``, the search signal),
    and the CF merge replay count (``cf_merge_replays``).
    """
    for family in oracles:
        if family not in ORACLE_FAMILIES:
            raise ParameterError(
                f"unknown oracle family {family!r} "
                f"(one of {', '.join(ORACLE_FAMILIES)})"
            )
    data = np.asarray(data, dtype=np.int64)
    n = len(data)
    w, E, u = geometry.w, geometry.E, geometry.u
    expected = np.sort(data)
    checks: dict[str, dict[str, Any]] = {}
    score = 0
    cf_replays = 0

    # The case's top-level merge: sorted halves, when the sizes admit a
    # block merge (always true for full-size campaign cases; shrunk
    # inputs may not divide, and then the block-level checks skip).
    mergeable = n >= 2 and n % E == 0 and (n // E) % w == 0
    half = n // 2
    a = np.sort(data[:half]) if mergeable else None
    b = np.sort(data[half:]) if mergeable else None
    baseline_prof = (
        profile_serial_merges([(a, b)], E, w)[0]
        if mergeable and ("differential" in oracles or "bound" in oracles)
        else None
    )

    res_cf = None
    if "differential" in oracles or "invariant" in oracles:
        res_cf = gpu_mergesort(data, E, u, w, variant="cf")
        cf_replays = int(res_cf.merge_replays)

    if "differential" in oracles:
        assert res_cf is not None
        checks["differential/cf_matches_numpy"] = _check(
            bool(np.array_equal(res_cf.data, expected)),
            f"cf full sort over n={n}",
        )
        res_thrust = gpu_mergesort(data, E, u, w, variant="thrust")
        checks["differential/thrust_matches_numpy"] = _check(
            bool(np.array_equal(res_thrust.data, expected)),
            f"thrust full sort over n={n}",
        )
        if baseline_prof is not None and a is not None and b is not None:
            _, stats = serial_merge_block(a, b, E, w, simulate_search=False)
            mismatched = [
                f"{name}: lane {getattr(baseline_prof, name)} "
                f"!= sim {getattr(stats.merge, name)}"
                for name in _PROFILE_FIELDS
                if int(getattr(baseline_prof, name)) != int(getattr(stats.merge, name))
            ]
            checks["differential/fast_profile_matches_sim"] = _check(
                not mismatched,
                "vectorized profile vs lockstep counters"
                + (f"; {'; '.join(mismatched)}" if mismatched else ""),
            )
        else:
            checks["differential/fast_profile_matches_sim"] = _skip(
                f"n={n} does not form whole warps of E-element threads"
            )
        checks["differential/batched_pipeline_matches_sim"] = _batched_pipeline_check(
            data, geometry, {"cf": res_cf, "thrust": res_thrust}
        )
        checks["differential/by_key_stable"] = _stability_check(data, geometry)
        checks["differential/backends_agree"] = _backends_check(data, geometry)
        checks["differential/cluster_matches_batched"] = _cluster_check(data, geometry)
        checks["differential/columns_ops"] = _columns_check(data, geometry)
        if inject is not None:
            checks["differential/injected_reference"] = _check(
                bool(np.array_equal(injected_sort(data, inject), expected)),
                f"injected bug {inject!r} vs numpy.sort (expected to be caught)",
            )

    if "invariant" in oracles:
        assert res_cf is not None
        if not geometry.coprime:
            checks["invariant/cf_zero_merge_replays"] = _skip(
                f"gcd(E={E}, w={w}) != 1 — the zero-conflict guarantee "
                f"requires coprime E"
            )
        else:
            checks["invariant/cf_zero_merge_replays"] = _check(
                cf_replays == 0,
                f"CF merge-phase replays = {cf_replays} "
                f"(paper claim: 0 on every input)",
            )
        if not geometry.coprime:
            checks["invariant/cf_gather_schedule_crs"] = _skip(
                f"gcd(E={E}, w={w}) != 1 — CRS structure requires coprime E"
            )
        elif a is not None and b is not None:
            split = block_split_from_merge_path(a, b, E, w)
            rounds = block_gather_schedule(split)
            conflicts = schedule_conflicts(rounds, w)
            crs = rounds_are_complete_residue_systems(rounds, w)
            checks["invariant/cf_gather_schedule_crs"] = _check(
                not conflicts and crs,
                f"gather schedule: {len(conflicts)} conflicting rounds, "
                f"CRS per warp = {crs}",
            )
        else:
            checks["invariant/cf_gather_schedule_crs"] = _skip(
                f"n={n} does not form whole warps of E-element threads"
            )

    if "bound" in oracles:
        if baseline_prof is None and mergeable and a is not None and b is not None:
            baseline_prof = profile_serial_merges([(a, b)], E, w)[0]
        if baseline_prof is not None:
            u_merge = n // E
            try:
                ceiling = baseline_excess_bound(w, E, u_merge)
                reference = constructed_excess(w, E, u_merge)
            except ParameterError as exc:
                checks["bound/baseline_excess_bounded"] = _skip(
                    f"no §4 construction at u={u_merge}: {exc}"
                )
            else:
                excess = int(baseline_prof.shared_excess)
                checks["bound/baseline_excess_bounded"] = _check(
                    excess <= ceiling,
                    f"baseline merge excess {excess} vs constructed {reference} "
                    f"+ slack {ceiling - reference} (Theorem 8 ceiling)",
                )
        else:
            checks["bound/baseline_excess_bounded"] = _skip(
                f"n={n} does not form whole warps of E-element threads"
            )

    if baseline_prof is not None:
        score = int(baseline_prof.shared_excess)

    failures = sorted(name for name, c in checks.items() if not c["ok"])
    return {
        "geometry": geometry.as_dict(),
        "n": int(n),
        "checks": checks,
        "failures": failures,
        "score": score,
        "cf_merge_replays": cf_replays,
    }


def fuzz_case_tile(params: dict[str, Any]) -> dict[str, Any]:
    """The ``fuzz_case`` tile worker: one oracle evaluation, cacheable.

    A pure function of the job parameters (geometry, payload, oracle
    list, injected bug), so the runner's content-addressed cache and
    process fan-out apply to fuzz campaigns exactly as to sweeps.
    """
    geometry = Geometry(
        w=int(params["w"]), E=int(params["E"]), u=int(params["u"])
    )
    data = np.asarray(list(params["data"]), dtype=np.int64)
    oracles = tuple(str(name) for name in params["oracles"])
    inject_raw = params.get("inject")
    inject = None if inject_raw in (None, "") else str(inject_raw)
    return evaluate_case(data, geometry, oracles=oracles, inject=inject)
