"""Differential fuzzing for the paper's universally quantified claims.

The paper asserts properties over *every* input: CF-Merge incurs zero
merge-phase bank conflicts (Section 3), and the Section 4 construction is
the baseline's worst case (Theorem 8).  The repo's experiments check
hand-picked inputs and the analytic construction; this package checks the
quantifier:

* :mod:`repro.fuzz.corpus` — content-addressed seed corpus per sort
  geometry, grown score-guided during a campaign;
* :mod:`repro.fuzz.mutators` — structured mutations (splice, duplicate
  runs, near-sorted perturbation, residue/bank steering, …);
* :mod:`repro.fuzz.oracles` — the differential / invariant / bound
  oracles evaluated on every case;
* :mod:`repro.fuzz.engine` — the deterministic, budgeted campaign driver
  (fans out over :mod:`repro.runner`, emits telemetry spans);
* :mod:`repro.fuzz.search` — simulated-annealing adversarial search that
  rediscovers Theorem 8's worst case from replay counters alone;
* :mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.reproducer` — minimize
  counterexamples into replayable JSON artifacts.

CLI surface: ``python -m repro fuzz run|shrink|replay`` (exit code 6 =
counterexample found).  See ``docs/FUZZING.md``.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

# ``shrink`` names both a function and a submodule, so it cannot be lazy
# (repro._lazy): once the submodule loads, the package attribute is the module.
from repro.fuzz.shrink import shrink

if TYPE_CHECKING:
    from repro.fuzz.corpus import Corpus, CorpusEntry, Geometry, digest_of, seed_corpus
    from repro.fuzz.engine import (
        DEFAULT_GEOMETRIES,
        DEFAULT_SEARCH_CONFIGS,
        FuzzConfig,
        render_report,
        run_campaign,
        write_report,
    )
    from repro.fuzz.mutators import MUTATORS, mutate
    from repro.fuzz.oracles import (
        INJECTABLE_BUGS,
        ORACLE_FAMILIES,
        baseline_excess_bound,
        evaluate_case,
        fuzz_case_tile,
    )
    from repro.fuzz.reproducer import (
        FORMAT_VERSION,
        Reproducer,
        load_reproducer,
        make_reproducer,
        replay,
        save_reproducer,
    )
    from repro.fuzz.search import SearchResult, adversarial_search, mask_to_inputs
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "Geometry",
    "Corpus",
    "CorpusEntry",
    "digest_of",
    "seed_corpus",
    "MUTATORS",
    "mutate",
    "ORACLE_FAMILIES",
    "INJECTABLE_BUGS",
    "evaluate_case",
    "fuzz_case_tile",
    "baseline_excess_bound",
    "FuzzConfig",
    "DEFAULT_GEOMETRIES",
    "DEFAULT_SEARCH_CONFIGS",
    "run_campaign",
    "render_report",
    "write_report",
    "SearchResult",
    "adversarial_search",
    "mask_to_inputs",
    "shrink",
    "Reproducer",
    "FORMAT_VERSION",
    "make_reproducer",
    "save_reproducer",
    "load_reproducer",
    "replay",
]
