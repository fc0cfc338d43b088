"""Typed columns and sort-backed relational operators over the CF pipeline.

The columnar layer turns the repo's conflict-free sort into a query
substrate: a :class:`~repro.columns.column.Column` (four logical dtypes,
optional validity mask) and a :class:`~repro.columns.table.Table` of
named columns, zero-copy against NumPy, with every relational operator —
:func:`~repro.columns.ops.sort_by`, :func:`~repro.columns.ops.merge_join`,
:func:`~repro.columns.ops.groupby_aggregate`,
:func:`~repro.columns.ops.top_k`, :func:`~repro.columns.ops.percentile` —
reduced to *encode, sort, gather*:

* **encode** — multi-column keys rank-compress through order-preserving
  bit transforms and radix-compose into the packed words ``sort_by_key``
  consumes (:mod:`repro.columns.keys`), via the cached ``key_pack`` plan;
* **sort** — the packed key runs on the simulated CF mergesort (exact
  merge-replay accounting) or any registered service backend, including
  a ``kind="columns"`` request through the micro-batching service
  (:mod:`repro.columns.service`);
* **gather** — payload movement fuses per dtype through the cached
  ``payload_gather`` plan (:meth:`~repro.columns.table.Table.take`).

Every operator is pinned bit-identically against the pure-Python
reference oracle (:mod:`repro.columns.reference`) by the unit tests and
the fuzz campaign, and ``repro profile columns``
(:mod:`repro.columns.profiler`) attributes gather/scatter conflicts per
operator — zero merge-phase excess on coprime geometries, the paper's
guarantee carried all the way up to relational queries.
"""

from typing import TYPE_CHECKING

from repro._lazy import lazy_exports

if TYPE_CHECKING:
    from repro.columns.column import Column
    from repro.columns.dtypes import DTYPES, NULL_ORDERS, dtype_name, numpy_dtype, order_bits
    from repro.columns.keys import (
        EncodedKey,
        KeyLike,
        KeySortOutcome,
        KeySpec,
        combined_codes,
        encode_keys,
        sort_permutation,
    )
    from repro.columns.ops import (
        AGGREGATES,
        JOIN_KINDS,
        JoinResult,
        OpResult,
        PercentileResult,
        groupby_aggregate,
        merge_join,
        percentile,
        sort_by,
        top_k,
    )
    from repro.columns.table import Table
else:
    __getattr__, __dir__ = lazy_exports(globals())

__all__ = [
    "AGGREGATES",
    "Column",
    "DTYPES",
    "EncodedKey",
    "JOIN_KINDS",
    "JoinResult",
    "KeyLike",
    "KeySortOutcome",
    "KeySpec",
    "NULL_ORDERS",
    "OpResult",
    "PercentileResult",
    "Table",
    "combined_codes",
    "dtype_name",
    "encode_keys",
    "groupby_aggregate",
    "merge_join",
    "numpy_dtype",
    "order_bits",
    "percentile",
    "sort_by",
    "sort_permutation",
    "top_k",
]
