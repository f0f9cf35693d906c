"""Provenance query layer.

- :mod:`repro.query.engine` — the paper's four evaluation queries (Q1–Q4,
  §5.3) against both provenance backends: S3 provenance objects (P1) and
  SimpleDB items (P2/P3), in sequential and parallel variants, with
  time/bytes/operations accounting; the SimpleDB queries are effect
  plans that the synchronous engine and kernel processes both run,
- :mod:`repro.query.ancestry` — client-side graph reconstruction and
  ancestor/descendant closures over fetched provenance,
- :mod:`repro.query.search` — the Shah et al. provenance-weighted search
  ranking the paper cites as a cloud use case (§2.2).
"""

from repro.query.ancestry import ProvenanceIndex
from repro.query.engine import (
    QueryStats,
    S3QueryEngine,
    SimpleDBQueryEngine,
    SimpleDBQueryPlans,
    query_engine_for,
)
from repro.query.search import provenance_ranked_search

__all__ = [
    "ProvenanceIndex",
    "QueryStats",
    "S3QueryEngine",
    "SimpleDBQueryEngine",
    "SimpleDBQueryPlans",
    "provenance_ranked_search",
    "query_engine_for",
]
