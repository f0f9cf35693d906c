"""``select-read-sim``: read-only selects against one loaded domain.

Chosen because all of its time is ``cloud.simpledb`` — parse, plan,
materialize, verify, page — while the gateway, storage and HTTP do
nothing, so a select-engine change moves this workload and predicts no
change on the ingest ones.  Keys are drawn from a skewed (cube of a
uniform) distribution over far more distinct expressions than the
1 024-entry parse cache holds, so the cache sees both hits and misses.
"""

from __future__ import annotations

import random
import time
from typing import List, Tuple

import repro.cloud.simpledb as simpledb
from repro.cloud import CloudAccount

from common import (
    ACCOUNT_SEED,
    Rep,
    account_counts,
    cloud_cost,
    metered,
    pair_bytes,
    snapshot_counts,
)

DOMAIN = "prov"
#: Versions per object; item names are ``u<object>_<version>``.
VERSIONS = 4
#: Rows a paging chain spans, from and up to — two or three pages of
#: ``SELECT_PAGE_ITEMS``, so that the page count varies with the seed.
CHAIN_ROWS = (1300, 2600)
#: Share of each kind of select in every repetition.
MIX = {
    "name_equals": 0.40,
    "name_and_version": 0.20,
    "name_prefix": 0.20,
    "mtime_between": 0.15,
    "paging_chain": 0.05,
}


class SelectReadSim:
    name = "select-read-sim"
    #: Thousands of selects a run: p99 has well over ten samples beyond it.
    tail = 0.99
    backend = "sim"

    def __init__(self, seed: int, smoke: bool, out_dir: str):
        self.seed = seed
        self.items = 4_000 if smoke else 50_000
        self.selects_per_rep = 40 if smoke else 1_000
        self.check_sample = 5 if smoke else 25
        self.groups = max(1, self.items // 100)

    def describe(self) -> str:
        return (
            f"{self.items} items in one domain, {self.selects_per_rep} selects "
            "per repetition ("
            + ", ".join(f"{share:.0%} {kind}" for kind, share in MIX.items())
            + f"; chains span {CHAIN_ROWS[0]}-{CHAIN_ROWS[1]} rows)"
        )

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        rng = random.Random(self.seed)
        items = []
        for i in range(self.items):
            obj, version = divmod(i, VERSIONS)
            pairs = [
                ("type", "proc" if rng.random() < 0.04 else "file"),
                ("name", f"prog-{rng.randrange(self.groups):05d}"),
                ("version", f"{version:04d}"),
                ("mtime", f"{1_000_000 + i:09d}"),
                ("input", f"u{max(0, obj - 1 - rng.randrange(8)):07d}_{version}"),
            ]
            items.append((f"u{obj:07d}_{version}", pairs))
        self.user_bytes = pair_bytes(items)
        self.account = CloudAccount(seed=ACCOUNT_SEED)
        sdb = self.account.simpledb
        sdb.create_domain(DOMAIN)
        requests = [
            sdb.batch_put_request(DOMAIN, items[i : i + 25])
            for i in range(0, len(items), 25)
        ]
        self.account.scheduler.execute_batch(requests, 40)
        self.account.settle(120.0)

    def _expressions(self, rng: random.Random, count: int) -> List[str]:
        """``count`` select expressions in the workload's mix."""
        objects = self.items // VERSIONS

        def skewed(limit: int) -> int:
            return int(rng.random() ** 3 * limit)

        def name_equals() -> str:
            return f"name = 'prog-{skewed(self.groups):05d}'"

        def name_and_version() -> str:
            return (
                f"name = 'prog-{skewed(self.groups):05d}' "
                f"and version >= '{rng.randrange(1, VERSIONS):04d}'"
            )

        def name_prefix() -> str:
            return f"itemName() like 'u{skewed(objects):07d}_%'"

        def mtime_between() -> str:
            low = 1_000_000 + skewed(self.items - 100)
            return (
                f"mtime between '{low:09d}' "
                f"and '{low + rng.randrange(40, 100):09d}'"
            )

        def paging_chain() -> str:
            rows = min(rng.randrange(*CHAIN_ROWS), self.items // 2)
            span = rows // VERSIONS
            low = skewed(objects - span)
            return (
                f"itemName() between 'u{low:07d}_' and 'u{low + span - 1:07d}_z'"
            )

        makers = {
            maker.__name__: maker
            for maker in (
                name_equals, name_and_version, name_prefix, mtime_between,
                paging_chain,
            )
        }
        # Exact shares, shuffled: the mix does not vary with the seed.
        kinds = []
        for kind, share in MIX.items():
            kinds.extend([makers[kind]] * round(share * count))
        kinds.extend([name_equals] * (count - len(kinds)))
        rng.shuffle(kinds)
        return [f"select * from {DOMAIN} where {kind()}" for kind in kinds[:count]]

    # -- one repetition --------------------------------------------------------

    def repetition(self, index: int, tracer) -> Rep:
        account, sdb = self.account, self.account.simpledb
        expressions = self._expressions(
            random.Random(self.seed * 1009 + index), self.selects_per_rep
        )
        before = account_counts(account)
        start = metered(account)
        latencies, prepared = [], []
        started = time.perf_counter()
        for expression in expressions:
            t0 = time.perf_counter()
            with tracer.op("select"):
                # Looked up on the module, where the traced run wraps it.
                select = simpledb.prepare_select(expression)
                sdb.select(select)
            latencies.append((time.perf_counter() - t0) * 1e3)
            prepared.append(select)
        wall = time.perf_counter() - started
        cloud = cloud_cost(account, start)

        counts = {
            key: value - before[key]
            for key, value in account_counts(account).items()
        }
        if tracer.enabled:
            # Planner dry runs, outside the select operations they explain.
            for select in prepared:
                with tracer.op("plan-probe"):
                    plan = sdb.explain(select)
                tracer.count(
                    "select.est_candidates", plan.get("estimated_candidates") or 0
                )
            counts.update(snapshot_counts(account))
        return Rep(
            ops=len(expressions),
            wall_s=wall,
            latencies_ms=latencies,
            cloud=cloud,
            user_bytes=self.user_bytes,
            store_bytes=sdb.index_memory_bytes(),
            counts=counts,
        )

    # -- output check ----------------------------------------------------------

    def check(self) -> Tuple[int, int, dict]:
        """A seeded sample re-run against the ``use_indexes=False`` scan
        oracle: rows, their order and the billed operations must match."""
        account, sdb = self.account, self.account.simpledb
        failed = 0
        expressions = self._expressions(
            random.Random(self.seed * 1009 - 1), self.check_sample
        )
        for expression in expressions:
            answers = []
            for use_indexes in (True, False):
                sdb.use_indexes = use_indexes
                ops0 = account.billing.operation_count()
                try:
                    rows = sdb.select(expression)
                finally:
                    sdb.use_indexes = True
                answers.append((rows, account.billing.operation_count() - ops0))
            if answers[0] != answers[1]:
                failed += 1
                print(f"CHECK FAILED: index and scan differ on {expression!r}")
        return len(expressions), failed, {}

    def close(self) -> None:
        self.account.close()
