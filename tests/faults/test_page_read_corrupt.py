"""The page_read_corrupt fault: quarantine, no bad data, clean recovery."""

import datetime

import pytest

from repro.errors import FaultError, PageCorruptError
from repro.faults import injector
from repro.faults.plan import KINDS, FaultPlan, FaultSpec
from repro.relational import DATE, Database, FLOAT, INTEGER, TEXT
from repro.relational.persist import load_database, save_database

QUERY = (
    "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
    "AND 1 FOLLOWING) AS s FROM t ORDER BY pos"
)


def build_db() -> Database:
    db = Database()
    db.create_table(
        "t",
        [("pos", INTEGER), ("val", FLOAT), ("tag", TEXT), ("d", DATE)],
    )
    db.insert("t", [
        (i, i / 7.0, f"tag{i % 3}", datetime.date(2003, 1, 1))
        for i in range(400)
    ])
    return db


@pytest.fixture
def dump(tmp_path):
    db = build_db()
    save_database(db, str(tmp_path), page_size=512)
    return str(tmp_path), db.sql(QUERY).rows


class TestSpec:
    def test_kind_is_registered(self):
        assert "page_read_corrupt" in KINDS
        assert FaultSpec("page_read_corrupt").site == "page_read"

    def test_unknown_kind_still_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("page_read_corupt")


class TestInjection:
    def test_corrupt_read_raises_and_quarantines(self, dump):
        d, _reference = dump
        loaded = load_database(d, memory_budget_bytes=2048)
        injector.install(FaultPlan([FaultSpec("page_read_corrupt",
                                              target="t")]))
        with pytest.raises(PageCorruptError, match="CRC32"):
            loaded.sql(QUERY)
        assert len(loaded.buffer_pool.quarantined_pages()) == 1
        plan = injector.active_plan()
        assert [e.kind for e in plan.events] == ["page_read_corrupt"]

    def test_quarantine_is_sticky_after_plan_cleared(self, dump):
        d, _reference = dump
        loaded = load_database(d, memory_budget_bytes=2048)
        injector.install(FaultPlan([FaultSpec("page_read_corrupt")]))
        with pytest.raises(PageCorruptError):
            loaded.sql(QUERY)
        injector.clear()
        # No fault plan anymore, but the poisoned page stays fenced off.
        with pytest.raises(PageCorruptError, match="quarantined"):
            loaded.sql(QUERY)

    def test_repair_then_requery_is_bit_identical(self, dump):
        d, reference = dump
        loaded = load_database(d, memory_budget_bytes=2048)
        injector.install(FaultPlan([FaultSpec("page_read_corrupt")]))
        with pytest.raises(PageCorruptError):
            loaded.sql(QUERY)
        injector.clear()
        assert loaded.buffer_pool.repair() == 1
        # The dump on disk was never touched; a re-read recovers cleanly.
        assert loaded.sql(QUERY).rows == reference

    def test_fresh_reload_is_bit_identical(self, dump):
        d, reference = dump
        loaded = load_database(d, memory_budget_bytes=2048)
        injector.install(FaultPlan([FaultSpec("page_read_corrupt")]))
        with pytest.raises(PageCorruptError):
            loaded.sql(QUERY)
        injector.clear()
        assert load_database(d).sql(QUERY).rows == reference

    def test_targeting_another_table_leaves_reads_clean(self, dump):
        d, reference = dump
        loaded = load_database(d, memory_budget_bytes=2048)
        injector.install(FaultPlan([FaultSpec("page_read_corrupt",
                                              target="other")]))
        assert loaded.sql(QUERY).rows == reference
        assert injector.active_plan().events == []

    def test_resident_pages_never_refire(self, dump):
        """The hook sits on fault-in: a page served from the pool is not
        re-corruptible, so a hot working set is immune."""
        d, reference = dump
        loaded = load_database(d, memory_budget_bytes=2**24)
        assert loaded.sql(QUERY).rows == reference  # everything resident now
        injector.install(FaultPlan([FaultSpec("page_read_corrupt")]))
        assert loaded.sql(QUERY).rows == reference
        assert injector.active_plan().events == []
