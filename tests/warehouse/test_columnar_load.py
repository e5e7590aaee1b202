"""A view refresh and a load append whole columns, not rows.

Building a view's storage and loading a dump go through the columnar bulk
path: no ``Table.insert``, no ``SortedIndex.add`` and no per-row
``key_of`` call.  What the refresh stores is what inserting the same rows
one at a time would store, digest for digest.
"""

import datetime

import pytest

from repro.relational.index import HashIndex, SortedIndex
from repro.relational.table import Table
from repro.warehouse import DataWarehouse, create_sequence_table

VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")


@pytest.fixture
def calls(monkeypatch):
    """Counts of the row-at-a-time entry points, by name."""
    counts = {}
    targets = [(Table, "insert"), (SortedIndex, "add"), (HashIndex, "add"),
               (SortedIndex, "key_of"), (HashIndex, "key_of")]
    for owner, name in targets:
        original = getattr(owner, name)

        def counted(self, *args, _original=original, _name=f"{owner.__name__}.{name}"):
            counts[_name] = counts.get(_name, 0) + 1
            return _original(self, *args)

        monkeypatch.setattr(owner, name, counted)
    return counts


def test_create_view_and_load_make_no_row_at_a_time_call(calls, tmp_path):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 10_000, seed=3)
    wh.create_table("tx", [("cust", "INTEGER"), ("day", "INTEGER"), ("amt", "FLOAT")],
                    primary_key=["cust", "day"])
    wh.insert("tx", [(c, d, float(c * d)) for c in range(1, 21) for d in range(1, 51)])
    calls.clear()
    wh.create_view("mv", VIEW)
    wh.create_view("mv_tx", "SELECT cust, day, SUM(amt) OVER (PARTITION BY cust "
                   "ORDER BY day ROWS BETWEEN 1 PRECEDING AND 3 FOLLOWING) AS s FROM tx")
    assert calls == {}
    wh.save(str(tmp_path / "dump"))
    loaded = DataWarehouse.load(str(tmp_path / "dump"))
    assert calls == {}
    assert len(loaded.db.table("__mv_mv")) == 10_000 + 3
    assert all(report.ok for report in loaded.verify().values())


def _one_at_a_time(table):
    fresh = Table(table.name, table.schema)
    for row in table.rows:
        fresh.insert(row)
    return fresh


@pytest.mark.parametrize("sql", [
    VIEW,
    VIEW.replace("SUM", "MAX") + " WHERE val > 40",
    "SELECT region, day, SUM(amt) OVER (PARTITION BY region ORDER BY day "
    "ROWS BETWEEN 2 PRECEDING AND 2 FOLLOWING) AS s FROM sales",
    "SELECT region, day, tier, AVG(amt) OVER (PARTITION BY region ORDER BY day, tier "
    "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING) AS s FROM sales",
    "SELECT tier, region, day, COUNT(amt) OVER (PARTITION BY tier, region ORDER BY day "
    "ROWS UNBOUNDED PRECEDING) AS s FROM sales",
], ids=["plain", "where", "text-partition", "date-and-int-order", "two-partitions"])
def test_refreshed_storage_equals_the_rows_inserted_one_at_a_time(sql):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 1_200, seed=9)
    wh.create_table("sales", [("region", "TEXT"), ("tier", "INTEGER"),
                              ("day", "DATE"), ("amt", "FLOAT")])
    start = datetime.date(2024, 1, 1)
    wh.insert("sales", [  # one row per region and day
        (region, d // 3 % 2 + 1, start + datetime.timedelta(days=d), d * 1.25)
        for region in ("east", "west", "north") for d in range(0, 1500, 3)
    ])
    view = wh.create_view("v", sql)
    for _ in range(2):  # the view's first build, then a refresh
        storage = wh.db.table(view.definition.storage_table)
        assert storage.digest() == _one_at_a_time(storage).digest()
        assert storage.rows == _one_at_a_time(storage).rows
        view.refresh()


def test_an_empty_bulk_insert_leaves_a_paged_table_on_its_pages(tmp_path):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 1_234, seed=1)
    wh.save(str(tmp_path), page_size=512)
    with DataWarehouse.load(str(tmp_path), memory_budget_bytes=4096) as paged:
        table = paged.db.table("seq")
        pages, digest = table.pages_total, table.digest()
        assert paged.insert("seq", []) == 0
        assert table.pages_total == pages and table.digest() == digest
        assert paged.insert("seq", [(5_000, 1.5)]) == 1
        assert table.pages_total < pages and len(table) == 1_235
