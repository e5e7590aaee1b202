"""Consistency verification with fault injection."""

import math

import pytest

from repro.views.verify import verify_view, verify_warehouse
from repro.warehouse import DataWarehouse, create_sequence_table


@pytest.fixture
def wh():
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", 25, seed=77)
    wh.create_view("mv", "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                   "BETWEEN 2 PRECEDING AND 1 FOLLOWING) s FROM seq")
    return wh


class TestHealthy:
    def test_fresh_view_is_consistent(self, wh):
        report = verify_view(wh.view("mv"))
        assert report.ok
        assert report.checked_values > 0
        assert "OK" in report.summary()

    def test_after_incremental_maintenance(self, wh):
        wh.update_measure("seq", keys={"pos": 10}, value_col="val", new_value=5.0)
        wh.insert_row("seq", (26, 1.0))
        wh.delete_row("seq", keys={"pos": 3})
        assert verify_view(wh.view("mv")).ok

    def test_warehouse_wide(self, wh):
        wh.create_view("mv2", "SELECT pos, SUM(val) OVER (ORDER BY pos "
                       "ROWS UNBOUNDED PRECEDING) s FROM seq")
        reports = verify_warehouse(wh)
        assert set(reports) == {"mv", "mv2"}
        assert all(r.ok for r in reports.values())


class TestFaultInjection:
    def test_one_ulp_storage_change_detected(self, wh):
        table = wh.db.table("__mv_mv")
        slot = 10 - wh.view("mv").sequence().stored_range[0]  # position 10
        value = table.row(slot)[table.schema.resolve("__val")]
        table.set_column("__val", [slot], [math.nextafter(value, math.inf)])
        report = wh.verify()["mv"]
        assert [(d.representation, d.position) for d in report.discrepancies] == [
            ("storage", 10)
        ]

    def test_drifted_raw_value_detected(self, wh):
        """A raw value the mirror keeps for maintenance that drifted from
        base data is reported before it corrupts the next maintained band."""
        part = wh.view("mv").single_partition()
        part.raw[11] = math.nextafter(part.raw[11], math.inf)
        report = wh.verify()["mv"]
        assert [(d.representation, d.position) for d in report.discrepancies] == [
            ("mirror", 12)
        ]
        assert "raw value" in report.discrepancies[0].detail
        assert wh.quarantined_views() == ["mv"]

    def test_corrupted_storage_value_detected(self, wh):
        table = wh.db.table("__mv_mv")
        slot = 5
        row = list(table.row(slot))
        row[table.schema.resolve("__val")] = 123456.0
        table.update_slot(slot, row)
        report = verify_view(wh.view("mv"))
        assert not report.ok
        assert any(d.representation == "storage" and "!=" in d.detail
                   for d in report.discrepancies)

    def test_missing_storage_row_detected(self, wh):
        table = wh.db.table("__mv_mv")
        table.delete_slots([7])
        report = verify_view(wh.view("mv"))
        assert any(d.detail == "storage row missing" for d in report.discrepancies)

    def test_corrupted_mirror_detected(self, wh):
        view = wh.view("mv")
        seq = view.sequence()
        values = seq.to_list()
        values[4] += 99.0
        seq._replace_values(seq.n, values)
        report = verify_view(view)
        assert any(d.representation == "mirror" for d in report.discrepancies)

    def test_stale_view_after_external_base_change_detected(self, wh):
        # Direct engine-level insert bypasses the maintenance hooks.
        wh.db.insert("seq", [(99, 1.0)])
        report = verify_view(wh.view("mv"))
        assert not report.ok

    def test_refresh_repairs(self, wh):
        wh.db.insert("seq", [(99, 1.0)])
        assert not verify_view(wh.view("mv")).ok
        wh.refresh_view("mv")
        assert verify_view(wh.view("mv")).ok

    def test_report_capped(self, wh):
        table = wh.db.table("__mv_mv")
        val_slot = table.schema.resolve("__val")
        for slot in range(len(table)):
            row = list(table.row(slot))
            row[val_slot] = -1e9
            table.update_slot(slot, row)
        report = verify_view(wh.view("mv"), max_report=5)
        assert len(report.discrepancies) == 5

    def test_one_sided_nan_is_a_discrepancy(self, wh):
        table = wh.db.table("__mv_mv")
        row = list(table.row(4))
        row[table.schema.resolve("__val")] = float("nan")
        table.update_slot(4, row)
        report = verify_view(wh.view("mv"))
        assert any(d.representation == "storage" and "nan" in d.detail
                   for d in report.discrepancies)

    def test_nan_on_both_sides_is_agreement(self):
        from repro.views.verify import _differs

        nan = float("nan")
        assert not _differs(nan, nan)
        assert _differs(nan, 1.0)
        assert _differs(1.0, nan)
        assert not _differs(1.0, 1.0)

    def test_missing_mirror_partition_is_structural(self):
        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.insert("s", [(g, i, float(i)) for g in "ab" for i in range(1, 6)])
        wh.create_view("mv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) w FROM s")
        view = wh.view("mv")
        del view.reporting.partitions[("a",)]
        report = verify_view(view)
        assert any(
            d.partition == ("a",) and d.position is None
            and "missing from the mirror" in d.detail
            for d in report.discrepancies
        )

    def test_unexpected_mirror_partition_is_structural(self):
        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.insert("s", [(g, i, float(i)) for g in "ab" for i in range(1, 6)])
        wh.create_view("mv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) w FROM s")
        view = wh.view("mv")
        view.reporting.partitions[("ghost",)] = view.reporting.partitions[("a",)]
        report = verify_view(view)
        assert any(
            d.partition == ("ghost",) and "unexpected mirror partition" in d.detail
            for d in report.discrepancies
        )

    def test_partitioned_fault_localised(self):
        wh = DataWarehouse()
        wh.create_table("s", [("g", "TEXT"), ("pos", "INTEGER"), ("v", "FLOAT")])
        wh.insert("s", [(g, i, float(i)) for g in "ab" for i in range(1, 6)])
        wh.create_view("mv", "SELECT g, pos, SUM(v) OVER (PARTITION BY g "
                       "ORDER BY pos ROWS BETWEEN 1 PRECEDING AND 1 "
                       "FOLLOWING) w FROM s")
        table = wh.db.table("__mv_mv")
        # Corrupt one row of partition 'b' (position 2 of its run).
        view = wh.view("mv")
        slot = view.run_offset(("b",)) + 2 - view.sequence(("b",)).stored_range[0]
        assert table.row(slot)[0] == "b"
        table.update_slot(slot, ("b", 0.123))
        report = verify_view(wh.view("mv"))
        assert not report.ok
        assert all(d.partition == ("b",) for d in report.discrepancies)
