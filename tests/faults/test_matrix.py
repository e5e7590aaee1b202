"""The fault matrix: every injected fault kind still yields the unfaulted
run's answers — via atomic-swap rollback or quarantine + base-data routing
— and the warehouse verifies clean after ``repair()``."""

import pytest

from repro.errors import InjectedFault
from repro.faults import FaultPlan, FaultSpec, injector
from repro.warehouse import DataWarehouse, create_sequence_table

pytestmark = pytest.mark.faults

N = 40
SEED = 11
VIEW_SQL = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 "
            "PRECEDING AND 2 FOLLOWING) s FROM seq")
QUERY = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 3 PRECEDING "
         "AND 2 FOLLOWING) s FROM seq ORDER BY pos")


def build_wh(*, view=True):
    wh = DataWarehouse()
    create_sequence_table(wh.db, "seq", N, seed=SEED)
    if view:
        wh.create_view("mv", VIEW_SQL)
    return wh


class TestQuarantineFaultMatrix:
    """Faults that corrupt or stall a view degrade to base-data routing:
    answers are bit-identical to a pristine warehouse's base-data run, and
    repair() brings the warehouse back to verifying clean."""

    @pytest.fixture
    def reference(self):
        return build_wh(view=False).query(QUERY).rows

    def _assert_repaired_clean(self, wh):
        reports = wh.repair()
        assert all(r.ok for r in reports.values())
        assert wh.quarantined_views() == []
        assert all(r.ok for r in wh.verify().values())
        assert wh.query(QUERY).rewrite is not None

    def test_bitflip(self, reference):
        wh = build_wh()
        plan = FaultPlan([FaultSpec("bitflip", target="mv")], seed=3)
        with injector.active(plan):
            reports = wh.verify()
        assert not reports["mv"].ok
        assert plan.fired_count("bitflip") == 1
        assert wh.quarantined_views() == ["mv"]
        res = wh.query(QUERY)
        assert res.rewrite is None and res.rows == reference
        self._assert_repaired_clean(wh)

    def test_maintenance_fail(self, reference):
        wh = build_wh()
        ref_wh = build_wh(view=False)
        with injector.active(FaultPlan([FaultSpec("maintenance_fail", target="mv")])):
            results = wh.update_measure(
                "seq", keys={"pos": 10}, value_col="val", new_value=4.5)
        assert any(isinstance(r, InjectedFault) for r in results)
        assert wh.quarantined_views() == ["mv"]
        # ...so the faulted warehouse's base-routed answers match a clean
        # warehouse that applied the identical update.
        ref_wh.update_measure("seq", keys={"pos": 10}, value_col="val",
                              new_value=4.5)
        res = wh.query(QUERY)
        assert res.rewrite is None
        assert res.rows == ref_wh.query(QUERY).rows
        self._assert_repaired_clean(wh)

    def test_refresh_interrupt(self, reference):
        wh = build_wh()
        plan = FaultPlan([FaultSpec("refresh_interrupt", point="commit")])
        with injector.active(plan):
            with pytest.raises(InjectedFault):
                wh.refresh_view("mv")
        assert wh.quarantined_views() == ["mv"]
        res = wh.query(QUERY)
        assert res.rewrite is None and res.rows == reference
        self._assert_repaired_clean(wh)

    def test_storage_write_fail(self, tmp_path, reference):
        wh = build_wh()
        wh.save(str(tmp_path))
        with injector.active(FaultPlan([FaultSpec("storage_write_fail", target="seq")])):
            with pytest.raises(InjectedFault):
                wh.save(str(tmp_path))
        # The failed save left the previous dump whole: a reload answers
        # bit-identically to the unfaulted base-data run.
        loaded = DataWarehouse.load(str(tmp_path))
        assert loaded.query(QUERY, use_views=False).rows == reference
        assert all(r.ok for r in loaded.verify().values())


class TestFaultPlanAudit:
    def test_every_fired_fault_is_recorded(self):
        wh = build_wh()
        plan = FaultPlan([
            FaultSpec("bitflip", target="mv"),
            FaultSpec("maintenance_fail", target="mv"),
        ])
        with injector.active(plan):
            wh.verify()
            # mv is already quarantined; a fresh view exercises maintenance.
        assert {e.site for e in plan.events} == {"verify"}
        assert plan.fired_count("bitflip") == 1
