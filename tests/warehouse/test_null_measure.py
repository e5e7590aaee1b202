"""A NULL measure under a view is refused before anything is mutated.

A reporting sequence has no NULL position, so a view cannot aggregate
one: ``create_view`` over such a column, and a write that would put a
NULL under a view, fail naming the view and column, and leave the
warehouse exactly as it was — ``verify()`` stays clean.
"""

import pytest

from repro.errors import MaintenanceError, ViewDefinitionError
from repro.warehouse import DataWarehouse

VIEW = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 2 PRECEDING "
        "AND 1 FOLLOWING) AS s FROM seq")


@pytest.fixture
def wh():
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    wh.insert("seq", [(i, float(i)) for i in range(1, 4)])
    wh.create_view("mv", VIEW)
    return wh


def assert_untouched(wh):
    assert wh.db.table("seq").rows == [(1, 1.0), (2, 2.0), (3, 3.0)]
    assert all(report.ok for report in wh.verify().values())
    assert wh.query(VIEW + " ORDER BY pos").rewrite is not None


def test_insert_of_a_null_measure_is_refused_before_the_base_changes(wh):
    with pytest.raises(MaintenanceError, match=r"'mv'.*seq\.val"):
        wh.insert_row("seq", [4, None])
    assert_untouched(wh)


def test_update_to_a_null_measure_is_refused_before_the_base_changes(wh):
    with pytest.raises(MaintenanceError, match=r"'mv'.*seq\.val"):
        wh.update_measure("seq", keys={"pos": 2}, value_col="val", new_value=None)
    assert_untouched(wh)


def test_a_view_over_a_null_measure_is_refused_and_leaves_nothing_behind():
    wh = DataWarehouse()
    wh.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")], primary_key=["pos"])
    wh.insert("seq", [(1, 1.0), (2, None), (3, 3.0)])
    tables = sorted(t.name for t in wh.db.catalog.tables())
    with pytest.raises(ViewDefinitionError, match=r"'mv'.*seq\.val"):
        wh.create_view("mv", VIEW)
    assert wh.views == {}
    assert sorted(t.name for t in wh.db.catalog.tables()) == tables
    assert wh.verify() == {}
    # The same SQL as a plain query still answers (a NULL counts as 0).
    assert wh.query(VIEW + " ORDER BY pos").rows == [(1, 1.0), (2, 4.0), (3, 4.0)]
