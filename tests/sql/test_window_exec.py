"""The native window operator (Table 1's 'reporting functionality')."""

import pytest

from repro.core.aggregates import MAX
from repro.core.window import cumulative, sliding
from repro.errors import PlanError
from repro.relational import Database, FLOAT, INTEGER, TEXT, col
from repro.sql.ast_nodes import OrderItem
from repro.sql.window_exec import WindowColumnSpec, WindowOperator
from tests.conftest import assert_close, brute_window


@pytest.fixture
def db(raw40):
    db = Database()
    db.create_table("t", [("pos", INTEGER), ("val", FLOAT), ("grp", TEXT)])
    db.insert("t", [
        (i, v, "a" if i % 2 else "b") for i, v in enumerate(raw40, start=1)
    ])
    return db


def spec(func="SUM", window=sliding(1, 1), partition=(), name="w"):
    return WindowColumnSpec(
        func=func,
        arg=col("val"),
        partition_by=tuple(partition),
        order_by=(OrderItem(col("pos")),),
        window=window,
        name=name,
    )


class TestWindowOperator:
    def test_appends_column(self, db, raw40):
        op = WindowOperator(db.scan("t"), [spec()])
        res = db.run(op)
        assert res.schema.names()[-1] == "w"
        by_pos = sorted(res.rows)
        assert_close([r[-1] for r in by_pos], brute_window(raw40, sliding(1, 1)))

    def test_one_output_per_input(self, db):
        # Reporting functions do not shrink the data volume.
        res = db.run(WindowOperator(db.scan("t"), [spec()]))
        assert len(res) == 40

    def test_partitioned(self, db, raw40):
        res = db.run(WindowOperator(db.scan("t"), [spec(partition=(col("grp"),))]))
        odd = [v for i, v in enumerate(raw40, 1) if i % 2]
        expected = brute_window(odd, sliding(1, 1))
        got = [r[-1] for r in sorted(res.rows) if r[2] == "a"]
        assert_close(got, expected)

    def test_multiple_window_columns_independent(self, db, raw40):
        op = WindowOperator(db.scan("t"), [
            spec(window=sliding(1, 1), name="w1"),
            spec(window=cumulative(), name="w2"),
        ])
        res = db.run(op)
        rows = sorted(res.rows)
        assert_close([r[-2] for r in rows], brute_window(raw40, sliding(1, 1)))
        assert_close([r[-1] for r in rows], brute_window(raw40, cumulative()))

    def test_descending_order(self, db, raw40):
        s = WindowColumnSpec(
            func="SUM", arg=col("val"), partition_by=(),
            order_by=(OrderItem(col("pos"), ascending=False),),
            window=cumulative(), name="w")
        res = db.run(WindowOperator(db.scan("t"), [s]))
        rows = sorted(res.rows)
        # Cumulative over descending order = suffix sums in ascending order.
        expected = [sum(raw40[k - 1:]) for k in range(1, 41)]
        assert_close([r[-1] for r in rows], expected)

    def test_count_star(self, db):
        s = WindowColumnSpec(
            func="COUNT", arg=None, partition_by=(),
            order_by=(OrderItem(col("pos")),), window=cumulative(), name="c")
        res = db.run(WindowOperator(db.scan("t"), [s]))
        assert sorted(r[-1] for r in res.rows) == list(map(float, range(1, 41)))

    def test_null_measure_counts_as_zero(self, db):
        db.insert("t", [(41, None, "a")])
        res = db.run(WindowOperator(db.scan("t"), [spec(window=cumulative())]))
        rows = sorted(res.rows)
        assert rows[-1][-1] == pytest.approx(rows[-2][-1])

    def test_needs_specs(self, db):
        with pytest.raises(PlanError):
            WindowOperator(db.scan("t"), [])

    def test_needs_order_by(self, db):
        with pytest.raises(PlanError):
            WindowColumnSpec(
                func="SUM", arg=col("val"), partition_by=(), order_by=(),
                window=sliding(1, 1), name="w")

    def test_label_mentions_frame(self, db):
        op = WindowOperator(db.scan("t"), [spec()])
        assert "ROWS BETWEEN 1 PRECEDING AND 1 FOLLOWING" in op.label()


class TestFactorWindowSharing:
    """What is left of multi-OVER sharing now that no clause is derived
    from a sibling: every frame is computed directly by the one kernel,
    textually identical clauses once."""

    def test_lone_clause_is_never_wrapped_as_a_source(self, db, raw40):
        wide = spec("MAX", sliding(15, 15))
        op = WindowOperator(db.scan("t"), [wide])
        rows = sorted(db.run(op).rows)
        assert [r[-1] for r in rows] == brute_window(raw40, sliding(15, 15), MAX)
        assert "derived" not in op.analyze_extra

    def test_single_wide_max_under_cost_planner(self):
        db = Database()
        db.create_table("seq", [("pos", INTEGER), ("val", FLOAT)],
                        primary_key=["pos"])
        db.insert("seq", [(i, float((i * 37) % 101)) for i in range(1, 2001)])
        sql = ("SELECT pos, MAX(val) OVER (ORDER BY pos ROWS BETWEEN 300 "
               "PRECEDING AND 300 FOLLOWING) AS m FROM seq ORDER BY pos")
        planned = db.sql(sql).rows
        vals = [float((i * 37) % 101) for i in range(1, 2001)]
        assert [r[1] for r in planned] == brute_window(vals, sliding(300, 300), MAX)

    def test_siblings_share_one_sort_and_are_computed_directly(self, db, raw40):
        narrow = spec("MAX", sliding(2, 1), name="a")
        wide = spec("MAX", sliding(4, 2), name="b")
        op = WindowOperator(db.scan("t"), [narrow, wide])
        rows = sorted(db.run(op).rows)
        assert [r[-2] for r in rows] == brute_window(raw40, sliding(2, 1), MAX)
        assert [r[-1] for r in rows] == brute_window(raw40, sliding(4, 2), MAX)
        assert op.analyze_extra["shared_sorts"] == 1
        assert "derived" not in op.analyze_extra

    def test_identical_sibling_is_deduped_not_a_reason_to_wrap(self, db):
        twice = [spec("MIN", sliding(3, 3), name="a"),
                 spec("MIN", sliding(3, 3), name="b")]
        op = WindowOperator(db.scan("t"), twice)
        rows = db.run(op).rows
        assert all(r[-1] == r[-2] for r in rows)
        assert op.analyze_extra["deduped"] == 1
