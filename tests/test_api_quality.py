"""Meta-tests on API quality: docstrings, exports, error hierarchy."""

import importlib
import inspect
import pkgutil

import pytest

import repro


def _walk_modules():
    out = []
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        if info.name == "repro.__main__":  # running it calls sys.exit()
            continue
        out.append(importlib.import_module(info.name))
    return out


MODULES = _walk_modules()


class TestDocstrings:
    def test_every_module_documented(self):
        undocumented = [m.__name__ for m in MODULES if not (m.__doc__ or "").strip()]
        assert undocumented == []

    def test_every_public_class_documented(self):
        missing = []
        for module in MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isclass(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []

    def test_every_public_function_documented(self):
        missing = []
        for module in MODULES:
            for name, obj in vars(module).items():
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{module.__name__}.{name}")
        assert missing == []


class TestExports:
    def test_all_lists_resolve(self):
        for module in MODULES + [repro]:
            exported = getattr(module, "__all__", None)
            if exported is None:
                continue
            for name in exported:
                assert hasattr(module, name), f"{module.__name__}.__all__ lists missing {name}"

    def test_top_level_api_sufficient_for_quickstart(self):
        # The README quickstart must work from the top-level namespace alone.
        for name in ("DataWarehouse", "Database", "WindowSpec", "sliding",
                     "cumulative", "derive", "CompleteSequence"):
            assert hasattr(repro, name)

    def test_version(self):
        assert repro.__version__.count(".") == 2


class TestOneOperatorPlane:
    """Operators have one execution protocol: subclasses implement
    ``execute``; callers pull through the base class's ``run``."""

    @staticmethod
    def _operator_classes():
        from repro.relational.operators import Operator

        found = [
            obj
            for module in MODULES
            for obj in vars(module).values()
            if inspect.isclass(obj)
            and issubclass(obj, Operator)
            and obj is not Operator
            and obj.__module__ == module.__name__
        ]
        assert len(found) >= 13
        return Operator, found

    def test_base_class_has_one_overridable_execution_method(self):
        base, _subclasses = self._operator_classes()
        takes_stats = {
            name
            for name, fn in vars(base).items()
            if inspect.isfunction(fn) and "stats" in inspect.signature(fn).parameters
        }
        # execute is the hook; run (and its measuring half) is the caller's
        # entry point, which no subclass may replace.
        assert takes_stats == {"execute", "run", "_measured"}

    def test_subclasses_define_execute_and_no_second_protocol(self):
        _base, subclasses = self._operator_classes()
        for cls in subclasses:
            assert "execute" in vars(cls), cls.__name__
            rivals = [
                name
                for name in vars(cls)
                if name in ("run", "_measured")
                or (name.startswith(("execute", "run_")) and name != "execute")
            ]
            assert rivals == [], (cls.__name__, rivals)

    def test_columns_package_exports_no_batch_type(self):
        import repro.columns

        assert not [n for n in repro.columns.__all__ if "batch" in n.lower()]
        assert not hasattr(repro.columns, "Batch")


class TestOnePlanner:
    """There is one planner and one set of query options (PR 17): a
    ``planner=``/``kernel=`` knob or a second copy of the rewrite decision
    coming back should fail here, not in review."""

    def test_no_callable_takes_a_planner_parameter(self):
        offenders = []
        for module in MODULES:
            if not module.__name__.startswith(
                ("repro.sql", "repro.warehouse", "repro.serve",
                 "repro.relational.engine")
            ):
                continue
            for owner in [module] + [
                c for c in vars(module).values()
                if inspect.isclass(c) and c.__module__ == module.__name__
            ]:
                for name, fn in vars(owner).items():
                    fn = getattr(fn, "__func__", fn)  # class/static methods
                    if inspect.isfunction(fn) and (
                        "planner" in inspect.signature(fn).parameters
                    ):
                        offenders.append(f"{module.__name__}.{name}")
        assert offenders == []

    def test_no_planner_mode_or_kernel_knob(self):
        import repro.sql.planner
        import repro.sql.rewriter
        from repro.core import compute

        assert not hasattr(repro.sql.planner, "PLANNER_MODES")
        assert not hasattr(repro.sql.rewriter, "describe_rewrite")
        assert not hasattr(compute, "compute")

    def test_query_keywords_are_the_option_fields(self):
        import dataclasses

        from repro import DataWarehouse
        from repro.errors import PlanError
        from repro.sql.options import QueryOptions

        kinds = [p.kind for p in inspect.signature(DataWarehouse.query).parameters.values()]
        assert kinds[2:] == [inspect.Parameter.VAR_KEYWORD]
        defaults = dataclasses.asdict(QueryOptions())
        assert list(defaults) == [
            "use_views", "require_rewrite", "algorithm", "variant", "mode",
            "window_strategy", "use_index",
        ]
        wh = DataWarehouse()
        wh.create_table("t", [("pos", "INTEGER")])
        assert wh.query("SELECT pos FROM t", **defaults).rows == []
        with pytest.raises(PlanError):
            wh.query("SELECT pos FROM t", planner="cost")


class TestOneWindowKernel:
    """One kernel computes every frame and aggregate (PR 19): a kernel
    switch, a sibling-derivation tier or runtime feedback steering either
    coming back should fail here."""

    def test_no_kernel_choice_or_feedback_surface(self):
        import repro.sql.window_exec as window_exec
        import repro.stats
        from repro.sql.window_exec import WindowOperator
        from repro import DataWarehouse
        from repro.stats import CostModel

        parameters = inspect.signature(WindowOperator.__init__).parameters
        assert "kernel" not in parameters
        assert "share_derivation" not in parameters
        assert not hasattr(repro.stats, "AdaptiveCostTable")
        assert not hasattr(CostModel, "choose_window_kernel")
        wh = DataWarehouse()
        wh.create_table("t", [("pos", "INTEGER"), ("val", "FLOAT")])
        wh.insert("t", [(1, 1.0), (2, 2.0)])
        result = wh.query(
            "SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 1 PRECEDING "
            "AND 1 FOLLOWING) AS s FROM t")
        assert not hasattr(result, "window_feedback")
        # benchmarks/e2e/tracing.py patches this binding to time the kernel.
        assert hasattr(window_exec, "compute_vectorized")
        assert not hasattr(window_exec, "compute_pipelined")


class TestViewAnswersAreColumnar:
    """A view answer is whole-sequence work (PR 18): per-position calls into
    the sequence or per-row labelling coming back should fail here."""

    def test_default_view_answer_makes_no_per_position_value_calls(self, monkeypatch):
        from repro import DataWarehouse
        from repro.core.complete import CompleteSequence
        from repro.warehouse import create_sequence_table

        n, partitions = 10_000, 1
        wh = DataWarehouse()
        create_sequence_table(wh.db, "seq", n, seed=5)
        frame = "ROWS BETWEEN {} PRECEDING AND {} FOLLOWING"
        for func in ("SUM", "COUNT", "MAX"):
            wh.create_view(
                f"mv_{func.lower()}",
                f"SELECT pos, {func}(val) OVER (ORDER BY pos {frame.format(4, 2)}) "
                "w FROM seq")
        wh.db.stats.clear()

        calls = []
        for name in ("value", "value_or_none"):
            real = getattr(CompleteSequence, name)

            def counted(self, k, _real=real):
                calls.append(k)
                return _real(self, k)

            monkeypatch.setattr(CompleteSequence, name, counted)

        answered = {}
        for func, l, h in (("SUM", 3, 2), ("SUM", 6, 3), ("COUNT", 1, 1),
                           ("MAX", 6, 3), ("AVG", 6, 3), ("SUM", 0, 0)):
            result = wh.query(
                f"SELECT pos, {func}(val) OVER (ORDER BY pos {frame.format(l, h)}) "
                "w FROM seq")
            assert result.rewrite is not None and len(result.rows) == n
            answered[(func, l, h)] = result.rewrite.algorithm
        cumulative = wh.query("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS "
                              "UNBOUNDED PRECEDING) w FROM seq")
        assert cumulative.rewrite.algorithm == "prefix"
        assert answered == {
            ("SUM", 3, 2): "minoa", ("SUM", 6, 3): "minoa",
            ("COUNT", 1, 1): "minoa", ("MAX", 6, 3): "maxoa",
            ("AVG", 6, 3): "minoa+minoa", ("SUM", 0, 0): "reconstruct",
        }
        # O(partitions), not O(n): seven answers over one partition.
        assert len(calls) <= 8 * partitions

    def test_rewriter_has_no_row_labelling(self):
        import repro.sql.rewriter as rewriter

        for name in ("_label_values", "_rows_from_reporting", "LabelledRows"):
            assert not hasattr(rewriter, name), name


class TestColumnsToTheWire:
    """A served answer stays columns from the scan to the client (PR 20):
    a row list built on the way, a second result encoding or a knob that
    selects one coming back should fail here."""

    FRAME = "ROWS BETWEEN 3 PRECEDING AND 2 FOLLOWING"

    def _served(self, sql, *, view=None):
        from repro.serve import ConcurrentWarehouse, protocol

        cw = ConcurrentWarehouse()
        cw.create_table("seq", [("pos", "INTEGER"), ("val", "FLOAT")],
                        primary_key=["pos"])
        cw.insert("seq", [(i, i * 0.5) for i in range(1, 201)])
        if view is not None:
            cw.create_view("mv", view)
        result = cw.query(sql)
        return result, protocol.result_payload(result)

    def test_served_read_path_builds_no_row_list(self):
        native = ("SELECT pos, SUM(val) OVER (ORDER BY pos " + self.FRAME
                  + ") AS w FROM seq")
        ranged = native + " WHERE pos BETWEEN 20 AND 119"
        view = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 4 "
                "PRECEDING AND 2 FOLLOWING) AS w FROM seq")
        derived = ("SELECT pos, SUM(val) OVER (ORDER BY pos ROWS BETWEEN 5 "
                   "PRECEDING AND 3 FOLLOWING) AS w FROM seq")
        for sql, view_sql, rows in ((native, None, 200), (ranged, None, 100),
                                    (derived, view, 200), (view, view, 200)):
            result, payload = self._served(sql, view=view_sql)
            assert (result.rewrite is not None) == (view_sql is not None)
            # The cache slot, not a timing: nothing asked for tuples.
            assert result._rows is None, sql
            assert len(result) == payload["nrows"] == rows
            assert "rows" not in payload
            assert [entry["kind"] for entry in payload["data"]] == ["int64", "float64"]

    def test_one_result_encoding_and_nothing_to_select_it(self):
        import repro.serve
        from repro.serve.client import ServeClient

        parameters = inspect.signature(ServeClient.query).parameters
        assert [(p.name, p.kind) for p in parameters.values()] == [
            ("self", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("sql", inspect.Parameter.POSITIONAL_OR_KEYWORD),
            ("hold_ms", inspect.Parameter.KEYWORD_ONLY),
            ("options", inspect.Parameter.VAR_KEYWORD),
        ]
        offenders = []
        for module in MODULES:
            if not module.__name__.startswith("repro.serve"):
                continue
            for owner in [module] + [
                c for c in vars(module).values()
                if inspect.isclass(c) and c.__module__ == module.__name__
            ]:
                for name, fn in vars(owner).items():
                    fn = getattr(fn, "__func__", fn)
                    if inspect.isfunction(fn) and (
                        {"encoding", "format", "columnar"}
                        & set(inspect.signature(fn).parameters)
                    ):
                        offenders.append(f"{module.__name__}.{name}")
        assert offenders == []
        # The column codec exists once, beside Column.
        import repro.columns.codec as codec
        from repro.serve import protocol
        from repro.storage import page

        assert protocol.encode_column is codec.encode_column
        assert page.encode_value is codec.encode_value


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        from repro import errors

        for name, obj in vars(errors).items():
            if inspect.isclass(obj) and issubclass(obj, Exception):
                assert issubclass(obj, errors.ReproError) or obj is errors.ReproError, name

    def test_catching_base_class_works_end_to_end(self):
        from repro import DataWarehouse, ReproError

        wh = DataWarehouse()
        with pytest.raises(ReproError):
            wh.db.sql("SELECT broken FROM nowhere")
        with pytest.raises(ReproError):
            wh.view("ghost")
