"""FaultPlan/FaultSpec semantics and the injector's global plumbing."""

import math

import pytest

from repro.errors import FaultError, InjectedFault
from repro.faults import FaultPlan, FaultSpec, injector

pytestmark = pytest.mark.faults


class TestSpecValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(FaultError, match="unknown fault kind"):
            FaultSpec("meteor_strike")

    def test_negative_at_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec("bitflip", at=-1)

    def test_zero_times_rejected(self):
        with pytest.raises(FaultError):
            FaultSpec("bitflip", times=0)

    def test_unknown_refresh_point_rejected(self):
        with pytest.raises(FaultError, match="refresh point"):
            FaultSpec("refresh_interrupt", point="teardown")

    def test_site_mapping(self):
        assert FaultSpec("storage_write_fail").site == "storage_write"
        assert FaultSpec("bitflip").site == "verify"
        assert FaultSpec("maintenance_fail").site == "maintenance"
        assert FaultSpec("refresh_interrupt", point="begin").site == "refresh_begin"
        assert FaultSpec("refresh_interrupt", point="commit").site == "refresh_commit"
        assert FaultSpec("refresh_interrupt").site == "refresh_write"


class TestFiring:
    def test_fires_at_exact_event_index(self):
        plan = FaultPlan([FaultSpec("maintenance_fail", at=2)])
        assert plan.fire("maintenance", "v") == []
        assert plan.fire("maintenance", "v") == []
        assert len(plan.fire("maintenance", "v")) == 1
        assert plan.fire("maintenance", "v") == []  # exhausted
        assert plan.fired_count() == 1

    def test_times_spans_consecutive_events(self):
        plan = FaultPlan([FaultSpec("maintenance_fail", at=1, times=2)])
        hits = [bool(plan.fire("maintenance", "v")) for _ in range(5)]
        assert hits == [False, True, True, False, False]

    def test_target_filter(self):
        plan = FaultPlan([FaultSpec("maintenance_fail", target="mv")])
        assert plan.fire("maintenance", "other") == []
        assert len(plan.fire("maintenance", "mv")) == 1

    def test_empty_target_matches_everything(self):
        plan = FaultPlan([FaultSpec("maintenance_fail")])
        assert len(plan.fire("maintenance", "whatever")) == 1

    def test_wrong_site_does_not_advance(self):
        plan = FaultPlan([FaultSpec("maintenance_fail", at=0)])
        plan.fire("verify", "v")
        assert len(plan.fire("maintenance", "v")) == 1

    def test_exhausted_and_arms(self):
        plan = FaultPlan([FaultSpec("maintenance_fail")])
        assert plan.arms("maintenance") and not plan.exhausted()
        plan.fire("maintenance", "v")
        assert plan.exhausted() and not plan.arms("maintenance")

    def test_seeded_rng_is_deterministic(self):
        a = FaultPlan([], seed=9).rng.random()
        b = FaultPlan([], seed=9).rng.random()
        assert a == b

    def test_describe_mentions_specs(self):
        plan = FaultPlan([FaultSpec("bitflip", target="mv", at=3)], seed=7)
        text = plan.describe()
        assert "bitflip" in text and "mv" in text and "seed=7" in text


class TestInjector:
    def test_check_is_noop_without_plan(self):
        injector.check("maintenance", "v")  # must not raise

    def test_check_raises_on_firing_spec(self):
        with injector.active(FaultPlan([FaultSpec("maintenance_fail")])) as plan:
            with pytest.raises(InjectedFault, match="maintenance_fail"):
                injector.check("maintenance", "v")
            assert plan.events and plan.events[0].site == "maintenance"

    def test_double_install_rejected(self):
        with injector.active(FaultPlan([])):
            with pytest.raises(FaultError, match="already installed"):
                injector.install(FaultPlan([]))
        assert injector.active_plan() is None

    def test_active_clears_on_exception(self):
        with pytest.raises(RuntimeError):
            with injector.active(FaultPlan([])):
                raise RuntimeError("boom")
        assert injector.active_plan() is None

    def test_bit_flip_changes_value_detectably(self):
        flipped = injector._flip_bit(100.0)
        assert flipped != 100.0 and not math.isnan(flipped)
        assert injector._flip_bit(flipped) == 100.0  # involution
