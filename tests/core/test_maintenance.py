"""Incremental maintenance rules (paper section 2.3)."""

import struct

import pytest

from repro.core.aggregates import MAX, MIN, SUM
from repro.core.complete import CompleteSequence
from repro.core.maintenance import apply_delete, apply_insert, apply_update
from repro.core.window import cumulative, sliding
from repro.errors import MaintenanceError

WINDOWS = [sliding(2, 1), sliding(1, 2), sliding(0, 3), sliding(3, 0), cumulative()]


def fresh(raw40, window, aggregate=SUM):
    raw = list(raw40[:12])
    return raw, CompleteSequence.from_raw(raw, window, aggregate)


def reference(raw, window, aggregate=SUM):
    return CompleteSequence.from_raw(raw, window, aggregate)


def packed(values):
    return b"".join(struct.pack("<d", v) for v in values)


class TestUpdate:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("k", [1, 5, 12])
    def test_update_matches_recompute(self, raw40, window, k):
        raw, seq = fresh(raw40, window)
        apply_update(raw, seq, k, 123.45)
        assert raw[k - 1] == 123.45
        ref = reference(raw, window)
        assert packed(seq.to_list()) == packed(ref.to_list())

    def test_update_locality(self, raw40):
        # Only w = l + h + 1 sequence values may change.
        window = sliding(2, 1)
        raw, seq = fresh(raw40, window)
        result = apply_update(raw, seq, 6, -7.0)
        assert result.values_touched == window.width
        assert result.values_shifted == 0

    def test_update_changes_exactly_the_band(self, raw40):
        window = sliding(2, 1)
        raw, seq = fresh(raw40, window)
        before = dict(seq.items())
        apply_update(raw, seq, 6, -7.0)
        after = dict(seq.items())
        changed = {p for p in before if packed([before[p]]) != packed([after[p]])}
        # Band: k-h .. k+l = 5..8.
        assert changed <= {5, 6, 7, 8}

    def test_cumulative_update_affects_suffix(self, raw40):
        raw, seq = fresh(raw40, cumulative())
        before = seq.to_list()
        apply_update(raw, seq, 4, raw[3] + 10.0)
        after = seq.to_list()
        assert after[:3] == before[:3]
        assert all(b - a == pytest.approx(-10.0) for a, b in zip(after[3:], before[3:]))
        assert packed(after) == packed(reference(raw, cumulative()).to_list())

    def test_position_out_of_range(self, raw40):
        raw, seq = fresh(raw40, sliding(1, 1))
        with pytest.raises(MaintenanceError):
            apply_update(raw, seq, 0, 1.0)
        with pytest.raises(MaintenanceError):
            apply_update(raw, seq, 13, 1.0)


class TestInsert:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("k", [1, 6, 12, 13])
    def test_insert_matches_recompute(self, raw40, window, k):
        raw, seq = fresh(raw40, window)
        apply_insert(raw, seq, k, 55.5)
        assert raw[k - 1] == 55.5 and len(raw) == 13
        ref = reference(raw, window)
        assert seq.n == 13
        assert packed(seq.to_list()) == packed(ref.to_list())

    def test_insert_locality(self, raw40):
        window = sliding(2, 1)
        raw, seq = fresh(raw40, window)
        result = apply_insert(raw, seq, 5, 1.0)
        # The band has w = l + h + 1 values; everything right of it shifts.
        assert result.values_touched == window.width
        assert result.values_shifted > 0

    def test_append_at_end(self, raw40):
        raw, seq = fresh(raw40, sliding(1, 1))
        apply_insert(raw, seq, 13, 9.0)
        assert seq.value(13) == raw[11] + 9.0


class TestDelete:
    @pytest.mark.parametrize("window", WINDOWS, ids=str)
    @pytest.mark.parametrize("k", [1, 6, 12])
    def test_delete_matches_recompute(self, raw40, window, k):
        raw, seq = fresh(raw40, window)
        apply_delete(raw, seq, k)
        assert len(raw) == 11
        ref = reference(raw, window)
        assert seq.n == 11
        assert packed(seq.to_list()) == packed(ref.to_list())

    def test_delete_locality(self, raw40):
        window = sliding(2, 1)
        raw, seq = fresh(raw40, window)
        result = apply_delete(raw, seq, 5)
        assert result.values_touched == window.width

    def test_delete_to_empty(self):
        raw = [1.0]
        seq = CompleteSequence.from_raw(raw, sliding(1, 1))
        apply_delete(raw, seq, 1)
        assert seq.n == 0 and raw == []


class TestMinMaxMaintenance:
    """MIN/MAX writes recompute the band like every other aggregate."""

    @pytest.mark.parametrize("agg", [MIN, MAX], ids=lambda a: a.name)
    @pytest.mark.parametrize("value", [-1000.0, 0.0, 1000.0])
    def test_update(self, raw40, agg, value):
        raw, seq = fresh(raw40, sliding(2, 1), agg)
        apply_update(raw, seq, 6, value)
        ref = reference(raw, sliding(2, 1), agg)
        assert packed(seq.to_list()) == packed(ref.to_list())

    @pytest.mark.parametrize("agg", [MIN, MAX], ids=lambda a: a.name)
    def test_insert_delete(self, raw40, agg):
        raw, seq = fresh(raw40, sliding(1, 2), agg)
        apply_insert(raw, seq, 4, -500.0)
        assert packed(seq.to_list()) == packed(reference(raw, sliding(1, 2), agg).to_list())
        apply_delete(raw, seq, 4)
        assert packed(seq.to_list()) == packed(reference(raw, sliding(1, 2), agg).to_list())

    def test_weakening_update_recomputes_band_only(self, raw40):
        raw, seq = fresh(raw40, sliding(2, 1), MIN)
        lowest = min(raw)
        k = raw.index(lowest) + 1
        result = apply_update(raw, seq, k, 10000.0)
        assert result.values_touched <= sliding(2, 1).width
        assert packed(seq.to_list()) == packed(reference(raw, sliding(2, 1), MIN).to_list())


class TestSequencesOfOperations:
    def test_mixed_stream(self, rng, raw40):
        window = sliding(2, 2)
        raw, seq = fresh(raw40, window)
        for step in range(60):
            op = rng.choice(["u", "i", "d"])
            if op == "u" and raw:
                apply_update(raw, seq, rng.randint(1, len(raw)), rng.uniform(-9, 9))
            elif op == "i":
                apply_insert(raw, seq, rng.randint(1, len(raw) + 1), rng.uniform(-9, 9))
            elif raw:
                apply_delete(raw, seq, rng.randint(1, len(raw)))
        ref = reference(raw, window)
        assert packed(seq.to_list()) == packed(ref.to_list())


class TestCumulativeMaintenanceIsArrayWork:
    """A cumulative write recomputes the suffix as array work, not a
    ``CompleteSequence.value`` call per position, and yields exactly the
    values of the per-position rule (what refresh stores)."""

    N = 10_000

    def sequence(self):
        raw = [((i * 37) % 101) / 7 for i in range(self.N)]
        return raw, CompleteSequence.from_raw(raw, cumulative())

    def test_insert_and_delete_make_no_per_position_value_calls(self, monkeypatch):
        raw, seq = self.sequence()
        calls = []
        real = CompleteSequence.value
        monkeypatch.setattr(
            CompleteSequence, "value", lambda self, k: calls.append(k) or real(self, k)
        )
        apply_insert(raw, seq, 17, 2.5)
        apply_delete(raw, seq, self.N // 2)
        assert len(calls) <= 2

    @pytest.mark.parametrize("k", [1, 17, N])
    def test_suffix_is_bit_identical_to_the_per_position_rule(self, k):
        raw, seq = self.sequence()
        apply_insert(raw, seq, k, 0.1)
        assert packed(seq.to_list()) == packed(reference(raw, cumulative()).to_list())
        apply_delete(raw, seq, k)
        assert packed(seq.to_list()) == packed(reference(raw, cumulative()).to_list())
        apply_update(raw, seq, k, 0.3)
        assert packed(seq.to_list()) == packed(reference(raw, cumulative()).to_list())
