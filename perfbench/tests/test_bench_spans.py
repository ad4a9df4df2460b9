"""Span recorder of the benchmark: nesting, self time and wrapping."""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import spans  # noqa: E402


class FakeClock:
    """Returns 0, 1, 2, ... so every span boundary is one tick apart."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_time_subtracts_direct_children_only():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 8]
    parent = np.array([-1, 0, 0, 2])
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 8.0])
    got = spans.self_times(parent, end - start)
    assert got.tolist() == [3.0, 3.0, 2.0, 2.0]


def test_recorder_nests_spans_and_derives_self_time(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock())
    rec = spans.Recorder()
    inner = rec.wrap(lambda: None, "inner")
    outer = rec.wrap(lambda: (inner(), inner()), "outer")
    outer()
    tab = rec.table()
    assert [tab.names[i] for i in tab.name_id] == ["outer", "inner", "inner"]
    assert tab.parent.tolist() == [-1, 0, 0]
    # outer [0, 5], inner [1, 2] and [3, 4]
    assert tab.duration.tolist() == [5.0, 1.0, 1.0]
    assert tab.self_total("outer") == 3.0
    assert tab.total("inner") == 2.0
    assert tab.with_parent("inner", "outer").tolist() == [1, 2]


def test_span_closes_and_keeps_no_value_when_the_call_raises():
    rec = spans.Recorder()

    def boom():
        raise ValueError("no")

    wrapped = rec.wrap(boom, "boom", note=lambda a, k, r: 1.0)
    with pytest.raises(ValueError):
        wrapped()
    ok = rec.wrap(lambda: 7, "ok", note=lambda a, k, r: float(r))
    assert ok() == 7
    tab = rec.table()
    assert np.isnan(tab.values[0]) and tab.values[1] == 7.0
    assert tab.parent.tolist() == [-1, -1]
    assert np.all(tab.duration >= 0.0)


def test_install_wraps_every_binding_and_uninstall_restores():
    defining = types.ModuleType("defining")
    exec("def f(x):\n    return x + 1\n", vars(defining))
    importer = types.ModuleType("importer")
    importer.f = defining.f                       # what "from .defining import f" does
    original = defining.f

    class Owner:
        def method(self):
            return importer.f(1)

    rec = spans.Recorder()
    rec.install([defining, importer], [(defining, "f", "defining.f", None),
                                       (Owner, "method", "Owner.method", None)])
    assert defining.f is not original and importer.f is defining.f
    assert Owner().method() == 2 and defining.f(0) == 1
    tab = rec.table()
    assert [tab.names[i] for i in tab.name_id] == ["Owner.method", "defining.f", "defining.f"]
    assert tab.parent.tolist() == [-1, 0, -1]
    rec.uninstall()
    assert defining.f is original and importer.f is original
    assert "method" in vars(Owner) and not hasattr(Owner.method, "__wrapped__")


def test_table_of_a_range_rebases_parents_and_finds_outermost_spans(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock())
    rec = spans.Recorder()
    leaf = rec.wrap(lambda: None, "layer.leaf")
    mid = rec.wrap(lambda: leaf(), "layer.mid")
    top = rec.wrap(lambda: (mid(), leaf()), "other.top")
    leaf()
    top()
    tab = rec.table(1)                            # drop the first, parentless leaf
    assert [tab.names[i] for i in tab.name_id] == [
        "other.top", "layer.mid", "layer.leaf", "layer.leaf"]
    assert tab.parent.tolist() == [-1, 0, 1, 0]
    assert tab.outermost(["layer.mid", "layer.leaf"]).tolist() == [1, 3]
    assert rec.table(2).parent.tolist() == [-1, 0, -1]


def test_calibration_brackets_only_top_level_spans(monkeypatch):
    monkeypatch.setattr(spans.time, "perf_counter", FakeClock())
    loops = iter([2.0, 4.0])
    rec = spans.Recorder(calibrate=lambda: next(loops))
    inner = rec.wrap(lambda: None, "inner")
    outer = rec.wrap(lambda: inner(), "outer")
    outer()
    tab = rec.table()
    # clock: calibration [0, 1], outer [2, 5] holding inner [3, 4], calibration [6, 7]
    assert tab.duration.tolist() == [3.0, 1.0]
    assert tab.cal[0] == 3.0 and np.isnan(tab.cal[1])
    assert rec.calibration_s == 2.0
    assert tab.calibrated_total("outer", 6.0) == 6.0
    assert tab.calibrated_total("inner", 6.0) == 1.0
