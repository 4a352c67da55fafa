"""Server-less checks of the span recorder, the layer call order and the
percentile rule."""

from __future__ import annotations

import json
import threading
from types import SimpleNamespace

import pytest

import layers
import stats
from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_the_part_children_cover():
    clock = FakeClock()
    recorder = SpanRecorder(clock=clock)
    with recorder.span("parent", op_id=7):
        clock.now = 1.0
        with recorder.span("a"):          # 1 .. 4
            clock.now = 2.0
            with recorder.span("a.inner"):  # 2 .. 3
                clock.now = 3.0
            clock.now = 4.0
        clock.now = 6.0
        with recorder.span("b"):          # 6 .. 7
            clock.now = 7.0
        clock.now = 10.0
    selfs = {s.name: v for s, v in zip(recorder.spans,
                                       recorder.self_times().values())}
    assert selfs == {"parent": 6.0, "a": 2.0, "a.inner": 1.0, "b": 1.0}
    assert [s.op_id for s in recorder.spans] == [7, 7, 7, 7]
    assert [s.parent for s in recorder.spans] == [None, 0, 1, 0]
    # self times partition the root's duration
    assert sum(selfs.values()) == recorder.spans[0].duration


def test_overlapping_and_overhanging_children_are_counted_once():
    recorder = SpanRecorder()
    with recorder.span("parent") as parent:
        with recorder.span("x") as x:
            pass
        with recorder.span("y") as y:
            pass
    parent.start, parent.end = 0.0, 10.0
    x.start, x.end = 2.0, 6.0
    y.start, y.end = 4.0, 12.0  # overlaps x, outlives the parent
    assert recorder.self_times()[parent.id] == pytest.approx(2.0)


def test_adopted_span_is_the_parent_of_other_threads_spans():
    recorder = SpanRecorder()

    def worker():
        with recorder.span("child"):
            pass

    with recorder.span("serve", op_id=3, adopt=True):
        thread = threading.Thread(target=worker)
        thread.start()
        thread.join(timeout=5.0)
        assert not thread.is_alive()
    with recorder.span("later"):
        pass
    serve, child, later = recorder.spans
    assert (child.parent, child.op_id) == (serve.id, 3)
    assert later.parent is None


def test_disabled_recorder_runs_the_body_and_keeps_nothing(tmp_path):
    recorder = SpanRecorder(enabled=False)
    with recorder.span("anything") as span:
        assert span is None
    assert recorder.spans == []
    recorder.write_jsonl(tmp_path / "t.jsonl")
    assert (tmp_path / "t.jsonl").read_text() == ""


def test_jsonl_has_one_object_per_span(tmp_path):
    recorder = SpanRecorder()
    with recorder.span("outer", op_id=1):
        with recorder.span("inner"):
            pass
    recorder.write_jsonl(tmp_path / "t.jsonl")
    rows = [json.loads(line)
            for line in (tmp_path / "t.jsonl").read_text().splitlines()]
    assert [row["name"] for row in rows] == ["outer", "inner"]
    assert set(rows[0]) == {"id", "name", "start", "end", "parent", "op_id"}
    assert rows[1]["parent"] == rows[0]["id"] and rows[1]["op_id"] == 1


class FakeProgram:
    """Engine + service that log the order in which they are called."""

    def __init__(self, recorder):
        self.calls = []
        self.cache = {}
        self.row_cached = False
        self.proximity = SimpleNamespace(
            frontier_bound=lambda seeker: 1.0 if self.row_cached else None,
            iter_ranked=self._ranked, vector_array=self._dense)
        self.engine = layers.SpanningEngine(self, recorder)

    def _ranked(self, seeker):
        self.calls.append("proximity.iter_ranked")
        return iter(())

    def _dense(self, seeker):
        self.calls.append("proximity.vector_array")
        self.row_cached = True

    def explain_plan(self, query, algorithm=None):
        self.calls.append("plan")

    def run(self, query, algorithm=None):
        self.calls.append("engine.run")
        return SimpleNamespace(to_dict=lambda: {"items": []})

    def serve(self, query, algorithm=None):
        self.calls.append("service.serve")
        outcome = "hit" if query in self.cache else "computed"
        if outcome == "computed":
            self.cache[query] = self.engine.run(query, algorithm=algorithm)
        return SimpleNamespace(result=self.cache[query], outcome=outcome,
                               latency_seconds=0.0)


def test_layers_are_called_innermost_first_one_span_each():
    recorder = SpanRecorder()
    program = FakeProgram(recorder)
    body = {"seeker": 1, "tags": ["t"], "k": 10, "algorithm": "exact"}
    layers.replay_query(recorder, program, program, body, op_id=0)
    assert program.calls == [
        "proximity.iter_ranked", "proximity.vector_array", "plan",
        "service.serve", "engine.run", "service.serve"]
    names = [span.name for span in recorder.spans]
    assert names == ["op.query", "proximity.row", "plan.route",
                     "service.miss", "core.run", "service.hit",
                     "http_api.serialise"]
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["core.run"].parent == by_name["service.miss"].id
    root = by_name["op.query"].id
    assert all(by_name[name].parent == root for name in names
               if name not in ("op.query", "core.run"))
    assert {span.op_id for span in recorder.spans} == {0}

    # the same query again: row cached, answered by the result cache
    layers.replay_query(recorder, program, program, body, op_id=1)
    again = [span.name for span in recorder.spans if span.op_id == 1]
    assert again == ["op.query", "proximity.cached", "plan.route",
                     "service.hit", "http_api.serialise"]


def test_update_appends_to_the_wal_before_it_applies():
    recorder = SpanRecorder()
    calls = []
    wal = SimpleNamespace(
        append_actions=lambda actions: calls.append(("wal", len(actions))))
    updater = SimpleNamespace(
        apply=lambda actions, friendships: calls.append(
            ("apply", len(actions), friendships)))
    action = {"user_id": 1, "item_id": 2, "tag": "t"}
    layers.replay_update(recorder, wal, updater, {"actions": [action]}, 0)
    layers.replay_update(recorder, wal, updater,
                         {"actions": [action], "friendships": [[1, 2, 1.0]]}, 1)
    assert calls == [("wal", 1), ("apply", 1, None),
                     ("wal", 1), ("apply", 1, [(1, 2, 1.0)])]
    assert [span.name for span in recorder.spans] == [
        "op.update", "wal.append", "updates.apply_actions",
        "op.update", "wal.append", "updates.apply_friendship"]


def test_observer_calls_become_child_spans_of_the_apply():
    recorder = SpanRecorder()
    observers = []
    inner = SimpleNamespace(subscribe=observers.append,
                            unsubscribe=observers.remove, epoch=4)
    updater = layers.SpanningUpdater(inner, recorder)
    seen = []
    updater.subscribe(seen.append)
    with recorder.span("updates.apply_actions"):
        observers[0]("summary")
    assert seen == ["summary"]
    apply_span, hook = recorder.spans
    assert (hook.name, hook.parent) == ("service.on_update", apply_span.id)
    assert updater.epoch == 4  # everything else passes through
    updater.unsubscribe(seen.append)
    assert observers == []


def test_tail_percentile_is_refused_without_ten_samples_beyond_it():
    values = list(range(1, 101))
    assert stats.tail(values) == 90.0
    with pytest.raises(stats.TooFewSamples):
        stats.tail(values[:99])
    with pytest.raises(stats.TooFewSamples):
        stats.median([])


def test_spread_is_interquartile_range_over_median():
    row = stats.spread([10.0, 11.0, 12.0, 13.0, 14.0])
    assert row["median"] == 12.0
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 12.0)
