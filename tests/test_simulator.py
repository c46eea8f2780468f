"""Unit tests for the discrete-event simulation kernel."""

from __future__ import annotations

import pytest

from repro.netem.simulator import Event, Process, SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    seen = []
    sim.schedule(2.0, seen.append, "late")
    sim.schedule(1.0, seen.append, "early")
    sim.run()
    assert seen == ["early", "late"]


def test_equal_time_events_fire_in_insertion_order():
    sim = Simulator()
    seen = []
    for label in ("a", "b", "c"):
        sim.schedule(1.0, seen.append, label)
    sim.run()
    assert seen == ["a", "b", "c"]


def test_clock_advances_to_event_time():
    sim = Simulator()
    sim.schedule(3.5, lambda: None)
    sim.run()
    assert sim.now == pytest.approx(3.5)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda: None)


def test_schedule_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    event = sim.schedule(1.0, seen.append, "x")
    event.cancel()
    sim.run()
    assert seen == []
    assert not event.pending


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    sim.schedule(10.0, seen.append, "b")
    sim.run(until=5.0)
    assert seen == ["a"]
    assert sim.now == pytest.approx(5.0)
    sim.run()
    assert seen == ["a", "b"]


def test_run_for_advances_relative_time():
    sim = Simulator()
    sim.run_for(2.0)
    assert sim.now == pytest.approx(2.0)
    sim.run_for(3.0)
    assert sim.now == pytest.approx(5.0)


def test_max_events_limit():
    sim = Simulator()
    seen = []
    for index in range(10):
        sim.schedule(float(index), seen.append, index)
    sim.run(max_events=3)
    assert len(seen) == 3


def test_events_processed_counter():
    sim = Simulator()
    for index in range(5):
        sim.schedule(float(index), lambda: None)
    sim.run()
    assert sim.events_processed == 5


def test_callback_arguments_forwarded():
    sim = Simulator()
    captured = {}
    sim.schedule(1.0, lambda a, b=None: captured.update({"a": a, "b": b}), 1, b=2)
    sim.run()
    assert captured == {"a": 1, "b": 2}


def test_events_scheduled_during_run_are_executed():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(1.0, seen.append, "second")

    sim.schedule(1.0, first)
    sim.run()
    assert seen == ["first", "second"]
    assert sim.now == pytest.approx(2.0)


def test_periodic_task_fires_repeatedly_and_stops():
    sim = Simulator()
    ticks = []
    task = sim.every(1.0, lambda: ticks.append(sim.now))
    sim.run(until=5.5)
    assert len(ticks) == 5
    task.stop()
    sim.schedule(10.0, lambda: None)
    sim.run()
    assert len(ticks) == 5


def test_periodic_task_initial_delay():
    sim = Simulator()
    ticks = []
    sim.every(1.0, lambda: ticks.append(sim.now), initial_delay=0.5)
    sim.run(until=2.6)
    assert ticks == pytest.approx([0.5, 1.5, 2.5])


def test_periodic_interval_must_be_positive():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.every(0.0, lambda: None)


def test_process_sleeps_between_yields():
    sim = Simulator()
    trace = []

    def worker():
        trace.append(("start", sim.now))
        yield 1.5
        trace.append(("mid", sim.now))
        yield 2.5
        trace.append(("end", sim.now))

    sim.process(worker())
    sim.run()
    assert trace == [("start", 0.0), ("mid", 1.5), ("end", 4.0)]


def test_process_returns_value_and_finishes():
    sim = Simulator()

    def worker():
        yield 1.0
        return 42

    proc = sim.process(worker())
    sim.run()
    assert proc.finished
    assert proc.result == 42


def test_process_can_wait_on_another_process():
    sim = Simulator()
    order = []

    def inner():
        yield 2.0
        order.append("inner-done")
        return "payload"

    def outer():
        result = yield sim.process(inner())
        order.append(("outer-resumed", result, sim.now))

    sim.process(outer())
    sim.run()
    assert order[0] == "inner-done"
    assert order[1] == ("outer-resumed", "payload", 2.0)


def test_process_can_wait_on_event():
    sim = Simulator()
    resumed = []

    def worker(event):
        result = yield event
        resumed.append((sim.now, result))

    event = sim.schedule(2.0, lambda: "fired-result")
    sim.process(worker(event))
    sim.run()
    assert resumed == [(2.0, "fired-result")]


def test_process_waiting_on_already_fired_event_resumes_immediately():
    """A fired event behaves like a finished process: resume, don't hang."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: 99)
    sim.run()
    resumed = []

    def worker():
        result = yield event
        resumed.append((sim.now, result))

    sim.process(worker())
    sim.run()
    assert resumed == [(1.0, 99)]


def test_two_processes_can_wait_on_the_same_event():
    """Waiters are chained; the second process must not clobber the first."""
    sim = Simulator()
    event = sim.schedule(1.0, lambda: "shared")
    resumed = []

    def worker(label):
        result = yield event
        resumed.append((label, result))

    sim.process(worker("a"))
    sim.process(worker("b"))
    sim.run()
    assert sorted(resumed) == [("a", "shared"), ("b", "shared")]


def test_process_waiting_on_cancelled_event_resumes_with_none():
    sim = Simulator()
    event = sim.schedule(5.0, lambda: None)
    event.cancel()
    resumed = []

    def worker():
        result = yield event
        resumed.append(result)

    sim.process(worker())
    sim.run()
    assert resumed == [None]


def test_cancel_after_wait_resumes_waiting_process():
    """Cancelling an event a process is already waiting on must not strand it."""
    sim = Simulator()
    event = sim.schedule(5.0, lambda: "never")
    resumed = []

    def worker():
        result = yield event
        resumed.append((sim.now, result))

    sim.process(worker())
    sim.schedule(1.0, event.cancel)
    sim.run()
    assert resumed == [(1.0, None)]


def test_event_waiter_does_not_disturb_callback_result():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: 7)
    event.add_waiter(lambda result: None)
    sim.run()
    assert event.result == 7


def test_pending_events_excludes_cancelled():
    sim = Simulator()
    live = sim.schedule(1.0, lambda: None)
    doomed = sim.schedule(2.0, lambda: None)
    assert sim.pending_events == 2
    assert sim.queued_events == 2
    doomed.cancel()
    assert sim.pending_events == 1
    assert sim.queued_events == 2  # lazy deletion keeps it in the heap
    sim.run()
    assert sim.pending_events == 0
    assert sim.queued_events == 0
    assert live.fired


def test_double_cancel_does_not_skew_live_count():
    sim = Simulator()
    event = sim.schedule(1.0, lambda: None)
    sim.schedule(2.0, lambda: None)
    event.cancel()
    event.cancel()
    assert sim.pending_events == 1


def test_process_invalid_yield_raises():
    sim = Simulator()

    def worker():
        yield "not a delay"

    sim.process(worker())
    with pytest.raises(SimulationError):
        sim.run()


def test_reentrant_run_rejected():
    sim = Simulator()

    def nested():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1.0, nested)
    sim.run()


def test_drain_cancels_events():
    sim = Simulator()
    seen = []
    events = [sim.schedule(1.0, seen.append, index) for index in range(3)]
    sim.drain(events)
    sim.run()
    assert seen == []


# --------------------------------------------------------------------------
# Heap entries are (time, seq, event): ties break on seq, never on the event
# --------------------------------------------------------------------------


class _Recorder:
    def __init__(self, seen, label):
        self.seen = seen
        self.label = label

    def fire(self):
        self.seen.append(self.label)


def test_same_time_ties_with_unorderable_callbacks_fire_in_insertion_order():
    import functools

    sim = Simulator()
    seen = []
    sim.schedule(1.0, lambda: seen.append("lambda-1"))
    sim.schedule(1.0, _Recorder(seen, "bound-1").fire)
    sim.schedule(1.0, functools.partial(seen.append, "partial"))
    sim.schedule_at(1.0, seen.append, "builtin")
    sim.schedule(1.0, lambda: seen.append("lambda-2"))
    sim.schedule(1.0, _Recorder(seen, "bound-2").fire)
    sim.run()
    assert seen == ["lambda-1", "bound-1", "partial", "builtin", "lambda-2", "bound-2"]


def test_events_scheduled_at_the_current_time_during_run_fire_after_earlier_ties():
    sim = Simulator()
    seen = []

    def first():
        seen.append("first")
        sim.schedule(0.0, seen.append, "scheduled-by-first")

    sim.schedule(1.0, first)
    sim.schedule(1.0, seen.append, "second")
    sim.run()
    assert seen == ["first", "second", "scheduled-by-first"]


def test_run_until_keeps_later_ties_in_insertion_order_across_calls():
    sim = Simulator()
    seen = []
    sim.schedule(1.0, seen.append, "a")
    for label in ("b", "c", "d"):
        sim.schedule(2.0, seen.append, label)
    sim.schedule(1.5, seen.append, "at-until")
    sim.run(until=1.5)
    assert seen == ["a", "at-until"]  # events at exactly ``until`` fire
    assert sim.now == 1.5
    assert sim.pending_events == 3
    sim.schedule_at(2.0, seen.append, "e")
    sim.run()
    assert seen == ["a", "at-until", "b", "c", "d", "e"]


def test_max_events_counts_only_fired_events_of_this_run():
    sim = Simulator()
    seen = []
    cancelled = sim.schedule(0.5, seen.append, "cancelled")
    for index in range(6):
        sim.schedule(1.0 + index, seen.append, index)
    cancelled.cancel()
    sim.run(max_events=2)
    assert seen == [0, 1]
    sim.run(max_events=2)
    assert seen == [0, 1, 2, 3]
    # A non-positive budget still fires one event, as it always has.
    sim.run(max_events=0)
    assert seen == [0, 1, 2, 3, 4]
    assert sim.events_processed == 5
    assert sim.pending_events == 1


def test_event_name_derived_from_callback_unless_explicit():
    import functools

    def tick():
        return None

    assert Event(1.0, tick).name == "tick"
    assert Event(1.0, tick, name="heartbeat").name == "heartbeat"
    assert Event(1.0, _Recorder([], "x").fire).name == "fire"
    # A partial has no __name__ of its own.
    assert Event(1.0, functools.partial(tick)).name == "event"


def test_event_repr_shows_name_time_and_state():
    sim = Simulator()

    def tick():
        return None

    event = sim.schedule(1.25, tick)
    assert repr(event) == "Event('tick', t=1.250000, pending)"
    named = Event(2.0, tick, name="heartbeat")
    assert repr(named) == "Event('heartbeat', t=2.000000, pending)"
    sim.run()
    assert repr(event) == "Event('tick', t=1.250000, fired)"
    other = sim.schedule(1.0, tick)
    other.cancel()
    assert repr(other) == "Event('tick', t=2.250000, cancelled)"


def test_callbacks_with_and_without_keyword_arguments():
    sim = Simulator()
    seen = []

    def record(*args, **kwargs):
        seen.append((args, kwargs))
        return len(seen)

    plain = sim.schedule(1.0, record, 1, 2)
    keyed = sim.schedule(2.0, record, 3, flag=True, name="x")
    bare = sim.schedule(3.0, record)
    assert plain.kwargs is None
    assert bare.kwargs is None
    assert keyed.kwargs == {"flag": True, "name": "x"}
    sim.run()
    assert seen == [((1, 2), {}), ((3,), {"flag": True, "name": "x"}), ((), {})]
    assert (plain.result, keyed.result, bare.result) == (1, 2, 3)


def test_pending_events_tracks_cancels_before_and_after_they_are_popped():
    sim = Simulator()
    events = [sim.schedule(float(index), lambda: None) for index in range(1, 5)]
    events[0].cancel()
    events[2].cancel()
    assert sim.pending_events == 2
    assert sim.queued_events == 4
    sim.run(until=2.5)  # pops the first cancel and fires event 2
    assert sim.pending_events == 1
    assert sim.queued_events == 2
    events[1].cancel()  # already fired: no effect on the count
    assert sim.pending_events == 1
    sim.run()
    assert sim.pending_events == 0
    assert sim.queued_events == 0
    assert [event.fired for event in events] == [False, True, False, True]


# --------------------------------------------------------------------------
# call_as_of
# --------------------------------------------------------------------------


def test_call_as_of_runs_now_with_the_clock_at_the_given_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda: seen.append(("as-of", sim.call_as_of(1.5, lambda: sim.now), sim.now)))
    sim.run()
    assert seen == [("as-of", 1.5, 1.0)]
    # Not an event: only the scheduled callback was counted.
    assert sim.events_processed == 1


def test_call_as_of_restores_the_clock_after_an_exception():
    sim = Simulator(start_time=2.0)

    def boom():
        assert sim.now == 3.0
        raise ValueError("boom")

    with pytest.raises(ValueError):
        sim.call_as_of(3.0, boom)
    assert sim.now == 2.0


def test_call_as_of_nests():
    sim = Simulator()
    times = []

    def inner():
        times.append(sim.now)

    def outer():
        times.append(sim.now)
        sim.call_as_of(sim.now + 0.25, inner)
        times.append(sim.now)

    sim.call_as_of(1.0, outer)
    assert times == [1.0, 1.25, 1.0]
    assert sim.now == 0.0


def test_call_as_of_rejects_the_past():
    sim = Simulator(start_time=5.0)
    with pytest.raises(SimulationError):
        sim.call_as_of(4.999, lambda: None)
    assert sim.now == 5.0
    # Inside an as-of call the past is measured from the as-of time.
    with pytest.raises(SimulationError):
        sim.call_as_of(6.0, lambda: sim.call_as_of(5.5, lambda: None))
    assert sim.now == 5.0


def test_events_scheduled_as_of_land_at_absolute_times():
    sim = Simulator()
    fired = []
    sim.call_as_of(2.0, lambda: sim.schedule(0.5, lambda: fired.append(sim.now)))
    sim.call_as_of(1.0, lambda: sim.schedule_at(1.25, lambda: fired.append(sim.now)))
    assert sim.now == 0.0 and sim.pending_events == 2
    sim.run()
    assert fired == [1.25, 2.5]
