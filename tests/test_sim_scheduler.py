"""Unit tests for the discrete-event simulator kernel."""

import pytest

from repro.sim.scheduler import SimulationError, Simulator


def test_events_fire_in_deadline_order():
    sim = Simulator()
    fired = []
    sim.schedule(0.3, fired.append, "c")
    sim.schedule(0.1, fired.append, "a")
    sim.schedule(0.2, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    fired = []
    for token in range(10):
        sim.schedule(0.5, fired.append, token)
    sim.run()
    assert fired == list(range(10))


def test_now_tracks_event_deadline():
    sim = Simulator()
    observed = []
    sim.schedule(1.5, lambda: observed.append(sim.now))
    sim.run()
    assert observed == [1.5]
    assert sim.now == 1.5


def test_run_until_boundary_leaves_later_events_queued():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(2.0, fired.append, "late")
    sim.run(until=1.5)
    assert fired == ["early"]
    assert sim.now == 1.5
    assert sim.pending == 1
    sim.run()
    assert fired == ["early", "late"]


def test_cancelled_timer_does_not_fire():
    sim = Simulator()
    fired = []
    timer = sim.schedule(1.0, fired.append, "x")
    timer.cancel()
    sim.run()
    assert fired == []
    assert not timer.active


def test_cancel_is_idempotent():
    sim = Simulator()
    timer = sim.schedule(1.0, lambda: None)
    timer.cancel()
    timer.cancel()
    assert sim.run() == 0


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-0.1, lambda: None)


def test_schedule_at_past_deadline_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(depth):
        fired.append(depth)
        if depth < 5:
            sim.schedule(0.1, chain, depth + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert abs(sim.now - 0.5) < 1e-12


def test_max_events_guard():
    sim = Simulator()

    def forever():
        sim.schedule(0.001, forever)

    sim.schedule(0.0, forever)
    with pytest.raises(SimulationError):
        sim.run(max_events=100)


def test_run_until_predicate():
    sim = Simulator()
    state = {"count": 0}

    def tick():
        state["count"] += 1
        sim.schedule(0.1, tick)

    sim.schedule(0.1, tick)
    assert sim.run_until(lambda: state["count"] >= 3, timeout=10.0)
    assert state["count"] == 3


def test_run_until_timeout_advances_clock():
    sim = Simulator()
    assert not sim.run_until(lambda: False, timeout=2.0)
    assert sim.now == 2.0


def test_determinism_same_seed_same_draws():
    draws_a = Simulator(seed=123).rng.random()
    draws_b = Simulator(seed=123).rng.random()
    assert draws_a == draws_b


def test_step_processes_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(0.1, fired.append, 1)
    sim.schedule(0.2, fired.append, 2)
    assert sim.step()
    assert fired == [1]
    assert sim.step()
    assert not sim.step()


# ----------------------------------------------------------------------
# serial queues (the k-way merge behind per-node CPU completions)
# ----------------------------------------------------------------------
def test_serial_entries_interleave_with_heap_events():
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    sim.schedule_serial(queue, 0.1, fired.append, "s1")
    sim.schedule(0.2, fired.append, "h1")
    sim.schedule_serial(queue, 0.3, fired.append, "s2")
    sim.schedule(0.4, fired.append, "h2")
    sim.schedule_serial(queue, 0.5, fired.append, "s3")
    sim.run()
    assert fired == ["s1", "h1", "s2", "h2", "s3"]


def test_serial_ties_break_by_schedule_order():
    # the insertion sequence comes from the shared counter at schedule
    # time, so equal deadlines fire in schedule order across queues and
    # plain heap entries alike -- the byte-identity contract
    sim = Simulator()
    qa, qb = sim.serial_queue(), sim.serial_queue()
    fired = []
    sim.schedule_serial(qa, 1.0, fired.append, "a1")
    sim.schedule(1.0, fired.append, "h")
    sim.schedule_serial(qb, 1.0, fired.append, "b1")
    sim.schedule_serial(qa, 1.0, fired.append, "a2")
    sim.run()
    assert fired == ["a1", "h", "b1", "a2"]


def test_serial_backlog_keeps_heap_small():
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    for i in range(100):
        sim.schedule_serial(queue, 0.1 * (i + 1), fired.append, i)
    # only the queue head occupies the heap; the backlog is parked
    assert len(sim._heap) == 1
    assert sim.pending == 100
    sim.run()
    assert fired == list(range(100))
    assert sim.pending == 0


def test_serial_hidden_entry_cancellation():
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    sim.schedule_serial(queue, 0.1, fired.append, "head")
    hidden = sim.schedule_serial(queue, 0.2, fired.append, "hidden")
    sim.schedule_serial(queue, 0.3, fired.append, "tail")
    hidden.cancel()
    sim.run()
    assert fired == ["head", "tail"]


def test_serial_head_cancellation_promotes_successor():
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    head = sim.schedule_serial(queue, 0.1, fired.append, "head")
    sim.schedule_serial(queue, 0.2, fired.append, "next")
    head.cancel()
    sim.run()
    assert fired == ["next"]


def test_serial_non_monotone_deadline_falls_back_to_heap():
    # a deadline below the queue tail violates the monotonicity contract;
    # the entry silently becomes a plain heap entry and still fires in
    # correct global order
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    sim.schedule_serial(queue, 0.5, fired.append, "tail")
    sim.schedule_serial(queue, 0.2, fired.append, "early")
    sim.run()
    assert fired == ["early", "tail"]


def test_serial_past_deadline_rejected():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    queue = sim.serial_queue()
    with pytest.raises(SimulationError):
        sim.schedule_serial(queue, 0.5, lambda: None)


def test_serial_refill_after_drain():
    # once a queue empties its next entry must re-enter the heap
    sim = Simulator()
    queue = sim.serial_queue()
    fired = []
    sim.schedule_serial(queue, 0.1, fired.append, "first")
    sim.run()
    sim.schedule_serial(queue, 0.2, fired.append, "second")
    sim.run()
    assert fired == ["first", "second"]


def test_timers_covers_hidden_serial_entries():
    sim = Simulator()
    queue = sim.serial_queue()
    sim.schedule_serial(queue, 0.1, lambda: None)
    sim.schedule_serial(queue, 0.2, lambda: None)
    sim.schedule(0.3, lambda: None)
    deadlines = sorted(deadline for deadline, _seq, _timer in sim.timers())
    assert deadlines == [0.1, 0.2, 0.3]

