"""Unit tests for the fuzzy mute and fuzzy verbose failure detectors."""

from repro.detectors.fuzzy import FuzzyLevels
from repro.detectors.mute import FuzzyMuteDetector
from repro.detectors.verbose import FuzzyVerboseDetector
from repro.sim.scheduler import Simulator


def make_levels(sim, decay_interval=0.05, decay_amount=1.0):
    return FuzzyLevels(sim, "mute", decay_interval, decay_amount)


# ----------------------------------------------------------------------
# FuzzyLevels
# ----------------------------------------------------------------------
def test_levels_accumulate():
    sim = Simulator()
    levels = make_levels(sim)
    levels.raise_level("a", 1.0)
    levels.raise_level("a", 2.0)
    assert levels.level("a") == 3.0
    assert levels.level("unknown") == 0.0


def test_levels_age_down_over_time():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=0.1, decay_amount=1.0)
    levels.raise_level("a", 3.0)
    sim.run(until=0.25)
    assert levels.level("a") == 1.0
    sim.run(until=0.45)
    assert levels.level("a") == 0.0


def test_levels_never_go_negative():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=0.1)
    levels.raise_level("a", 0.5)
    sim.run(until=0.5)
    assert levels.level("a") == 0.0
    assert "a" not in levels.snapshot()


def test_members_above_threshold():
    sim = Simulator()
    levels = make_levels(sim)
    levels.raise_level("a", 3.0)
    levels.raise_level("b", 1.0)
    assert levels.members_above(2.5) == {"a"}


def test_subscribers_notified_on_changes():
    sim = Simulator()
    levels = make_levels(sim)
    seen = []
    levels.subscribe(lambda name, member, level: seen.append((member, level)))
    levels.raise_level("a", 2.0)
    levels.reset("a")
    assert seen == [("a", 2.0), ("a", 0.0)]


def test_forget_all_clears_and_notifies():
    sim = Simulator()
    levels = make_levels(sim)
    levels.raise_level("a", 2.0)
    levels.raise_level("b", 1.0)
    seen = []
    levels.subscribe(lambda name, member, level: seen.append((member, level)))
    levels.forget_all()
    assert levels.snapshot() == {}
    assert ("a", 0.0) in seen and ("b", 0.0) in seen


def test_raise_zero_is_noop():
    sim = Simulator()
    levels = make_levels(sim)
    levels.raise_level("a", 0.0)
    assert levels.snapshot() == {}


# ----------------------------------------------------------------------
# FuzzyMuteDetector
# ----------------------------------------------------------------------
def test_unfulfilled_expectation_raises_level():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "ack")
    sim.run(until=0.2)
    assert levels.level("a") == 1.0
    assert mute.timeouts_fired == 1


def test_fulfilled_expectation_is_silent():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "ack")
    assert mute.fulfil("a", "ack")
    sim.run(until=0.5)
    assert levels.level("a") == 0.0


def test_fulfil_without_expectation_returns_false():
    sim = Simulator()
    mute = FuzzyMuteDetector(sim, make_levels(sim))
    assert not mute.fulfil("a", "ack")


def test_fulfil_discharges_oldest_first():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "ack", timeout=0.1)
    mute.expect("a", "ack", timeout=0.5)
    mute.fulfil("a", "ack")  # cancels the 0.1s one
    sim.run(until=0.2)
    assert levels.level("a") == 0.0
    sim.run(until=0.6)
    assert levels.level("a") == 1.0


def test_expectation_weight():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "view", weight=2.5)
    sim.run(until=0.2)
    assert levels.level("a") == 2.5


def test_cancel_member_drops_all_expectations():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "ack")
    mute.expect("a", "view")
    mute.expect("b", "ack")
    mute.cancel_member("a")
    assert mute.pending_count("a") == 0
    assert mute.pending_count("b") == 1
    sim.run(until=0.2)
    assert levels.level("a") == 0.0
    assert levels.level("b") == 1.0


def test_expectations_keyed_by_tag():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect("a", "ack")
    mute.fulfil("a", "view")  # different tag: does not discharge
    sim.run(until=0.2)
    assert levels.level("a") == 1.0


def test_expect_all_is_one_timer_and_raises_who_is_left_in_order():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    raised = []
    levels.subscribe(lambda name, member, level: raised.append(member))
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    exp = mute.expect_all(["d", "a", "c", "b"], "round")
    assert sim.pending - 1 == 1         # one deadline (+ the aging timer)
    assert mute.pending_count() == 4 and mute.pending_count("c") == 1
    assert mute.fulfil("a", "round")
    assert not mute.fulfil("a", "round")    # struck off: nothing owed now
    assert mute.fulfil("b", "round")
    sim.run(until=0.2)
    assert raised == ["d", "c"]         # registration order, minus fulfilled
    assert mute.timeouts_fired == 2
    assert exp.done and exp.timer is None
    assert mute.state_sizes() == {"expectations": 0}


def test_expect_all_last_fulfil_cancels_the_timer():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    exp = mute.expect_all(["a", "b"], "round")
    timer = exp.timer
    mute.fulfil("b", "round")
    assert not exp.done and timer.active
    mute.fulfil("a", "round")
    assert exp.done and timer.cancelled
    # both ends of the Timer <-> Expectation cycle are dropped at cancel
    assert exp.timer is None and timer.args is None and timer.callback is None
    assert mute.state_sizes() == {"expectations": 0}
    sim.run(until=0.2)
    assert levels.snapshot() == {} and mute.timeouts_fired == 0
    assert mute.expect_all([], "round").done    # nobody owed: no timer


def test_expect_all_rounds_discharge_oldest_first_per_member():
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.1)
    mute.expect_all(["a", "b"], "round", timeout=0.1)
    mute.expect_all(["a", "b"], "round", timeout=0.5)
    mute.fulfil("a", "round")
    mute.fulfil("a", "round")
    mute.fulfil("b", "round")           # the 0.1s round is now discharged
    mute.cancel_member("a")
    sim.run(until=0.6)
    assert levels.snapshot() == {"b": 1.0}


def test_timed_out_expectations_do_not_pile_up_against_a_mute_member():
    # regression: expiry marked the handle done but left it queued until a
    # later message from that member -- which a mute member never sends
    sim = Simulator()
    levels = make_levels(sim, decay_interval=10.0)
    mute = FuzzyMuteDetector(sim, levels, default_timeout=0.01)
    for _round in range(50):
        mute.expect("a", "round")
        mute.expect_all(["a", "b"], "round")
        mute.fulfil("b", "round")
        sim.run(until=sim.now + 0.02)
    assert mute.timeouts_fired == 100
    assert mute.pending_count() == 0
    assert mute.state_sizes() == {"expectations": 0}


# ----------------------------------------------------------------------
# FuzzyVerboseDetector
# ----------------------------------------------------------------------
def test_rate_bound_violation_raises_level():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.set_rate_bound("slander", max_count=3, window=1.0)
    flagged = [verbose.observe("a", "slander") for _ in range(5)]
    assert flagged == [False, False, False, True, True]
    assert levels.level("a") == 2.0


def test_rate_window_resets():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.set_rate_bound("x", max_count=2, window=1.0)
    verbose.observe("a", "x")
    verbose.observe("a", "x")
    # the aging timer reschedules forever; advance bounded virtual time
    sim.run(until=2.5)
    assert not verbose.observe("a", "x")  # fresh window


def test_unbounded_tags_are_ignored():
    sim = Simulator()
    verbose = FuzzyVerboseDetector(sim, FuzzyLevels(sim, "verbose", 10.0, 1.0))
    assert not verbose.observe("a", "anything")


def test_illegal_message_jumps_level():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.illegal("a", "forged-ack")
    assert levels.level("a") == FuzzyVerboseDetector.ILLEGAL_WEIGHT
    assert verbose.violations == 1


def test_illegal_custom_weight():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.illegal("a", "x", weight=1.5)
    assert levels.level("a") == 1.5


def test_rate_bounds_are_per_member():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.set_rate_bound("x", max_count=1, window=1.0)
    verbose.observe("a", "x")
    assert not verbose.observe("b", "x")
    assert verbose.observe("a", "x")


def test_verbose_forget_clears_member_counters():
    sim = Simulator()
    levels = FuzzyLevels(sim, "verbose", 10.0, 1.0)
    verbose = FuzzyVerboseDetector(sim, levels)
    verbose.set_rate_bound("x", max_count=1, window=100.0)
    verbose.observe("a", "x")
    assert verbose.observe("a", "x")     # second in window: over the bound
    verbose.forget("a")
    assert not verbose.observe("a", "x")  # counters reset for "a"
