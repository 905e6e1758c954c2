"""CircuitBreaker: the closed/open/half-open state machine."""

import pytest

from repro.core.instrumentation import quarantine_seconds
from repro.des import Simulation
from repro.health import (
    BreakerPolicy,
    BreakerState,
    CircuitBreaker,
    HealthRegistry,
)


def make_breaker(**policy_kw):
    sim = Simulation(seed=0)
    events = []
    brk = CircuitBreaker(
        sim, "alpha", BreakerPolicy(**policy_kw),
        on_event=lambda kind, resource, **d: events.append((sim.now, kind, d)),
    )
    return sim, brk, events


def test_policy_validation():
    with pytest.raises(ValueError):
        BreakerPolicy(failure_threshold=0)
    with pytest.raises(ValueError):
        BreakerPolicy(cooldown_s=0.0)


def test_threshold_opens_the_breaker():
    sim, brk, events = make_breaker(failure_threshold=3)
    brk.record_failure()
    brk.record_failure()
    assert brk.state is BreakerState.CLOSED
    assert brk.allow_submission()
    brk.record_failure()
    assert brk.state is BreakerState.OPEN
    assert brk.is_quarantined
    assert not brk.allow_submission()
    assert [e[1] for e in events] == ["breaker-open"]


def test_success_resets_the_failure_count():
    sim, brk, _ = make_breaker(failure_threshold=2)
    brk.record_failure()
    brk.record_success()
    brk.record_failure()
    assert brk.state is BreakerState.CLOSED  # never two consecutive


def test_trip_opens_immediately():
    sim, brk, events = make_breaker(failure_threshold=5)
    brk.trip("outage-observed")
    assert brk.state is BreakerState.OPEN
    assert events[0][1] == "breaker-open"
    assert events[0][2]["reason"] == "outage-observed"
    # tripping an already-open breaker is a no-op
    brk.trip("outage-observed")
    assert len(events) == 1


def test_cooldown_moves_open_to_half_open():
    sim, brk, events = make_breaker(failure_threshold=1, cooldown_s=100.0)
    brk.record_failure()
    sim.run(until=99.0)
    assert brk.state is BreakerState.OPEN
    sim.run(until=101.0)
    assert brk.state is BreakerState.HALF_OPEN
    assert not brk.is_quarantined  # probing, not quarantined
    assert [e[1] for e in events] == ["breaker-open", "breaker-half-open"]


def test_half_open_hands_out_a_single_probe_slot():
    sim, brk, events = make_breaker(failure_threshold=1, cooldown_s=10.0)
    brk.record_failure()
    sim.run(until=11.0)
    assert brk.allow_submission()       # the probe
    assert not brk.allow_submission()   # no second probe
    assert [e[1] for e in events] == [
        "breaker-open", "breaker-half-open", "breaker-probe"
    ]


def test_probe_success_closes_the_breaker():
    sim, brk, events = make_breaker(failure_threshold=1, cooldown_s=10.0)
    brk.record_failure()
    sim.run(until=11.0)
    assert brk.allow_submission()
    brk.record_success("pilot-active")
    assert brk.state is BreakerState.CLOSED
    assert brk.allow_submission()
    assert events[-1][1] == "breaker-close"


def test_probe_failure_reopens_and_restarts_the_cooldown():
    sim, brk, _ = make_breaker(failure_threshold=1, cooldown_s=10.0)
    brk.record_failure()
    sim.run(until=11.0)
    assert brk.allow_submission()
    brk.record_failure("pilot-failed")
    assert brk.state is BreakerState.OPEN
    sim.run(until=20.0)  # the *old* cooldown callback must not half-open it
    assert brk.state is BreakerState.OPEN
    sim.run(until=22.0)
    assert brk.state is BreakerState.HALF_OPEN


def test_reopened_breaker_probe_can_still_close():
    sim, brk, _ = make_breaker(failure_threshold=1, cooldown_s=10.0)
    brk.record_failure()
    sim.run(until=11.0)
    brk.record_failure()   # probe window failure -> reopen
    sim.run(until=25.0)
    assert brk.allow_submission()
    brk.record_success()
    assert brk.state is BreakerState.CLOSED


def quarantine_stack(cooldown_s):
    """A registry whose health log records an "alpha" breaker."""
    sim = Simulation(seed=0)
    reg = HealthRegistry(
        sim, breaker=BreakerPolicy(failure_threshold=1, cooldown_s=cooldown_s)
    )
    return sim, reg


def test_quarantined_seconds_accounting():
    sim, reg = quarantine_stack(cooldown_s=100.0)
    sim.run(until=50.0)
    reg.record_failure("alpha")   # open [50, 150)
    sim.run(until=160.0)          # half-open at 150
    assert quarantine_seconds(reg.log, 0.0, 200.0) == pytest.approx(100.0)
    assert quarantine_seconds(reg.log, 0.0, 120.0) == pytest.approx(70.0)
    assert quarantine_seconds(reg.log, 60.0, 100.0) == pytest.approx(40.0)
    assert quarantine_seconds(reg.log, 150.0, 200.0) == 0.0


def test_quarantined_seconds_clips_a_still_open_window():
    sim, reg = quarantine_stack(cooldown_s=1e6)
    sim.run(until=10.0)
    reg.record_failure("alpha")
    sim.run(until=110.0)
    assert quarantine_seconds(reg.log, 0.0, 110.0) == pytest.approx(100.0)
