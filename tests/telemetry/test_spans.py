"""Span nesting, state-machine tracks, and unclosed-span detection."""

from repro.telemetry import TelemetryHub


def make_hub(clock=None):
    times = iter(range(100))
    hub = TelemetryHub(clock=clock or (lambda: float(next(times))), run_id="t")
    hub.enable()
    return hub


def test_disabled_hub_is_a_null_object():
    hub = TelemetryHub()
    with hub.span("a", "b") as sp:
        assert sp is None
    hub.transition("a", "lane", "STATE")
    hub.instant("a", "mark")
    assert hub.spans == [] and hub.instants == []
    assert hub.open_spans() == []


def test_span_nesting_sets_parent_from_the_stack():
    hub = make_hub()
    with hub.span("outer", "parent") as outer:
        with hub.span("inner", "child") as inner:
            assert inner.parent == outer.sid
        with hub.span("inner", "sibling") as sibling:
            assert sibling.parent == outer.sid
    with hub.span("outer", "next") as top:
        assert top.parent is None
    assert all(s.t1 is not None for s in hub.spans)
    assert all(s.t1 >= s.t0 for s in hub.spans)


def test_out_of_order_close_does_not_corrupt_the_stack():
    hub = make_hub()
    a = hub.span("x", "a")
    sa = a.__enter__()
    b = hub.span("x", "b")
    b.__enter__()
    a.__exit__(None, None, None)  # close parent before child
    with hub.span("x", "c") as sc:
        # b is still the top of the stack, so c nests under it
        assert sc.parent is not None and sc.parent != sa.sid
    b.__exit__(None, None, None)
    assert hub.open_spans() == []


def test_close_open_spans_closes_what_is_open():
    hub = make_hub()
    hub.span("execution", "gather-information").__enter__()
    assert [(s.category, s.name) for s in hub.open_spans()] == [
        ("execution", "gather-information")
    ]
    assert hub.close_open_spans() == 1
    assert hub.open_spans() == []


def test_transition_closes_the_previous_state_span():
    hub = make_hub(clock=None)
    hub.transition("pilot", "pilot.1", "NEW")
    hub.transition("pilot", "pilot.1", "LAUNCHING")
    hub.transition("pilot", "pilot.1", "ACTIVE")
    new, launching, active = hub.spans
    assert new.t1 is not None and new.t1 == launching.t0
    assert launching.t1 is not None and launching.t1 == active.t0
    assert active.t1 is None
    assert hub.open_spans() == [active]


def test_final_transition_is_zero_duration_and_leaves_track_closed():
    hub = make_hub()
    hub.transition("unit", "unit.1", "EXECUTING")
    hub.transition("unit", "unit.1", "DONE", final=True)
    done = hub.spans[-1]
    assert done.t1 is not None and done.t0 == done.t1
    assert hub.open_spans() == []


def test_tracks_are_independent_per_category_and_lane():
    hub = make_hub()
    hub.transition("pilot", "pilot.1", "NEW")
    hub.transition("pilot", "pilot.2", "NEW")
    hub.transition("pilot", "pilot.1", "ACTIVE")
    # pilot.2 is untouched by pilot.1's progress
    assert len(hub.open_spans()) == 2
    by_track = {s.track: s.name for s in hub.open_spans()}
    assert by_track == {"pilot.1": "ACTIVE", "pilot.2": "NEW"}


def test_span_attrs_survive_into_the_canonical_dict():
    hub = make_hub()
    with hub.span("cluster", "pass", track="cluster/alpha", pending=(1, 2)):
        pass
    d = hub.spans[0].as_dict()
    assert d["attrs"]["pending"] == [1, 2]  # tuples coerced for JSON
    assert "w0" not in d  # wall time excluded from canonical form
