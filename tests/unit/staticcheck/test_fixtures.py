"""Every diagnostic code fires on its deliberately-broken fixture,
at the expected state and slot."""

import pytest

from repro.staticcheck import CODES, all_fixtures
from repro.staticcheck.diagnostics import DESCRIPTIONS

FIXTURES = all_fixtures()


def test_one_fixture_per_code():
    assert sorted(f.code for f in FIXTURES) == sorted(CODES)


def test_every_code_has_a_description():
    assert sorted(DESCRIPTIONS) == sorted(CODES)


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=[f.name for f in FIXTURES])
def test_fixture_triggers_its_code(fixture):
    found = fixture.run()
    assert any(fixture.matches(d) for d in found), (
        "%s did not produce %s at state=%r slot=%r; got %s"
        % (fixture.name, fixture.code, fixture.state, fixture.slot,
           [d.format() for d in found]))


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=[f.name for f in FIXTURES])
def test_fixture_locations_are_exact(fixture):
    """The matching diagnostic carries the planted state/slot names."""
    matching = [d for d in fixture.run() if fixture.matches(d)]
    for diagnostic in matching:
        if fixture.state is not None:
            assert diagnostic.state == fixture.state
        if fixture.slot is not None:
            assert diagnostic.slot == fixture.slot
        assert diagnostic.code in CODES
        assert diagnostic.severity in ("error", "warning")
        assert diagnostic.format()  # renders without crashing


# ----------------------------------------------------------------------
# RC701: each documented escape hatch silences the rule
# ----------------------------------------------------------------------
def _rc701_states(extra_transitions=(), timeout=None):
    from repro.core.predicates import is_flowing
    from repro.core.program import (END, State, Transition,
                                    on_channel_down, open_slot,
                                    hold_slot)
    from repro.protocol.codecs import AUDIO
    dialing = State(goals=(open_slot("s", AUDIO),),
                    transitions=(Transition(is_flowing("s"), "talking"),)
                    + tuple(extra_transitions),
                    timeout=timeout)
    talking = State(goals=(hold_slot("s"),),
                    transitions=(Transition(on_channel_down(), END),))
    return {"dialing": dialing, "talking": talking}


def _rc701_codes(states):
    from repro.staticcheck.graph import extract_states
    from repro.staticcheck.rules import check_graph
    graph = extract_states("rc701-case", states, "dialing", slots=("s",))
    return [d.code for d in check_graph(graph)]


def test_rc701_silenced_by_slot_failed_transition():
    from repro.core.predicates import slot_failed
    from repro.core.program import Transition
    states = _rc701_states(
        extra_transitions=(Transition(slot_failed("s"), "talking"),))
    assert "RC701" not in _rc701_codes(states)


def test_rc701_silenced_by_is_closed_transition():
    from repro.core.predicates import is_closed
    from repro.core.program import Transition
    states = _rc701_states(
        extra_transitions=(Transition(is_closed("s"), "talking"),))
    assert "RC701" not in _rc701_codes(states)


def test_rc701_silenced_by_timeout():
    from repro.core.program import Timeout
    states = _rc701_states(timeout=Timeout(5.0, "talking"))
    assert "RC701" not in _rc701_codes(states)


def test_rc701_fires_without_escape():
    assert "RC701" in _rc701_codes(_rc701_states())
