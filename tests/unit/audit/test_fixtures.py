"""Every RC8xx code fires on its deliberately-broken runtime source, at
the expected location — the runtime passes' negative controls."""

import pytest

from repro.staticcheck import CODES, all_fixtures

RUNTIME_CODES = {code for code in CODES if code.startswith("RC8")}
FIXTURES = [f for f in all_fixtures() if f.code in RUNTIME_CODES]


def test_every_code_has_a_fixture():
    # Exactly one negative control per code.
    assert sorted(f.code for f in FIXTURES) == sorted(RUNTIME_CODES)


def test_fixture_names_are_unique():
    names = [f.name for f in all_fixtures()]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=[f.name for f in FIXTURES])
def test_fixture_triggers_its_code(fixture):
    found = fixture.run()
    assert any(fixture.matches(d) for d in found), (
        "%s did not produce %s at state=%r; got %s"
        % (fixture.name, fixture.code, fixture.state,
           [d.format() for d in found]))


@pytest.mark.parametrize("fixture", FIXTURES,
                         ids=[f.name for f in FIXTURES])
def test_fixture_diagnostics_render(fixture):
    # The runtime checkers only ever emit runtime codes.
    for diagnostic in fixture.run():
        assert diagnostic.code in RUNTIME_CODES
        assert diagnostic.severity in ("error", "warning")
        assert diagnostic.format()
