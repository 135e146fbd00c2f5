"""Every RC8xx code fires on its deliberately-broken fixture, at the
expected location — the auditor's negative controls."""

import pytest

from repro.audit import AUDIT_CODES
from repro.audit.fixtures import all_audit_fixtures

FIXTURES = all_audit_fixtures()


def test_every_code_has_a_fixture():
    # Exactly one negative control per code.
    covered = {f.code for f in FIXTURES}
    assert covered == set(AUDIT_CODES)


def test_fixture_names_are_unique():
    names = [f.name for f in FIXTURES]
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
    for diagnostic in fixture.run():
        assert diagnostic.code in AUDIT_CODES
        assert diagnostic.severity in ("error", "warning")
        assert diagnostic.format()

