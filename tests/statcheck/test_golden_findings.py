"""Lint golden: every fixture session's findings reproduce exactly.

``tests/fixtures/golden/lint_findings.json`` (see ``regen_lint_findings.py``
beside it) records the full findings of the checked-in fixture sessions,
the generated clean session and its corruptions, the damaged session, and
the fleet sessions at their roots and per domain.  Relinting each target
must give the same findings in the same order with the same wording.
"""

import json

import pytest

from tests.fixtures.golden.regen_lint_findings import GOLDEN, lint_targets

EXPECTED = json.loads(GOLDEN.read_text())["targets"]


@pytest.fixture(scope="module")
def relinted(tmp_path_factory) -> dict:
    return lint_targets(tmp_path_factory.mktemp("lint-golden"))


def test_targets_are_the_fixtures(relinted):
    assert sorted(relinted) == sorted(EXPECTED)
    assert len(EXPECTED) == 21


@pytest.mark.parametrize("target", sorted(EXPECTED))
def test_findings_match_golden(relinted, target):
    assert relinted[target] == EXPECTED[target]
