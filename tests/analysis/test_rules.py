"""Per-rule flag/pass fixture tests for the static-analysis framework.

Each rule has a flagging fixture (must fire) and a passing fixture (must
stay silent under *every* rule) under ``tests/analysis/fixtures``.  The
fixtures double as living documentation of what each rule considers a
violation; module paths are taken relative to the fixtures directory so
path-scoped rules (``service/`` for hot-path) see the layout they scope
on.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import all_rules, get_rule, lint_paths, lint_source
from repro.analysis.runner import LintReport

FIXTURES = Path(__file__).parent / "fixtures"

#: rule id -> (flagging fixture, passing fixture), paths relative to FIXTURES.
RULE_FIXTURES = {
    "guarded-by": ("flagging/guarded_flag.py", "passing/guarded_ok.py"),
    "byte-identity": ("flagging/arena_flag.py", "passing/arena_ok.py"),
    "durability-ordering": ("flagging/durable_flag.py",
                            "passing/durable_ok.py"),
    "rng-determinism": ("flagging/rng_flag.py", "passing/rng_ok.py"),
    "hot-path-materialisation": ("flagging/service/executor_flag.py",
                                 "passing/service/executor_ok.py"),
}


def lint_fixture(relative: str):
    report = lint_paths([FIXTURES / relative], root=FIXTURES)
    assert not report.errors, report.errors
    return report


def test_every_registered_rule_has_fixtures():
    assert {rule.rule_id for rule in all_rules()} == set(RULE_FIXTURES)


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_flagging_fixture_fires(rule_id):
    flagging, _ = RULE_FIXTURES[rule_id]
    report = lint_fixture(flagging)
    fired = {finding.rule for finding in report.findings}
    assert rule_id in fired
    # The fixture isolates its rule: nothing else may fire on it.
    assert fired == {rule_id}, report.findings


@pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
def test_passing_fixture_is_clean(rule_id):
    _, passing = RULE_FIXTURES[rule_id]
    report = lint_fixture(passing)
    assert report.findings == [], report.findings


def test_finding_carries_location_and_formats():
    report = lint_fixture("flagging/rng_flag.py")
    finding = report.findings[0]
    assert finding.file == "flagging/rng_flag.py"
    assert finding.line > 0
    assert finding.format().startswith(
        f"{finding.file}:{finding.line}: [{finding.rule}]")


def test_guarded_by_flags_every_unlocked_mutation():
    report = lint_fixture("flagging/guarded_flag.py")
    lines = sorted(finding.line for finding in report.findings)
    # bump(), push() and the statement that slipped out of reset()'s with.
    assert len(lines) == 3


def test_guarded_by_message_suggests_lock_held_annotation():
    report = lint_fixture("flagging/guarded_flag.py")
    assert any("lock-held" in finding.message for finding in report.findings)


def test_justified_allow_suppresses():
    report = LintReport()
    findings = lint_source(
        "import numpy as np\n"
        "import random\n"
        "token = random.random()  "
        "# lint: allow(rng-determinism) -- demo snippet, not shipped\n",
        "snippet.py", report=report)
    assert findings == []
    assert report.suppressed == 1


def test_unjustified_allow_keeps_finding_with_reminder():
    findings = lint_source(
        "import numpy as np\n"
        "import random\n"
        "token = random.random()  # lint: allow(rng-determinism)\n",
        "snippet.py")
    assert len(findings) == 1
    assert "missing its mandatory" in findings[0].message


def test_allow_on_line_above_suppresses():
    report = LintReport()
    findings = lint_source(
        "import numpy as np\n"
        "import random\n"
        "# lint: allow(rng-determinism) -- fixture exercising line-above\n"
        "token = random.random()\n",
        "snippet.py", report=report)
    assert findings == []
    assert report.suppressed == 1


def test_hot_path_rule_scopes_on_module_path():
    source = "def handle(scores):\n    return scores.tolist()\n"
    rule = get_rule("hot-path-materialisation")
    assert lint_source(source, "service/handler.py", rules=[rule])
    assert not lint_source(source, "eval/report.py", rules=[rule])


def test_hot_path_rule_covers_the_delta_merge_module():
    rule = get_rule("hot-path-materialisation")
    report = lint_fixture("flagging/storage/delta.py")
    # The dict(zip(...)) of two .tolist() calls in the old merged_counts.
    assert {finding.line for finding in report.findings} == {7}
    messages = " ".join(finding.message for finding in report.findings)
    assert "dict(zip(...))" in messages and ".tolist()" in messages
    assert rule.applies_to("repro/storage/delta.py")
    assert not rule.applies_to("repro/storage/updates.py")


def test_syntax_error_is_reported_not_raised():
    report = LintReport()
    findings = lint_source("def broken(:\n", "broken.py", report=report)
    assert findings == []
    assert report.errors and "broken.py" in report.errors[0]
