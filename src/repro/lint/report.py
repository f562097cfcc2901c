"""Reporters: render a :class:`~repro.lint.engine.LintResult`.

Three formats: human text (grouped by file, one finding per line,
summary last), machine JSON (canonical key order, stable across
runs), and SARIF 2.1.0 (what GitHub code scanning ingests to annotate
PR diffs; the CI gate writes it).  All render only what the engine
already computed; no rule logic lives here.
"""

from __future__ import annotations

import json
from typing import List

from repro.lint.engine import LintResult
from repro.lint.rules import all_rules

#: JSON report format version.
REPORT_VERSION = 1

#: SARIF schema pin (the version GitHub code scanning accepts).
SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(result: LintResult) -> str:
    """Human-readable report: findings per file plus a summary line."""
    lines: List[str] = []
    for finding in result.findings:
        lines.append(
            f"{finding.path}:{finding.line}: [{finding.rule}] "
            f"{finding.message}"
        )
    if lines:
        lines.append("")
    status = "clean" if result.clean else f"{len(result.findings)} finding(s)"
    lines.append(
        f"{status}: {result.files} files, {len(result.rules)} rules, "
        f"{result.suppressed} suppressed, {result.baselined} baselined, "
        f"{len(result.stale_baseline)} stale baseline entrie(s)"
    )
    for stale in result.stale_baseline:
        lines.append(f"stale baseline entry (fixed? prune it): {stale}")
    return "\n".join(lines)


def render_json(result: LintResult) -> str:
    """Canonical JSON report (sorted keys, deterministic ordering)."""
    payload = {
        "version": REPORT_VERSION,
        "rules": result.rules,
        "summary": {
            "files": result.files,
            "findings": len(result.findings),
            "suppressed": result.suppressed,
            "baselined": result.baselined,
            "stale_baseline": len(result.stale_baseline),
            "clean": result.clean,
        },
        "findings": [f.to_dict() for f in result.findings],
        "stale_baseline": result.stale_baseline,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_sarif(result: LintResult) -> str:
    """SARIF 2.1.0 log for GitHub code-scanning PR annotations.

    File URIs are repo-root relative (``src/repro/...`` for package
    findings, ``examples/...`` as-is for external trees), and each
    result carries the baseline fingerprint as a partial fingerprint so
    code scanning deduplicates findings across pushes the same way the
    baseline file does.
    """
    rules_meta = [
        {
            "id": rule.id,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": rule.rationale},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in all_rules()
        if rule.id in result.rules
    ]
    index_of = {meta["id"]: index for index, meta in enumerate(rules_meta)}
    results = []
    for finding in result.findings:
        uri = finding.path
        if uri.startswith("repro/"):
            uri = f"src/{uri}"
        results.append({
            "ruleId": finding.rule,
            "ruleIndex": index_of.get(finding.rule, -1),
            "level": "error",
            "message": {"text": finding.message},
            "locations": [{
                "physicalLocation": {
                    "artifactLocation": {"uri": uri},
                    "region": {"startLine": max(finding.line, 1)},
                },
            }],
            "partialFingerprints": {
                "reproLintFingerprint/v2": finding.fingerprint(),
            },
        })
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-lint",
                    "rules": rules_meta,
                },
            },
            "results": results,
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def render_rule_list() -> str:
    """The ``repro lint --list`` catalog: id, summary, rationale."""
    lines = [f"{'rule':22s} summary", "-" * 72]
    for rule in all_rules():
        lines.append(f"{rule.id:22s} {rule.summary}")
        lines.append(f"{'':22s}   why: {rule.rationale}")
    return "\n".join(lines)
