"""The committed-baseline mechanism for grandfathered findings.

A baseline is a JSON file mapping finding fingerprints (rule, path,
normalized-snippet hash, message — deliberately no line numbers, see
:meth:`repro.lint.rules.Finding.fingerprint`) to occurrence counts.
Findings that match a baseline entry are *grandfathered*: reported in
the summary but not as failures, so a new rule can land before every
historical violation is fixed, while any **new** violation still gates.
Because the key hashes the flagged source line rather than recording
where it sits, unrelated edits above a suppressed finding leave the
baseline intact; editing the flagged line itself invalidates the entry.

Workflow::

    python -m repro lint                      # new findings fail
    python -m repro lint --update-baseline    # grandfather the current set
    python -m repro lint --prune-baseline     # drop + report stale entries

Baseline entries that no longer match anything are reported as *stale*
so the file shrinks as debt is paid down.  A run judges only the rules
it ran: entries of other rules are neither matched nor stale, and both
baseline flags leave them in the file.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Collection, Dict, List, Sequence, Tuple

from repro.lint.rules import Finding

#: On-disk format version, bumped on incompatible changes.  v2 keys
#: fingerprints on the normalized-snippet hash instead of nothing but
#: the message, so they survive line moves *and* invalidate on edits.
BASELINE_VERSION = 2


@dataclass
class Baseline:
    """Fingerprint -> allowed occurrence count."""

    counts: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def load(cls, path: Path) -> "Baseline":
        """Read a baseline file; a missing file is an empty baseline."""
        path = Path(path)
        if not path.exists():
            return cls()
        data = json.loads(path.read_text())
        if data.get("version") != BASELINE_VERSION:
            raise ValueError(
                f"{path}: unsupported baseline version "
                f"{data.get('version')!r} (expected {BASELINE_VERSION}; "
                f"regenerate with --update-baseline)"
            )
        counts = {str(k): int(v) for k, v in data.get("findings", {}).items()}
        return cls(counts=counts)

    @classmethod
    def from_findings(cls, findings: Sequence[Finding]) -> "Baseline":
        """Build the baseline that grandfathers exactly ``findings``."""
        counts: Dict[str, int] = {}
        for finding in findings:
            key = finding.fingerprint()
            counts[key] = counts.get(key, 0) + 1
        return cls(counts=counts)

    def split(self, rules: Collection[str]) -> Tuple["Baseline", "Baseline"]:
        """(entries of ``rules``, entries of every other rule).

        The rule id is a fingerprint's first ``::`` field.
        """
        inside: Dict[str, int] = {}
        outside: Dict[str, int] = {}
        for key, count in self.counts.items():
            rule = key.split("::", 1)[0]
            (inside if rule in rules else outside)[key] = count
        return Baseline(counts=inside), Baseline(counts=outside)

    def save(self, path: Path) -> Path:
        """Write the canonical (sorted, versioned) baseline file."""
        path = Path(path)
        payload = {
            "version": BASELINE_VERSION,
            "findings": {k: self.counts[k] for k in sorted(self.counts)},
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return path

    def apply(
        self, findings: Sequence[Finding]
    ) -> Tuple[List[Finding], int, List[str]]:
        """Split findings into (new, grandfathered count, stale entries).

        Each fingerprint absorbs up to its recorded count of matching
        findings; the overflow and every unmatched fingerprint are
        returned for reporting.
        """
        remaining = dict(self.counts)
        new: List[Finding] = []
        baselined = 0
        for finding in findings:
            key = finding.fingerprint()
            if remaining.get(key, 0) > 0:
                remaining[key] -= 1
                baselined += 1
            else:
                new.append(finding)
        stale = sorted(k for k, count in remaining.items() if count > 0)
        return new, baselined, stale

    def prune(self, findings: Sequence[Finding]) -> Tuple["Baseline", List[str]]:
        """Drop entries that no longer match any current finding.

        Returns the pruned baseline plus the dropped fingerprints (for
        reporting).  Counts shrink to the number of matching findings,
        so half-fixed entries shrink rather than vanish.
        """
        live: Dict[str, int] = {}
        for finding in findings:
            key = finding.fingerprint()
            if key in self.counts and live.get(key, 0) < self.counts[key]:
                live[key] = live.get(key, 0) + 1
        dropped = sorted(
            key for key, count in self.counts.items()
            if live.get(key, 0) < count
        )
        return Baseline(counts=live), dropped
