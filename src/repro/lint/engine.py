"""The lint runner: scan, parse once, dispatch rules, apply suppressions.

One :func:`run_lint` call walks a package root (``src/repro`` by
default) in sorted order, parses every file exactly once, hands the
modules to each per-file rule, the import graph to each whole-program
rule, and the extracted fact pool to each deep rule, then filters the
findings through the suppression pragmas and the committed baseline.
Everything downstream — the text/JSON/SARIF reporters, the CLI exit
code, the pytest entry point — works off the returned
:class:`LintResult`.  ``analyze="deep"`` adds the flow-sensitive
whole-program rules (taint propagation, race detection, contract
checking) on top of the per-file set.

Suppression pragma::

    risky_call()  # repro: lint-ignore[iteration-order]
    # repro: lint-ignore[no-wall-clock,no-unseeded-rng]  (next line)
    # repro: lint-ignore  (all rules, same/next line)
    hot()  # repro: lint-ignore[taint-determinism] -- measured, not priced

A pragma naming a rule id that does not exist is itself a finding
(``pragma-hygiene``), so typos cannot silently disable a check — and
suppressing a *deep* rule without a ``-- reason`` string is a finding
too, so whole-program exemptions stay documented.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

from repro.lint.baseline import Baseline
from repro.lint.rules import (
    DeepRule,
    Finding,
    Module,
    Rule,
    all_rules,
    build_import_graph,
    get_rule,
    register_rule,
    rule_ids,
)

#: Matches ``# repro: lint-ignore``, ``...[a,b]``, and an optional
#: ``-- reason`` tail documenting why the suppression is sound.
PRAGMA_RE = re.compile(
    r"#\s*repro:\s*lint-ignore"
    r"(?:\[(?P<rules>[^\]]*)\])?"
    r"(?:\s*--\s*(?P<reason>\S.*?))?\s*$"
)

#: Sentinel meaning "suppress every rule on this line".
ALL_RULES = "*"


class PragmaHygieneRule(Rule):
    """Suppression pragmas must name real rule ids and carry reasons.

    Implemented by the engine itself (pragmas are an engine concept),
    registered here so the id shows up in the catalog, the docs test,
    and ``repro lint --list`` like any other rule.  Two obligations:
    the pragma must name registered rule ids, and suppressions of deep
    (whole-program) rules must carry a ``-- reason`` string.
    """

    id = "pragma-hygiene"
    summary = "lint-ignore pragmas must name registered rule ids"
    rationale = (
        "a typo in a suppression would otherwise silently disable "
        "nothing and hide the intent"
    )


register_rule(PragmaHygieneRule())


@dataclass
class Suppressions:
    """Per-line suppression table for one module.

    Each line maps suppressed rule ids to the pragma's reason string
    (empty when the pragma gave none); deep-rule enforcement reads the
    reason back through :meth:`reason`.
    """

    by_line: Dict[int, Dict[str, str]] = field(default_factory=dict)

    def covers(self, line: int, rule_id: str) -> bool:
        """True when ``rule_id`` is suppressed on ``line``."""
        rules = self.by_line.get(line)
        if rules is None:
            return False
        return ALL_RULES in rules or rule_id in rules

    def reason(self, line: int, rule_id: str) -> str:
        """The documented reason for a suppression ('' when absent)."""
        rules = self.by_line.get(line, {})
        if rule_id in rules:
            return rules[rule_id]
        return rules.get(ALL_RULES, "")


def scan_pragmas(module: Module) -> Tuple[Suppressions, List[Finding]]:
    """Extract the suppression table and any pragma-hygiene findings.

    A pragma applies to its own line; a standalone comment line applies
    to the following line as well, covering both placement styles.
    """
    suppressions = Suppressions()
    findings: List[Finding] = []
    known = set(rule_ids())
    for lineno, text in enumerate(module.lines, start=1):
        match = PRAGMA_RE.search(text)
        if not match:
            continue
        raw = match.group("rules")
        reason = (match.group("reason") or "").strip()
        if raw is None:
            rules: Set[str] = {ALL_RULES}
        else:
            rules = {r.strip() for r in raw.split(",") if r.strip()}
            for rule_id in sorted(rules - known):
                findings.append(Finding(
                    rule="pragma-hygiene", path=module.relpath, line=lineno,
                    message=f"pragma suppresses unknown rule {rule_id!r}",
                ))
        targets = [lineno]
        if text.lstrip().startswith("#"):
            targets.append(lineno + 1)
        for target in targets:
            merged = dict(suppressions.by_line.get(target, {}))
            for rule_id in rules:
                merged[rule_id] = reason
            suppressions.by_line[target] = merged
    return suppressions, findings


def default_root() -> Path:
    """The installed ``repro`` package directory (``src/repro``)."""
    return Path(__file__).resolve().parents[1]


def default_baseline_path(root: Path) -> Path:
    """The committed baseline next to the repo root: ``lint-baseline.json``."""
    return root.parents[1] / "lint-baseline.json"


def _module_meta(root: Path, path: Path) -> Tuple[str, str]:
    """(relpath, dotted name) for one file under ``root``."""
    rel = path.relative_to(root)
    parts = list(rel.parts)
    if parts[-1] == "__init__.py":
        dotted = [root.name] + parts[:-1]
    else:
        dotted = [root.name] + parts[:-1] + [rel.stem]
    return f"{root.name}/{rel.as_posix()}", ".".join(dotted)


def scan_root(root: Path) -> List[Module]:
    """Parse every ``*.py`` under ``root`` into :class:`Module` objects.

    The walk is sorted — the linter obeys the determinism rules it
    enforces — and module names are derived from the root directory
    name, so synthetic test trees work the same as ``src/repro``.
    """
    modules: List[Module] = []
    for path in sorted(root.rglob("*.py")):
        relpath, name = _module_meta(root, path)
        text = path.read_text()
        modules.append(Module(
            path=path, relpath=relpath, name=name,
            tree=ast.parse(text, filename=str(path)),
            lines=text.splitlines(),
        ))
    return modules


@dataclass
class LintResult:
    """Everything one lint run produced, pre-rendered for reporters."""

    findings: List[Finding]  #: new findings (post-suppression, post-baseline)
    all_findings: List[Finding]  #: post-suppression, pre-baseline
    suppressed: int  #: findings silenced by pragmas
    baselined: int  #: findings matched by the committed baseline
    stale_baseline: List[str]  #: baseline fingerprints that matched nothing
    files: int  #: modules scanned
    rules: List[str]  #: rule ids that ran
    analyze: str = "basic"  #: analysis mode this result came from

    @property
    def clean(self) -> bool:
        """True when no new findings remain."""
        return not self.findings


def select_rules(
    rules: Optional[Sequence[str]] = None, analyze: str = "basic"
) -> List[Rule]:
    """Resolve a rule-id filter to rule objects.

    ``None`` selects every registered per-file/program rule; the deep
    (whole-program dataflow) rules join only under ``analyze="deep"``.
    An explicit id list always wins, so ``--rules taint-determinism``
    runs the deep pipeline regardless of the mode flag.
    """
    if rules is None:
        selected = all_rules()
        if analyze != "deep":
            selected = [r for r in selected if not isinstance(r, DeepRule)]
        return selected
    return [get_rule(rule_id) for rule_id in rules]


def run_lint(
    root: Optional[Path] = None,
    rules: Optional[Sequence[str]] = None,
    baseline_path: Optional[Path] = None,
    use_baseline: bool = True,
    analyze: str = "basic",
) -> LintResult:
    """Run the framework over ``root`` and return the filtered result.

    Args:
        root: Package directory to scan (default: the installed
            ``src/repro``).
        rules: Rule-id filter; None runs every registered rule of the
            selected ``analyze`` mode.
        baseline_path: Baseline file (default:
            ``<repo>/lint-baseline.json`` relative to ``root``; a
            missing file is an empty baseline).  Only the entries of
            the rules that ran are matched or reported stale.
        use_baseline: Set False to report grandfathered findings too.
        analyze: ``"basic"`` (per-file + import-graph rules) or
            ``"deep"`` (adds taint/race/contract whole-program rules).
    """
    root = Path(root) if root is not None else default_root()
    selected = select_rules(rules, analyze)
    selected_ids = {rule.id for rule in selected}
    deep_rules = [r for r in selected if isinstance(r, DeepRule)]
    deep_ids = {r.id for r in deep_rules}
    module_rules = [r for r in selected if not isinstance(r, DeepRule)]

    modules = scan_root(root)
    graph = build_import_graph(modules)

    # -- per-module rules and pragma tables ---------------------------------
    collected: List[Finding] = []
    suppression_of: Dict[str, Suppressions] = {}
    for module in modules:
        for rule in module_rules:
            collected.extend(rule.check_module(module))
        suppressions, pragma_findings = scan_pragmas(module)
        suppression_of[module.relpath] = suppressions
        if "pragma-hygiene" in selected_ids:
            collected.extend(pragma_findings)

    # -- whole-program rules: import graph, then the deep fact pools --------
    for rule in module_rules:
        collected.extend(rule.check_program(modules, graph))
    facts: Dict[str, Dict[str, Any]] = {}
    for rule in deep_rules:
        if rule.facts_key not in facts:
            facts[rule.facts_key] = {m.relpath: rule.extract(m)
                                     for m in modules}
        collected.extend(rule.solve(facts[rule.facts_key], modules, graph))

    # -- attach snippets (fingerprint input) --------------------------------
    lines_of: Dict[str, List[str]] = {m.relpath: m.lines for m in modules}

    def _snippet(finding: Finding) -> Finding:
        if finding.snippet:
            return finding
        if finding.path not in lines_of:
            # Out-of-package files (the facade rule's examples/ scan).
            candidate = root.parent / finding.path
            if not candidate.is_file():
                candidate = root.parents[1] / finding.path
            try:
                lines_of[finding.path] = (
                    candidate.read_text().splitlines()
                )
            except OSError:
                lines_of[finding.path] = []
        lines = lines_of[finding.path]
        if 1 <= finding.line <= len(lines):
            return finding.with_snippet(lines[finding.line - 1])
        return finding

    collected = [_snippet(f) for f in collected]

    # -- suppressions (with deep-rule reason enforcement) -------------------
    raw: List[Finding] = []
    suppressed = 0
    reasonless: Set[Tuple[str, int, str]] = set()
    for finding in collected:
        table = suppression_of.get(finding.path)
        if table is not None and table.covers(finding.line, finding.rule):
            suppressed += 1
            if (
                finding.rule in deep_ids
                and not table.reason(finding.line, finding.rule)
                and "pragma-hygiene" in selected_ids
            ):
                reasonless.add((finding.path, finding.line, finding.rule))
        else:
            raw.append(finding)
    for path, line, rule_id in sorted(reasonless):
        raw.append(_snippet(Finding(
            rule="pragma-hygiene", path=path, line=line,
            message=(
                f"suppressing whole-program rule {rule_id!r} requires a "
                f"documented reason: append ' -- <why>' to the pragma"
            ),
        )))

    raw.sort(key=Finding.sort_key)

    if use_baseline:
        baseline, _ = Baseline.load(
            baseline_path if baseline_path is not None
            else default_baseline_path(root)
        ).split(selected_ids)
        new, baselined, stale = baseline.apply(raw)
    else:
        new, baselined, stale = list(raw), 0, []

    return LintResult(
        findings=new,
        all_findings=raw,
        suppressed=suppressed,
        baselined=baselined,
        stale_baseline=stale,
        files=len(modules),
        rules=sorted(rule.id for rule in selected),
        analyze=analyze,
    )
