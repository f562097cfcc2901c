"""repro.lint — AST + import-graph static analysis for repo invariants.

The reproduction's headline guarantees — byte-identical results across
runs and ``--jobs`` counts, and a strict layer map ("observing never
changes what is observed") — are enforced here as machine-checked
rules rather than prose.  The framework is stdlib-only (``ast``,
``json``, ``re``) and is itself an import leaf in the layer map it
polices.

Entry points::

    python -m repro lint                      # CLI gate (text report)
    python -m repro lint --analyze deep       # + taint/race/contract engines
    python -m repro lint --format json        # canonical machine report
    python -m repro lint --format sarif       # GitHub code-scanning log
    python -m repro lint --list               # rule catalog
    pytest tests/test_lint.py                 # the same engine as tests

See ``docs/static-analysis.md`` for the rule catalog, the
``lint-ignore[rule-id] -- reason`` suppression-pragma syntax, and the
baseline workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    LintResult,
    default_baseline_path,
    default_root,
    run_lint,
    scan_root,
    select_rules,
)
from repro.lint.layering import (
    ALLOWED,
    DEFERRED_ALLOWED,
    GROUPS,
    allowed_edges,
    group_of,
    render_rule_table,
)
from repro.lint.report import (
    render_json,
    render_rule_list,
    render_sarif,
    render_text,
)
from repro.lint.rules import (
    DeepRule,
    Finding,
    all_rules,
    build_import_graph,
    get_rule,
    rule_ids,
)

# Importing the checker modules registers every rule.
import repro.lint.archconstants  # noqa: F401,E402
import repro.lint.checkers  # noqa: F401,E402
import repro.lint.contracts  # noqa: F401,E402
import repro.lint.facade  # noqa: F401,E402
import repro.lint.races  # noqa: F401,E402
import repro.lint.taint  # noqa: F401,E402

__all__ = [
    "ALLOWED",
    "Baseline",
    "DEFERRED_ALLOWED",
    "DeepRule",
    "Finding",
    "GROUPS",
    "LintResult",
    "all_rules",
    "allowed_edges",
    "build_import_graph",
    "default_baseline_path",
    "default_root",
    "get_rule",
    "group_of",
    "render_json",
    "render_rule_list",
    "render_rule_table",
    "render_sarif",
    "render_text",
    "rule_ids",
    "run_lint",
    "scan_root",
    "select_rules",
]
