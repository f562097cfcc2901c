"""The facade-only-imports rule: consumers go through ``repro.api``.

The ``repro.api`` facade is the single supported import surface for
orchestration work — specs, verbs, and the query service.  This rule
keeps it honest: *consumer* code (the ``analysis`` package plus the
out-of-package ``examples/`` and ``benchmarks/`` trees) may not reach
around the facade into the deep orchestration modules it wraps.

Two scopes, one rule:

* **Scanned package** — every import edge whose source lives in a
  consumer group (:data:`CONSUMER_GROUPS`) and whose target sits under a
  deep prefix (:data:`DEEP_PREFIXES`) is a finding.  This rides on the
  same import graph the layering rule uses, so deferred imports are
  covered too.
* **Out-of-package trees** — ``examples/*.py`` and ``benchmarks/*.py``
  are not part of the installed package, so the engine never scans
  them.  The rule locates the repository root (the nearest ancestor of
  the scanned package carrying ``pyproject.toml``) and parses those
  trees itself.  Synthetic lint trees in tests have no such anchor and
  skip this half cleanly.

Building-block layers (``repro.mcu``, ``repro.datasets``, kernel
packages, ``repro.core.config`` ...) stay importable directly: the
facade harmonizes *orchestration*, not arithmetic.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable, List, Optional, Sequence, Tuple

from repro.lint.layering import group_of
from repro.lint.rules import (
    Finding,
    ImportGraph,
    Module,
    NodeIndex,
    Rule,
    register_rule,
)

#: The one blessed import surface consumers should use instead.
FACADE_MODULE = "repro.api"

#: Deep orchestration modules the facade wraps.  A target matches when
#: it *is* one of these or lives underneath one (segment-aware, so
#: ``repro.core.experiment_io`` does not match ``repro.core.experiment``).
DEEP_PREFIXES: Tuple[str, ...] = (
    "repro.closedloop",
    "repro.core.experiment",
    "repro.engine",
    "repro.faults",
    "repro.scenarios",
    "repro.service",
    "repro.vecprice",
)

#: Layer groups (see :mod:`repro.lint.layering`) held to facade-only
#: imports.  The facade itself, the CLI, and the service are plumbing
#: and keep their deep imports.
CONSUMER_GROUPS = frozenset({"analysis"})

#: Repo-root directories scanned in addition to the package tree.
EXTERNAL_DIRS: Tuple[str, ...] = ("benchmarks", "examples")


def deep_prefix_of(module_name: str) -> Optional[str]:
    """The matching deep prefix for a dotted module name, or ``None``."""
    for prefix in DEEP_PREFIXES:
        if module_name == prefix or module_name.startswith(prefix + "."):
            return prefix
    return None


def find_repo_root(modules: Sequence[Module]) -> Optional[Path]:
    """Nearest ancestor of the scanned tree carrying ``pyproject.toml``.

    Returns ``None`` for synthetic test trees, which have no anchor —
    the external-tree half of the rule then skips.
    """
    if not modules:
        return None
    start = modules[0].path.resolve().parent
    for candidate in (start, *start.parents):
        if (candidate / "pyproject.toml").is_file():
            return candidate
    return None


class FacadeOnlyImportsRule(Rule):
    """Consumer code must import orchestration via :data:`FACADE_MODULE`.

    Whole-program: checks consumer-group edges on the shared import
    graph, then independently parses the repo's ``examples/`` and
    ``benchmarks/`` trees (which live outside the package root).
    """

    id = "facade-only-imports"
    summary = "examples/analysis/benchmarks import via repro.api only"
    rationale = (
        "one supported surface keeps spec naming harmonized and lets "
        "internals refactor without breaking every consumer"
    )

    def check_program(
        self, modules: Sequence[Module], graph: ImportGraph
    ) -> Iterable[Finding]:
        """Yield one finding per deep import from a consumer site."""
        for edge in graph.edges:
            if group_of(edge.src_module) not in CONSUMER_GROUPS:
                continue
            prefix = deep_prefix_of(edge.target)
            if prefix is None:
                continue
            yield Finding(
                rule=self.id, path=edge.path, line=edge.line,
                message=(
                    f"{edge.src_module} imports {edge.target} directly; "
                    f"consumer code must go through {FACADE_MODULE}"
                ),
            )
        root = find_repo_root(modules)
        if root is None:
            return
        for dirname in EXTERNAL_DIRS:
            folder = root / dirname
            if not folder.is_dir():
                continue
            for path in sorted(folder.glob("*.py")):
                yield from self._check_external(path, f"{dirname}/{path.name}")

    def _check_external(self, path: Path, relpath: str) -> Iterable[Finding]:
        """Parse one out-of-package file and flag its deep imports."""
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError as exc:
            yield Finding(
                rule=self.id, path=relpath, line=exc.lineno or 1,
                message="file does not parse; cannot check facade imports",
            )
            return
        for node in NodeIndex(tree).nodes:
            if isinstance(node, ast.Import):
                targets: List[str] = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                # ``from repro.core import experiment`` reaches a deep
                # module through its package, so check joined names too.
                targets = [node.module] + [
                    f"{node.module}.{alias.name}" for alias in node.names
                ]
            else:
                continue
            flagged = sorted({
                prefix for prefix in map(deep_prefix_of, targets)
                if prefix is not None
            })
            for prefix in flagged:
                yield Finding(
                    rule=self.id, path=relpath, line=node.lineno,
                    message=(
                        f"imports {prefix} directly; consumer code must "
                        f"go through {FACADE_MODULE}"
                    ),
                )


register_rule(FacadeOnlyImportsRule())
