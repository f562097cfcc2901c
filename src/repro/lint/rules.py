"""Core types of the static-analysis framework: findings, modules, rules.

A *rule* inspects parsed modules and yields :class:`Finding` objects.
Per-file rules implement :meth:`Rule.check_module`; whole-program rules
(the layering analysis) implement :meth:`Rule.check_program` and see
every module plus the import graph at once.  Rules register themselves
into a process-wide registry keyed by a short, documented rule id — the
same id the suppression pragma and the baseline file use.

Each parsed module carries one :class:`NodeIndex`, built by a single
pre-order pass: every per-file rule, the import-alias table and the
import graph read it instead of walking the tree themselves.

Everything here is standard library only: the linter must be importable
(and fast) in contexts where numpy is not, and it must obey the same
layering discipline it enforces (``repro.lint`` is an import leaf).
"""

from __future__ import annotations

import ast
import hashlib
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``message`` and ``snippet`` are deliberately line-number free so
    that a finding's :meth:`fingerprint` survives unrelated edits above
    it — that is what makes the committed baseline file stable across
    refactors.  ``snippet`` is the whitespace-normalized source line the
    finding points at; the engine attaches it after rules run.
    """

    rule: str
    path: str  #: package-relative posix path, e.g. ``repro/engine/executor.py``
    line: int
    message: str
    snippet: str = ""  #: source line at ``line``, attached by the engine

    def snippet_hash(self) -> str:
        """Short digest of the normalized snippet (baseline key part)."""
        normalized = " ".join(self.snippet.split())
        return hashlib.sha256(normalized.encode()).hexdigest()[:12]

    def fingerprint(self) -> str:
        """Stable identity used by the baseline file (no line numbers).

        Keyed on (rule, path, snippet hash, message): unrelated edits
        above the finding move its line but not its fingerprint, while
        editing the flagged line itself invalidates the entry — exactly
        the staleness semantics a suppress-and-review baseline wants.
        """
        return f"{self.rule}::{self.path}::{self.snippet_hash()}::{self.message}"

    def with_snippet(self, snippet: str) -> "Finding":
        """Copy of this finding carrying the given source snippet."""
        return Finding(rule=self.rule, path=self.path, line=self.line,
                       message=self.message, snippet=snippet)

    def sort_key(self) -> tuple:
        """Canonical ordering: path, then line, then rule, then message."""
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> dict:
        """JSON-reporter representation."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
            "snippet": self.snippet,
        }


#: Nodes whose bodies are function scope.
_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

#: Node types CPython shares between parents (``Load``, ``Add``, ``Eq``
#: ...): they have no one parent and no rule reads them.
_SHARED = (ast.expr_context, ast.boolop, ast.operator, ast.unaryop, ast.cmpop)


class NodeIndex:
    """Every node of one tree from a single pre-order pass.

    ``nodes`` holds each node once, in pre-order (file order for
    statements), leaving out the shared operator and context nodes;
    ``parent`` maps every indexed node but the root to its parent;
    ``enclosed`` holds the indexed nodes a ``def``, ``async def`` or
    ``lambda`` encloses, its decorators and defaults included.
    """

    def __init__(self, tree: ast.AST):
        self.nodes: List[ast.AST] = []
        self.parent: Dict[ast.AST, ast.AST] = {}
        self.enclosed: Set[ast.AST] = set()
        stack = [(tree, False)]
        while stack:
            node, inside = stack.pop()
            self.nodes.append(node)
            if inside:
                self.enclosed.add(node)
            inside = inside or isinstance(node, _SCOPES)
            for child in reversed(list(ast.iter_child_nodes(node))):
                if not isinstance(child, _SHARED):
                    self.parent[child] = node
                    stack.append((child, inside))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """The nodes enclosing ``node``, innermost first."""
        node = self.parent.get(node)
        while node is not None:
            yield node
            node = self.parent.get(node)


@dataclass
class Module:
    """A parsed source file handed to every rule.

    The engine parses each file exactly once; rules share the tree, the
    raw source lines (the latter drive pragma detection), the node index
    and the import alias table, the last two built once on first use.
    """

    path: Path  #: absolute filesystem path
    relpath: str  #: package-relative posix path (``repro/obs/tracer.py``)
    name: str  #: dotted module name (``repro.obs.tracer``)
    tree: ast.Module
    lines: List[str]

    @cached_property
    def index(self) -> NodeIndex:
        """The module's node index, built once and shared."""
        return NodeIndex(self.tree)

    @cached_property
    def aliases(self) -> "ImportAliases":
        """The module's import-alias table; later bindings in the file win."""
        aliases = ImportAliases()
        for node in self.index.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    # ``import a.b`` binds ``a``; ``import a.b as c`` binds c->a.b.
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    aliases.modules[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and not node.level:
                for alias in node.names:
                    local = alias.asname or alias.name
                    aliases.symbols[local] = f"{node.module}.{alias.name}"
        return aliases


class Rule:
    """Base class for all checkers.

    Subclasses set :attr:`id`, :attr:`summary`, and :attr:`rationale`
    (the doc catalog is asserted against these in ``tests/test_lint.py``)
    and override one of the two hooks.
    """

    id: str = ""
    summary: str = ""
    rationale: str = ""

    def check_module(self, module: Module) -> Iterable[Finding]:
        """Yield findings for one file; default checks nothing."""
        return ()

    def check_program(
        self, modules: Sequence[Module], graph: "ImportGraph"
    ) -> Iterable[Finding]:
        """Yield whole-program findings; default checks nothing."""
        return ()


class DeepRule(Rule):
    """Whole-program rules split into extraction and solving phases.

    Deep rules (``repro lint --analyze deep``) separate the per-module
    work from the whole-program reasoning:

    * :meth:`extract` reads one parsed module and returns its facts;
    * :meth:`solve` sees every module's facts at once and yields
      findings, because a change in one module can create a violation
      reported in another.

    Rules sharing :attr:`facts_key` share one extraction pass: the
    taint and race engines both solve over the call-graph summaries
    produced by :func:`repro.lint.callgraph.summarize_module`.
    """

    #: Rules with the same key share one :meth:`extract` pass.
    facts_key: str = ""

    def extract(self, module: Module) -> Any:
        """Per-module facts for :meth:`solve`."""
        return {}

    def solve(
        self,
        facts: Dict[str, Any],
        modules: Sequence[Module],
        graph: "ImportGraph",
    ) -> Iterable[Finding]:
        """Whole-program pass over ``{relpath: facts}``."""
        return ()


_REGISTRY: Dict[str, Rule] = {}


def register_rule(rule: Rule) -> Rule:
    """Add ``rule`` to the registry (id collisions are programmer error)."""
    if not rule.id:
        raise ValueError(f"rule {rule!r} has no id")
    if rule.id in _REGISTRY:
        raise ValueError(f"duplicate rule id: {rule.id}")
    _REGISTRY[rule.id] = rule
    return rule


def rule_ids() -> List[str]:
    """All registered rule ids, sorted."""
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    """Look up one rule by id (KeyError with the known ids otherwise)."""
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise KeyError(
            f"unknown rule id {rule_id!r}; known: {', '.join(rule_ids())}"
        ) from None


def all_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    return [_REGISTRY[rid] for rid in rule_ids()]


@dataclass(frozen=True)
class ImportEdge:
    """One import statement, attributed to its source location.

    ``deferred`` marks imports that happen inside a function or method
    body — lazy imports, which the layering rule may treat differently
    (the ``core -> engine`` delegation seam is deferred-only).
    """

    src_module: str
    target: str
    path: str
    line: int
    deferred: bool


@dataclass
class ImportGraph:
    """All intra-repo import edges plus the scanned module names."""

    edges: List[ImportEdge] = field(default_factory=list)
    module_names: List[str] = field(default_factory=list)


def _resolve_relative(module_name: str, level: int, base: Optional[str]) -> str:
    """Resolve a ``from ... import`` target for relative imports."""
    if level == 0:
        return base or ""
    parts = module_name.split(".")
    # level 1 from a module means "its package": drop the module leaf.
    anchor = parts[: len(parts) - level] if len(parts) >= level else []
    if base:
        anchor = anchor + [base]
    return ".".join(anchor)


def build_import_graph(modules: Sequence[Module]) -> ImportGraph:
    """Collect every import edge from every module, tagging deferred ones.

    ``from X import y`` may import a submodule or a symbol: the edge
    targets ``X.y`` when that names a scanned module, else ``X``.
    Edges come in module-name order, then file order; an import inside
    a function body is deferred.
    """
    graph = ImportGraph(module_names=[m.name for m in modules])
    names = set(graph.module_names)
    by_name = {m.name: m for m in modules}
    for name in sorted(by_name):
        module = by_name[name]
        for node in module.index.nodes:
            if isinstance(node, ast.Import):
                targets = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = _resolve_relative(name, node.level, node.module)
                joined = [f"{base}.{alias.name}" if base else alias.name
                          for alias in node.names]
                targets = [j if j in names else base for j in joined]
            else:
                continue
            deferred = node in module.index.enclosed
            graph.edges.extend(
                ImportEdge(src_module=name, target=target,
                           path=module.relpath, line=node.lineno,
                           deferred=deferred)
                for target in targets
            )
    return graph


@dataclass
class ImportAliases:
    """Name-resolution table for one module, shared by the AST checkers.

    Maps local names to the canonical dotted thing they refer to:
    ``np -> numpy`` (module alias), ``perf_counter -> time.perf_counter``
    (symbol alias).  :meth:`resolve` then turns any ``Name`` /
    ``Attribute`` chain into its canonical dotted path, so checkers can
    match ``time.perf_counter`` however it was imported.
    """

    modules: Dict[str, str] = field(default_factory=dict)
    symbols: Dict[str, str] = field(default_factory=dict)

    def imports_any(self, packages: Sequence[str]) -> bool:
        """True when the module imports one of ``packages`` or below."""
        targets = list(self.modules.values()) + [
            v.rsplit(".", 1)[0] for v in self.symbols.values()
        ]
        return any(
            t == pkg or t.startswith(pkg + ".")
            for t in targets for pkg in packages
        )

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Canonical dotted name for a Name/Attribute chain, if known."""
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        parts.reverse()
        head = node.id
        if head in self.modules:
            return ".".join([self.modules[head]] + parts)
        if head in self.symbols:
            return ".".join([self.symbols[head]] + parts)
        return ".".join([head] + parts) if parts else head

